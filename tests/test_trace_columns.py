"""A trace keeps its steps as columns and builds the per-step tuples on read.

``roll_forecast`` used to build ``predictions`` as (index, predicted, observed)
3-tuples, ``fallbacks`` as a tuple of flags and ``errors`` as (target,
message) pairs. Every trace, from a standalone roll or from ``compare``, must
still give exactly those tuples; its columns must read as the same floats,
bit for bit; and the trace CSV must be byte for byte what the tuples gave.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from greycast import Series
from greycast.config import load_config
from greycast.data import Dataset
from greycast.errors import InvalidInputError
from greycast.fourier import ResidualSeries
from greycast.report import compare, format_trace_csv
from greycast.rolling import ALL_MODEL_NAMES, ForecastTrace, RollingConfig, roll_forecast
from test_engine import adversarial_series

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rolls.json").read_text())
SPECS = load_config()

SETTINGS = {
    "default": {},
    "multi-step": {"multi_step": 3},
    "clamp": {"clamp_nonnegative": True},
    "in-window": {"window": 6, "ef_in_window": True},
}


def hexes(values) -> list:
    return [float(v).hex() for v in values]


def tuple_steps(trace: ForecastTrace, values: np.ndarray, config: RollingConfig):
    """(predictions, fallbacks, error targets) as the tuple-building roll made
    them: targets w+1 .. n, observations values[w:], one error per flagged step."""
    w = config.effective_window()
    flags = trace.fallback_flags
    predictions = tuple(zip(range(w + 1, values.size + 1), trace.predicted_values.tolist(),
                            values[w:].tolist()))
    return predictions, tuple(flags.tolist()), [w + 1 + int(j) for j in np.flatnonzero(flags)]


def old_trace_csv(traces, labels) -> str:
    """``format_trace_csv`` as it was written over the tuple views."""
    lines = ["series,model,index,observed,predicted,residual,fallback_flag"]
    for label, trace in zip(labels, traces):
        for (index, predicted, observed), flag in zip(trace.predictions, trace.fallbacks):
            lines.append(f"{label},{trace.model},{index},{observed!r},{predicted!r},"
                         f"{observed - predicted!r},{int(flag)}")
    return "\n".join(lines) + "\n"


def assert_columns_match_tuples(values, config: RollingConfig, views_first: bool) -> None:
    values = np.asarray(values, dtype=float)
    trace = roll_forecast(Series(values), config)
    if views_first:  # a view built first must not depend on the other
        fallbacks, predictions = trace.fallbacks, trace.predictions
    else:
        predictions, fallbacks = trace.predictions, trace.fallbacks
    expected, flags, targets = tuple_steps(trace, values, config)
    assert predictions == expected
    assert [(i, p.hex(), o.hex()) for i, p, o in predictions] == \
        [(i, p.hex(), o.hex()) for i, p, o in expected]
    assert fallbacks == flags
    assert all(type(flag) is bool for flag in fallbacks)
    assert [target for target, _ in trace.errors] == targets
    assert all(isinstance(message, str) and message for _, message in trace.errors)
    # Each view is built once and then kept.
    assert trace.predictions is predictions and trace.fallbacks is fallbacks
    assert trace.fallback_count == sum(flags)
    assert hexes(trace.predicted()) == [p.hex() for _, p, _ in expected]
    assert hexes(trace.observed()) == [o.hex() for _, _, o in expected]
    assert hexes(trace.residuals.values) == hexes(values[config.effective_window():]
                                                   - trace.predicted_values)
    assert trace.residuals == ResidualSeries(trace.residuals.values,
                                             start_index=trace.start_index)
    for column in (trace.predicted_values, trace.observed_values, trace.fallback_flags,
                   trace.residuals.values):
        assert not column.flags.writeable
    # What predicted() and observed() return is the caller's own.
    predicted, observed = trace.predicted(), trace.observed()
    predicted += 1.0
    observed[:] = 0.0
    assert trace.predictions == expected
    assert hexes(trace.predicted()) == [p.hex() for _, p, _ in expected]


def golden_cases():
    for setting in SETTINGS:
        for model in ALL_MODEL_NAMES:
            yield pytest.param(model, setting, id=f"{model}-{setting}")


@pytest.mark.parametrize("model,setting", golden_cases())
def test_golden_rolls_give_the_tuples_of_their_columns(model, setting):
    config = RollingConfig(model=model, **SETTINGS[setting])
    for number, values in enumerate(GOLDEN["series"].values()):
        if len(values) > config.effective_window():
            assert_columns_match_tuples(values, config, views_first=number % 2 == 1)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial_series(), st.sampled_from(ALL_MODEL_NAMES), st.sampled_from(list(SETTINGS)),
       st.booleans())
def test_adversarial_rolls_give_the_tuples_of_their_columns(values, model, setting,
                                                            views_first):
    config = RollingConfig(model=model, **SETTINGS[setting])
    if not np.isfinite(values).all() or values.size <= config.effective_window():
        return
    try:
        assert_columns_match_tuples(values, config, views_first)
    except InvalidInputError as exc:  # neighbours farther apart than the float range
        assert "differ by more than the float range" in str(exc)


def golden_dataset() -> Dataset:
    return Dataset(series=tuple(Series(np.array(values), label=name)
                                for name, values in GOLDEN["series"].items()))


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_compare_traces_equal_standalone_rolls(setting):
    config = RollingConfig(**SETTINGS[setting])
    data = golden_dataset()
    report, traces = compare(data, config=config, specs=SPECS)
    rows = [row for row in report.rows if not row.failed]
    assert len(traces) == len(rows) * len(data.series)
    for m, row in enumerate(rows):
        cfg = replace(config, model=row.model)
        for series, trace in zip(data.series, traces[m * len(data.series):]):
            alone = roll_forecast(series, cfg)
            assert trace == alone
            assert (trace.predictions, trace.fallbacks, trace.errors) == \
                (alone.predictions, alone.fallbacks, alone.errors)
            assert hexes(trace.predicted_values) == hexes(alone.predicted_values)
    labels = [series.label for _ in rows for series in data.series]
    assert format_trace_csv(traces, labels) == old_trace_csv(traces, labels)
    assert format_trace_csv(traces) == old_trace_csv(traces, map(str, range(len(traces))))


def test_equality_ignores_timings_only():
    values = np.array(GOLDEN["series"]["spikes"])
    trace = roll_forecast(Series(values), RollingConfig(model="EFGM"))
    assert trace.fallback_count > 0
    assert replace(trace, per_step_time=(1.0,) * len(trace.predictions)) == trace
    assert replace(trace) == trace and replace(trace).predictions == trace.predictions
    nudged = trace.predicted()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    flipped = ~trace.fallback_flags
    assert replace(trace, predicted_values=nudged) != trace
    assert replace(trace, fallback_flags=flipped) != trace
    assert replace(trace, start_index=trace.start_index + 1) != trace
    assert replace(trace, errors=()) != trace
    assert trace != trace.predictions


def test_a_trace_is_unhashable():
    trace = roll_forecast(Series(np.arange(1.0, 9.0)), RollingConfig())
    with pytest.raises(TypeError, match="ForecastTrace"):
        hash(trace)


def hand_built(predicted, observed, flags, model="GM11", start_index=5) -> ForecastTrace:
    predicted, observed = np.array(predicted), np.array(observed)
    return ForecastTrace(model=model, start_index=start_index, predicted_values=predicted,
                         observed_values=observed, fallback_flags=np.array(flags),
                         residuals=ResidualSeries(observed - predicted, start_index),
                         per_step_time=(0.0,) * predicted.size, errors=())


def test_a_hand_built_trace_keeps_its_own_columns():
    predicted, observed = np.array([1.0, 2.0]), [3.0, 4.0]
    trace = ForecastTrace("GM11", 5, predicted, observed, [False, True],
                          ResidualSeries([2.0, 2.0], 5), (0.0, 0.0), ((6, "why"),))
    predicted[0] = 9.0
    assert trace.predictions == ((5, 1.0, 3.0), (6, 2.0, 4.0))
    assert trace.fallbacks == (False, True)
    assert trace.fallback_flags.dtype == bool
    for column in (trace.predicted_values, trace.observed_values, trace.fallback_flags):
        assert not column.flags.writeable


def test_trace_csv_keeps_every_float_digit():
    tiny = 5e-324
    traces = [
        hand_built([-0.0, tiny, 1e300, -1e300, 0.1], [0.0, -tiny, -1e300, 1e300, 0.3],
                   [False, True, False, True, False]),
        hand_built([2.0], [-0.0], [True], model="EFGVM", start_index=12),
    ]
    text = format_trace_csv(traces, ["a", "b"])
    assert text == old_trace_csv(traces, ["a", "b"])
    assert "a,GM11,5,0.0,-0.0,0.0,0" in text
    assert "a,GM11,6,-5e-324,5e-324,-1e-323,1" in text
    assert "a,GM11,7,-1e+300,1e+300,-2e+300,0" in text
    assert "b,EFGVM,12,-0.0,2.0,-2.0,1" in text
    assert format_trace_csv(traces) == old_trace_csv(traces, ["0", "1"])
    assert format_trace_csv([]) == "series,model,index,observed,predicted,residual,fallback_flag\n"


@pytest.mark.parametrize("labels", [[], ["a"], ["a", "b", "c"]])
def test_trace_csv_needs_one_label_per_trace(labels):
    traces = [hand_built([1.0], [2.0], [False]), hand_built([1.0], [2.0], [False])]
    with pytest.raises(InvalidInputError, match=f"{len(labels)} series labels for 2 traces"):
        format_trace_csv(traces, labels)
