"""The trace CSV is written a trace at a time, with shared text per series.

``format_trace_csv`` builds the ",index,observed," text of a series once and
reuses it for every model's trace of that series, and joins each trace's rows
as one block. Its output must be byte for byte what the per-row export gave
(``per_row_trace_csv`` below, kept as the oracle) for every label that needs
no quoting. A label that holds a comma, a quote, CR or LF is quoted as
``csv.QUOTE_MINIMAL`` quotes it, so every row reads back as 7 fields.

Complex arrays and bools given for numbers are refused where their float
cast would lose data silently.
"""
import csv
import io

import numpy as np
import pytest

from greycast import Series
from greycast.benchmarks import forecast_linear
from greycast.cli import EXIT_OK, main
from greycast.config import load_config
from greycast.data import Dataset
from greycast.errors import InvalidInputError
from greycast.fourier import ResidualSeries
from greycast.metrics import mape, rmse
from greycast.models import ModelKind, fit_model
from greycast.report import compare, format_trace_csv
from greycast.rolling import ForecastTrace, OmegaGrid, RollingConfig

HEADER = "series,model,index,observed,predicted,residual,fallback_flag"
SPECS = load_config()


def per_row_trace_csv(traces, series_labels=None) -> str:
    """The export as it was written before it shared text: one string per row."""
    labels = (list(map(str, range(len(traces)))) if series_labels is None
              else list(series_labels))
    lines = [HEADER]
    for label, trace in zip(labels, traces):
        head = f"{label},{trace.model},"
        predicted, observed = trace.predicted_values, trace.observed_values
        first = trace.start_index
        with np.errstate(over="ignore"):
            residual = observed - predicted
        lines.extend(f"{head}{index},{o!r},{p!r},{r!r},{int(flag)}"
                     for index, o, p, r, flag in zip(
                         range(first, first + predicted.size), observed.tolist(),
                         predicted.tolist(), residual.tolist(), trace.fallback_flags.tolist()))
    return "\n".join(lines) + "\n"


def hand_built(predicted, observed, flags, model="GM11", start_index=5) -> ForecastTrace:
    predicted, observed = np.array(predicted, dtype=float), np.array(observed, dtype=float)
    with np.errstate(over="ignore"):
        residual = observed - predicted
    return ForecastTrace(model=model, start_index=start_index, predicted_values=predicted,
                         observed_values=observed, fallback_flags=np.array(flags, dtype=bool),
                         residuals=ResidualSeries(np.nan_to_num(residual), start_index),
                         per_step_time=(0.0,) * predicted.size, errors=())


def day_with_zero_runs(rng, size=60) -> np.ndarray:
    """Counts with a zero run and a stuck run, on which grey fits fail."""
    values = rng.poisson(40.0, size).astype(float)
    zero = int(rng.integers(5, size // 2))
    values[zero:zero + 10] = 0.0
    stuck = int(rng.integers(size // 2, size - 8))
    values[stuck:stuck + 6] = values[stuck]
    return values


MODELS = ["GM11", "GM_SC", "GM_C", "EFGM", "GVM", "LINEAR", "SETAR"]


@pytest.fixture(scope="module")
def many_traces():
    """Traces of 6 series x 7 models, model by model, as ``compare`` gives them."""
    rng = np.random.default_rng(2024)
    data = Dataset(series=tuple(Series(day_with_zero_runs(rng), label=f"day {k}")
                                for k in range(6)))
    report, traces = compare(data, models=MODELS, config=RollingConfig(), specs=SPECS)
    labels = [series.label for row in report.rows if not row.failed
              for series in data.series]
    return traces, labels


def test_many_series_and_models_match_the_per_row_export(many_traces):
    traces, labels = many_traces
    assert len(traces) == 6 * len(MODELS)
    assert any(trace.fallback_count for trace in traces)  # zero runs fall back
    starts = {trace.model: trace.start_index for trace in traces}
    assert starts["GM11"] != starts["GM_SC"]  # GM_SC's longer window starts later
    text = format_trace_csv(traces, labels)
    assert text == per_row_trace_csv(traces, labels)
    assert format_trace_csv(traces) == per_row_trace_csv(traces)
    # Series-major order shares text across traces that are not adjacent.
    order = sorted(range(len(traces)), key=lambda k: (labels[k], k))
    picked = [traces[k] for k in order]
    assert format_trace_csv(picked, sorted(labels)) == per_row_trace_csv(picked, sorted(labels))


def test_failed_steps_hold_persistence_in_the_export(many_traces):
    traces, labels = many_traces
    rows = list(csv.reader(io.StringIO(format_trace_csv(traces, labels))))
    assert rows[0] == HEADER.split(",")
    flagged = [row for row in rows[1:] if row[6] == "1"]
    assert flagged and all(len(row) == 7 for row in rows)
    for trace in traces:
        flags = trace.fallback_flags
        persistence = np.concatenate(([np.nan], trace.observed_values[:-1]))[flags]
        # After the first step, a flagged step forecasts the last observation.
        if flags[1:].any():
            assert np.array_equal(trace.predicted_values[flags][persistence == persistence],
                                  persistence[persistence == persistence])


def test_extreme_floats_and_overflowing_misses():
    traces = [
        hand_built([0.1 + 0.2, 1 / 3, 2.0 ** 0.5], [0.30000000000000004, 0.3333333333333333,
                   1.4142135623730951], [False, False, True]),
        hand_built([1e300, -1e-300, 5e-324], [1e-300, 1e300, -5e-324], [False, True, False],
                   model="GM_C", start_index=9),
        hand_built([1.7e308, -1.7e308], [-1.7e308, 1.7e308], [False, False], model="LINEAR"),
    ]
    text = format_trace_csv(traces, ["x", "y", "z"])
    assert text == per_row_trace_csv(traces, ["x", "y", "z"])
    assert "z,LINEAR,5,-1.7e+308,1.7e+308,-inf,0\n" in text
    assert "z,LINEAR,6,1.7e+308,-1.7e+308,inf,0\n" in text
    assert "x,GM11,5,0.30000000000000004,0.30000000000000004,0.0,0\n" in text
    assert "y,GM_C,11,-5e-324,5e-324,-1e-323,0\n" in text


def test_negative_zero_observations_are_not_shared_with_zero():
    plus = hand_built([1.0, 1.0], [0.0, 2.0], [False, False])
    minus = hand_built([1.0, 1.0], [-0.0, 2.0], [False, False], model="GM_C")
    text = format_trace_csv([plus, minus], ["s", "s"])
    assert text == per_row_trace_csv([plus, minus], ["s", "s"])
    assert "s,GM11,5,0.0,1.0,-1.0,0\n" in text
    assert "s,GM_C,5,-0.0,1.0,-1.0,0\n" in text


def test_two_series_under_one_label_keep_their_own_observations():
    first = hand_built([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], [False, True, False])
    other = hand_built([1.0, 2.0, 3.0], [9.5, 8.5, 7.5], [True, False, False])
    later = hand_built([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], [False, False, True], start_index=6)
    traces = [first, other, later, replace_model(first, "GM_C"), replace_model(other, "GM_C")]
    labels = ["same"] * len(traces)
    text = format_trace_csv(traces, labels)
    assert text == per_row_trace_csv(traces, labels)
    assert "same,GM11,5,9.5,1.0,8.5,1\n" in text
    assert "same,GM11,6,1.5,1.0,0.5,0\n" in text  # the same observations, one index later


def replace_model(trace: ForecastTrace, model: str) -> ForecastTrace:
    return hand_built(trace.predicted_values, trace.observed_values, trace.fallback_flags,
                      model=model, start_index=trace.start_index)


def test_default_labels_and_no_traces():
    traces = [hand_built([1.0], [2.0], [True]), hand_built([3.0, 4.0], [2.0, 1.0], [False, True])]
    assert format_trace_csv(traces) == per_row_trace_csv(traces)
    assert format_trace_csv(traces).splitlines()[1:] == [
        "0,GM11,5,2.0,1.0,1.0,1", "1,GM11,5,2.0,3.0,-1.0,0", "1,GM11,6,1.0,4.0,-3.0,1"]
    assert format_trace_csv([]) == HEADER + "\n"
    assert format_trace_csv([], []) == per_row_trace_csv([], [])


QUOTED = ['north, lane 2', 'say "hi"', 'a\nb', 'c\rd', '"', ',', '', ' padded ', 'é\tx']


def test_labels_that_need_quoting_read_back_through_csv():
    traces = [hand_built([1.0, 2.0], [3.0, 4.0], [False, True]) for _ in QUOTED]
    traces.append(hand_built([1.0], [1.0], [False], model="GM,11"))
    labels = QUOTED + ["plain"]
    text = format_trace_csv(traces, labels)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == HEADER.split(",")
    assert all(len(row) == 7 for row in rows)
    assert [row[0] for row in rows[1:]] == [label for label in QUOTED for _ in range(2)] + ["plain"]
    assert [row[1] for row in rows[1:]] == ["GM11"] * 2 * len(QUOTED) + ["GM,11"]
    # Quoted as csv.QUOTE_MINIMAL quotes a field (its default line end is CRLF).
    for label in QUOTED:
        written = io.StringIO()
        csv.writer(written).writerow([label, "GM11"])
        assert f"\n{written.getvalue()[:-2]},5,3.0," in text
    # A label that needs no quoting keeps its bytes.
    plain = [6, 7, 8]
    assert format_trace_csv([traces[k] for k in plain], [labels[k] for k in plain]) == \
        per_row_trace_csv([traces[k] for k in plain], [labels[k] for k in plain])


def test_compare_trace_output_quotes_a_location(tmp_path):
    lines = ["timestamp,value,location"]
    for i in range(1, 13):
        lines.append(f'{i},{10 + i % 3},"north, lane 2"')
        lines.append(f'{i},{20 + i % 4},"say ""hi"""')
    source = tmp_path / "quoted.csv"
    source.write_text("\n".join(lines) + "\n")
    trace_path = tmp_path / "traces.csv"
    assert main(["compare", "--models", "GM11,LINEAR", "--input", str(source),
                 "--output", str(tmp_path / "report.txt"),
                 "--trace-output", str(trace_path)]) == EXIT_OK
    with open(trace_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == HEADER.split(",")
    assert {len(row) for row in rows} == {7}
    assert {row[0] for row in rows[1:]} == {"north, lane 2", 'say "hi"'}


COMPLEX = {
    "Series": (lambda: Series(np.array([1 + 5j, 2.0])), "series values must be real numbers"),
    "Series-complex64": (lambda: Series(np.array([1.0, 2.0], dtype=np.complex64)),
                         "series values must be real numbers"),
    "rmse": (lambda: rmse(np.array([1 + 9j]), [1.0]), "metric inputs must be real numbers"),
    "rmse-observed": (lambda: rmse([1.0], np.array([1 + 0j])),
                      "metric inputs must be real numbers"),
    "mape": (lambda: mape(np.array([1 + 9j]), [1.0]), "metric inputs must be real numbers"),
    "fit_model": (lambda: fit_model(ModelKind.GM11, np.array([1 + 1j, 2.0, 3.0, 4.0])),
                  "a window must be a 1-d sequence of finite values"),
    "LINEAR": (lambda: forecast_linear(SPECS.linear, np.arange(1.0, 60.0) + 1j),
               "a history must be a 1-d sequence of finite values"),
}


@pytest.mark.filterwarnings("error")  # no ComplexWarning: refused before the cast
@pytest.mark.parametrize("call, message", COMPLEX.values(), ids=list(COMPLEX))
def test_a_complex_array_is_refused(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_real_arrays_of_other_dtypes_still_pass():
    assert Series(np.array([1, 2], dtype=np.int32)).values.tolist() == [1.0, 2.0]
    assert Series(np.array([1.5], dtype=np.float32)).values.dtype == float
    assert rmse(np.array([1.0, 2.0], dtype=np.float32), [1.0, 2.0]) == 0.0


BOOLS = {
    "Series-True": lambda: Series([1.0, 2.0], interval=True),
    "Series-np.True_": lambda: Series([1.0, 2.0], interval=np.True_),
    "OmegaGrid-lo": lambda: OmegaGrid(True, 1, 0.5),
    "OmegaGrid-np-lo": lambda: OmegaGrid(np.True_, 1, 0.5),
    "OmegaGrid-hi": lambda: OmegaGrid(0.5, True, 0.5),
    "OmegaGrid-step": lambda: OmegaGrid(0.5, 2, np.True_),
}


@pytest.mark.parametrize("call", BOOLS.values(), ids=list(BOOLS))
def test_a_bool_is_not_a_number(call):
    with pytest.raises(InvalidInputError, match="must be (a number|numbers)"):
        call()


def test_false_interval_is_still_not_positive():
    with pytest.raises(InvalidInputError, match="sampling interval must be positive"):
        Series([1.0], interval=False)
