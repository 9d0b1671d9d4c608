"""The batched window engine against the per-step path it replaced.

``golden/rolls.json`` holds the predictions, fallback flags and error messages
that the per-step loop (one ``fit_model`` + ``forecast`` per window) emitted
for the twelve grey models; ``golden/make_golden.py`` says how it was made.
"""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from greycast import Series, rolling
from greycast.errors import GreycastError, NumericalDegeneracyError
from greycast.lstsq import (
    LeastSquaresProblem,
    SingularSystemError,
    solve_least_squares,
    solve_stacked,
)
from greycast.models import (
    GreyFit,
    ModelKind,
    accumulated_response,
    fit_model,
    forecast,
    forecast_gm11,
    forecast_gvm,
    forecast_trig,
)
from greycast.rolling import GREY_MODEL_NAMES, RollingConfig, parse_model, roll_forecast

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rolls.json").read_text())
#: Relative tolerance per golden series. The fixture's "wild" forecasts were
#: computed by an older closed form, which lost up to ulp(3e12), about 2e-9 of
#: a forecast, on windows with |a| just above DEGENERATE_A; the tolerance
#: absorbs that older rounding.
REL_TOL = {"wild": 1e-8}
BASE_MODELS = tuple(m for m in GREY_MODEL_NAMES if not m.startswith("EF"))


def _mask(message: str) -> str:
    return re.sub(r"condition estimate [^)]*", "condition estimate #", message)


def _golden_cases():
    for number, case in enumerate(GOLDEN["cases"]):
        for model in case["rolls"]:
            label = f"{case['series']}-{number}-{model}"
            yield pytest.param(case, model, id=label)


@pytest.mark.parametrize("case,model", _golden_cases())
def test_golden_rolls_match_per_step_path(case, model):
    values = GOLDEN["series"][case["series"]][:case.get("cut")]
    expected = case["rolls"][model]
    trace = roll_forecast(Series(values), RollingConfig(model=model, **case["config"]))
    flags = "".join("1" if f else "0" for f in trace.fallbacks)
    assert flags == expected["flags"]
    scale = max(abs(v) for v in values)
    for (target, predicted, _), golden in zip(trace.predictions, expected["pred"]):
        if golden is None:
            assert predicted == values[target - 2]
        else:
            assert math.isclose(predicted, golden,
                                rel_tol=REL_TOL.get(case["series"], 1e-9),
                                abs_tol=1e-12 * scale), (target, predicted, golden)
    messages = [[target, GOLDEN["messages"].index(_mask(text))]
                for target, text in trace.errors]
    assert messages == expected["errors"]


@pytest.mark.parametrize("model", GREY_MODEL_NAMES)
def test_prefix_rolls_are_bit_identical(model):
    rng = np.random.default_rng(17)
    k = np.arange(1, 61)
    values = np.clip(20 + 5 * np.sin(2 * np.pi * k / 12) + rng.normal(0, 0.5, 60), 0, None)
    values[30:36] = 0.0  # a zero run: singular fits fall back
    config = RollingConfig(model=model)
    w = config.effective_window()
    full = roll_forecast(Series(values), config)
    for t in range(w + 1, values.size + 1):
        part = roll_forecast(Series(values[:t]), config)
        count = len(part.predictions)
        assert part.predictions == full.predictions[:count]
        assert part.fallbacks == full.fallbacks[:count]
        assert part.errors == full.errors[:len(part.errors)]


@pytest.mark.parametrize("model,extra", [("GM11", {}), ("GVM", {}), ("EFGM_C", {}),
                                         ("EFGM_SC", {"window": 6, "ef_in_window": True})])
def test_batch_size_does_not_change_a_roll(model, extra, monkeypatch):
    values = GOLDEN["series"]["traffic_day"] + GOLDEN["series"]["spikes"]
    config = RollingConfig(model=model, **extra)
    whole = roll_forecast(Series(values), config)
    monkeypatch.setattr(rolling, "BATCH_WINDOWS", 7)
    batched = roll_forecast(Series(values), config)
    assert batched.predictions == whole.predictions
    assert batched.fallbacks == whole.fallbacks
    assert batched.errors == whole.errors


@pytest.mark.parametrize("model", BASE_MODELS)
def test_each_step_is_its_one_window_call(model):
    """An unflagged step is forecast(fit_model(window)) to the bit; a flagged
    one carries the message that call raises."""
    values = np.array(GOLDEN["series"]["traffic_day"] + GOLDEN["series"]["spikes"])
    config = RollingConfig(model=model)
    kind, _, _ = parse_model(model)
    w = config.effective_window()
    trace = roll_forecast(Series(values), config)
    errors = dict(trace.errors)
    for (target, predicted, _), flagged in zip(trace.predictions, trace.fallbacks):
        try:
            expected = forecast(fit_model(kind, values[target - 1 - w:target - 1]))
            message = None if math.isfinite(expected) else "non-finite forecast"
        except GreycastError as exc:
            message = str(exc)
        assert flagged == (message is not None)
        if flagged:
            assert errors[target] == message
            assert predicted == values[target - 2]
        else:
            assert predicted == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(2, 6),
       st.integers(1, 4), st.floats(-8, 8))
def test_stacked_systems_solve_as_alone(seed, count, rows, cols, log_scale):
    rng = np.random.default_rng(seed)
    cols = min(cols, rows)
    designs = rng.normal(size=(count, rows, cols)) * 10.0 ** log_scale
    designs[::3, :, -1] = designs[::3, :, 0] * 2.0  # exactly rank deficient
    designs[1::4, :, 0] *= 1e-13  # condition above the gate
    designs[2::5] = 0.0  # no rank at all
    targets = rng.normal(size=(count, rows))
    stacked = solve_stacked(designs, targets)
    for i in range(count):
        alone = solve_stacked(designs[i:i + 1].copy(), targets[i:i + 1].copy())
        assert alone.rejected[0] == stacked.rejected[i]
        assert alone.condition[0] == stacked.condition[i]
        assert np.array_equal(alone.solutions[0], stacked.solutions[i], equal_nan=True)
        problem = LeastSquaresProblem(designs[i], targets[i])
        if stacked.rejected[i]:
            with pytest.raises(SingularSystemError):
                solve_least_squares(problem)
        else:
            assert np.array_equal(solve_least_squares(problem), stacked.solutions[i])


@st.composite
def adversarial_series(draw):
    """Zero runs, stuck runs and spikes, at a scale from 1e-300 to 1e300."""
    n = draw(st.integers(7, 40))
    base = draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    values = np.array(base)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        length = draw(st.integers(1, 12))
        kind = draw(st.sampled_from(["zeros", "stuck", "spike"]))
        if kind == "zeros":
            values[start:start + length] = 0.0
        elif kind == "stuck":
            values[start:start + length] = values[start]
        else:
            values[start] *= draw(st.sampled_from([1e3, 1e6, 1e9]))
    with np.errstate(over="ignore"):
        return values * 10.0 ** draw(st.integers(-300, 300))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial_series(), st.sampled_from(GREY_MODEL_NAMES), st.integers(1, 50))
def test_adversarial_rolls_degrade_to_flagged_persistence(values, model, horizon):
    assume(np.isfinite(values).all())  # a spike at 1e300 scale can overflow
    config = RollingConfig(model=model, multi_step=horizon)
    trace = roll_forecast(Series(values), config)
    flagged_targets = {target for target, _ in trace.errors}
    for (target, predicted, _), flagged in zip(trace.predictions, trace.fallbacks):
        assert math.isfinite(predicted)
        assert flagged == (target in flagged_targets)
        if flagged:
            assert predicted == values[target - 2]


@pytest.mark.parametrize("fit,bare", [
    # e^(a(k-1)) overflows while the product form itself would come out 0.
    (GreyFit(ModelKind.GVM, a=200.0, b=0.5, x0_1=2.0, window_len=4),
     lambda fit: forecast_gvm(fit, 5)),
    (GreyFit(ModelKind.GM11, a=-200.0, b=1.0, x0_1=2.0, window_len=4),
     lambda fit: forecast_gm11(fit, 5)),
    (GreyFit(ModelKind.GM_C, a=-200.0, b1=0.5, b2=1.0, omega=2.65, x0_1=2.0,
             window_len=4), lambda fit: forecast_trig(fit, 5)),
    (GreyFit(ModelKind.GM_ESC, a=-200.0, b1=0.5, b2=0.2, b3=1.0, omega=2.65,
             x0_1=2.0, window_len=4), lambda fit: accumulated_response(fit, 5.0)),
])
def test_overflow_raises_where_math_exp_raises(fit, bare):
    with pytest.raises(OverflowError):
        bare(fit)
    with pytest.raises(NumericalDegeneracyError, match="closed form overflowed"):
        forecast(fit, steps_ahead=2)
