"""A forecast that no closed-form check rejects but that is not finite fails
with "non-finite forecast" in the kernel itself, so the one-window and
one-history calls raise exactly where a roll flags the step."""
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from greycast.benchmarks import LinearSpec, forecast_histories, forecast_linear
from greycast import errors
from greycast.errors import (
    GreycastError,
    InsufficientDataError,
    InvalidInputError,
    NumericalDegeneracyError,
)
from greycast.models import GreyFit, ModelKind, fit_model, fit_windows, forecast, forecast_windows
from greycast.rolling import RollingConfig, parse_model, roll_forecast
from greycast.series import Series

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "rolls.json").read_text())
NON_FINITE_FORECAST = "non-finite forecast"

# Doubling counts: GM11 fits a close to -ln 2, and 1095 steps ahead its
# growth e^(-a s) is finite while the forecast's product overflows.
DOUBLING = [171662918.79469323, 356672348.1945543, 717671357.5351195, 1380138222.92525]


@pytest.mark.parametrize("kind", [ModelKind.GM11, ModelKind.GM_ESC])
def test_forecast_raises_where_it_returned_inf(kind):
    with pytest.raises(InvalidInputError) as err:
        forecast(fit_model(kind, DOUBLING), 1095)
    assert str(err.value) == NON_FINITE_FORECAST


def test_forecast_raises_on_a_product_overflow():
    fit = GreyFit(ModelKind.GM11, a=-1.0, b=1.7e308, x0_1=1.0, window_len=4)
    with pytest.raises(InvalidInputError, match="^non-finite forecast$"):
        forecast(fit)


def test_an_overflowing_exponential_keeps_its_own_error():
    fit = GreyFit(ModelKind.GM11, a=-800.0, b=1.0, x0_1=1.0, window_len=4)
    with pytest.raises(NumericalDegeneracyError, match="closed form overflowed"):
        forecast(fit)


def test_forecast_windows_flags_only_the_non_finite_windows():
    windows = np.array([DOUBLING, [3.0, 4.0, 6.0, 5.0]])
    with np.errstate(all="ignore"):
        fits = fit_windows(ModelKind.GM11, windows)
        values = forecast_windows(fits, 1095)
    assert not np.isfinite(values[0]) and np.isfinite(values[1])
    assert list(fits.failures.errors) == [0]
    assert str(fits.failures.errors[0]) == NON_FINITE_FORECAST


@pytest.mark.parametrize("model", ["GM11", "GVM", "GM_S", "GM_C", "GM_SC", "GM_ESC"])
@pytest.mark.parametrize("steps", [400, 1095])
def test_each_long_horizon_step_is_its_one_window_call(model, steps):
    values = np.array(GOLDEN["series"]["wild"] + DOUBLING + [2.6e9, 5.1e9, 9.8e9])
    config = RollingConfig(model=model, multi_step=steps)
    kind, _, _ = parse_model(model)
    w = config.effective_window()
    trace = roll_forecast(Series(values), config)
    errors = dict(trace.errors)
    flagged_non_finite = 0
    for (target, predicted, _), flagged in zip(trace.predictions, trace.fallbacks):
        try:
            expected, message = forecast(fit_model(kind, values[target - 1 - w:target - 1]),
                                         steps), None
            assert math.isfinite(expected)
        except GreycastError as exc:
            message = str(exc)
        assert errors.get(target) == message
        if message is None:
            assert predicted == expected
        flagged_non_finite += message == NON_FINITE_FORECAST
    if model in ("GM11", "GM_ESC") and steps == 1095:
        assert flagged_non_finite  # the doubling window reaches the rule


def test_forecast_histories_reports_non_finite_rows():
    spec = LinearSpec(intercept=0.0, coeffs=(1e308, 1e308))
    values = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    with np.errstate(all="ignore"):
        forecasts, messages = forecast_histories(spec, values, 1)
    # Row r forecasts from values[:1 + r]; row 0 is too short for two lags,
    # and two lags of 1 give 2e308.
    assert messages == {0: "history of 1 < required 2", 1: NON_FINITE_FORECAST,
                        4: NON_FINITE_FORECAST}
    assert [math.isfinite(v) for v in forecasts] == [False, False, True, True, False, True]


def test_one_history_call_raises_the_class_of_its_row():
    spec = LinearSpec(intercept=0.0, coeffs=(1e308, 1e308))
    with pytest.raises(InsufficientDataError, match="^history of 1 < required 2$"):
        forecast_linear(spec, [1.0])
    with pytest.raises(InvalidInputError, match="^non-finite forecast$"):
        forecast_linear(spec, [1.0, 1.0])
    assert forecast_linear(spec, [1.0, 0.0]) == 1e308


@pytest.mark.parametrize("name,message", [
    ("NON_FINITE_FORECAST", NON_FINITE_FORECAST),
    ("NON_FINITE_SYSTEM", "least-squares entries must be finite"),
])
def test_a_shared_message_is_written_once(name, message):
    """Every module raises the one constant of ``errors``."""
    assert getattr(errors, name, None) == message
    where = [path.name for path in sorted((ROOT / "src" / "greycast").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and node.value == message]
    assert where == ["errors.py"]
