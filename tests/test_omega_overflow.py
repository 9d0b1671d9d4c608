"""A frequency for which omega * t overflows falls back, flagged, like omega <= 0.

sin(omega t) and cos(omega t) have no value once omega * t is infinite. A
fit that would take them at a window's times, or a closed form that would
take them at the forecast time, fails every window with a typed message
instead, and a roll falls back to persistence at every step.
"""
import math
import sys

import pytest

from greycast import InvalidInputError, Series
from greycast.cli import EXIT_OK, main
from greycast.errors import CalibrationFailedError
from greycast.data import generate_synthetic
from greycast.models import (
    EF_NAME,
    MIN_WINDOW,
    OMEGA_OVERFLOW,
    TRIG_KINDS,
    fit_model,
    forecast,
)
from greycast.rolling import OmegaGrid, RollingConfig, calibrate_omega, roll_forecast

MODELS = [name for kind in TRIG_KINDS for name in (kind.value, EF_NAME[kind])]
MAX = sys.float_info.max


@pytest.fixture(scope="module")
def series() -> Series:
    return generate_synthetic("seasonal", seed=3, sigma=0.5, n=60)


def window_of(model: str) -> int:
    kind = next(kind for kind in TRIG_KINDS if model in (kind.value, EF_NAME[kind]))
    return MIN_WINDOW[kind]


def assert_all_fall_back(series, config, message):
    trace = roll_forecast(series, config)
    values = series.values
    w = values.size - trace.predicted_values.size
    assert trace.fallback_flags.all()
    assert trace.errors == tuple((w + 1 + j, message) for j in range(values.size - w))
    assert trace.predicted_values.tolist() == values[w - 1:-1].tolist()


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("omega", [math.inf, 1e308, MAX])
def test_omega_overflowing_at_the_window_falls_back(series, model, omega):
    w = window_of(model)
    assert_all_fall_back(series, RollingConfig(model=model, omega=omega),
                         f"{OMEGA_OVERFLOW} at t = {w}")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("steps", [1, 3])
def test_omega_overflowing_at_the_forecast_time_falls_back(series, model, steps):
    w = window_of(model)
    t = w + steps
    omega = MAX / (t - 0.5)  # omega * (t - 1) is finite, omega * t is not
    assert math.isfinite(omega * (t - 1)) and math.isinf(omega * t)
    assert_all_fall_back(series, RollingConfig(model=model, omega=omega, multi_step=steps),
                         f"{OMEGA_OVERFLOW} at t = {t}")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("omega", [-math.inf, math.nan, 0.0, -1.0])
def test_omega_not_positive_keeps_its_message(series, model, omega):
    assert_all_fall_back(series, RollingConfig(model=model, omega=omega),
                         "omega must be positive")


@pytest.mark.parametrize("model", [EF_NAME[kind] for kind in TRIG_KINDS])
def test_in_window_ef_falls_back_too(series, model):
    w = max(6, window_of(model))
    assert_all_fall_back(series, RollingConfig(model=model, omega=math.inf, window=w,
                                               ef_in_window=True),
                         f"{OMEGA_OVERFLOW} at t = {w}")


@pytest.mark.parametrize("kind", TRIG_KINDS)
def test_one_window_calls_raise_a_typed_error(series, kind):
    window = series.values[:MIN_WINDOW[kind]]
    with pytest.raises(InvalidInputError, match="omega \\* t overflows"):
        fit_model(kind, window, omega=math.inf)
    fit = fit_model(kind, window, omega=0.5)
    with pytest.raises(InvalidInputError, match="omega \\* t overflows"):
        forecast(fit.__class__(**{**fit.__dict__, "omega": MAX / MIN_WINDOW[kind]}))


@pytest.mark.parametrize("kind", TRIG_KINDS)
def test_calibration_skips_overflowing_candidates(series, kind):
    omega = calibrate_omega(series, kind, OmegaGrid(0.5, 1e308, 1e307))
    assert omega in OmegaGrid(0.5, 1e308, 1e307).candidates()
    with pytest.raises(CalibrationFailedError):
        calibrate_omega(series, kind, OmegaGrid(1e308, 1.7e308, 1e307))


def test_cli_forecast_with_infinite_omega_exits_ok(tmp_path, series, capsys):
    path = tmp_path / "series.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"{i},{float(v)!r}\n" for i, v in enumerate(series.values, start=1)))
    assert main(["--omega", "inf", "forecast", "GM_C", "--input", str(path)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == series.values.size - 4
    assert all(row.endswith(",1") for row in rows)
