"""The EF correction as a cached linear filter against the per-step EF loop.

``reference_roll`` is the EF loop the filter replaced: at every step it fits
``fit_residual_fourier`` to the residual buffer (or to the window's own
residuals) and applies ``corrected_forecast``. Base forecasts and their
fallbacks come from the engine's batched base forecasts, which
``test_engine`` pins.
"""
import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from greycast import Series, fourier, lstsq, rolling
from greycast.benchmarks import forecast_arima, psi_weights
from greycast.config import load_config
from greycast.errors import GreycastError
from greycast.fourier import (
    ResidualSeries,
    corrected_forecast,
    correction_weights,
    extrapolate_error,
    fit_residual_fourier,
    max_harmonics,
)
from greycast.rolling import GREY_MODEL_NAMES, RollingConfig, parse_model, roll_forecast

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rolls.json").read_text())
EF_MODELS = tuple(m for m in GREY_MODEL_NAMES if m.startswith("EF"))


def reference_roll(values: np.ndarray, config: RollingConfig):
    """(predictions, flags, errors) of the per-step EF loop."""
    kind, ef, _ = parse_model(config.model)
    assert ef
    w = config.effective_window()
    in_window = config.ef_in_window
    raw, fitted, base_errors = rolling._base_forecasts(values, w, kind, config, in_window)
    buffer = deque(maxlen=config.ef_residual_window)  # (index, residual)
    predictions, flags, errors = [], [], []
    for j, target in enumerate(range(w + 1, values.size + 1)):
        exc = base_errors.get(j)
        message = None if exc is None else str(exc)
        base = pred = float(raw[j])
        if message is None:
            try:
                if in_window:
                    res = ResidualSeries(values[j + 1:j + w] - fitted[j], start_index=2)
                    model = fit_residual_fourier(res, _cap(config, len(res)))
                    pred = corrected_forecast(base, model, res.next_index)
                elif buffer:
                    res = ResidualSeries(np.array([r for _, r in buffer]),
                                         start_index=buffer[0][0])
                    model = fit_residual_fourier(res, _cap(config, len(res)))
                    pred = corrected_forecast(base, model, buffer[-1][0] + 1)
            except GreycastError as error:
                message = str(error)
        if message is not None:
            pred = float(values[target - 2])
            errors.append((target, message))
        elif not in_window:
            buffer.append((target, float(values[target - 1]) - base))
        if config.clamp_nonnegative and pred < 0.0:
            pred = 0.0
        predictions.append(pred)
        flags.append(message is not None)
    return predictions, tuple(flags), tuple(errors)


def _cap(config: RollingConfig, count: int):
    if config.ef_harmonics is None:
        return None
    return min(config.ef_harmonics, max_harmonics(count))


def assert_matches_reference(values, config: RollingConfig) -> None:
    values = np.asarray(values, dtype=float)
    predictions, flags, errors = reference_roll(values, config)
    trace = roll_forecast(Series(values), config)
    assert trace.fallbacks == flags
    assert trace.errors == errors
    assert len(trace.per_step_time) == len(flags)
    assert all(t >= 0.0 for t in trace.per_step_time)
    scale = float(np.max(np.abs(values)))
    for (target, predicted, _), expected in zip(trace.predictions, predictions):
        assert math.isclose(predicted, expected, rel_tol=1e-9, abs_tol=1e-12 * scale), (
            target, predicted, expected)


def gappy_series() -> np.ndarray:
    """Seasonal counts with a zero run in the middle: GVM cannot fit windows
    that hold a zero, so GVM and EFGVM fall back there after the residual
    buffer has filled, and the buffer resumes with a gap in its indices."""
    k = np.arange(1, 91)
    values = 30.0 + 10.0 * np.sin(2.0 * np.pi * k / 12.0)
    values += np.random.default_rng(5).normal(0.0, 1.0, 90)
    values[40:44] = 0.0
    return values


GOLDEN_SERIES = ("seasonal", "traffic_day", "spikes", "wild", "tiny", "huge")


@pytest.mark.parametrize("model", EF_MODELS)
@pytest.mark.parametrize("name", GOLDEN_SERIES)
@pytest.mark.parametrize("extra", [
    {},
    {"ef_residual_window": 13, "ef_harmonics": 1},
    {"window": 6, "ef_in_window": True},
    {"window": 8, "ef_in_window": True},
], ids=["default", "r13-f1", "in-window-6", "in-window-8"])
def test_filter_matches_per_step_loop(model, name, extra):
    omega = {"omega": 0.5} if name == "wild" else {}
    assert_matches_reference(GOLDEN["series"][name],
                             RollingConfig(model=model, **omega, **extra))


@pytest.mark.parametrize("model", ["GVM", "EFGVM"])
def test_gappy_series_falls_back_mid_buffer(model):
    trace = roll_forecast(Series(gappy_series()), RollingConfig(model=model))
    flags = np.array(trace.fallbacks)
    first = int(np.argmax(flags))
    assert first > 24 and not flags[first:].all()  # fallbacks after a full buffer


@pytest.mark.parametrize("model", EF_MODELS)
@pytest.mark.parametrize("extra", [{}, {"ef_residual_window": 13, "ef_harmonics": 1},
                                   {"ef_residual_window": 5}])
def test_filter_matches_per_step_loop_across_gaps(model, extra):
    assert_matches_reference(gappy_series(), RollingConfig(model=model, **extra))


@pytest.fixture
def injected_base(monkeypatch):
    """Overwrite chosen base forecasts or in-window fitted values of a roll."""
    real = rolling._base_forecasts

    def inject(raw_at=None, fitted_at=None):
        def base_forecasts(*args):
            raw, fitted, errors = real(*args)
            raw = raw.copy()
            for step, value in (raw_at or {}).items():
                raw[step] = value
            if fitted_at:
                fitted = fitted.copy()
                for step, value in fitted_at.items():
                    fitted[step, 0] = value
            return raw, fitted, errors
        monkeypatch.setattr(rolling, "_base_forecasts", base_forecasts)
    return inject


def test_non_finite_residual_stops_the_correction(injected_base):
    """Step 30's base residual overflows; clamping keeps its own prediction
    finite. Every later step falls back: the next base-OK one on the buffer,
    and the rest with it, as a fallback leaves the buffer as it is."""
    values = np.array(GOLDEN["series"]["seasonal"])
    values[4 + 30] = 1e308
    injected_base(raw_at={30: -1e308})
    config = RollingConfig(model="EFGM", clamp_nonnegative=True)
    assert_matches_reference(values, config)
    trace = roll_forecast(Series(values), config)
    assert trace.fallbacks == (False,) * 31 + (True,) * (len(trace.fallbacks) - 31)
    # Windows holding the 1e308 observation fail in the base fit; the first
    # window past it (step 35) falls back on the buffer.
    assert dict(trace.errors)[4 + 1 + 35] == "residuals must be finite"


def test_non_finite_in_window_residual_falls_back_alone(injected_base):
    injected_base(fitted_at={12: math.inf})
    config = RollingConfig(model="EFGM_C", window=6, ef_in_window=True)
    assert_matches_reference(GOLDEN["series"]["seasonal"], config)
    trace = roll_forecast(Series(GOLDEN["series"]["seasonal"]), config)
    assert trace.errors == ((6 + 1 + 12, "residuals must be finite"),)


@pytest.fixture
def fourier_rejected(monkeypatch):
    """Every Fourier design (its first column is the constant 1/2) rejected
    by the solver's gate; grey designs solve as usual."""
    def rejecting(solve):
        def wrapper(designs, targets):
            result = solve(designs, targets)
            constant = (designs[:, :, 0] == 0.5).all(axis=1)
            return result._replace(rejected=result.rejected | constant)
        return wrapper

    monkeypatch.setattr(lstsq, "solve_stacked", rejecting(lstsq.solve_stacked))
    monkeypatch.setattr(fourier, "solve_stacked", rejecting(fourier.solve_stacked))
    correction_weights.cache_clear()
    yield
    correction_weights.cache_clear()


@pytest.mark.parametrize("extra", [{}, {"window": 8, "ef_in_window": True}])
def test_rejected_design_falls_back_like_per_step_loop(fourier_rejected, extra):
    values = GOLDEN["series"]["seasonal"]
    config = RollingConfig(model="EFGM_C", **extra)
    assert_matches_reference(values, config)
    trace = roll_forecast(Series(values), config)
    assert trace.errors and all("near-singular" in m for _, m in trace.errors)


@pytest.mark.parametrize("n", range(1, 41))
def test_weights_equal_fit_and_extrapolation(n):
    rng = np.random.default_rng(n)
    for count in range(max_harmonics(n) + 1):
        weights = correction_weights(n, count)
        period = max(n - 1, 1)
        assert weights.shape == (period, n) and not weights.flags.writeable
        for k0 in (0, 2, 1 + int(rng.integers(0, 5000))):
            eps = rng.normal(0.0, 3.0, n)
            model = fit_residual_fourier(ResidualSeries(eps, start_index=k0), count)
            for o in range(period):
                assert math.isclose(weights[o] @ eps, extrapolate_error(model, k0 + o),
                                    rel_tol=1e-9, abs_tol=1e-12 * 3.0)


def test_zero_harmonics_weights_are_the_mean():
    assert np.array_equal(correction_weights(6, 0), np.full((5, 6), 1.0 / 6.0))


def test_identical_rolls_compare_equal():
    values = Series(GOLDEN["series"]["seasonal"])
    first = roll_forecast(values, RollingConfig(model="EFGM_C"))
    again = roll_forecast(values, RollingConfig(model="EFGM_C"))
    other = roll_forecast(values, RollingConfig(model="EFGM_S"))
    assert first == again
    assert first != other
    assert first.residuals != other.residuals
    assert first.residuals == ResidualSeries(first.residuals.values.copy(),
                                             first.residuals.start_index)
    assert first.residuals != ResidualSeries(first.residuals.values, 1)


@pytest.mark.parametrize("name", ["ARIMA", "SARIMA"])
@pytest.mark.parametrize("standard", [False, True])
def test_arima_forecast_uses_psi_weights_bit_for_bit(name, standard):
    spec = load_config().spec(name)
    history = np.array(GOLDEN["series"]["seasonal"] * 2)
    for end in (spec.min_history, spec.min_history + 7, history.size):
        weights = np.asarray(psi_weights(spec, spec.truncation + 1, standard=standard)[1:])
        lagged = history[:end][-1:-spec.truncation - 1:-1]
        expected = float(spec.mu * (1.0 - weights.sum()) + weights @ lagged)
        assert forecast_arima(spec, history[:end], standard=standard) == expected
