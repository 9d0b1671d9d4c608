"""Benchmark rolls over stacked histories against the per-step forecasters.

``reference_roll`` is the per-step loop the stacked rolls replaced: at every
step it calls ``reference_forecast``, the scalar LINEAR, ARIMA/SARIMA and SETAR
arithmetic, on the history before the target, and a library error or a
non-finite forecast falls back to persistence with the error's message.
"""
import math

import numpy as np
import pytest

from greycast import Series
from greycast.benchmarks import (
    ArimaSpec,
    LinearSpec,
    SetarSpec,
    forecast_arima,
    forecast_linear,
    forecast_setar,
    psi_weights,
)
from greycast.config import load_config
from greycast.errors import GreycastError, InsufficientDataError, InvalidInputError
from greycast.rolling import RollingConfig, roll_forecast

PACKAGED = load_config()
TIE = PACKAGED.setar.threshold

#: (model name, spec, standard psi): the packaged specs in both psi modes, a
#: LINEAR spec with delay 3 and a SETAR spec with delay 2.
SPECS = {
    "LINEAR": ("LINEAR", PACKAGED.linear, False),
    "LINEAR-delay3": ("LINEAR", LinearSpec(0.5, (1.5, 1.0, -0.25), delay=3), False),
    "ARIMA": ("ARIMA", PACKAGED.arima, False),
    "ARIMA-standard": ("ARIMA", PACKAGED.arima, True),
    "SARIMA": ("SARIMA", PACKAGED.sarima, False),
    "SARIMA-standard": ("SARIMA", PACKAGED.sarima, True),
    "SETAR": ("SETAR", PACKAGED.setar, False),
    "SETAR-delay2": ("SETAR", SetarSpec(1.0, (0.5, 0.25), -2.0, (1.25, 0.5, 0.75),
                                        threshold=TIE, delay=2), False),
}


def reference_forecast(spec, z: np.ndarray, weights=None) -> float:
    """One-step forecast from the history ``z``, one lag at a time."""
    if isinstance(spec, ArimaSpec):
        if z.size < spec.min_history:
            raise InsufficientDataError(
                f"history of {z.size} < required {spec.min_history}")
        lagged = z[-1:-spec.truncation - 1:-1]
        return float(spec.mu * (1.0 - weights.sum()) + weights @ lagged)
    if isinstance(spec, SetarSpec):
        need = max(len(spec.low_coeffs), len(spec.high_coeffs), spec.delay + 1)
        if z.size < need:
            raise InsufficientDataError(f"history of {z.size} < required {need}")
        if z[-1 - spec.delay] <= spec.threshold:
            intercept, coeffs = spec.low_intercept, spec.low_coeffs
        else:
            intercept, coeffs = spec.high_intercept, spec.high_coeffs
        return float(intercept + sum(c * z[-1 - j] for j, c in enumerate(coeffs)))
    need = (len(spec.coeffs) - 1) * spec.delay + 1
    if z.size < need:
        raise InsufficientDataError(f"history of {z.size} < required {need}")
    return float(spec.intercept
                 + sum(c * z[-1 - j * spec.delay] for j, c in enumerate(spec.coeffs)))


def arima_weights(spec, standard: bool):
    if not isinstance(spec, ArimaSpec):
        return None
    return np.asarray(psi_weights(spec, spec.truncation + 1, standard=standard)[1:])


def reference_roll(values: np.ndarray, w: int, spec, standard: bool):
    """(predictions, flags, errors) of the per-step loop."""
    weights = arima_weights(spec, standard)
    predictions, flags, errors = [], [], []
    with np.errstate(all="ignore"):
        for target in range(w + 1, values.size + 1):
            flagged = False
            try:
                pred = reference_forecast(spec, values[:target - 1], weights)
                if not math.isfinite(pred):
                    raise InvalidInputError("non-finite forecast")
            except GreycastError as exc:
                pred = float(values[target - 2])
                flagged = True
                errors.append((target, str(exc)))
            predictions.append(pred)
            flags.append(flagged)
    return predictions, tuple(flags), tuple(errors)


def bits(xs) -> list:
    return [float(x).hex() for x in xs]


def need_of(spec) -> int:
    if isinstance(spec, ArimaSpec):
        return spec.min_history
    if isinstance(spec, SetarSpec):
        return max(len(spec.low_coeffs), len(spec.high_coeffs), spec.delay + 1)
    return (len(spec.coeffs) - 1) * spec.delay + 1


def make_series() -> dict:
    rng = np.random.default_rng(20240601)
    k = np.arange(1, 161)
    base = 20.0 + 5.0 * np.sin(2 * np.pi * k / 18) + rng.normal(0.0, 1.0, k.size)
    series = {"seasonal": base, "negative": -base,
              "mixed": rng.normal(0.0, 10.0, k.size)}
    for exponent in (-300, -150, 150, 300):
        series[f"scale1e{exponent}"] = base * 10.0 ** exponent
        series[f"negative1e{exponent}"] = -base * 10.0 ** exponent
    # Transition values at the SETAR threshold: ties go to the low regime.
    series["ties"] = rng.choice([TIE - 1.0, TIE, TIE + 1.0], size=k.size)
    overflow = base.copy()
    overflow[70:110] = 1e308
    series["overflow"] = overflow
    return series


SERIES = make_series()


def assert_matches_reference(values: np.ndarray, name: str, w: int):
    model, spec, standard = SPECS[name]
    trace = roll_forecast(Series(values), RollingConfig(
        model=model, window=w, benchmark_spec=spec, standard_psi=standard))
    predictions, flags, errors = reference_roll(values, w, spec, standard)
    assert [t for t, _, _ in trace.predictions] == list(range(w + 1, values.size + 1))
    assert bits(trace.predicted()) == bits(predictions)
    assert trace.fallbacks == flags
    assert trace.errors == errors
    assert bits(trace.residuals.values) == bits(values[w:] - np.array(predictions))
    return trace


@pytest.mark.parametrize("w", [4, 6])
@pytest.mark.parametrize("series", sorted(SERIES))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_roll_matches_per_step_loop(name, series, w):
    assert_matches_reference(SERIES[series], name, w)


@pytest.mark.parametrize("name", ["LINEAR", "ARIMA", "ARIMA-standard", "SARIMA",
                                  "SARIMA-standard", "SETAR"])
def test_packaged_config_roll_matches_per_step_loop(name):
    """A roll that takes its spec from the packaged configuration."""
    model, spec, standard = SPECS[name]
    values = SERIES["seasonal"]
    trace = roll_forecast(Series(values), RollingConfig(model=model, standard_psi=standard))
    predictions, flags, errors = reference_roll(values, 4, spec, standard)
    assert bits(trace.predicted()) == bits(predictions)
    assert (trace.fallbacks, trace.errors) == (flags, errors)


def test_cases_reach_the_edges():
    """The overflow run overflows, and SETAR's transition value ties."""
    for name in ("LINEAR-delay3", "ARIMA", "SETAR-delay2"):
        trace = assert_matches_reference(SERIES["overflow"], name, 4)
        assert ("non-finite forecast" in dict(trace.errors).values()), name
    values = SERIES["ties"]
    delay = SPECS["SETAR-delay2"][1].delay
    assert np.count_nonzero(values[3 - delay:-1 - delay] == TIE) > 20


@pytest.mark.parametrize("w", [4, 6])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_series_shorter_than_need_is_all_warm_up(name, w):
    _, spec, _ = SPECS[name]
    size = max(need_of(spec), w + 1)  # its longest history has size - 1 points
    trace = assert_matches_reference(SERIES["seasonal"][:size], name, w)
    if need_of(spec) > w:
        assert all(trace.fallbacks)
        assert dict(trace.errors)[size] == \
            f"history of {size - 1} < required {need_of(spec)}"


@pytest.mark.parametrize("w", [4, 6])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_prefix_rolls_are_bit_identical(name, w):
    model, spec, standard = SPECS[name]
    config = RollingConfig(model=model, window=w, benchmark_spec=spec,
                           standard_psi=standard)
    values = SERIES["mixed"]
    full = roll_forecast(Series(values), config)
    need = need_of(spec)
    for cut in sorted({w + 1, need, need + 1, need + 2, 100, values.size - 1}):
        if cut < w + 1:
            continue
        part = roll_forecast(Series(values[:cut]), config)
        count = len(part.predictions)
        assert part.predictions == full.predictions[:count]
        assert bits(part.predicted()) == bits(full.predicted()[:count])
        assert part.fallbacks == full.fallbacks[:count]
        assert part.errors == tuple(e for e in full.errors if e[0] <= cut)


@pytest.mark.parametrize("w", [4, 6])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_roll_over_last_need_plus_one_points_equals_last_step(name, w):
    """The shortest series that forecasts its last target reproduces it: a
    history one point short, or one point too long, would not."""
    model, spec, standard = SPECS[name]
    config = RollingConfig(model=model, window=w, benchmark_spec=spec,
                           standard_psi=standard)
    values = SERIES["mixed"]
    full = roll_forecast(Series(values), config)
    tail = roll_forecast(Series(values[-(max(need_of(spec), w) + 1):]), config)
    assert not tail.fallbacks[-1]
    assert full.predictions[-1][1:] == tail.predictions[-1][1:]
    assert float(full.predictions[-1][1]).hex() == float(tail.predictions[-1][1]).hex()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_history_forecasters_match_reference(name):
    model, spec, standard = SPECS[name]
    weights = arima_weights(spec, standard)
    values = SERIES["mixed"]
    for end in range(0, values.size + 1, 7):
        history = values[:end]
        try:
            expected = reference_forecast(spec, history, weights)
        except InsufficientDataError as exc:
            with pytest.raises(InsufficientDataError, match=f"^{exc}$"):
                one_history(model, spec, history, standard)
            continue
        assert float(one_history(model, spec, history, standard)).hex() == expected.hex()
        assert float(one_history(model, spec, list(history), standard)).hex() \
            == expected.hex()


def one_history(model, spec, history, standard):
    if model == "LINEAR":
        return forecast_linear(spec, history)
    if model == "SETAR":
        return forecast_setar(spec, history)
    return forecast_arima(spec, history, standard=standard)
