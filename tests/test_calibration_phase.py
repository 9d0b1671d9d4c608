"""calibrate_omega keeps to frequencies whose phase the floats can resolve.

Once ulp(omega * t) exceeds pi, sin(omega t) and cos(omega t) are arbitrary
numbers, so a grid reaching that far must not pick such a candidate just
because its noise happened to fit best.
"""
import math

import numpy as np
import pytest

from greycast import CalibrationFailedError, Series
from greycast.models import TRIG_KINDS
from greycast.rolling import OmegaGrid, RollingConfig, calibrate_omega, roll_forecast


@pytest.fixture(scope="module")
def series() -> Series:
    k = np.arange(1, 41, dtype=float)
    return Series(np.abs(np.sin(k)) * 10.0 + 5.0)


@pytest.mark.parametrize("kind", TRIG_KINDS)
def test_unresolvable_phases_are_skipped(series, kind):
    grid = OmegaGrid(0.5, 1e308, 1e307)
    # Every candidate but 0.5 rolls without falling back everywhere ...
    trace = roll_forecast(series, RollingConfig(model=kind.value, omega=1e307))
    assert not trace.fallback_flags.all()
    # ... yet its phases carry no information, so 0.5 wins.
    assert calibrate_omega(series, kind, grid) == 0.5


@pytest.mark.parametrize("kind", TRIG_KINDS)
def test_the_bound_is_taken_at_the_forecast_time(series, kind):
    w = RollingConfig(model=kind.value).effective_window()
    # Resolved to within pi at t = w + 1, but not at t = w + 3.
    omega = math.ldexp(1.0, 54) / (w + 2)
    assert math.ulp(omega * (w + 1)) <= math.pi < math.ulp(omega * (w + 3))
    grid = OmegaGrid(omega, omega, 1.0)
    assert calibrate_omega(series, kind, grid, RollingConfig(multi_step=1)) == omega
    with pytest.raises(CalibrationFailedError):
        calibrate_omega(series, kind, grid, RollingConfig(multi_step=3))


@pytest.mark.parametrize("kind", TRIG_KINDS)
def test_a_horizon_that_stops_the_search_before_any_roll_is_named(kind):
    series = Series(20.0 + 5.0 * np.sin(2.0 * np.pi * np.arange(1, 61) / 12.0))
    config = RollingConfig(multi_step=10**18)
    t = RollingConfig(model=kind.value).effective_window() + 10**18
    # The default grid's first candidate, 0.05, is past the bound already.
    assert math.ulp(0.05 * t) > math.pi
    with pytest.raises(CalibrationFailedError,
                       match=rf"the first, 0\.05, .* at t = w \+ h = {t} \(ulp\(omega t\) > pi\)"):
        calibrate_omega(series, kind, OmegaGrid(), config)
