"""Every count is checked by one rule, in one order, where it is given.

``series.whole_number(value, name, least, below)`` refuses a bool, and any
value that cannot be compared with ``least`` (a string, None, a complex
number), as "<name> must be an integer, got <value>"; a number under
``least`` gets the count's own range message, whole or not; and any other
number that is not an integer (inf, nan, 2.5) is not an integer either.

Before, ``RollingConfig`` and the horizon checked integrality first and the
benchmark specs checked range first, so ``RollingConfig(window=2.5)`` and
``ArimaSpec(truncation=10.5)`` read different kinds of message, and a string
or complex count given to a spec, or a string, inf or nan harmonic count,
raised a bare ``TypeError``, ``ValueError`` or ``OverflowError``.
"""
import math

import numpy as np
import pytest

from greycast import InvalidInputError
from greycast.benchmarks import ArimaSpec, LinearSpec, SetarSpec, psi_weights
from greycast.config import load_config
from greycast.fourier import ResidualSeries, fit_residual_fourier
from greycast.models import ModelKind, fit_windows, forecast_windows
from greycast.rolling import RollingConfig
from greycast.series import window_view

SETAR = dict(low_intercept=0.0, low_coeffs=(0.5,), high_intercept=0.0,
             high_coeffs=(0.5,), threshold=1.0)


def _horizon(steps):
    """``forecast_windows`` over two GM11 windows; raises what it flags them with."""
    fits = fit_windows(ModelKind.GM11, window_view(np.arange(50.0, 56.0), 4, 2))
    forecasts = forecast_windows(fits, steps)
    messages = {str(error) for error in fits.failures.errors.values()}
    if messages:
        assert sorted(fits.failures.errors) == [0, 1] and np.isnan(forecasts).all()
        (message,) = messages
        raise InvalidInputError(message)


#: site: (build with the count, name in the message, lower bound, range message)
SITES = {
    "RollingConfig.window": (lambda v: RollingConfig(window=v), "window", 4,
                             "window must be at least 4"),
    "RollingConfig.ef_residual_window": (lambda v: RollingConfig(ef_residual_window=v),
                                         "ef_residual_window", 3,
                                         "EF residual window must be at least 3"),
    "RollingConfig.ef_harmonics": (lambda v: RollingConfig(ef_harmonics=v), "ef_harmonics", 0,
                                   "EF harmonic cap must be >= 0"),
    "RollingConfig.multi_step": (lambda v: RollingConfig(multi_step=v), "multi_step", 1,
                                 "multi_step must be >= 1"),
    "ArimaSpec.truncation": (lambda v: ArimaSpec(truncation=v), "truncation", 20,
                             "truncation must be at least 20"),
    "ArimaSpec.d": (lambda v: ArimaSpec(d=v), "d", 0,
                    "differencing orders / season period invalid"),
    "ArimaSpec.D": (lambda v: ArimaSpec(D=v), "D", 0,
                    "differencing orders / season period invalid"),
    "ArimaSpec.season_period": (lambda v: ArimaSpec(season_period=v), "season_period", 1,
                                "differencing orders / season period invalid"),
    "SetarSpec.delay": (lambda v: SetarSpec(**SETAR, delay=v), "delay", 0, "delay must be >= 0"),
    "LinearSpec.delay": (lambda v: LinearSpec(0.3, (0.5, 0.2), delay=v), "delay", 1,
                         "delay must be >= 1"),
    "forecast_windows.steps_ahead": (_horizon, "steps_ahead", 1, "steps_ahead must be >= 1"),
    "psi_weights.count": (lambda v: psi_weights(load_config().sarima, v), "count", 1,
                          "count must be >= 1"),
}

#: input label: value from the site's lower bound, and whether it gets the range message
INPUTS = {
    "str": (lambda least: "a", False),
    "digit-str": (lambda least: "3", False),
    "None": (lambda least: None, False),
    "complex": (lambda least: 1j, False),
    "whole-complex": (lambda least: complex(least + 1, 0), False),
    "inf": (lambda least: math.inf, False),
    "nan": (lambda least: math.nan, False),
    "non-whole-below": (lambda least: least - 0.5, True),
    "True": (lambda least: True, False),
    "False": (lambda least: False, False),
    "np.True_": (lambda least: np.True_, False),
}


@pytest.mark.parametrize("site, label", [
    (site, label) for site in SITES for label in INPUTS
    if (site, label) != ("RollingConfig.ef_harmonics", "None")])  # None is "auto" there
def test_a_count_is_refused_by_one_rule(site, label):
    build, name, least, below = SITES[site]
    make, is_below = INPUTS[label]
    value = make(least)
    with pytest.raises(InvalidInputError) as info:
        build(value)
    assert type(info.value) is InvalidInputError
    assert str(info.value) == (below if is_below else f"{name} must be an integer, got {value!r}")


@pytest.mark.parametrize("site", list(SITES))
def test_a_numpy_integer_count_is_read_by_its_value(site):
    build, _, least, below = SITES[site]
    build(np.int64(least))
    build(least)
    with pytest.raises(InvalidInputError) as info:
        build(np.int64(least - 1))
    assert str(info.value) == below


RESIDUALS = ResidualSeries(np.sin(np.arange(9.0)))  # at most 3 harmonics


@pytest.mark.parametrize("value", ["a", 1j, math.inf, -math.inf, math.nan,
                                   np.array([1, 2])], ids=repr)
def test_a_harmonic_count_that_int_refuses_is_not_an_integer(value):
    with pytest.raises(InvalidInputError) as info:
        fit_residual_fourier(RESIDUALS, value)
    assert str(info.value) == f"harmonic count must be an integer, got {value!r}"


def test_a_harmonic_count_keeps_its_range_message():
    for value, message in [(-1.5, "harmonic count -1 outside [0, 3]"),
                           (4, "harmonic count 4 outside [0, 3]"),
                           (np.int64(-1), "harmonic count -1 outside [0, 3]"),
                           ("3", "harmonic count must be an integer, got '3'")]:
        with pytest.raises(InvalidInputError) as info:
            fit_residual_fourier(RESIDUALS, value)
        assert str(info.value) == message
    assert fit_residual_fourier(RESIDUALS, np.int64(2)) == fit_residual_fourier(RESIDUALS, 2)
