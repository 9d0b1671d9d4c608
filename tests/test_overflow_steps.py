"""Forecasts that miss by more than the float range.

``observed - predicted`` can overflow although both are finite. Such a step
falls back to persistence and is flagged; only when the observation differs
from the one before it by more than the float range has the roll no finite
residual to give, and it raises ``InvalidInputError`` naming both indices.
The suite turns every RuntimeWarning into an error, so none may escape.
"""
import math

import numpy as np
import pytest

from greycast import Series
from greycast.errors import InvalidInputError
from greycast.metrics import rmse
from greycast.rolling import RESIDUAL_OVERFLOW, RollingConfig, roll_forecast

#: LINEAR's packaged lags turn the two 1.7e308 values before the 0 into a
#: forecast of 5.8e307 for the -1.7e308 observation at index 6; persistence
#: (the 0) misses it by 1.7e308 only.
LINEAR_MISS = [1.0, 2.0, 3.0, 1.7e308, 1.7e308, 0.0, -1.7e308, 1.0, 2.0, 3.0]

#: 428 steps ahead of a tenfold growth GM(1,1) forecasts 3e306 for the
#: -1.79e308 at index 4; persistence (1000) misses by 1.79e308 only.
GREY_MISS = [1.0, 10.0, 100.0, 1000.0, -1.79e308, 1.0, 2.0, 3.0, 4.0]


def overflowing_series() -> np.ndarray:
    values = np.full(40, 1e307) + np.arange(40) * 1e305
    values[20] = -1.7e308
    return values


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("model,values,extra", [
    ("LINEAR", LINEAR_MISS, {}),
    ("GM11", GREY_MISS, {"multi_step": 428}),
    ("EFGM", GREY_MISS, {"multi_step": 428}),
    ("GM_ESC", GREY_MISS, {"multi_step": 428}),
], ids=["LINEAR", "GM11", "EFGM", "GM_ESC"])
def test_a_forecast_that_misses_by_more_than_the_range_falls_back(model, values, extra,
                                                                   clamp):
    config = RollingConfig(model=model, clamp_nonnegative=clamp, **extra)
    trace = roll_forecast(Series(values), config)
    target = next(i for i, v in enumerate(values, start=1) if v < -1e308)
    assert dict(trace.errors)[target] == RESIDUAL_OVERFLOW
    step = target - 5
    assert trace.fallbacks[step]
    fallback = values[target - 2]
    assert trace.predictions[step][1] == (max(fallback, 0.0) if clamp else fallback)
    assert np.isfinite(trace.residuals.values).all()
    if step:  # the steps before it are those of the roll that ends before it
        before = roll_forecast(Series(values[:target - 1]), config)
        assert trace.predictions[:step] == before.predictions
        assert trace.errors[:len(before.errors)] == before.errors


@pytest.mark.parametrize("model", ["GM11", "EFGM", "LINEAR", "ARIMA", "GM_C", "EFGM_SC"])
def test_a_step_the_range_cannot_hold_raises_a_typed_error(model):
    with pytest.raises(InvalidInputError,
                       match=r"^values at indices 19 and 20 differ by more than the float range$"):
        roll_forecast(Series(overflowing_series()), RollingConfig(model=model))


def test_the_roll_before_that_step_is_unaffected():
    values = overflowing_series()
    trace = roll_forecast(Series(values[:20]), RollingConfig(model="LINEAR"))
    assert not any(text == RESIDUAL_OVERFLOW for _, text in trace.errors)


def test_rmse_of_a_huge_finite_miss_is_inf_without_a_warning():
    assert rmse([1.7e308, 1.0], [-1.7e308, 1.0]) == math.inf
    assert rmse([1e200, 1e200], [0.0, 0.0]) == math.inf
    assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5))
