"""The benchmark forecasters are one-step models: ``multi_step`` leaves them as they are."""
import numpy as np
import pytest

from greycast import Series
from greycast.data import generate_synthetic
from greycast.rolling import BENCHMARK_NAMES, RollingConfig, roll_forecast

SERIES = {
    "seasonal": generate_synthetic("seasonal", seed=5, sigma=1.0, n=120).values,
    "zero runs": np.array([0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 5.0, 1.0] * 6),
}


@pytest.mark.parametrize("standard", [False, True])
@pytest.mark.parametrize("values", SERIES.values(), ids=SERIES.keys())
@pytest.mark.parametrize("model", BENCHMARK_NAMES)
def test_multi_step_gives_the_one_step_trace(model, values, standard):
    one = roll_forecast(Series(values), RollingConfig(model=model, standard_psi=standard))
    three = roll_forecast(Series(values), RollingConfig(model=model, standard_psi=standard,
                                                        multi_step=3))
    assert three == one
    assert three.predicted_values.tobytes() == one.predicted_values.tobytes()
