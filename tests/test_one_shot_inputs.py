"""The one-shot entry points refuse a window or history that is not a 1-d
sequence of finite values, a target interval that is not finite and
positive, and a benchmark forecast that is not finite, each with
``InvalidInputError``; before, some fitted the flattened window or returned
nan or inf, and others raised a bare numpy or Python error."""
import math

import numpy as np
import pytest

from greycast import InvalidInputError, Series
from greycast.benchmarks import (
    ArimaSpec,
    LinearSpec,
    SetarSpec,
    forecast_arima,
    forecast_linear,
    forecast_setar,
)
from greycast.config import load_config
from greycast.data import aggregate
from greycast.models import ModelKind, fit_model

SPECS = load_config()
FORECASTERS = {
    "LINEAR": lambda history: forecast_linear(SPECS.linear, history),
    "ARIMA": lambda history: forecast_arima(SPECS.arima, history),
    "SARIMA": lambda history: forecast_arima(SPECS.sarima, history, standard=True),
    "SETAR": lambda history: forecast_setar(SPECS.setar, history),
}
HISTORY = list(20.0 + 5.0 * np.sin(np.arange(80) / 3.0))


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
@pytest.mark.parametrize("window", [
    [[1.0, 2.0], [3.0, 4.0]],
    [[1.0, 2.0, 3.0, 4.0, 5.0]],
    np.ones((2, 3, 4)),
    5.0,
], ids=["2x2", "1x5", "3-d", "scalar"])
def test_fit_model_refuses_a_window_that_is_not_1d(kind, window):
    with pytest.raises(InvalidInputError, match="1-d sequence of finite values"):
        fit_model(kind, window)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_model_refuses_a_non_finite_window_of_any_length(kind, bad):
    for window in ([1.0, bad, 3.0], [1.0, 2.0, bad, 4.0, 5.0, 6.0]):
        with pytest.raises(InvalidInputError, match="1-d sequence of finite values"):
            fit_model(kind, window)


@pytest.mark.parametrize("name", FORECASTERS)
def test_a_benchmark_refuses_a_2d_history(name):
    with pytest.raises(InvalidInputError, match="1-d sequence of finite values"):
        FORECASTERS[name](np.array(HISTORY[:60]).reshape(6, 10))


@pytest.mark.parametrize("name", FORECASTERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, -2, -1])
def test_a_benchmark_refuses_a_non_finite_history(name, bad, where):
    history = list(HISTORY)
    history[where] = bad
    with pytest.raises(InvalidInputError, match="1-d sequence of finite values"):
        FORECASTERS[name](history)


def test_the_examples_of_the_record():
    with pytest.raises(InvalidInputError):
        forecast_linear(SPECS.linear, [1.0, math.nan, 3.0])
    with pytest.raises(InvalidInputError):
        forecast_setar(SPECS.setar, [1.0, 2.0, math.inf])
    with pytest.raises(InvalidInputError):
        fit_model(ModelKind.GM11, [[1, 2], [3, 4]])


@pytest.mark.parametrize("spec,forecaster", [
    (LinearSpec(intercept=0.0, coeffs=(1e308, 1e308)), forecast_linear),
    (SetarSpec(low_intercept=0.0, low_coeffs=(1e308,), high_intercept=0.0,
               high_coeffs=(1e308,), threshold=0.0), forecast_setar),
    (ArimaSpec(phi=(-0.9,), mu=1e308, truncation=20), forecast_arima),
], ids=["linear", "setar", "arima"])
def test_a_non_finite_forecast_raises_the_roll_message(spec, forecaster):
    history = [10.0] * 30
    with pytest.raises(InvalidInputError) as raised:
        forecaster(spec, history)
    assert str(raised.value) == "non-finite forecast"


@pytest.mark.parametrize("name", FORECASTERS)
def test_a_finite_history_forecasts_as_before(name):
    value = FORECASTERS[name](HISTORY)
    assert math.isfinite(value)
    assert value == FORECASTERS[name](Series(HISTORY))


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.0, -60.0])
def test_aggregate_refuses_a_target_interval_that_is_not_finite_and_positive(target):
    series = Series([1.0, 2.0, 3.0, 4.0], interval=60.0)
    with pytest.raises(InvalidInputError, match="not finite and positive"):
        aggregate(series, target)
