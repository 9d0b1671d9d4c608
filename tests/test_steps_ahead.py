"""A forecast horizon is a whole number of steps.

``forecast`` and ``forecast_windows`` refuse a ``steps_ahead`` that
``operator.index`` refuses, as ``RollingConfig`` refuses such a
``multi_step``: a float, even a whole one, would otherwise evaluate the
closed form at a fractional time, and inf, nan or a string would fail
with a misleading message or an untyped error.
"""
import math

import numpy as np
import pytest

from greycast.cli import EXIT_INVALID_INPUT, main
from greycast.errors import InvalidInputError, NumericalDegeneracyError
from greycast.models import ModelKind, fit_model, fit_windows, forecast, forecast_windows
from greycast.series import window_view

WINDOW = [50.0, 51.0, 52.5, 53.0]
NOT_INTEGERS = [2.5, 2.0, math.inf, math.nan, "2", None, np.float64(3.0), True, False,
                np.True_]


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("steps", NOT_INTEGERS, ids=repr)
def test_forecast_refuses_a_horizon_that_is_not_an_integer(kind, steps):
    fit = fit_model(kind, WINDOW + [54.0])
    with pytest.raises(InvalidInputError) as err:
        forecast(fit, steps)
    assert str(err.value) == f"steps_ahead must be an integer, got {steps!r}"


@pytest.mark.parametrize("count", [1, 20])
def test_forecast_windows_fails_every_window(count):
    values = np.arange(50.0, 50.0 + count + 3)
    fits = fit_windows(ModelKind.GM11, window_view(values, 4, count))
    forecasts = forecast_windows(fits, 2.5)
    assert forecasts.shape == (count,) and np.isnan(forecasts).all()
    assert sorted(fits.failures.errors) == list(range(count))
    assert {str(e) for e in fits.failures.errors.values()} == {
        "steps_ahead must be an integer, got 2.5"}


def test_integer_types_give_the_integer_horizon():
    fit = fit_model(ModelKind.GM11, WINDOW)
    assert forecast(fit, np.int64(2)) == forecast(fit, 2)
    with pytest.raises(InvalidInputError, match="steps_ahead must be >= 1"):
        forecast(fit, np.int64(0))


#: Horizons whose local times w + h the closed forms cannot take as floats.
PAST_THE_FLOAT_RANGE = [10 ** 308 + 1, 2 ** 1024, 10 ** 400]


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("steps", PAST_THE_FLOAT_RANGE, ids=lambda s: f"{len(str(s))}-digits")
def test_forecast_refuses_a_horizon_past_the_float_range(kind, steps):
    fit = fit_model(kind, WINDOW + [54.0])
    with pytest.raises(InvalidInputError, match=r"^steps_ahead must be <= 10\*\*308$"):
        forecast(fit, steps)


@pytest.mark.parametrize("count", [1, 20])
@pytest.mark.parametrize("steps", PAST_THE_FLOAT_RANGE, ids=lambda s: f"{len(str(s))}-digits")
def test_forecast_windows_fails_every_window_past_the_float_range(count, steps):
    values = np.arange(50.0, 50.0 + count + 3)
    fits = fit_windows(ModelKind.GM11, window_view(values, 4, count))
    forecasts = forecast_windows(fits, steps)
    assert forecasts.shape == (count,) and np.isnan(forecasts).all()
    assert sorted(fits.failures.errors) == list(range(count))
    assert {str(e) for e in fits.failures.errors.values()} == {"steps_ahead must be <= 10**308"}


def test_the_largest_horizon_overflows_as_before():
    fit = fit_model(ModelKind.GM11, WINDOW)
    with pytest.raises(NumericalDegeneracyError, match="GM11 closed form overflowed"):
        forecast(fit, 10 ** 308)


def test_cli_refuses_a_horizon_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n" + "".join(f"{k},{10 + k % 3}\n" for k in range(1, 12)))
    code = main(["forecast", "GM11", "--input", str(path), "--steps", "1" + "0" * 400])
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == "error: multi_step must be <= 10**308\n"
