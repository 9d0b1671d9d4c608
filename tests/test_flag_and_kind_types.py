"""Malformed API input is refused with ``InvalidInputError``.

Every non-empty string is true, so a ``RollingConfig`` flag given as the
string "false" would switch the flag on; the flags take ``bool`` and
``numpy.bool_`` only. ``calibrate_omega`` takes a ``ModelKind``: a model
name or None is refused with a typed error, not an ``AttributeError``.

``omega`` is None or a real number a float can hold, not a bool: a string
or a complex ω would fail inside every trigonometric roll, and True would
roll at ω = 1. A benchmark model's ``benchmark_spec`` is None or of its
own type, so ARIMA never rolls SETAR's coefficients under its own name.
"""
from decimal import Decimal

import numpy as np
import pytest

from greycast import Series
from greycast.config import load_config
from greycast.data import Dataset
from greycast.errors import InvalidInputError
from greycast.models import ModelKind
from greycast.report import compare
from greycast.rolling import OmegaGrid, RollingConfig, calibrate_omega, roll_forecast

FLAGS = ["ef_in_window", "clamp_nonnegative", "standard_psi"]


@pytest.mark.parametrize("value", ["false", "False", "", "0", 0, 1, None, 1.0, [], np.int64(1)])
@pytest.mark.parametrize("flag", FLAGS)
def test_a_flag_that_is_not_a_bool_is_refused(flag, value):
    with pytest.raises(InvalidInputError, match=f"{flag} must be a bool"):
        RollingConfig(**{flag: value})


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
@pytest.mark.parametrize("flag", FLAGS)
def test_a_bool_flag_is_accepted(flag, value):
    config = RollingConfig(**{flag: value})
    assert getattr(config, flag) == value


def test_a_numpy_bool_flag_rolls_as_the_python_bool():
    values = Series(np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0]))
    for flag in FLAGS:
        for value in (True, False):
            python = roll_forecast(values, RollingConfig(model="EFGM_C", **{flag: value}))
            numpy = roll_forecast(values, RollingConfig(model="EFGM_C", **{flag: np.bool_(value)}))
            assert numpy == python


@pytest.mark.parametrize("kind", ["GM_C", "GM_S", None, 3, "EFGM_C"])
def test_calibrate_omega_refuses_a_kind_that_is_not_a_model_kind(kind):
    series = Series(np.arange(1.0, 13.0))
    with pytest.raises(InvalidInputError, match="needs a ModelKind"):
        calibrate_omega(series, kind, OmegaGrid(0.5, 1.0, 0.1))


def test_calibrate_omega_still_refuses_a_kind_without_a_frequency():
    series = Series(np.arange(1.0, 13.0))
    with pytest.raises(InvalidInputError, match="GM11 has no frequency to calibrate"):
        calibrate_omega(series, ModelKind.GM11, OmegaGrid(0.5, 1.0, 0.1))


@pytest.mark.parametrize("omega", ["abc", "0.5", "", 1 + 1j, np.complex128(0.5), [0.5], (0.5,),
                                   Decimal("0.5"), True, False, np.bool_(True), 10 ** 400],
                         ids=repr)
def test_an_omega_that_is_not_a_real_number_is_refused(omega):
    with pytest.raises(InvalidInputError, match="omega must be None or a real number"):
        RollingConfig(model="GM_C", omega=omega)


def test_an_integer_omega_rolls_as_the_float():
    values = Series(np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0]))
    expected = roll_forecast(values, RollingConfig(model="GM_C", omega=1.0))
    for omega in (1, np.int64(1), np.float64(1.0)):
        assert roll_forecast(values, RollingConfig(model="GM_C", omega=omega)) == expected


SPECS = load_config()
WRONG_SPECS = [("LINEAR", SPECS.arima), ("ARIMA", SPECS.setar), ("ARIMA", SPECS.linear),
               ("SARIMA", SPECS.setar), ("SETAR", SPECS.sarima), ("SETAR", "x"), ("ARIMA", 1.0)]


@pytest.mark.parametrize("model, spec", WRONG_SPECS,
                         ids=[f"{m}-{type(s).__name__}" for m, s in WRONG_SPECS])
def test_a_benchmark_spec_of_another_kind_is_refused(model, spec):
    with pytest.raises(InvalidInputError, match=f"{model}'s benchmark_spec must be None or a"):
        RollingConfig(model=model, benchmark_spec=spec)


def test_an_own_spec_is_taken_and_a_grey_model_ignores_the_spec():
    for model, spec in (("LINEAR", SPECS.linear), ("ARIMA", SPECS.arima),
                        ("SARIMA", SPECS.sarima), ("SARIMA", SPECS.arima),
                        ("SETAR", SPECS.setar), ("GM11", "x"), ("EFGM_C", SPECS.setar)):
        assert RollingConfig(model=model, benchmark_spec=spec).benchmark_spec is spec


@pytest.mark.parametrize("omega", ["x", 1 + 1j, True])
def test_compare_refuses_a_calibrated_omega_that_is_not_a_real_number(omega):
    dataset = Dataset((Series(np.arange(1.0, 40.0)),))
    with pytest.raises(InvalidInputError, match="omega must be None or a real number"):
        compare(dataset, models=["GM_C", "GM11"], omegas={ModelKind.GM_C: omega})
