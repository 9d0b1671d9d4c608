"""Malformed API input is refused with ``InvalidInputError``.

Every non-empty string is true, so a ``RollingConfig`` flag given as the
string "false" would switch the flag on; the flags take ``bool`` and
``numpy.bool_`` only. ``calibrate_omega`` takes a ``ModelKind``: a model
name or None is refused with a typed error, not an ``AttributeError``.
"""
import numpy as np
import pytest

from greycast import Series
from greycast.errors import InvalidInputError
from greycast.models import ModelKind
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
