"""RollingConfig's counts must be integers: a fractional one is refused up front."""
import numpy as np
import pytest

from greycast import InvalidInputError
from greycast.rolling import RollingConfig


@pytest.mark.parametrize("knob, value", [
    ("window", 4.5),
    ("window", 6.0),
    ("window", None),
    ("ef_residual_window", 5.5),
    ("ef_harmonics", 1.5),
    ("multi_step", 2.5),
    ("multi_step", "3"),
    # Python counts a bool as an integer; no knob means one.
    ("window", True),
    ("ef_residual_window", True),
    ("ef_harmonics", False),
    ("ef_harmonics", True),
    ("multi_step", True),
    ("multi_step", np.True_),
])
def test_non_integral_knob_is_refused(knob, value):
    with pytest.raises(InvalidInputError, match=f"{knob} must be an integer"):
        RollingConfig(**{knob: value})


@pytest.mark.parametrize("knob, value", [
    ("window", np.int64(6)),
    ("ef_residual_window", np.int32(13)),
    ("ef_harmonics", None),
    ("ef_harmonics", np.int64(0)),
    ("multi_step", 3),
    ("multi_step", 10 ** 308),
])
def test_integral_knob_is_kept(knob, value):
    assert getattr(RollingConfig(**{knob: value}), knob) is value


@pytest.mark.parametrize("value", [10 ** 308 + 1, 2 ** 1024, 10 ** 400],
                         ids=lambda s: f"{len(str(s))}-digits")
def test_a_horizon_past_the_float_range_is_refused(value):
    with pytest.raises(InvalidInputError, match=r"^multi_step must be <= 10\*\*308$"):
        RollingConfig(multi_step=value)
