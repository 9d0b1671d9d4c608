"""``calibrate_omega`` treats scores that differ only by rounding as ties.

On a near-constant series the RMSEs of different frequencies differ by less
than the rounding of the forecasts, so a strict minimum picks whichever
candidate rounding favours. Multiplying a series by a power of two is exact
and changes no fit in exact arithmetic, but it changes the rounding of every
trigonometric fit (the design's trig columns do not scale); under a strict
minimum the chosen frequency moved with it on these series.
"""
import numpy as np
import pytest

from greycast import Series
from greycast.models import ModelKind
from greycast.rolling import OmegaGrid, calibrate_omega

GRID = OmegaGrid(0.05, 6.3, 0.05)


def near_constant(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 7.5 * (1.0 + 1e-11 * rng.normal(size=40))


@pytest.mark.parametrize("seed,kind", [
    (0, ModelKind.GM_ESC), (2, ModelKind.GM_ESC), (3, ModelKind.GM_C),
    (10, ModelKind.GM_S), (10, ModelKind.GM_C), (11, ModelKind.GM_S),
])
def test_power_of_two_scaling_keeps_the_choice(seed, kind):
    values = near_constant(seed)
    chosen = {calibrate_omega(Series(values * scale), kind, GRID)
              for scale in (1.0, 2.0, 1024.0)}
    assert len(chosen) == 1, chosen

