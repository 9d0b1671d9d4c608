"""RMSE and MAPE keep the bits of their defining formulas.

``rmse_formula`` and ``mape_formula`` are the metrics written out with
boolean-mask gathers on every call; the metrics must equal them as float hex.
"""
import math

import numpy as np
import pytest

from greycast import InvalidInputError
from greycast.metrics import MAPE_ZERO_GUARD, mape, rmse


def rmse_formula(p, o):
    with np.errstate(over="ignore"):
        err = p - o
        return float(math.sqrt(np.mean(err * err)))


def mape_formula(p, o):
    keep = np.abs(o) >= MAPE_ZERO_GUARD
    excluded = int(np.size(keep) - np.count_nonzero(keep))
    if not keep.any():
        return 0.0, excluded
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs((p[keep] - o[keep]) / o[keep])) * 100.0), excluded


CASES = {
    "plain": ([11.0, 18.0, 3.25], [10.0, 20.0, 3.0]),
    "zero observations": ([1.0, 11.0, 0.5, 7.0], [0.0, 10.0, 1e-12, 6.0]),
    "negative zero": ([-0.0, 2.0, 0.1], [-0.0, -0.0, 3.0]),
    "all excluded": ([1.0, 2.0], [0.0, -0.0]),
    "miss overflows": ([1e308, -1e308, 5.0], [-1e308, 1e308, 4.0]),
    "tiny": ([5e-324, 1e-300], [1e-9, 2e-9]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_keep_their_bits(name):
    p, o = (np.array(side) for side in CASES[name])
    assert rmse(p, o).hex() == rmse_formula(p, o).hex()
    value, excluded = mape(p, o)
    expected, expected_excluded = mape_formula(p, o)
    assert (value.hex(), excluded) == (expected.hex(), expected_excluded)


def test_metrics_keep_their_bits_on_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(200):
        size = int(rng.integers(1, 50))
        o = rng.normal(0.0, 10.0, size) * (rng.random(size) < 0.8)
        p = o + rng.normal(0.0, 1.0, size)
        assert rmse(p, o).hex() == rmse_formula(p, o).hex()
        assert mape(p, o).value.hex() == mape_formula(p, o)[0].hex()


@pytest.mark.parametrize("metric", [rmse, mape])
@pytest.mark.parametrize("p, o", [
    ([1.0], [1.0, 2.0]),
    ([], []),
    ([[1.0]], [[1.0]]),
    ([math.nan], [1.0]),
    ([1.0], [math.inf]),
    ([1.0, -math.inf], [1.0, 2.0]),
])
def test_bad_inputs_still_raise(metric, p, o):
    with pytest.raises(InvalidInputError):
        metric(p, o)
