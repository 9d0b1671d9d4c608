"""The EF filter weights are kept across rolls, up to a byte budget.

A buffered EF roll with residual window R asks ``correction_weights`` for
every buffer length n = 1..R in order. Once a roll has run, a second roll
at the same R must find all of them kept, for every R up to 256.
"""
import numpy as np
import pytest

from greycast import Series, fourier
from greycast.fourier import correction_weights
from greycast.rolling import RollingConfig, roll_forecast


@pytest.fixture
def empty_cache():
    correction_weights.cache_clear()
    yield
    correction_weights.cache_clear()


def series(n: int) -> Series:
    k = np.arange(n)
    return Series(40.0 + 8.0 * np.sin(2.0 * np.pi * k / 24.0)
                  + np.random.default_rng(n).normal(0.0, 1.0, n))


@pytest.mark.parametrize("r", [64, 65, 100, 256])
def test_a_second_roll_adds_no_misses(empty_cache, r):
    values = series(r + 40)
    config = RollingConfig(model="EFGM", ef_residual_window=r, ef_harmonics=2)
    first = roll_forecast(values, config)
    misses = correction_weights.cache_info().misses
    assert misses == r
    second = roll_forecast(values, config)
    info = correction_weights.cache_info()
    assert info.misses == misses and info.currsize == r
    assert second == first


def test_the_cache_keeps_no_more_than_its_budget(empty_cache, monkeypatch):
    budget = sum(8 * n * max(n - 1, 1) for n in range(1, 21))  # n = 1..20 fit exactly
    monkeypatch.setattr(fourier, "WEIGHT_CACHE_BYTES", budget)
    config = RollingConfig(model="EFGM", ef_residual_window=30, ef_harmonics=1)
    first = roll_forecast(series(80), config)
    info = correction_weights.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (30, 20, budget)
    second = roll_forecast(series(80), config)
    # The first 20 lengths are kept; only the other 10 are computed again.
    assert correction_weights.cache_info().misses == 40
    assert second == first


def test_kept_weights_are_the_computed_weights(empty_cache):
    computed = [correction_weights(n, min(2, fourier.max_harmonics(n))) for n in range(1, 30)]
    for n, weights in enumerate(computed, start=1):
        again = correction_weights(n, min(2, fourier.max_harmonics(n)))
        assert again is weights and not again.flags.writeable
    assert correction_weights.cache_info().hits == len(computed)
