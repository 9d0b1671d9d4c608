"""``compare`` fills the EF weight cache before it starts any roll.

An EF roll asks ``fourier.correction_weights`` for every buffer length it
can use, and the cache keeps them for later rolls. Were the first EF roll of
a comparison to compute them, that row's compute time would depend on
whether another EF roll ran before it. So no roll inside ``compare`` may
add a cache miss, whatever the models, settings and series lengths.
"""
import numpy as np
import pytest

from greycast import Series, report, rolling
from greycast.data import Dataset
from greycast.errors import SingularSystemError
from greycast.fourier import correction_weights
from greycast.rolling import ALL_MODEL_NAMES, RollingConfig, roll_forecast


@pytest.fixture
def misses_per_roll(monkeypatch):
    """Clear the cache and record the misses each roll of ``compare`` adds."""
    correction_weights.cache_clear()
    added = []

    def counted(series, config):
        before = correction_weights.cache_info().misses
        trace = roll_forecast(series, config)
        added.append((config.model, correction_weights.cache_info().misses - before))
        return trace

    monkeypatch.setattr(report, "roll_forecast", counted)
    yield added
    correction_weights.cache_clear()


def seasonal(n: int, seed: int) -> Series:
    k = np.arange(n)
    noise = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return Series(50.0 + 10.0 * np.sin(2.0 * np.pi * k / 12.0) + noise)


def dataset(*lengths: int) -> Dataset:
    return Dataset(series=tuple(seasonal(n, n) for n in lengths), source="test")


def test_no_roll_adds_a_miss(misses_per_roll):
    report.compare(dataset(60), ["GM11", "EFGM", "EFGM", "EFGVM"])
    assert [model for model, _ in misses_per_roll] == ["GM11", "EFGM", "EFGM", "EFGVM"]
    assert all(added == 0 for _, added in misses_per_roll), misses_per_roll
    assert correction_weights.cache_info().misses == 24  # R = 24, once


@pytest.mark.parametrize("config", [
    RollingConfig(),
    RollingConfig(ef_residual_window=13, ef_harmonics=1),
    RollingConfig(ef_residual_window=40),
    RollingConfig(ef_in_window=True),
    RollingConfig(window=6, ef_in_window=True),
    RollingConfig(window=8, ef_harmonics=0),
], ids=["default", "R13-F1", "R40-longer-than-the-series", "in-window", "in-window-w6", "w8-F0"])
def test_no_roll_adds_a_miss_for_any_setting(misses_per_roll, config):
    report.compare(dataset(30, 51, 17), ALL_MODEL_NAMES, config)
    assert len(misses_per_roll) == 16 * 3
    assert all(added == 0 for _, added in misses_per_roll), misses_per_roll


def test_series_too_short_for_a_buffer_ask_for_nothing(misses_per_roll):
    report.compare(dataset(5, 6), ["EFGM", "EFGM_SC"])
    assert all(added == 0 for _, added in misses_per_roll), misses_per_roll


def test_a_refused_length_is_skipped(monkeypatch):
    """A length whose weights are singular is left out of the fill, and the
    rolls that need it still fall back with its message."""
    def refusing(n, harmonics):
        if n == 7:
            raise SingularSystemError("near-singular system (condition estimate 1e+13)")
        return correction_weights(n, harmonics)

    monkeypatch.setattr(rolling, "correction_weights", refusing)
    data = dataset(40)
    result, traces = report.compare(data, ["EFGM"])
    assert not result.row("EFGM").failed
    assert traces == [roll_forecast(data.series[0], RollingConfig(model="EFGM"))]
    assert any("near-singular" in message for _, message in traces[0].errors)
