"""The EF filters, summed over buffer positions, against the row-gather filters.

``reference_buffered`` and ``reference_in_window`` are the filters the column
sums replaced: they gather a weight row and a residual window per step and
add each row left to right. The column sums must give the same steps, the
same corrections bit for bit and the same error messages, also where base
fallbacks shift a buffer's offset, a non-finite residual stops the
correction or ``correction_weights`` rejects a buffer length.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from greycast import rolling
from greycast.errors import SingularSystemError
from greycast.fourier import NON_FINITE_RESIDUALS
from greycast.rolling import RollingConfig
from greycast.series import row_sums


def reference_buffered(residuals, failed, config):
    ok = np.flatnonzero(~failed)
    eps = residuals[ok]
    i = np.arange(1, ok.size)
    lengths = np.minimum(i, config.ef_residual_window)
    weights, rejected = {}, {}
    for n in range(1, int(lengths.max(initial=0)) + 1):
        try:
            weights[n] = rolling.correction_weights(n, rolling._harmonic_cap(config, n))
        except SingularSystemError as exc:
            rejected[n] = str(exc)
    nonfinite = np.concatenate(([0], np.cumsum(~np.isfinite(eps))))
    finite = nonfinite[i] == nonfinite[i - lengths]
    stop = ~finite | np.isin(lengths, list(rejected))
    end = int(np.argmax(stop)) if stop.any() else i.size
    errors = {}
    if end < i.size:
        message = rejected[lengths[end]] if finite[end] else NON_FINITE_RESIDUALS
        errors = dict.fromkeys(ok[1 + end:].tolist(), message)
    i, lengths = i[:end], lengths[:end]
    if not i.size:
        return i, eps[:0], errors
    offsets = (ok[i - 1] + 1 - ok[i - lengths]) % np.maximum(lengths - 1, 1)
    width = int(lengths[-1])
    rows = np.zeros((i.size, width))
    for r in range(width - 1):
        rows[r, width - 1 - r:] = weights[r + 1][offsets[r]]
    rows[width - 1:] = weights[width][offsets[width - 1:]]
    windows = sliding_window_view(np.concatenate((np.zeros(width), eps)), width)[i]
    return ok[i], row_sums(rows * windows), errors


def reference_in_window(values, w, fitted, failed, config):
    ok = np.flatnonzero(~failed)
    n = w - 1
    windows = sliding_window_view(values, n)[ok + 1] - fitted[ok]
    finite = np.isfinite(windows).all(axis=1)
    errors = dict.fromkeys(ok[~finite].tolist(), NON_FINITE_RESIDUALS)
    try:
        weights = rolling.correction_weights(n, rolling._harmonic_cap(config, n))
    except SingularSystemError as exc:
        errors.update(dict.fromkeys(ok[finite].tolist(), str(exc)))
        return ok[:0], values[:0], errors
    return ok[finite], row_sums(weights[n % weights.shape[0]] * windows[finite]), errors


def hexes(values):
    return [float(v).hex() for v in values]


def assert_same(got, expected):
    (steps, corrections, errors), (ref_steps, ref_corrections, ref_errors) = got, expected
    assert steps.dtype == ref_steps.dtype and steps.tolist() == ref_steps.tolist()
    assert hexes(corrections) == hexes(ref_corrections)
    assert errors == ref_errors


def run_both(new, reference, args, rejected_lengths):
    """``new(*args)`` and ``reference(*args)``, with ``correction_weights``
    rejecting the buffer lengths in ``rejected_lengths``."""
    real = rolling.correction_weights

    def weights(n, harmonics):
        if n in rejected_lengths:
            raise SingularSystemError(f"length {n} rejected")
        return real(n, harmonics)

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(rolling, "correction_weights", weights)
        return new(*args), reference(*args)


harmonic_caps = st.sampled_from([None, 0, 1])
rejections = st.one_of(st.just(frozenset()), st.frozensets(st.integers(1, 64), max_size=3))


def base_fallbacks(rng, steps, rate):
    return rng.random(steps) < rate


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 160), st.integers(3, 64), harmonic_caps,
       st.sampled_from([0.0, 0.03, 0.3]), st.integers(0, 3), rejections)
def test_buffered_filter_matches_row_gather(seed, steps, r, cap, fallback_rate, bad, rejected):
    rng = np.random.default_rng(seed)
    residuals = rng.normal(0.0, rng.choice([1e-3, 1.0, 1e3]), steps)
    residuals[rng.random(steps) < 0.05] = -0.0
    failed = base_fallbacks(rng, steps, fallback_rate)
    residuals[failed & (rng.random(steps) < 0.5)] = np.nan  # a failed base's residual
    residuals[rng.integers(0, steps, bad)] = rng.choice([np.nan, np.inf, -np.inf], bad)
    config = RollingConfig(model="EFGM", ef_residual_window=r, ef_harmonics=cap)
    got, expected = run_both(rolling._buffered_corrections, reference_buffered,
                             (residuals, failed, config), rejected)
    assert_same(got, expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 120), st.integers(4, 8), harmonic_caps,
       st.sampled_from([0.0, 0.05, 0.4]), st.integers(0, 3), st.booleans())
def test_in_window_filter_matches_row_gather(seed, steps, w, cap, fallback_rate, bad, reject):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 100.0, steps + w)
    fitted = values[1:steps + w - 1][:steps, None] + rng.normal(0.0, 5.0, (steps, w - 1))
    failed = base_fallbacks(rng, steps, fallback_rate)
    fitted[failed & (rng.random(steps) < 0.5)] = np.nan  # a failed base's fit
    fitted[rng.integers(0, steps, bad), rng.integers(0, w - 1, bad)] = np.inf
    config = RollingConfig(model="EFGM", window=w, ef_in_window=True, ef_harmonics=cap)
    got, expected = run_both(rolling._in_window_corrections, reference_in_window,
                             (values, w, fitted, failed, config),
                             {w - 1} if reject else set())
    assert_same(got, expected)


@pytest.mark.parametrize("steps", [1, 2, 3, 25, 26, 200])
@pytest.mark.parametrize("fallbacks", [(), (0,), (5, 6, 40), (24,)])
def test_buffered_filter_matches_at_buffer_edges(steps, fallbacks):
    rng = np.random.default_rng(steps)
    residuals = rng.normal(0.0, 1.0, steps)
    failed = np.zeros(steps, dtype=bool)
    failed[[j for j in fallbacks if j < steps]] = True
    config = RollingConfig(model="EFGM")
    got, expected = run_both(rolling._buffered_corrections, reference_buffered,
                             (residuals, failed, config), set())
    assert_same(got, expected)


@pytest.mark.parametrize("rejected, bad, message", [
    ({7}, 20, "length 7 rejected"),
    ({7}, 5, NON_FINITE_RESIDUALS),
    ({7}, 6, NON_FINITE_RESIDUALS),  # step 7 reads both: the non-finite residual wins
    ({24, 30}, 100, "length 24 rejected"),
])
def test_the_first_stop_names_every_later_step(rejected, bad, message):
    residuals = np.random.default_rng(3).normal(0.0, 1.0, 120)
    residuals[bad] = np.inf
    failed = np.zeros(120, dtype=bool)
    config = RollingConfig(model="EFGM")
    got, expected = run_both(rolling._buffered_corrections, reference_buffered,
                             (residuals, failed, config), rejected)
    assert_same(got, expected)
    steps, _, errors = got
    first = min(rejected | {bad + 1})
    assert steps.tolist() == list(range(1, first))
    assert errors == dict.fromkeys(range(first, 120), message)
