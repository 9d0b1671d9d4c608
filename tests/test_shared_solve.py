"""The shared-block least-squares path of ``lstsq.solve_shared``.

GM_S ([-z, sin, 1]), GM_C ([-z, cos, 1]) and GM_SC ([-z, sin, cos, 1])
designs share every column but the first across the windows of a roll.
``solve_shared`` solves a window by projecting that block out when the
window's Frobenius condition bound is at most ``SHARED_CONDITION_LIMIT``, and
hands every other window to ``solve_stacked``. These tests check it against
``solve_stacked`` on the same designs (what every window took before), against
a 60-digit ``decimal`` solve of the normal equations, and for bit equality
between a window solved alone and inside any stack.

The tolerances are fixed from the perturbation theory of least squares, not
from a measurement: a backward-stable solve of a system with condition kappa
is accurate to a small multiple of eps * kappa, so two such solves agree to
twice that.
"""
import decimal
import math

import numpy as np
import pytest

from greycast import lstsq, models
from greycast.models import ModelKind

EPS = float(np.finfo(float).eps)
TOLERANCE_FACTOR = 64.0
LIMIT = lstsq.SHARED_CONDITION_LIMIT


def adversarial_windows(rng, count, w):
    """Non-negative windows: seasonal, spiky, near-constant, log-normal, with
    a run of zeros, and stuck; each at a random scale 10^[-2, 2]."""
    rows = []
    for i in range(count):
        kind = i % 6
        if kind == 0:
            k = np.arange(w)
            x = 20.0 + 5.0 * np.cos(0.5 * k + rng.uniform(0, 6)) + rng.normal(0, 0.5, w)
        elif kind == 1:
            x = rng.uniform(1.0, 10.0, w)
            x[rng.integers(w)] *= 10.0 ** rng.uniform(0, 3)
        elif kind == 2:
            x = 5.0 * (1.0 + 10.0 ** rng.uniform(-14, -2) * rng.normal(size=w))
        elif kind == 3:
            x = np.exp(rng.normal(0.0, 1.5, w))
        elif kind == 4:
            x = rng.uniform(0.0, 10.0, w)
            x[:rng.integers(1, w + 1)] = 0.0
        else:
            x = np.full(w, rng.uniform(1.0, 10.0))
            x[rng.integers(w):] *= rng.uniform(0.5, 1.5)
        rows.append(x * 10.0 ** rng.uniform(-2, 2))
    return np.array(rows)


def shared_systems(kind, windows, omega):
    """The designs, targets and shared block a fit of ``kind`` solves."""
    w = windows.shape[1]
    block = models._shared_block(kind, w, omega)
    z = models._mean_sequence(windows)
    designs = np.empty(z.shape + (1 + block.columns.shape[1],))
    designs[..., 0] = -z
    designs[..., 1:] = block.columns
    return designs, windows[:, 1:], block


def is_projected(designs, targets, block):
    """Which windows ``solve_shared`` solves by projection."""
    if block.basis is None:
        return np.zeros(designs.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        _, bound = lstsq._project_stack(designs[:, :, 0], targets, block)
    return bound <= LIMIT ** 2


def assert_same_bits(left, right):
    for a, b in zip(left, right):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def relative_difference(left, right):
    scale = np.maximum(np.abs(right).max(axis=1), np.finfo(float).tiny)
    return np.abs(left - right).max(axis=1) / scale


CORPUS = [
    (ModelKind.GM_S, 4, models.DEFAULT_OMEGA[ModelKind.GM_S]),
    (ModelKind.GM_S, 6, 0.7),
    (ModelKind.GM_C, 4, models.DEFAULT_OMEGA[ModelKind.GM_C]),
    (ModelKind.GM_C, 4, 0.35),
    (ModelKind.GM_C, 8, 1.3),
    (ModelKind.GM_SC, 5, models.DEFAULT_OMEGA[ModelKind.GM_SC]),
    (ModelKind.GM_SC, 5, 1.3),
    (ModelKind.GM_SC, 7, 0.9),
]


def corpus_ids(case):
    kind, w, omega = case
    return f"{kind.value}-w{w}-{omega:g}"


@pytest.mark.parametrize("case", CORPUS, ids=corpus_ids)
def test_agrees_with_solve_stacked(case):
    kind, w, omega = case
    rng = np.random.default_rng(1100 + w + int(10 * omega))
    designs, targets, block = shared_systems(kind, adversarial_windows(rng, 600, w), omega)
    shared = lstsq.solve_shared(designs, targets, block)
    stacked = lstsq.solve_stacked(designs, targets)
    assert np.array_equal(shared.rejected, stacked.rejected)
    projected = is_projected(designs, targets, block)
    assert 150 < np.count_nonzero(projected) < designs.shape[0]
    # Every other window is solve_stacked's, bit for bit.
    assert_same_bits([shared.solutions[~projected], shared.condition[~projected]],
                     [stacked.solutions[~projected], stacked.condition[~projected]])
    # A projected window reports kappa_F, between kappa_2 and p kappa_2, and
    # both solves are within eps kappa of the exact one, hence of each other.
    kappa_2, kappa_f = stacked.condition[projected], shared.condition[projected]
    p = designs.shape[2]
    assert np.all(kappa_f >= kappa_2 * (1 - 1e-9))
    assert np.all(kappa_f <= p * kappa_2 * (1 + 1e-9))
    difference = relative_difference(shared.solutions[projected], stacked.solutions[projected])
    assert np.all(difference <= 2 * TOLERANCE_FACTOR * EPS * kappa_f)


def reference_fit(monkeypatch, kind, windows, omega):
    """``fit_windows`` with every window sent to ``solve_stacked``."""
    factored = models._shared_block
    with monkeypatch.context() as patch:
        patch.setattr(models, "_shared_block",
                      lambda *key: factored(*key)._replace(basis=None))
        with np.errstate(all="ignore"):
            return models.fit_windows(kind, windows, omega)


def fit_errors(fits):
    return {i: (type(e), str(e)) for i, e in fits.failures.errors.items()}


def params(fits):
    return np.column_stack([fits.a, fits.b, fits.bs, fits.bc])


def assert_fits_like_reference(monkeypatch, kind, windows, omega):
    with np.errstate(all="ignore"):
        fits = models.fit_windows(kind, windows, omega)
    reference = reference_fit(monkeypatch, kind, windows, omega)
    assert fit_errors(fits) == fit_errors(reference)
    ok = ~fits.failures.failed
    got, want = params(fits)[ok], params(reference)[ok]
    differs = np.any(got != want, axis=1)
    if np.any(differs):
        designs, targets, block = shared_systems(kind, np.asarray(windows, float)[ok], omega)
        bound = lstsq.solve_shared(designs, targets, block).condition
        # Only a projected window may differ, and only within eps kappa_F.
        assert np.all(is_projected(designs, targets, block)[differs])
        assert np.all(relative_difference(got[differs], want[differs])
                      <= 2 * TOLERANCE_FACTOR * EPS * bound[differs])
    return fits


@pytest.mark.parametrize("case", CORPUS, ids=corpus_ids)
def test_fits_fail_like_solve_stacked(monkeypatch, case):
    kind, w, omega = case
    rng = np.random.default_rng(2200 + w + int(10 * omega))
    windows = adversarial_windows(rng, 300, w)
    windows[::7, 2] = np.nan  # non-finite windows fail before any solve
    fits = assert_fits_like_reference(monkeypatch, kind, windows, omega)
    assert fits.failures.errors  # zero runs and NaNs fail; the rest is compared
    assert not fits.failures.failed.all()


@pytest.mark.parametrize("kind", [ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC])
def test_a_window_alone_equals_its_row_in_any_stack(kind):
    w = models.MIN_WINDOW[kind]
    rng = np.random.default_rng(3300 + w)
    omega = models.DEFAULT_OMEGA[kind]
    designs, targets, block = shared_systems(kind, adversarial_windows(rng, 60, w), omega)
    assert block.basis is not None
    alone = [lstsq.solve_shared(designs[i:i + 1], targets[i:i + 1], block)
             for i in range(designs.shape[0])]
    k = 6
    order = rng.permutation(designs.shape[0])
    for rows in (np.arange(k - 1), np.arange(k), np.arange(k + 1), order,
                 np.arange(designs.shape[0])):
        stack = lstsq.solve_shared(designs[rows], targets[rows], block)
        for j, i in enumerate(rows):
            assert_same_bits([stack.solutions[j], stack.condition[j], stack.rejected[j]],
                             [alone[i].solutions[0], alone[i].condition[0],
                              alone[i].rejected[0]])


def test_small_two_column_stacks_equal_their_rows_alone():
    rng = np.random.default_rng(4400)
    x = adversarial_windows(rng, 40, 4)
    z = models._mean_sequence(x)
    designs = np.stack([-z, np.ones_like(z)], axis=2)
    targets = x[:, 1:]
    k = 12
    for rhs in (targets, np.stack([targets, 2.0 * targets], axis=2)):
        alone = [lstsq.solve_stacked(designs[i:i + 1], rhs[i:i + 1]) for i in range(40)]
        for size in (k - 1, k, k + 1, 40):
            stack = lstsq.solve_stacked(designs[:size], rhs[:size])
            assert stack.solutions.shape == (size,) + alone[0].solutions.shape[1:]
            for i in range(size):
                assert_same_bits([stack.solutions[i], stack.condition[i], stack.rejected[i]],
                                 [alone[i].solutions[0], alone[i].condition[0],
                                  alone[i].rejected[0]])


@pytest.mark.parametrize("kind", [ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC])
@pytest.mark.parametrize("scale", [1e-300, 1e300, 1e-160, 1e160])
def test_extreme_scales_fail_or_fit_like_solve_stacked(monkeypatch, kind, scale):
    w = models.MIN_WINDOW[kind]
    windows = adversarial_windows(np.random.default_rng(5500), 120, w) * scale
    assert_fits_like_reference(monkeypatch, kind, windows, models.DEFAULT_OMEGA[kind])


@pytest.mark.parametrize("kind", [ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC])
@pytest.mark.parametrize("omega", [math.pi, 2 * math.pi, 3 * math.pi, 4 * math.pi,
                                   0.01, 1e6, math.inf, math.nan])
def test_degenerate_frequencies_fit_like_solve_stacked(monkeypatch, kind, omega):
    """Multiples of pi make a trig column vanish or repeat the constant, a
    tiny omega makes cos(omega k) nearly constant, and a non-finite omega
    leaves no finite design."""
    w = models.MIN_WINDOW[kind] + 2
    windows = adversarial_windows(np.random.default_rng(6600), 120, w)
    assert_fits_like_reference(monkeypatch, kind, windows, omega)


def test_a_singular_or_non_finite_block_has_no_factors():
    assert lstsq.factor_block(np.ones((4, 2))).basis is None
    assert lstsq.factor_block(np.array([[np.inf, 1.0]] * 4)).basis is None
    k = models._local_times(5)
    nearly_constant = np.column_stack([np.cos(1e-3 * k), np.ones(4)])
    assert lstsq.factor_block(nearly_constant).basis is None
    assert lstsq.factor_block(np.column_stack([np.cos(2.65 * k), np.ones(4)])).basis is not None


@pytest.mark.parametrize("kind", [ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC])
@pytest.mark.parametrize("power", [-3, -1, 1, 2])
def test_power_of_two_scaling_scales_projected_solutions_exactly(kind, power):
    """Centring, projecting and the ordered sums are linear in (b, y), so a
    window projected at both scales keeps a and scales the rest exactly."""
    w = models.MIN_WINDOW[kind]
    omega = models.DEFAULT_OMEGA[kind]
    windows = adversarial_windows(np.random.default_rng(7700), 300, w)
    designs, targets, block = shared_systems(kind, windows, omega)
    scaled_designs, scaled_targets, _ = shared_systems(kind, np.ldexp(windows, power), omega)
    one = lstsq.solve_shared(designs, targets, block)
    two = lstsq.solve_shared(scaled_designs, scaled_targets, block)
    both = (is_projected(designs, targets, block)
            & is_projected(scaled_designs, scaled_targets, block))
    assert np.count_nonzero(both) > 50
    assert_same_bits([two.solutions[both, 0]], [one.solutions[both, 0]])
    assert_same_bits([two.solutions[both, 1:]], [np.ldexp(one.solutions[both, 1:], power)])


def decimal_solution(design, target):
    """(B'B)^-1 B'y of one system at 60 digits, by Gauss-Jordan elimination
    with partial pivoting."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rows = [[decimal.Decimal(float(v)) for v in row] for row in design]
        y = [decimal.Decimal(float(v)) for v in target]
        p = len(rows[0])
        gram = [[sum(r[i] * r[j] for r in rows) for j in range(p)]
                + [sum(r[i] * t for r, t in zip(rows, y))] for i in range(p)]
        for col in range(p):
            pivot = max(range(col, p), key=lambda r: abs(gram[r][col]))
            gram[col], gram[pivot] = gram[pivot], gram[col]
            for r in range(p):
                if r != col:
                    f = gram[r][col] / gram[col][col]
                    gram[r] = [u - f * v for u, v in zip(gram[r], gram[col])]
        return [gram[i][p] / gram[i][i] for i in range(p)]


def relative_error(solution, exact):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        scale = max(abs(v) for v in exact)
        miss = max(abs(decimal.Decimal(float(v)) - e) for v, e in zip(solution, exact))
        return float(miss / scale)


@pytest.mark.parametrize("case", CORPUS[::2], ids=corpus_ids)
def test_accuracy_against_decimal_reference(case):
    kind, w, omega = case
    rng = np.random.default_rng(8800 + w + int(10 * omega))
    designs, targets, block = shared_systems(kind, adversarial_windows(rng, 360, w), omega)
    shared = lstsq.solve_shared(designs, targets, block)
    stacked = lstsq.solve_stacked(designs, targets)
    projected_errors, lapack_errors = [], []
    for i in np.flatnonzero(is_projected(designs, targets, block)):
        exact = decimal_solution(designs[i], targets[i])
        error = relative_error(shared.solutions[i], exact)
        assert error <= TOLERANCE_FACTOR * EPS * shared.condition[i], (i, error)
        projected_errors.append(error)
        lapack_errors.append(relative_error(stacked.solutions[i], exact))
    assert len(projected_errors) > 100
    # No worse than LAPACK at the median and the 99th percentile.
    for q in (50, 99):
        assert np.percentile(projected_errors, q) <= np.percentile(lapack_errors, q)
