"""The two-column least-squares path of ``lstsq.solve_stacked``.

GM(1,1) ([-z, 1]), Grey Verhulst ([-z, z^2]) and GM_ESC's second stage
([e^-ak sin, e^-ak cos]) solve two-column systems by a one-sided Jacobi SVD.
Its solutions are checked against a 60-digit ``decimal`` solve of the normal
equations of the same floating-point system, and its rejections against the
rank rule and condition gate applied to ``np.linalg.svd``'s singular values.

The tolerance is fixed from the perturbation theory of least squares, not from
a measurement: a backward-stable solve of a system with condition estimate
kappa is accurate to a small multiple of eps * kappa (plus a kappa^2 term
scaled by the relative residual, which the bound below absorbs in its factor
of 64 for these windows).
"""
import decimal

import numpy as np
import pytest

from greycast import lstsq, models
from greycast.models import ModelKind

EPS = float(np.finfo(float).eps)
TOLERANCE_FACTOR = 64.0


def adversarial_windows(rng, count, w=4):
    """Positive windows: spikes, near-constant values and log-normal values,
    each at a random scale 10^[-3, 3]."""
    rows = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            x = rng.uniform(1.0, 10.0, w)
            x[rng.integers(w)] *= 10.0 ** rng.uniform(1, 6)
        elif kind == 1:
            x = 5.0 * (1.0 + 10.0 ** rng.uniform(-14, -4) * rng.normal(size=w))
        else:
            x = np.exp(rng.normal(0.0, 2.0, w))
        rows.append(x * 10.0 ** rng.uniform(-3, 3))
    return np.array(rows)


def grey_systems(kind, windows, omega=None):
    """The (N, m, 2) designs and (N, m) targets a fit of ``kind`` solves."""
    z = models._mean_sequence(windows)
    targets = windows[:, 1:]
    if kind is ModelKind.GM11:
        return np.stack([-z, np.ones_like(z)], axis=2), targets
    if kind is ModelKind.GVM:
        return np.stack([-z, z * z], axis=2), targets
    with np.errstate(all="ignore"):
        stage_one = models.fit_windows(ModelKind.GM11, windows)
        a, b = stage_one.a, stage_one.b
        k = models._local_times(windows.shape[1])
        residuals = targets + a[:, None] * z - b[:, None]
        damp = np.exp(-a[:, None] * k)
        designs = np.stack([damp * np.sin(omega * k), damp * np.cos(omega * k)], axis=2)
    usable = (np.isfinite(designs).all(axis=(1, 2)) & np.isfinite(residuals).all(axis=1)
              & ~stage_one.failures.failed)
    return designs[usable], residuals[usable]


def decimal_solution(design, target):
    """(B'B)^-1 B'y of one two-column system at 60 digits, or None if B'B is
    exactly singular."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rows = [[decimal.Decimal(float(v)) for v in row] for row in design]
        y = [decimal.Decimal(float(v)) for v in target]
        g00 = sum(r[0] * r[0] for r in rows)
        g11 = sum(r[1] * r[1] for r in rows)
        g01 = sum(r[0] * r[1] for r in rows)
        r0 = sum(r[0] * t for r, t in zip(rows, y))
        r1 = sum(r[1] * t for r, t in zip(rows, y))
        det = g00 * g11 - g01 * g01
        if det == 0:
            return None
        return ((g11 * r0 - g01 * r1) / det, (g00 * r1 - g01 * r0) / det)


def relative_error(solution, exact):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        scale = max(abs(v) for v in exact)
        miss = max(abs(decimal.Decimal(float(v)) - e) for v, e in zip(solution, exact))
        return float(miss / scale) if scale else float(miss)


def lapack_reference(designs, targets):
    """What the LAPACK path computes: solutions, condition and rejections."""
    u, s, vh = np.linalg.svd(designs, full_matrices=False)
    m, p = designs.shape[1:]
    smax, smin = s[:, 0], s[:, -1]
    with np.errstate(all="ignore"):
        condition = np.where(smin == 0.0, np.inf, smax / smin)
        coef = np.einsum("nmp,nm->np", u, targets) / np.where(s == 0.0, 1.0, s)
    solutions = np.einsum("npq,np->nq", vh, coef)
    rejected = (smin <= EPS * max(m, p) * smax) | (condition > lstsq.CONDITION_LIMIT)
    return solutions, condition, rejected


def assert_same_bits(left, right):
    for a, b in zip(left, right):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


CORPUS = [
    (ModelKind.GM11, None),
    (ModelKind.GVM, None),
    (ModelKind.GM_ESC, models.DEFAULT_OMEGA[ModelKind.GM_ESC]),
    (ModelKind.GM_ESC, 1.3),
]


@pytest.mark.parametrize("kind,omega", CORPUS)
def test_accuracy_against_decimal_reference(kind, omega):
    rng = np.random.default_rng(9000 + len(kind.value) + int(omega or 0))
    designs, targets = grey_systems(kind, adversarial_windows(rng, 900), omega)
    result = lstsq.solve_stacked(designs, targets)
    lapack, condition, lapack_rejected = lapack_reference(designs, targets)
    assert np.array_equal(result.rejected, lapack_rejected)
    jacobi_errors, lapack_errors = [], []
    for i in np.flatnonzero(~result.rejected):
        exact = decimal_solution(designs[i], targets[i])
        error = relative_error(result.solutions[i], exact)
        assert error <= TOLERANCE_FACTOR * EPS * condition[i], (i, error, condition[i])
        jacobi_errors.append(error)
        lapack_errors.append(relative_error(lapack[i], exact))
    assert len(jacobi_errors) > 800
    # No worse than LAPACK at the median and the 99th percentile.
    for q in (50, 99):
        assert np.percentile(jacobi_errors, q) <= np.percentile(lapack_errors, q)


def test_rejections_match_lapack_on_extreme_windows():
    rng = np.random.default_rng(77)
    base = adversarial_windows(rng, 300)
    windows = np.concatenate([
        base / base.max(axis=1, keepdims=True) * 1e300,
        base * 1e-300,
        base * 1e-310,
        np.full((4, 4), 7.0),
        np.array([[1.0, 1.0, 1.0, 1.0 + 2 ** -40], [3.0, 3.0 + 2 ** -45, 3.0, 3.0]]),
    ])
    for kind in (ModelKind.GM11, ModelKind.GVM):
        with np.errstate(over="ignore"):
            designs, targets = grey_systems(kind, windows)
        finite = np.isfinite(designs).all(axis=(1, 2))
        designs, targets = designs[finite], targets[finite]
        result = lstsq.solve_stacked(designs, targets)
        assert np.array_equal(result.rejected, lapack_reference(designs, targets)[2])
        assert result.rejected.any() and not result.rejected.all()


EDGE_SYSTEMS = {
    "zero column": ([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], True),
    "identical columns": ([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], True),
    "single nonzero row": ([[1.5, 2.5], [0.0, 0.0], [0.0, 0.0]], True),
    "all zero": ([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], True),
    "orthogonal": ([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], False),
    "grey": ([[-1.5, 1.0], [-2.75, 1.0], [-3.875, 1.0]], False),
    "negative zeros": ([[-0.0, 1.0], [2.0, -0.0], [-3.0, -1.0]], False),
    "signed zero column": ([[1.0, 0.0], [2.0, -0.0], [-3.0, -0.0]], True),
}


@pytest.mark.parametrize("name", sorted(EDGE_SYSTEMS))
def test_edge_systems(name):
    design, rejected = EDGE_SYSTEMS[name]
    design = np.array([design])
    targets = np.array([[1.0, -2.0, 0.5]])
    alone = lstsq.solve_stacked(design, targets)
    assert bool(alone.rejected[0]) is rejected
    assert np.array_equal(alone.rejected, lapack_reference(design, targets)[2])
    if name in ("zero column", "all zero"):
        assert alone.condition[0] == np.inf
    if not rejected:
        exact = decimal_solution(design[0], targets[0])
        assert relative_error(alone.solutions[0], exact) <= 4 * EPS
    stacked = lstsq.solve_stacked(np.repeat(design, 3, axis=0), np.repeat(targets, 3, axis=0))
    assert_same_bits([alone.solutions[0], alone.condition[0], alone.rejected[0]],
                     [stacked.solutions[1], stacked.condition[1], stacked.rejected[1]])


@pytest.mark.parametrize("power", [-1060, -1000, -600, 600, 960])
def test_power_of_two_scaling_keeps_the_bits(power):
    rng = np.random.default_rng(5)
    designs = rng.normal(size=(6, 4, 2)) * 2.0 ** 30
    targets = rng.normal(size=(6, 4)) * 2.0 ** 30
    plain = lstsq.solve_stacked(designs, targets)
    small_designs, small_targets = np.ldexp(designs, power), np.ldexp(targets, power)
    scaled = lstsq.solve_stacked(small_designs, small_targets)
    if np.abs(small_designs).min() < np.finfo(float).tiny:
        # Subnormal inputs are rounded: check the solve of what they became.
        for i in range(6):
            exact = decimal_solution(small_designs[i], small_targets[i])
            error = relative_error(scaled.solutions[i], exact)
            assert error <= TOLERANCE_FACTOR * EPS * scaled.condition[i]
        return
    assert_same_bits(plain, scaled)


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_decimal_scales(scale):
    rng = np.random.default_rng(6)
    designs = rng.normal(size=(8, 5, 2)) * scale
    targets = rng.normal(size=(8, 5)) * scale
    result = lstsq.solve_stacked(designs, targets)
    assert not result.rejected.any()
    for i in range(8):
        exact = decimal_solution(designs[i], targets[i])
        assert relative_error(result.solutions[i], exact) <= TOLERANCE_FACTOR * EPS * result.condition[i]


@pytest.mark.parametrize("m", range(3, 9))
def test_row_counts(m):
    rng = np.random.default_rng(m)
    designs = rng.normal(size=(40, m, 2))
    designs[20:, :, 1] = designs[20:, :, 0] + 10.0 ** rng.uniform(-9, -3, (20, 1)) * rng.normal(size=(20, m))
    targets = rng.normal(size=(40, m))
    result = lstsq.solve_stacked(designs, targets)
    _, condition, rejected = lapack_reference(designs, targets)
    assert np.array_equal(result.rejected, rejected)
    for i in range(40):
        exact = decimal_solution(designs[i], targets[i])
        assert relative_error(result.solutions[i], exact) <= TOLERANCE_FACTOR * EPS * condition[i]


def test_multi_column_targets():
    rng = np.random.default_rng(8)
    designs = rng.normal(size=(10, 5, 2))
    targets = rng.normal(size=(10, 5, 3))
    result = lstsq.solve_stacked(designs, targets)
    assert result.solutions.shape == (10, 2, 3)
    for j in range(3):
        single = lstsq.solve_stacked(designs, np.ascontiguousarray(targets[:, :, j]))
        assert single.solutions.tobytes() == np.ascontiguousarray(result.solutions[:, :, j]).tobytes()
    one = lstsq.solve_stacked(designs[3:4], targets[3:4])
    assert one.solutions.tobytes() == result.solutions[3:4].tobytes()
    pinv = lstsq.solve_stacked(designs, np.broadcast_to(np.eye(5), (10, 5, 5)))
    np.testing.assert_allclose(pinv.solutions, np.linalg.pinv(designs), rtol=1e-12, atol=1e-14)


def test_a_system_keeps_its_bits_alone_and_in_any_stack():
    """A stack of one and any larger stack give a system the same bits,
    whatever else shares the stack and however many rotations it needs."""
    rng = np.random.default_rng(21)
    parts = [grey_systems(kind, adversarial_windows(rng, 60), omega) for kind, omega in CORPUS]
    designs = np.concatenate([d for d, _ in parts] + [np.array([v[0] for v in EDGE_SYSTEMS.values()])])
    # With these targets, an identity rotation in place of a select would flip
    # the sign of a zero in the "signed zero column" solution.
    edge_targets = np.tile([-3.0, 2.0, 1.0], (len(EDGE_SYSTEMS), 1))
    targets = np.concatenate([t for _, t in parts] + [edge_targets])
    full = lstsq.solve_stacked(designs, targets)
    n = len(designs)
    for i in range(n):
        alone = lstsq.solve_stacked(designs[i:i + 1], targets[i:i + 1])
        assert_same_bits([alone.solutions, alone.condition, alone.rejected],
                         [full.solutions[i:i + 1], full.condition[i:i + 1], full.rejected[i:i + 1]])
    for size in (2, 3, 17):
        order = rng.permutation(n)[:size]
        part = lstsq.solve_stacked(designs[order], targets[order])
        assert_same_bits([part.solutions, part.condition, part.rejected],
                         [full.solutions[order], full.condition[order], full.rejected[order]])
