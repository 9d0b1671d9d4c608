"""Small dense least-squares solver shared by all grey model fits.

The mathematical contract is the normal-equation minimizer (B'B)^-1 B'Y, but
the solve goes through orthogonal decompositions for conditioning. Systems
with condition estimate above 1e12 are rejected rather than silently
returning noise.

``solve_stacked`` solves a whole stack of same-shape systems at once;
``solve_least_squares`` is its one-system case. Which path a design takes:

- Two-column systems (GM(1,1), Grey Verhulst and GM_ESC's second stage) are
  orthogonalised by a one-sided Jacobi SVD (Hestenes, *J. SIAM* 6(1), 1958)
  written over the whole stack, whatever its size. One-sided Jacobi is at
  least as accurate as QR-based SVD (Demmel & Veselic, *SIAM J. Matrix
  Anal. Appl.* 13(4), 1992); measured against a 60-digit reference, its
  errors are below LAPACK's (see ``solve_stacked``).
- GM_S, GM_C and GM_SC designs [-z, T, 1] share every column but the first
  across the windows of a roll. ``solve_shared`` factors that block once and
  solves each window by projecting it out (Bjorck, *Numerical Methods for
  Least Squares Problems*, SIAM 1996), with no iteration, on the stack's
  columns, whatever its size. A window takes this path only if its Frobenius
  condition bound kappa_F = ||B||_F ||B+||_F, which lies between kappa_2 and
  p kappa_2, is at most ``SHARED_CONDITION_LIMIT`` = 1e4. Below that any two
  backward-stable solves agree to about eps * 1e4 = 2e-12 per parameter, so
  the cut keeps such a window within that of the SVD's answer; above it,
  rounding decides digits that a fixed SVD answer pins, so every other
  window takes the SVD path and keeps its bits.
- Every other design, and the windows above that bound, go to one batched
  ``np.linalg.svd``: LAPACK factorizes each matrix of a stack on its own and
  matmul applies one routine to every matrix of a stack. That leaves the EF
  Fourier designs and the ill-conditioned trigonometric windows.

Every path solves a system to the same bits alone or inside any stack, a
stack of one included. Only ``solve_floats``, for the one-window fits of
``models``, reads a system as floats: its scalar twins ``_jacobi_one`` and
``_project`` make the kernels' IEEE operations in order.

The stacks keep the (N, m, p) and (N, m) signatures, but the solvers read
them window-last, through ``.T``: (p, m, N) design columns and (m, N)
targets, so every numpy call runs over (N,) rows. ``models`` builds its
systems window-last in memory and hands over their (N, m, p) views, whose
rows are then contiguous; any other layout gives the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (NON_FINITE_SYSTEM, InsufficientDataError, InvalidInputError,
                     SingularSystemError)
from .series import _Record, all_finite, ordered_dot, ordered_sum, real_array, row_sums

CONDITION_LIMIT = 1e12
_EPS = float(np.finfo(float).eps)

#: A window of ``solve_shared`` whose Frobenius condition bound is at most
#: this takes the projection; any other takes ``solve_stacked``.
SHARED_CONDITION_LIMIT = 1e4


@dataclass(frozen=True, eq=False)
class LeastSquaresProblem(_Record):
    design: np.ndarray  # (m, p), m >= p
    targets: np.ndarray  # (m,)

    def __post_init__(self):
        b = real_array(self.design, "least-squares entries")
        y = real_array(self.targets, "least-squares entries")
        if b.ndim != 2 or y.ndim != 1 or b.shape[0] != y.size:
            raise InvalidInputError("design must be 2-d with one target per row")
        if b.shape[0] < b.shape[1]:
            raise InsufficientDataError(
                f"underdetermined system: {b.shape[0]} rows < {b.shape[1]} columns"
            )
        if not (np.isfinite(b).all() and np.isfinite(y).all()):
            raise InvalidInputError(NON_FINITE_SYSTEM)
        object.__setattr__(self, "design", b)
        object.__setattr__(self, "targets", y)


class StackedSolution(NamedTuple):
    solutions: np.ndarray  # (N, p) or (N, p, k); rejected systems: not minimizers
    condition: np.ndarray  # (N,) largest / smallest singular value
    rejected: np.ndarray  # (N,) rank deficient or condition above the limit


def solve_stacked(designs: np.ndarray, targets: np.ndarray) -> StackedSolution:
    """Minimizers of ||B_i p - Y_i||_2 for N finite systems of one shape.

    ``designs`` is (N, m, p) with m >= p and ``targets`` is (N, m), or
    (N, m, k) for k right-hand sides per system, which give (N, p, k)
    solutions (the identity gives the pseudo-inverse). A system is rejected
    when its numerical rank (singular values above eps * max(m, p) times the
    largest) is below p or its condition estimate exceeds ``CONDITION_LIMIT``.

    Two-column systems take the one-sided Jacobi SVD of ``_jacobi_stack``,
    a stack of one included; every other shape takes ``np.linalg.svd``.
    ``solve_shared`` sends GM_S, GM_C and GM_SC windows here only when their
    Frobenius condition bound exceeds ``SHARED_CONDITION_LIMIT``; a window it
    solves itself reports that bound, within p times the 2-norm condition,
    as its condition. Only LAPACK gets the (N, m, p) stack as it is; the
    Jacobi kernel reads ``designs.T``, (2, m, N), and ``targets.T``.

    Against a 60-digit solve of the normal equations of 4,000 adversarial
    windows per kind (spikes, near-constant and log-normal values), the
    relative error (median / p99 / max) is:

    - GM(1,1): Jacobi 2.7e-16 / 9.2e-12 / 1.3e-8, LAPACK 6.0e-16 / 2.4e-11 / 3.8e-8;
    - Verhulst: Jacobi 1.8e-16 / 3.9e-12 / 6.3e-10, LAPACK 7.3e-16 / 1.9e-11 / 1.8e-9;
    - GM_ESC stage two: Jacobi 1.5e-16 / 4.7e-16 / 6.5e-16, LAPACK 3.5e-16 / 1.6e-15 / 2.7e-15.

    Every Jacobi error is within 2.3 eps times the condition estimate, and
    both reject the same systems.
    """
    n, m, p = designs.shape
    targets = np.asarray(targets, dtype=float)
    if p == 2:
        with np.errstate(all="ignore"):  # rejected systems may not be finite
            solutions, smax, smin = _jacobi_stack(designs.T, targets.T)
    else:
        targets = np.ascontiguousarray(targets)
        solutions, smax, smin = _svd_stack(designs, targets if targets.ndim == 3
                                           else targets[:, :, None])
    with np.errstate(over="ignore"):  # a condition beyond the float range is inf
        if np.count_nonzero(smin) == n:
            condition = smax / smin
        else:  # exactly singular systems: keep zeros out of the division
            singular = smin == 0.0
            condition = np.where(singular, np.inf, smax / np.where(singular, 1.0, smin))
    # rank < p is the smallest singular value falling below the rank tolerance.
    rejected = (smin <= _EPS * max(m, p) * smax) | (condition > CONDITION_LIMIT)
    return StackedSolution(solutions if targets.ndim == 3 else solutions[:, :, 0],
                           condition, rejected)


class SharedBlock(NamedTuple):
    """A block C = [T, 1] (m, q) that a stack of designs [b_i, C] shares,
    with what ``solve_shared`` needs of it.

    T's columns are centred, T - 1 t', by their means t, and the centred
    block is factored by a thin SVD, U diag(s) V', kept as float lists that
    ``_project`` applies to floats and columns alike. The factors are None
    when C is not finite or its own condition bound already exceeds
    ``SHARED_CONDITION_LIMIT``: then no window can pass.
    """

    columns: np.ndarray  # C (read-only)
    means: Optional[list]  # t (q - 1)
    basis: Optional[list]  # U' (q - 1 rows of m): an orthonormal basis of range(T - 1 t')
    back: Optional[list]  # V diag(1/s) (q - 1 rows of q - 1): (T - 1 t')+ = back basis
    norm: float  # ||C||_F^2
    trace: float  # ||C+||_F^2


def factor_block(columns: np.ndarray) -> SharedBlock:
    """The ``SharedBlock`` of ``columns``, an (m, q) block whose last column
    is all ones, m > q."""
    columns = np.array(columns, dtype=float)
    columns.setflags(write=False)
    if all_finite(columns):
        s = np.linalg.svd(columns, compute_uv=False)
        if s[-1] > 0.0:
            norm, trace = float(row_sums(s * s)), float(row_sums(1.0 / (s * s)))
            if norm * trace <= SHARED_CONDITION_LIMIT ** 2:
                trig = columns[:, :-1]
                means = row_sums(trig.T) / trig.shape[0]
                u, sigma, vh = np.linalg.svd(trig - means, full_matrices=False)
                return SharedBlock(columns, means.tolist(), u.T.tolist(),
                                   (vh.T / sigma).tolist(), norm, trace)
    return SharedBlock(columns, None, None, None, math.inf, math.inf)


def solve_shared(designs: np.ndarray, targets: np.ndarray,
                 block: SharedBlock) -> StackedSolution:
    """``solve_stacked`` for N finite designs [b_i, T, 1] whose columns after
    the first are ``block``'s C = [T, 1], with (N, m) targets.

    Each window is solved as a centred regression. b and y lose their means,
    b' = b - mean(b) 1; a multiple of 1 lies in range(C) exactly, so this
    changes no solution, and what the rounding of b' and y' can lose is now
    relative to their spread, not their level. Then b' and y' are split into
    their components in and orthogonal to range(T - 1 t'), through its basis
    U: b_perp = b' - U U'b'. The first coefficient is
    a = (b_perp . y_perp) / (b_perp . b_perp), the trig coefficients are
    g = V diag(1/s) (U'y' - a U'b'), and the constant is
    mean(y) - a mean(b) - t . g. The window's Frobenius condition bound is,
    in closed form,

        kappa_F^2 = ||[b, C]||_F^2 ||[b, C]+||_F^2
                  = (||b||^2 + ||C||_F^2) (||C+||_F^2 + (1 + ||C+ b||^2) / ||b_perp||^2),

    with C+ b = (V diag(1/s) U'b', mean(b) - t . V diag(1/s) U'b'), and
    kappa_2 <= kappa_F <= p kappa_2. A window with kappa_F at most
    ``SHARED_CONDITION_LIMIT`` keeps this solution and reports kappa_F as its
    condition; far below ``CONDITION_LIMIT``, it is never rejected. Every
    other window, and every window of a block without factors, goes to
    ``solve_stacked``: the same bits, condition and rejection as without
    the block. ``_project`` computes all this on the stack's (N,) columns,
    the rows of ``designs[:, :, 0].T`` and ``targets.T``, for any N. Its sums
    run left to right (``series.ordered_dot``) and the rest is elementwise,
    so a window gets the same bits alone or in any stack. Only the windows
    above the bound are gathered into an (n, m, p) stack for
    ``solve_stacked``.

    Against a 60-digit solve of the normal equations of the projected windows
    among 2,880 adversarial ones (seasonal, spiky, near-constant, log-normal,
    zero runs and stuck values; 8 window lengths and frequencies), the
    relative error (median / p99 / max) is:

    - GM_S: projection 1.3e-16 / 4.2e-15 / 1.3e-14, LAPACK 1.2e-15 / 1.4e-14 / 4.4e-14;
    - GM_C: projection 1.3e-16 / 2.7e-15 / 4.9e-14, LAPACK 8.8e-16 / 3.1e-14 / 1.9e-13;
    - GM_SC: projection 1.2e-16 / 1.8e-15 / 9.2e-15, LAPACK 8.2e-16 / 1.1e-14 / 4.1e-14.

    Every projection error is within 0.5 eps times kappa_F.
    """
    n = designs.shape[0]
    if block.basis is None or not n:
        return solve_stacked(designs, targets)
    with np.errstate(all="ignore"):  # windows that fail the bound may not be finite
        solutions, bound = _project_stack(designs[:, :, 0], targets, block)
    kept = bound <= SHARED_CONDITION_LIMIT ** 2
    condition, rejected = np.sqrt(bound), np.zeros(n, dtype=bool)
    if np.count_nonzero(kept) < n:
        rest = np.flatnonzero(~kept)
        other = solve_stacked(designs[rest], targets[rest])
        solutions[rest], condition[rest], rejected[rest] = other
    return StackedSolution(solutions, condition, rejected)


def solve_floats(design: list, target: list, block: Optional[SharedBlock] = None):
    """One system of ``solve_stacked``, or with ``block`` of ``solve_shared``,
    given as floats: its design columns as lists of m floats and its m
    targets. Without ``block`` the design has two columns; with it, only its
    first, the block's C being the rest.

    Returns the p solution floats, the condition estimate and whether the
    system is rejected, with the bits the system gets in any stack: the
    scalar twins ``_project`` and ``_jacobi_one`` make the stack kernels'
    operations, and a trigonometric window above the kappa_F gate goes to
    ``solve_stacked`` as a stack of one.
    """
    if block is None:
        solution, smax, smin = _jacobi_one(design[0], design[1], target)
        condition = smax / smin if smin else math.inf
        rejected = smin <= _EPS * max(len(target), 2) * smax or condition > CONDITION_LIMIT
        return solution, condition, rejected
    if block.basis is not None:
        solution, bound = _project(design[0], target, block)
        if bound <= SHARED_CONDITION_LIMIT ** 2:
            return solution, math.sqrt(bound), False
    result = solve_stacked(np.column_stack((design[0], block.columns))[None],
                           np.array([target]))
    return result.solutions[0].tolist(), float(result.condition[0]), bool(result.rejected[0])


def _project_stack(first: np.ndarray, targets: np.ndarray, block: SharedBlock):
    """``_project`` on the columns of (N, m) b's and y's, as (N, p) and (N,)."""
    solution, bound = _project(list(first.T), list(targets.T), block)
    return np.column_stack(solution), bound


def _project(first: list, target: list, block: SharedBlock):
    """The solution and squared condition bound of [b, C] from b's and y's m
    entries: one window's floats or N windows' (N,) columns, which get the
    same IEEE operations. A b in range(C) has bound inf (columns: inf or nan)."""
    basis, back = block.basis, block.back
    mb, my = ordered_sum(first) / len(first), ordered_sum(target) / len(target)
    pb, py = [v - mb for v in first], [v - my for v in target]
    coef = [(ordered_dot(pb, u), ordered_dot(py, u)) for u in basis]
    for (cb, cy), u in zip(coef, basis):
        pb = [v - cb * w for v, w in zip(pb, u)]
        py = [v - cy * w for v, w in zip(py, u)]
    bb = ordered_dot(pb, pb)
    if isinstance(bb, float) and not bb:
        return [math.nan] * (2 + len(basis)), math.inf
    a = ordered_dot(pb, py) / bb
    e = [cy - a * cb for cb, cy in coef]
    trig = [ordered_dot(row, e) for row in back]
    constant = (my - a * mb) - ordered_dot(trig, block.means)
    gb = [ordered_dot(row, [cb for cb, _ in coef]) for row in back]  # C+ b, less its constant
    cb = mb - ordered_dot(gb, block.means)
    bound = ((ordered_dot(first, first) + block.norm)
             * (block.trace + (1.0 + (ordered_dot(gb, gb) + cb * cb)) / bb))
    return [a] + trig + [constant], bound


def _svd_stack(designs: np.ndarray, columns: np.ndarray):
    """Solutions (N, p, k) and largest and smallest singular values by LAPACK."""
    u, s, vh = np.linalg.svd(designs, full_matrices=False)
    smax, smin = s[:, 0], s[:, -1]
    if np.count_nonzero(smin) < smin.size:
        s = np.where(s == 0.0, 1.0, s)
    # x = V diag(1/s) U'y; matmul treats each system of a stack alike.
    coef = np.matmul(u.transpose(0, 2, 1), columns) / s[:, :, None]
    return np.matmul(vh.transpose(0, 2, 1), coef), smax, smin


# Rotations per two-column system before its singular values are read off as
# they stand. A well-conditioned system converges after one or two.
_SWEEPS = 8
# A system whose squared column norms differ by more than this factor has a
# condition above 1e13 and is rejected whatever a rotation does, so it is not
# rotated: where the smaller norm's square underflows, no rotation would
# satisfy the convergence test. This also bounds |zeta| by 1e13 / (2 eps), so
# zeta * zeta cannot overflow. Its singular values are estimated by its
# column norms, each scaled by its own power of two, so that an underflowing
# square does not make a nonzero column read as exactly singular.
_HOPELESS = 1e-26
_SIGNS = np.array([-1.0, 1.0])[:, None, None]


def _jacobi_stack(designs: np.ndarray, targets: np.ndarray):
    """Solutions (N, 2, k) and largest and smallest singular values of N >= 1
    two-column systems, by a one-sided Jacobi SVD over the stack.

    It reads the systems window-last: ``designs`` is (2, m, N), column, row,
    system, and ``targets`` (m, N), or (k, m, N) for k right-hand sides, so
    every operation runs over (N,) rows.

    Each system and its targets are scaled by the power of two of the
    system's largest entry, which is exact: then no sum overflows, and a
    squared norm can only underflow in a system that ``_HOPELESS`` rejects.
    The columns of [B; I] are rotated until the design columns are orthogonal
    to working precision, |g| <= eps sqrt(a b) with a, b their squared norms
    and g their inner product. A converged system keeps its columns through a
    select, not a multiplication by an identity rotation, so its bits do not
    depend on how long the rest of the stack takes; and every sum runs over
    the rows in order, so they do not depend on the stack's size either.
    """
    _, m, n = designs.shape
    _, scale = np.frexp(np.abs(designs).max(axis=(0, 1)))
    w = np.empty((2, m + 2, n))  # column, row of [B; I], system
    np.ldexp(designs, -scale, out=w[:, :m])
    w[:, m:] = np.eye(2)[:, :, None]
    products = np.empty((3, m, n))
    terms = products.transpose(0, 2, 1)
    for sweep in range(_SWEEPS + 1):
        np.multiply(w[:, :m], w[:, :m], out=products[:2])
        np.multiply(w[0, :m], w[1, :m], out=products[2])
        alpha, beta, gamma = row_sums(terms)
        comparable = np.minimum(alpha, beta) >= _HOPELESS * np.maximum(alpha, beta)
        rotate = (np.abs(gamma) > _EPS * np.sqrt(alpha * beta)) & comparable
        if sweep == _SWEEPS or not rotate.any():
            break
        zeta = (beta - alpha) / (2.0 * np.where(rotate, gamma, 1.0))
        t = np.copysign(1.0 / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)), zeta)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = c * t
        # (c w0 - s w1, c w1 + s w0): negating s and swapping two addends are
        # exact, so these are the scalar twin's bits.
        w = np.where(rotate, c * w + (s * _SIGNS) * w[::-1], w)
    # x = V diag(1/s^2) (B V)'y, on the scaled system; y is (k, m, N).
    y = np.ldexp(targets if targets.ndim == 3 else targets[None], -scale)
    norms = np.stack([alpha, beta])
    coef = (row_sums((w[:, None, :m] * y).transpose(0, 1, 3, 2))
            / np.where(norms == 0.0, 1.0, norms)[:, None])
    solutions = w[0, m:, None] * coef[0] + w[1, m:, None] * coef[1]
    sigma = np.sqrt(norms)
    if np.count_nonzero(comparable) < n:
        hopeless = ~comparable
        sigma[:, hopeless] = _column_norms(w[:, :m, hopeless])
    return solutions.transpose(2, 0, 1), sigma.max(axis=0), sigma.min(axis=0)


def _jacobi_one(col0: list, col1: list, target: list):
    """``_jacobi_stack`` for one system, with ``math`` on floats: the design's
    two columns and its target column as lists in, the solution [x0, x1] and
    the largest and smallest singular values out.

    It makes the same IEEE operations in the same order, so it gives the same
    bits, without the fixed cost of some fifty numpy calls on one-element
    arrays. V is kept as its four entries, v_ji in row j and column i. A
    hopeless system shares ``_column_norms`` with the stack.
    """
    _, scale = math.frexp(max(map(abs, col0 + col1)))
    a0 = [math.ldexp(u, -scale) for u in col0]
    a1 = [math.ldexp(v, -scale) for v in col1]
    v00, v01, v10, v11 = 1.0, 0.0, 0.0, 1.0
    # Each sum starts from -0.0, the identity of IEEE addition, so it equals
    # the sum that starts from its first term, as ``row_sums`` adds a row.
    alpha = beta = gamma = -0.0
    for u, v in zip(a0, a1):
        alpha += u * u
        beta += v * v
        gamma += u * v
    for _ in range(_SWEEPS):
        if (not abs(gamma) > _EPS * math.sqrt(alpha * beta)
                or min(alpha, beta) < _HOPELESS * max(alpha, beta)):
            break
        zeta = (beta - alpha) / (2.0 * gamma)
        t = math.copysign(1.0 / (abs(zeta) + math.sqrt(1.0 + zeta * zeta)), zeta)
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = c * t
        # Rotate the columns and sum the rotated ones in one pass.
        b0, b1 = [], []
        alpha = beta = gamma = -0.0
        for u, v in zip(a0, a1):
            u, v = c * u - s * v, s * u + c * v
            b0.append(u)
            b1.append(v)
            alpha += u * u
            beta += v * v
            gamma += u * v
        a0, a1 = b0, b1
        v00, v01 = c * v00 - s * v01, s * v00 + c * v01
        v10, v11 = c * v10 - s * v11, s * v10 + c * v11
    d0 = d1 = -0.0
    for u, v, y in zip(a0, a1, target):
        y = _ldexp(y, -scale)
        d0 += u * y
        d1 += v * y
    c0, c1 = d0 / (alpha or 1.0), d1 / (beta or 1.0)
    solution = [v00 * c0 + v01 * c1, v10 * c0 + v11 * c1]
    if min(alpha, beta) < _HOPELESS * max(alpha, beta):
        sigma0, sigma1 = _column_norms(np.array([a0, a1])[:, :, None])[:, 0].tolist()
    else:
        sigma0, sigma1 = math.sqrt(alpha), math.sqrt(beta)
    return solution, max(sigma0, sigma1), min(sigma0, sigma1)


def _column_norms(cols: np.ndarray) -> np.ndarray:
    """The (2, h) column norms of the (2, m, h) columns of h hopeless systems:
    each column is scaled by the power of two of its largest entry before its
    squares are summed, so a nonzero column's norm cannot underflow to 0."""
    _, exponent = np.frexp(np.abs(cols).max(axis=1))
    cols = np.ldexp(cols, -exponent[:, None])
    return np.ldexp(np.sqrt(row_sums((cols * cols).transpose(0, 2, 1))), exponent)


def _ldexp(value: float, exponent: int) -> float:
    """``np.ldexp`` on floats: an overflow gives infinity, not an error."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


def singular_error(condition: float) -> SingularSystemError:
    return SingularSystemError(
        f"near-singular system (condition estimate {condition:.3e})", condition=condition
    )


def solve_least_squares(problem: LeastSquaresProblem) -> np.ndarray:
    """Minimizer of ||B p - Y||_2 for a small dense full-rank system."""
    result = solve_stacked(problem.design[None], problem.targets[None])
    if result.rejected[0]:
        raise singular_error(float(result.condition[0]))
    return result.solutions[0]
