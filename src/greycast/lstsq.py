"""Small dense least-squares solver shared by all grey model fits.

The mathematical contract is the normal-equation minimizer (B'B)^-1 B'Y, but
the solve goes through an orthogonal decomposition (a thin SVD) for
conditioning. Systems with condition estimate above 1e12 are rejected rather
than silently returning noise.

``solve_stacked`` solves a whole stack of same-shape systems with one SVD
call; ``solve_least_squares`` is its one-system case. LAPACK factorizes each
matrix of a stack on its own and matmul applies one routine to every matrix
of a stack, so a system solves to the same bits alone or inside any stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, SingularSystemError

CONDITION_LIMIT = 1e12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LeastSquaresProblem:
    design: np.ndarray  # (m, p), m >= p
    targets: np.ndarray  # (m,)

    def __post_init__(self):
        b = np.asarray(self.design, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if b.ndim != 2 or y.ndim != 1 or b.shape[0] != y.size:
            raise InvalidInputError("design must be 2-d with one target per row")
        if b.shape[0] < b.shape[1]:
            raise InsufficientDataError(
                f"underdetermined system: {b.shape[0]} rows < {b.shape[1]} columns"
            )
        if not (np.isfinite(b).all() and np.isfinite(y).all()):
            raise InvalidInputError("least-squares entries must be finite")
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
    """
    n, m, p = designs.shape
    targets = np.ascontiguousarray(targets, dtype=float)
    columns = targets if targets.ndim == 3 else targets[:, :, None]
    u, s, vh = np.linalg.svd(designs, full_matrices=False)
    smax, smin = s[:, 0], s[:, -1]
    if np.count_nonzero(smin) == n:
        condition = smax / smin
    else:  # exactly singular systems: keep zeros out of the divisions below
        singular = smin == 0.0
        condition = np.where(singular, np.inf, smax / np.where(singular, 1.0, smin))
        s = np.where(s == 0.0, 1.0, s)
    # The singular values are sorted, so rank < p is the smallest one falling
    # below the rank tolerance.
    rejected = (smin <= _EPS * max(m, p) * smax) | (condition > CONDITION_LIMIT)
    # x = V diag(1/s) U'y; matmul treats each system of a stack alike.
    coef = np.matmul(u.transpose(0, 2, 1), columns) / s[:, :, None]
    solutions = np.matmul(vh.transpose(0, 2, 1), coef)
    return StackedSolution(solutions if targets.ndim == 3 else solutions[:, :, 0],
                           condition, rejected)


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
