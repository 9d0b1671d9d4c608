"""Fourier-series modeling of forecast residuals.

A truncated Fourier series is least-squares fitted to the recent one-step
residuals of a base model and extrapolated one index past the buffer to
correct the next raw forecast ("EF" variants). With too few residuals the
series degrades gracefully to the residual mean.

Fit and extrapolation together are a linear filter of the residuals whose
weights depend only on the residual count and the harmonic count:
``correction_weights`` computes them once, and a rolling forecast applies
them to every step's residuals at once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidInputError
from .lstsq import (
    LeastSquaresProblem,
    singular_error,
    solve_least_squares,
    solve_stacked,
)
from .series import all_finite

NON_FINITE_RESIDUALS = "residuals must be finite"


@dataclass(frozen=True, eq=False)
class ResidualSeries:
    """Ordered residuals eps(k) = observed(k) - predicted(k).

    ``start_index`` is the time index of the first residual (2 when the
    residuals come from inside a fitted window, since the first in-window
    one-step forecast targets k = 2). Two series are equal when their start
    indices and values are.
    """

    values: np.ndarray
    start_index: int = 2

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)  # always a copy of its own
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("residual series must be non-empty and 1-d")
        if not all_finite(arr):
            raise InvalidInputError(NON_FINITE_RESIDUALS)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _unchecked(cls, values: np.ndarray, start_index: int) -> "ResidualSeries":
        """The series of ``values``, a finite, non-empty, read-only 1-d float
        array, kept as it is: the constructor without its copy and checks."""
        series = object.__new__(cls)
        series.__dict__.update(values=values, start_index=start_index)
        return series

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidualSeries):
            return NotImplemented
        return (self.start_index == other.start_index
                and np.array_equal(self.values, other.values))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + len(self), dtype=float)

    @property
    def next_index(self) -> int:
        return self.start_index + len(self)


def max_harmonics(count: int) -> int:
    """Largest harmonic count that keeps the fit (at least) exactly determined."""
    return max(0, (count - 1) // 2 - 1)


@dataclass(frozen=True)
class FourierResidualModel:
    """eps(k) ~ a0/2 + sum_i [a_i cos(2 pi i k / T) + b_i sin(2 pi i k / T)]."""

    a0: float
    harmonics: Tuple[Tuple[float, float], ...]  # (a_i, b_i), i = 1..F
    period: float  # base period T, in samples

    @property
    def harmonic_count(self) -> int:
        return len(self.harmonics)


def _period(n: int) -> int:
    return n - 1 if n >= 2 else 1


def _harmonic_count(n: int, harmonics: Optional[int]) -> int:
    cap = max_harmonics(n)
    count = cap if harmonics is None else int(harmonics)
    if count < 0 or count > cap:
        raise InvalidInputError(f"harmonic count {count} outside [0, {cap}]")
    return count


def _design(k: np.ndarray, count: int, period: int) -> np.ndarray:
    """Columns 1/2, cos(2 pi i k / T), sin(2 pi i k / T) for i = 1..count."""
    cols = [np.full(k.size, 0.5)]
    for i in range(1, count + 1):
        arg = 2.0 * math.pi * i * k / period
        cols.append(np.cos(arg))
        cols.append(np.sin(arg))
    return np.column_stack(cols)


def fit_residual_fourier(residuals: ResidualSeries,
                         harmonics: Optional[int] = None) -> FourierResidualModel:
    """Least-squares Fourier fit of a residual sequence.

    The base period is T = len - 1 (T = 1 for a single residual) and the
    harmonic count defaults to the largest value that keeps the regression
    determined; ``harmonics`` may lower (or raise, up to that cap) the count.
    With zero harmonics the model is the residual mean.
    """
    eps = residuals.values
    n = eps.size
    period = float(_period(n))
    count = _harmonic_count(n, harmonics)
    if count == 0:
        return FourierResidualModel(a0=2.0 * float(eps.mean()), harmonics=(), period=period)
    design = _design(residuals.indices, count, _period(n))
    coef = solve_least_squares(LeastSquaresProblem(design, eps))
    pairs = tuple((float(coef[2 * i - 1]), float(coef[2 * i])) for i in range(1, count + 1))
    return FourierResidualModel(a0=float(coef[0]), harmonics=pairs, period=period)


#: Bytes of filter weights that ``correction_weights`` keeps. A roll with
#: residual window R asks for n = 1..R, 8 n (n - 1) bytes each and about
#: 8 R^3 / 3 in all: 45 MB at R = 256, so the weights of every R up to 290
#: stay whole.
WEIGHT_CACHE_BYTES = 64 * 2 ** 20


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int  # bytes
    currsize: int  # entries


class _WeightCache:
    """``compute(n, harmonics)``, kept until the kept results hold
    ``WEIGHT_CACHE_BYTES``; past that a result is computed and not kept.

    Keeping the first results rather than the latest suits rolls, which ask
    for n = 1..R in order, roll after roll: when R's weights do not all fit,
    a roll still finds those that do, where a least-recently-used cache would
    drop each one just before the next roll asks for it.
    """

    def __init__(self, compute):
        functools.update_wrapper(self, compute)
        self._compute = compute
        self.cache_clear()

    def __call__(self, n: int, harmonics: int) -> np.ndarray:
        weights = self._kept.get((n, harmonics))
        if weights is not None:
            self._hits += 1
            return weights
        self._misses += 1
        weights = self._compute(n, harmonics)
        if self._bytes + weights.nbytes <= WEIGHT_CACHE_BYTES:
            self._kept[n, harmonics] = weights
            self._bytes += weights.nbytes
        return weights

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, WEIGHT_CACHE_BYTES, len(self._kept))

    def cache_clear(self) -> None:
        self._kept = {}
        self._hits = self._misses = self._bytes = 0


@_WeightCache
def correction_weights(n: int, harmonics: int) -> np.ndarray:
    """Fourier fit and extrapolation of n residuals as one linear filter.

    Returns the read-only (T, n) matrix W, T = max(n - 1, 1), for which
    ``W[o] @ eps`` is ``extrapolate_error(fit_residual_fourier(res, harmonics),
    k)`` for residuals ``res`` with values eps starting at any integer index
    k0, where o = (k - k0) mod T and k is an integer. Shifting the indices
    rotates each harmonic's (cos, sin) pair, which the least-squares fit
    follows, and the fitted series has period T; so the fit at indices
    0..n-1 serves every k0. A design that ``solve_least_squares`` would
    reject raises the same ``SingularSystemError``. Results are kept for
    reuse up to ``WEIGHT_CACHE_BYTES``.
    """
    count = _harmonic_count(n, harmonics)
    period = _period(n)
    if count == 0:
        weights = np.full((period, n), 1.0 / n)
    else:
        design = _design(np.arange(n, dtype=float), count, period)
        result = solve_stacked(design[None], np.eye(n)[None])
        if result.rejected[0]:
            raise singular_error(float(result.condition[0]))
        weights = _design(np.arange(period, dtype=float), count, period) @ result.solutions[0]
    weights.setflags(write=False)
    return weights


def extrapolate_error(model: FourierResidualModel, k: int) -> float:
    """Evaluate the fitted residual series at time index k."""
    value = model.a0 / 2.0
    for i, (a_i, b_i) in enumerate(model.harmonics, start=1):
        arg = 2.0 * math.pi * i * k / model.period
        value += a_i * math.cos(arg) + b_i * math.sin(arg)
    return float(value)


def corrected_forecast(raw_forecast: float, model: FourierResidualModel, k: int) -> float:
    """Raw forecast plus the extrapolated expected error at index k."""
    if not math.isfinite(raw_forecast):
        raise InvalidInputError("raw forecast must be finite")
    return raw_forecast + extrapolate_error(model, k)


def fitted_errors(model: FourierResidualModel, residuals: ResidualSeries) -> np.ndarray:
    """In-sample evaluation of the fitted series at the residuals' own indices."""
    return np.array([extrapolate_error(model, k) for k in residuals.indices])
