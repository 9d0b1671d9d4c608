"""Accuracy metrics: RMSE, MAPE (with zero-observation guard), percent improvement."""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError
from .series import all_finite

# Observations smaller than this are excluded from MAPE instead of dividing.
MAPE_ZERO_GUARD = 1e-9


def _paired(predicted, observed):
    p = np.asarray(predicted, dtype=float)
    o = np.asarray(observed, dtype=float)
    if p.shape != o.shape or p.ndim != 1 or p.size < 1:
        raise InvalidInputError("predicted and observed must be equal-length 1-d")
    if not (all_finite(p) and all_finite(o)):
        raise InvalidInputError("metric inputs must be finite")
    return p, o


def rmse(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Root mean squared error."""
    p, o = _paired(predicted, observed)
    with np.errstate(over="ignore"):  # a huge but finite miss gives inf, silently
        return _rmse_of_misses(p - o)


def _rmse_of_misses(misses: np.ndarray) -> float:
    """``rmse``'s value from the misses predicted - observed of finite,
    paired arrays, which it does not check; overflow warnings are the
    caller's to silence."""
    return float(math.sqrt(np.mean(misses * misses)))


class MapeResult(NamedTuple):
    value: float  # percent
    excluded: int  # pairs skipped because |observed| was below the zero guard


def mape(predicted: Sequence[float], observed: Sequence[float]) -> MapeResult:
    """Mean absolute percentage error, in percent.

    Pairs whose observed value is (numerically) zero are excluded and counted
    rather than dividing by zero. All pairs excluded yields a 0% MAPE with a
    full exclusion count.
    """
    p, o = _paired(predicted, observed)
    with np.errstate(over="ignore"):  # a huge but finite miss gives inf, silently
        return _mape_of_misses(p - o, o)


def _mape_of_misses(misses: np.ndarray, observed: np.ndarray) -> MapeResult:
    """``mape``'s result from the misses predicted - observed and the
    observations of finite, paired arrays, which it does not check;
    overflow warnings are the caller's to silence."""
    keep = np.abs(observed) >= MAPE_ZERO_GUARD
    excluded = observed.size - int(np.count_nonzero(keep))
    if excluded == observed.size:
        return MapeResult(0.0, excluded)
    if excluded:
        misses, observed = misses[keep], observed[keep]
    return MapeResult(float(np.mean(np.abs(misses / observed)) * 100.0), excluded)


def improvement(reference: float, candidate: float) -> float:
    """Percent improvement of ``candidate`` over ``reference``."""
    if not (reference > 0):
        raise InvalidInputError("reference must be positive")
    return (reference - candidate) / reference * 100.0
