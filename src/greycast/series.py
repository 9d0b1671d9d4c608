"""Core sequence types and transforms: accumulation, mean sequence, restoration.

Every grey model in this library fits on the accumulated (prefix-sum) view of
the raw sequence and forecasts by differencing the fitted accumulated response
back into original units.

``row_sums``, ``ordered_sum`` and ``ordered_dot`` add left to right, so a sum
over one window's terms does not depend on the stack around it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InsufficientDataError, InvalidInputError


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of ``arr`` is finite (counting beats ``.all()`` on
    the short arrays of an online roll)."""
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right: a row's sum depends on
    that row alone, however many rows there are beside it."""
    count = terms.shape[-1]
    total = terms[..., 0] + terms[..., 1] if count > 1 else terms[..., 0].copy()
    for q in range(2, count):
        total += terms[..., q]
    return total


def ordered_sum(values):
    """``row_sums`` of two or more floats, or of equal-shape arrays (new)."""
    total = values[0] + values[1]
    for v in values[2:]:
        total += v
    return total


def ordered_dot(left, right):
    """``row_sums`` of the products of two sequences of floats or arrays."""
    terms = zip(left, right)
    u, v = next(terms)
    total = u * v
    for u, v in terms:
        total += u * v
    return total


def window_view(values: np.ndarray, width: int, count: int) -> np.ndarray:
    """The read-only (count, width) view whose row k is ``values[k:k + width]``:
    ``sliding_window_view`` without its fixed cost. One row is a plain slice.
    Row j of its transpose is the contiguous slice ``values[j:j + count]``."""
    if width < 0 or count < 0 or count + width - 1 > values.size:
        raise InvalidInputError(f"{count} windows of {width} read past {values.size} values")
    if count == 1:  # the online case, where a flag write costs more than the slice
        view = values[None, :width]
        if view.flags.writeable:
            view.flags.writeable = False
        return view
    step = values.strides[0]
    return as_strided(values, (count, width), (step, step), writeable=False)


@dataclass(frozen=True, init=False)
class Series:
    """A finite, time-ordered sequence of real observations.

    ``interval`` is the sampling period in seconds. The constructor checks
    finiteness; non-negativity is a precondition of the grey fits and is
    checked there, so residual/benchmark series may carry negative values.
    """

    values: np.ndarray
    interval: float = 60.0
    label: str = ""

    # Written out rather than generated, because an online caller builds a
    # Series per arrival: the generated __init__ and __post_init__ set each
    # frozen field one call at a time.
    def __init__(self, values, interval: float = 60.0, label: str = ""):
        arr = np.array(values, dtype=float)  # always a copy of its own
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("series must be a non-empty 1-d sequence")
        if not all_finite(arr):
            bad = int(np.argmin(np.isfinite(arr)))
            raise InvalidInputError(f"non-finite value at index {bad}")
        if not (interval > 0):
            raise InvalidInputError("sampling interval must be positive")
        arr.setflags(write=False)
        self.__dict__.update(values=arr, interval=interval, label=label)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class _Derived:
    """A sequence derived from a series, kept as a read-only float copy."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)  # always a copy of its own
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class AccumulatedSeries(_Derived):
    """Prefix sums of a source series (same length, left-to-right summation)."""

    origin: Series


@dataclass(frozen=True)
class MeanSeries(_Derived):
    """Adjacent-pair means of an accumulated series (length n-1, k = 2..n)."""


def accumulate(series: Series) -> AccumulatedSeries:
    """Running prefix sums of ``series`` (summed left to right)."""
    return AccumulatedSeries(np.cumsum(series.values), series)


def mean_sequence(acc: AccumulatedSeries) -> MeanSeries:
    """Arithmetic means of adjacent accumulated values."""
    x1 = acc.values
    if x1.size < 2:
        raise InsufficientDataError("mean sequence needs at least 2 accumulated values")
    return MeanSeries((x1[:-1] + x1[1:]) / 2.0)


def restore(acc_forecast: float, acc_prev: float) -> float:
    """First-order difference of two accumulated forecasts."""
    if not (np.isfinite(acc_forecast) and np.isfinite(acc_prev)):
        raise InvalidInputError("restore requires finite accumulated values")
    return float(acc_forecast) - float(acc_prev)
