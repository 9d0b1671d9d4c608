"""Core sequence types and transforms: accumulation, mean sequence, restoration.

Every grey model in this library fits on the accumulated (prefix-sum) view of
the raw sequence and forecasts by differencing the fitted accumulated response
back into original units.

``row_sums``, ``ordered_sum`` and ``ordered_dot`` add left to right, so a sum
over one window's terms does not depend on the stack around it.
"""
from __future__ import annotations

import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InsufficientDataError, InvalidInputError


_FLOAT = np.dtype(float)
_BOOLS = (bool, np.bool_)
_PLAIN = frozenset((float, int))
_NESTED = (list, tuple, np.ndarray, np.generic)  # what complex_array looks inside


def complex_array(values) -> bool:
    """Whether ``values`` holds complex numbers whose float cast would drop
    the imaginary parts with only a warning: a complex array or numpy complex
    scalar, or one inside a sequence or object array, at any depth of nested
    lists, tuples and arrays (the cast refuses a Python complex itself). A
    float64 array is told apart by its dtype's identity, which costs about
    40 ns, and a list of Python numbers by the types of its entries."""
    dtype = getattr(values, "dtype", None)
    if dtype is _FLOAT:
        return False
    if dtype is not None and dtype.kind != "O":
        return dtype.kind == "c"
    if (dtype is None and not isinstance(values, Sequence) or getattr(values, "ndim", 1) == 0
            or _PLAIN.issuperset(map(type, values))):
        return False
    return any(isinstance(v, _NESTED) and complex_array(v) for v in values)


def real_array(values, what: str) -> np.ndarray:
    """A new float array of ``values``; ``InvalidInputError`` naming ``what``
    when they are not real numbers (a string, a complex number, a dict, an
    int past the float range)."""
    if complex_array(values):
        raise InvalidInputError(f"{what} must be real numbers, not complex")
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} must be real numbers: {exc}") from None


def real_number(value) -> bool:
    """Whether ``value`` is a real number in the float range and no bool:
    Python counts ``True`` as 1, but a bool given for a number is a mistake."""
    if isinstance(value, _BOOLS) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)  # an int past the float range overflows
    except (TypeError, OverflowError):
        return False
    return True


def whole_number(value, name: str, least=None, below: str = "") -> int:
    """``operator.index(value)`` for a count, checked in one order: a bool, or
    a value that cannot be compared with ``least`` (a string, None, a complex
    number, an array), is not an integer; a number under ``least`` gets
    ``InvalidInputError(below)``, whole or not; and any other number that
    ``operator.index`` refuses (2.5, inf, nan) is not an integer either."""
    try:
        if isinstance(value, _BOOLS) or isinstance(value, np.ndarray) and value.ndim:
            raise TypeError  # Python counts True as 1, but a bool count is a mistake
        if least is not None and value < least:
            raise InvalidInputError(below)
        return operator.index(value)
    except (TypeError, ArithmeticError):  # ArithmeticError: Decimal("NaN") < 1
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None


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


class _Record:
    """Base of the frozen records that hold arrays.

    A record equals only a record of its own class whose compared fields are
    equal, arrays by ``np.array_equal``; it is unhashable, since it holds
    arrays. ``_unchecked`` builds one from its fields as they are, with no
    copy and no check: the engine's builder for arrays it made read-only.
    """

    __hash__ = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
                   for mine, theirs in pairs)

    @classmethod
    def _unchecked(cls, **values):
        record = object.__new__(cls)
        record.__dict__.update(values)
        return record


@dataclass(frozen=True, init=False, eq=False)
class Series(_Record):
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
        arr = real_array(values, "series values")  # always a copy of its own
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("series must be a non-empty 1-d sequence")
        if not all_finite(arr):
            bad = int(np.argmin(np.isfinite(arr)))
            raise InvalidInputError(f"non-finite value at index {bad}")
        try:
            positive = interval > 0
        except TypeError:  # a string, say
            positive = False
        if not positive:
            raise InvalidInputError("sampling interval must be positive")
        if isinstance(interval, _BOOLS):  # Python counts True as 1 s
            raise InvalidInputError(f"sampling interval must be a number, got {interval!r}")
        arr.setflags(write=False)
        self.__dict__.update(values=arr, interval=interval, label=label)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class _Derived(_Record):
    """A sequence derived from a series, kept as a read-only float copy."""

    values: np.ndarray

    def __post_init__(self):
        arr = real_array(self.values, "series values")  # always a copy of its own
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class AccumulatedSeries(_Derived):
    """Prefix sums of a source series (same length, left-to-right summation)."""

    origin: Series


@dataclass(frozen=True, eq=False)
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
