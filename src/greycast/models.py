"""The six grey forecasting models: GM(1,1), GVM and four trigonometric variants.

Each model is fit on a short rolling window (w >= 4) by least squares on the
grey "basic form" x0(k) + a*z1(k) = rhs(k), then forecast through the closed
solution of the matching whitenization ODE dx1/dt + a*x1 = rhs(t) with initial
condition x1(1) = x0(1). The trigonometric closed forms are derived directly
from the ODEs and validated against high-order numerical integration in the
tests.

GM(1,1) and the four trigonometric models share one closed form, ``_increment``:
D(u, s) = x1hat(u+s) - x1hat(u), the growth of the accumulated response over
s time units. A forecast or in-window fitted value x0hat(k+1) is D(k, 1), and
the accumulated response x1hat(t) is x0(1) + D(1, t-1). The form is written
with ``expm1``, so it neither forms the particular solution's b/a term nor
differences two accumulated values: it keeps full relative precision as a
approaches 0 (where it holds as it stands, with no separate limit) and over
long horizons (Higham, *Accuracy and Stability of Numerical Algorithms*,
§1.14.1). The trigonometric part q(t) of the particular solution is GM_SC's:
GM_S and GM_C are GM_SC with the unused trig coefficient 0, GM_ESC damps the
same two terms by e^(-a t), and GM(1,1) has none. GVM keeps its classic
product form.

Time is the within-window index: each window restarts at k = 1..w, and the
trigonometric regressors use sin(omega*k)/cos(omega*k) at those local indices.

Every fit and closed form is written once, over a stack of N equal-length
windows of one model kind: ``fit_windows``, ``forecast_windows`` and
``fitted_windows``, which the rolling engine calls once per roll. A window
that cannot be fit or forecast gets the error its one-window call raises, at
the same point. ``fit_model``, ``forecast``, ``forecast_gm11``,
``forecast_gvm``, ``forecast_trig``, ``accumulated_response`` and
``fitted_values`` are the one-window case: they evaluate a stack of one.
GM_ESC's fit is GM(1,1)'s fit followed by ``fit_esc_windows``, which leaves
the GM(1,1) fits as they are, so one stage one can serve every frequency.

A stack comes in as (N, w) windows, but the fits work window-last, on its
transpose: each local time k is one (N,) row of values, of the mean
sequence, of each design column and of the targets. A ``series.window_view``
stack's rows are contiguous slices of the series. The parameters come back
as (N,) arrays, and the closed forms evaluate one (N,) row per time.

A stack of one, the online case, runs on floats instead: its rows are the
window's w floats (``windows[0].tolist()``) and its parameters are floats.
The same code makes the same IEEE operations on either feed, as
``lstsq._project`` does; it branches on the feed only where numpy and float
idioms differ (a float division by zero raises, a check reads an array at
once). Exponentials are ``np.exp`` and ``np.expm1`` on both feeds, which
give a float the bits its array loop gives, where ``math.exp`` does not.
``forecast_windows`` and ``fitted_windows`` return (1,) and (1, w-1) arrays
for it, as for any stack.

The per-kind facts live in one table, ``_KINDS``, with one row per kind;
``TRIG_KINDS``, ``DEFAULT_OMEGA``, ``EF_NAME`` and ``MIN_WINDOW`` are views
of it.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from .errors import (
    NON_FINITE_FORECAST,
    NON_FINITE_SYSTEM,
    GreycastError,
    InsufficientDataError,
    InvalidInputError,
    NumericalDegeneracyError,
)
from .lstsq import (SharedBlock, factor_block, singular_error, solve_floats, solve_shared,
                    solve_stacked)
from .series import Series, all_finite

# Below this magnitude the development coefficient is treated as exactly zero
# by the integration constant K, which splits off a b/a term and is undefined
# at a = 0. The closed form needs no such threshold.
DEGENERATE_A = 1e-12

# Denominator guard for the Verhulst product form.
GVM_DENOM_FLOOR = 1e-12

#: The longest forecast horizon. The closed forms take a local time w + h
#: as a float, which an integer past about 1.8e308 has none of; the cap
#: leaves room for any window length.
MAX_STEPS_AHEAD = 10 ** 308

#: The message, less the time, of a frequency for which omega * t overflows
#: at a time t where a fit or closed form takes sin(omega t) or cos(omega t).
OMEGA_OVERFLOW = "omega * t overflows the float range"


class ModelKind(enum.Enum):
    GM11 = "GM11"
    GVM = "GVM"
    GM_S = "GM_S"
    GM_C = "GM_C"
    GM_SC = "GM_SC"
    GM_ESC = "GM_ESC"


class _Kind(NamedTuple):
    ef_name: str
    # Parameter count + 1 equations, except GM_SC: four columns need w >= 5.
    min_window: int
    omega: Optional[float]  # default frequency, grid-searched; None: no omega
    trig: tuple  # rows of ``_trig_columns`` (0 sin, 1 cos) between -z1(k) and 1
    fields: tuple  # the GreyFit fields of b, bs and bc; None stands for 0
    has_K: bool  # whether its GreyFit carries K


_KINDS = {
    ModelKind.GM11: _Kind("EFGM", 4, None, (), ("b", None, None), False),
    ModelKind.GVM: _Kind("EFGVM", 4, None, (), ("b", None, None), False),
    ModelKind.GM_S: _Kind("EFGM_S", 4, 4.30, (0,), ("b2", "b1", None), False),
    ModelKind.GM_C: _Kind("EFGM_C", 4, 2.65, (1,), ("b2", None, "b1"), True),
    ModelKind.GM_SC: _Kind("EFGM_SC", 5, 9.30, (0, 1), ("b3", "b1", "b2"), True),
    ModelKind.GM_ESC: _Kind("EFGM_ESC", 4, 74.10, (), ("b3", "b1", "b2"), True),
}

TRIG_KINDS = tuple(kind for kind, row in _KINDS.items() if row.omega is not None)

#: Default angular frequencies (radians per time step). The packaged
#: configuration takes its ``[omega]`` defaults from here.
DEFAULT_OMEGA = MappingProxyType({kind: _KINDS[kind].omega for kind in TRIG_KINDS})

#: Error-corrected counterparts of the model names.
EF_NAME = {kind: row.ef_name for kind, row in _KINDS.items()}

#: Minimum window length per kind.
MIN_WINDOW = {kind: row.min_window for kind, row in _KINDS.items()}


@dataclass(frozen=True)
class GreyFit:
    """Estimated parameters of one grey model on one window.

    Unused coefficient slots are ``None`` rather than zero so that a missing
    parameter can never silently enter a forecast.
    """

    kind: ModelKind
    a: float
    b: Optional[float] = None  # GM11 / GVM grey input
    b1: Optional[float] = None
    b2: Optional[float] = None
    b3: Optional[float] = None
    omega: Optional[float] = None
    x0_1: float = 0.0  # first window observation = initial condition x1(1)
    K: Optional[float] = None  # integration constant (GM_C / GM_SC / GM_ESC)
    window_len: int = 4


class Failures:
    """The first error of each window of a stack.

    Checks are added in the order the one-window code makes them, and a window
    keeps the first error it gets. ``overflows`` holds the windows whose error
    is an overflowing exponential (``math.exp`` raising ``OverflowError``).
    A stack of one may give a bool for ``where``: its passing checks give
    ``False``, which is let through before any numpy call.
    """

    __slots__ = ("failed", "errors", "overflows")

    def __init__(self, count: int):
        self.failed = np.zeros(count, dtype=bool)
        self.errors: Dict[int, GreycastError] = {}
        self.overflows: set = set()

    def add(self, where, error: Callable[[int], GreycastError],
            overflow: bool = False) -> None:
        """Give ``error(i)`` to each window i in ``where`` that has none yet."""
        if where is False or not np.count_nonzero(where):
            return
        new = where & ~self.failed
        for i in np.flatnonzero(new).tolist():
            self.errors[i] = error(i)
            if overflow:
                self.overflows.add(i)
        self.failed |= new

    def add_all(self, error: Callable[[int], GreycastError]) -> None:
        self.add(np.ones(self.failed.size, dtype=bool), error)

    def copy(self) -> "Failures":
        other = Failures.__new__(Failures)
        other.failed = self.failed.copy()
        other.errors = self.errors.copy()
        other.overflows = self.overflows.copy()
        return other

    def raise_first(self, overflow_error: bool = False) -> None:
        """Raise the error of window 0 (the one-window case), if it has one;
        with ``overflow_error``, an overflow as an ``OverflowError``."""
        if self.errors:
            if overflow_error and 0 in self.overflows:
                raise OverflowError("math range error")
            raise self.errors[0]


class WindowFits(NamedTuple):
    """One model kind fitted on each window of a stack of N windows.

    Trigonometric coefficients are in GM_SC form: ``bs`` multiplies
    sin(omega t) and ``bc`` cos(omega t) (both damped by e^(-a t) for GM_ESC),
    and ``b`` is the constant forcing; a coefficient the kind lacks is 0. For
    GM11 ``b`` is the grey input and for GVM the Verhulst coefficient, and
    ``omega`` is None. Each parameter is an (N,) array, or a float for a
    stack of one; those of a window in ``failures`` are not meaningful.
    ``mean`` is the mean sequence the fit regressed on, window-last: (w-1, N),
    one row per local time k = 2..w, or a list of w-1 floats. GM_ESC's
    second stage reuses it; a stack that was not fitted here has none.
    """

    kind: ModelKind
    a: np.ndarray
    b: np.ndarray
    bs: np.ndarray
    bc: np.ndarray
    x0_1: np.ndarray
    omega: Optional[float]
    window_len: int
    failures: Failures
    mean: Optional[np.ndarray] = None


def _rows(windows):
    """The window-last rows of the (N, w) ``windows``, and N: for a stack of
    one, its w floats; for any other, the (w, N) transpose, one (N,) row
    per local time."""
    x = np.asarray(windows, dtype=float)
    if len(x) == 1:
        return x[0].tolist(), 1
    return x.T, len(x)


def _finite(values) -> bool:
    """Whether every entry is finite: of a float, a list of floats or an array."""
    if isinstance(values, float):
        return math.isfinite(values)
    if isinstance(values, list):
        return all(map(math.isfinite, values))
    return all_finite(values)


def _nans(a):
    """NaN for each window of the stack whose ``a`` this is."""
    return math.nan if isinstance(a, float) else np.full(a.size, np.nan)


def _overflow_error(kind: ModelKind, a) -> Callable[[int], GreycastError]:
    return lambda i: NumericalDegeneracyError(
        f"{kind.value} closed form overflowed (a={float(np.atleast_1d(a)[i]):.3g})")


def _overflowed(args: list):
    """Windows where some e^arg of ``args`` (floats, or (N,) rows) overflows,
    as ``math.exp(arg)`` would raise."""
    args = np.array(args)
    e = np.exp(args)
    return (np.isinf(e) & np.isfinite(args)).any(axis=0)


def _solve(fails: Failures, system, block: Optional[SharedBlock] = None):
    """Solve each window's system from its window-last (p + 1, m, N) rows:
    the p design columns, then the targets; or, for a stack of one, from
    lists of m floats, the design without the block's columns.

    With ``block``, the design's columns 1..p-1 are the block's C, and
    ``solve_shared`` solves it; otherwise ``solve_stacked``. Both get the
    (N, m, p) and (N, m) views of the rows. A stack of one goes to
    ``solve_floats``, which makes the same operations on floats. Reports
    what ``LeastSquaresProblem`` and ``solve_least_squares`` raise for one
    window; returns the (p, N) parameters, or a list of p floats. Failed
    windows stay in the stack, their non-finite entries set to 0: a window
    keeps its first error and gets the same bits alone or in any stack, so
    their results are never read. No window reaches it with fewer equations
    than parameters: every window shorter than its kind's minimum has
    failed by then.
    """
    if isinstance(system[-1][0], float):
        # A finite total has finite terms: a nan or an infinity in any term
        # leaves the sum nan or infinite. Only a total that is not finite,
        # through one of those or an overflow, needs the entries read.
        if not math.isfinite(sum(map(sum, system))) and not all(map(_finite, system)):
            fails.add(True, lambda i: InvalidInputError(NON_FINITE_SYSTEM))
            system = [[v if math.isfinite(v) else 0.0 for v in column] for column in system]
        solution, condition, rejected = solve_floats(system[:-1], system[-1], block)
        fails.add(rejected, lambda i: singular_error(condition))
        return solution
    system = np.asarray(system)
    p = system.shape[0] - 1
    if not all_finite(system):
        finite = np.isfinite(system)
        fails.add(~finite.all(axis=(0, 1)), lambda i: InvalidInputError(NON_FINITE_SYSTEM))
        system[~finite] = 0.0
    designs, targets = system[:p].T, system[p].T
    result = (solve_stacked(designs, targets) if block is None
              else solve_shared(designs, targets, block))
    fails.add(result.rejected, lambda i: singular_error(float(result.condition[i])))
    return result.solutions.T


def fit_windows(kind: ModelKind, windows, omega: Optional[float] = None) -> WindowFits:
    """Fit ``kind`` on every row of the (N, w) array ``windows`` at once.

    GM11 and GVM solve x0(k) + a*z1(k) = b and = b*z1(k)^2; GM_S, GM_C and
    GM_SC regress jointly on sin(omega k) / cos(omega k) and a constant.
    Those columns are the same in every window, so they are factored once
    per (kind, w, omega) (``_shared_block``) and ``solve_shared`` solves the
    windows against them.
    GM_ESC is two-stage: stage 1 is GM(1,1)'s fit and stage 2
    (``fit_esc_windows``) regresses its residuals on e^(-k a) sin(omega k) and
    e^(-k a) cos(omega k). ``omega`` defaults to ``DEFAULT_OMEGA``.

    It works on ``windows.T``, one (N,) row per local time, and hands the
    solvers (N, m, p) views of its window-last systems. A stack of one is
    fitted on its floats, with the same IEEE operations.

    Like the other stack functions it reports overflow and invalid values
    through numpy's error state; the errors it cares about are in the
    returned ``failures``.
    """
    if kind is ModelKind.GM_ESC:
        return fit_esc_windows(fit_windows(ModelKind.GM11, windows), windows, omega)
    x, n = _rows(windows)
    w = len(x)
    fails = Failures(n)
    row = _KINDS[kind]
    freq = None
    if row.omega is not None:
        freq = row.omega if omega is None else float(omega)
        message = _omega_message(freq, w)
        if message is not None:
            fails.add_all(lambda i: InvalidInputError(message))
    low = None  # the smallest value, once read
    if w < 4:
        fails.add_all(lambda i: InsufficientDataError(f"window of {w} < 4 observations"))
    elif n:
        low = min(x) if n == 1 else x.min()
        if not (low >= 0.0 and _finite(x)):
            columns = np.reshape(x, (w, -1))  # a stack of one as one column
            fails.add(~np.isfinite(columns).all(axis=0),
                      lambda i: InvalidInputError("window contains non-finite values"))
            negative = columns < 0
            fails.add(negative.any(axis=0), lambda i: InvalidInputError(
                f"negative value at window index {int(np.argmax(negative[:, i]))}"))
    if w < row.min_window:
        fails.add_all(lambda i: InsufficientDataError(
            f"{kind.value} needs a window of at least {row.min_window}"))
    if kind is ModelKind.GVM and low is not None and not low > 0.0:
        nonpositive = np.reshape(x, (w, -1)) <= 0
        fails.add(nonpositive.any(axis=0), lambda i: InvalidInputError(
            "Verhulst fit needs strictly positive values "
            f"(index {int(np.argmax(nonpositive[:, i]))})"))
    if fails.errors and fails.failed.all():
        return _all_failed(kind, n, freq, w, fails)
    block = _shared_block(kind, w, freq) if row.trig else None
    z = _mean_sequence(x if n == 1 else x.T)
    # Design columns, then the targets x0(2..w) as the last column.
    if n == 1:
        system = [[-v for v in z]]
        if kind is ModelKind.GVM:
            system.append([v * v for v in z])
        elif block is None:
            system.append([1.0] * (w - 1))
        system.append(x[1:])
    else:
        z = z.T
        system = np.empty((3 + len(row.trig), w - 1, n))
        np.negative(z, out=system[0])
        if kind is ModelKind.GVM:
            np.multiply(z, z, out=system[1])
        elif block is not None:
            system[1:-1] = block.columns.T[:, :, None]
        else:
            system[1] = 1.0
        system[-1] = x[1:]
    params = _solve(fails, system, block)
    coef, zero = dict(zip(row.trig, params[1:-1])), 0.0 if n == 1 else np.zeros(n)
    return WindowFits(kind, params[0], params[-1], coef.get(0, zero), coef.get(1, zero),
                      x[0], freq, w, fails, z)


@functools.lru_cache(maxsize=128)
def _shared_block(kind: ModelKind, w: int, freq: float) -> SharedBlock:
    """The columns every w-point window of ``kind`` shares at frequency
    ``freq``, [trig(freq k)..., 1] with the kind's rows of ``_trig_columns``,
    factored once for ``solve_shared``."""
    trig = _KINDS[kind].trig
    columns = np.ones((w - 1, len(trig) + 1))
    columns[:, :-1] = _trig_columns(w, freq)[list(trig)].T
    return factor_block(columns)


def fit_esc_windows(stage_one: WindowFits, windows, omega: Optional[float] = None) -> WindowFits:
    """GM_ESC on the windows that ``stage_one``, GM(1,1)'s fit, was fitted on.

    Stage 2 regresses stage 1's residuals on e^(-k a) sin(omega k) and
    e^(-k a) cos(omega k), over stage 1's own mean sequence, one local time
    k at a time: floats for a stack of one, (N,) rows for any other. An
    ``omega`` that is not positive, or for which omega * w overflows, fails
    every window first; otherwise a window keeps its stage-1 error.
    ``stage_one`` is left as it is, so one GM(1,1) fit can serve every
    frequency.
    """
    x, n = _rows(windows)
    w = len(x)
    freq = DEFAULT_OMEGA[ModelKind.GM_ESC] if omega is None else float(omega)
    message = _omega_message(freq, w)
    if message is None:
        fails = stage_one.failures.copy()
    else:
        fails = Failures(n)
        fails.add_all(lambda i: InvalidInputError(message))
    if fails.errors and fails.failed.all():
        return _all_failed(ModelKind.GM_ESC, n, freq, w, fails)
    a, b = stage_one.a, stage_one.b
    residuals = [xk + a * zk - b for xk, zk in zip(x[1:], stage_one.mean)]
    damp = [np.exp(-a * k) for k in range(2, w + 1)]
    trig = _trig_columns(w, freq)
    if n == 1:
        trig = trig.tolist()  # products of floats, faster than of numpy scalars
    if not (_finite(damp) and min(damp) >= 1e-250 if n == 1
            else all(row.min(initial=math.inf) >= 1e-250 and all_finite(row) for row in damp)):
        columns = np.reshape(damp, (w - 1, -1))  # a stack of one as one column
        fails.add(~np.isfinite(columns).all(axis=0) | (np.abs(columns).max(axis=0) < 1e-250),
                  lambda i: NumericalDegeneracyError(
                      "stage-2 design degenerate: e^(-k a) underflowed or overflowed"))
    sin_k, cos_k = trig
    bs, bc = _solve(fails, [[d * s for d, s in zip(damp, sin_k)],
                            [d * c for d, c in zip(damp, cos_k)], residuals])
    return WindowFits(ModelKind.GM_ESC, a, b, bs, bc, x[0], freq, w, fails)


@functools.lru_cache(maxsize=128)
def _trig_columns(w: int, freq: float) -> np.ndarray:
    """sin(freq k) and cos(freq k) at a w-point window's local indices
    k = 2..w, as the rows of a read-only (2, w - 1) array."""
    k = _local_times(w)
    columns = np.array([np.sin(freq * k), np.cos(freq * k)])
    columns.setflags(write=False)
    return columns


def _omega_message(freq: float, w: int) -> Optional[str]:
    """Why no w-point window can be fitted at frequency ``freq``, if none can."""
    if not freq > 0:
        return "omega must be positive"
    if math.isinf(freq * w):
        return f"{OMEGA_OVERFLOW} at t = {w}"
    return None


def _all_failed(kind: ModelKind, n: int, freq, w: int, fails: Failures) -> WindowFits:
    nan = math.nan if n == 1 else np.full(n, np.nan)
    return WindowFits(kind, nan, nan, nan, nan, nan, freq, w, fails)


def _mean_sequence(windows):
    """Mean sequence z1(k), k = 2..w, of each window's accumulation: of one
    window's floats (a list) as a list, or of (N, w) windows as the
    (N, w-1) view of the window-last (w-1, N) rows it is computed on. The
    accumulation runs one local time at a time, left to right."""
    rows = windows if isinstance(windows, list) else windows.T
    z, total = [], rows[0]
    for value in rows[1:]:
        after = total + value
        z.append((total + after) / 2.0)
        total = after
    return z if isinstance(windows, list) else np.array(z).T


@functools.lru_cache(maxsize=None)
def _local_times(w: int) -> np.ndarray:
    """The local indices k = 2..w of a w-point window's equations (read-only)."""
    k = np.arange(2, w + 1, dtype=float)
    k.setflags(write=False)
    return k


# -- closed forms, each written once over floats and (N,) rows ----------------

def _trig_part(fits: WindowFits, times: tuple) -> list:
    """q(t), the trigonometric part of the particular solution, of every
    window at each time t of ``times``: one float or (N,) row per time. The
    particular solution is q(t) + b/a."""
    # omega as a numpy float, so that a zero denominator gives inf or nan on
    # floats, as in an array, where a float division would raise.
    a, bs, bc, w = fits.a, fits.bs, fits.bc, np.float64(fits.omega)
    esc = fits.kind is ModelKind.GM_ESC
    if esc:
        # e^(-a t) (bc sin(w t) - bs cos(w t)) / w
        cos_part, sin_part = bs / -w, bc / w
    else:
        # ((a bc - bs w) cos(w t) + (a bs + bc w) sin(w t)) / (a^2 + w^2)
        den = a * a + w * w
        cos_part, sin_part = (a * bc - bs * w) / den, (a * bs + bc * w) / den
    if isinstance(a, float):
        # Past the divisions, floats make the same operations faster than
        # numpy scalars do.
        cos_part, sin_part, w = float(cos_part), float(sin_part), fits.omega
    if esc:
        return [np.exp(a * -t) * (cos_part * math.cos(w * t) + sin_part * math.sin(w * t))
                for t in times]
    return [cos_part * math.cos(w * t) + sin_part * math.sin(w * t) for t in times]


def _increment(fits: WindowFits, u: float, s: float):
    """D(u, s) = x1hat(u+s) - x1hat(u), the growth of the accumulated response
    from time u to u + s, of every window of a kind other than GVM.

    With x = -a s and q the trigonometric part of the particular solution
    (none for GM11),

        D = e^(-a(u-1)) [(x0(1) - q(1)) (e^x - 1) + b s (e^x - 1)/x] + q(u+s) - q(u).

    e^x - 1 is ``expm1``, and (e^x - 1)/x takes its limit 1 at x = 0, so no
    term of size b/a is formed and no accumulated value is differenced; the
    form holds as it stands at a = 0. A window whose value is not finite
    because an exponential overflows gets the error of an overflowing
    ``math.exp``. If omega * t overflows at a time the form reads q at,
    every window fails.
    """
    a, b, x0 = fits.a, fits.b, fits.x0_1
    if fits.kind is not ModelKind.GM11:
        t = max(1.0, abs(u), abs(u + s))
        if math.isinf(fits.omega * t):
            fits.failures.add_all(lambda i: InvalidInputError(f"{OMEGA_OVERFLOW} at t = {t:g}"))
            return _nans(a)
    x = a * -s
    growth = np.expm1(x)
    if isinstance(x, float):
        ratio = growth / x if x else 1.0
    else:
        ratio = growth / x
        if np.count_nonzero(x) < x.size:
            ratio[x == 0] = 1.0
    if fits.kind is ModelKind.GM11:
        value = np.exp(a * (1.0 - u)) * (x0 * growth + b * s * ratio)
    else:
        q_1, q_end, q_start = _trig_part(fits, (1.0, u + s, u))
        value = (np.exp(a * (1.0 - u)) * ((x0 - q_1) * growth + b * s * ratio)
                 + (q_end - q_start))
    if not _finite(value):
        exponents = [x, a * (1.0 - u - s)]
        if fits.kind is ModelKind.GM_ESC:
            exponents.append(a * -(u + s))
        fits.failures.add(~np.isfinite(value) & _overflowed(exponents),
                          _overflow_error(fits.kind, a), overflow=True)
    return value


def _gvm(fits: WindowFits, k: int):
    """Verhulst forecast in its classic product form.

    The two denominators b*x0(1) + (a - b*x0(1))*e^(a(k-1)) and the (k-2)
    sibling must stay away from zero.
    """
    a, x1, fails = fits.a, fits.x0_1, fits.failures
    bx = fits.b * x1
    a_bx = a - bx
    args = [a * (k - 1.0), a * (k - 2.0), a]
    e1, e2, e = map(np.exp, args)  # e^(a(k-1)), e^(a(k-2)), e^a
    d1, d2 = bx + a_bx * e1, bx + a_bx * e2
    value = (a * x1 * a_bx / d1) * ((1.0 - e) * e2 / d2)
    if not (_finite(e1) and _finite(e2) and _finite(e)
            and _every(abs(d1) > GVM_DENOM_FLOOR) and _every(abs(d2) > GVM_DENOM_FLOOR)):
        # The checks of the one-window code, in its order.
        fails.add(_overflowed(args[:2]), _overflow_error(fits.kind, a), overflow=True)
        fails.add(abs(d1) <= GVM_DENOM_FLOOR, lambda i: NumericalDegeneracyError(
            "Verhulst forecast: e^(a(k-1)) denominator vanished"))
        fails.add(abs(d2) <= GVM_DENOM_FLOOR, lambda i: NumericalDegeneracyError(
            "Verhulst forecast: e^(a(k-2)) denominator vanished"))
        fails.add(_overflowed(args[2:]), _overflow_error(fits.kind, a), overflow=True)
    return value


def _every(mask) -> bool:
    """Whether a bool, or every entry of a boolean array, holds."""
    if isinstance(mask, np.ndarray):
        return np.count_nonzero(mask) == mask.size
    return bool(mask)


def _whole_number(value) -> int:
    """``operator.index(value)``, which also raises ``TypeError`` for a bool:
    Python counts ``True`` as 1, but a bool given for a count is a mistake."""
    if isinstance(value, bool):
        raise TypeError(f"a bool is not a count: {value!r}")
    return operator.index(value)


def forecast_windows(fits: WindowFits, steps_ahead: int = 1) -> np.ndarray:
    """``steps_ahead`` forecast past every window, without refitting, as an
    (N,) array.

    The within-window clock runs k = 1..w, so the first out-of-window value
    lives at local index w + 1. Errors go to ``fits.failures``, and a
    forecast that the closed form's checks let through non-finite is one.
    A horizon that is not an integer, below 1 or above ``MAX_STEPS_AHEAD``
    fails every window.
    """
    try:
        steps = _whole_number(steps_ahead)
    except TypeError:
        message = f"steps_ahead must be an integer, got {steps_ahead!r}"
    else:
        message = None
        if steps < 1:
            message = "steps_ahead must be >= 1"
        elif steps > MAX_STEPS_AHEAD:
            message = "steps_ahead must be <= 10**308"
    if message is not None:
        fits.failures.add_all(lambda i: InvalidInputError(message))
        return np.full(np.size(fits.a), np.nan)
    value = _one_step(fits, fits.window_len + steps - 1)
    if not _finite(value):
        fits.failures.add(~np.isfinite(value), lambda i: InvalidInputError(NON_FINITE_FORECAST))
    return value if isinstance(value, np.ndarray) else np.array([value])


def fitted_windows(fits: WindowFits) -> np.ndarray:
    """In-window one-step fitted values for local indices k = 2..w, (N, w-1)."""
    return np.column_stack([_one_step(fits, k) for k in range(1, fits.window_len)])


def _one_step(fits: WindowFits, k: int):
    """x0hat(k+1) of every window: D(k, 1), or GVM's product form."""
    if fits.kind is ModelKind.GVM:
        # The product form is indexed one step early relative to the other
        # models; k+1 pairs its leading denominator with the latest
        # accumulated value.
        return _gvm(fits, k + 1)
    return _increment(fits, k, 1.0)


# -- the one-window case --------------------------------------------------------

def _stack_of_one(fit: GreyFit) -> WindowFits:
    """A GreyFit as a stack of one window, on floats, trig coefficients in
    GM_SC form.

    Raises ``InvalidInputError`` naming the first parameter the kind needs
    that ``fit`` lacks.
    """
    row = _KINDS[fit.kind]
    needed = ("a",) + row.fields + ("x0_1", "omega" if row.omega is not None else None)
    for name in needed:
        if name and getattr(fit, name) is None:
            raise InvalidInputError(f"{fit.kind.value} fit has no {name}")
    a, b, bs, bc, x0 = (float(getattr(fit, name)) if name else 0.0 for name in needed[:-1])
    return WindowFits(fit.kind, a, b, bs, bc, x0, fit.omega, fit.window_len, Failures(1))


def _integration_constant(fits: WindowFits) -> Optional[float]:
    """K = e^a (x0(1) - q(1) - b/a), i.e. x1(t) = K e^(-a t) + q(t) + b/a.

    Undefined (None) for a degenerate development coefficient, where the
    homogeneous/particular split has a b/a pole, and where e^a or the
    particular solution overflows.
    """
    a = float(fits.a)
    if abs(a) <= DEGENERATE_A:
        return None
    try:
        scale = math.exp(a)
        if fits.kind is ModelKind.GM_ESC:
            math.exp(-a)
    except OverflowError:
        return None
    q1 = float(_trig_part(fits, (1.0,))[0])
    return scale * (float(fits.x0_1) - q1 - float(fits.b) / a)


def fit_model(kind: ModelKind, window, omega: Optional[float] = None) -> GreyFit:
    """Fit one window (omega defaults to the calibrated table)."""
    values = window.values if isinstance(window, Series) else np.asarray(window, float)
    if values.ndim != 1 or not all_finite(values):
        raise InvalidInputError("a window must be a 1-d sequence of finite values")
    with np.errstate(all="ignore"):
        fits = fit_windows(kind, values[None], omega)
    fits.failures.raise_first()
    row = _KINDS[kind]
    fields = dict(a=float(fits.a), x0_1=float(fits.x0_1), window_len=fits.window_len)
    for name, value in zip(row.fields, (fits.b, fits.bs, fits.bc)):
        if name:
            fields[name] = float(value)
    if row.omega is not None:
        fields["omega"] = fits.omega
    if row.has_K:
        fields["K"] = _integration_constant(fits)
    return GreyFit(kind, **fields)


def fit_gm11(window) -> GreyFit:
    """Least-squares fit of x0(k) + a*z1(k) = b."""
    return fit_model(ModelKind.GM11, window)


def fit_gvm(window) -> GreyFit:
    """Verhulst fit: x0(k) + a*z1(k) = b*z1(k)^2, values strictly positive."""
    return fit_model(ModelKind.GVM, window)


def fit_trig(window, kind: ModelKind, omega: float) -> GreyFit:
    """Fit GM_S / GM_C / GM_SC by one joint least-squares regression."""
    if kind not in (ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC):
        raise InvalidInputError(f"fit_trig does not handle {kind}")
    return fit_model(kind, window, omega)


def fit_esc(window, omega: float) -> GreyFit:
    """Two-stage fit of the exponentially damped sine/cosine model."""
    return fit_model(ModelKind.GM_ESC, window, omega)


def _one_window(fit: GreyFit, evaluate, overflow_error: bool = True):
    """``evaluate`` on ``fit`` as a stack of one; raises the window's error.

    The bare closed forms let an overflowing exponential through as the
    ``OverflowError`` of ``math.exp``; ``forecast`` reports it as a
    ``NumericalDegeneracyError``.
    """
    fits = _stack_of_one(fit)
    with np.errstate(all="ignore"):
        value = evaluate(fits)
    fits.failures.raise_first(overflow_error)
    return value


def forecast_gm11(fit: GreyFit, k: int) -> float:
    """One-step forecast x0hat(k+1) = (1 - e^a)(x0(1) - b/a) e^(-a k), as D(k, 1)."""
    return float(_one_window(fit, lambda fits: _increment(fits, k, 1.0)))


def forecast_gvm(fit: GreyFit, k: int) -> float:
    """Verhulst forecast in its classic product form (see ``_gvm``)."""
    return float(_one_window(fit, lambda fits: _gvm(fits, k)))


def accumulated_response(fit: GreyFit, t: float) -> float:
    """Closed-form accumulated response x1hat(t), with x1hat(1) = x0(1)."""
    if fit.kind is ModelKind.GVM:
        raise InvalidInputError("GVM has no accumulated closed form")
    return float(_one_window(fit, lambda fits: fits.x0_1 + _increment(fits, 1.0, t - 1.0)))


def forecast_trig(fit: GreyFit, k: int) -> float:
    """x0hat(k+1) = x1hat(k+1) - x1hat(k), as D(k, 1)."""
    if fit.kind not in TRIG_KINDS:
        raise InvalidInputError(f"forecast_trig expects a trigonometric fit, got {fit.kind}")
    return float(_one_window(fit, lambda fits: _increment(fits, k, 1.0)))


def forecast(fit: GreyFit, steps_ahead: int = 1) -> float:
    """Forecast ``steps_ahead`` past the fitted window, without refitting.

    Raises what a roll flags the step with, "non-finite forecast" and a
    horizon that is not an integer included."""
    return float(_one_window(fit, lambda fits: forecast_windows(fits, steps_ahead),
                             overflow_error=False)[0])


def fitted_values(fit: GreyFit) -> np.ndarray:
    """In-window one-step fitted values for local indices k = 2..w."""
    return _one_window(fit, fitted_windows)[0]
