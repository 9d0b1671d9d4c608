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

The per-kind facts live in one table, ``_KINDS``, with one row per kind;
``TRIG_KINDS``, ``DEFAULT_OMEGA``, ``EF_NAME`` and ``MIN_WINDOW`` are views
of it.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from .errors import (
    GreycastError,
    InsufficientDataError,
    InvalidInputError,
    NumericalDegeneracyError,
)
from .lstsq import SharedBlock, factor_block, singular_error, solve_shared, solve_stacked
from .series import Series, all_finite

# Below this magnitude the development coefficient is treated as exactly zero
# by the integration constant K, which splits off a b/a term and is undefined
# at a = 0. The closed form needs no such threshold.
DEGENERATE_A = 1e-12

# Denominator guard for the Verhulst product form.
GVM_DENOM_FLOOR = 1e-12

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
    """

    __slots__ = ("failed", "errors", "overflows")

    def __init__(self, count: int):
        self.failed = np.zeros(count, dtype=bool)
        self.errors: Dict[int, GreycastError] = {}
        self.overflows: set = set()

    def add(self, where: np.ndarray, error: Callable[[int], GreycastError],
            overflow: bool = False) -> None:
        """Give ``error(i)`` to each window i in ``where`` that has none yet."""
        if not np.count_nonzero(where):
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
        other = Failures(0)
        other.failed = self.failed.copy()
        other.errors = dict(self.errors)
        other.overflows = set(self.overflows)
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
    ``omega`` is None. Each parameter is an (N,) array; those of a window
    in ``failures`` are not meaningful. ``mean`` is the (N, w-1) mean
    sequence the fit regressed on, which GM_ESC's second stage reuses; a
    stack that was not fitted here has none.
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


def _overflow_error(kind: ModelKind, a: np.ndarray) -> Callable[[int], GreycastError]:
    return lambda i: NumericalDegeneracyError(
        f"{kind.value} closed form overflowed (a={float(a[i]):.3g})")


def _overflowed(args: np.ndarray) -> np.ndarray:
    """Rows where some e^arg overflows, as ``math.exp(arg)`` would raise."""
    e = np.exp(args)
    return (np.isinf(e) & np.isfinite(args)).any(axis=1)


def _solve(fails: Failures, system: np.ndarray, block: Optional[SharedBlock] = None
           ) -> np.ndarray:
    """Solve each window's (m, p) system, stored with its targets as column p.

    With ``block``, the design's columns 1..p-1 are the block's C, and
    ``solve_shared`` solves it; otherwise ``solve_stacked``. Reports what
    ``LeastSquaresProblem`` and ``solve_least_squares`` raise for one window;
    returns the (p, N) parameters. Failed windows stay in the stack, their
    non-finite entries set to 0 in place: a window keeps its first error and
    gets the same bits alone or in any stack, so their results are never
    read. No window reaches it with fewer equations than parameters: every
    window shorter than its kind's minimum has failed by then.
    """
    p = system.shape[2] - 1
    if not all_finite(system):
        finite = np.isfinite(system)
        fails.add(~finite.all(axis=(1, 2)),
                  lambda i: InvalidInputError("least-squares entries must be finite"))
        system[~finite] = 0.0
    designs, targets = system[..., :p], system[..., p]
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

    Like the other stack functions it reports overflow and invalid values
    through numpy's error state; the errors it cares about are in the
    returned ``failures``.
    """
    if kind is ModelKind.GM_ESC:
        return fit_esc_windows(fit_windows(ModelKind.GM11, windows), windows, omega)
    x = np.asarray(windows, dtype=float)
    n, w = x.shape
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
        low = x.min()
        if not (low >= 0.0 and all_finite(x)):
            fails.add(~np.isfinite(x).all(axis=1),
                      lambda i: InvalidInputError("window contains non-finite values"))
            negative = x < 0
            fails.add(negative.any(axis=1), lambda i: InvalidInputError(
                f"negative value at window index {int(np.argmax(negative[i]))}"))
    if w < row.min_window:
        fails.add_all(lambda i: InsufficientDataError(
            f"{kind.value} needs a window of at least {row.min_window}"))
    if kind is ModelKind.GVM and low is not None and not low > 0.0:
        nonpositive = x <= 0
        fails.add(nonpositive.any(axis=1), lambda i: InvalidInputError(
            "Verhulst fit needs strictly positive values "
            f"(index {int(np.argmax(nonpositive[i]))})"))
    if fails.errors and fails.failed.all():
        return _all_failed(kind, n, freq, w, fails)
    z = _mean_sequence(x)
    # Design columns, then the targets x0(2..w) as the last column.
    system = np.empty((n, w - 1, 3 + len(row.trig)))
    np.negative(z, out=system[..., 0])
    block = None
    if kind is ModelKind.GVM:
        np.multiply(z, z, out=system[..., 1])
    elif row.trig:
        block = _shared_block(kind, w, freq)
        system[..., 1:-1] = block.columns
    else:
        system[..., 1] = 1.0
    system[..., -1] = x[:, 1:]
    params = _solve(fails, system, block)
    coef, zero = dict(zip(row.trig, params[1:-1])), np.zeros(n)
    return WindowFits(kind, params[0], params[-1], coef.get(0, zero), coef.get(1, zero),
                      x[:, 0], freq, w, fails, z)


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
    e^(-k a) cos(omega k), over stage 1's own mean sequence. An ``omega``
    that is not positive, or for which omega * w overflows, fails every window
    first; otherwise a window keeps its stage-1 error. ``stage_one`` is left
    as it is, so one GM(1,1) fit can serve every frequency.
    """
    x = np.asarray(windows, dtype=float)
    n, w = x.shape
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
    k = _local_times(w)
    residuals = x[:, 1:] + a[:, None] * stage_one.mean - b[:, None]
    damp = np.exp(-a[:, None] * k)
    if not (damp.min() >= 1e-250 and all_finite(damp)):
        fails.add(~np.isfinite(damp).all(axis=1) | (np.abs(damp).max(axis=1) < 1e-250),
                  lambda i: NumericalDegeneracyError(
                      "stage-2 design degenerate: e^(-k a) underflowed or overflowed"))
    system = np.empty(damp.shape + (3,))
    sin_k, cos_k = _trig_columns(w, freq)
    np.multiply(damp, sin_k, out=system[..., 0])
    np.multiply(damp, cos_k, out=system[..., 1])
    system[..., 2] = residuals
    bs, bc = _solve(fails, system)
    return WindowFits(ModelKind.GM_ESC, a, b, bs, bc, x[:, 0], freq, w, fails)


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
    nan = np.full(n, np.nan)
    return WindowFits(kind, nan, nan, nan, nan, nan, freq, w, fails)


def _mean_sequence(x: np.ndarray) -> np.ndarray:
    """Mean sequence z1(k), k = 2..w, of each window's accumulation."""
    x1 = np.add.accumulate(x, axis=1)
    z = x1[:, :-1] + x1[:, 1:]
    z /= 2.0
    return z


@functools.lru_cache(maxsize=None)
def _local_times(w: int) -> np.ndarray:
    """The local indices k = 2..w of a w-point window's equations (read-only)."""
    k = np.arange(2, w + 1, dtype=float)
    k.setflags(write=False)
    return k


# -- closed forms, each written once over arrays -------------------------------

def _trig_part(fits: WindowFits, times: tuple) -> np.ndarray:
    """q(t), the trigonometric part of the particular solution, of every
    window (row) at each time t of ``times`` (column). The particular
    solution is q(t) + b/a."""
    a, bs, bc, w = fits.a, fits.bs, fits.bc, fits.omega
    cos_wt = np.array([math.cos(w * t) for t in times])
    sin_wt = np.array([math.sin(w * t) for t in times])
    if fits.kind is ModelKind.GM_ESC:
        # e^(-a t) (bc sin(w t) - bs cos(w t)) / w
        cos_part, sin_part = bs / -w, bc / w
        return (np.exp(a[:, None] * -np.array(times))
                * (cos_part[:, None] * cos_wt + sin_part[:, None] * sin_wt))
    # ((a bc - bs w) cos(w t) + (a bs + bc w) sin(w t)) / (a^2 + w^2)
    den = a * a + w * w
    cos_part, sin_part = (a * bc - bs * w) / den, (a * bs + bc * w) / den
    return cos_part[:, None] * cos_wt + sin_part[:, None] * sin_wt


def _increment(fits: WindowFits, u: float, s: float) -> np.ndarray:
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
            return np.full(a.size, np.nan)
    x = a * -s
    growth = np.expm1(x)
    ratio = growth / x
    if np.count_nonzero(x) < x.size:
        ratio[x == 0] = 1.0
    if fits.kind is ModelKind.GM11:
        value = np.exp(a * (1.0 - u)) * (x0 * growth + b * s * ratio)
    else:
        q_1, q_end, q_start = _trig_part(fits, (1.0, u + s, u)).T
        value = (np.exp(a * (1.0 - u)) * ((x0 - q_1) * growth + b * s * ratio)
                 + (q_end - q_start))
    if not all_finite(value):
        exponents = [x, a * (1.0 - u - s)]
        if fits.kind is ModelKind.GM_ESC:
            exponents.append(a * -(u + s))
        fits.failures.add(~np.isfinite(value) & _overflowed(np.column_stack(exponents)),
                          _overflow_error(fits.kind, a), overflow=True)
    return value


def _gvm(fits: WindowFits, k: int) -> np.ndarray:
    """Verhulst forecast in its classic product form.

    The two denominators b*x0(1) + (a - b*x0(1))*e^(a(k-1)) and the (k-2)
    sibling must stay away from zero.
    """
    a, x1, fails = fits.a, fits.x0_1, fits.failures
    bx = fits.b * x1
    a_bx = a - bx
    args = a[:, None] * np.array([k - 1.0, k - 2.0, 1.0])
    e = np.exp(args)  # e^(a(k-1)), e^(a(k-2)), e^a
    d = bx[:, None] + a_bx[:, None] * e[:, :2]
    value = (a * x1 * a_bx / d[:, 0]) * ((1.0 - e[:, 2]) * e[:, 1] / d[:, 1])
    if not (all_finite(e) and np.count_nonzero(np.abs(d) > GVM_DENOM_FLOOR) == d.size):
        # The checks of the one-window code, in its order.
        fails.add(_overflowed(args[:, :2]), _overflow_error(fits.kind, a), overflow=True)
        fails.add(np.abs(d[:, 0]) <= GVM_DENOM_FLOOR, lambda i: NumericalDegeneracyError(
            "Verhulst forecast: e^(a(k-1)) denominator vanished"))
        fails.add(np.abs(d[:, 1]) <= GVM_DENOM_FLOOR, lambda i: NumericalDegeneracyError(
            "Verhulst forecast: e^(a(k-2)) denominator vanished"))
        fails.add(_overflowed(args[:, 2:]), _overflow_error(fits.kind, a), overflow=True)
    return value


def forecast_windows(fits: WindowFits, steps_ahead: int = 1) -> np.ndarray:
    """``steps_ahead`` forecast past every window, without refitting.

    The within-window clock runs k = 1..w, so the first out-of-window value
    lives at local index w + 1. Errors go to ``fits.failures``.
    """
    if steps_ahead < 1:
        fits.failures.add_all(lambda i: InvalidInputError("steps_ahead must be >= 1"))
        return np.full(fits.a.size, np.nan)
    return _one_step(fits, fits.window_len + steps_ahead - 1)


def fitted_windows(fits: WindowFits) -> np.ndarray:
    """In-window one-step fitted values for local indices k = 2..w, (N, w-1)."""
    return np.column_stack([_one_step(fits, k) for k in range(1, fits.window_len)])


def _one_step(fits: WindowFits, k: int) -> np.ndarray:
    """x0hat(k+1) of every window: D(k, 1), or GVM's product form."""
    if fits.kind is ModelKind.GVM:
        # The product form is indexed one step early relative to the other
        # models; k+1 pairs its leading denominator with the latest
        # accumulated value.
        return _gvm(fits, k + 1)
    return _increment(fits, k, 1.0)


# -- the one-window case --------------------------------------------------------

def _stack_of_one(fit: GreyFit) -> WindowFits:
    """A GreyFit as a stack of one window, trig coefficients in GM_SC form.

    Raises ``InvalidInputError`` naming the first parameter the kind needs
    that ``fit`` lacks.
    """
    row = _KINDS[fit.kind]
    needed = ("a",) + row.fields + ("x0_1", "omega" if row.omega is not None else None)
    for name in needed:
        if name and getattr(fit, name) is None:
            raise InvalidInputError(f"{fit.kind.value} fit has no {name}")
    a, b, bs, bc, x0 = (np.array([float(getattr(fit, name)) if name else 0.0])
                        for name in needed[:-1])
    return WindowFits(fit.kind, a, b, bs, bc, x0, fit.omega, fit.window_len, Failures(1))


def _integration_constant(fits: WindowFits) -> Optional[float]:
    """K = e^a (x0(1) - q(1) - b/a), i.e. x1(t) = K e^(-a t) + q(t) + b/a.

    Undefined (None) for a degenerate development coefficient, where the
    homogeneous/particular split has a b/a pole, and where e^a or the
    particular solution overflows.
    """
    a = float(fits.a[0])
    if abs(a) <= DEGENERATE_A:
        return None
    try:
        scale = math.exp(a)
        if fits.kind is ModelKind.GM_ESC:
            math.exp(-a)
    except OverflowError:
        return None
    q1 = float(_trig_part(fits, (1.0,))[0, 0])
    return scale * (float(fits.x0_1[0]) - q1 - float(fits.b[0]) / a)


def fit_model(kind: ModelKind, window, omega: Optional[float] = None) -> GreyFit:
    """Fit one window (omega defaults to the calibrated table)."""
    values = window.values if isinstance(window, Series) else np.asarray(window, float)
    if values.ndim != 1 or not all_finite(values):
        raise InvalidInputError("a window must be a 1-d sequence of finite values")
    with np.errstate(all="ignore"):
        fits = fit_windows(kind, values[None], omega)
    fits.failures.raise_first()
    row = _KINDS[kind]
    fields = dict(a=float(fits.a[0]), x0_1=float(fits.x0_1[0]), window_len=fits.window_len)
    for name, value in zip(row.fields, (fits.b, fits.bs, fits.bc)):
        if name:
            fields[name] = float(value[0])
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
    return value[0]


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
    """Forecast ``steps_ahead`` past the fitted window, without refitting."""
    return float(_one_window(fit, lambda fits: forecast_windows(fits, steps_ahead),
                             overflow_error=False))


def fitted_values(fit: GreyFit) -> np.ndarray:
    """In-window one-step fitted values for local indices k = 2..w."""
    return _one_window(fit, fitted_windows)
