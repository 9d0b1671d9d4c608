"""The six grey forecasting models: GM(1,1), GVM and four trigonometric variants.

Each model is fit on a short rolling window (w >= 4) by least squares on the
grey "basic form" x0(k) + a*z1(k) = rhs(k), then forecast through the closed
solution of the matching whitenization ODE dx1/dt + a*x1 = rhs(t) with initial
condition x1(1) = x0(1). Forecasts in original units are first differences of
that accumulated response. The trigonometric closed forms are derived directly
from the ODEs and validated against high-order numerical integration in the
tests; differencing the accumulated solution is the normative route for every
variant (single-line difference shortcuts are easy to get wrong — they tend to
mix integration constants or drop factors of ``a`` in exponents).

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

The trigonometric family shares GM_SC's closed form: GM_S and GM_C are GM_SC
with the unused trig coefficient 0, and GM_ESC damps the same two terms by
e^(-a t). GM(1,1)'s accumulated response is GM_SC with both coefficients 0.
"""
from __future__ import annotations

import enum
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
from .lstsq import singular_error, solve_stacked
from .series import Series

# Below this magnitude the development coefficient is treated as exactly zero
# and the a->0 limit of each closed form is used (b/a pole otherwise).
DEGENERATE_A = 1e-12

# Denominator guard for the Verhulst product form.
GVM_DENOM_FLOOR = 1e-12


class ModelKind(enum.Enum):
    GM11 = "GM11"
    GVM = "GVM"
    GM_S = "GM_S"
    GM_C = "GM_C"
    GM_SC = "GM_SC"
    GM_ESC = "GM_ESC"


TRIG_KINDS = (ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC, ModelKind.GM_ESC)

#: Grid-searched default angular frequencies (radians per time step). The
#: packaged configuration takes its ``[omega]`` defaults from here.
DEFAULT_OMEGA = MappingProxyType({
    ModelKind.GM_S: 4.30,
    ModelKind.GM_C: 2.65,
    ModelKind.GM_SC: 9.30,
    ModelKind.GM_ESC: 74.10,
})

#: Error-corrected counterparts of the model names.
EF_NAME = {
    ModelKind.GM11: "EFGM",
    ModelKind.GVM: "EFGVM",
    ModelKind.GM_S: "EFGM_S",
    ModelKind.GM_C: "EFGM_C",
    ModelKind.GM_SC: "EFGM_SC",
    ModelKind.GM_ESC: "EFGM_ESC",
}

#: Minimum window length per kind (parameter count + 1 equations needed,
#: except GM_SC whose four columns need at least four equations -> w >= 5).
MIN_WINDOW = {
    ModelKind.GM11: 4,
    ModelKind.GVM: 4,
    ModelKind.GM_S: 4,
    ModelKind.GM_C: 4,
    ModelKind.GM_SC: 5,
    ModelKind.GM_ESC: 4,
}


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
        if not where.any():
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
    in ``failures`` are not meaningful.
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


#: The trigonometric regressors of the jointly fitted kinds, in design order.
_TRIG_COLUMNS = {ModelKind.GM_S: (np.sin,), ModelKind.GM_C: (np.cos,),
                 ModelKind.GM_SC: (np.sin, np.cos)}


def _overflow_error(kind: ModelKind, a: np.ndarray) -> Callable[[int], GreycastError]:
    return lambda i: NumericalDegeneracyError(
        f"{kind.value} closed form overflowed (a={float(a[i]):.3g})")


def _overflowed(args: np.ndarray) -> np.ndarray:
    """Rows where some e^arg overflows, as ``math.exp(arg)`` would raise."""
    e = np.exp(args)
    return (np.isinf(e) & np.isfinite(args)).any(axis=1)


def _solve(fails: Failures, system: np.ndarray) -> np.ndarray:
    """Solve each window's (m, p) system, stored with its targets as column p.

    Reports what ``LeastSquaresProblem`` and ``solve_least_squares`` raise for
    one window and skips the windows that have failed; returns the (p, N)
    parameters.
    """
    n, m, cols = system.shape
    p = cols - 1
    if m < p:
        fails.add_all(lambda i: InsufficientDataError(
            f"underdetermined system: {m} rows < {p} columns"))
    if not np.isfinite(system).all():
        fails.add(~np.isfinite(system).all(axis=(1, 2)),
                  lambda i: InvalidInputError("least-squares entries must be finite"))
    if not fails.errors:
        result = solve_stacked(system[..., :p], system[..., p])
        fails.add(result.rejected, lambda i: singular_error(float(result.condition[i])))
        return result.solutions.T.copy()
    params = np.full((p, n), np.nan)
    rows = np.flatnonzero(~fails.failed)
    if rows.size:
        result = solve_stacked(system[rows, :, :p], system[rows, :, p])
        params[:, rows] = result.solutions.T
        rejected = np.zeros(n, dtype=bool)
        rejected[rows] = result.rejected
        condition = dict(zip(rows.tolist(), result.condition.tolist()))
        fails.add(rejected, lambda i: singular_error(condition[i]))
    return params


def fit_windows(kind: ModelKind, windows, omega: Optional[float] = None) -> WindowFits:
    """Fit ``kind`` on every row of the (N, w) array ``windows`` at once.

    GM11 and GVM solve x0(k) + a*z1(k) = b and = b*z1(k)^2; GM_S, GM_C and
    GM_SC regress jointly on sin(omega k) / cos(omega k) and a constant.
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
    freq = None
    if kind in TRIG_KINDS:
        freq = DEFAULT_OMEGA[kind] if omega is None else float(omega)
        if not freq > 0:
            fails.add_all(lambda i: InvalidInputError("omega must be positive"))
    if w < 4:
        fails.add_all(lambda i: InsufficientDataError(f"window of {w} < 4 observations"))
    elif n and not (x.min() >= 0.0 and x.max() < np.inf):
        fails.add(~np.isfinite(x).all(axis=1),
                  lambda i: InvalidInputError("window contains non-finite values"))
        negative = x < 0
        fails.add(negative.any(axis=1), lambda i: InvalidInputError(
            f"negative value at window index {int(np.argmax(negative[i]))}"))
    if w < MIN_WINDOW[kind]:
        fails.add_all(lambda i: InsufficientDataError(
            f"{kind.value} needs a window of at least {MIN_WINDOW[kind]}"))
    if kind is ModelKind.GVM and n and not x.min() > 0.0:
        nonpositive = x <= 0
        fails.add(nonpositive.any(axis=1), lambda i: InvalidInputError(
            "Verhulst fit needs strictly positive values "
            f"(index {int(np.argmax(nonpositive[i]))})"))
    if fails.errors and fails.failed.all():
        return _all_failed(kind, n, freq, w, fails)
    z, k = _mean_sequence(x)
    # Design columns, then the targets x0(2..w) as the last column.
    trig = _TRIG_COLUMNS.get(kind, ())
    system = np.empty((n, w - 1, 3 + len(trig)))
    np.negative(z, out=system[..., 0])
    if kind is ModelKind.GVM:
        np.multiply(z, z, out=system[..., 1])
    else:
        for col, fn in enumerate(trig, start=1):
            system[..., col] = fn(freq * k)
        system[..., 1 + len(trig)] = 1.0
    system[..., -1] = x[:, 1:]
    params = _solve(fails, system)
    a, b = params[0], params[-1]
    bs = bc = np.zeros(n)
    if kind is ModelKind.GM_S:
        bs = params[1]
    elif kind is ModelKind.GM_C:
        bc = params[1]
    elif kind is ModelKind.GM_SC:
        bs, bc = params[1], params[2]
    return WindowFits(kind, a, b, bs, bc, x[:, 0], freq, w, fails)


def fit_esc_windows(stage_one: WindowFits, windows, omega: Optional[float] = None) -> WindowFits:
    """GM_ESC on the windows that ``stage_one``, GM(1,1)'s fit, was fitted on.

    Stage 2 regresses stage 1's residuals on e^(-k a) sin(omega k) and
    e^(-k a) cos(omega k). A non-positive ``omega`` fails every window first;
    otherwise a window keeps its stage-1 error. ``stage_one`` is left as it
    is, so one GM(1,1) fit can serve every frequency.
    """
    x = np.asarray(windows, dtype=float)
    n, w = x.shape
    freq = DEFAULT_OMEGA[ModelKind.GM_ESC] if omega is None else float(omega)
    if freq > 0:
        fails = stage_one.failures.copy()
    else:
        fails = Failures(n)
        fails.add_all(lambda i: InvalidInputError("omega must be positive"))
    if fails.errors and fails.failed.all():
        return _all_failed(ModelKind.GM_ESC, n, freq, w, fails)
    a, b = stage_one.a, stage_one.b
    z, k = _mean_sequence(x)
    residuals = x[:, 1:] + a[:, None] * z - b[:, None]
    damp = np.exp(-a[:, None] * k)
    if not (damp.min() >= 1e-250 and damp.max() < np.inf):
        fails.add(~np.isfinite(damp).all(axis=1) | (np.abs(damp).max(axis=1) < 1e-250),
                  lambda i: NumericalDegeneracyError(
                      "stage-2 design degenerate: e^(-k a) underflowed or overflowed"))
    system = np.empty(damp.shape + (3,))
    np.multiply(damp, np.sin(freq * k), out=system[..., 0])
    np.multiply(damp, np.cos(freq * k), out=system[..., 1])
    system[..., 2] = residuals
    bs, bc = _solve(fails, system)
    return WindowFits(ModelKind.GM_ESC, a, b, bs, bc, x[:, 0], freq, w, fails)


def _all_failed(kind: ModelKind, n: int, freq, w: int, fails: Failures) -> WindowFits:
    nan = np.full(n, np.nan)
    return WindowFits(kind, nan, nan, nan, nan, nan, freq, w, fails)


def _mean_sequence(x: np.ndarray):
    """Mean sequence z1(k) of each window's accumulation, and k = 2..w."""
    x1 = np.add.accumulate(x, axis=1)
    return (x1[:, :-1] + x1[:, 1:]) / 2.0, np.arange(2, x.shape[1] + 1, dtype=float)


# -- closed forms, each written once over arrays -------------------------------

def _gm11(fits: WindowFits, k) -> np.ndarray:
    """x0hat(k+1) = (1 - e^a)(x0(1) - b/a) e^(-a k), or b when a is degenerate.

    ``k`` is a local index, or a row of them (one output column each).
    """
    a, b, x0 = fits.a, fits.b, fits.x0_1
    if isinstance(k, np.ndarray):
        a, b, x0 = a[:, None], b[:, None], x0[:, None]
    value = np.where(np.abs(a) <= DEGENERATE_A, b,
                     (1.0 - np.exp(a)) * (x0 - b / a) * np.exp(-a * k))
    if not np.isfinite(value).all():
        # An overflowing exponential leaves the forecast non-finite.
        args = np.column_stack([fits.a, (-a * k).reshape(fits.a.size, -1)])
        bad = ~np.isfinite(value).reshape(fits.a.size, -1).all(axis=1)
        fits.failures.add(bad & (np.abs(fits.a) > DEGENERATE_A) & _overflowed(args),
                          _overflow_error(fits.kind, fits.a), overflow=True)
    return value


def _gvm(fits: WindowFits, k: int) -> np.ndarray:
    """Verhulst forecast in its classic product form.

    The two denominators b*x0(1) + (a - b*x0(1))*e^(a(k-1)) and the (k-2)
    sibling must stay away from zero.
    """
    a, x1, fails = fits.a, fits.x0_1, fits.failures
    bx = fits.b * x1
    args = a[:, None] * np.array([k - 1.0, k - 2.0, 1.0])
    e = np.exp(args)  # e^(a(k-1)), e^(a(k-2)), e^a
    d = bx[:, None] + (a - bx)[:, None] * e[:, :2]
    value = (a * x1 * (a - bx) / d[:, 0]) * ((1.0 - e[:, 2]) * e[:, 1] / d[:, 1])
    if not (np.isfinite(e).all() and (np.abs(d) > GVM_DENOM_FLOOR).all()):
        # The checks of the one-window code, in its order.
        fails.add(_overflowed(args[:, :2]), _overflow_error(fits.kind, a), overflow=True)
        fails.add(np.abs(d[:, 0]) <= GVM_DENOM_FLOOR, lambda i: NumericalDegeneracyError(
            "Verhulst forecast: e^(a(k-1)) denominator vanished"))
        fails.add(np.abs(d[:, 1]) <= GVM_DENOM_FLOOR, lambda i: NumericalDegeneracyError(
            "Verhulst forecast: e^(a(k-2)) denominator vanished"))
        fails.add(_overflowed(args[:, 2:]), _overflow_error(fits.kind, a), overflow=True)
    return value


def _particular(fits: WindowFits, t: np.ndarray) -> np.ndarray:
    """Particular solution of the whitenization ODE at continuous times t."""
    a, b, bs, bc = fits.a[:, None], fits.b[:, None], fits.bs[:, None], fits.bc[:, None]
    w = fits.omega
    s, c = np.sin(w * t), np.cos(w * t)
    if fits.kind is ModelKind.GM_ESC:
        return np.exp(-a * t) * (bc * s - bs * c) / w + b / a
    return ((a * bc - bs * w) * c + (a * bs + bc * w) * s) / (a * a + w * w) + b / a


def _accumulated(fits: WindowFits, t: np.ndarray) -> np.ndarray:
    """Closed-form accumulated response x1hat(t), with x1hat(1) = x0(1).

    Rows are windows and columns the times ``t``, of which the first must be
    1. A window whose exponential overflows is reported to ``fits.failures``.
    """
    a, x0 = fits.a[:, None], fits.x0_1[:, None]
    p = _particular(fits, t)
    value = (x0 - p[:, :1]) * np.exp(-a * (t - 1.0)) + p
    degenerate = np.abs(fits.a) <= DEGENERATE_A
    if degenerate.any():
        # a -> 0 limit: integrate the forcing directly from t=1.
        w = fits.omega
        bs, bc = fits.bs[:, None], fits.bc[:, None]
        trig = (bs * (math.cos(w) - np.cos(w * t)) + bc * (np.sin(w * t) - math.sin(w))) / w
        limit = x0 + fits.b[:, None] * (t - 1.0) + trig
        value = np.where(degenerate[:, None], limit, value)
    if not np.isfinite(value).all():
        # An overflowing exponential leaves the response non-finite.
        args = -a * (t - 1.0)
        if fits.kind is ModelKind.GM_ESC:
            args = np.column_stack([args, -a * t])
        bad = ~np.isfinite(value).all(axis=1) & ~degenerate
        fits.failures.add(bad & _overflowed(args), _overflow_error(fits.kind, fits.a),
                          overflow=True)
    return value


def forecast_windows(fits: WindowFits, steps_ahead: int = 1) -> np.ndarray:
    """``steps_ahead`` forecast past every window, without refitting.

    The within-window clock runs k = 1..w, so the first out-of-window value
    lives at local index w + 1. Errors go to ``fits.failures``.
    """
    if steps_ahead < 1:
        fits.failures.add_all(lambda i: InvalidInputError("steps_ahead must be >= 1"))
        return np.full(fits.a.size, np.nan)
    k = fits.window_len + steps_ahead - 1
    if fits.kind is ModelKind.GM11:
        return _gm11(fits, k)
    if fits.kind is ModelKind.GVM:
        # The product form is indexed one step early relative to the other
        # models; k+1 pairs its leading denominator with the latest
        # accumulated value.
        return _gvm(fits, k + 1)
    acc = _accumulated(fits, np.array([1.0, k, k + 1.0]))
    return acc[:, 2] - acc[:, 1]


def fitted_windows(fits: WindowFits) -> np.ndarray:
    """In-window one-step fitted values for local indices k = 2..w, (N, w-1)."""
    w = fits.window_len
    if fits.kind is ModelKind.GM11:
        return _gm11(fits, np.arange(1, w))
    if fits.kind is ModelKind.GVM:
        return np.column_stack([_gvm(fits, k) for k in range(2, w + 1)])
    acc = _accumulated(fits, np.arange(1.0, w + 1.0))
    return acc[:, 1:] - acc[:, :-1]


# -- the one-window case --------------------------------------------------------

def _window_values(window) -> np.ndarray:
    values = window.values if isinstance(window, Series) else np.asarray(window, float)
    return values.reshape(1, -1)


def _stack_of_one(fit: GreyFit) -> WindowFits:
    """A GreyFit as a stack of one window, trig coefficients in GM_SC form.

    GM11 and GVM have no trig terms; their frequency is set to 1, which
    makes GM11's accumulated response GM_SC's with both coefficients 0.
    """
    if fit.kind in (ModelKind.GM11, ModelKind.GVM):
        b, bs, bc, omega = fit.b, 0.0, 0.0, 1.0
    elif fit.kind is ModelKind.GM_S:
        b, bs, bc, omega = fit.b2, fit.b1, 0.0, fit.omega
    elif fit.kind is ModelKind.GM_C:
        b, bs, bc, omega = fit.b2, 0.0, fit.b1, fit.omega
    else:
        b, bs, bc, omega = fit.b3, fit.b1, fit.b2, fit.omega
    a, b, bs, bc, x0 = (np.array([float(v)]) for v in (fit.a, b, bs, bc, fit.x0_1))
    return WindowFits(fit.kind, a, b, bs, bc, x0, float(omega), fit.window_len,
                      Failures(1))


def _integration_constant(fits: WindowFits) -> Optional[float]:
    """K = e^a (x0(1) - particular(1)), i.e. x1(t) = K e^(-a t) + particular(t).

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
    return scale * (float(fits.x0_1[0]) - float(_particular(fits, np.ones(1))[0, 0]))


def fit_model(kind: ModelKind, window, omega: Optional[float] = None) -> GreyFit:
    """Fit one window (omega defaults to the calibrated table)."""
    with np.errstate(all="ignore"):
        fits = fit_windows(kind, _window_values(window), omega)
    fits.failures.raise_first()
    a, b, bs, bc = (float(v[0]) for v in (fits.a, fits.b, fits.bs, fits.bc))
    common = dict(x0_1=float(fits.x0_1[0]), window_len=fits.window_len)
    if kind in (ModelKind.GM11, ModelKind.GVM):
        return GreyFit(kind, a=a, b=b, **common)
    if kind is ModelKind.GM_S:
        return GreyFit(kind, a=a, b1=bs, b2=b, omega=fits.omega, **common)
    K = _integration_constant(fits)
    if kind is ModelKind.GM_C:
        return GreyFit(kind, a=a, b1=bc, b2=b, omega=fits.omega, K=K, **common)
    return GreyFit(kind, a=a, b1=bs, b2=bc, b3=b, omega=fits.omega, K=K, **common)


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
    """One-step forecast x0hat(k+1) = (1 - e^a)(x0(1) - b/a) e^(-a k)."""
    return float(_one_window(fit, lambda fits: _gm11(fits, k)))


def forecast_gvm(fit: GreyFit, k: int) -> float:
    """Verhulst forecast in its classic product form (see ``_gvm``)."""
    return float(_one_window(fit, lambda fits: _gvm(fits, k)))


def accumulated_response(fit: GreyFit, t: float) -> float:
    """Closed-form accumulated response x1hat(t), with x1hat(1) = x0(1)."""
    if fit.kind is ModelKind.GVM:
        raise InvalidInputError("GVM has no accumulated closed form")
    return float(_one_window(fit, lambda fits: _accumulated(fits, np.array([1.0, t])))[1])


def forecast_trig(fit: GreyFit, k: int) -> float:
    """x0hat(k+1) by differencing the accumulated closed-form response."""
    if fit.kind not in TRIG_KINDS:
        raise InvalidInputError(f"forecast_trig expects a trigonometric fit, got {fit.kind}")
    acc = _one_window(fit, lambda fits: _accumulated(fits, np.array([1.0, k, k + 1.0])))
    return float(acc[2] - acc[1])


def forecast(fit: GreyFit, steps_ahead: int = 1) -> float:
    """Forecast ``steps_ahead`` past the fitted window, without refitting."""
    return float(_one_window(fit, lambda fits: forecast_windows(fits, steps_ahead),
                             overflow_error=False))


def fitted_values(fit: GreyFit) -> np.ndarray:
    """In-window one-step fitted values for local indices k = 2..w."""
    return _one_window(fit, fitted_windows)
