"""Online rolling-window forecasting and one-time frequency calibration.

At every step the configured model is refit on the most recent ``window``
observations and emits a one-step forecast; error-corrected ("EF") variants
additionally extrapolate a Fourier model of recent residuals, fitted strictly
on residuals observed before the step (no lookahead). Fit failures never abort
a roll: the step falls back to persistence (last observation) and is flagged.

A grey-model roll fits and forecasts all of its windows at once: it stacks
the windows by index arithmetic and hands them to ``models.fit_windows`` and
``models.forecast_windows``, whose one-window case is ``fit_model`` /
``forecast``. Every window is solved on its own, so a step's forecast does not
depend on the rest of the series and equals ``forecast(fit_model(window))``
bit for bit. A window that fails, or whose forecast is not finite, falls back
with the message its one-window call raises. A benchmark roll stacks its
histories the same way (``benchmarks.forecast_histories``): each step equals
the one-history forecaster's value, and a history too short for the spec
falls back with the message that forecaster raises. One block then applies the
fallbacks, the clamp and the trace assembly to every model.

The EF correction is a linear filter of each step's residuals
(``fourier.correction_weights``), applied to the whole roll at once. The
residual buffer holds base residuals only, so every step's buffer follows
from the base forecasts and their failures; the weights depend only on the
buffer length, the harmonic count and the step's offset from the buffer's
first index.

Within one ``report.compare`` or ``calibrate_omega`` call the rolls share
their work (``_sharing``): a series' windows are gathered once per window
length, each distinct fit is solved once, an EF model reads its base model's
forecasts and messages, and GM_ESC starts stage two from GM11's fits. Shared
results are read-only, are gone by the time the call returns, and are charged
to every roll that reads them, so a trace's ``per_step_time`` states what the
model costs on its own. A roll made outside those calls shares nothing.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import benchmarks
from .errors import (
    CalibrationFailedError,
    GreycastError,
    InsufficientDataError,
    InvalidInputError,
    SingularSystemError,
)
from .config import load_config
from .fourier import (
    NON_FINITE_RESIDUALS,
    ResidualSeries,
    correction_weights,
    max_harmonics,
)
from .models import (
    EF_NAME,
    MIN_WINDOW,
    TRIG_KINDS,
    Failures,
    ModelKind,
    WindowFits,
    fit_esc_windows,
    fit_windows,
    fitted_windows,
    forecast_windows,
)
from .series import Series

BENCHMARK_NAMES = ("LINEAR", "ARIMA", "SARIMA", "SETAR")

GREY_MODEL_NAMES = ("GM11", "EFGM", "GVM", "EFGVM", "GM_S", "EFGM_S",
                    "GM_C", "EFGM_C", "GM_SC", "EFGM_SC", "GM_ESC", "EFGM_ESC")

ALL_MODEL_NAMES = GREY_MODEL_NAMES + BENCHMARK_NAMES

_EF_TO_BASE = {ef: kind for kind, ef in EF_NAME.items()}


def parse_model(name: str) -> Tuple[Optional[ModelKind], bool, Optional[str]]:
    """Resolve a model identifier to (grey kind, error-corrected?, benchmark)."""
    ident = name.strip()
    upper = ident.upper()
    if upper in BENCHMARK_NAMES:
        return None, False, upper
    if ident in ("GM(1,1)", "GM(1, 1)"):
        return ModelKind.GM11, False, None
    if ident in _EF_TO_BASE:
        return _EF_TO_BASE[ident], True, None
    try:
        return ModelKind(ident), False, None
    except ValueError:
        raise InvalidInputError(f"unknown model '{name}'") from None


@dataclass(frozen=True)
class RollingConfig:
    """Knobs of one rolling pipeline."""

    model: str = "GM11"
    window: int = 4
    omega: Optional[float] = None
    ef_residual_window: int = 24
    ef_in_window: bool = False  # fit the Fourier correction on in-window residuals
    ef_harmonics: Optional[int] = None  # cap on Fourier harmonics (None = auto)
    clamp_nonnegative: bool = False
    benchmark_spec: object = None  # LinearSpec / ArimaSpec / SetarSpec override
    standard_psi: bool = False
    multi_step: int = 1  # forecast horizon, without refitting

    def __post_init__(self):
        if self.window < 4:
            raise InvalidInputError("window must be at least 4")
        if self.ef_residual_window < 3:
            raise InvalidInputError("EF residual window must be at least 3")
        if self.ef_harmonics is not None and self.ef_harmonics < 0:
            raise InvalidInputError("EF harmonic cap must be >= 0")
        if self.multi_step < 1:
            raise InvalidInputError("multi_step must be >= 1")
        parse_model(self.model)

    def effective_window(self) -> int:
        kind, _, bench = parse_model(self.model)
        if bench is not None:
            return self.window
        # GM_SC has four parameters; a 4-point window gives only 3 equations.
        return max(self.window, MIN_WINDOW[kind])


@dataclass(frozen=True)
class ForecastTrace:
    """Per-step record of one rolling run over one series.

    Two traces are equal when everything but their timings is.
    """

    model: str
    predictions: Tuple[Tuple[int, float, float], ...]  # (index, predicted, observed)
    residuals: ResidualSeries
    per_step_time: Tuple[float, ...] = field(compare=False)  # s; equal share of the roll
    fallbacks: Tuple[bool, ...]
    errors: Tuple[Tuple[int, str], ...]

    def predicted(self) -> np.ndarray:
        return np.array([p for _, p, _ in self.predictions])

    def observed(self) -> np.ndarray:
        return np.array([o for _, _, o in self.predictions])

    @property
    def fallback_count(self) -> int:
        return sum(self.fallbacks)


def _harmonic_cap(config: RollingConfig, residual_count: int) -> int:
    cap = max_harmonics(residual_count)
    return cap if config.ef_harmonics is None else min(config.ef_harmonics, cap)


def resolve_config(config: RollingConfig, specs=None) -> RollingConfig:
    """``config`` with its benchmark coefficients and its frequency filled in.

    A value set in ``config`` wins, then ``specs`` (a ``BenchmarkConfig``),
    then the packaged defaults of ``load_config()``.
    """
    kind, _, bench = parse_model(config.model)
    if specs is None:
        specs = load_config()
    if bench is not None:
        if config.benchmark_spec is not None:
            return config
        return replace(config, benchmark_spec=specs.spec(bench))
    if config.omega is None and kind in specs.omega:
        return replace(config, omega=specs.omega[kind])
    return config


def _window(values: np.ndarray, config: RollingConfig) -> int:
    """The roll's window; raises if ``values`` is too short for one step."""
    w = config.effective_window()
    if values.size < w + 1:
        raise InsufficientDataError(f"series of {values.size} < window {w} + 1")
    return w


def roll_forecast(series: Series, config: RollingConfig) -> ForecastTrace:
    """Roll the configured model over ``series``, one-step-ahead.

    Predictions target 1-based indices w+1 .. n. The returned residuals are
    observed minus emitted prediction; EF variants internally buffer the base
    model's residuals for the Fourier correction.
    """
    values = series.values
    w = _window(values, config)
    n = values.size
    kind, ef, bench = parse_model(config.model)
    start, borrowed = time.perf_counter(), _borrowed()
    count = n - w
    in_window = ef and config.ef_in_window
    observed = values[w:]
    with np.errstate(all="ignore"):  # failures are flagged, not warned about
        if bench is None:
            raw, fitted, messages = _base_forecasts(values, w, kind, config, in_window)
        else:
            # Step j's history is values[:w + j]; the short ones come first.
            config = resolve_config(config)
            raw, messages = benchmarks.forecast_histories(
                config.benchmark_spec, values[:-1], w, config.standard_psi)
            late = np.flatnonzero(~np.isfinite(raw))[len(messages):]
            messages.update(dict.fromkeys(late.tolist(), "non-finite forecast"))
        failed = np.zeros(count, dtype=bool)
        failed[list(messages)] = True
        predicted = raw
        if ef:
            if in_window:
                steps, corrections, ef_errors = _in_window_corrections(
                    values, w, fitted, failed, config)
            else:
                steps, corrections, ef_errors = _buffered_corrections(
                    observed - raw, failed, config)
            predicted = raw.copy()
            predicted[steps] += corrections
            failed[list(ef_errors)] = True
            messages.update(ef_errors)
    if messages:
        predicted = np.where(failed, values[w - 1:-1], predicted)  # persistence
    if config.clamp_nonnegative:
        predicted = np.where(predicted < 0.0, 0.0, predicted)
    share = (time.perf_counter() - start + _borrowed() - borrowed) / count
    return ForecastTrace(
        model=config.model,
        predictions=tuple(zip(range(w + 1, n + 1), predicted.tolist(), observed.tolist())),
        residuals=ResidualSeries(observed - predicted, start_index=w + 1),
        per_step_time=(share,) * count,
        fallbacks=tuple(failed.tolist()),
        errors=tuple((w + 1 + j, messages[j]) for j in sorted(messages)),
    )


#: Windows per stacked solve. It bounds a roll's stacked arrays at about 1 MB
#: however long the series: a 4-point window's system takes 72 bytes, and the
#: solve and the closed forms make a few arrays of that size.
BATCH_WINDOWS = 2048


class _Entry(NamedTuple):
    values: np.ndarray  # the series' values, held so that its id stays its own
    omega: Optional[float]
    result: object
    seconds: float  # what computing ``result`` cost, shared entries it read included


class _SharedFits:
    """Windows, fits and base forecasts that the rolls of one call share.

    ``report.compare`` opens one per series and ``calibrate_omega`` one for
    the call (``_sharing``); a roll made anywhere else finds none and
    computes everything itself. An entry holds the series' values array and
    matches only that very array (``is``), never another array that happens
    to get its id. A slot keeps one entry, the one for the latest ω, so a
    calibration grid replaces entries instead of piling them up.

    ``borrowed`` adds up the compute seconds of every entry read instead of
    computed. A roll adds what it borrowed to its own time, so its timings
    state what it costs on its own.
    """

    def __init__(self):
        self.entries = {}
        self.borrowed = 0.0

    def get(self, values: np.ndarray, slot: tuple, omega, compute):
        key = (id(values),) + slot
        entry = self.entries.get(key)
        if entry is not None and entry.values is values and entry.omega == omega:
            self.borrowed += entry.seconds
            return entry.result
        start, before = time.perf_counter(), self.borrowed
        result = compute()
        seconds = time.perf_counter() - start + self.borrowed - before
        self.entries[key] = _Entry(values, omega, result, seconds)
        return result


#: The shared results of the compare or calibrate call in progress, if any.
#: A context variable, so that calls on other threads share nothing.
_SHARED: ContextVar[Optional[_SharedFits]] = ContextVar("greycast_shared_fits",
                                                        default=None)


@contextmanager
def _sharing():
    """Share windows, fits and base forecasts between the rolls made inside."""
    token = _SHARED.set(_SharedFits())
    try:
        yield _SHARED.get()
    finally:
        _SHARED.reset(token)


def _borrowed() -> float:
    shared = _SHARED.get()
    return 0.0 if shared is None else shared.borrowed


def _memo(shared: Optional[_SharedFits], values: np.ndarray, slot: tuple, omega, compute):
    """``compute()``, or its result from an earlier roll of this call."""
    return compute() if shared is None else shared.get(values, slot, omega, compute)


def _base_forecasts(values: np.ndarray, w: int, kind: ModelKind, config: RollingConfig,
                    in_window: bool):
    """Raw forecast and (for in-window EF) fitted values of every window, and
    {step: message} of the failed ones.

    Window j is values[j:j+w]; it predicts 1-based target w+1+j. An EF model
    reads its base model's forecasts, which the base's own roll may have
    computed already.
    """
    shared = _SHARED.get()
    omega = config.omega if kind in TRIG_KINDS else None
    count = values.size - w
    raw, fitted, messages = [], [], {}
    with np.errstate(all="ignore"):  # failures are flagged, not warned about
        for lo in range(0, count, BATCH_WINDOWS):
            hi = min(lo + BATCH_WINDOWS, count)
            fits, part, errors = _memo(
                shared, values, ("base", kind, w, config.multi_step, lo), omega,
                lambda: _forecast_batch(shared, values, lo, hi, w, kind, omega,
                                        config.multi_step))
            raw.append(part)
            messages.update((lo + i, message) for i, message in errors.items())
            if in_window:
                # The fitted values' own failures count for the windows that
                # have none yet; the shared fits keep theirs.
                fits = fits._replace(failures=Failures(hi - lo))
                fitted.append(fitted_windows(fits))
                for i, exc in fits.failures.errors.items():
                    messages.setdefault(lo + i, str(exc))

    def join(parts):
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return join(raw), join(fitted) if in_window else None, messages


def _forecast_batch(shared: Optional[_SharedFits], values: np.ndarray, lo: int, hi: int,
                    w: int, kind: ModelKind, omega: Optional[float], multi_step: int):
    """Fits, read-only raw forecasts and {window: message} of windows lo..hi-1."""
    fits = _window_fits(shared, values, lo, hi, w, kind, omega)
    # Shared fits keep their own failures; the forecast's go to a copy.
    run = fits if shared is None else fits._replace(failures=fits.failures.copy())
    raw = forecast_windows(run, multi_step)
    if not np.isfinite(raw).all():
        run.failures.add(~np.isfinite(raw), lambda i: InvalidInputError("non-finite forecast"))
    raw.setflags(write=False)
    return fits, raw, {i: str(exc) for i, exc in run.failures.errors.items()}


def _window_fits(shared: Optional[_SharedFits], values: np.ndarray, lo: int, hi: int, w: int,
                 kind: ModelKind, omega: Optional[float]) -> WindowFits:
    """``kind`` fitted on windows lo..hi-1; GM_ESC starts from GM11's fits."""
    def fit():
        windows = _memo(shared, values, ("windows", w, lo), None,
                        lambda: _gather(values, lo, hi, w))
        if kind is ModelKind.GM_ESC:
            stage_one = _window_fits(shared, values, lo, hi, w, ModelKind.GM11, None)
            return fit_esc_windows(stage_one, windows, omega)
        return fit_windows(kind, windows, omega)

    return _memo(shared, values, ("fits", kind, w, lo), omega, fit)


def _gather(values: np.ndarray, lo: int, hi: int, w: int) -> np.ndarray:
    # A batch of one (the online case) is a view; others are gathered.
    if hi - lo == 1:
        return values[None, lo:lo + w]
    return values[np.arange(lo, hi)[:, None] + np.arange(w)]


def _row_dots(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (M, n) weights (or one n-vector) and (M, n)
    windows, summed left to right: a row's result depends on that row alone,
    however many rows there are."""
    total = weights[..., 0] * windows[:, 0]
    for q in range(1, windows.shape[1]):
        total = total + weights[..., q] * windows[:, q]
    return total


Corrections = Tuple[np.ndarray, np.ndarray, Dict[int, str]]


def _buffered_corrections(residuals: np.ndarray, failed: np.ndarray,
                          config: RollingConfig) -> Corrections:
    """The steps the residual buffer corrects, their corrections, and the
    EF fallbacks as {step: message}.

    The buffer holds the base residuals of the last ``ef_residual_window``
    steps that did not fall back, and a step that falls back leaves it as it
    is. So the i-th base-OK step (i = 0, 1, ...) sees the residuals of
    base-OK steps max(0, i - R) .. i - 1 at their own indices, unless an
    earlier step fell back on its EF fit: that fit saw the same buffer as
    every later step, which then falls back with the same message.
    """
    ok = np.flatnonzero(~failed)
    eps = residuals[ok]
    i = np.arange(1, ok.size)  # base-OK steps with a non-empty buffer
    lengths = np.minimum(i, config.ef_residual_window)
    weights, rejected = {}, {}
    for n in range(1, int(lengths.max(initial=0)) + 1):
        try:
            weights[n] = correction_weights(n, _harmonic_cap(config, n))
        except SingularSystemError as exc:
            rejected[n] = str(exc)
    nonfinite = np.concatenate(([0], np.cumsum(~np.isfinite(eps))))
    finite = nonfinite[i] == nonfinite[i - lengths]
    stop = ~finite | np.isin(lengths, list(rejected))
    end = int(np.argmax(stop)) if stop.any() else i.size
    errors = {}
    if end < i.size:
        message = rejected[lengths[end]] if finite[end] else NON_FINITE_RESIDUALS
        errors = dict.fromkeys(ok[1 + end:].tolist(), message)
    i, lengths = i[:end], lengths[:end]
    if not i.size:
        return i, eps[:0], errors
    # The series fitted to a buffer has period T = max(n - 1, 1), so the step
    # after the latest residual is at offset (latest + 1 - first) mod T; gaps
    # left by fallbacks count, as the buffer keeps each residual's own index.
    offsets = (ok[i - 1] + 1 - ok[i - lengths]) % np.maximum(lengths - 1, 1)
    # Buffers grow by one per step up to ``width`` residuals, then keep that
    # length; each row is right-aligned, with zero weights on the left.
    width = int(lengths[-1])
    rows = np.zeros((i.size, width))
    for r in range(width - 1):
        rows[r, width - 1 - r:] = weights[r + 1][offsets[r]]
    rows[width - 1:] = weights[width][offsets[width - 1:]]
    windows = sliding_window_view(np.concatenate((np.zeros(width), eps)), width)[i]
    return ok[i], _row_dots(rows, windows), errors


def _in_window_corrections(values: np.ndarray, w: int, fitted: np.ndarray,
                           failed: np.ndarray, config: RollingConfig) -> Corrections:
    """``_buffered_corrections`` for residuals taken inside each window: window
    j's residuals values[j+1:j+w] - fitted[j] start at index 2 and correct the
    forecast at index w + 1."""
    ok = np.flatnonzero(~failed)
    n = w - 1
    windows = sliding_window_view(values, n)[ok + 1] - fitted[ok]
    finite = np.isfinite(windows).all(axis=1)
    errors = dict.fromkeys(ok[~finite].tolist(), NON_FINITE_RESIDUALS)
    try:
        weights = correction_weights(n, _harmonic_cap(config, n))
    except SingularSystemError as exc:
        errors.update(dict.fromkeys(ok[finite].tolist(), str(exc)))
        return ok[:0], values[:0], errors
    return ok[finite], _row_dots(weights[n % weights.shape[0]], windows[finite]), errors


@dataclass(frozen=True)
class OmegaGrid:
    """Inclusive arithmetic grid of candidate angular frequencies."""

    lo: float = 0.05
    hi: float = 100.0
    step: float = 0.05

    def __post_init__(self):
        if not (self.lo > 0 and self.hi >= self.lo and self.step > 0):
            raise InvalidInputError("grid needs 0 < lo <= hi and step > 0")

    def candidates(self) -> np.ndarray:
        count = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return self.lo + self.step * np.arange(count)


def calibrate_omega(series: Series, kind: ModelKind, grid: OmegaGrid,
                    config: Optional[RollingConfig] = None) -> float:
    """Grid-search the frequency minimizing rolling one-step RMSE.

    Calibration runs once on one series and the winner is reused elsewhere.
    Ties break toward the smallest candidate.
    """
    if kind not in TRIG_KINDS:
        raise InvalidInputError(f"{kind.value} has no frequency to calibrate")
    base = replace(config if config is not None else RollingConfig(), model=kind.value)
    _window(series.values, base)
    best_omega, best_rmse = None, math.inf
    with _sharing():
        for omega in grid.candidates():
            try:
                trace = roll_forecast(series, replace(base, omega=float(omega)))
            except GreycastError:
                continue
            if all(trace.fallbacks):
                continue
            err = trace.predicted() - trace.observed()
            with np.errstate(over="ignore"):
                rmse = float(np.sqrt(np.mean(err * err)))
            if rmse < best_rmse:
                best_omega, best_rmse = float(omega), rmse
    if best_omega is None:
        raise CalibrationFailedError("no grid frequency produced a usable fit")
    return best_omega
