"""Online rolling-window forecasting and one-time frequency calibration.

At every step the configured model is refit on the most recent ``window``
observations and emits a one-step forecast; error-corrected ("EF") variants
additionally extrapolate a Fourier model of recent residuals, fitted strictly
on residuals observed before the step (no lookahead). Fit failures never abort
a roll: the step falls back to persistence (last observation) and is flagged.

A grey-model roll fits and forecasts all of its windows at once: it views
them as one (N, w) stack, with no copy (``series.window_view``), and hands
them to ``models.fit_windows`` and ``models.forecast_windows``, whose
one-window case is ``fit_model`` / ``forecast``. The fits read the stack
window-last, where row j of its transpose is the series slice
``values[j:j + N]``. Every window is solved on its own, so a
step's forecast does not depend on the rest of the series and equals
``forecast(fit_model(window))`` bit for bit. A window that fails falls back
with the message its one-window call raises; the kernels own every rule,
a non-finite forecast's included. A benchmark roll views its histories'
tails the same way (``benchmarks.forecast_histories``): each step equals the
one-history forecaster's value, and a history that forecaster refuses falls
back with the message it raises. The roll itself only applies the
fallbacks, the EF correction, the clamp and the trace assembly.

A trace keeps the read-only arrays the roll made, with no copy and no second
check; the report and the calibration read those columns, never the tuple
views ``predictions`` and ``fallbacks``.

The EF correction is a linear filter of each step's residuals
(``fourier.correction_weights``), applied to the whole roll at once. The
residual buffer holds base residuals only, so every step's buffer follows
from the base forecasts and their failures; the weights depend only on the
buffer length, the harmonic count and the step's offset from the buffer's
first index. Position q of every step's buffer is row q of a window view of
the base residuals (zero-padded while the buffers grow), so ``_filtered``
sums each position's weights times its row, and no per-step weight row or
residual window is built. The in-window correction sums its one weight row
the same way.

Within one ``report.compare`` or ``calibrate_omega`` call the rolls share
their fits (``_sharing``): each distinct fit of a (kind, window length, batch,
ω) is solved once. An EF model evaluates its base model's fits, and GM_ESC
starts stage two from GM11's fits. A roll adds its own forecast failures to a
copy of a shared fit's, so nothing it finds shows in another roll. Shared
fits are gone by the time the call returns, and are charged to every roll
that reads them, so a trace's ``per_step_time`` states what the model costs
on its own. A roll made outside those calls shares nothing and pays nothing
for the memo: with no scope open, it fits its windows directly, with no
lookup, key or copy. That is the online case, one roll over a short trailing
history per arrival, where a roll's fixed cost is most of its cost.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import benchmarks
from .errors import (
    CalibrationFailedError,
    InsufficientDataError,
    InvalidInputError,
    SingularSystemError,
)
from .config import load_config
from .lstsq import SHARED_CONDITION_LIMIT
from .metrics import _rmse_of_misses
from .fourier import (
    NON_FINITE_RESIDUALS,
    ResidualSeries,
    correction_weights,
    max_harmonics,
)
from .models import (
    EF_NAME,
    MAX_STEPS_AHEAD,
    MIN_WINDOW,
    TRIG_KINDS,
    ModelKind,
    WindowFits,
    fit_esc_windows,
    fit_windows,
    fitted_windows,
    forecast_windows,
)
from .series import (Series, _Record, all_finite, ordered_dot, real_number, whole_number,
                     window_view)

#: Each benchmark model and the type of its ``benchmark_spec``.
_BENCHMARK_SPECS = {"LINEAR": benchmarks.LinearSpec, "ARIMA": benchmarks.ArimaSpec,
                    "SARIMA": benchmarks.ArimaSpec, "SETAR": benchmarks.SetarSpec}

BENCHMARK_NAMES = tuple(_BENCHMARK_SPECS)

GREY_MODEL_NAMES = tuple(name for kind in ModelKind for name in (kind.value, EF_NAME[kind]))

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
    # Forecast horizon h, without refitting: the step for target t holds the
    # forecast of index t + h - 1 from the window ending at t - 1, and is
    # scored against observation t. The benchmark models ignore it.
    multi_step: int = 1

    def __post_init__(self):
        whole_number(self.window, "window", 4, "window must be at least 4")
        whole_number(self.ef_residual_window, "ef_residual_window", 3,
                     "EF residual window must be at least 3")
        if self.ef_harmonics is not None:
            whole_number(self.ef_harmonics, "ef_harmonics", 0, "EF harmonic cap must be >= 0")
        whole_number(self.multi_step, "multi_step", 1, "multi_step must be >= 1")
        for name in ("ef_in_window", "clamp_nonnegative", "standard_psi"):
            # Any non-empty string is true, so "false" would switch a flag on.
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise InvalidInputError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.multi_step > MAX_STEPS_AHEAD:
            raise InvalidInputError("multi_step must be <= 10**308")
        if self.omega is not None and not real_number(self.omega):
            # A string or complex ω fails inside every trigonometric roll, and
            # True would roll at ω = 1. nan, inf and negative ω are flagged there.
            raise InvalidInputError(
                f"omega must be None or a real number in the float range, got {self.omega!r}")
        # A frozen config parses its model once; every roll reads the parse.
        kind, _, bench = parsed = parse_model(self.model)
        spec = self.benchmark_spec  # a grey model ignores it
        if bench is not None and spec is not None and not isinstance(spec, _BENCHMARK_SPECS[bench]):
            raise InvalidInputError(
                f"{bench}'s benchmark_spec must be None or a "
                f"{_BENCHMARK_SPECS[bench].__name__}, got {type(spec).__name__}")
        # GM_SC has four parameters; a 4-point window gives only 3 equations.
        w = self.window if bench is not None else max(self.window, MIN_WINDOW[kind])
        object.__setattr__(self, "_parsed", parsed)
        object.__setattr__(self, "_effective_window", w)

    def effective_window(self) -> int:
        return self._effective_window


class _kept:
    """A read-only attribute computed on its first read and then kept in the
    instance's ``__dict__``, which later reads find before this descriptor:
    ``functools.cached_property`` without the lock that Python 3.10 and 3.11
    take on every first read."""

    def __init__(self, compute, name: Optional[str] = None):
        self.compute, self.name = compute, name
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True, eq=False)
class ForecastTrace(_Record):
    """Per-step record of one rolling run over one series, held as columns.

    Step j targets the 1-based index ``start_index + j``. Its forecast, its
    observation and whether it fell back are ``predicted_values[j]``,
    ``observed_values[j]`` and ``fallback_flags[j]``; the arrays are
    read-only. The constructor copies a column its caller can still write
    to; ``roll_forecast`` hands over the read-only arrays it made, which
    need no copy. ``predictions`` and ``fallbacks`` are the same steps as
    tuples, built on first read and then kept in the instance's ``__dict__``
    (``_kept``, which takes no lock: threads that read a fresh trace at once
    may each build the tuples, and they build equal ones). A roll's trace
    builds its ``errors`` field the same way, from the flags and the roll's
    {step: message}.

    Two traces are equal when everything but their timings is.
    """

    model: str
    start_index: int
    predicted_values: np.ndarray
    observed_values: np.ndarray
    fallback_flags: np.ndarray
    residuals: ResidualSeries
    per_step_time: Tuple[float, ...] = field(compare=False)  # s; equal share of the roll
    errors: Tuple[Tuple[int, str], ...]

    def __post_init__(self):
        # A column its caller can still write to is copied, so the trace
        # keeps the steps it was built with.
        for name, dtype in (("predicted_values", float), ("observed_values", float),
                            ("fallback_flags", bool)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.flags.writeable:
                column = column.copy()
                column.setflags(write=False)
            object.__setattr__(self, name, column)

    @_kept
    def predictions(self) -> Tuple[Tuple[int, float, float], ...]:
        """(index, predicted, observed) per step."""
        first = self.start_index
        return tuple(zip(range(first, first + self.predicted_values.size),
                         self.predicted_values.tolist(), self.observed_values.tolist()))

    @_kept
    def fallbacks(self) -> Tuple[bool, ...]:
        """Whether each step fell back to persistence."""
        return tuple(self.fallback_flags.tolist())

    def _errors(self) -> Tuple[Tuple[int, str], ...]:
        """(index, message) of each step that fell back, in step order."""
        messages = self._messages
        if not messages:
            return ()
        steps = np.flatnonzero(self.fallback_flags)
        return tuple(zip((steps + self.start_index).tolist(),
                         map(messages.__getitem__, steps.tolist())))

    def predicted(self) -> np.ndarray:
        return self.predicted_values.copy()

    def observed(self) -> np.ndarray:
        return self.observed_values.copy()

    @property
    def fallback_count(self) -> int:
        return int(np.count_nonzero(self.fallback_flags))


# ``errors`` is a field, given to the constructor like the others; only a
# roll's trace, which has none in its ``__dict__``, reads this descriptor.
ForecastTrace.errors = _kept(ForecastTrace._errors, "errors")


def _harmonic_cap(config: RollingConfig, residual_count: int) -> int:
    cap = max_harmonics(residual_count)
    return cap if config.ef_harmonics is None else min(config.ef_harmonics, cap)


def resolve_config(config: RollingConfig, specs=None) -> RollingConfig:
    """``config`` with its benchmark coefficients and its frequency filled in.

    A value set in ``config`` wins, then ``specs`` (a ``BenchmarkConfig``),
    then the packaged defaults of ``load_config()``. The packaged defaults
    never change, so a config that they fill in is filled in once; explicit
    ``specs`` are applied at every call.
    """
    if specs is not None:
        return _resolve(config, specs)
    resolved = config.__dict__.get("_resolved")
    if resolved is None:
        resolved = _resolve(config, load_config())
        if resolved is not config:
            object.__setattr__(config, "_resolved", resolved)
    return resolved


def _resolve(config: RollingConfig, specs) -> RollingConfig:
    kind, _, bench = config._parsed
    if bench is not None:
        if config.benchmark_spec is not None:
            return config
        return replace(config, benchmark_spec=specs.spec(bench))
    if config.omega is None and kind in specs.omega:
        return replace(config, omega=specs.omega[kind])
    return config


def _window(values: np.ndarray, config: RollingConfig) -> int:
    """The roll's window; raises if ``values`` is too short for one step."""
    w = config._effective_window
    if values.size < w + 1:
        raise InsufficientDataError(f"series of {values.size} < window {w} + 1")
    return w


def roll_forecast(series: Series, config: RollingConfig) -> ForecastTrace:
    """Roll the configured model over ``series``, one-step-ahead.

    Predictions target 1-based indices w+1 .. n. The returned residuals are
    observed minus emitted prediction; EF variants internally buffer the base
    model's residuals for the Fourier correction. A step whose emitted
    forecast misses its observation by more than the float range falls back
    to persistence; a roll whose observation differs from the one before by
    that much raises ``InvalidInputError``.
    """
    values = series.values
    w = _window(values, config)
    kind, ef, bench = config._parsed
    start, borrowed = time.perf_counter(), _borrowed()
    count = values.size - w
    in_window = ef and config.ef_in_window
    observed = values[w:]
    with np.errstate(all="ignore"):  # failures are flagged, not warned about
        if bench is None:
            raw, fitted, messages = _base_forecasts(values, w, kind, config, in_window, True)
            failed = np.zeros(count, dtype=bool)
            if messages:
                failed[list(messages)] = True
        else:
            # Step j's history is values[:w + j]; the short ones come first.
            raw, messages = benchmarks.forecast_histories(
                resolve_config(config).benchmark_spec, values[:-1], w, config.standard_psi)
            failed = ~np.isfinite(raw)
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
        if config.clamp_nonnegative:
            predicted = _clamped(predicted)
        if messages:
            predicted = np.where(failed, _persistence(values, w, config), predicted)
        misses = observed - predicted
        if not all_finite(misses):
            # Some forecast misses by more than the float range: persistence.
            missed = ~np.isfinite(misses)
            predicted = np.where(missed, _persistence(values, w, config), predicted)
            misses = observed - predicted
            if not all_finite(misses):
                i = w + int(np.argmin(np.isfinite(misses)))
                raise InvalidInputError(f"values at indices {i - 1} and {i} differ by "
                                        "more than the float range")
            failed |= missed
            messages.update(dict.fromkeys(np.flatnonzero(missed).tolist(), RESIDUAL_OVERFLOW))
    for column in (predicted, failed, misses):  # the trace keeps them as they are
        column.setflags(write=False)
    share = (time.perf_counter() - start + _borrowed() - borrowed) / count
    # ``errors`` is built from the {step: message} of the failed steps on its first read.
    return ForecastTrace._unchecked(
        model=config.model, start_index=w + 1, predicted_values=predicted,
        observed_values=observed, fallback_flags=failed,
        residuals=ResidualSeries._unchecked(values=misses, start_index=w + 1),
        per_step_time=(share,) * count, _messages=messages)


#: The message of a step whose forecast misses its observation by more than
#: the float range, which leaves its residual non-finite.
RESIDUAL_OVERFLOW = "forecast misses the observation by more than the float range"


def _clamped(forecasts: np.ndarray) -> np.ndarray:
    return np.where(forecasts < 0.0, 0.0, forecasts)


def _persistence(values: np.ndarray, w: int, config: RollingConfig) -> np.ndarray:
    """Every step's fallback, the observation before its target, clamped as
    the forecasts are; read only where a step falls back."""
    fallback = values[w - 1:-1]
    return _clamped(fallback) if config.clamp_nonnegative else fallback


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
    """The window fits that the rolls of one call share.

    ``report.compare`` opens one per series and ``calibrate_omega`` one for
    the call (``_sharing``); a roll made anywhere else finds none and fits
    its windows itself. An entry is the fit of one (kind, window length,
    batch, ω): an EF model reads its base model's fits and GM_ESC reads
    GM11's. It holds the series' values array and matches only that very
    array (``is``), never another array that happens to get its id. A slot
    keeps one entry, the one for the latest ω, so a calibration grid replaces
    entries instead of piling them up.

    ``borrowed`` adds up the compute seconds of every entry read instead of
    computed. A roll adds what it borrowed to its own time, so its timings
    state what it costs on its own.
    """

    def __init__(self):
        self.entries = {}
        self.borrowed = 0.0

    def get(self, values: np.ndarray, slot: tuple, omega, compute, args=()):
        """``compute(*args)``, or the entry it left for ``values``, ``slot``
        and ``omega``."""
        key = (id(values),) + slot
        entry = self.entries.get(key)
        if entry is not None and entry.values is values and entry.omega == omega:
            self.borrowed += entry.seconds
            return entry.result
        start, before = time.perf_counter(), self.borrowed
        result = compute(*args)
        seconds = time.perf_counter() - start + self.borrowed - before
        self.entries[key] = _Entry(values, omega, result, seconds)
        return result


#: The shared fits of the compare or calibrate call in progress, if any.
#: A context variable, so that calls on other threads share nothing.
_SHARED: ContextVar[Optional[_SharedFits]] = ContextVar("greycast_shared_fits",
                                                        default=None)


@contextmanager
def _sharing():
    """Share window fits between the rolls made inside."""
    token = _SHARED.set(_SharedFits())
    try:
        yield _SHARED.get()
    finally:
        _SHARED.reset(token)


def _borrowed() -> float:
    shared = _SHARED.get()
    return 0.0 if shared is None else shared.borrowed


def _base_forecasts(values: np.ndarray, w: int, kind: ModelKind, config: RollingConfig,
                    in_window: bool, quiet: bool = False):
    """Raw forecast and (for in-window EF) fitted values of every window, and
    {step: message} of the failed ones.

    Window j is values[j:j+w]; it predicts 1-based target w+1+j. An EF model
    evaluates its base model's fits, which the base's own roll may have
    solved already. The kernels' overflows are failures, not warnings, so
    numpy's floating-point warnings are turned off while they run, unless
    ``quiet`` says the caller (``roll_forecast``) has them off already.
    """
    if not quiet:
        with np.errstate(all="ignore"):
            return _base_forecasts(values, w, kind, config, in_window, True)
    shared = _SHARED.get()
    omega = config.omega if kind in TRIG_KINDS else None
    count = values.size - w
    raw, fitted, messages = [], [], {}
    for lo in range(0, count, BATCH_WINDOWS):
        fits = _fits(values, lo, min(lo + BATCH_WINDOWS, count), w, kind, omega)
        if shared is not None:
            # A shared fit keeps its own failures; this roll's go to a copy.
            fits = fits._replace(failures=fits.failures.copy())
        raw.append(forecast_windows(fits, config.multi_step))
        if in_window:
            fitted.append(fitted_windows(fits))
        if fits.failures.errors:
            messages.update((lo + i, str(exc)) for i, exc in fits.failures.errors.items())
    return _joined(raw), _joined(fitted) if in_window else None, messages


def _joined(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _fits(values: np.ndarray, lo: int, hi: int, w: int, kind: ModelKind,
          omega: Optional[float]) -> WindowFits:
    """``kind`` fitted on windows lo..hi-1, or the fit an earlier roll of the
    open ``_sharing`` scope left."""
    shared = _SHARED.get()
    if shared is None:
        return _fit(values, lo, hi, w, kind, omega)
    return shared.get(values, (kind, w, lo), omega, _fit, (values, lo, hi, w, kind, omega))


def _fit(values: np.ndarray, lo: int, hi: int, w: int, kind: ModelKind,
         omega: Optional[float]) -> WindowFits:
    windows = window_view(values[lo:], w, hi - lo)
    if kind is ModelKind.GM_ESC:
        return fit_esc_windows(_fits(values, lo, hi, w, ModelKind.GM11, None), windows, omega)
    return fit_windows(kind, windows, omega)


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
    weights, rejected = _ef_weights(config, _ef_lengths(config, ok.size))
    # Step i's buffer ends at eps[i - 1] and holds i residuals while i <= R.
    # So the first step to read a non-finite residual is one past it, and
    # the first to need a rejected length is that length.
    stop, message = ok.size, None
    if not all_finite(eps):
        stop, message = int(np.argmin(np.isfinite(eps))) + 1, NON_FINITE_RESIDUALS
    if rejected and min(rejected) < stop:
        stop = min(rejected)
        message = rejected[stop]
    errors = dict.fromkeys(ok[stop:].tolist(), message)
    end = stop - 1  # steps 1..end are corrected
    if end < 1:
        return ok[:0], eps[:0], errors
    # The series fitted to a buffer has period T, the row count of its
    # weights, so the step after the latest residual is at offset
    # (latest + 1 - first) mod T; gaps left by fallbacks count, as the buffer
    # keeps each residual's own index. Buffers grow by one per step up to
    # ``width`` residuals, then keep that length. The growing ones are
    # right-aligned rows, zero on the left.
    width = min(end, config.ef_residual_window)
    first = ok[:width].tolist()
    rows = np.zeros((width - 1, width))
    for r in range(width - 1):
        own = weights[r + 1]
        rows[r, width - 1 - r:] = own[(first[r] + 1 - first[0]) % own.shape[0]]
    # Growing buffers: position q of steps 1..width-1 is padded[q:q + width - 1].
    padded = np.concatenate((np.zeros(width - 1), eps[:width - 1]))
    ramp = _filtered(rows, slice(None), window_view(padded, width - 1, width))
    # Full buffers: position q of steps width..end is the slice eps[q:q + count].
    count = end - width + 1
    offsets = (ok[width - 1:end] + 1 - ok[:count]) % weights[width].shape[0]
    if not np.count_nonzero(offsets != offsets[0]):
        offsets = offsets[0]
    full = _filtered(weights[width], offsets, window_view(eps, count, width))
    return ok[1:stop], np.concatenate((ramp, full)), errors


def _ef_lengths(config: RollingConfig, steps: int) -> range:
    """The buffer lengths whose weights an EF roll of ``config`` asks for when
    ``steps`` of its steps keep their base forecast: w - 1 in the window,
    else 1..min(steps - 1, R)."""
    if config.ef_in_window:
        return range(config._effective_window - 1, config._effective_window)
    return range(1, min(steps - 1, config.ef_residual_window) + 1)


def _ef_weights(config: RollingConfig,
                lengths: range) -> Tuple[Dict[int, np.ndarray], Dict[int, str]]:
    """``correction_weights`` of each buffer length in ``lengths``, and the
    message of each length whose weights are refused as singular."""
    weights, rejected = {}, {}
    for n in lengths:
        try:
            weights[n] = correction_weights(n, _harmonic_cap(config, n))
        except SingularSystemError as exc:
            rejected[n] = str(exc)
    return weights, rejected


def _fill_caches(configs, longest: int) -> None:
    """Compute, and so keep, what rolls of the resolved ``configs`` over
    series of at most ``longest`` values read from a cache: the EF weights,
    once per setting, and the ARIMA and SARIMA ψ weights."""
    settings = {(_ef_lengths(c, longest - c._effective_window), c.ef_harmonics): c
                for c in configs if c._parsed[1]}
    for (lengths, _), config in settings.items():
        _ef_weights(config, lengths)
    for config in configs:
        if isinstance(config.benchmark_spec, benchmarks.ArimaSpec):
            benchmarks._ar_form(config.benchmark_spec, bool(config.standard_psi))


def _filtered(weights: np.ndarray, offsets, columns: np.ndarray) -> np.ndarray:
    """Each step's filter row ``weights[offset]`` applied to its residuals,
    which are ``columns[q]`` for buffer position q: the sum over q of
    ``weights[offsets, q] * columns[q]``, added left to right
    (``series.ordered_dot``). ``offsets`` is one offset for every step,
    one per step, or ``slice(None)`` for row j of ``weights`` at step j."""
    return ordered_dot(weights.T[:, offsets], columns)


def _in_window_corrections(values: np.ndarray, w: int, fitted: np.ndarray,
                           failed: np.ndarray, config: RollingConfig) -> Corrections:
    """``_buffered_corrections`` for residuals taken inside each window: window
    j's residuals values[j+1:j+w] - fitted[j] start at index 2 and correct the
    forecast at index w + 1."""
    ok = np.flatnonzero(~failed)
    n = w - 1
    # Row q holds every window's residual at buffer position q.
    observed, fits = window_view(values[1:], failed.size, n), fitted.T
    if ok.size < failed.size:
        observed, fits = observed[:, ok], fits[:, ok]
    columns = observed - fits
    finite = np.isfinite(columns).all(axis=0)
    errors = dict.fromkeys(ok[~finite].tolist(), NON_FINITE_RESIDUALS)
    weights, rejected = _ef_weights(config, _ef_lengths(config, ok.size))
    if rejected:
        errors.update(dict.fromkeys(ok[finite].tolist(), rejected[n]))
        return ok[:0], values[:0], errors
    if errors:
        columns = columns[:, finite]
    return ok[finite], _filtered(weights[n], n % weights[n].shape[0], columns), errors


#: The most candidates a grid may hold; the default grid has 2,000.
MAX_GRID_CANDIDATES = 1_000_000


@dataclass(frozen=True)
class OmegaGrid:
    """Inclusive arithmetic grid of candidate angular frequencies."""

    lo: float = 0.05
    hi: float = 100.0
    step: float = 0.05

    def __post_init__(self):
        if any(isinstance(v, (bool, np.bool_)) for v in (self.lo, self.hi, self.step)):
            # Python counts True as 1, but a bool given for a frequency is a mistake.
            raise InvalidInputError(f"grid bounds and step must be numbers, got {self!r}")
        try:
            ordered = 0 < self.lo <= self.hi < math.inf and 0 < self.step < math.inf
        except TypeError:  # a string, say
            ordered = False
        if not ordered:
            raise InvalidInputError("grid needs 0 < lo <= hi and step > 0, all finite")
        if (self.hi - self.lo) / self.step + 1e-9 >= MAX_GRID_CANDIDATES:
            raise InvalidInputError(f"grid holds more than {MAX_GRID_CANDIDATES} candidates")

    def candidates(self) -> np.ndarray:
        count = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return self.lo + self.step * np.arange(count)


#: Two calibration scores closer than this many eps times the RMS of the
#: observed targets tie. A backward-stable solve of a fit with condition
#: kappa leaves errors of about eps * kappa relative in its parameters, so
#: solvers that differ only in rounding move a forecast by about that much,
#: and a score by at most the RMS of those moves. The engine lets two
#: solvers' bits differ up to a condition of ``SHARED_CONDITION_LIMIT``
#: (1e4); scores that close are decided by rounding, not by the data.
TIE_TOLERANCE = SHARED_CONDITION_LIMIT


def calibrate_omega(series: Series, kind: ModelKind, grid: OmegaGrid,
                    config: Optional[RollingConfig] = None) -> float:
    """Grid-search the frequency minimizing rolling one-step RMSE.

    Calibration runs once on one series and the winner is reused elsewhere.
    Candidates are tried from the smallest up, and one replaces the best so
    far only if its RMSE is lower by more than ``TIE_TOLERANCE`` * eps times
    the RMS of the observed targets: ties keep the smaller candidate. A
    candidate whose phase ω·t the floats resolve to no better than half a turn
    at the forecast time (ulp(ω·(w + h)) > π), or whose every step falls back,
    is skipped; when the first candidate is, no candidate is rolled and the
    error names it and t. An error a roll raises belongs to the series, not
    to a frequency, so it propagates.
    """
    if not isinstance(kind, ModelKind):
        raise InvalidInputError(f"calibrate_omega needs a ModelKind, got {kind!r}")
    if kind not in TRIG_KINDS:
        raise InvalidInputError(f"{kind.value} has no frequency to calibrate")
    base = replace(config if config is not None else RollingConfig(), model=kind.value)
    w = _window(series.values, base)
    observed = series.values[w:]
    latest = w + base.multi_step  # the largest t at which a roll evaluates sin(ω t)
    # The RMS of the targets scaled by the power of two of the largest, so it
    # cannot overflow.
    _, scale = math.frexp(float(np.abs(observed).max()))
    scaled = np.ldexp(observed, -scale)
    tolerance = TIE_TOLERANCE * float(np.finfo(float).eps) * math.ldexp(
        math.sqrt(float(np.mean(scaled * scaled))), scale)
    candidates = grid.candidates()
    if math.ulp(float(candidates[0]) * latest) > math.pi:
        raise CalibrationFailedError(
            f"no grid frequency was rolled: the first, {float(candidates[0])!r}, has a phase "
            f"omega t that the floats resolve to no better than half a turn at "
            f"t = w + h = {latest} (ulp(omega t) > pi)")
    best_omega, best_rmse = None, math.inf
    with _sharing():
        for omega in candidates:
            if math.ulp(float(omega) * latest) > math.pi:
                break  # every later candidate is larger, so coarser still
            trace = roll_forecast(series, replace(base, omega=float(omega)))
            if trace.fallback_flags.all():
                continue
            with np.errstate(over="ignore"):  # a huge but finite miss gives inf, silently
                score = _rmse_of_misses(trace.predicted_values - trace.observed_values)
            if score < best_rmse - tolerance:
                best_omega, best_rmse = float(omega), score
    if best_omega is None:
        raise CalibrationFailedError("no grid frequency produced a usable fit")
    return best_omega
