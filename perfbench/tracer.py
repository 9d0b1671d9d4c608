"""Outside-in tracer: wraps greycast's public functions at module boundaries.

Each hooked function is replaced by a timing wrapper in every greycast module
that holds it, under whatever name it was imported, so calls between modules
(``rolling`` calling ``fit_model``, ``models`` calling ``solve_least_squares``)
go through the wrapper. A layer's self time is its wrapper's wall time minus
the wall time of the hooked calls made inside it. A hook whose target is gone
yields ``None`` for all its metrics and is listed in ``missing``.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

ROLL = "rolling.roll_forecast"

HOOKS = (
    ROLL, "rolling.calibrate_omega",
    "models.fit_model", "models.forecast",
    "lstsq.solve_least_squares",
    "series.accumulate", "series.mean_sequence",
    "fourier.fit_residual_fourier", "fourier.corrected_forecast",
    "benchmarks.forecast_arima", "benchmarks.forecast_linear",
    "benchmarks.forecast_setar", "benchmarks.psi_weights",
    "config.load_config",
    "data.ingest_csv",
    "report.compare", "report.format_csv", "report.format_trace_csv",
    "metrics.rmse",
    "cli.main",
)

#: Exception classes a forecast step can fall back on.
STEP_ERRORS = ("InvalidInputError", "InsufficientDataError",
               "SingularSystemError", "NumericalDegeneracyError")

#: Metrics derived from a hook's results, and the hook each one depends on.
DERIVED = {
    "rolling.steps": ROLL,
    "rolling.fallback_steps": ROLL,
    "rolling.blowup_steps": ROLL,
    **{f"rolling.fallback.{cls}": ROLL for cls in STEP_ERRORS},
    "lstsq.solve_least_squares.rejected": "lstsq.solve_least_squares",
    "lstsq.rejected_ratio": "lstsq.solve_least_squares",
    "data.ingest_csv.rows": "data.ingest_csv",
    "report.format_csv.bytes": "report.format_csv",
    "report.format_trace_csv.bytes": "report.format_trace_csv",
}


def blowups(predicted, observed, flags, span: float) -> int:
    """Unflagged steps whose prediction is non-finite or misses by > 10 x span."""
    p = np.asarray(predicted, dtype=float)
    o = np.asarray(observed, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        wild = ~np.isfinite(p) | (np.abs(p - o) > 10.0 * span)
    return int(np.count_nonzero(wild & ~np.asarray(flags, dtype=bool)))


class _Stat:
    __slots__ = ("calls", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed: Counter = Counter()


class Tracer:
    """Installs the wrappers, accumulates per-hook counts and self time."""

    def __init__(self):
        self.missing: List[str] = []
        self.patched: List[str] = []
        self._patches = []
        self._stack: List[list] = []  # [hook, child wall time, child fallbacks]
        self._step_error = Exception
        self.reset()

    def reset(self) -> None:
        self.stats: Dict[str, _Stat] = {hook: _Stat() for hook in HOOKS}
        self.derived: Counter = Counter()

    def install(self) -> None:
        try:
            from greycast.errors import GreycastError
            self._step_error = GreycastError
        except ImportError:
            pass
        for hook in HOOKS:
            module_name, attr = hook.rsplit(".", 1)
            try:
                module = importlib.import_module(f"greycast.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(hook)
                continue
            wrapper = self._wrap(hook, original)
            for name, holder in list(sys.modules.items()):
                if name != "greycast" and not name.startswith("greycast."):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))
                        self.patched.append(f"{name}.{key}")

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _wrap(self, hook: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [hook, 0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                elapsed = perf_counter() - start
                cls = type(exc).__name__
                self.stats[hook].failed[cls] += 1
                # roll_forecast turns a library error from a direct callee into
                # a flagged persistence fallback; count it by its class here,
                # because the trace keeps only the message.
                if len(stack) > 1 and stack[-2][0] == ROLL \
                        and isinstance(exc, self._step_error):
                    stack[-2][2] += 1
                    self.derived[f"rolling.fallback.{cls}"] += 1
                self._close(hook, elapsed, start, frame)
                raise
            elapsed = perf_counter() - start
            self._observe(hook, args, kwargs, result, frame)
            self._close(hook, elapsed, start, frame)
            return result

        return wrapper

    def _close(self, hook: str, elapsed: float, start: float, frame: list) -> None:
        """Books the call's self time. The caller is charged the wrapper's
        whole time as child time, so the tracer's own bookkeeping (``_observe``)
        lands in no layer's self time."""
        self._stack.pop()
        stat = self.stats[hook]
        stat.calls += 1
        stat.self_s += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += perf_counter() - start

    def _observe(self, hook: str, args, kwargs, result, frame: list) -> None:
        if hook == ROLL:
            series = args[0] if args else kwargs["series"]
            flags = result.fallbacks
            fallbacks = sum(flags)
            self.derived["rolling.steps"] += len(flags)
            self.derived["rolling.fallback_steps"] += fallbacks
            values = series.values
            self.derived["rolling.blowup_steps"] += blowups(
                result.predicted(), result.observed(), flags,
                float(values.max() - values.min()))
            # The only library error roll_forecast raises itself inside a step
            # is its non-finite-forecast check, an InvalidInputError.
            self.derived["rolling.fallback.InvalidInputError"] += fallbacks - frame[2]
        elif hook == "data.ingest_csv":
            self.derived["data.ingest_csv.rows"] += sum(len(s) for s in result.series)
        elif hook in ("report.format_csv", "report.format_trace_csv"):
            self.derived[f"{hook}.bytes"] += len(result.encode("utf-8"))

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Flat metric values; ``None`` for every metric of a missing hook."""
        out: Dict[str, Optional[float]] = {}
        for hook in HOOKS:
            stat = self.stats[hook]
            present = hook not in self.missing
            out[f"{hook}.calls"] = stat.calls if present else None
            out[f"{hook}.self_s"] = stat.self_s if present else None
            out[f"{hook}.failed"] = sum(stat.failed.values()) if present else None
            for cls in STEP_ERRORS:
                out[f"{hook}.failed.{cls}"] = stat.failed[cls] if present else None
        lstsq = self.stats["lstsq.solve_least_squares"]
        rejected = lstsq.failed["SingularSystemError"]
        for name, source in DERIVED.items():
            if source in self.missing:
                out[name] = None
            elif name == "lstsq.solve_least_squares.rejected":
                out[name] = rejected
            elif name == "lstsq.rejected_ratio":
                out[name] = rejected / lstsq.calls if lstsq.calls else 0.0
            else:
                out[name] = self.derived[name]
        return out


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between traced passes of one input."""
    return not (name.endswith(".self_s") or name.endswith(".bytes")
                or name.endswith("_ratio") or name.endswith(".import_s"))
