"""The four workloads: seeded inputs, one measured pass, accounting and checks.

Every call into greycast goes through a module attribute looked up at call
time (``report.compare``, ``rolling.roll_forecast``...), so the tracer's
wrappers see it. The checks use greycast's public per-step functions as the
oracle, so they keep holding when a faster implementation replaces the loop.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from greycast import config, models, report, rolling
from greycast.data import Dataset
from greycast.errors import GreycastError
from greycast.series import Series

import catalog
import gauge
from catalog import window_of
from tracer import blowups

HERE = Path(__file__).resolve().parent

#: What the generated console script does (``greycast = "greycast.cli:main"``).
CLI_ENTRY = "import sys; from greycast.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60.0
ORACLE_SAMPLES = 40
#: Arrivals between two gauge readings (a sweep lasts several seconds, and the
#: machine's speed can change within it).
GAUGE_EVERY = 200


@dataclass
class Pass:
    """One measured pass: its wall time, per-operation latencies and their
    start times, output."""

    elapsed: float
    latencies: List[float]
    starts: List[float]
    steps: int
    output: object
    complete: bool = True
    peak_rss_kib: Optional[int] = None  # passes that run in a child process
    layers: Optional[dict] = None  # traced passes only


@dataclass
class Tally:
    steps: int = 0
    fallbacks: int = 0
    blowups: int = 0

    def add(self, predicted, observed, flags, span: float) -> None:
        self.steps += len(flags)
        self.fallbacks += int(np.count_nonzero(flags))
        self.blowups += blowups(predicted, observed, flags, span)

    @property
    def ratio(self) -> float:
        return (self.fallbacks + self.blowups) / self.steps


def seasonal(rng, n, mean, amp, period, sigma) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=float)
    noise = rng.normal(0.0, sigma, n)
    return np.maximum(0.0, mean + amp * np.sin(2.0 * np.pi * k / period) + noise)


def pooled_rmse(predicted, observed) -> float:
    """RMSE computed without overflow, so blow-ups give a finite figure."""
    err = np.asarray(predicted, dtype=float) - np.asarray(observed, dtype=float)
    scale = float(np.max(np.abs(err)))
    if scale == 0.0:
        return 0.0
    return scale * float(np.sqrt(np.mean((err / scale) ** 2)))


def naive_rmse(predicted, observed) -> float:
    """RMSE as a report computes it: overflows to inf like the program does."""
    err = np.asarray(predicted, dtype=float) - np.asarray(observed, dtype=float)
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(err * err)))


def same_float(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_coverage(errors: List[str], label: str, indices, model: str, n: int) -> None:
    w = window_of(model)
    if list(indices) != list(range(w + 1, n + 1)):
        errors.append(f"{label} {model}: targets are not {w + 1}..{n} exactly once")


def check_oracle(errors: List[str], label: str, values: np.ndarray, model: str,
                 omega: Optional[float], predictions, rng, count: int) -> None:
    """Sampled steps must equal forecast(fit_model(...)) or persistence."""
    kind = models.ModelKind(model)
    w = window_of(model)
    picks = np.sort(rng.choice(len(predictions), size=min(count, len(predictions)),
                               replace=False))
    for i in picks:
        target, predicted = int(predictions[i][0]), float(predictions[i][1])
        persistence = float(values[target - 2])
        try:
            expected = models.forecast(models.fit_model(
                kind, values[target - 1 - w:target - 1], omega))
        except GreycastError:
            expected = persistence
        if not math.isfinite(expected):
            expected = persistence
        if not same_float(predicted, expected):
            errors.append(f"{label} {model} target {target}: predicted {predicted!r}, "
                          f"per-step oracle gives {expected!r}")
            return


class Compare1440:
    """``report.compare`` over all 16 models on the criterion-8 series."""

    partial_passes = False
    min_passes = 1
    rolls_emit_every_step = True

    def __init__(self, rng, workdir: Path):
        self.values = seasonal(rng, **catalog.SERIES_1440)
        self.dataset = Dataset(series=(Series(self.values, label="seasonal-1440"),),
                               source="seasonal-1440")
        self.specs = config.load_config()
        self.span = float(self.values.max() - self.values.min())

    def warm_up(self) -> None:
        short = Dataset(series=(Series(self.values[:120]),))
        report.compare(short, catalog.ALL_MODELS, rolling.RollingConfig(), self.specs)

    def run_pass(self, deadline=None) -> Pass:
        start = perf_counter()
        result = report.compare(self.dataset, catalog.ALL_MODELS,
                                rolling.RollingConfig(), self.specs)
        elapsed = perf_counter() - start
        traces = result[1]
        return Pass(elapsed, [elapsed], [start], sum(len(t.predictions) for t in traces),
                    result)

    def fingerprint(self, output):
        return [(t.model, t.predictions, t.fallbacks) for t in output[1]]

    def account(self, output) -> Tuple[Tally, List[float]]:
        tally, rmses = Tally(), []
        for trace in output[1]:
            predicted, observed = trace.predicted(), trace.observed()
            tally.add(predicted, observed, trace.fallbacks, self.span)
            rmses.append(pooled_rmse(predicted, observed))
        return tally, rmses

    def check(self, output, rng) -> List[str]:
        errors: List[str] = []
        rep, traces = output
        if [t.model for t in traces] != list(catalog.ALL_MODELS):
            return [f"compare returned traces for {[t.model for t in traces]}"]
        n = self.values.size
        for trace in traces:
            check_coverage(errors, "compare-1440", [p[0] for p in trace.predictions],
                           trace.model, n)
            row = rep.row(trace.model)
            if row.failed:
                errors.append(f"compare-1440 {trace.model}: row failed: {row.message}")
            elif not same_float(row.rmse, naive_rmse(trace.predicted(), trace.observed())):
                errors.append(f"compare-1440 {trace.model}: report RMSE {row.rmse!r} "
                              "differs from the RMSE of its trace")
            if trace.model in models.ModelKind.__members__:  # the non-EF grey models
                kind = models.ModelKind(trace.model)
                check_oracle(errors, "compare-1440", self.values, trace.model,
                             self.specs.omega.get(kind), trace.predictions, rng,
                             ORACLE_SAMPLES)
        return errors


class CalibrateTrig:
    """``calibrate_omega`` for GM_C and GM_ESC over a 24-candidate grid."""

    partial_passes = False
    min_passes = 1
    rolls_emit_every_step = True

    def __init__(self, rng, workdir: Path):
        self.values = seasonal(rng, **catalog.SERIES_500)
        self.series = Series(self.values, label="seasonal-500")
        hi = catalog.GRID_LO + catalog.GRID_STEP * (catalog.GRID_COUNT - 1)
        self.grid = rolling.OmegaGrid(catalog.GRID_LO, hi, catalog.GRID_STEP)
        self.candidates = catalog.GRID_LO + catalog.GRID_STEP * np.arange(catalog.GRID_COUNT)
        self.kinds = [models.ModelKind(m) for m in catalog.CALIBRATE_MODELS]
        self.span = float(self.values.max() - self.values.min())
        self._replayed = None

    def warm_up(self) -> None:
        short = Series(self.values[:100])
        grid = rolling.OmegaGrid(catalog.GRID_LO, catalog.GRID_LO + catalog.GRID_STEP,
                                 catalog.GRID_STEP)
        for kind in self.kinds:
            rolling.calibrate_omega(short, kind, grid)

    def run_pass(self, deadline=None) -> Pass:
        start = perf_counter()
        chosen = tuple(rolling.calibrate_omega(self.series, kind, self.grid)
                       for kind in self.kinds)
        elapsed = perf_counter() - start
        return Pass(elapsed, [elapsed], [start],
                    catalog.WORKLOADS["calibrate-trig"].steps_per_pass, chosen)

    def fingerprint(self, output):
        return output

    def _replay(self):
        """Every candidate roll calibration made, repeated outside the timing."""
        if self._replayed is None:
            self._replayed = {
                kind: [rolling.roll_forecast(self.series, rolling.RollingConfig(
                    model=kind.value, omega=float(omega))) for omega in self.candidates]
                for kind in self.kinds}
        return self._replayed

    def account(self, output) -> Tuple[Tally, List[float]]:
        tally, rmses = Tally(), []
        for kind, omega in zip(self.kinds, output):
            for trace in self._replay()[kind]:
                tally.add(trace.predicted(), trace.observed(), trace.fallbacks, self.span)
            best = self._replay()[kind][self._grid_index(omega)]
            rmses.append(pooled_rmse(best.predicted(), best.observed()))
        return tally, rmses

    def _grid_index(self, omega: float) -> int:
        return int(np.argmin(np.abs(self.candidates - omega)))

    def check(self, output, rng) -> List[str]:
        errors: List[str] = []
        n = self.values.size
        for kind, omega in zip(self.kinds, output):
            label = f"calibrate-trig {kind.value}"
            i = self._grid_index(omega)
            if not math.isclose(omega, self.candidates[i], rel_tol=1e-9):
                errors.append(f"{label}: omega {omega!r} is not on the grid")
                continue
            traces = self._replay()[kind]
            for trace in traces:
                check_coverage(errors, label, [p[0] for p in trace.predictions],
                               kind.value, n)
            rmse = {j: naive_rmse(traces[j].predicted(), traces[j].observed())
                    for j in (i - 1, i, i + 1)
                    if 0 <= j < len(traces) and not all(traces[j].fallbacks)}
            if i not in rmse:
                errors.append(f"{label}: omega {omega!r} chosen although every step "
                              "of its roll fell back")
            elif any(rmse[i] > value for value in rmse.values()):
                errors.append(f"{label}: RMSE at omega {omega!r} is worse than at a "
                              "grid neighbour")
            check_oracle(errors, label, self.values, kind.value, omega,
                         traces[i].predictions, rng, ORACLE_SAMPLES)
        return errors


def spawn(cmd: List[str], workdir: Path, timeout: float):
    """Run one child to completion: (start, wall seconds, exit code, peak RSS in KiB)."""
    with open(workdir / "child.out", "wb") as out, open(workdir / "child.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, elapsed, proc.returncode, usage.ru_maxrss


def month_csv(rng, path: Path) -> Dict[str, np.ndarray]:
    """28 days x 2 locations of 5-minute counts, written as a timestamped CSV.

    Each day-series has a night run of zeros, an incident dip and a stuck run;
    their lengths are fixed and only their positions and the counts vary with
    the seed. Returns the values of each series by its CLI label.
    """
    hours = np.arange(catalog.CLI_SLOTS) * 5.0 / 60.0
    profile = (3.0 + 70.0 * np.exp(-((hours - 8.0) / 1.5) ** 2)
               + 60.0 * np.exp(-((hours - 17.5) / 2.0) ** 2)
               + 25.0 * np.exp(-((hours - 13.0) / 3.0) ** 2))
    first = datetime(2024, 2, 5)
    series: Dict[str, np.ndarray] = {}
    for day in range(catalog.CLI_DAYS):
        for scale, location in zip((1.0, 0.7), catalog.CLI_LOCATIONS):
            counts = rng.poisson(profile * scale * rng.uniform(0.9, 1.1)).astype(float)
            night = int(rng.integers(18, 25))
            counts[night:night + 36] = 0.0
            dip = int(rng.integers(120, 170))
            counts[dip:dip + 8] = np.floor(counts[dip:dip + 8] * 0.3)
            stuck = int(rng.integers(216, 252))
            counts[stuck:stuck + 12] = counts[stuck]
            date = (first + timedelta(days=day)).date().isoformat()
            series[f"{date} {location}"] = counts
    lines = ["timestamp,value,location"]
    for day in range(catalog.CLI_DAYS):
        date = first + timedelta(days=day)
        for slot in range(catalog.CLI_SLOTS):
            stamp = (date + timedelta(minutes=5 * slot)).isoformat()
            for location in catalog.CLI_LOCATIONS:
                value = series[f"{date.date().isoformat()} {location}"][slot]
                lines.append(f"{stamp},{int(value)},{location}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return series


@dataclass
class CliOutput:
    code: int
    stderr: str = ""
    report_rows: List[List[str]] = field(default_factory=list)
    trace_digest: str = ""
    trace_text: str = ""


class CliMonth:
    """One fresh ``greycast --format csv compare`` process per pass."""

    partial_passes = False
    min_passes = 1
    rolls_emit_every_step = True

    def __init__(self, rng, workdir: Path):
        self.workdir = workdir
        self.input = workdir / "month.csv"
        self.series = month_csv(rng, self.input)
        self.report_path = workdir / "report.csv"
        self.trace_path = workdir / "traces.csv"
        self.counters_path = workdir / "counters.json"
        self.args = ["--format", "csv", "compare", "--models", ",".join(catalog.CLI_MODELS),
                     "--input", str(self.input), "--output", str(self.report_path),
                     "--trace-output", str(self.trace_path)]

    def warm_up(self) -> None:
        spawn([sys.executable, "-c", "import greycast.cli"], self.workdir, CLI_TIMEOUT_S)

    def _collect(self, start: float, elapsed: float, code: int, rss: int) -> Pass:
        output = CliOutput(code)
        if code != 0:
            output.stderr = (self.workdir / "child.err").read_text(errors="replace")[-500:]
        else:
            text = self.report_path.read_text(encoding="utf-8")
            output.report_rows = [line.split(",") for line in text.splitlines()]
            output.trace_text = self.trace_path.read_text(encoding="utf-8")
            output.trace_digest = hashlib.sha256(output.trace_text.encode()).hexdigest()
        return Pass(elapsed, [elapsed], [start], catalog.WORKLOADS["cli-month"].steps_per_pass,
                    output, peak_rss_kib=rss)

    def run_pass(self, deadline=None) -> Pass:
        return self._collect(*spawn([sys.executable, "-c", CLI_ENTRY, *self.args],
                                    self.workdir, CLI_TIMEOUT_S))

    def traced_pass(self) -> Pass:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(self.counters_path),
               *self.args]
        result = self._collect(*spawn(cmd, self.workdir, CLI_TIMEOUT_S))
        if result.output.code == 0:
            result.layers = json.loads(self.counters_path.read_text(encoding="utf-8"))
        return result

    def fingerprint(self, output: CliOutput):
        stable = [row for row in output.report_rows if row[1:2] != ["compute_time"]]
        return output.code, stable, output.trace_digest

    def _trace_rows(self, output: CliOutput):
        """(label, model) -> (indices, observed, predicted, flags) from the trace CSV."""
        rows: Dict[Tuple[str, str], Tuple[list, list, list, list]] = {}
        lines = output.trace_text.splitlines()
        for line in lines[1:]:
            label, model, index, observed, predicted, _, flag = line.split(",")
            cols = rows.setdefault((label, model), ([], [], [], []))
            cols[0].append(int(index))
            cols[1].append(float(observed))
            cols[2].append(float(predicted))
            cols[3].append(flag == "1")
        return rows

    def account(self, output: CliOutput) -> Tuple[Tally, List[float]]:
        tally = Tally()
        pooled: Dict[str, Tuple[list, list]] = {m: ([], []) for m in catalog.CLI_MODELS}
        for (label, model), (_, observed, predicted, flags) in self._trace_rows(output).items():
            values = self.series[label]
            tally.add(predicted, observed, flags, float(values.max() - values.min()))
            pooled[model][0].extend(predicted)
            pooled[model][1].extend(observed)
        return tally, [pooled_rmse(p, o) for p, o in pooled.values()]

    def check(self, output: CliOutput, rng) -> List[str]:
        if output.code != 0:
            return [f"cli-month: greycast exited with code {output.code}: {output.stderr}"]
        errors: List[str] = []
        if len(output.report_rows) != 1 + 3 * len(catalog.CLI_MODELS):
            errors.append(f"cli-month: report has {len(output.report_rows)} rows, "
                          f"expected {1 + 3 * len(catalog.CLI_MODELS)}")
        steps = catalog.WORKLOADS["cli-month"].steps_per_pass
        if output.trace_text.count("\n") != 1 + steps:
            errors.append(f"cli-month: trace has {output.trace_text.count(chr(10)) - 1} "
                          f"rows, expected {steps}")
        rows = self._trace_rows(output)
        specs = config.load_config()
        for model in catalog.CLI_MODELS:
            per_series = []
            for label, values in self.series.items():
                if (label, model) not in rows:
                    errors.append(f"cli-month {label} {model}: no trace rows")
                    return errors
                indices, observed, predicted, _ = rows[(label, model)]
                check_coverage(errors, f"cli-month {label}", indices, model, values.size)
                if observed != [float(values[i - 1]) for i in indices]:
                    errors.append(f"cli-month {label} {model}: observed values differ "
                                  "from the input")
                per_series.append(naive_rmse(predicted, observed))
                if model in ("GM11", "GM_C"):
                    kind = models.ModelKind(model)
                    check_oracle(errors, f"cli-month {label}", values, model,
                                 specs.omega.get(kind), list(zip(indices, predicted)),
                                 rng, 3)
            reported = [float(r[2]) for r in output.report_rows
                        if r[0] == model and r[1] == "rmse"]
            if len(reported) != 1 or not same_float(reported[0],
                                                    float(np.mean(sorted(per_series)))):
                errors.append(f"cli-month {model}: report RMSE {reported} differs from "
                              "the RMSE recomputed from its traces")
        return errors


class OnlineArrivals:
    """One ``roll_forecast`` per non-EF model for each new observation."""

    partial_passes = True
    min_passes = 2  # each target's latency is its fastest arrival
    # Each call's ARIMA/SARIMA warm-up steps fall back and are not emitted, so
    # the tracer's step counts exceed the emitted forecasts' by design.
    rolls_emit_every_step = False

    def __init__(self, rng, workdir: Path):
        self.values = seasonal(rng, **catalog.SERIES_1440)
        self.series = Series(self.values, label="seasonal-1440")
        self.plan = [(m, rolling.RollingConfig(model=m), catalog.online_history(m))
                     for m in catalog.ONLINE_MODELS]
        self.span = float(self.values.max() - self.values.min())
        self.first = catalog.ARIMA_HISTORY

    def warm_up(self) -> None:
        self._sweep(self.first, self.first + 20, None)

    def _sweep(self, first: int, last: int, deadline: Optional[float]) -> Pass:
        values, plan = self.values, self.plan
        latencies: List[float] = []
        starts: List[float] = []
        emitted = []  # per arrival: (target, [(local index, predicted, flag) per model])
        start = perf_counter()
        for t in range(first, last + 1):
            if (t - first) % GAUGE_EVERY == 0:
                gauge.tick()
            began = perf_counter()
            row = []
            for _, cfg, history in plan:
                trace = rolling.roll_forecast(Series(values[t - history:t]), cfg)
                row.append((trace.predictions[-1][0], trace.predictions[-1][1],
                            trace.fallbacks[-1]))
            latencies.append(perf_counter() - began)
            starts.append(began)
            emitted.append((t, row))
            if deadline is not None and perf_counter() >= deadline:
                break
        elapsed = perf_counter() - start
        return Pass(elapsed, latencies, starts, len(plan) * len(emitted), emitted,
                    complete=len(emitted) == last - first + 1)

    def run_pass(self, deadline=None) -> Pass:
        return self._sweep(self.first, self.values.size, deadline)

    def fingerprint(self, output):
        return output

    def account(self, output) -> Tuple[Tally, List[float]]:
        tally, rmses = Tally(), []
        observed = [self.values[t - 1] for t, _ in output]
        for j in range(len(self.plan)):
            predicted = [row[j][1] for _, row in output]
            tally.add(predicted, observed, [row[j][2] for _, row in output], self.span)
            rmses.append(pooled_rmse(predicted, observed))
        return tally, rmses

    def check(self, output, rng) -> List[str]:
        errors: List[str] = []
        n = self.values.size
        if [t for t, _ in output] != list(range(self.first, n + 1)):
            return ["online-arrivals: arrivals are not each target exactly once"]
        for j, (model, cfg, history) in enumerate(self.plan):
            full = rolling.roll_forecast(self.series, cfg)
            check_coverage(errors, "online-arrivals", [p[0] for p in full.predictions],
                           model, n)
            offset = window_of(model) + 1
            for t, row in output:
                local, predicted, flag = row[j]
                ref = full.predictions[t - offset]
                if local != history or ref[0] != t or predicted != ref[1] \
                        or flag != full.fallbacks[t - offset]:
                    errors.append(f"online-arrivals {model} target {t}: forecast "
                                  f"{predicted!r} differs from the full roll's {ref[1]!r}")
                    break
            if model in models.ModelKind.__members__:
                check_oracle(errors, "online-arrivals", self.values, model, None,
                             full.predictions, rng, ORACLE_SAMPLES)
        return errors


WORKLOADS = {
    "compare-1440": Compare1440,
    "calibrate-trig": CalibrateTrig,
    "cli-month": CliMonth,
    "online-arrivals": OnlineArrivals,
}
