"""Workload process: runs one workload, checks its outputs, writes the result.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT_JSON

run.py starts it with greycast's sources on PYTHONPATH and BLAS/OpenMP pinned
to one thread. It exits 1 when a check fails, after writing the result.
"""
from __future__ import annotations

import json
import resource
import sys
import warnings
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import List, Tuple

import numpy as np

import catalog
import gauge
from tracer import Tracer, is_count
from workloads import WORKLOADS

TRACED_PASSES = 2


def timed_passes(workload, seconds: float, run=None, expected=None, at_least=1):
    """Whole passes while the next one is expected to fit in ``seconds``, and
    at least ``at_least`` of them.

    A workload with partial passes (online arrivals) then fills the rest of
    the time with arrivals; those count for timing only. Every complete pass
    must repeat ``expected`` (by default the first pass's outputs). Only the
    first pass keeps its output, so memory does not grow with the pass count.
    Returns the passes, the expected fingerprint and the number that differed.
    """
    run = run or workload.run_pass
    passes, differed = [], 0
    start = perf_counter()
    while True:
        gauge.tick()
        result = run()
        if expected is None:
            expected = workload.fingerprint(result.output)
        else:
            differed += result.complete and workload.fingerprint(result.output) != expected
            result.output = None
        passes.append(result)
        if len(passes) >= at_least and \
                perf_counter() - start + median(p.elapsed for p in passes) > seconds:
            break
    if run == workload.run_pass and workload.partial_passes \
            and perf_counter() - start < seconds:
        result = workload.run_pass(deadline=start + seconds)
        result.output = None
        passes.append(result)
    gauge.tick()
    return passes, expected, differed


def traced_in_process(workload, tracer: Tracer):
    def run():
        tracer.reset()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            result = workload.run_pass()
        metrics = tracer.snapshot()
        metrics["metrics.runtime_warnings"] = sum(
            issubclass(w.category, RuntimeWarning) for w in caught)
        metrics["cli.import_s"] = 0.0 if "cli.main" not in tracer.missing else None
        result.layers = {"metrics": metrics, "missing": tracer.missing,
                         "patched": tracer.patched}
        return result
    return run


def op_times(passes, scaled: bool = True) -> List[np.ndarray]:
    """Each pass's operation times, at the gauge's reference speed unless
    ``scaled`` is False (see gauge.py)."""
    times = [np.asarray(p.latencies) for p in passes]
    if scaled:
        times = [t * gauge.scale(p.starts, t) for p, t in zip(passes, times)]
    return times


def steps_per_s(workload, passes, times) -> float:
    """Steps emitted per second of operations: the median over the passes of a
    batch workload, or over all the run's arrivals for online arrivals."""
    if workload.partial_passes:
        return sum(p.steps for p in passes) / sum(t.sum() for t in times)
    return median(p.steps / t.sum() for p, t in zip(passes, times))


def latency_ms(workload, times) -> Tuple[float, float]:
    """(p50, p99) of the time to produce one result, in milliseconds.

    Online arrivals: one sample per target, its fastest arrival in the run
    (every target arrives at least ``min_passes`` times). The slowest single
    arrivals are ones the process spent 4-10 ms descheduled, which is the
    machine's noise, not greycast's; a target that is slow every time it
    arrives still sets the p99. 1,389 targets leave 14 beyond the p99.
    Batch workloads: a result is a whole pass, and a run has too few passes
    for a percentile above the median to have ten beyond it, so both figures
    are the median pass time.
    """
    if not workload.partial_passes:
        elapsed = median(float(t[0]) for t in times) * 1e3
        return elapsed, elapsed
    best = np.full(times[0].size, np.inf)  # the first pass is complete
    for t in times:
        best[:t.size] = np.minimum(best[:t.size], t)
    p50, p99 = np.percentile(best * 1e3, [50, 99])
    return float(p50), float(p99)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def main() -> int:
    name, seed, seconds, trace, workdir, result_path = sys.argv[1:7]
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    workload = WORKLOADS[name](np.random.default_rng(seed), Path(workdir))
    check_rng = np.random.default_rng([seed, 1])
    gauge.kernel()
    workload.warm_up()

    if trace:
        passes, expected, differed = timed_passes(workload, seconds / 2,
                                                   at_least=workload.min_passes)
        tracer = None if hasattr(workload, "traced_pass") else Tracer()
        if tracer is None:
            run = workload.traced_pass  # the CLI child traces itself
        else:
            tracer.install()
            run = traced_in_process(workload, tracer)
        try:
            traced, _, traced_differed = timed_passes(workload, seconds / 2, run, expected,
                                                      TRACED_PASSES)
        finally:
            if tracer is not None:
                tracer.uninstall()
        differed += traced_differed
    else:
        passes, _, differed = timed_passes(workload, seconds, at_least=workload.min_passes)
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = [f"{differed} passes gave other outputs than the first"] if differed else []
    if trace and not all(p.layers for p in traced):
        errors.append("a traced pass wrote no per-layer counters")
    errors += workload.check(passes[0].output, check_rng)
    attempted = sum(p.steps for p in passes + (traced if trace else []))
    record = {
        **environment(),
        "passes": len(passes),
        "pass_seconds": [p.elapsed for p in passes],
        "steps_per_pass": catalog.WORKLOADS[name].steps_per_pass,
        "gauge_readings_s": gauge.readings(),
    }
    if errors:
        return write_result(result_path, errors, attempted, {}, record)

    tally, rmses = workload.account(passes[0].output)
    record["accounting"] = {"steps": tally.steps, "fallback_steps": tally.fallbacks,
                            "blowup_steps": tally.blowups}
    record["model_rmse"] = rmses
    if trace:
        layers = [p.layers["metrics"] for p in traced]
        metrics = dict(layers[0])
        for key, value in layers[0].items():
            if is_count(key) and any(other[key] != value for other in layers[1:]):
                errors.append(f"per-layer count {key} differs between traced passes")
            if key.endswith("_s") and value is not None:
                metrics[key] = median(other[key] for other in layers)
        metrics["trace.overhead_ratio"] = (
            steps_per_s(workload, traced, op_times(traced))
            / steps_per_s(workload, passes, op_times(passes)))
        if workload.rolls_emit_every_step:
            for key, value in (("steps", tally.steps), ("fallback_steps", tally.fallbacks),
                               ("blowup_steps", tally.blowups)):
                traced_value = metrics[f"rolling.{key}"]
                if traced_value is not None and traced_value != value:
                    errors.append(f"traced rolling.{key} is {traced_value}, the untraced "
                                  f"outputs give {value}")
        record["traced_passes"] = len(traced)
        record["missing_hooks"] = traced[0].layers["missing"]
        record["patched_sites"] = traced[0].layers["patched"]
    else:
        times = op_times(passes)
        p50, p99 = latency_ms(workload, times)
        child_rss = [p.peak_rss_kib for p in passes if p.peak_rss_kib is not None]
        metrics = {
            "steps_per_s": steps_per_s(workload, passes, times),
            "latency_ms_p50": p50,
            "latency_ms_p99": p99,
            "peak_rss_mb": (median(child_rss) if child_rss else peak_rss_kib) / 1024.0,
            "failed_step_ratio": tally.ratio,
            "rmse_median": median(rmses),
        }
        record["latency_samples"] = sum(len(p.latencies) for p in passes)
        measured = op_times(passes, scaled=False)
        p50, p99 = latency_ms(workload, measured)
        record["measured"] = {"steps_per_s": steps_per_s(workload, passes, measured),
                              "latency_ms_p50": p50, "latency_ms_p99": p99}
    return write_result(result_path, errors, attempted, {} if errors else metrics, record)


def write_result(path, errors, attempted, metrics, record) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"correct": not errors, "errors": errors[:20], "attempted": attempted,
                   "metrics": metrics, "record": record}, handle)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
