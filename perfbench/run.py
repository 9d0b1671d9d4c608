"""greycast benchmark: one command runs a workload, checks it, prints its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload compare-1440 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and the workload. greycast runs from the
checkout's ``src/``; nothing is installed. Exits 2 without a result when
greycast cannot be imported, 1 when a check fails or the workload crashes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = "import greycast; greycast.load_config()"
SETUP_RUNS = 9
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict):
    """Median time of a fresh interpreter importing greycast and its config,
    at the gauge's reference speed, and the median measured time.

    Each timed interpreter is followed by a fresh gauge process, whose reading
    scales that time (see gauge.py). One untimed run first, so that byte-code
    compilation is not counted.
    """
    scaled, measured = [], []
    for i in range(SETUP_RUNS + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.stderr.write("error: a fresh interpreter cannot import greycast\n")
            raise SystemExit(2)
        gauge = subprocess.run([sys.executable, str(HERE / "gauge.py")], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=60, check=True)
        if i:
            measured.append(elapsed)
            scaled.append(elapsed * float(gauge.stdout))
    return median(scaled), median(measured)


def git_commit():
    """HEAD of the checkout if it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over greycast's source files, standing in when there is no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "greycast").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def finish(result: dict, record: dict, code: int) -> int:
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "greycast" / "__init__.py").is_file():
        sys.stderr.write(f"error: no greycast sources under {ROOT / 'src'}\n")
        return 2
    env = child_env()
    setup_s, setup_measured_s = (None, None) if args.trace else measure_setup(env)

    workload = catalog.WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record = {
        "workload": args.workload, "why": why[args.workload],
        "exercises": workload.exercises, "bypasses": workload.bypasses,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "setup_measured_s": setup_measured_s,
    }
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    try:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
                 str(args.seconds), str(args.trace), str(workdir), str(result_path)],
                env=env, cwd=ROOT, stdout=sys.stderr, timeout=TIME_LIMIT_S - (perf_counter() - started))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
        outcome = (json.loads(result_path.read_text(encoding="utf-8"))
                   if result_path.is_file() else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if outcome is None:
        # The workload process crashed or ran out of time: all its steps failed.
        record["error"] = f"workload process ended with code {code} and no result"
        steps = workload.steps_per_pass
        return finish({"correct": False, "attempted": steps, "failed": steps,
                       "metrics": {}}, record, 1)
    record.update(outcome["record"])
    if not outcome["correct"]:
        record["errors"] = outcome["errors"]
        return finish({"correct": False, "attempted": outcome["attempted"], "failed": 0,
                       "metrics": {}}, record, 1)

    values = dict(outcome["metrics"], setup_s=setup_s)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise SystemExit(f"error: the workload did not measure {metric['name']}")
        value = values[metric["name"]]
        if value is not None and not math.isfinite(value):
            raise SystemExit(f"error: metric {metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return finish({"correct": True, "attempted": outcome["attempted"], "failed": 0,
                   "metrics": metrics}, record, 0)


if __name__ == "__main__":
    sys.exit(main())
