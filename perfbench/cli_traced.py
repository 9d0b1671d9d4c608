"""Run the greycast CLI under the tracer and write its per-layer counters.

Usage: python3 perfbench/cli_traced.py COUNTERS.json [greycast arguments...]

Exits with the CLI's own exit code. ``cli.import_s`` is the time to import
``greycast.cli`` (numpy included) in this fresh interpreter.
"""
import json
import sys
import warnings
from time import perf_counter

start = perf_counter()
import greycast.cli as cli  # noqa: E402  (the import is what is being timed)
import_s = perf_counter() - start

from tracer import Tracer  # noqa: E402


def main() -> int:
    counters_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    metrics = tracer.snapshot()
    metrics["cli.import_s"] = import_s
    metrics["metrics.runtime_warnings"] = sum(
        issubclass(w.category, RuntimeWarning) for w in caught)
    with open(counters_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "missing": tracer.missing,
                   "patched": tracer.patched}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
