"""Write the golden rolls fixture that ``tests/test_engine.py`` checks against.

The fixture records what ``roll_forecast`` emits for the twelve grey models on
a few hand-built series: every prediction, every fallback flag and every
error message. It pins the engine's output to a reference implementation, so
it is generated once, with the reference code on ``PYTHONPATH``:

    PYTHONPATH=<reference checkout>/src python3 tests/golden/make_golden.py

Predictions are stored to 13 significant digits, and flagged steps store
``null`` (their prediction is the previous observation). Each error is a
(target, message number) pair into one message table. Condition estimates in
messages are replaced by ``#``: they are the ratio of the extreme singular
values of a (near-)singular system, whose last digits depend on the LAPACK
routine.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

from greycast import RollingConfig, Series, roll_forecast
from greycast.rolling import GREY_MODEL_NAMES

OUT = Path(__file__).resolve().parent / "rolls.json"
EF_MODELS = tuple(m for m in GREY_MODEL_NAMES if m.startswith("EF"))


def mask(message: str) -> str:
    return re.sub(r"condition estimate [^)]*", "condition estimate #", message)


def seasonal(rng, n: int) -> list:
    k = np.arange(1, n + 1)
    values = 20.0 + 5.0 * np.sin(2.0 * np.pi * k / 12.0) + rng.normal(0.0, 0.5, n)
    return [round(float(v), 4) for v in np.clip(values, 0.0, None)]


def traffic_day(rng) -> list:
    """A day of 15-minute counts shaped like the benchmark's month: a night run
    of zeros, an incident dip and a stuck sensor."""
    hours = np.arange(96) * 0.25
    profile = (3.0 + 70.0 * np.exp(-((hours - 8.0) / 1.5) ** 2)
               + 60.0 * np.exp(-((hours - 17.5) / 2.0) ** 2)
               + 25.0 * np.exp(-((hours - 13.0) / 3.0) ** 2))
    counts = rng.poisson(profile).astype(float)
    counts[6:18] = 0.0
    counts[52:55] = np.floor(counts[52:55] * 0.3)
    counts[76:80] = counts[76]
    return [float(v) for v in counts]


def spikes(rng) -> list:
    values = 10.0 + rng.normal(0.0, 0.3, 60)
    values[[12, 30, 45]] *= 100.0
    values[38] = 0.0
    values[52] = -1.0
    return [round(float(v), 4) for v in values]


def wild(rng) -> list:
    """Log-uniform values over eight decades: near-singular and overflowing fits."""
    return [round(float(v), 4) for v in 10.0 ** rng.uniform(-1.0, 7.0, 60)]


def record(values: list, config: RollingConfig, messages: list) -> dict:
    trace = roll_forecast(Series(values), config)
    errors = []
    for target, message in trace.errors:
        text = mask(message)
        if text not in messages:
            messages.append(text)
        errors.append([target, messages.index(text)])
    return {
        "flags": "".join("1" if f else "0" for f in trace.fallbacks),
        "pred": [None if f else float(f"{p:.13g}")
                 for (_, p, _), f in zip(trace.predictions, trace.fallbacks)],
        "errors": errors,
    }


def main() -> int:
    rng = np.random.default_rng(20260)
    base = seasonal(rng, 72)
    series = {
        "seasonal": base,
        "traffic_day": traffic_day(rng),
        "spikes": spikes(rng),
        "wild": wild(np.random.default_rng(0)),
        "tiny": [v * 1e-300 for v in base[:30]],
        "huge": [v * 1e300 for v in base[:30]],
    }
    cases = [{"series": name, "models": GREY_MODEL_NAMES, "config": {}}
             for name in ("seasonal", "traffic_day", "spikes", "tiny", "huge")]
    cases.append({"series": "wild", "models": GREY_MODEL_NAMES,
                  "config": {"omega": 0.5}})
    cases.append({"series": "seasonal", "models": GREY_MODEL_NAMES,
                  "config": {"multi_step": 3}, "cut": 40})
    cases.append({"series": "seasonal", "models": EF_MODELS,
                  "config": {"window": 8, "ef_in_window": True}, "cut": 40})
    messages: list = []
    for case in cases:
        values = series[case["series"]][:case.get("cut")]
        case["rolls"] = {model: record(values, RollingConfig(model=model, **case["config"]),
                                       messages)
                         for model in case.pop("models")}
    text = json.dumps({"series": series, "messages": messages, "cases": cases},
                      separators=(",", ":"))
    OUT.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
