"""Machine-speed gauge: a fixed kernel that no change to greycast can touch.

On a shared VM the speed of the machine itself drifts: the same greycast
code ran at speeds up to 2.5x apart within three minutes on a 2-vCPU Xeon
VM, and its CPU time moved with its wall time, so the cause is the host and
not descheduling. Runs of the same code then spread by more than any bound
could allow. The benchmark therefore reports each timed figure at the
gauge's reference speed: the measured time x ``REFERENCE_S`` / the gauge
reading taken beside it. The raw figures and the readings are kept in the
run's record.

The kernel does the work of one grey-model step with its own code and a
fixed input: a short cumulative sum, a 3x2 least-squares solve, and scalar
Python arithmetic. Its speed therefore moves with the interpreter's, numpy's
and LAPACK's, as greycast's does.

Usage: python3 perfbench/gauge.py    (prints REFERENCE_S / one reading)
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: The reference speed: a round figure near the kernel's mean time on a
#: 2-vCPU Xeon VM with Python 3.11 and numpy 2.4. It only sets the scale;
#: runs are comparable because it never changes.
REFERENCE_S = 0.0100
STEPS = 400
RUNS_PER_READING = 10

_VALUES = 50.0 + 10.0 * np.sin(np.arange(STEPS + 4) / 6.0) + np.cos(np.arange(STEPS + 4))
_ONES = np.ones(3)


def kernel() -> float:
    total = 0.0
    for i in range(STEPS):
        x = _VALUES[i:i + 4]
        x1 = np.cumsum(x)
        z = 0.5 * (x1[1:] + x1[:-1])
        a, b = np.linalg.lstsq(np.column_stack((-z, _ONES)), x[1:], rcond=None)[0]
        a, b = float(a), float(b)
        total += (x[0] - b / a) * math.exp(-a * 4.0) if a else 0.0
        errors = [abs(p - q) for p, q in zip(x, x1)]
        total += sum(errors) / len(errors)
    return total


def read() -> float:
    """One reading: the mean time of RUNS_PER_READING kernel runs, in seconds."""
    start = perf_counter()
    for _ in range(RUNS_PER_READING):
        kernel()
    return (perf_counter() - start) / RUNS_PER_READING


_stamps: list = []
_readings: list = []


def tick() -> None:
    """Takes a reading between timed operations and stamps it with its time."""
    reading = read()
    _stamps.append(perf_counter())
    _readings.append(reading)


def readings() -> list:
    return list(_readings)


def scale(starts, durations) -> np.ndarray:
    """REFERENCE_S / the reading beside each operation (start, duration): the
    median of the readings from the last one before it to the first one after
    it. The result times an operation's time is that time at reference speed."""
    stamps, values = np.asarray(_stamps), np.asarray(_readings)
    starts = np.asarray(starts, dtype=float)
    first = np.maximum(np.searchsorted(stamps, starts) - 1, 0)
    last = np.searchsorted(stamps, starts + np.asarray(durations, dtype=float))
    return np.array([REFERENCE_S / float(np.median(values[i:j + 1]))
                     for i, j in zip(first, last)])


if __name__ == "__main__":
    kernel()
    print(repr(REFERENCE_S / read()))
