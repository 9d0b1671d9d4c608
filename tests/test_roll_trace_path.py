"""The trace a roll builds by its own path is the trace the constructors build.

``roll_forecast`` hands its freshly made, read-only arrays to the trace and to
its residuals without the public constructors' copies and checks. That path
must give the very trace ``ForecastTrace(...)`` and ``ResidualSeries(...)``
build from the same columns, keep every column read-only, and memoise the
tuple views without a lock: a second read returns the same object, and
threads that race on a fresh trace all get equal tuples.
"""
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from greycast import Series
from greycast.fourier import ResidualSeries
from greycast.rolling import ForecastTrace, RollingConfig, roll_forecast

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rolls.json").read_text())
CASES = [("GM11", "seasonal", {}), ("EFGM_C", "spikes", {}), ("GVM", "traffic_day", {}),
         ("GM_SC", "wild", {"clamp_nonnegative": True}), ("ARIMA", "seasonal", {}),
         ("EFGVM", "huge", {"window": 6, "ef_in_window": True})]


def rolled(model, name, extra):
    values = np.array(GOLDEN["series"][name])
    return roll_forecast(Series(values), RollingConfig(model=model, **extra))


def rebuilt(trace: ForecastTrace) -> ForecastTrace:
    """The trace of the same columns, through the public constructors."""
    residuals = ResidualSeries(trace.residuals.values.copy(), trace.residuals.start_index)
    return ForecastTrace(model=trace.model, start_index=trace.start_index,
                         predicted_values=trace.predicted_values.copy(),
                         observed_values=trace.observed_values.copy(),
                         fallback_flags=trace.fallback_flags.copy(),
                         residuals=residuals, per_step_time=trace.per_step_time,
                         errors=trace.errors)


@pytest.mark.parametrize("model,name,extra", CASES)
def test_the_roll_path_equals_the_public_constructors(model, name, extra):
    trace = rolled(model, name, extra)
    public = rebuilt(trace)
    assert trace == public and public == trace
    assert trace.residuals == public.residuals
    for column in ("predicted_values", "observed_values", "fallback_flags"):
        mine, theirs = getattr(trace, column), getattr(public, column)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
    assert trace.residuals.values.dtype == float
    assert trace.residuals.values.tobytes() == public.residuals.values.tobytes()
    assert trace.predictions == public.predictions
    assert trace.fallbacks == public.fallbacks
    assert trace.fallback_count == public.fallback_count


@pytest.mark.parametrize("model,name,extra", CASES)
def test_the_columns_and_residuals_are_read_only(model, name, extra):
    trace = rolled(model, name, extra)
    for column in (trace.predicted_values, trace.observed_values, trace.fallback_flags,
                   trace.residuals.values):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[0]
        with pytest.raises(ValueError):
            column += column


def test_a_second_read_returns_the_same_tuples():
    trace = rolled("GM11", "seasonal", {})
    assert trace.predictions is trace.predictions
    assert trace.fallbacks is trace.fallbacks
    assert replace(trace).predictions == trace.predictions


def test_threads_reading_a_fresh_trace_get_equal_tuples():
    expected = rolled("SARIMA", "traffic_day", {})
    want = (expected.predictions, expected.fallbacks)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            trace = rolled("SARIMA", "traffic_day", {})
            start = threading.Barrier(8)
            seen = [None] * 8

            def read(slot):
                start.wait(timeout=10)
                seen[slot] = (trace.predictions, trace.fallbacks)

            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert all(views == want for views in seen)
            # Whichever thread stored last, later reads all see one object.
            assert trace.predictions is trace.predictions
    finally:
        sys.setswitchinterval(old)


def test_a_trace_is_still_unhashable():
    with pytest.raises(TypeError):
        hash(rolled("GM_C", "seasonal", {}))


def test_replace_still_copies_a_writable_column():
    trace = rolled("GM11", "spikes", {})
    predicted = trace.predicted()
    flags = trace.fallback_flags.copy()
    other = replace(trace, model="X", predicted_values=predicted, fallback_flags=flags)
    predicted[0] += 1.0
    flags[0] = not flags[0]
    assert other.model == "X"
    assert other.predicted_values is not predicted and other.fallback_flags is not flags
    assert not other.predicted_values.flags.writeable
    assert other.predicted_values[0] == trace.predicted_values[0]
    assert other.fallback_flags[0] == trace.fallback_flags[0]
    assert other.predictions == trace.predictions
    # A read-only column the roll made needs no copy, and is kept as it is.
    assert replace(trace, model="X").predicted_values is trace.predicted_values
