"""A short roll's fixed costs, cut without moving a bit.

An online arrival rolls each model over a few points, so what surrounds the
kernels is most of its cost. Each shortcut taken there is checked here
against the computation it replaced, in float hex:

- ``Failures.add`` lets a stack of one's passing check, a Python ``False``,
  through before any numpy call: fed bools, it records what one-element
  arrays record.
- A roll's trace builds ``predictions``, ``fallbacks`` and ``errors`` on
  first read, without a lock (``rolling._kept``): they equal the tuples the
  eager build and ``functools.cached_property`` gave, for all 16 models.
- ``models._solve`` reads a float system's entries only when their total is
  not finite.
- ``models._trig_part`` finishes on floats what it starts on numpy scalars.
- GM_ESC's stage two multiplies floats on a stack of one.
- ``report`` scores each trace from one array of misses, without the
  metrics' input checks.
- ``data.ingest_csv`` computes a stamp's day once for all its locations.
"""
import functools
import itertools
import json
import sys
import threading
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from greycast import Series, models, rolling
from greycast.data import Dataset, ingest_csv
from greycast.errors import InvalidInputError
from greycast.metrics import mape, rmse
from greycast.models import Failures, ModelKind, WindowFits, fit_esc_windows, fit_windows
from greycast.report import compare
from greycast.rolling import ALL_MODEL_NAMES, ForecastTrace, RollingConfig, roll_forecast
from test_engine import adversarial_series
from test_online_roll import SETTINGS

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rolls.json").read_text())


def hexed(value):
    """Floats as hex, recursively through tuples and lists; the rest as is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(hexed(v) for v in value)
    return value


# -- Failures ------------------------------------------------------------------

def record(failures: Failures):
    return (failures.failed.tolist(), sorted(failures.overflows),
            {i: (type(e), str(e)) for i, e in failures.errors.items()})


CHECKS = list(itertools.product((False, True), (False, True)))  # (where, overflow)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_failures_fed_bools_record_what_one_element_arrays_record(length):
    for sequence in itertools.product(CHECKS, repeat=length):
        fed = {"bool": Failures(1), "array": Failures(1), "numpy bool": Failures(1)}
        for n, (where, overflow) in enumerate(sequence):
            error = functools.partial(lambda n, i: InvalidInputError(f"check {n}, window {i}"), n)
            fed["bool"].add(where, error, overflow)
            fed["array"].add(np.array([where]), error, overflow)
            fed["numpy bool"].add(np.bool_(where), error, overflow)
        records = {name: record(failures) for name, failures in fed.items()}
        assert records["bool"] == records["array"] == records["numpy bool"], sequence


def test_a_copy_of_failures_is_its_own():
    original = Failures(3)
    original.add(np.array([True, False, False]), lambda i: InvalidInputError("first"), True)
    before = record(original)
    other = original.copy()
    assert record(other) == before
    other.add(np.array([True, True, True]), lambda i: InvalidInputError("second"), True)
    assert record(original) == before
    assert record(other) != before


# -- the trace's tuple views and errors -----------------------------------------

class CachedViews:
    """The tuple views as ``functools.cached_property`` built them."""

    def __init__(self, trace: ForecastTrace):
        self.trace = trace

    @functools.cached_property
    def predictions(self):
        first, trace = self.trace.start_index, self.trace
        return tuple(zip(range(first, first + trace.predicted_values.size),
                         trace.predicted_values.tolist(), trace.observed_values.tolist()))

    @functools.cached_property
    def fallbacks(self):
        return tuple(self.trace.fallback_flags.tolist())


def eager_errors(trace: ForecastTrace):
    """``errors`` as the roll built it before returning: each flagged step's
    target index and message, from the roll's {step: message}."""
    messages = trace.__dict__["_messages"]
    assert sorted(messages) == np.flatnonzero(trace.fallback_flags).tolist()
    if not messages:
        return ()
    steps = np.flatnonzero(trace.fallback_flags)
    return tuple(zip((steps + trace.start_index).tolist(),
                     map(messages.__getitem__, steps.tolist())))


def assert_views_match(values, config: RollingConfig) -> None:
    try:
        trace = roll_forecast(Series(values), config)
    except InvalidInputError as exc:
        assert "differ by more than the float range" in str(exc)
        return
    expected = CachedViews(trace)
    errors = eager_errors(trace)  # before the first read of ``trace.errors``
    assert "errors" not in trace.__dict__ and "predictions" not in trace.__dict__
    assert hexed(trace.predictions) == hexed(expected.predictions)
    assert trace.fallbacks == expected.fallbacks
    assert trace.errors == errors
    assert [target for target, _ in trace.errors] == [
        target for (target, _, _), flag in zip(trace.predictions, trace.fallbacks) if flag]
    assert trace.predictions is trace.predictions and trace.errors is trace.errors


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_trace_views_equal_the_eager_and_cached_property_builds(model, setting):
    config = RollingConfig(model=model, **SETTINGS[setting])
    for values in GOLDEN["series"].values():
        if len(values) > config.effective_window():
            assert_views_match(np.array(values), config)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial_series(), st.sampled_from(ALL_MODEL_NAMES), st.sampled_from(list(SETTINGS)))
def test_trace_views_match_on_adversarial_series(values, model, setting):
    config = RollingConfig(model=model, **SETTINGS[setting])
    if np.isfinite(values).all() and values.size > config.effective_window():
        assert_views_match(values, config)


@pytest.mark.parametrize("model", ["ARIMA", "SARIMA"])
def test_warm_up_steps_carry_their_history_length(model):
    values = np.array(GOLDEN["series"]["seasonal"])
    config = RollingConfig(model=model)
    need = rolling.resolve_config(config).benchmark_spec.min_history
    trace = roll_forecast(Series(values), config)
    w = config.effective_window()
    assert trace.errors == tuple((w + 1 + j, f"history of {w + j} < required {need}")
                                 for j in range(need - w))


def test_a_constructed_trace_keeps_the_errors_it_was_given():
    trace = roll_forecast(Series(GOLDEN["series"]["spikes"]), RollingConfig())
    given_errors = ((7, "made up"),)
    built = ForecastTrace(trace.model, trace.start_index, trace.predicted_values,
                          trace.observed_values, trace.fallback_flags, trace.residuals,
                          trace.per_step_time, given_errors)
    assert built.errors is given_errors
    assert "_messages" not in built.__dict__
    assert built != trace and trace.errors
    assert ForecastTrace.errors.__doc__ and ForecastTrace.predictions.__doc__


def test_threads_reading_fresh_errors_get_equal_tuples():
    values = Series(GOLDEN["series"]["traffic_day"])
    want = roll_forecast(values, RollingConfig(model="SARIMA")).errors
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            trace = roll_forecast(values, RollingConfig(model="SARIMA"))
            start, seen = threading.Barrier(4), [None] * 4

            def read(slot):
                start.wait(timeout=10)
                seen[slot] = trace.errors

            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert all(errors == want for errors in seen)
    finally:
        sys.setswitchinterval(old)


# -- the float feed ---------------------------------------------------------------

def fit_outcome(fits: WindowFits, i: int):
    """Window i's parameters in float hex, or its error's class and message."""
    if i in fits.failures.errors:
        error = fits.failures.errors[i]
        return type(error), str(error)
    return [float(np.atleast_1d(getattr(fits, name))[i]).hex()
            for name in ("a", "b", "bs", "bc", "x0_1")]


# Windows whose mean sequence or its square is finite in every entry while
# their total overflows (3.5e153: z^2 sums past the float range), or whose
# entries overflow (1e154 and up), next to ordinary ones.
BIG_WINDOWS = [[3.5e153] * 4, [1e154] * 4, [4e307] * 4, [1e308] * 5, [50.0, 51.0, 52.5, 53.0],
               [0.0, 0.0, 0.0, 1e300], [1e-300, 2e-300, 1e-300, 3e-300]]


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_a_float_system_is_checked_as_its_stack_is(kind):
    for window in BIG_WINDOWS:
        w = max(len(window), models.MIN_WINDOW[kind])
        window = (window * 2)[:w]
        stack = np.array([window, [10.0 + k for k in range(w)]])
        with np.errstate(all="ignore"):
            alone = fit_windows(kind, stack[:1])
            stacked = fit_windows(kind, stack)
        assert isinstance(alone.a, float)
        assert fit_outcome(alone, 0) == fit_outcome(stacked, 0), window


A_VALUES = (0.0, -0.0, 1e-300, -0.3, 0.3, 2.0, -709.0, 800.0)
B_VALUES = (1.0, -2.5, 0.0, 1e300)
# omega 0 divides by zero on the numpy scalars; a^2 + omega^2 is 0 at 1e-200
# for |a| <= 1e-300. omega * 400 stays finite, as ``_increment`` makes sure.
OMEGAS = (0.0, 1e-200, 1.0, 74.1, 1e305)
TIMES = (1.0, 4.0, 5.0, 400.0)


@pytest.mark.parametrize("kind", models.TRIG_KINDS, ids=lambda kind: kind.value)
def test_the_trig_part_on_floats_equals_its_numpy_arithmetic(kind):
    for a, b, omega in itertools.product(A_VALUES, B_VALUES, OMEGAS):
        params = (a, b, 0.5 * b - 1.0, -b, 3.0)
        floats = WindowFits(kind, *params, omega, 4, Failures(1))
        arrays = WindowFits(kind, *(np.array([p]) for p in params), omega, 4, Failures(1))
        with np.errstate(all="ignore"):
            on_floats = models._trig_part(floats, TIMES)
            on_arrays = models._trig_part(arrays, TIMES)
        assert all(isinstance(q, float) for q in on_floats)
        assert [float(q).hex() for q in on_floats] == [
            float(q[0]).hex() for q in on_arrays], (a, b, omega)


def esc_windows():
    rng = np.random.default_rng(22)
    for scale in (-300, -100, -5, 0, 5, 100, 300):
        for _ in range(12):
            values = rng.uniform(0.0, 100.0, 4)
            if rng.random() < 0.3:
                values[rng.integers(0, 4):] = 0.0
            yield values * 10.0 ** scale


@pytest.mark.parametrize("omega", [0.05, 1.3, 74.1, 1e306])
def test_esc_stage_two_on_floats_equals_the_array_feed(omega):
    for window in esc_windows():
        stack = np.array([window, window[::-1], window + 1.0])
        with np.errstate(all="ignore"):
            alone = fit_esc_windows(fit_windows(ModelKind.GM11, stack[:1]), stack[:1], omega)
            stacked = fit_esc_windows(fit_windows(ModelKind.GM11, stack), stack, omega)
        assert isinstance(alone.a, float)
        assert fit_outcome(alone, 0) == fit_outcome(stacked, 0), window
        assert (0 in alone.failures.overflows) == (0 in stacked.failures.overflows)


# -- report rows ------------------------------------------------------------------

def scored_series():
    rng = np.random.default_rng(5)
    seasonal = 20.0 + 5.0 * np.sin(np.arange(80) / 2.0) + rng.normal(0.0, 0.5, 80)
    with_zeros = seasonal.copy()
    with_zeros[[10, 11, 12, 40, 41]] = 0.0
    stuck_zero = np.concatenate((seasonal[:20], np.zeros(12), seasonal[:20]))
    return [seasonal, with_zeros, stuck_zero, np.array(GOLDEN["series"]["traffic_day"])]


@pytest.mark.parametrize("count", [1, 2, 4])
def test_report_rows_equal_rmse_and_mape(count):
    dataset = Dataset(series=tuple(Series(v) for v in scored_series()[-count:]))
    report, traces = compare(dataset)
    assert any(0.0 in trace.observed_values for trace in traces)
    for row in report.rows:
        own = [trace for trace in traces if trace.model == row.model]
        assert len(own) == count and not row.failed
        results = [mape(t.predicted_values, t.observed_values) for t in own]
        expected_rmse = float(np.mean(sorted(rmse(t.predicted_values, t.observed_values)
                                             for t in own)))
        expected_mape = float(np.mean(sorted(result.value for result in results)))
        assert row.rmse.hex() == expected_rmse.hex()
        assert row.mape.hex() == expected_mape.hex()
        assert row.excluded_pairs == sum(result.excluded for result in results)


def test_a_report_row_of_zero_observations_only():
    dataset = Dataset(series=(Series(np.zeros(12)),))
    report, traces = compare(dataset, models=["GM11", "LINEAR"])
    for row, trace in zip(report.rows, traces):
        assert row.mape == 0.0 and row.excluded_pairs == trace.observed_values.size
        assert row.rmse.hex() == rmse(trace.predicted_values, trace.observed_values).hex()


# -- ingest ---------------------------------------------------------------------------

def test_ingest_groups_rows_by_each_stamps_day_and_location(tmp_path):
    """Stamps shared by two locations, across two midnights, where
    the day key is the stamp's own calendar day."""
    rows = []
    for day, hour, minute in itertools.product((1, 2), (22, 23, 0, 1), (0, 30)):
        stamp = datetime(2024, 3, day + (hour < 12), hour, minute).isoformat()
        for location, value in (("north", hour + minute / 60.0), ("south", float(day))):
            rows.append((stamp, value, location))
    path = tmp_path / "two.csv"
    path.write_text("timestamp,value,location\n" + "".join(
        f"{stamp},{value!r},{location}\n" for stamp, value, location in rows))
    groups = {}
    for stamp, value, location in rows:
        key = (datetime.fromisoformat(stamp).date().isoformat(), location)
        groups.setdefault(key, []).append((stamp, value))
    dataset = ingest_csv(str(path))
    assert [s.label for s in dataset.series] == [f"{d} {loc}" for d, loc in sorted(groups)]
    for series, key in zip(dataset.series, sorted(groups)):
        assert series.values.tolist() == [v for _, v in sorted(groups[key])]
        assert series.interval == 1800.0
