"""Every record that holds arrays compares by value and is unhashable.

``Series([1.0, 2.0]) == Series([1.0, 2.0])`` once raised numpy's "truth
value of an array is ambiguous", and so did ``series in [other]``; each
record now compares its fields, arrays by ``np.array_equal``, and equals no
record of another class. The records inherit that rule and their unchecked
builder from one base, ``series._Record``; no other class writes its own.
"""
import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from greycast import Series
from greycast.data import Dataset
from greycast.fourier import ResidualSeries
from greycast.lstsq import LeastSquaresProblem
from greycast.rolling import ForecastTrace, RollingConfig, roll_forecast
from greycast.series import AccumulatedSeries, MeanSeries, _Record, accumulate

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "greycast").glob("*.py"))

VALUES = np.array([3.0, 1.5, 4.25, 1.0, 5.5])


def _trace(values):
    n = values.size
    return ForecastTrace("GM11", 2, values, values[::-1], np.arange(n) % 2 == 0,
                         ResidualSeries(values), (0.5,) * n, ((2, "no fit"),))


#: Each record, built from one array of values.
RECORDS = {
    "Series": lambda v: Series(v, interval=300.0, label="loop 7"),
    "Dataset": lambda v: Dataset((Series(v), Series(v + 1.0)), source="day.csv"),
    "AccumulatedSeries": lambda v: AccumulatedSeries(v, Series(v)),
    "MeanSeries": MeanSeries,
    "ResidualSeries": lambda v: ResidualSeries(v, start_index=5),
    "ForecastTrace": _trace,
    "LeastSquaresProblem": lambda v: LeastSquaresProblem(np.column_stack([v, v * v]), v),
}


def _one_ulp_up(values):
    changed = values.copy()
    changed[-1] = np.nextafter(changed[-1], np.inf)
    return changed


@pytest.mark.parametrize("build", RECORDS.values(), ids=list(RECORDS))
def test_a_record_compares_by_value_and_is_unhashable(build):
    record = build(VALUES)
    copy = build(VALUES.copy())
    assert record == copy and not record != copy
    assert record in [build(VALUES[:-1]), copy]
    others = [build(_one_ulp_up(VALUES)), build(VALUES[:-1])]
    others += [other(VALUES) for other in RECORDS.values() if other is not build]
    for other in others:
        assert (record == other) is False and (other == record) is False
        assert record != other
    assert record not in others
    with pytest.raises(TypeError):
        hash(record)


def test_a_roll_trace_equals_its_rerun_whatever_its_timings():
    series = Series(20.0 + 5.0 * np.sin(np.arange(60) / 3.0))
    config = RollingConfig("ARIMA")  # 47 warm-up steps fall back
    first, second = roll_forecast(series, config), roll_forecast(series, config)
    assert first == second and first.errors
    retimed = {f.name: getattr(first, f.name) for f in fields(first)}
    retimed["per_step_time"] = (1e9,) * len(first.per_step_time)
    assert ForecastTrace(**retimed) == first
    assert [f.name for f in fields(ForecastTrace) if not f.compare] == ["per_step_time"]
    assert accumulate(series) == accumulate(Series(series.values.copy()))


def test_the_unchecked_builder_keeps_the_fields_it_is_given():
    values = np.array([1.0, 2.0])
    values.setflags(write=False)
    residuals = ResidualSeries._unchecked(values=values, start_index=3)
    assert residuals.values is values and residuals == ResidualSeries(values, 3)
    assert type(residuals) is ResidualSeries


def test_no_class_writes_its_own_equality_hash_or_unchecked_builder():
    own = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name != "_Record":
                for stmt in node.body:
                    names = ([stmt.name] if isinstance(stmt, ast.FunctionDef) else
                             [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)])
                    own += [f"{path.name}:{node.name}.{name}" for name in names
                            if name in ("__eq__", "__hash__", "_unchecked")]
    assert own == []
    assert {"__eq__", "__hash__", "_unchecked"} <= set(vars(_Record))
