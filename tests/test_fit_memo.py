"""What the shared-fits memo shares, and what a report's CT reads.

Inside one ``compare`` or ``calibrate_omega`` call each distinct fit of a
(kind, window length, batch, ω) is solved once: an EF model evaluates its base
model's fits and GM_ESC's second stage starts from GM11's. A report's CT
column is read from the traces, not from a clock of its own.
"""
import numpy as np
import pytest

from greycast import Series, rolling
from greycast.config import load_config
from greycast.data import Dataset
from greycast.models import ModelKind
from greycast.report import compare
from greycast.rolling import ALL_MODEL_NAMES, OmegaGrid, calibrate_omega

SPECS = load_config()


def seasonal(n: int, seed: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    noise = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return 30.0 + 10.0 * np.sin(2.0 * np.pi * k / 12.0) + noise


@pytest.fixture
def solves(monkeypatch):
    """The kinds ``fit_windows`` solves and the count of GM_ESC stage twos."""
    calls = {"fit_windows": [], "fit_esc_windows": 0}
    fit_windows, fit_esc_windows = rolling.fit_windows, rolling.fit_esc_windows

    def counted_fit(kind, windows, omega=None):
        calls["fit_windows"].append(kind)
        return fit_windows(kind, windows, omega)

    def counted_esc(stage_one, windows, omega=None):
        calls["fit_esc_windows"] += 1
        return fit_esc_windows(stage_one, windows, omega)

    monkeypatch.setattr(rolling, "fit_windows", counted_fit)
    monkeypatch.setattr(rolling, "fit_esc_windows", counted_esc)
    return calls


def test_compare_solves_each_distinct_fit_once_per_series(solves):
    data = Dataset(series=(Series(seasonal(60, 1)), Series(seasonal(45, 2))))
    report, traces = compare(data, models=["GM11", "EFGM", "GM_ESC", "EFGM_ESC", "GM11"],
                             specs=SPECS)
    assert not any(row.failed for row in report.rows)
    assert len(traces) == 10
    assert solves["fit_windows"] == [ModelKind.GM11, ModelKind.GM11]
    assert solves["fit_esc_windows"] == 2


def test_calibration_fits_gm11_once(solves):
    grid = OmegaGrid(0.5, 1.0, 0.1)
    calibrate_omega(Series(seasonal(60, 3)), ModelKind.GM_ESC, grid)
    assert solves["fit_windows"] == [ModelKind.GM11]
    assert solves["fit_esc_windows"] == grid.candidates().size


def test_compute_time_is_the_mean_trace_time():
    data = Dataset(series=(Series(seasonal(60, 4)), Series(seasonal(30, 5)),
                           Series(seasonal(80, 6))))
    report, traces = compare(data, specs=SPECS)
    count = len(data.series)
    rows = [row for row in report.rows if not row.failed]
    assert [row.model for row in rows] == list(ALL_MODEL_NAMES)
    for m, row in enumerate(rows):
        own = traces[m * count:(m + 1) * count]
        assert {trace.model for trace in own} == {row.model}
        assert row.compute_time == float(np.mean([sum(t.per_step_time) for t in own]))
