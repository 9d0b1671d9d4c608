"""Through the public API: a model's compute time includes the fits it reads.

Inside ``compare`` an EF model reads its base model's fits and GM_ESC starts
from GM11's. Each row's compute time must still state what the model costs
on its own, so a slow GM11 fit shows in the rows of EFGM and GM_ESC too, and
not in the row of GVM, which reads nothing of GM11.
"""
import time

import numpy as np

from greycast import Series, rolling
from greycast.data import Dataset
from greycast.models import ModelKind
from greycast.report import compare

DELAY = 0.2


def test_readers_are_charged_for_a_slow_base_fit(monkeypatch):
    fit_windows = rolling.fit_windows

    def slow(kind, windows, omega=None):
        if kind is ModelKind.GM11:
            time.sleep(DELAY)
        return fit_windows(kind, windows, omega)

    monkeypatch.setattr(rolling, "fit_windows", slow)
    k = np.arange(40)
    series = Series(30.0 + 5.0 * np.sin(k / 3.0) + np.random.default_rng(5).normal(0, 1, 40))
    report, _ = compare(Dataset(series=(series,), source="test"),
                        ["GM11", "EFGM", "GM_ESC", "GVM"])
    times = {row.model: row.compute_time for row in report.rows}
    assert times["GM11"] >= DELAY
    assert times["EFGM"] >= DELAY
    assert times["GM_ESC"] >= DELAY
    assert times["GVM"] < DELAY
