"""greycast keeps the contract the benchmark's tracer relies on.

``perfbench/tracer.py`` wraps greycast's functions by name at every module
that holds them, and its traced runs count forecast steps through the
``rolling.roll_forecast`` wrapper. Every hooked name must exist, and every
roll made by ``compare`` or ``calibrate_omega`` must go through that
function, once per (model, series) and once per grid candidate.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import greycast.cli  # noqa: F401  (imports every module the tracer patches)
from greycast import Series, report, rolling
from greycast.config import load_config
from greycast.data import Dataset
from greycast.models import ModelKind
from greycast.rolling import ALL_MODEL_NAMES, OmegaGrid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def seasonal(n: int, seed: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    noise = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return 30.0 + 10.0 * np.sin(2.0 * np.pi * k / 12.0) + noise


def test_every_hook_names_a_callable(tracer_module):
    for hook in tracer_module.HOOKS:
        module_name, attr = hook.rsplit(".", 1)
        module = importlib.import_module(f"greycast.{module_name}")
        assert callable(getattr(module, attr, None)), hook


def test_compare_rolls_once_per_model_and_series(tracer, tracer_module):
    assert tracer.missing == []
    data = Dataset(series=(Series(seasonal(60, 1)), Series(seasonal(45, 2))))
    models = list(ALL_MODEL_NAMES) + ["EFGM", "GM11"]
    _, traces = report.compare(data, models=models, specs=load_config())
    stats = tracer.snapshot()
    assert stats[f"{tracer_module.ROLL}.calls"] == len(models) * len(data.series)
    assert stats["rolling.steps"] == sum(len(t.predictions) for t in traces)


def test_calibration_rolls_once_per_candidate(tracer, tracer_module):
    grid = OmegaGrid(0.5, 1.0, 0.1)
    for kind in (ModelKind.GM_C, ModelKind.GM_ESC):
        tracer.reset()
        rolling.calibrate_omega(Series(seasonal(60, 3)), kind, grid)
        stats = tracer.snapshot()
        assert stats[f"{tracer_module.ROLL}.calls"] == grid.candidates().size
        assert stats["rolling.steps"] == grid.candidates().size * (60 - 4)
        assert stats["rolling.calibrate_omega.calls"] == 1
