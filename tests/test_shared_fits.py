"""The rolls of one ``compare`` or ``calibrate_omega`` call share their work.

Inside one call each distinct grey fit of a series is solved once: an EF model
reads its base model's forecasts and GM_ESC starts from GM11's fits. None of
that may show: every trace ``compare`` returns must equal the standalone
``roll_forecast`` of that model and series bit for bit, whatever the call
rolled before it, and ``calibrate_omega`` must pick the frequency that a loop
of standalone rolls picks.
"""
import gc
import json
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from greycast import Series, rolling
from greycast.config import load_config
from greycast.data import Dataset
from greycast.errors import GreycastError, InsufficientDataError, NumericalDegeneracyError
from greycast.models import TRIG_KINDS, ModelKind
from greycast.report import compare
from greycast.rolling import (
    ALL_MODEL_NAMES,
    OmegaGrid,
    RollingConfig,
    calibrate_omega,
    parse_model,
    resolve_config,
    roll_forecast,
)

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rolls.json").read_text())
SPECS = load_config()


def gappy(n: int, seed: int) -> np.ndarray:
    """Seasonal counts with a zero run: GVM and EFGVM fall back on every
    window that holds a zero."""
    k = np.arange(1, n + 1)
    values = 30.0 + 10.0 * np.sin(2.0 * np.pi * k / 12.0)
    values += np.random.default_rng(seed).normal(0.0, 1.0, n)
    values[n // 2:n // 2 + 4] = 0.0
    return values


def dataset() -> Dataset:
    """Series of different lengths; "spikes" holds negative values, "tiny" is
    near-singular at every window."""
    golden = [np.array(GOLDEN["series"][name]) for name in ("wild", "tiny", "spikes")]
    return Dataset(series=tuple(Series(v, label=str(i)) for i, v in
                                enumerate([gappy(90, 1), gappy(37, 2), *golden, gappy(61, 3)])))


#: EF models ahead of their bases, GM_ESC ahead of GM11, and duplicates.
EF_FIRST = ("EFGM_ESC", "EFGM", "GM_ESC", "EFGVM", "GVM", "GM11", "EFGM_C", "GM_C",
            "EFGM", "GM_ESC", "LINEAR", "EFGM_SC", "EFGM_S", "GM_S", "GM_SC", "ARIMA",
            "SARIMA", "SETAR", "LINEAR")

#: (config, omegas) of each compare. ω = 2π makes GM_ESC's stage 2 singular
#: on every window where GM11's fit is fine.
SETTINGS = {
    "default": (RollingConfig(), None),
    "omegas": (RollingConfig(), {ModelKind.GM_C: 1.0, ModelKind.GM_ESC: 2.0 * math.pi}),
    "in-window": (RollingConfig(window=6, ef_in_window=True), None),
    "multi-step": (RollingConfig(multi_step=3), None),
    "clamped": (RollingConfig(clamp_nonnegative=True, ef_residual_window=13,
                              ef_harmonics=1), None),
}


def standalone_config(model: str, config: RollingConfig, omegas) -> RollingConfig:
    cfg = resolve_config(replace(config, model=model, benchmark_spec=None), SPECS)
    kind, _, _ = parse_model(model)
    if omegas is not None and kind in omegas:
        cfg = replace(cfg, omega=float(omegas[kind]))
    return cfg


def fingerprint(trace):
    return (trace.model,
            [(i, p.hex(), o.hex()) for i, p, o in trace.predictions],
            trace.residuals.start_index,
            [float(r).hex() for r in trace.residuals.values],
            trace.fallbacks,
            trace.errors)


def standalone_traces(data: Dataset, models, config, omegas):
    """What ``compare`` returns, rolled one (model, series) at a time."""
    traces = []
    for model in models:
        cfg = standalone_config(model, config, omegas)
        try:
            own = [roll_forecast(series, cfg) for series in data.series]
        except GreycastError:
            continue
        traces.extend(own)
    return traces


@pytest.mark.parametrize("models", [ALL_MODEL_NAMES, EF_FIRST], ids=["paper-order", "ef-first"])
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_compare_traces_equal_standalone_rolls(setting, models):
    config, omegas = SETTINGS[setting]
    data = dataset()
    report, traces = compare(data, models=models, config=config, specs=SPECS, omegas=omegas)
    assert not any(row.failed for row in report.rows)
    expected = standalone_traces(data, models, config, omegas)
    assert [fingerprint(t) for t in traces] == [fingerprint(t) for t in expected]
    assert rolling._SHARED.get() is None


def test_the_cases_reach_the_fallbacks():
    """The differential test covers GVM's zero-run fallback and stage-2
    failures of GM_ESC on windows where GM11 fits."""
    data = dataset()
    _, traces = compare(data, models=["GM11", "GVM", "GM_ESC"], specs=SPECS,
                        omegas={ModelKind.GM_ESC: 2.0 * math.pi})
    count = len(data.series)
    gm11, gvm, esc = traces[:count], traces[count:2 * count], traces[2 * count:]
    assert any("strictly positive" in text for _, text in gvm[0].errors)
    assert sum(e.fallback_count for e in esc) > sum(g.fallback_count for g in gm11)


def test_forecast_failures_stay_with_their_model():
    """400 steps ahead of a 100-fold growth GM11's closed form overflows on
    windows it fits; GM_ESC, which starts from those fits, reports its own
    overflow."""
    data = Dataset(series=(Series(100.0 ** np.arange(30.0)), Series(gappy(40, 9))))
    models = ("GM11", "GM_ESC", "EFGM", "EFGM_ESC", "GM11")
    config = RollingConfig(multi_step=400)
    _, traces = compare(data, models=models, config=config, specs=SPECS)
    assert any("GM11 closed form overflowed" in text for _, text in traces[0].errors)
    expected = standalone_traces(data, models, config, None)
    assert [fingerprint(t) for t in traces] == [fingerprint(t) for t in expected]


def test_fitted_value_failures_stay_with_their_roll(monkeypatch):
    """Failures of in-window fitted values count for the EF roll alone: GM_ESC,
    which reads the same GM11 fits, never sees them. They are injected here,
    as no real window makes its fitted values fail where its forecast does
    not."""
    real = rolling.fitted_windows

    def failing(fits):
        fitted = real(fits)
        fits.failures.add(np.arange(fits.a.size) % 3 == 0,
                          lambda i: NumericalDegeneracyError("fitted values failed"))
        return fitted

    monkeypatch.setattr(rolling, "fitted_windows", failing)
    data = Dataset(series=(Series(gappy(40, 10)),))
    models = ("GM11", "EFGM", "GM_ESC", "EFGM_ESC")
    config = RollingConfig(window=6, ef_in_window=True)
    _, traces = compare(data, models=models, config=config, specs=SPECS)
    assert any("fitted values failed" in text for _, text in traces[1].errors)
    assert not any("fitted values failed" in text for _, text in traces[2].errors)
    expected = standalone_traces(data, models, config, None)
    assert [fingerprint(t) for t in traces] == [fingerprint(t) for t in expected]


def test_a_failed_model_contributes_no_traces():
    data = Dataset(series=(Series(gappy(40, 5)), Series(np.arange(1.0, 6.0))))
    report, traces = compare(data, models=["GM11", "GM_SC", "LINEAR"], specs=SPECS)
    assert report.row("GM_SC").failed
    assert [t.model for t in traces] == ["GM11", "GM11", "LINEAR", "LINEAR"]


def reference_calibration(series: Series, kind: ModelKind, grid: OmegaGrid,
                          config: RollingConfig) -> float:
    """The frequency a loop of standalone rolls picks (ties to the smallest)."""
    best_omega, best_rmse = None, math.inf
    for omega in grid.candidates():
        try:
            trace = roll_forecast(series, replace(config, model=kind.value, omega=float(omega)))
        except GreycastError:
            continue
        if all(trace.fallbacks):
            continue
        err = trace.predicted() - trace.observed()
        with np.errstate(over="ignore"):
            rmse = float(np.sqrt(np.mean(err * err)))
        if rmse < best_rmse:
            best_omega, best_rmse = float(omega), rmse
    return best_omega


@pytest.mark.parametrize("extra", [{}, {"window": 6}, {"multi_step": 3}],
                         ids=["default", "window-6", "multi-step"])
@pytest.mark.parametrize("kind", TRIG_KINDS, ids=lambda k: k.value)
def test_calibration_picks_what_standalone_rolls_pick(kind, extra):
    series = Series(gappy(90, 4))
    grid = OmegaGrid(0.05, 6.3, 0.05)
    config = RollingConfig(**extra)
    expected = reference_calibration(series, kind, grid, config)
    assert expected != grid.lo
    assert calibrate_omega(series, kind, grid, config) == expected
    assert rolling._SHARED.get() is None


def test_calibration_rejects_a_short_series_before_any_roll(monkeypatch):
    calls = []
    monkeypatch.setattr(rolling, "roll_forecast", lambda *args: calls.append(args))
    with pytest.raises(InsufficientDataError, match=r"series of 3 < window 4 \+ 1"):
        calibrate_omega(Series([3.0, 4.0, 5.0]), ModelKind.GM_C, OmegaGrid())
    with pytest.raises(InsufficientDataError, match=r"series of 5 < window 5 \+ 1"):
        calibrate_omega(Series(np.arange(1.0, 6.0)), ModelKind.GM_SC, OmegaGrid())
    assert calls == []


def test_nothing_outlives_the_call():
    series = Series(gappy(50, 6))
    ref = weakref.ref(series.values)
    compare(Dataset(series=(series,)), specs=SPECS)
    calibrate_omega(series, ModelKind.GM_ESC, OmegaGrid(0.5, 1.0, 0.1))
    del series
    gc.collect()
    assert ref() is None


def test_rolls_of_temporary_series_never_share():
    """A series dropped inside a call can leave its array's id to the next
    one; that array must not read the dropped one's results."""
    rng = np.random.default_rng(8)
    arrays = [rng.uniform(10.0, 20.0, n) for n in (30, 30, 30, 24, 30, 24)]
    configs = [RollingConfig(model=m) for m in ("GM11", "EFGM", "GM_ESC")]
    with rolling._sharing():
        shared = [roll_forecast(Series(values), cfg) for values in arrays for cfg in configs]
    alone = [roll_forecast(Series(values), cfg) for values in arrays for cfg in configs]
    assert [fingerprint(t) for t in shared] == [fingerprint(t) for t in alone]


def test_a_reader_is_charged_what_it_borrowed():
    """A roll that reads an earlier roll's result adds that result's compute
    seconds to its own time."""
    series = Series(gappy(40, 7))
    with rolling._sharing() as shared:
        roll_forecast(series, RollingConfig(model="GM11"))
        for key, entry in list(shared.entries.items()):
            if key[1] != "windows":  # GM11's fits and forecasts
                shared.entries[key] = entry._replace(seconds=1000.0)
        readers = [roll_forecast(series, RollingConfig(model=m)) for m in ("EFGM", "GM_ESC")]
        other = roll_forecast(series, RollingConfig(model="GVM"))
    for trace in readers:
        assert sum(trace.per_step_time) >= 1000.0, trace.model
    assert sum(other.per_step_time) < 1000.0
