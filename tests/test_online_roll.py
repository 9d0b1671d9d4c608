"""The online case: one roll over the shortest trailing history per arrival.

A roll over the shortest history that still yields a target's forecast must
give that target the full roll's prediction (to the bit), flag and message,
for every model and setting. Such a roll runs outside any ``_sharing`` scope
and must never touch the shared-fits memo. Resolving a config once must not
hide explicit coefficients.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from greycast import Series, cli, rolling
from greycast.config import load_config
from greycast.data import Dataset
from greycast.errors import InvalidInputError
from greycast.report import compare
from greycast.rolling import ALL_MODEL_NAMES, RollingConfig, resolve_config, roll_forecast
from test_engine import adversarial_series

GOLDEN = json.loads((Path(__file__).parent / "golden" / "rolls.json").read_text())

SETTINGS = {
    "default": {},
    "multi-step": {"multi_step": 3},
    "clamp": {"clamp_nonnegative": True},
    "in-window": {"window": 6, "ef_in_window": True},
    "standard-psi": {"standard_psi": True},
}


def shortest_starts(values: np.ndarray, config: RollingConfig, steps: int) -> list:
    """For each step j of the full roll, the first index of the shortest
    trailing history whose roll ends with step j's forecast."""
    kind, ef, bench = rolling.parse_model(config.model)
    w = config.effective_window()
    if bench is not None:
        need = resolve_config(config).benchmark_spec.min_history
        # A history shorter than the spec's need is reported by its length.
        return [min(j, w + j - need) if w + j >= need else 0 for j in range(steps)]
    if not ef or config.ef_in_window:
        return list(range(steps))
    # The residual buffer at step j holds the base residuals of the last R
    # base-OK steps before j; once a buffer fails, every later step reuses it.
    _, _, base_errors = rolling._base_forecasts(values, w, kind, config, False)
    ok = [j for j in range(steps) if j not in base_errors]
    full = roll_forecast(Series(values), config)
    stop = next((j for j, flag in enumerate(full.fallbacks)
                 if flag and j not in base_errors
                 and dict(full.errors)[w + 1 + j] == "residuals must be finite"), None)
    starts = []
    for j in range(steps):
        before = [i for i in ok if i < (j if stop is None or j < stop else stop)]
        first = before[max(len(before) - config.ef_residual_window, 0)] if before else j
        starts.append(min(first, j))
    return starts


def bits(trace: rolling.ForecastTrace, step: int):
    target, predicted, observed = trace.predictions[step]
    message = dict(trace.errors).get(target)
    return float(predicted).hex(), float(observed).hex(), trace.fallbacks[step], message


def assert_trailing_rolls_match(values, config: RollingConfig) -> None:
    values = np.asarray(values, dtype=float)
    try:
        full = roll_forecast(Series(values), config)
    except InvalidInputError as exc:
        assert "differ by more than the float range" in str(exc)
        return
    starts = shortest_starts(values, config, len(full.predictions))
    for j, start in enumerate(starts):
        part = roll_forecast(Series(values[start:config.effective_window() + j + 1]), config)
        assert bits(part, -1) == bits(full, j), (config.model, j, start)


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_shortest_history_roll_equals_full_roll_on_golden_series(model, setting):
    config = RollingConfig(model=model, **SETTINGS[setting])
    for values in GOLDEN["series"].values():
        if len(values) > config.effective_window():
            assert_trailing_rolls_match(values, config)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial_series(), st.sampled_from(ALL_MODEL_NAMES), st.sampled_from(list(SETTINGS)))
def test_shortest_history_roll_equals_full_roll_on_adversarial_series(values, model, setting):
    config = RollingConfig(model=model, **SETTINGS[setting])
    if np.isfinite(values).all() and values.size > config.effective_window():
        assert_trailing_rolls_match(values, config)


def test_the_buffered_ef_history_reaches_past_fallbacks():
    """A GVM fallback mid-buffer makes EFGVM's shortest history longer than
    R + w + 1 points, and the rolls above still match."""
    values = 30.0 + 10.0 * np.sin(np.arange(90) / 2.0)
    values[40:44] = 0.0
    config = RollingConfig(model="EFGVM", ef_residual_window=8)
    starts = shortest_starts(values, config, values.size - 4)
    assert max(j - start for j, start in enumerate(starts)) > 8
    assert_trailing_rolls_match(values, config)


@pytest.fixture
def memo_forbidden(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a roll outside _sharing read the shared-fits memo")
    monkeypatch.setattr(rolling._SharedFits, "get", forbidden)


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_a_roll_outside_sharing_never_reads_the_memo(memo_forbidden, setting):
    values = Series(GOLDEN["series"]["seasonal"])
    for model in ALL_MODEL_NAMES:
        roll_forecast(values, RollingConfig(model=model, **SETTINGS[setting]))
    assert rolling._SHARED.get() is None


def test_inside_sharing_the_memo_is_read(memo_forbidden):
    with rolling._sharing():
        with pytest.raises(AssertionError, match="shared-fits memo"):
            roll_forecast(Series(GOLDEN["series"]["seasonal"]), RollingConfig())


USER_INI = """
[linear]
intercept = 5.0
coeffs = 0.5, 0.25
[omega]
GM_C = 0.75
"""


@pytest.fixture
def user_ini(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text(USER_INI)
    return path


def test_a_resolved_config_does_not_hide_explicit_specs(user_ini):
    user = load_config(str(user_ini))
    values = Series(GOLDEN["series"]["seasonal"])
    for model in ("LINEAR", "GM_C"):
        config = RollingConfig(model=model)
        roll_forecast(values, config)  # resolves against the packaged defaults
        assert resolve_config(config) is resolve_config(config)
        packaged, own = resolve_config(config), resolve_config(config, user)
        assert own.benchmark_spec == (user.linear if model == "LINEAR" else None)
        assert own.omega == (0.75 if model == "GM_C" else None)
        assert packaged.benchmark_spec == (load_config().linear if model == "LINEAR" else None)
        assert packaged.omega == (load_config().omega[rolling.ModelKind.GM_C]
                                  if model == "GM_C" else None)
    explicit = RollingConfig(model="LINEAR", benchmark_spec=user.linear)
    assert resolve_config(explicit) is explicit


def test_compare_applies_its_specs_after_a_packaged_roll(user_ini):
    user = load_config(str(user_ini))
    values = Series(GOLDEN["series"]["seasonal"])
    base = RollingConfig()
    packaged = roll_forecast(values, replace(base, model="LINEAR"))
    _, traces = compare(Dataset(series=(values,)), models=["LINEAR"], config=base, specs=user)
    expected = roll_forecast(values, RollingConfig(model="LINEAR", benchmark_spec=user.linear))
    assert traces[0] == expected
    assert traces[0] != packaged


def test_cli_config_override_reaches_the_roll(user_ini, tmp_path, capsys):
    values = GOLDEN["series"]["seasonal"]
    data = tmp_path / "series.csv"
    data.write_text("timestamp,value\n" + "".join(
        f"{i},{v!r}\n" for i, v in enumerate(values, start=1)))
    roll_forecast(Series(values), RollingConfig(model="LINEAR"))
    runs = {}
    for name, extra in (("packaged", []), ("user", ["--config", str(user_ini)])):
        out = tmp_path / f"{name}.csv"
        assert cli.main(extra + ["forecast", "LINEAR", "--input", str(data),
                                 "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        runs[name] = [float(row[4]) for row in rows]
    capsys.readouterr()
    for name, specs in (("packaged", load_config()), ("user", load_config(str(user_ini)))):
        config = RollingConfig(model="LINEAR", benchmark_spec=specs.linear)
        assert runs[name] == list(roll_forecast(Series(values), config).predicted())
    assert runs["packaged"] != runs["user"]
