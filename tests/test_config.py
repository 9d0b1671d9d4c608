"""The packaged configuration, user overrides and the spec / frequency resolver."""
import dataclasses

import pytest

from greycast import Series
from greycast.benchmarks import LinearSpec
from greycast.cli import EXIT_OK, main
from greycast.config import load_config
from greycast.models import DEFAULT_OMEGA, ModelKind
from greycast.rolling import RollingConfig, resolve_config, roll_forecast


def test_packaged_config_is_parsed_once_and_read_only():
    specs = load_config()
    assert load_config() is specs
    assert dict(specs.omega) == dict(DEFAULT_OMEGA)
    with pytest.raises(TypeError):
        specs.omega[ModelKind.GM_C] = 1.0
    with pytest.raises(TypeError):
        DEFAULT_OMEGA[ModelKind.GM_C] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        specs.linear = LinearSpec(intercept=0.0, coeffs=(1.0,))


def test_config_file_overrides_omega_and_specs(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[omega]\nGM_C = 0.5\n\n[linear]\nintercept = 1.0\n")
    specs = load_config(str(path))
    assert specs.omega[ModelKind.GM_C] == 0.5
    assert specs.omega[ModelKind.GM_S] == DEFAULT_OMEGA[ModelKind.GM_S]
    assert specs.linear.intercept == 1.0
    assert specs.linear.coeffs == load_config().linear.coeffs
    assert load_config().omega[ModelKind.GM_C] == DEFAULT_OMEGA[ModelKind.GM_C]


def test_resolver_precedence(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[omega]\nGM_C = 0.5\n")
    user = load_config(str(path))
    assert resolve_config(RollingConfig(model="GM_C")).omega == 2.65
    assert resolve_config(RollingConfig(model="GM_C"), user).omega == 0.5
    assert resolve_config(RollingConfig(model="GM_C", omega=1.5), user).omega == 1.5
    assert resolve_config(RollingConfig(model="GM11"), user).omega is None
    assert resolve_config(RollingConfig(model="SETAR")).benchmark_spec \
        is load_config().setar
    own = LinearSpec(intercept=0.0, coeffs=(1.0,))
    config = RollingConfig(model="LINEAR", benchmark_spec=own)
    assert resolve_config(config, user).benchmark_spec is own


def test_roll_defaults_match_the_resolved_config():
    series = Series([5.0, 6.0, 7.5, 7.0, 6.0, 5.5, 6.5, 7.0, 8.0])
    for model in ("GM_C", "EFGM_ESC", "SARIMA", "LINEAR"):
        config = RollingConfig(model=model)
        plain = roll_forecast(series, config)
        resolved = roll_forecast(series, resolve_config(config))
        assert (plain.predictions, plain.errors) == (resolved.predictions, resolved.errors)


def test_cli_forecast_reads_omega_from_config(tmp_path, capsys):
    data = tmp_path / "day.csv"
    data.write_text("timestamp,value\n" + "".join(
        f"{i},{10 + (i % 5)}\n" for i in range(1, 31)))
    user = tmp_path / "user.cfg"
    user.write_text("[omega]\nGM_C = 0.5\n")
    outputs = []
    for extra in ([], ["--config", str(user)], ["--omega", "0.5"]):
        assert main([*extra, "forecast", "GM_C", "--input", str(data)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[2]
    assert outputs[0] != outputs[1]
