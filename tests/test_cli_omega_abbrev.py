"""Every abbreviation argparse resolves to ``--omega`` takes a negative float
literal as its value, as ``--omega`` does; after the subcommand, ``--o`` is
the subcommand's own option."""
import pytest

from greycast.cli import _build_parser, main

ABBREVIATIONS = ["--o", "--om", "--ome", "--omeg"]


@pytest.fixture
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    rows = [f"{i},{10.0 + (i % 7)}" for i in range(1, 30)]
    path.write_text("timestamp,value\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("spelling", ABBREVIATIONS)
def test_each_abbreviation_is_omega(spelling):
    args = _build_parser().parse_args([f"{spelling}=2.5", "synth", "seasonal"])
    assert args.omega == 2.5


@pytest.mark.parametrize("value", ["-1e3", "-inf", "-2"])
@pytest.mark.parametrize("spelling", ABBREVIATIONS)
def test_an_abbreviation_takes_a_negative_value(series_csv, capsys, spelling, value):
    runs = []
    for argv in ([spelling, value], [f"--omega={value}"]):
        code = main(argv + ["--window", "5", "forecast", "GM_C", "--input", series_csv])
        runs.append((code, capsys.readouterr()))
    (code, out), (joined_code, joined_out) = runs
    assert code == joined_code == 0
    assert out.out == joined_out.out and out.err == joined_out.err


def test_after_an_option_value_the_abbreviation_is_still_joined(series_csv, capsys):
    code = main(["--window", "5", "--omeg", "-1e3", "forecast", "GM_C", "--input", series_csv])
    assert code == 0 and capsys.readouterr().out.startswith("series,model,index")


def test_after_the_subcommand_o_is_the_output_option(series_csv, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["--o", "-1e3", "forecast", "GM_C", "--input", series_csv, "--o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("series,model,index,observed,predicted")


def test_a_float_after_the_subcommand_is_left_alone(series_csv, capsys):
    # "--steps -1e3" is not joined into anything: argparse refuses it as before.
    with pytest.raises(SystemExit) as stop:
        main(["forecast", "GM_C", "--input", series_csv, "--steps", "-1e3"])
    assert stop.value.code == 2
    assert "--steps" in capsys.readouterr().err
