"""``--omega X`` and ``--omega=X`` are one option value, whatever float X is.

argparse reads a token that starts with "-" as an option unless it looks like
a plain negative number, so ``--omega -1e3`` and ``--omega -inf`` used to stop
with "expected one argument" (exit 2) while ``--omega=-1e3`` ran.
"""
import pytest

from greycast.cli import main


@pytest.fixture
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    rows = [f"{i},{10.0 + (i % 7)}" for i in range(1, 30)]
    path.write_text("timestamp,value\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("value", ["-2", "-1e3", "-inf", "2.5"])
def test_both_spellings_give_the_same_run(series_csv, capsys, value):
    runs = []
    for spelling in (["--omega", value], [f"--omega={value}"]):
        code = main(spelling + ["forecast", "GM_C", "--input", series_csv])
        runs.append((code, capsys.readouterr()))
    (code, out), (joined_code, joined_out) = runs
    assert code == joined_code == 0
    assert out.out == joined_out.out and out.err == joined_out.err
    assert out.out.startswith("series,model,index,observed,predicted,residual,fallback_flag")


def test_a_value_that_is_not_a_float_is_still_refused(series_csv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--omega", "-x", "forecast", "GM_C", "--input", series_csv])
    assert stop.value.code == 2
    assert "--omega" in capsys.readouterr().err

