"""The CLI reads every series of its input.

``ingest_csv`` makes one series per (day, location). ``forecast`` rolls each
of them, in order, and writes each trace under its series' label; a roll
that fails on any series stops the command with its own message and exit 2.
``calibrate`` searches one series' frequency, so it refuses an input that
holds more than one.
"""
import pytest

from greycast.cli import EXIT_INVALID_INPUT, EXIT_OK, main
from greycast.data import ingest_csv
from greycast.report import format_trace_csv
from greycast.rolling import RollingConfig, resolve_config, roll_forecast


def write_locations(path, lengths):
    """A CSV with one series per location, location "a" first."""
    lines = ["timestamp,value,location"]
    for number, (location, length) in enumerate(zip("abc", lengths)):
        lines += [f"{i},{10.0 + (i * (number + 2)) % 7},{location}" for i in range(1, length + 1)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("model", ["GM11", "EFGM", "GM_C", "LINEAR"])
def test_forecast_writes_every_series(tmp_path, capsys, model):
    path = write_locations(tmp_path / "two.csv", [12, 12])
    assert main(["forecast", model, "--input", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    series = ingest_csv(path).series
    assert [one.label for one in series] == ["a", "b"]
    config = resolve_config(RollingConfig(model=model))
    traces = [roll_forecast(one, config) for one in series]
    assert "\n".join(lines) + "\n" == format_trace_csv(traces, ["a", "b"])
    labels = [line.split(",")[0] for line in lines[1:]]
    w = config.effective_window()
    assert labels == ["a"] * (12 - w) + ["b"] * (12 - w)


def test_forecast_keeps_the_order_and_lengths_of_the_series(tmp_path, capsys):
    path = write_locations(tmp_path / "three.csv", [9, 14, 11])
    out = tmp_path / "trace.csv"
    assert main(["forecast", "GM11", "--input", path, "--output", str(out)]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    labels = [row.split(",")[0] for row in rows]
    assert labels == ["a"] * 5 + ["b"] * 10 + ["c"] * 7
    # Each series' targets start at index w + 1 = 5 again.
    first_index = {}
    for row in rows:
        label, _, index = row.split(",")[:3]
        first_index.setdefault(label, index)
    assert first_index == {"a": "5", "b": "5", "c": "5"}


def test_a_series_that_cannot_be_rolled_stops_the_command(tmp_path, capsys):
    path = write_locations(tmp_path / "short.csv", [12, 4])
    assert main(["forecast", "GM11", "--input", path]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: series of 4 < window 4 + 1\n"


def test_a_single_series_is_written_as_before(tmp_path, capsys):
    path = write_locations(tmp_path / "one.csv", [12])
    assert main(["forecast", "GM11", "--input", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 8 and all(line.startswith("a,GM11,") for line in lines[1:])


@pytest.mark.parametrize("count", [2, 3])
def test_calibrate_refuses_more_than_one_series(tmp_path, capsys, count):
    path = write_locations(tmp_path / "many.csv", [12] * count)
    code = main(["calibrate", "GM_C", "--input", path, "--grid", "0.5:1:0.1"])
    assert code == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"holds {count}" in captured.err and captured.err.startswith("error: ")


def test_calibrate_takes_one_series(tmp_path, capsys):
    path = write_locations(tmp_path / "one.csv", [12])
    assert main(["calibrate", "GM_C", "--input", path, "--grid", "0.5:1:0.1"]) == EXIT_OK
    assert float(capsys.readouterr().out) in {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
