"""ISO-8601 stamps parse the same on every supported Python, and a file may
not mix stamps with and without a UTC offset."""
from datetime import datetime, timedelta, timezone

import pytest

from greycast.cli import EXIT_INVALID_INPUT, main
from greycast.data import _parse_timestamp, ingest_csv
from greycast.errors import InvalidInputError

UTC = timezone.utc


@pytest.mark.parametrize("raw,parsed", [
    # Forms that datetime.fromisoformat reads on Python 3.10 too.
    ("2024-02-05", datetime(2024, 2, 5)),
    ("2024-02-05T00", datetime(2024, 2, 5)),
    ("2024-02-05T00:05", datetime(2024, 2, 5, 0, 5)),
    ("2024-02-05 00:05:30", datetime(2024, 2, 5, 0, 5, 30)),
    ("2024-02-05T00:05:30.250", datetime(2024, 2, 5, 0, 5, 30, 250000)),
    ("2024-02-05T00:05:30.123456", datetime(2024, 2, 5, 0, 5, 30, 123456)),
    ("2024-02-05T00:05-05:30", datetime(2024, 2, 5, 0, 5, tzinfo=timezone(-timedelta(hours=5.5)))),
    # Forms that only Python 3.11 and later read.
    ("20240205T0005", datetime(2024, 2, 5, 0, 5)),
    ("20240205T000530", datetime(2024, 2, 5, 0, 5, 30)),
    ("2024-02-05T0005", datetime(2024, 2, 5, 0, 5)),
    ("2024-02-05T00:05Z", datetime(2024, 2, 5, 0, 5, tzinfo=UTC)),
    ("2024-02-05T00Z", datetime(2024, 2, 5, tzinfo=UTC)),
    ("20240205T000530Z", datetime(2024, 2, 5, 0, 5, 30, tzinfo=UTC)),
    ("2024-02-05T00:05:30.25", datetime(2024, 2, 5, 0, 5, 30, 250000)),
    ("2024-02-05T00:05:30,5", datetime(2024, 2, 5, 0, 5, 30, 500000)),
    ("2024-02-05T00:05+01", datetime(2024, 2, 5, 0, 5, tzinfo=timezone(timedelta(hours=1)))),
    ("20240205T000530.5+0130",
     datetime(2024, 2, 5, 0, 5, 30, 500000, tzinfo=timezone(timedelta(hours=1.5)))),
])
def test_accepted_forms(raw, parsed):
    stamp, is_index = _parse_timestamp(raw, 2)
    assert (stamp, is_index, stamp.tzinfo) == (parsed, False, parsed.tzinfo)


@pytest.mark.parametrize("raw", [
    # Python 3.11 and later read these; Python 3.10 refuses them.
    "2024-W06-1", "2024-02-05T00:05:30.1234567", "2024-02-05t00:05",
    "2024-02-05X00:05", "2024-02-05T00:05:00+01:00:30",
    # Every supported Python refuses these.
    "2024-036", "2024-0205", "2024-02-05T00:0530", "2024-02-05T24:00", "2023-02-29",
    "2024-02-05T00:05:60",
])
def test_refused_forms(raw):
    with pytest.raises(InvalidInputError) as err:
        _parse_timestamp(raw, 7)
    assert str(err.value) == f"line 7: bad timestamp {raw!r} (ISO-8601 or integer index)"


def test_an_aware_file_sorts_by_instant(tmp_path):
    path = tmp_path / "aware.csv"
    path.write_text("t,v\n2024-02-05T00:10Z,3\n2024-02-05T00:05+00:00,2\n"
                    "2024-02-05T01:00+01:00,1\n")
    (series,) = ingest_csv(str(path)).series
    assert series.values.tolist() == [1.0, 2.0, 3.0]
    assert series.interval == 300.0


@pytest.mark.parametrize("first,later,line,word", [
    ("2024-02-05T00:00Z", "2024-02-05T00:05", 4, "lacks"),
    ("2024-02-05T00:00", "2024-02-05T00:05+01:00", 4, "has"),
])
def test_mixed_awareness_is_refused(tmp_path, first, later, line, word):
    path = tmp_path / "mixed.csv"
    path.write_text(f"t,v\n{first},1\n{first.replace('00:00', '00:01')},2\n{later},3\n")
    with pytest.raises(InvalidInputError) as err:
        ingest_csv(str(path))
    assert str(err.value) == (f"line {line}: timestamp {later!r} {word} a UTC offset, "
                              "unlike the first one")


def test_mixed_awareness_across_days_is_refused(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("t,v\n2024-02-05T00:00Z,1\n2024-02-05T00:05Z,2\n2024-02-06T00:00,3\n")
    with pytest.raises(InvalidInputError, match="^line 4: "):
        ingest_csv(str(path))


def test_integer_indices_beside_stamps_are_not_mixed_awareness(tmp_path):
    path = tmp_path / "indices.csv"
    path.write_text("t,v\n1,1\n2024-02-05T00:00Z,2\n2,3\n2024-02-05T00:05Z,4\n")
    labels = [series.label for series in ingest_csv(str(path), interval=60.0).series]
    assert labels == ["indices.csv", "2024-02-05"]


def test_cli_exits_with_invalid_input_on_mixed_awareness(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    rows = ["2024-02-05T00:00Z"] + [f"2024-02-05T00:{m:02d}" for m in range(5, 50, 5)]
    path.write_text("t,v\n" + "".join(f"{stamp},{i + 1}\n" for i, stamp in enumerate(rows)))
    assert main(["forecast", "GM11", "--input", str(path)]) == EXIT_INVALID_INPUT
    assert "line 3: timestamp '2024-02-05T00:05' lacks a UTC offset" in capsys.readouterr().err


def test_repeated_stamps_at_several_locations_parse_alike(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("t,v,location\n" + "".join(
        f"2024-02-05T00:{m:02d}Z,{m},{loc}\n" for m in range(0, 30, 5) for loc in ("a", "b")))
    series = ingest_csv(str(path)).series
    assert [s.label for s in series] == ["2024-02-05 a", "2024-02-05 b"]
    assert all(s.values.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0] for s in series)
    assert all(s.interval == 300.0 for s in series)
