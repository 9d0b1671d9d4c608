from datetime import datetime

import numpy as np
import pytest

from greycast import InvalidInputError, Series
from greycast.cli import EXIT_INVALID_INPUT, main
from greycast.data import (
    _parse_timestamp,
    DEFAULT_SEED,
    aggregate,
    augment_stuck_values,
    generate_synthetic,
    ingest_csv,
    resolve_seed,
)


class TestResolveSeed:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("GREYCAST_SEED", "7")
        assert resolve_seed(99) == 99

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("GREYCAST_SEED", "7")
        assert resolve_seed(None) == 7

    def test_default(self, monkeypatch):
        monkeypatch.delenv("GREYCAST_SEED", raising=False)
        assert resolve_seed(None) == DEFAULT_SEED

    def test_bad_env_var(self, monkeypatch):
        monkeypatch.setenv("GREYCAST_SEED", "abc")
        with pytest.raises(InvalidInputError):
            resolve_seed(None)


class TestIngestCsv:
    def test_two_row_iso_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("t,v\n2011-09-15T00:00,54.2\n2011-09-15T00:05,53.8\n")
        ds = ingest_csv(str(path))
        assert len(ds.series) == 1
        assert ds.series[0].values.tolist() == [54.2, 53.8]
        assert ds.series[0].interval == 300.0

    def test_inrix_shaped_day(self, tmp_path):
        path = tmp_path / "day.csv"
        rows = ["timestamp,value"]
        rows += [f"{i},{50 + (i % 7) * 0.5}" for i in range(1, 1441)]
        path.write_text("\n".join(rows) + "\n")
        ds = ingest_csv(str(path))
        assert len(ds.series) == 1
        assert len(ds.series[0]) == 1440

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t,v"] + [f"{i},{i}.0" for i in range(1, 6)] + ["6,oops"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InvalidInputError, match="line 7"):
            ingest_csv(str(path))

    def test_negative_values_reported_with_lines(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("t,v\n1,5.0\n2,-1.0\n3,4.0\n")
        with pytest.raises(InvalidInputError, match="line\\(s\\): 3"):
            ingest_csv(str(path))

    def test_groups_by_day_and_location(self, tmp_path):
        path = tmp_path / "multi.csv"
        path.write_text(
            "t,v,loc\n"
            "2011-09-15T00:00,1.0,A\n2011-09-15T00:05,2.0,A\n"
            "2011-09-16T00:00,3.0,A\n2011-09-16T00:05,4.0,A\n"
            "2011-09-15T00:00,5.0,B\n2011-09-15T00:05,6.0,B\n")
        ds = ingest_csv(str(path))
        assert len(ds.series) == 3
        labels = sorted(s.label for s in ds.series)
        assert labels == ["2011-09-15 A", "2011-09-15 B", "2011-09-16 A"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            ingest_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ingest_csv(str(tmp_path / "nope.csv"))

    def test_mixed_intervals_name_the_series_and_both_intervals(self, tmp_path, capsys):
        # The second day lacks its second row, so its interval reads 600 s.
        path = tmp_path / "gap.csv"
        rows = ["timestamp,value"]
        rows += [f"2011-09-15T{m // 60:02d}:{m % 60:02d},{50 + m % 7}" for m in range(0, 120, 5)]
        rows += [f"2011-09-16T{m // 60:02d}:{m % 60:02d},{50 + m % 7}" for m in range(0, 120, 5)
                 if m != 5]
        path.write_text("\n".join(rows) + "\n")
        message = ("series '2011-09-16' has an interval of 600 s and series '2011-09-15' "
                   "one of 300 s, but all series in a dataset must share an interval; "
                   "each is read from its series' first two rows")
        with pytest.raises(InvalidInputError) as info:
            ingest_csv(str(path))
        assert str(info.value) == message
        assert main(["compare", "--input", str(path)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"


class TestAggregate:
    def test_partial_block_dropped(self):
        out = aggregate(Series([1, 2, 3, 4], interval=20.0), 60.0)
        assert out.values.tolist() == [2.0]
        assert out.interval == 60.0

    def test_identity(self):
        s = Series([1, 2, 3], interval=60.0)
        assert aggregate(s, 60.0) is s

    def test_fifteen_to_one_block(self):
        s = Series(np.arange(1.0, 16.0), interval=20.0)
        out = aggregate(s, 300.0)
        assert out.values.tolist() == [8.0]

    def test_non_multiple_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate(Series([1, 2, 3], interval=20.0), 50.0)

    def test_composition(self, rng):
        values = rng.uniform(0, 10, size=36)
        s = Series(values, interval=10.0)
        direct = aggregate(s, 60.0)
        stepped = aggregate(aggregate(s, 30.0), 60.0)
        assert stepped.values == pytest.approx(direct.values, rel=1e-12)


class TestAugmentStuckValues:
    def test_no_run_unchanged_bit_exact(self):
        s = Series([1.0, 2.0, 3.0])
        out = augment_stuck_values(s, seed=1)
        assert np.array_equal(out.values, s.values)

    def test_run_perturbed_within_bounds(self):
        s = Series([5.0, 5.0, 5.0, 5.0])
        out = augment_stuck_values(s, sigma=0.01, seed=1)
        assert len(set(out.values.tolist())) == 4
        assert np.all(np.abs(out.values - 5.0) < 5 * 0.01)
        assert abs(out.values.mean() - 5.0) < 2 * 0.01 / 2.0

    def test_seeded_reproducibility(self):
        s = Series([5.0] * 6 + [1.0, 5.0, 5.0, 5.0])
        a = augment_stuck_values(s, seed=42)
        b = augment_stuck_values(s, seed=42)
        assert np.array_equal(a.values, b.values)
        c = augment_stuck_values(s, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_only_runs_touched(self):
        s = Series([1.0, 2.0, 5.0, 5.0, 5.0, 7.0])
        out = augment_stuck_values(s, seed=3)
        assert out.values[0] == 1.0 and out.values[1] == 2.0 and out.values[5] == 7.0
        assert not np.array_equal(out.values[2:5], s.values[2:5])

    def test_two_long_run_untouched(self):
        s = Series([5.0, 5.0, 1.0])
        out = augment_stuck_values(s, seed=3)
        assert np.array_equal(out.values, s.values)

    def test_clipped_at_zero(self):
        s = Series([0.0, 0.0, 0.0, 0.0])
        out = augment_stuck_values(s, sigma=1.0, seed=5)
        assert np.all(out.values >= 0.0)

    def test_sigma_validated(self):
        with pytest.raises(InvalidInputError):
            augment_stuck_values(Series([5.0, 5.0, 5.0]), sigma=0.0)


class TestGenerateSynthetic:
    def test_exponential_exact(self):
        s = generate_synthetic("exponential", a=0.1, b=2.0, x1=1.0, n=4)
        assert s.values == pytest.approx([1.0, 1.809524, 1.637188, 1.481266],
                                         abs=5e-7)
        # high-precision oracle values
        assert s.values == pytest.approx(
            [1.0, 1.8095238095238095, 1.63718820861678, 1.4812655220818486],
            rel=1e-12)

    def test_seasonal_exact_sinusoid(self):
        s = generate_synthetic("seasonal", mean=20.0, amp=5.0, period=12,
                               sigma=0.0, n=24)
        k = np.arange(1, 25)
        expected = np.maximum(0.0, 20.0 + 5.0 * np.sin(2 * np.pi * k / 12))
        assert s.values == pytest.approx(expected, rel=1e-12)

    def test_incident_change_points(self):
        s = generate_synthetic("incident", base=60.0, drop=35.0, start=220,
                               recover=230, ramp=1, sigma=0.0, n=288)
        v = s.values
        assert v[218] == 60.0          # index 219, before the incident
        assert v[219] == 25.0          # index 220, drop
        assert v[228] == 25.0          # index 229, still low
        assert v[229] == 60.0          # index 230, recovered
        assert v[-1] == 60.0

    def test_incident_validation(self):
        with pytest.raises(InvalidInputError):
            generate_synthetic("incident", start=50, recover=40)

    def test_logistic_monotone_saturating(self):
        s = generate_synthetic("logistic", cap=100.0, rate=0.2, n=120, sigma=0.0)
        assert np.all(np.diff(s.values) > 0)
        assert s.values[-1] < 100.0

    def test_deterministic_per_seed(self):
        a = generate_synthetic("seasonal", seed=11, sigma=0.5, n=50)
        b = generate_synthetic("seasonal", seed=11, sigma=0.5, n=50)
        assert np.array_equal(a.values, b.values)

    def test_label_records_parameters_and_seed(self):
        s = generate_synthetic("seasonal", seed=11, sigma=0.5, n=50)
        assert "sigma=0.5" in s.label and "seed=11" in s.label

    def test_unknown_generator(self):
        with pytest.raises(InvalidInputError):
            generate_synthetic("fractal")


@pytest.mark.parametrize("raw,parsed", [
    ("+3", 3),
    ("1_000", 1000),
    (" 7", 7),
    ("-4", -4),
    ("20240205", 20240205),  # an integer index, although ISO-8601 reads it as a date
    ("2024-02-05T00:05", datetime(2024, 2, 5, 0, 5)),
    ("2024-02-05", datetime(2024, 2, 5)),
    ("20240205T0005", datetime(2024, 2, 5, 0, 5)),
])
def test_timestamp_forms(tmp_path, raw, parsed):
    path = tmp_path / "one.csv"
    path.write_text(f"t,v\n{raw},1.5\n")
    series = ingest_csv(str(path)).series
    assert len(series) == 1 and series[0].values.tolist() == [1.5]
    expected_label = parsed.date().isoformat() if isinstance(parsed, datetime) else "one.csv"
    assert series[0].label == expected_label
    assert _parse_timestamp(raw, 2) == (parsed, not isinstance(parsed, datetime))


@pytest.mark.parametrize("raw", ["garbage", "12:00:00x", "1-2", "--5"])
def test_bad_timestamp_cites_line(tmp_path, raw):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,v\n1,2.0\n{raw},3.0\n")
    message = f"line 3: bad timestamp {raw!r} (ISO-8601 or integer index)"
    with pytest.raises(InvalidInputError) as err:
        ingest_csv(str(path))
    assert str(err.value) == message
