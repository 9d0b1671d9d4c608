import numpy as np
import pytest

from greycast import Series
from greycast.cli import EXIT_CALIBRATION, EXIT_INVALID_INPUT, EXIT_IO, EXIT_OK, main
from greycast.config import load_config
from greycast.data import Dataset, generate_synthetic
from greycast.rolling import ALL_MODEL_NAMES, RollingConfig
from greycast.report import (
    compare,
    format_csv,
    format_table,
    format_trace_csv,
)


@pytest.fixture(scope="module")
def small_dataset():
    series = generate_synthetic("seasonal", seed=0, sigma=0.5, n=80)
    return Dataset(series=(series,), source="synthetic")


@pytest.fixture(scope="module")
def full_report(small_dataset):
    return compare(small_dataset, config=RollingConfig(), specs=load_config())


class TestCompare:
    def test_sixteen_rows_plus_improvement(self, full_report):
        report, traces = full_report
        assert len(report.rows) == 16
        assert [row.model for row in report.rows] == list(ALL_MODEL_NAMES)
        assert report.improvement_rmse is not None
        assert report.improvement_mape is not None

    def test_metrics_finite_for_grey_rows(self, full_report):
        report, _ = full_report
        for row in report.rows:
            if not row.failed:
                assert row.rmse >= 0.0 and row.mape >= 0.0
                assert row.compute_time >= 0.0
                assert row.series_count == 1

    def test_duplicate_models_identical_rows(self, small_dataset):
        report, _ = compare(small_dataset, models=["GM11", "GM11"],
                            config=RollingConfig(), specs=load_config())
        a, b = report.rows
        assert (a.rmse, a.mape, a.excluded_pairs) == (b.rmse, b.mape, b.excluded_pairs)

    def test_failure_becomes_flagged_row(self, small_dataset):
        short = Dataset(series=(Series(np.full(4, 2.0)),))
        report, _ = compare(short, models=["GM11"], config=RollingConfig())
        assert report.rows[0].failed
        assert report.rows[0].message

    def test_omega_override_changes_result(self, small_dataset):
        from greycast.models import ModelKind
        base, _ = compare(small_dataset, models=["GM_C"], config=RollingConfig(),
                          specs=load_config())
        tuned, _ = compare(small_dataset, models=["GM_C"], config=RollingConfig(),
                           specs=load_config(), omegas={ModelKind.GM_C: 0.524})
        assert base.rows[0].rmse != tuned.rows[0].rmse

    def test_trace_count(self, full_report):
        _, traces = full_report
        assert len(traces) == 16


class TestFormatting:
    def test_csv_header_and_determinism(self, full_report):
        report, _ = full_report
        text = format_csv(report, include_timing=False)
        assert text.splitlines()[0] == "model,metric,value,series_count,excluded_pairs"
        assert text == format_csv(report, include_timing=False)
        assert "compute_time" not in text
        assert "improvement,rmse," in text

    def test_csv_with_timing(self, full_report):
        report, _ = full_report
        assert "compute_time" in format_csv(report)

    def test_table_contains_rows_and_improvement(self, full_report):
        report, _ = full_report
        table = format_table(report)
        for name in ALL_MODEL_NAMES:
            assert name in table
        assert "% Imp" in table

    def test_trace_csv_header_and_shape(self, full_report):
        _, traces = full_report
        text = format_trace_csv(traces[:1], ["lab"])
        lines = text.splitlines()
        assert lines[0] == "series,model,index,observed,predicted,residual,fallback_flag"
        assert len(lines) == 1 + len(traces[0].predictions)
        assert lines[1].startswith("lab,GM11,5,")


@pytest.fixture()
def seasonal_csv(tmp_path):
    path = tmp_path / "seasonal.csv"
    series = generate_synthetic("seasonal", seed=0, sigma=0.5, n=80)
    rows = ["timestamp,value"]
    rows += [f"{i},{float(v)!r}" for i, v in enumerate(series.values, start=1)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestCli:
    def test_forecast_writes_trace(self, seasonal_csv, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["forecast", "GM11", "--input", seasonal_csv,
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "series,model,index,observed,predicted,residual,fallback_flag"
        assert len(lines) == 1 + 76

    def test_forecast_stdout(self, seasonal_csv, capsys):
        assert main(["forecast", "EFGM_C", "--input", seasonal_csv]) == EXIT_OK
        assert "EFGM_C" in capsys.readouterr().out

    def test_calibrate_prints_omega(self, seasonal_csv, capsys):
        code = main(["calibrate", "GM_C", "--input", seasonal_csv,
                     "--grid", "0.5:0.6:0.05"])
        assert code == EXIT_OK
        value = float(capsys.readouterr().out.strip())
        assert value in (0.5, 0.55, 0.6)

    def test_calibrate_rejects_non_trig(self, seasonal_csv, capsys):
        code = main(["calibrate", "GM11", "--input", seasonal_csv])
        assert code == EXIT_INVALID_INPUT

    def test_calibrate_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text("t,v\n" + "\n".join(f"{i},0.0" for i in range(1, 11)) + "\n")
        code = main(["calibrate", "GM_S", "--input", str(path),
                     "--grid", "1.0:1.0:1.0"])
        assert code == EXIT_CALIBRATION

    def test_evaluate(self, seasonal_csv, capsys):
        assert main(["--format", "csv", "evaluate", "GM11",
                     "--input", seasonal_csv]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("model,metric,value")
        assert "GM11,rmse," in out

    def test_compare_subset(self, seasonal_csv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["--format", "csv", "compare", "--input", seasonal_csv,
                     "--models", "GM11,GM_C,EFGVM"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "GM_C,rmse," in text and "EFGVM,mape," in text

    def test_compare_trace_output(self, seasonal_csv, tmp_path):
        trace_path = tmp_path / "traces.csv"
        code = main(["compare", "--input", seasonal_csv, "--models", "GM11,GVM",
                     "--output", str(tmp_path / "r.txt"),
                     "--trace-output", str(trace_path)])
        assert code == EXIT_OK
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("series,model,")
        assert len(lines) == 1 + 2 * 76

    def test_synth_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code = main(["synth", "seasonal", "--params", "n=40", "sigma=0.5",
                     "--output", str(out)])
        assert code == EXIT_OK
        from greycast.data import ingest_csv
        ds = ingest_csv(str(out))
        assert len(ds.series[0]) == 40

    def test_synth_seed_flag_and_env(self, tmp_path, monkeypatch, capsys):
        a = main(["--seed", "5", "synth", "seasonal", "--params", "n=20",
                  "sigma=0.5"])
        out_a = capsys.readouterr().out
        monkeypatch.setenv("GREYCAST_SEED", "5")
        b = main(["synth", "seasonal", "--params", "n=20", "sigma=0.5"])
        out_b = capsys.readouterr().out
        assert a == b == EXIT_OK
        assert out_a == out_b

    def test_unknown_model_exit_code(self, seasonal_csv, capsys):
        assert main(["forecast", "GM_X", "--input", seasonal_csv]) == EXIT_INVALID_INPUT

    def test_missing_input_exit_code(self, tmp_path, capsys):
        code = main(["forecast", "GM11", "--input", str(tmp_path / "nope.csv")])
        assert code == EXIT_INVALID_INPUT

    def test_unwritable_output_exit_code(self, seasonal_csv, tmp_path, capsys):
        code = main(["forecast", "GM11", "--input", seasonal_csv,
                     "--output", str(tmp_path / "no" / "dir" / "t.csv")])
        assert code == EXIT_IO

    def test_bad_params_exit_code(self, tmp_path, capsys):
        assert main(["synth", "seasonal", "--params", "n40"]) == EXIT_INVALID_INPUT

    def test_config_override(self, seasonal_csv, tmp_path, capsys):
        cfg = tmp_path / "user.cfg"
        cfg.write_text("[linear]\nintercept = 1.0\ncoeffs = 1.0\ndelay = 1\n")
        code = main(["--format", "csv", "--config", str(cfg),
                     "evaluate", "LINEAR", "--input", seasonal_csv])
        assert code == EXIT_OK

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "greycast" in capsys.readouterr().out


class TestCliShortSeries:
    def test_compare_trace_output_skips_a_model_that_fails_later(self, tmp_path, capsys):
        """GM_SC fits day one but not the 5-row day two: its row fails and
        the trace file holds the other models' rows, each under its day."""
        path = tmp_path / "two_days.csv"
        rows = ["timestamp,value"]
        rows += [f"2020-01-01T{i // 12:02d}:{i % 12 * 5:02d}:00,{20 + i % 7}" for i in range(40)]
        rows += [f"2020-01-02T00:{i * 5:02d}:00,{20 + i}" for i in range(5)]
        path.write_text("\n".join(rows) + "\n")
        trace_path = tmp_path / "traces.csv"
        code = main(["compare", "--input", str(path), "--models", "GM11,GM_SC,LINEAR",
                     "--trace-output", str(trace_path)])
        assert code == EXIT_OK
        assert "FAILED: series of 5 < window 5 + 1" in capsys.readouterr().out
        labels = [line.split(",")[:2] for line in trace_path.read_text().splitlines()[1:]]
        assert labels == ([["2020-01-01", "GM11"]] * 36 + [["2020-01-02", "GM11"]]
                          + [["2020-01-01", "LINEAR"]] * 36 + [["2020-01-02", "LINEAR"]])

    def test_calibrate_rejects_a_short_series(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("timestamp,value\n1,3.0\n2,4.0\n3,5.0\n")
        code = main(["calibrate", "GM_C", "--input", str(path)])
        assert code == EXIT_INVALID_INPUT
        assert "series of 3 < window 4 + 1" in capsys.readouterr().err
