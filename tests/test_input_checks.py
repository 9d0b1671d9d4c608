"""Input checks that reject malformed values at the library's edges.

Each case builds one bad input and checks the error class and message it
raises; a few cases check inputs that are accepted (blank CSV lines, an
explicit sampling interval) and the scalar two-column solve's overflow branch.
"""
import math

import numpy as np
import pytest

from greycast import InvalidInputError, Series
from greycast.benchmarks import ArimaSpec, LinearSpec, SetarSpec
from greycast.cli import EXIT_INVALID_INPUT, main
from greycast.config import load_config
from greycast.data import Dataset, aggregate, ingest_csv
from greycast.fourier import ResidualSeries
from greycast.lstsq import LeastSquaresProblem, solve_stacked
from greycast.report import EvalReport
from greycast.rolling import RollingConfig

SETAR = dict(low_intercept=0.0, low_coeffs=(0.5,), high_intercept=0.0,
             high_coeffs=(0.5,), threshold=1.0)

CASES = {
    "arima-negative-d": (lambda: ArimaSpec(d=-1),
                         "differencing orders / season period invalid"),
    "setar-no-low-coeffs": (lambda: SetarSpec(**{**SETAR, "low_coeffs": ()}),
                            "SETAR regimes need at least one coefficient"),
    "setar-nan-threshold": (lambda: SetarSpec(**{**SETAR, "threshold": math.nan}),
                            "threshold must be finite"),
    "setar-negative-delay": (lambda: SetarSpec(**SETAR, delay=-1), "delay must be >= 0"),
    "linear-no-coeffs": (lambda: LinearSpec(intercept=0.0, coeffs=()),
                         "linear spec needs at least one coefficient"),
    "config-ef-window": (lambda: RollingConfig(ef_residual_window=2),
                         "EF residual window must be at least 3"),
    "config-ef-harmonics": (lambda: RollingConfig(ef_harmonics=-1),
                            "EF harmonic cap must be >= 0"),
    "config-multi-step": (lambda: RollingConfig(multi_step=0), "multi_step must be >= 1"),
    "series-empty": (lambda: Series([]), "series must be a non-empty 1-d sequence"),
    "series-2d": (lambda: Series([[1.0, 2.0]]), "series must be a non-empty 1-d sequence"),
    "series-zero-interval": (lambda: Series([1.0], interval=0),
                             "sampling interval must be positive"),
    "dataset-empty": (lambda: Dataset(series=()), "dataset needs at least one series"),
    "dataset-mixed-intervals": (
        lambda: Dataset(series=(Series([1.0], interval=60), Series([1.0], interval=300))),
        "all series in a dataset must share an interval"),
    "aggregate-short": (lambda: aggregate(Series([1.0, 2.0], interval=60), 180),
                        "series shorter than one aggregation block"),
    "residuals-empty": (lambda: ResidualSeries([]), "residual series must be non-empty and 1-d"),
    "lstsq-shape": (lambda: LeastSquaresProblem(np.ones((3, 2)), np.ones(2)),
                    "design must be 2-d with one target per row"),
    "lstsq-non-finite": (lambda: LeastSquaresProblem(np.array([[1.0, 0.0], [0.0, math.inf]]),
                                                     np.ones(2)),
                         "least-squares entries must be finite"),
}


@pytest.mark.parametrize("build, message", CASES.values(), ids=CASES.keys())
def test_rejected(build, message):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


CSV_CASES = {
    "one-column-row": ("t,v\n1\n", "line 2: expected timestamp,value"),
    "nan-value": ("t,v\n1,nan\n", "line 2: non-finite value"),
    "header-only": ("t,v\n", "{path}: no data rows"),
    "equal-first-stamps": ("t,v\n1,5\n1,6\n", "could not infer a positive sampling interval"),
}


@pytest.mark.parametrize("text, message", CSV_CASES.values(), ids=CSV_CASES.keys())
def test_csv_rejected(tmp_path, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as info:
        ingest_csv(str(path))
    assert str(info.value) == message.format(path=path)


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n1,5\n\n2,6\n   \n3,7\n")
    (series,) = ingest_csv(str(path)).series
    assert series.values.tolist() == [5.0, 6.0, 7.0]
    assert series.interval == 1.0


def test_csv_explicit_interval(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n1,5\n1,6\n")  # equal stamps: no interval to infer
    (series,) = ingest_csv(str(path), interval=300).series
    assert series.interval == 300.0


def test_residual_series_is_not_equal_to_a_number():
    assert (ResidualSeries([1.0]) == 3) is False


def test_config_value_that_is_not_a_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[linear]\ncoeffs = abc\n")
    with pytest.raises(InvalidInputError) as info:
        load_config(str(path))
    assert str(info.value) == "bad config value: could not convert string to float: 'abc'"


def test_report_row_of_an_unknown_model():
    with pytest.raises(KeyError):
        EvalReport(rows=()).row("nope")


def test_cli_ef_residual_window_not_a_number(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n" + "".join(f"{k},{10 + k % 3}\n" for k in range(1, 12)))
    code = main(["--ef-residual-window", "abc", "forecast", "GM11", "--input", str(path)])
    assert code == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == (
        "error: --ef-residual-window must be an integer or 'inwindow', got 'abc'\n")


def test_scaled_target_overflow_gives_the_same_bits_alone_and_stacked():
    """Scaling a 1e300 target by the power of two of a 1e-300 design overflows;
    a stack of one maps that to infinity as a larger stack does."""
    design = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]]) * 1e-300
    target = np.array([1.0, 2.0, 3.0]) * 1e300
    alone = solve_stacked(design[None], target[None])
    stacked = solve_stacked(np.stack([design, design]), np.stack([target, target]))
    for field in ("solutions", "condition", "rejected"):
        assert getattr(alone, field)[0].tobytes() == getattr(stacked, field)[0].tobytes()
        assert getattr(alone, field)[0].tobytes() == getattr(stacked, field)[1].tobytes()
