"""Outside input that once crashed or warned.

A frequency grid is checked before any candidate is made: a non-finite bound
or step, or more than ``MAX_GRID_CANDIDATES`` candidates, is an
``InvalidInputError`` and, at the CLI, exit code 2. MAPE of a miss beyond the
float range is inf, and the suite turns a RuntimeWarning into an error.
Calibration raises the error a roll raises on a series no frequency can use.
"""
import math

import numpy as np
import pytest

from greycast import Series
from greycast.cli import EXIT_INVALID_INPUT, main
from greycast.errors import InvalidInputError
from greycast.metrics import mape
from greycast.models import ModelKind
from greycast.rolling import (
    MAX_GRID_CANDIDATES,
    OmegaGrid,
    RollingConfig,
    calibrate_omega,
    roll_forecast,
)

OUTSIDE = [
    (0.05, math.inf, 0.05),
    (math.inf, math.inf, 0.05),
    (0.05, 1.0, math.inf),
    (0.05, math.nan, 0.05),
    (0.05, 1e300, 1e-300),  # finite, but (hi - lo) / step overflows
    (0.05, 1e9, 1e-3),  # about 1e12 candidates
    (1.0, 1.0 + MAX_GRID_CANDIDATES, 1.0),  # one candidate too many
]


@pytest.mark.parametrize("lo,hi,step", OUTSIDE)
def test_outside_grids_are_rejected(lo, hi, step):
    with pytest.raises(InvalidInputError, match="finite|candidates"):
        OmegaGrid(lo, hi, step)


def test_the_largest_grid_is_accepted():
    grid = OmegaGrid(1.0, float(MAX_GRID_CANDIDATES), 1.0)
    assert grid.candidates().size == MAX_GRID_CANDIDATES
    assert OmegaGrid().candidates().size == 2000


@pytest.fixture
def series_csv(tmp_path):
    path = tmp_path / "s.csv"
    values = 20.0 + 5.0 * np.sin(np.arange(40) / 2.0)
    rows = [f"{i},{float(v)!r}" for i, v in enumerate(values, start=1)]
    path.write_text("t,v\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("grid", ["0.05:inf:0.05", "0.05:1e300:1e-300", "0.05:1e9:1e-3",
                                  "nan:1.0:0.05"])
def test_cli_exits_2_on_an_outside_grid(series_csv, grid, capsys):
    assert main(["calibrate", "GM_C", "--input", series_csv, "--grid", grid]) \
        == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: grid "), err


def test_mape_of_a_huge_finite_miss_is_inf_without_a_warning():
    assert mape([1.7e308, 1.0], [-1.7e308, 1.0]).value == math.inf
    assert mape([1e300, 1.0], [1e-8, 1.0]).value == math.inf
    assert mape([3.0, 4.0], [2.0, 2.0]).value == pytest.approx(75.0)


def test_calibration_raises_the_rolls_own_error():
    series = Series([1, 2, 3, 4, 5, 1.7e308, -1.7e308, 3, 4, 5])
    message = "values at indices 5 and 6 differ by more than the float range"
    with pytest.raises(InvalidInputError, match=message):
        roll_forecast(series, RollingConfig(model="GM_C"))
    with pytest.raises(InvalidInputError, match=message):
        calibrate_omega(series, ModelKind.GM_C, OmegaGrid(0.5, 1.0, 0.1))
