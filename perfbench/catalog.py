"""The benchmark's workloads: their inputs and which layers each one reaches.

Why each workload was chosen is stated beside it in BENCHMARK.json.

Imported both by the orchestrator, which uses only the standard library, and
by the workload process, so this module must not import numpy or greycast.
"""
from __future__ import annotations

from typing import NamedTuple, Tuple


class Workload(NamedTuple):
    exercises: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    steps_per_pass: int


#: The 16 models of the comparison matrix and their rolling windows (GM_SC
#: has four parameters, so its window is widened to five points).
ALL_MODELS = ("GM11", "EFGM", "GVM", "EFGVM", "GM_S", "EFGM_S", "GM_C", "EFGM_C",
              "GM_SC", "EFGM_SC", "GM_ESC", "EFGM_ESC",
              "LINEAR", "ARIMA", "SARIMA", "SETAR")


def window_of(model: str) -> int:
    return 5 if model in ("GM_SC", "EFGM_SC") else 4


#: The seasonal series of acceptance criterion 8 (noise drawn from the seed).
SERIES_1440 = {"n": 1440, "mean": 50.0, "amp": 10.0, "period": 60.0, "sigma": 1.0}

#: The calibration series and omega grid (same start and step as the default
#: grid, cut at 24 candidates so that a pass of both models takes a few seconds).
SERIES_500 = {"n": 500, "mean": 20.0, "amp": 5.0, "period": 12.0, "sigma": 0.5}
CALIBRATE_MODELS = ("GM_C", "GM_ESC")
GRID_LO, GRID_STEP, GRID_COUNT = 0.05, 0.05, 24

#: One month of 5-minute counts at two locations, fed to the CLI as CSV.
CLI_MODELS = ("GM11", "GM_C", "LINEAR", "SETAR")
CLI_DAYS = 28
CLI_LOCATIONS = ("north", "south")
CLI_SLOTS = 288

#: Online arrivals: every non-EF model gets the shortest trailing history that
#: yields the forecast of the newest observation (ARIMA/SARIMA need 51 lags).
ONLINE_MODELS = ("GM11", "GVM", "GM_S", "GM_C", "GM_SC", "GM_ESC",
                 "LINEAR", "ARIMA", "SARIMA", "SETAR")
ARIMA_HISTORY = 52


def online_history(model: str) -> int:
    return ARIMA_HISTORY if model in ("ARIMA", "SARIMA") else window_of(model) + 1


ONLINE_ARRIVALS = SERIES_1440["n"] - ARIMA_HISTORY + 1  # targets 52..1440

WORKLOADS = {
    "compare-1440": Workload(
        exercises=("report", "rolling", "models", "lstsq", "series", "fourier",
                   "benchmarks", "metrics"),
        bypasses=("cli", "data", "config (specs are loaded once, outside the pass)"),
        steps_per_pass=sum(SERIES_1440["n"] - window_of(m) for m in ALL_MODELS),
    ),
    "calibrate-trig": Workload(
        exercises=("rolling", "models", "lstsq", "series"),
        bypasses=("fourier", "benchmarks", "report", "metrics", "config", "data", "cli"),
        steps_per_pass=GRID_COUNT * len(CALIBRATE_MODELS) * (SERIES_500["n"] - 4),
    ),
    "cli-month": Workload(
        exercises=("cli", "config", "data", "report", "rolling", "models", "lstsq",
                   "series", "benchmarks", "metrics"),
        bypasses=("fourier", "benchmarks.psi_weights"),
        steps_per_pass=(CLI_DAYS * len(CLI_LOCATIONS) * len(CLI_MODELS)
                        * (CLI_SLOTS - 4)),
    ),
    "online-arrivals": Workload(
        exercises=("rolling", "models", "lstsq", "series", "benchmarks", "config"),
        bypasses=("fourier", "report", "metrics", "data", "cli"),
        steps_per_pass=ONLINE_ARRIVALS * len(ONLINE_MODELS),
    ),
}
