"""greycast: online grey-system forecasting with Fourier error correction."""

__version__ = "0.1.0"

from .benchmarks import (
    ArimaSpec,
    LinearSpec,
    SetarSpec,
    forecast_arima,
    forecast_linear,
    forecast_setar,
    psi_weights,
)
from .config import BenchmarkConfig, load_config
from .data import (
    Dataset,
    aggregate,
    augment_stuck_values,
    generate_synthetic,
    ingest_csv,
)
from .errors import (
    CalibrationFailedError,
    GreycastError,
    InsufficientDataError,
    InvalidInputError,
    NumericalDegeneracyError,
    SingularSystemError,
)
from .fourier import (
    FourierResidualModel,
    ResidualSeries,
    corrected_forecast,
    extrapolate_error,
    fit_residual_fourier,
)
from .lstsq import LeastSquaresProblem, solve_least_squares
from .metrics import improvement, mape, rmse
from .models import (
    DEFAULT_OMEGA,
    GreyFit,
    ModelKind,
    accumulated_response,
    fit_esc,
    fit_gm11,
    fit_gvm,
    fit_model,
    fit_trig,
    forecast,
    forecast_gm11,
    forecast_gvm,
    forecast_trig,
)
from .report import EvalReport, compare, format_csv, format_table, format_trace_csv
from .rolling import (
    ALL_MODEL_NAMES,
    ForecastTrace,
    OmegaGrid,
    RollingConfig,
    calibrate_omega,
    roll_forecast,
)
from .series import AccumulatedSeries, MeanSeries, Series, accumulate, mean_sequence, restore
