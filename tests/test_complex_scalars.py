"""A numpy complex scalar is refused at every array gate.

``np.complex128`` has ``__float__``, so ``np.array([np.complex128(1+5j),
2.0], dtype=float)`` is [1, 2] with only a ``ComplexWarning``: a list or
object array of them passed ``Series``, the metrics, ``fit_model`` and the
benchmark forecasters with the imaginary parts dropped. ``ResidualSeries``,
``LeastSquaresProblem``, ``AccumulatedSeries`` and ``MeanSeries`` took even
a complex array, and raised a bare ``TypeError`` or ``ValueError`` for a
Python complex or a string. Each now raises ``InvalidInputError`` before the
cast; a message that an input got before stays as it was.
"""
import numpy as np
import pytest

from greycast import InvalidInputError, Series
from greycast.benchmarks import forecast_arima, forecast_linear, forecast_setar
from greycast.config import load_config
from greycast.fourier import ResidualSeries
from greycast.lstsq import LeastSquaresProblem
from greycast.metrics import mape, rmse
from greycast.models import ModelKind, fit_model
from greycast.series import AccumulatedSeries, MeanSeries

SPECS = load_config()
Z = np.complex128(1 + 5j)
HISTORY = [Z] + list(20.0 + 5.0 * np.sin(np.arange(79) / 3.0))
WINDOW = "a window must be a 1-d sequence of finite values"
GATES = {
    "Series-list": (lambda: Series([Z, 2.0]), "series values must be real numbers, not complex"),
    "Series-tuple": (lambda: Series((2.0, np.complex64(1 + 2j))),
                     "series values must be real numbers, not complex"),
    "Series-object-array": (lambda: Series(np.array([2.0, Z], dtype=object)),
                            "series values must be real numbers, not complex"),
    "Series-0d-array": (lambda: Series([np.array(1 + 2j), 2.0]),
                        "series values must be real numbers, not complex"),
    "MeanSeries-array": (lambda: MeanSeries(np.array([1 + 1j, 2.0])),
                         "series values must be real numbers, not complex"),
    "AccumulatedSeries-list": (lambda: AccumulatedSeries([2.0, Z], Series([2.0, 3.0])),
                               "series values must be real numbers, not complex"),
    "rmse": (lambda: rmse([np.complex128(1 + 9j)], [1.0]),
             "metric inputs must be real numbers, not complex"),
    "mape-observed": (lambda: mape([1.0], [np.complex128(1 + 9j)]),
                      "metric inputs must be real numbers, not complex"),
    "fit_model": (lambda: fit_model(ModelKind.GM11, [Z, 2.0, 3.0, 4.0]), WINDOW),
    "fit_model-object-array": (
        lambda: fit_model(ModelKind.GM_C, np.array([1.0, 2.0, Z, 4.0, 5.0], dtype=object), 0.5),
        WINDOW),
    "LINEAR": (lambda: forecast_linear(SPECS.linear, HISTORY),
               "a history must be a 1-d sequence of finite values"),
    "ARIMA": (lambda: forecast_arima(SPECS.arima, HISTORY),
              "a history must be a 1-d sequence of finite values"),
    "SETAR": (lambda: forecast_setar(SPECS.setar, np.array(HISTORY, dtype=object)),
              "a history must be a 1-d sequence of finite values"),
    "ResidualSeries-array": (lambda: ResidualSeries(np.array([1 + 1j, 2.0])),
                             "residuals must be real numbers, not complex"),
    "ResidualSeries-list": (lambda: ResidualSeries([Z, 2.0]),
                            "residuals must be real numbers, not complex"),
    "ResidualSeries-python-complex": (
        lambda: ResidualSeries([1 + 1j, 2.0]),
        "residuals must be real numbers: float() argument must be a string or a real "
        "number, not 'complex'"),
    "ResidualSeries-string": (lambda: ResidualSeries(["a", 2.0]),
                              "residuals must be real numbers: could not convert string "
                              "to float: 'a'"),
    "LeastSquaresProblem-design": (
        lambda: LeastSquaresProblem(np.eye(2) * (1 + 1j), np.ones(2)),
        "least-squares entries must be real numbers, not complex"),
    "LeastSquaresProblem-targets": (lambda: LeastSquaresProblem(np.eye(2), [Z, 1.0]),
                                    "least-squares entries must be real numbers, not complex"),
    "LeastSquaresProblem-string": (
        lambda: LeastSquaresProblem([["a", 1.0], [0.0, 1.0]], np.ones(2)),
        "least-squares entries must be real numbers: could not convert string to float: 'a'"),
}


@pytest.mark.filterwarnings("error")  # no ComplexWarning: refused before the cast
@pytest.mark.parametrize("call, message", GATES.values(), ids=list(GATES))
def test_a_complex_scalar_is_refused_at_every_array_gate(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.filterwarnings("error")
def test_only_the_complex_scalar_among_numpy_scalars_is_refused():
    values = [np.float64(1.5), np.int32(2), 3, 4.0, np.float32(0.5)]
    assert Series(values).values.tolist() == [1.5, 2.0, 3.0, 4.0, 0.5]
    assert Series(np.array(values, dtype=object)).values.tolist() == [1.5, 2.0, 3.0, 4.0, 0.5]
    assert rmse(values, values) == 0.0
    assert ResidualSeries(values).values.tolist() == [1.5, 2.0, 3.0, 4.0, 0.5]
    with pytest.raises(InvalidInputError, match="not complex"):
        Series(values + [np.complex128(0.5)])
    # A Python complex keeps the message the float cast gave it.
    with pytest.raises(InvalidInputError, match="not 'complex'"):
        Series(values + [0.5 + 0j])
