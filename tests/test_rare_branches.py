"""Branches that no other test reaches: GM_ESC's degenerate stage-2 design,
GVM's second denominator, an overflowing integration constant, and the
noise of the logistic and incident generators."""
import math

import numpy as np
import pytest

from greycast.data import generate_synthetic
from greycast.errors import NumericalDegeneracyError
from greycast.models import (
    GreyFit,
    ModelKind,
    fit_esc_windows,
    fit_model,
    fit_windows,
    forecast_gvm,
)


@pytest.mark.parametrize("a", [300.0, -300.0])
def test_esc_stage_two_fails_when_its_damping_under_or_overflows(a):
    windows = np.array([[1.0, 2.0, 3.0, 4.0]])
    with np.errstate(all="ignore"):
        stage_one = fit_windows(ModelKind.GM11, windows)
        assert not stage_one.failures.errors
        fits = fit_esc_windows(stage_one._replace(a=a), windows, 74.1)
    error = fits.failures.errors[0]
    assert isinstance(error, NumericalDegeneracyError)
    assert str(error) == "stage-2 design degenerate: e^(-k a) underflowed or overflowed"
    assert not stage_one.failures.errors  # stage one is left as it was


def test_gvm_second_denominator_vanishes():
    # b x0(1) = 2 ln 2 and a - b x0(1) = -ln 2, so at k = 3 the (k-2)
    # denominator 2 ln 2 - ln 2 e^(ln 2) is exactly 0 and the first is not.
    fit = GreyFit(ModelKind.GVM, a=math.log(2.0), b=2.0 * math.log(2.0) / 3.0, x0_1=3.0,
                  window_len=4)
    with pytest.raises(NumericalDegeneracyError) as err:
        forecast_gvm(fit, 3)
    assert str(err.value) == "Verhulst forecast: e^(a(k-2)) denominator vanished"


def test_integration_constant_is_undefined_where_e_to_the_a_overflows():
    window = [0.0, 1332.1403606195627, 0.001114598247547588, 1759.477683887179,
              1.0802535273707563]
    fit = fit_model(ModelKind.GM_SC, window, 0.5)
    assert fit.a > math.log(float(np.finfo(float).max))  # about 2731.8
    assert fit.K is None


@pytest.mark.parametrize("name,params", [
    ("logistic", {"n": 60, "cap": 30.0}),
    ("incident", {"n": 60, "start": 20, "recover": 30, "base": 10.0, "drop": 8.0}),
])
def test_generator_noise(name, params):
    noisy = generate_synthetic(name, seed=11, sigma=3.0, **params)
    again = generate_synthetic(name, seed=11, sigma=3.0, **params)
    clean = generate_synthetic(name, seed=11, sigma=0.0, **params)
    assert np.array_equal(noisy.values, again.values)
    assert noisy.values.min() >= 0.0
    assert noisy.values.min() == 0.0  # sigma 3 against levels near 0 clips some
    assert not np.array_equal(noisy.values, clean.values)
    assert "sigma=3.0" in noisy.label and "seed=11" in noisy.label
