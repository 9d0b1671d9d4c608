"""A benchmark spec refuses a coefficient that is not a real number when it
is built.

``LinearSpec("a", (1.0,))`` and ``ArimaSpec(mu="a")`` were built without
complaint, and a ``compare`` over them then aborted with numpy's bare
``UFuncTypeError``; ``ArimaSpec(phi=("a",))``, ``LinearSpec(0.0, 5.0)`` and
``SetarSpec(..., threshold="a")`` raised a bare ``ValueError`` or
``TypeError``. Each now raises ``InvalidInputError`` naming the field, and a
valid spec keeps its values.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from greycast import InvalidInputError
from greycast.benchmarks import ArimaSpec, LinearSpec, SetarSpec, forecast_linear
from greycast.config import BenchmarkConfig, load_config
from greycast.data import Dataset, generate_synthetic
from greycast.report import compare

SETAR = dict(low_intercept=0.0, low_coeffs=(0.5,), high_intercept=0.0,
             high_coeffs=(0.5,), threshold=1.0)
FIELDS = {
    "LinearSpec-intercept": (lambda: LinearSpec("a", (1.0,)),
                             "intercept must be a real number, got 'a'"),
    "LinearSpec-intercept-None": (lambda: LinearSpec(None, (1.0,)),
                                  "intercept must be a real number, got None"),
    "LinearSpec-intercept-bool": (lambda: LinearSpec(True, (1.0,)),
                                  "intercept must be a real number, got True"),
    "LinearSpec-coeffs-str": (lambda: LinearSpec(0.0, ("x",)),
                              "coeffs must be real numbers: could not convert string to "
                              "float: 'x'"),
    "LinearSpec-coeffs-scalar": (lambda: LinearSpec(0.0, 5.0),
                                 "coeffs must be a sequence of real numbers, got 5.0"),
    "LinearSpec-coeffs-complex": (lambda: LinearSpec(0.0, (np.complex128(1j),)),
                                  "coeffs must be real numbers, not complex"),
    "LinearSpec-coeffs-overflow": (lambda: LinearSpec(0.0, (10 ** 400,)),
                                   "coeffs must be real numbers: int too large to convert to "
                                   "float"),
    "ArimaSpec-mu": (lambda: ArimaSpec(mu="a"), "mu must be a real number, got 'a'"),
    "ArimaSpec-mu-complex": (lambda: ArimaSpec(mu=1j), "mu must be a real number, got 1j"),
    "ArimaSpec-phi": (lambda: ArimaSpec(phi=("a",)),
                      "phi must be real numbers: could not convert string to float: 'a'"),
    "ArimaSpec-theta-nested": (lambda: ArimaSpec(theta=((0.1,),)),
                               "theta must be a sequence of real numbers, got ((0.1,),)"),
    "SetarSpec-threshold": (lambda: SetarSpec(**{**SETAR, "threshold": "a"}),
                            "threshold must be a real number, got 'a'"),
    "SetarSpec-low_intercept": (lambda: SetarSpec(**{**SETAR, "low_intercept": "a"}),
                                "low_intercept must be a real number, got 'a'"),
    "SetarSpec-high_coeffs": (lambda: SetarSpec(**{**SETAR, "high_coeffs": 0.5}),
                              "high_coeffs must be a sequence of real numbers, got 0.5"),
}


@pytest.mark.parametrize("build, message", FIELDS.values(), ids=list(FIELDS))
def test_a_spec_field_that_is_not_real_is_refused(build, message):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


def test_a_valid_spec_keeps_its_values():
    spec = LinearSpec(np.float64(0.3), [0.5, np.float32(0.25), 1], delay=np.int64(2))
    assert spec.coeffs == (0.5, 0.25, 1.0) and all(type(c) is float for c in spec.coeffs)
    assert spec.intercept == 0.3 and spec.delay == 2
    assert forecast_linear(spec, [1.0, 2.0, 3.0, 4.0, 5.0]) == 0.3 + 0.5 * 5.0 + 0.25 * 3.0 + 1.0
    specs = load_config()
    assert SetarSpec(specs.setar.low_intercept, list(specs.setar.low_coeffs),
                     specs.setar.high_intercept, np.array(specs.setar.high_coeffs),
                     specs.setar.threshold, specs.setar.delay) == specs.setar
    assert replace(specs.sarima) == specs.sarima and replace(specs.linear) == specs.linear


DATA = Dataset(series=(generate_synthetic("seasonal", seed=3, n=60),))


def test_a_bad_intercept_never_reaches_compare():
    with pytest.raises(InvalidInputError, match="intercept must be a real number, got 'a'"):
        specs = replace(load_config(), linear=LinearSpec("a", (1.0,)))
        compare(DATA, models=["GM11", "LINEAR"], specs=specs)


def test_compare_flags_the_steps_of_an_infinite_intercept_not_the_report():
    specs = load_config()
    specs = BenchmarkConfig(linear=LinearSpec(math.inf, (0.5,)), arima=specs.arima,
                            sarima=specs.sarima, setar=specs.setar, omega=specs.omega)
    report, traces = compare(DATA, models=["GM11", "LINEAR"], specs=specs)
    alone, _ = compare(DATA, models=["GM11"], specs=specs)
    assert report.row("GM11").rmse == alone.row("GM11").rmse
    linear = [trace for trace in traces if trace.model == "LINEAR"]
    assert linear and all(trace.fallback_flags.all() for trace in linear)
    assert not report.row("LINEAR").failed and math.isfinite(report.row("LINEAR").rmse)
