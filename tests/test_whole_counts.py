"""A count given as a fraction or a bool is refused where it is given.

``LinearSpec(..., delay=1.5)``, ``SetarSpec(..., delay=0.5)`` and
``ArimaSpec(truncation=20.5)`` were built without complaint, and every roll
with them then raised a bare ``TypeError``, which ``compare`` does not
catch; ``ArimaSpec(d=True)`` was read as d = 1; and the Fourier fit and its
filter weights read 1.5 or True harmonics as 1. Each now raises
``InvalidInputError`` through the rule ``RollingConfig`` applies to its own
counts (``RollingConfig(ef_harmonics=1.5)`` was refused already); a count
refused before for its range keeps that message.
"""
import numpy as np
import pytest

from greycast import InvalidInputError
from greycast.benchmarks import ArimaSpec, LinearSpec, SetarSpec
from greycast.fourier import ResidualSeries, correction_weights, fit_residual_fourier

SETAR = dict(low_intercept=0.0, low_coeffs=(0.5,), high_intercept=0.0,
             high_coeffs=(0.5,), threshold=1.0)
RESIDUALS = ResidualSeries(np.sin(np.arange(9.0)))
COUNTS = {
    "LinearSpec-delay": (lambda: LinearSpec(0.3, (0.5, 0.2), delay=1.5), "delay", 1.5),
    "LinearSpec-delay-bool": (lambda: LinearSpec(0.3, (0.5, 0.2), delay=True), "delay", True),
    "SetarSpec-delay": (lambda: SetarSpec(**SETAR, delay=0.5), "delay", 0.5),
    "ArimaSpec-truncation": (lambda: ArimaSpec(truncation=20.5), "truncation", 20.5),
    "ArimaSpec-d": (lambda: ArimaSpec(d=True), "d", True),
    "ArimaSpec-D": (lambda: ArimaSpec(D=1.0), "D", 1.0),
    "ArimaSpec-season_period": (lambda: ArimaSpec(season_period=2.5), "season_period", 2.5),
    "fit_residual_fourier": (lambda: fit_residual_fourier(RESIDUALS, 1.5), "harmonic count", 1.5),
    "fit_residual_fourier-bool": (lambda: fit_residual_fourier(RESIDUALS, True),
                                  "harmonic count", True),
    "correction_weights-bool": (lambda: correction_weights(9, True), "harmonic count", True),
    "correction_weights-float": (lambda: correction_weights(9, 1.0), "harmonic count", 1.0),
}


@pytest.mark.parametrize("call, name, value", COUNTS.values(), ids=list(COUNTS))
def test_a_fraction_or_a_bool_is_not_a_count(call, name, value):
    correction_weights(9, 1)  # a cached int key must not answer for True or 1.0
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


def test_a_count_is_checked_for_its_range_and_then_for_being_whole():
    assert ArimaSpec(phi=(0.5,), d=np.int64(1), truncation=np.int64(30)).min_history == 31
    assert LinearSpec(0.3, (0.5, 0.2), delay=np.int32(2)).min_history == 3
    assert fit_residual_fourier(RESIDUALS, np.int64(1)) == fit_residual_fourier(RESIDUALS, 1)
    assert correction_weights(9, np.int64(2)) is correction_weights(9, 2)
    for call, message in [(lambda: ArimaSpec(truncation=10.5), "truncation must be at least 20"),
                          (lambda: SetarSpec(**SETAR, delay=-0.5), "delay must be >= 0"),
                          (lambda: LinearSpec(0.3, (0.5,), delay=0.5), "delay must be >= 1"),
                          (lambda: fit_residual_fourier(RESIDUALS, 5.5),
                           "harmonic count 5 outside [0, 3]"),
                          (lambda: ArimaSpec(truncation=np.float64(30.0)),
                           f"truncation must be an integer, got {np.float64(30.0)!r}"),
                          (lambda: SetarSpec(**SETAR, delay=np.True_),
                           f"delay must be an integer, got {np.True_!r}")]:
        with pytest.raises(InvalidInputError) as info:
            call()
        assert str(info.value) == message
