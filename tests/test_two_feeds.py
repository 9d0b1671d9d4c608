"""The closed forms give a window the same bits on floats as in a stack.

A stack of one, the online case and every ``GreyFit``, runs on floats; any
larger stack runs on (N,) rows. Both feeds go through the one kernel of each
closed form. These tests build fits by hand at the forms' edges (a = 0
exactly, |a| = 1e-300, exponentials and omega * t that overflow, Verhulst
denominators that vanish, GM_ESC's e^(-a t) overflowing) and check that
``forecast``, ``fitted_values`` and ``accumulated_response`` of each fit
equal ``forecast_windows``, ``fitted_windows`` and the accumulated response
of the same parameters as window i of a 13-window stack: float hex, error
class, message and overflow set. The float feed rests on ``np.exp`` and
``np.expm1`` giving a float the bits of their array loops, which the last
test checks.
"""
import itertools
import math

import numpy as np
import pytest

from greycast import models
from greycast.errors import GreycastError
from greycast.models import (
    Failures,
    GreyFit,
    ModelKind,
    WindowFits,
    accumulated_response,
    fitted_values,
    fitted_windows,
    forecast,
    forecast_windows,
)

STACK = 13
HORIZONS = (1, 2, 40, 300)
TIMES = (1.0, 2.5, 9.0, 400.0)

# a = 0 exactly and its sign, |a| = 1e-300, moderate values, and values whose
# exponentials overflow at the forecast horizons (e^(800 t) at once, e^(400 t)
# from t = 2, e^(a t) near the float range's edge).
A_VALUES = (0.0, -0.0, 1e-300, -1e-300, 1e-13, 0.3, -0.3, 2.0, -2.0,
            400.0, -400.0, 709.0, -709.0, 800.0, -800.0)
B_VALUES = (1.0, -2.5, 1e300)
# omega * t overflows from t = 180 at 1e306 and from t = 4 at 5e307; at
# 1e-200, a^2 + omega^2 is 0 for |a| <= 1e-300, a 0/0 on both feeds.
OMEGAS = (1.0, 1e-200, 1e306, 5e307)


def fits_of(kind):
    """Hand-built fits of ``kind``: every (a, b, omega) above, and for GVM
    the fits whose denominators vanish at k = 2 and k = 3 and one whose
    b x0(1) overflows, which makes them nan."""
    omegas = OMEGAS if kind in models.TRIG_KINDS else (None,)
    fits = [GreyFit(kind, a=a, b=b, b1=0.5 * b, b2=-b, b3=b + 1.0, omega=omega,
                    x0_1=3.0, K=None, window_len=4)
            for omega, a, b in itertools.product(omegas, A_VALUES, B_VALUES)]
    if kind is ModelKind.GVM:
        ln2 = math.log(2.0)
        # b x0(1) = 2 ln 2 and a - b x0(1) = -ln 2: the (k-2) denominator is
        # 0 at k = 3 and the (k-1) one at k = 2.
        fits += [GreyFit(kind, a=ln2, b=2.0 * ln2 / 3.0, x0_1=3.0, window_len=4),
                 GreyFit(kind, a=0.3, b=1e300, x0_1=1e300, window_len=4)]
    return fits


def stacks(kind):
    """(fits, WindowFits) pairs: each run of 13 fits of one omega, as the
    windows of one stack; the last run is padded with the first fits."""
    fits = fits_of(kind)
    for omega, group in itertools.groupby(fits, key=lambda fit: fit.omega):
        group = list(group)
        for start in range(0, len(group), STACK):
            chunk = (group[start:start + STACK] + group)[:STACK]
            rows = np.array([models._stack_of_one(fit)[1:6] for fit in chunk]).T
            yield chunk, WindowFits(kind, *rows, omega, 4, Failures(STACK))


def outcome(call):
    """Float hex of what ``call`` returns, or its error's class and message."""
    try:
        with np.errstate(all="ignore"):
            value = call()
    except (GreycastError, OverflowError) as exc:
        return type(exc), str(exc)
    return [float(v).hex() for v in np.ravel(value)]


def in_stack(stack, evaluate, i, overflow_error):
    """Window i's outcome of ``evaluate`` on its own copy of ``stack``'s
    failures, as the one-window function reports it, and whether window i
    is in the overflow set."""
    own = stack._replace(failures=Failures(STACK))
    with np.errstate(all="ignore"):
        values = evaluate(own)
    failures = own.failures
    if i in failures.errors:
        if overflow_error and i in failures.overflows:
            return (OverflowError, "math range error"), True
        error = failures.errors[i]
        return (type(error), str(error)), i in failures.overflows
    return [float(v).hex() for v in np.ravel(values[i])], False


def on_floats(fit, evaluate):
    """Whether ``evaluate`` puts the stack of one of ``fit`` in its overflow set."""
    one = models._stack_of_one(fit)
    with np.errstate(all="ignore"):
        evaluate(one)
    assert isinstance(one.a, float)
    return 0 in one.failures.overflows


def accumulated(t):
    return lambda fits: fits.x0_1 + models._increment(fits, 1.0, t - 1.0)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
def test_closed_forms_agree_on_floats_and_in_a_stack(kind):
    seen = set()
    for chunk, stack in stacks(kind):
        for i, fit in enumerate(chunk):
            checks = [(lambda f, h=h: forecast(f, h),
                       lambda fits, h=h: forecast_windows(fits, h), False)
                      for h in HORIZONS]
            checks.append((fitted_values, fitted_windows, True))
            if kind is not ModelKind.GVM:
                checks += [(lambda f, t=t: accumulated_response(f, t),
                            lambda fits, t=t: np.atleast_1d(accumulated(t)(fits)), True)
                           for t in TIMES]
            for one, evaluate, overflow_error in checks:
                got, overflowed = in_stack(stack, evaluate, i, overflow_error)
                assert outcome(lambda: one(fit)) == got, (fit, got)
                assert on_floats(fit, evaluate) == overflowed, fit
                seen.add(got[1].split(" (")[0] if isinstance(got, tuple) else "value")
    expected = {"value", "math range error", "non-finite forecast"}
    if kind is ModelKind.GVM:
        expected |= {"Verhulst forecast: e^(a(k-1)) denominator vanished",
                     "Verhulst forecast: e^(a(k-2)) denominator vanished"}
    expected.add(f"{kind.value} closed form overflowed")
    if kind in models.TRIG_KINDS:
        expected |= {f"{models.OMEGA_OVERFLOW} at t = {t}" for t in (4, 304)}
    assert expected <= seen


def test_exp_and_expm1_give_floats_their_array_bits():
    """``np.exp`` and ``np.expm1`` on a float equal the entry of the same
    value in an array, over 6,000 values up to the overflow edge and past
    it, so the float feed may call them where the stack does."""
    rng = np.random.default_rng(21)
    edge = math.log(np.finfo(float).max)
    values = np.concatenate([
        np.linspace(-746.0, 710.0, 2000),
        rng.normal(0.0, 5.0, 1000),
        rng.uniform(-1e-6, 1e-6, 500),
        edge + rng.uniform(-1e-9, 1e-9, 500),
        np.nextafter(edge, [-np.inf] * 10 + [np.inf] * 10),
        -745.13321910194 + rng.uniform(-1e-6, 1e-6, 480),
        rng.uniform(-700.0, 700.0, 1500),
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, np.inf, -np.inf, np.nan],
    ])
    with np.errstate(all="ignore"):
        for function in (np.exp, np.expm1):
            stacked = function(values)
            alone = [function(float(v)) for v in values.tolist()]
            assert [float(v).hex() for v in alone] == [float(v).hex() for v in stacked]
