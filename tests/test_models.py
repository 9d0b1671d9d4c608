import decimal
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from greycast import (
    InsufficientDataError,
    InvalidInputError,
    NumericalDegeneracyError,
)
from greycast.models import (
    DEFAULT_OMEGA,
    GreyFit,
    ModelKind,
    accumulated_response,
    fit_esc,
    fit_gm11,
    fit_gvm,
    fit_model,
    fit_trig,
    fitted_values,
    forecast,
    forecast_gm11,
    forecast_gvm,
    forecast_trig,
)
from conftest import basic_form_series, normal_equations

OMEGA_TABLE = [2.65, 4.30, 9.30, 74.10]


def whitenization_rhs(fit):
    """Right-hand side of dx1/dt = forcing(t) - a*x1 for the ODE oracle."""
    def rhs(t, y):
        if fit.kind is ModelKind.GM_S:
            f = fit.b1 * np.sin(fit.omega * t) + fit.b2
        elif fit.kind is ModelKind.GM_C:
            f = fit.b1 * np.cos(fit.omega * t) + fit.b2
        elif fit.kind is ModelKind.GM_SC:
            f = (fit.b1 * np.sin(fit.omega * t)
                 + fit.b2 * np.cos(fit.omega * t) + fit.b3)
        elif fit.kind is ModelKind.GM_ESC:
            f = (np.exp(-fit.a * t)
                 * (fit.b1 * np.sin(fit.omega * t) + fit.b2 * np.cos(fit.omega * t))
                 + fit.b3)
        else:
            f = fit.b
        return f - fit.a * y[0]
    return rhs


def integrate_accumulated(fit, times):
    sol = solve_ivp(whitenization_rhs(fit), (1.0, float(max(times))), [fit.x0_1],
                    t_eval=np.asarray(times, float), rtol=1e-11, atol=1e-12,
                    method="DOP853", max_step=0.05)
    assert sol.success
    return sol.y[0]


class TestGm11:
    def test_constant_window_degenerate_a(self):
        fit = fit_gm11([2, 2, 2, 2])
        assert fit.a == pytest.approx(0.0, abs=1e-12)
        assert fit.b == pytest.approx(2.0, rel=1e-12)

    def test_recovers_generating_parameters(self):
        fit = fit_gm11(basic_form_series(0.1, 2.0, 1.0, 4))
        assert fit.a == pytest.approx(0.1, rel=1e-9)
        assert fit.b == pytest.approx(2.0, rel=1e-9)
        assert fit.x0_1 == 1.0

    def test_design_shape_for_window_of_four(self):
        # 4 observations give 3 equations in 2 unknowns.
        with pytest.raises(InsufficientDataError):
            fit_gm11([1.0, 2.0, 3.0])

    def test_rejects_negative_values(self):
        with pytest.raises(InvalidInputError):
            fit_gm11([1.0, -0.5, 2.0, 3.0])

    def test_forecast_degenerate_branch(self):
        fit = GreyFit(ModelKind.GM11, a=0.0, b=2.0, x0_1=2.0, window_len=4)
        for k in (1, 3, 10):
            assert forecast_gm11(fit, k) == 2.0

    def test_forecast_frozen_values(self):
        fit = GreyFit(ModelKind.GM11, a=0.1, b=2.0, x0_1=1.0, window_len=4)
        # oracle: direct high-precision evaluation of the forecast equation
        assert forecast_gm11(fit, 4) == pytest.approx(1.3394653182754927, rel=1e-12)
        fit = GreyFit(ModelKind.GM11, a=-0.1, b=1.0, x0_1=1.0, window_len=4)
        assert forecast_gm11(fit, 1) == pytest.approx(1.1568800988321239, rel=1e-12)

    def test_fitted_values_match_closed_form(self):
        fit = fit_gm11(basic_form_series(-0.2, 3.0, 2.0, 6))
        fitted = fitted_values(fit)
        assert len(fitted) == 5
        for offset, value in enumerate(fitted):
            assert value == pytest.approx(forecast_gm11(fit, offset + 1), rel=1e-12)


class TestGvm:
    def test_fit_matches_normal_equations_oracle(self):
        window = [1.0, 1.8, 2.4, 2.7]
        fit = fit_gvm(window)
        design = np.array([[-1.9, 3.61], [-4.0, 16.0], [-6.55, 42.9025]])
        oracle = normal_equations(design, np.array([1.8, 2.4, 2.7]))
        assert fit.a == pytest.approx(oracle[0], rel=1e-12)
        assert fit.b == pytest.approx(oracle[1], rel=1e-12)
        # frozen from the oracle
        assert fit.a == pytest.approx(-1.0188494800350806, rel=1e-12)
        assert fit.b == pytest.approx(-0.0937442605695151, rel=1e-10)

    def test_design_columns_structurally_linked(self):
        # second design column is the square of the negated first
        values = np.array([1.0, 1.8, 2.4, 2.7])
        x1 = np.cumsum(values)
        z = (x1[:-1] + x1[1:]) / 2
        assert np.allclose((-(-z)) ** 2, z ** 2)

    def test_all_equal_window_accepted(self):
        fit = fit_gvm([2.0, 2.0, 2.0, 2.0])
        assert math.isfinite(fit.a) and math.isfinite(fit.b)

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidInputError):
            fit_gvm([1.0, 0.0, 2.0, 3.0])

    def test_forecast_frozen_value(self):
        fit = fit_gvm([1.0, 1.8, 2.4, 2.7])
        # oracle: extended-precision evaluation of the product-form expression
        assert forecast_gvm(fit, 4) == pytest.approx(2.6681579377760431, rel=1e-9)
        assert forecast_gvm(fit, 5) == pytest.approx(1.8859519908399626, rel=1e-9)

    def test_b_zero_limit_is_pure_exponential(self):
        a, x01, k = 0.4, 2.0, 5
        zero = GreyFit(ModelKind.GVM, a=a, b=0.0, x0_1=x01, window_len=4)
        limit = x01 * (1.0 - math.exp(a)) * math.exp(-a * (k - 1))
        assert forecast_gvm(zero, k) == pytest.approx(limit, rel=1e-12)
        near = GreyFit(ModelKind.GVM, a=a, b=1e-9, x0_1=x01, window_len=4)
        assert forecast_gvm(near, k) == pytest.approx(limit, rel=1e-6)

    def test_a_equals_b_x01_boundary(self):
        fit = GreyFit(ModelKind.GVM, a=0.5, b=0.25, x0_1=2.0, window_len=4)
        assert math.isfinite(forecast_gvm(fit, 4))

    def test_vanishing_denominator_raises(self):
        # b*x0(1) chosen so the leading denominator is exactly zero at k=4
        a, k = 0.5, 4
        g = math.exp(a * (k - 1))
        bx = a * g / (g - 1.0)
        fit = GreyFit(ModelKind.GVM, a=a, b=bx, x0_1=1.0, window_len=4)
        with pytest.raises(NumericalDegeneracyError):
            forecast_gvm(fit, k)


def trig_basic_form_series(kind, a, coeffs, omega, x1, n):
    """Data exactly satisfying the discrete basic form of a trig model."""
    values = [float(x1)]
    acc = float(x1)
    for k in range(2, n + 1):
        if kind is ModelKind.GM_S:
            forcing = coeffs[0] * math.sin(omega * k) + coeffs[1]
        elif kind is ModelKind.GM_C:
            forcing = coeffs[0] * math.cos(omega * k) + coeffs[1]
        else:
            forcing = (coeffs[0] * math.sin(omega * k)
                       + coeffs[1] * math.cos(omega * k) + coeffs[2])
        nxt = (forcing - a * acc) / (1.0 + a / 2.0)
        values.append(nxt)
        acc += nxt
    return np.array(values)


class TestTrigFits:
    def test_default_frequencies(self):
        assert DEFAULT_OMEGA[ModelKind.GM_S] == 4.30
        assert DEFAULT_OMEGA[ModelKind.GM_C] == 2.65
        assert DEFAULT_OMEGA[ModelKind.GM_SC] == 9.30
        assert DEFAULT_OMEGA[ModelKind.GM_ESC] == 74.10

    def test_gmc_on_exponential_data_zeroes_trig_term(self):
        values = basic_form_series(0.1, 2.0, 1.0, 8)
        fit = fit_trig(values, ModelKind.GM_C, omega=2.65)
        assert abs(fit.b1) <= 1e-6
        assert fit.a == pytest.approx(0.1, abs=1e-6)
        assert fit.b2 == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("kind,coeffs", [
        (ModelKind.GM_S, (0.7, 2.0)),
        (ModelKind.GM_C, (0.7, 2.0)),
        (ModelKind.GM_SC, (0.7, -0.4, 2.0)),
    ])
    def test_recovers_discrete_basic_form_parameters(self, kind, coeffs):
        # also pins the regressor time argument to the within-window index k
        omega = 1.3
        n = 6 if kind is ModelKind.GM_SC else 5
        values = trig_basic_form_series(kind, 0.15, coeffs, omega, 1.0, n)
        fit = fit_trig(values, kind, omega)
        assert fit.a == pytest.approx(0.15, rel=1e-9)
        assert fit.b1 == pytest.approx(coeffs[0], rel=1e-9)
        if kind is ModelKind.GM_SC:
            assert fit.b2 == pytest.approx(coeffs[1], rel=1e-9)
            assert fit.b3 == pytest.approx(coeffs[2], rel=1e-9)
        else:
            assert fit.b2 == pytest.approx(coeffs[1], rel=1e-9)

    def test_gmsc_needs_five_points(self):
        with pytest.raises(InsufficientDataError):
            fit_trig([1.0, 2.0, 3.0, 4.0], ModelKind.GM_SC, omega=9.3)

    def test_integration_constant_recomputable(self):
        values = trig_basic_form_series(ModelKind.GM_C, 0.15, (0.7, 2.0), 2.65, 1.0, 5)
        fit = fit_trig(values, ModelKind.GM_C, omega=2.65)
        w2 = fit.a ** 2 + fit.omega ** 2
        particular_1 = (fit.b1 * (fit.a * math.cos(fit.omega)
                                  + fit.omega * math.sin(fit.omega)) / w2
                        + fit.b2 / fit.a)
        assert fit.K == pytest.approx(math.exp(fit.a) * (fit.x0_1 - particular_1),
                                      rel=1e-12)


class TestEsc:
    def test_default_frequency(self):
        assert DEFAULT_OMEGA[ModelKind.GM_ESC] == 74.10

    def test_stage_two_vanishes_on_exponential_data(self):
        values = basic_form_series(0.1, 2.0, 1.0, 8)
        fit = fit_esc(values, omega=74.10)
        assert abs(fit.b1) <= 1e-6 and abs(fit.b2) <= 1e-6
        assert fit.a == pytest.approx(0.1, rel=1e-9)
        assert fit.b3 == pytest.approx(2.0, rel=1e-9)

    def test_constant_window_forecasts_constant(self):
        fit = fit_esc([3.0, 3.0, 3.0, 3.0], omega=74.10)
        assert forecast(fit) == pytest.approx(3.0, abs=1e-9)

    def test_stage_one_matches_plain_gm11(self):
        values = basic_form_series(-0.05, 1.5, 2.0, 6)
        esc = fit_esc(values, omega=9.3)
        gm = fit_gm11(values)
        assert esc.a == pytest.approx(gm.a, rel=1e-12)
        assert esc.b3 == pytest.approx(gm.b, rel=1e-12)


class TestForecastTrig:
    def test_zero_trig_coefficients_reduce_to_gm11(self):
        gm = GreyFit(ModelKind.GM11, a=0.2, b=1.5, x0_1=1.0, window_len=4)
        for kind in (ModelKind.GM_S, ModelKind.GM_C):
            trig = GreyFit(kind, a=0.2, b1=0.0, b2=1.5, omega=4.3,
                           x0_1=1.0, window_len=4)
            for k in range(1, 8):
                assert forecast_trig(trig, k) == pytest.approx(
                    forecast_gm11(gm, k), rel=1e-9)
        for kind in (ModelKind.GM_SC, ModelKind.GM_ESC):
            trig = GreyFit(kind, a=0.2, b1=0.0, b2=0.0, b3=1.5, omega=9.3,
                           x0_1=1.0, window_len=4)
            for k in range(1, 8):
                assert forecast_trig(trig, k) == pytest.approx(
                    forecast_gm11(gm, k), rel=1e-9)

    def test_gms_frozen_value(self):
        fit = GreyFit(ModelKind.GM_S, a=0.1, b1=0.5, b2=2.0, omega=4.3,
                      x0_1=1.0, window_len=4)
        # oracle: extended-precision closed form, cross-checked by ODE
        # integration below
        assert forecast_trig(fit, 4) == pytest.approx(1.4398783566135351, rel=1e-9)
        ode = integrate_accumulated(fit, [4.0, 5.0])
        assert ode[1] - ode[0] == pytest.approx(1.4398783566135351, rel=1e-6)

    def test_gmc_frozen_value(self):
        fit = GreyFit(ModelKind.GM_C, a=0.1, b1=0.5, b2=2.0, omega=2.65,
                      x0_1=1.0, window_len=4)
        assert forecast_trig(fit, 4) == pytest.approx(1.6464085233826705, rel=1e-9)
        ode = integrate_accumulated(fit, [4.0, 5.0])
        assert ode[1] - ode[0] == pytest.approx(1.6464085233826705, rel=1e-6)

    def test_initial_condition_exact(self):
        for kind in (ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC,
                     ModelKind.GM_ESC):
            fit = GreyFit(kind, a=0.3, b1=0.4, b2=-0.2, b3=1.0, omega=2.65,
                          x0_1=7.0, window_len=4)
            assert accumulated_response(fit, 1.0) == pytest.approx(7.0, rel=1e-12)
        gm = GreyFit(ModelKind.GM11, a=0.3, b=1.0, x0_1=7.0, window_len=4)
        assert accumulated_response(gm, 1.0) == 7.0

    def test_zero_a_matches_ode(self):
        for kind in (ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC,
                     ModelKind.GM_ESC):
            fit = GreyFit(kind, a=0.0, b1=0.4, b2=-0.2, b3=1.0, omega=2.65,
                          x0_1=2.0, window_len=4)
            times = np.arange(2.0, 8.0)
            ode = integrate_accumulated(fit, times)
            closed = np.array([accumulated_response(fit, t) for t in times])
            assert np.max(np.abs(closed - ode) / np.maximum(1.0, np.abs(ode))) <= 1e-8

    def test_closed_form_matches_ode_oracle_random_grid(self, rng):
        kinds = [ModelKind.GM_S, ModelKind.GM_C, ModelKind.GM_SC, ModelKind.GM_ESC]
        for trial in range(40):
            kind = kinds[trial % 4]
            a = float(rng.uniform(1e-3, 1.0) * rng.choice([-1.0, 1.0]))
            fit = GreyFit(kind, a=a, b1=float(rng.uniform(-2, 2)),
                          b2=float(rng.uniform(-2, 2)), b3=float(rng.uniform(0.1, 5)),
                          omega=float(rng.choice(OMEGA_TABLE)),
                          x0_1=float(rng.uniform(1, 10)), window_len=4)
            times = np.arange(2.0, 12.0)
            ode = integrate_accumulated(fit, times)
            closed = np.array([accumulated_response(fit, t) for t in times])
            rel = np.max(np.abs(closed - ode) / np.maximum(1.0, np.abs(ode)))
            assert rel <= 1e-6, (kind, a, fit.omega, rel)

    def test_degeneracy_safety_random_windows(self, rng):
        # no positive finite window may produce a silent non-finite forecast
        for _ in range(100):
            window = rng.uniform(0.01, 100.0, size=5)
            for kind in ModelKind:
                try:
                    fit = fit_model(kind, window, omega=2.65)
                    value = forecast(fit)
                except (InvalidInputError, NumericalDegeneracyError):
                    continue
                assert math.isfinite(value)


def test_multi_step_forecast_uses_same_fit():
    values = basic_form_series(0.1, 2.0, 1.0, 4)
    fit = fit_gm11(values)
    assert forecast(fit, steps_ahead=2) == pytest.approx(forecast_gm11(fit, 5), rel=1e-12)


def decimal_accumulated(fit, t):
    """x1hat(t) from ``fit``'s parameters in 80-digit decimal arithmetic.

    sin and cos of the float product omega*t come from ``math``, as in the
    closed form, so only the form's own arithmetic is under test.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        dec = decimal.Decimal
        a, x0 = dec(fit.a), dec(fit.x0_1)
        if fit.kind is ModelKind.GM11:
            b, bc = dec(fit.b), dec(0)
        else:
            b, bc = dec(fit.b2), dec(fit.b1)

        def particular(time):
            if fit.kind is ModelKind.GM11:
                return b / a
            w = dec(fit.omega)
            cos, sin = dec(math.cos(fit.omega * time)), dec(math.sin(fit.omega * time))
            return (a * bc * cos + bc * w * sin) / (a * a + w * w) + b / a

        return (x0 - particular(1.0)) * (-a * (dec(t) - 1)).exp() + particular(t)


@pytest.mark.parametrize("fit,value,reference", [
    # GM11 on a near-constant window: a is about 1e-9, next to the b/a pole.
    (fit_gm11([5.0, 5.0 + 3e-8, 5.0 - 1e-8, 5.0 + 2e-8]),
     lambda fit: forecast(fit),
     lambda fit: decimal_accumulated(fit, 5.0) - decimal_accumulated(fit, 4.0)),
    (GreyFit(ModelKind.GM_C, a=3e-9, b1=0.5, b2=2.0, omega=2.65, x0_1=1.0, window_len=4),
     lambda fit: accumulated_response(fit, 5.0),
     lambda fit: decimal_accumulated(fit, 5.0)),
])
def test_closed_form_keeps_precision_near_the_pole(fit, value, reference):
    exact = reference(fit)
    assert abs((decimal.Decimal(value(fit)) - exact) / exact) <= decimal.Decimal("1e-13")


@pytest.mark.parametrize("call,message", [
    (lambda: fit_model(ModelKind.GM_C, [1.0, 2.0, 3.0, 4.0], omega=0.0),
     "omega must be positive"),
    (lambda: fit_model(ModelKind.GM_ESC, [1.0, 2.0, 3.0, 4.0], omega=0.0),
     "omega must be positive"),
    (lambda: forecast(fit_gm11([1.0, 2.0, 3.0, 4.0]), steps_ahead=0),
     "steps_ahead must be >= 1"),
    (lambda: fit_trig([1.0, 2.0, 3.0, 4.0], ModelKind.GM11, omega=2.65),
     "fit_trig does not handle"),
    (lambda: accumulated_response(fit_gvm([1.0, 1.8, 2.4, 2.7]), 2.0),
     "GVM has no accumulated closed form"),
    (lambda: forecast_trig(fit_gm11([1.0, 2.0, 3.0, 4.0]), 4),
     "forecast_trig expects a trigonometric fit"),
])
def test_one_window_input_checks(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


@pytest.mark.parametrize("fit,missing", [
    (GreyFit(ModelKind.GM_C, a=0.1, b1=1.0, b2=1.0, x0_1=1.0), "omega"),
    (GreyFit(ModelKind.GM11, a=0.1, x0_1=1.0), "b"),
    (GreyFit(ModelKind.GVM, a=None, b=0.5, x0_1=1.0), "a"),
    (GreyFit(ModelKind.GM_S, a=0.1, b1=0.5, omega=4.3, x0_1=1.0), "b2"),
    (GreyFit(ModelKind.GM_SC, a=0.1, b1=0.5, b2=0.2, omega=9.3, x0_1=1.0), "b3"),
    (GreyFit(ModelKind.GM_ESC, a=0.1, b2=0.2, b3=1.0, omega=2.65, x0_1=1.0), "b1"),
    (GreyFit(ModelKind.GM11, a=0.1, b=2.0, x0_1=None), "x0_1"),
])
def test_hand_built_fit_missing_a_parameter(fit, missing):
    for call in (forecast, fitted_values, lambda f: forecast_gm11(f, 4)):
        with pytest.raises(InvalidInputError, match=f"{fit.kind.value} fit has no {missing}$"):
            call(fit)
