"""Comparison forecasters: linear AR, ARIMA/SARIMA via AR-infinity weights, SETAR.

Coefficients are fixtures loaded from configuration (trained offline, kept
constant online); no parameter estimation happens here. ARIMA and SARIMA
one-step forecasts use truncated AR-infinity weights. The default weight
recursions reproduce the legacy arithmetic the shipped fixtures were derived
with, including its idiosyncrasies; ``standard=True`` switches to the textbook
polynomial long division of phi(B) Phi(B^s) (1-B)^d (1-B^s)^D / theta(B),
whose low-order terms the legacy recursions match.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .series import Series


def _values(history) -> np.ndarray:
    return history.values if isinstance(history, Series) else np.asarray(history, float)


@dataclass(frozen=True)
class ArimaSpec:
    """(S)ARIMA coefficients plus the AR-infinity truncation length."""

    phi: Tuple[float, ...] = ()
    theta: Tuple[float, ...] = ()
    seasonal_phi: Tuple[float, ...] = ()
    d: int = 0
    D: int = 0
    season_period: int = 1
    mu: float = 0.0
    truncation: int = 50

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "seasonal_phi",
                           tuple(float(v) for v in self.seasonal_phi))
        if self.truncation < 20:
            raise InvalidInputError("truncation must be at least 20")
        if self.d < 0 or self.D < 0 or self.season_period < 1:
            raise InvalidInputError("differencing orders / season period invalid")
        if self.theta:
            # Invertibility: all roots of 1 - theta_1 B - ... outside unit circle.
            poly = np.array([1.0] + [-t for t in self.theta])
            roots = np.roots(poly[::-1])
            if roots.size and np.abs(roots).min() <= 1.0 + 1e-9:
                raise InvalidInputError(
                    "MA polynomial not invertible (root on/inside unit circle)")

    @property
    def min_history(self) -> int:
        return self.truncation + self.season_period * self.D + self.d


@dataclass(frozen=True)
class SetarSpec:
    """Two-regime threshold AR; regime chosen by Z_{t-delay} vs threshold."""

    low_intercept: float
    low_coeffs: Tuple[float, ...]
    high_intercept: float
    high_coeffs: Tuple[float, ...]
    threshold: float
    delay: int = 0

    def __post_init__(self):
        object.__setattr__(self, "low_coeffs", tuple(float(v) for v in self.low_coeffs))
        object.__setattr__(self, "high_coeffs", tuple(float(v) for v in self.high_coeffs))
        if not self.low_coeffs or not self.high_coeffs:
            raise InvalidInputError("SETAR regimes need at least one coefficient")
        if not np.isfinite(self.threshold):
            raise InvalidInputError("threshold must be finite")
        if self.delay < 0:
            raise InvalidInputError("delay must be >= 0")


@dataclass(frozen=True)
class LinearSpec:
    """Affine AR over lags Z_t, Z_{t-delay}, Z_{t-2 delay}, ..."""

    intercept: float
    coeffs: Tuple[float, ...]
    delay: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(v) for v in self.coeffs))
        if not self.coeffs:
            raise InvalidInputError("linear spec needs at least one coefficient")
        if self.delay < 1:
            raise InvalidInputError("delay must be >= 1")


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


def _ar_polynomial(spec: ArimaSpec) -> np.ndarray:
    """Coefficients of phi(B) Phi(B^s) (1-B)^d (1-B^s)^D in powers of B."""
    poly = np.array([1.0])
    ar = np.zeros(len(spec.phi) + 1)
    ar[0] = 1.0
    ar[1:] = [-p for p in spec.phi]
    poly = _poly_mul(poly, ar)
    if spec.seasonal_phi:
        sar = np.zeros(spec.season_period * len(spec.seasonal_phi) + 1)
        sar[0] = 1.0
        for j, p in enumerate(spec.seasonal_phi, start=1):
            sar[spec.season_period * j] = -p
        poly = _poly_mul(poly, sar)
    for _ in range(spec.d):
        poly = _poly_mul(poly, np.array([1.0, -1.0]))
    seasonal_diff = np.zeros(spec.season_period + 1)
    seasonal_diff[0], seasonal_diff[-1] = 1.0, -1.0
    for _ in range(spec.D):
        poly = _poly_mul(poly, seasonal_diff)
    return poly


def _psi_standard(spec: ArimaSpec, count: int) -> list:
    """AR-infinity weights by long division of the AR polynomial by theta(B)."""
    num = _ar_polynomial(spec)
    theta = spec.theta
    c = np.zeros(count)
    c[0] = 1.0
    for i in range(1, count):
        total = num[i] if i < num.size else 0.0
        for j, t in enumerate(theta, start=1):
            if j > i:
                break
            total += t * c[i - j]
        c[i] = total
    psi = [1.0] + [-v for v in c[1:]]
    return psi


def _is_arima112_shape(spec: ArimaSpec) -> bool:
    return (len(spec.phi) == 1 and len(spec.theta) == 2 and spec.d == 1
            and spec.D == 0 and not spec.seasonal_phi)


def _is_sarima_shape(spec: ArimaSpec) -> bool:
    return (len(spec.phi) == 1 and len(spec.theta) == 3 and spec.d == 0
            and spec.D == 0 and len(spec.seasonal_phi) == 1)


def psi_weights(spec: ArimaSpec, count: int, standard: bool = False) -> list:
    """AR-infinity forecast weights psi_0..psi_{count-1} (psi_0 = 1).

    By default the two fixture shapes use the legacy recursions as-is; note
    the legacy general ARIMA(1,1,2) term psi_i = psi_{i-1} theta_1 + theta_2
    drops the psi_{i-2} factor the standard recursion carries.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if standard:
        return _psi_standard(spec, count)
    if _is_arima112_shape(spec):
        phi, (t1, t2) = spec.phi[0], spec.theta
        psi = [1.0]
        if count > 1:
            psi.append(1.0 + phi - t1)
        if count > 2:
            psi.append(psi[1] * t1 - phi - t2)
        for _ in range(3, count):
            psi.append(psi[-1] * t1 + t2)
        return psi[:count]
    if _is_sarima_shape(spec):
        phi, (t1, t2, t3) = spec.phi[0], spec.theta
        Phi, s = spec.seasonal_phi[0], spec.season_period
        psi = [1.0]
        if count > 1:
            psi.append(phi - t1)
        if count > 2:
            psi.append(psi[1] * t1 - t2)
        if count > 3:
            psi.append(psi[2] * t1 + psi[2] * t2 - t3)
        for i in range(4, count):
            value = psi[i - 1] * t1 + psi[i - 2] * t2 + psi[i - 3] * t3
            if i == s:
                value += Phi
            elif i == s + 1:
                value -= phi * Phi
            psi.append(value)
        return psi[:count]
    return _psi_standard(spec, count)


@functools.lru_cache(maxsize=32)
def _ar_form(spec: ArimaSpec, standard: bool) -> Tuple[float, np.ndarray]:
    """mu (1 - sum psi_i) and psi_1..psi_truncation (read-only), computed
    once per (spec, mode) and process."""
    weights = np.asarray(psi_weights(spec, spec.truncation + 1, standard=standard)[1:])
    weights.setflags(write=False)
    return spec.mu * (1.0 - weights.sum()), weights


def forecast_arima(spec: ArimaSpec, history, standard: bool = False) -> float:
    """One-step forecast: mu (1 - sum psi_i) + sum_i psi_i Z_{t+1-i}."""
    z = _values(history)
    if z.size < spec.min_history:
        raise InsufficientDataError(
            f"history of {z.size} < required {spec.min_history}")
    intercept, weights = _ar_form(spec, bool(standard))
    lagged = z[-1:-spec.truncation - 1:-1]  # Z_t, Z_{t-1}, ...
    return float(intercept + weights @ lagged)


def forecast_setar(spec: SetarSpec, history) -> float:
    """Regime-switching affine AR; ties at the threshold go to the low regime."""
    z = _values(history)
    need = max(len(spec.low_coeffs), len(spec.high_coeffs), spec.delay + 1)
    if z.size < need:
        raise InsufficientDataError(f"history of {z.size} < required {need}")
    transition = z[-1 - spec.delay]
    if transition <= spec.threshold:
        intercept, coeffs = spec.low_intercept, spec.low_coeffs
    else:
        intercept, coeffs = spec.high_intercept, spec.high_coeffs
    return float(intercept + sum(c * z[-1 - j] for j, c in enumerate(coeffs)))


def forecast_linear(spec: LinearSpec, history) -> float:
    """Affine combination of delay-spaced lags."""
    z = _values(history)
    need = (len(spec.coeffs) - 1) * spec.delay + 1
    if z.size < need:
        raise InsufficientDataError(f"history of {z.size} < required {need}")
    return float(spec.intercept
                 + sum(c * z[-1 - j * spec.delay] for j, c in enumerate(spec.coeffs)))
