"""Comparison forecasters: linear AR, ARIMA/SARIMA via AR-infinity weights, SETAR.

Coefficients are fixtures loaded from configuration (trained offline, kept
constant online); no parameter estimation happens here. ARIMA and SARIMA
one-step forecasts use truncated AR-infinity weights. The default weight
recursions reproduce the legacy arithmetic the shipped fixtures were derived
with, including its idiosyncrasies; ``standard=True`` switches to the textbook
polynomial long division of phi(B) Phi(B^s) (1-B)^d (1-B^s)^D / theta(B),
whose low-order terms the legacy recursions match.

Each forecaster is written once over a stack of trailing histories
(``forecast_histories``), row by row, so a history's forecast does not depend
on the stack; ``forecast_linear``, ``forecast_arima`` and ``forecast_setar``
are the one-history case.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import NON_FINITE_FORECAST, InsufficientDataError, InvalidInputError
from .series import Series, all_finite, window_view


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
        for name in ("phi", "theta", "seasonal_phi"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
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

    @property
    def min_history(self) -> int:
        return max(len(self.low_coeffs), len(self.high_coeffs), self.delay + 1)


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

    @property
    def min_history(self) -> int:
        return (len(self.coeffs) - 1) * self.delay + 1


def _ar_polynomial(spec: ArimaSpec) -> np.ndarray:
    """Coefficients of phi(B) Phi(B^s) (1-B)^d (1-B^s)^D in powers of B."""
    poly = np.array([1.0])
    ar = np.zeros(len(spec.phi) + 1)
    ar[0] = 1.0
    ar[1:] = [-p for p in spec.phi]
    poly = np.convolve(poly, ar)
    if spec.seasonal_phi:
        sar = np.zeros(spec.season_period * len(spec.seasonal_phi) + 1)
        sar[0] = 1.0
        for j, p in enumerate(spec.seasonal_phi, start=1):
            sar[spec.season_period * j] = -p
        poly = np.convolve(poly, sar)
    for _ in range(spec.d):
        poly = np.convolve(poly, np.array([1.0, -1.0]))
    seasonal_diff = np.zeros(spec.season_period + 1)
    seasonal_diff[0], seasonal_diff[-1] = 1.0, -1.0
    for _ in range(spec.D):
        poly = np.convolve(poly, seasonal_diff)
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


def _affine(intercept: float, coeffs: Tuple[float, ...], tails: np.ndarray,
            spacing: int = 1) -> np.ndarray:
    """intercept + sum_j c_j Z_{t - j spacing} for every row of ``tails``, the
    terms added left to right from 0, as Python's ``sum`` adds them."""
    total = 0.0
    for j, c in enumerate(coeffs):
        total = total + c * tails[:, -1 - j * spacing]
    return intercept + total


def _forecast_rows(spec, tails: np.ndarray, standard: bool) -> np.ndarray:
    if isinstance(spec, ArimaSpec):
        intercept, weights = _ar_form(spec, bool(standard))
        lagged = tails[:, -1:-spec.truncation - 1:-1]  # Z_t, Z_{t-1}, ...
        # One dot product per row, as ``weights @ lagged`` computes it alone.
        return intercept + np.matmul(lagged[:, None, :], weights[:, None])[:, 0, 0]
    if isinstance(spec, SetarSpec):  # ties at the threshold go to the low regime
        return np.where(tails[:, -1 - spec.delay] <= spec.threshold,
                        _affine(spec.low_intercept, spec.low_coeffs, tails),
                        _affine(spec.high_intercept, spec.high_coeffs, tails))
    return _affine(spec.intercept, spec.coeffs, tails, spec.delay)


def forecast_histories(spec, values: np.ndarray, first: int,
                       standard: bool = False) -> Tuple[np.ndarray, Dict[int, str]]:
    """One-step forecasts from the histories values[:end], end = first ..
    values.size, and {row: message} for the rows the one-history forecaster
    refuses: a history shorter than ``spec.min_history`` (its forecast is
    nan), and a longer one whose forecast is not finite
    (``NON_FINITE_FORECAST``)."""
    need = spec.min_history
    count = values.size - first + 1
    short = min(max(need - first, 0), count)
    messages = dict(_short_messages(first, need, short))
    forecasts = np.empty(count)
    if short:
        forecasts[:short] = np.nan
    lo = first + short  # the first history long enough
    if lo <= values.size:
        # Row k holds the last ``need`` values of the k-th long history.
        tails = window_view(values[lo - need:], need, count - short)
        long = forecasts[short:]
        long[:] = _forecast_rows(spec, tails, standard)
        if not all_finite(long):
            bad = short + np.flatnonzero(~np.isfinite(long))
            messages.update(dict.fromkeys(bad.tolist(), NON_FINITE_FORECAST))
    return forecasts, messages


@functools.lru_cache(maxsize=64)
def _short_messages(first: int, need: int, short: int) -> Dict[int, str]:
    """{row: message} of the histories of length first .. first + short - 1,
    all shorter than ``need``. Kept for reuse, so callers copy it."""
    return {row: f"history of {first + row} < required {need}" for row in range(short)}


def _forecast_one(spec, history, standard: bool = False) -> float:
    z = history.values if isinstance(history, Series) else np.asarray(history, float)
    if z.ndim != 1 or not all_finite(z):
        raise InvalidInputError("a history must be a 1-d sequence of finite values")
    with np.errstate(all="ignore"):  # an overflow is the error below, not a warning
        forecasts, messages = forecast_histories(spec, z, z.size, standard)
    if messages:
        short = z.size < spec.min_history
        raise (InsufficientDataError if short else InvalidInputError)(messages[0])
    return float(forecasts[0])


def forecast_arima(spec: ArimaSpec, history, standard: bool = False) -> float:
    """One-step forecast: mu (1 - sum psi_i) + sum_i psi_i Z_{t+1-i}."""
    return _forecast_one(spec, history, standard)


def forecast_setar(spec: SetarSpec, history) -> float:
    """Regime-switching affine AR; ties at the threshold go to the low regime."""
    return _forecast_one(spec, history)


def forecast_linear(spec: LinearSpec, history) -> float:
    """Affine combination of delay-spaced lags."""
    return _forecast_one(spec, history)
