"""Plain-text (INI) configuration for benchmark fixtures and frequencies.

A packaged ``defaults.cfg`` ships the standard coefficient sets, and the
default frequencies are ``models.DEFAULT_OMEGA``; a user config file
overrides sections or individual keys, ``[omega]`` included. The packaged
configuration is parsed once per process and cannot be modified.
"""
from __future__ import annotations

import configparser
import functools
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Optional

from .benchmarks import ArimaSpec, LinearSpec, SetarSpec
from .errors import InvalidInputError
from .models import DEFAULT_OMEGA, ModelKind


def _floats(raw: str):
    return tuple(float(part) for part in raw.replace(",", " ").split())


@dataclass(frozen=True)
class BenchmarkConfig:
    linear: LinearSpec
    arima: ArimaSpec
    sarima: ArimaSpec
    setar: SetarSpec
    omega: Mapping[ModelKind, float]  # read-only

    def spec(self, name: str):
        """The coefficients of benchmark ``name`` (LINEAR, ARIMA, SARIMA or SETAR)."""
        return getattr(self, name.lower())


def _parser_with_defaults(path: Optional[str] = None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep model names like GM_S case-sensitive
    parser.read_string(resources.files("greycast").joinpath("defaults.cfg").read_text())
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise InvalidInputError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise InvalidInputError(f"malformed config file {path}: {exc}") from exc
    return parser


def load_config(path: Optional[str] = None) -> BenchmarkConfig:
    """The packaged configuration, overridden by the file at ``path`` if given."""
    if path is None:
        return _packaged_config()
    return _parse(path)


@functools.lru_cache(maxsize=None)
def _packaged_config() -> BenchmarkConfig:
    return _parse(None)


def _parse(path: Optional[str]) -> BenchmarkConfig:
    parser = _parser_with_defaults(path)
    try:
        lin = parser["linear"]
        linear = LinearSpec(intercept=lin.getfloat("intercept"),
                            coeffs=_floats(lin["coeffs"]),
                            delay=lin.getint("delay", 1))
        arima = _arima_from(parser["arima"])
        sarima = _arima_from(parser["sarima"])
        st = parser["setar"]
        setar = SetarSpec(low_intercept=st.getfloat("low_intercept"),
                          low_coeffs=_floats(st["low_coeffs"]),
                          high_intercept=st.getfloat("high_intercept"),
                          high_coeffs=_floats(st["high_coeffs"]),
                          threshold=st.getfloat("threshold"),
                          delay=st.getint("delay", 0))
        omega = dict(DEFAULT_OMEGA)
        if parser.has_section("omega"):
            for kind in omega:
                omega[kind] = parser["omega"].getfloat(kind.value, omega[kind])
    except (KeyError, ValueError) as exc:
        raise InvalidInputError(f"bad config value: {exc}") from exc
    return BenchmarkConfig(linear=linear, arima=arima, sarima=sarima,
                           setar=setar, omega=MappingProxyType(omega))


def _arima_from(section) -> ArimaSpec:
    return ArimaSpec(
        phi=_floats(section.get("phi", "")),
        theta=_floats(section.get("theta", "")),
        seasonal_phi=_floats(section.get("seasonal_phi", "")),
        d=section.getint("d", 0),
        D=section.getint("big_d", 0),
        season_period=section.getint("season_period", 1),
        mu=section.getfloat("mu", 0.0),
        truncation=section.getint("truncation", 50),
    )
