"""Dataset ingestion, aggregation, stuck-sensor noise augmentation, generators."""
from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import InvalidInputError
from .series import Series, all_finite

DEFAULT_SEED = 20230216


def resolve_seed(seed: Optional[int]) -> int:
    """Explicit seed wins, then the GREYCAST_SEED env var, then the default."""
    if seed is not None:
        return int(seed)
    env = os.environ.get("GREYCAST_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInputError(f"GREYCAST_SEED must be an integer: {env!r}") from exc
    return DEFAULT_SEED


@dataclass(frozen=True)
class Dataset:
    """A set of same-interval series and the source they were read from."""

    series: Tuple[Series, ...]
    source: str = ""

    def __post_init__(self):
        if not self.series:
            raise InvalidInputError("dataset needs at least one series")
        intervals = {s.interval for s in self.series}
        if len(intervals) > 1:
            raise InvalidInputError("all series in a dataset must share an interval")
        object.__setattr__(self, "series", tuple(self.series))


#: The stamps that ``datetime.fromisoformat`` reads alike on every supported
#: Python: an extended date, then optionally 'T' or a space, hh[:mm[:ss]]
#: with 3 or 6 decimals, and a +hh:mm offset.
_EXTENDED = re.compile(r"\d{4}-\d\d-\d\d(?:[T ]\d\d(?::\d\d(?::\d\d(?:\.\d{3}(?:\d{3})?)?)?)?"
                       r"(?:[+-]\d\d:\d\d)?)?")
#: Every other accepted stamp, a date and a time of day: each extended or
#: basic (20240205T000530), 1 to 6 decimals after '.' or ',', and an offset
#: of Z, +hh, +hhmm or +hh:mm. (A basic date alone is an integer index.)
_ISO = re.compile(r"(\d{4})(-?)(\d\d)\2(\d\d)[T ](\d\d)(?:(:?)(\d\d)(?:\6(\d\d)"
                  r"(?:[.,](\d{1,6}))?)?)?(?:(Z)|([+-]\d\d)(?::?(\d\d))?)?")


def _extended(raw: str) -> str:
    """``raw`` as an ``_EXTENDED`` stamp; ValueError if ``_ISO`` refuses it."""
    if _EXTENDED.fullmatch(raw):
        return raw
    match = _ISO.fullmatch(raw)
    if match is None:
        raise ValueError(raw)
    year, _, month, day, hour, _, minute, second, decimals, utc, zone, zone_min = match.groups()
    offset = "+00:00" if utc else f"{zone}:{zone_min or '00'}" if zone else ""
    return (f"{year}-{month}-{day}T{hour}:{minute or '00'}:{second or '00'}"
            f".{(decimals or '').ljust(6, '0')}{offset}")


def _parse_timestamp(raw: str, line_no: int):
    raw = raw.strip()
    # An integer literal has no ':' and no '-' past its sign, so an ISO stamp
    # skips the failing int() call.
    if ":" not in raw and "-" not in raw[1:]:
        try:
            return int(raw), True
        except ValueError:
            pass
    try:
        return datetime.fromisoformat(_extended(raw)), False
    except ValueError as exc:
        raise InvalidInputError(
            f"line {line_no}: bad timestamp {raw!r} (ISO-8601 or integer index)"
        ) from exc


def ingest_csv(path: str, interval: Optional[float] = None) -> Dataset:
    """Read a ``timestamp,value[,location]`` CSV into one series per (day, location).

    The first line is a header. Timestamps are ISO-8601 (grouped by calendar
    day) or plain integer indices (one group); a file whose ISO stamps mix
    ones with and without a UTC offset is refused, naming the first line
    that differs from the first stamp. The sampling interval is inferred
    from the first two rows of a group unless given; a file whose groups
    differ in it is refused, naming the first group that differs from the
    first one. Negative values are rejected with their line numbers.
    """
    groups: Dict[Tuple[str, str], List[Tuple[object, float]]] = {}
    negatives: List[int] = []
    raw = None  # the latest timestamp field, parsed into stamp and is_index
    aware = None  # whether the file's first ISO stamp has a UTC offset
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file") from None
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise InvalidInputError(f"line {line_no}: expected timestamp,value")
            if row[0] != raw:  # rows of one time at several locations parse it once
                raw = row[0]
                stamp, is_index = _parse_timestamp(raw, line_no)
                if not is_index and (stamp.tzinfo is not None) is not aware:
                    if aware is not None:
                        raise InvalidInputError(
                            f"line {line_no}: timestamp {raw.strip()!r} "
                            f"{'lacks' if aware else 'has'} a UTC offset, unlike the first one")
                    aware = stamp.tzinfo is not None
                day = "" if is_index else stamp.date().isoformat()
            try:
                value = float(row[1])
            except ValueError:
                raise InvalidInputError(
                    f"line {line_no}: non-numeric value {row[1]!r}") from None
            if not math.isfinite(value):
                raise InvalidInputError(f"line {line_no}: non-finite value")
            if value < 0:
                negatives.append(line_no)
            location = row[2].strip() if len(row) > 2 else ""
            groups.setdefault((day, location), []).append((stamp, value))
    if negatives:
        shown = ", ".join(str(n) for n in negatives[:10])
        raise InvalidInputError(
            f"{len(negatives)} negative value(s) at line(s): {shown}")
    if not groups:
        raise InvalidInputError(f"{path}: no data rows")

    series = []
    for (day, location), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r[0])
        values = [v for _, v in rows]
        if interval is not None:
            step = float(interval)
        elif len(rows) >= 2 and not isinstance(rows[0][0], int):
            step = (rows[1][0] - rows[0][0]).total_seconds()
        elif len(rows) >= 2:
            step = float(rows[1][0] - rows[0][0])
        else:
            step = 60.0
        if step <= 0:
            raise InvalidInputError("could not infer a positive sampling interval")
        label = " ".join(part for part in (day, location) if part) or os.path.basename(path)
        if series and step != series[0].interval:
            raise InvalidInputError(
                f"series {label!r} has an interval of {step:g} s and series "
                f"{series[0].label!r} one of {series[0].interval:g} s, but all series in a "
                f"dataset must share an interval; each is read from its series' first two rows")
        series.append(Series(np.array(values), interval=step, label=label))
    return Dataset(series=tuple(series), source=path)


def aggregate(series: Series, target_interval: float) -> Series:
    """Non-overlapping block means; a trailing partial block is dropped."""
    if not 0 < target_interval < math.inf:
        raise InvalidInputError(f"target interval {target_interval!r} is not finite and positive")
    ratio = target_interval / series.interval
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise InvalidInputError(
            f"target interval {target_interval} is not an integer multiple "
            f"of {series.interval}")
    if factor == 1:
        return series
    n_blocks = len(series) // factor
    if n_blocks < 1:
        raise InvalidInputError("series shorter than one aggregation block")
    blocks = series.values[:n_blocks * factor].reshape(n_blocks, factor)
    return Series(blocks.mean(axis=1), interval=float(target_interval),
                  label=series.label)


def _stuck_runs(values: np.ndarray, min_run: int = 3):
    """Maximal runs of >= min_run identical consecutive values."""
    runs = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] != values[start]:
            if i - start >= min_run:
                runs.append((start, i))
            start = i
    return runs


def augment_stuck_values(series: Series, sigma: float = 0.01,
                         seed: Optional[int] = None) -> Series:
    """Add low white noise to long stuck (repeated-value) sections.

    Every maximal run of three or more identical values gets independent
    N(0, sigma^2) noise, clipped at zero from below. Deterministic per seed.
    """
    if not (sigma > 0):
        raise InvalidInputError("sigma must be positive")
    runs = _stuck_runs(series.values)
    if not runs:
        return series
    rng = np.random.default_rng(resolve_seed(seed))
    values = series.values.copy()
    for start, end in runs:
        values[start:end] = np.maximum(
            0.0, values[start:end] + rng.normal(0.0, sigma, end - start))
    return Series(values, interval=series.interval, label=series.label)


#: The most points ``synth`` generates, about 80 MB of values; it refuses a
#: longer series before building any of it.
MAX_SYNTH_POINTS = 10_000_000


def _number(key: str, raw, rule: str):
    """A synthetic parameter under its rule: a finite float ("real"), one
    not negative ("scale"), a whole number as an int ("index") or a whole
    number of at least 1 ("count"); else ``InvalidInputError``. A bool is no
    number, and an n above ``MAX_SYNTH_POINTS`` is refused too."""
    whole = rule in ("index", "count")
    try:
        value = math.nan if isinstance(raw, (bool, np.bool_)) else float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value) or (whole and value != int(value)):
        raise InvalidInputError(
            f"parameter {key} must be a {'whole' if whole else 'finite'} number, got {raw!r}")
    if rule == "count" and value < 1:
        raise InvalidInputError(f"parameter {key} must be at least 1, got {raw!r}")
    if key == "n" and value > MAX_SYNTH_POINTS:
        raise InvalidInputError(f"parameter n must be at most {MAX_SYNTH_POINTS}, got {raw!r}")
    if rule == "scale" and value < 0:
        raise InvalidInputError(f"parameter {key} must not be negative, got {raw!r}")
    return int(value) if whole else value


def _exponential(rng, a, b, n, x1) -> np.ndarray:
    if a == -2.0:  # the recursion divides by 1 + a/2
        raise InvalidInputError("parameter a must not be -2")
    values = [x1]
    acc = x1
    for _ in range(n - 1):
        nxt = (b - a * acc) / (1.0 + a / 2.0)
        values.append(nxt)
        acc += nxt
    return np.array(values)


def _logistic(rng, cap, mid, n, rate, sigma) -> np.ndarray:
    mid = n / 2.0 if mid is None else mid
    k = np.arange(1, n + 1, dtype=float)
    values = cap / (1.0 + np.exp(-rate * (k - mid)))  # e^x = inf gives the limit, 0
    if sigma > 0:
        values = np.maximum(0.0, values + rng.normal(0.0, sigma, n))
    return values


def _seasonal(rng, amp, mean, n, period, sigma) -> np.ndarray:
    if period == 0.0:
        raise InvalidInputError("parameter period must not be 0")
    k = np.arange(1, n + 1, dtype=float)
    values = mean + amp * np.sin(2.0 * np.pi * k / period)
    if sigma > 0:
        values = values + rng.normal(0.0, sigma, n)
    return np.maximum(0.0, values)


def _incident(rng, base, drop, n, ramp, recover, sigma, start) -> np.ndarray:
    if n is None:  # the default n follows recover
        n = max(288, recover + 30)
        if n > MAX_SYNTH_POINTS:
            raise InvalidInputError(
                f"incident's default n = recover + 30 = {n} is above {MAX_SYNTH_POINTS}; give n")
    if not (1 <= start < recover <= n):
        raise InvalidInputError("incident needs 1 <= start < recover <= n")
    if ramp > n:
        raise InvalidInputError(f"parameter ramp must be at most n = {n}, got {ramp}")
    values = np.full(n, base)
    low = base - drop
    for j in range(ramp):  # sharp down-ramp at the change point
        idx = start - 1 + j
        if idx < n:
            values[idx] = base + (low - base) * (j + 1) / ramp
    values[start - 1 + ramp:recover - 1] = low
    for j in range(ramp):  # recovery ramp
        idx = recover - 1 + j
        if idx < n:
            values[idx] = low + (base - low) * (j + 1) / ramp
    if sigma > 0:
        values = np.maximum(0.0, values + rng.normal(0.0, sigma, n))
    return values


#: Each generator and the parameters it reads: {parameter: (default, rule)},
#: under a rule of ``_number``. A default of None is derived by the generator.
_GENERATORS = {
    "exponential": (_exponential, {"a": (0.1, "real"), "b": (2.0, "real"),
                                   "n": (100, "count"), "x1": (1.0, "real")}),
    "logistic": (_logistic, {"cap": (100.0, "real"), "mid": (None, "real"),
                             "n": (100, "count"), "rate": (0.1, "real"),
                             "sigma": (0.0, "scale")}),
    "seasonal": (_seasonal, {"amp": (5.0, "real"), "mean": (20.0, "real"),
                             "n": (100, "count"), "period": (12.0, "real"),
                             "sigma": (0.0, "scale")}),
    "incident": (_incident, {"base": (60.0, "real"), "drop": (35.0, "real"),
                             "n": (None, "count"), "ramp": (2, "count"),
                             "recover": (230, "index"), "sigma": (0.0, "scale"),
                             "start": (220, "index")}),
}


def generate_synthetic(name: str, seed: Optional[int] = None,
                       interval: float = 60.0, **params) -> Series:
    """Deterministic synthetic series; parameters are recorded in the label.
    Each must be one the generator reads and a number under its rule in
    ``_GENERATORS``; the others take their defaults. The generators run with
    numpy's warnings off, and a series that is not finite is refused."""
    key = name.strip().lower()
    if key not in _GENERATORS:
        raise InvalidInputError(
            f"unknown generator '{name}' (choose from {sorted(_GENERATORS)})")
    generator, table = _GENERATORS[key]
    unknown = [k for k in params if k not in table]
    if unknown:
        raise InvalidInputError(
            f"parameter {unknown[0]} is not one of {key}'s: {', '.join(table)}")
    actual_seed = resolve_seed(seed)
    rng = np.random.default_rng(actual_seed)
    given = {k: _number(k, v, table[k][1]) for k, v in params.items()}
    with np.errstate(all="ignore"):
        values = generator(rng, **{k: given.get(k, default) for k, (default, _) in table.items()})
    if not all_finite(values):  # the defaults give finite series
        bad = int(np.argmin(np.isfinite(values)))
        shown = ", ".join(f"parameter {k} = {v!r}" for k, v in given.items())
        raise InvalidInputError(f"{key} gives a non-finite value at index {bad} for {shown}")
    detail = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    label = f"{key}({detail}) seed={actual_seed}".strip()
    return Series(values, interval=interval, label=label)
