"""Multi-model comparison reports: per-model RMSE/MAPE/compute-time matrices.

``compare`` rolls every (model, series) pair through ``roll_forecast``,
series by series, each series inside one ``rolling._sharing`` scope: each
distinct grey fit of a series is solved once, and every trace equals the
standalone roll's. A model's compute time is read from its traces.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import Dataset
from .errors import GreycastError, InvalidInputError
from .metrics import _mape_of_misses, _rmse_of_misses, improvement
from .rolling import (
    ALL_MODEL_NAMES,
    ForecastTrace,
    RollingConfig,
    _fill_caches,
    _sharing,
    parse_model,
    resolve_config,
    roll_forecast,
)

#: Reference / candidate pair of the improvement summary row.
IMPROVEMENT_REFERENCE = "EFGVM"
IMPROVEMENT_CANDIDATE = "GM_C"


@dataclass(frozen=True)
class ModelRow:
    model: str
    rmse: float
    mape: float  # percent
    excluded_pairs: int
    # Mean seconds per series that the model costs on its own: the sum of a
    # trace's ``per_step_time``, which includes the shared fits it read.
    compute_time: float
    series_count: int
    failed: bool = False
    message: str = ""


@dataclass(frozen=True)
class EvalReport:
    rows: Tuple[ModelRow, ...]
    improvement_rmse: Optional[float] = None  # percent, candidate vs reference
    improvement_mape: Optional[float] = None

    def row(self, model: str) -> ModelRow:
        for row in self.rows:
            if row.model == model:
                return row
        raise KeyError(model)


def compare(dataset: Dataset, models: Sequence[str] = ALL_MODEL_NAMES,
            config: Optional[RollingConfig] = None, specs=None,
            omegas: Optional[Dict] = None) -> Tuple[EvalReport, List[ForecastTrace]]:
    """Roll every model over every series; average metrics across series.

    Per-model failures become flagged rows instead of aborting the report,
    and a failed model contributes no traces. ``omegas`` maps a grey
    ModelKind to a calibrated frequency, overriding the config defaults.
    Returns the report plus the per-(series, model) traces of the models
    that did not fail, model by model.

    The rolls of one series share their fits: each distinct grey fit is
    solved once, an EF model evaluates its base model's fits and GM_ESC
    starts from GM11's. Nothing is kept once the series is done.
    """
    base = config if config is not None else RollingConfig()
    configs = []
    for model in models:
        # The base config's benchmark coefficients belong to no one model.
        cfg = resolve_config(replace(base, model=model, benchmark_spec=None), specs)
        if omegas is not None:
            kind, _, _ = parse_model(model)
            if kind in omegas:
                cfg = replace(cfg, omega=omegas[kind])  # the config checks it
        configs.append(cfg)
    # Outside every roll's clock, so an EF, ARIMA or SARIMA row's time does
    # not depend on whether another roll filled a cache before it.
    _fill_caches(configs, max((series.values.size for series in dataset.series), default=0))
    runs: List[List[ForecastTrace]] = [[] for _ in configs]
    failures: List[Optional[str]] = [None] * len(configs)
    for series in dataset.series:
        with _sharing():
            for m, cfg in enumerate(configs):
                if failures[m] is not None:
                    continue  # a model stops at the first series it fails on
                try:
                    runs[m].append(roll_forecast(series, cfg))
                except GreycastError as exc:
                    failures[m] = str(exc)
    rows = [_row(cfg.model, own, failure, len(dataset.series))
            for cfg, own, failure in zip(configs, runs, failures)]
    traces = [trace for own, failure in zip(runs, failures) if failure is None
              for trace in own]

    report = EvalReport(rows=tuple(rows))
    names = {row.model for row in rows if not row.failed}
    if IMPROVEMENT_REFERENCE in names and IMPROVEMENT_CANDIDATE in names:
        ref, cand = report.row(IMPROVEMENT_REFERENCE), report.row(IMPROVEMENT_CANDIDATE)
        if ref.rmse > 0 and ref.mape > 0:
            report = replace(report, improvement_rmse=improvement(ref.rmse, cand.rmse),
                             improvement_mape=improvement(ref.mape, cand.mape))
    return report, traces


def _row(model: str, traces: List[ForecastTrace], failure: Optional[str],
         series_count: int) -> ModelRow:
    """One model's row from its trace per series: each trace's RMSE and MAPE
    from one array of misses. A roll's columns are finite, paired arrays, so
    the metrics' input checks are not made again."""
    if failure is not None:
        return ModelRow(model, math.nan, math.nan, 0, math.nan, series_count,
                        failed=True, message=failure)
    per_rmse: List[float] = []
    per_mape: List[float] = []
    excluded = 0
    with np.errstate(over="ignore"):  # a huge but finite miss gives inf, silently
        for trace in traces:
            observed = trace.observed_values
            misses = trace.predicted_values - observed
            per_rmse.append(_rmse_of_misses(misses))
            result = _mape_of_misses(misses, observed)
            per_mape.append(result.value)
            excluded += result.excluded
    return ModelRow(
        model=model,
        rmse=float(np.mean(sorted(per_rmse))),
        mape=float(np.mean(sorted(per_mape))),
        excluded_pairs=excluded,
        compute_time=float(np.mean([sum(trace.per_step_time) for trace in traces])),
        series_count=series_count,
    )


def format_table(report: EvalReport) -> str:
    """Aligned plain-text report table."""
    out = io.StringIO()
    header = f"{'model':<10} {'RMSE':>12} {'MAPE%':>10} {'CT(s)':>9} {'series':>7} {'excl':>5}"
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for row in report.rows:
        if row.failed:
            out.write(f"{row.model:<10} {'--':>12} {'--':>10} {'--':>9} "
                      f"{row.series_count:>7} {'--':>5}  FAILED: {row.message}\n")
        else:
            out.write(f"{row.model:<10} {row.rmse:>12.4f} {row.mape:>10.4f} "
                      f"{row.compute_time:>9.4f} {row.series_count:>7} "
                      f"{row.excluded_pairs:>5}\n")
    if report.improvement_rmse is not None:
        out.write(f"{'% Imp':<10} {report.improvement_rmse:>11.0f}% "
                  f"{report.improvement_mape:>9.0f}%  "
                  f"({IMPROVEMENT_CANDIDATE} over {IMPROVEMENT_REFERENCE})\n")
    return out.getvalue()


def format_csv(report: EvalReport, include_timing: bool = True) -> str:
    """Machine-readable report: model,metric,value,series_count,excluded_pairs.

    ``include_timing=False`` drops the wall-clock rows, making the output
    byte-reproducible for identical inputs and seeds.
    """
    lines = ["model,metric,value,series_count,excluded_pairs"]
    for row in report.rows:
        if row.failed:
            lines.append(f"{row.model},error,,{row.series_count},")
            continue
        lines.append(f"{row.model},rmse,{row.rmse!r},{row.series_count},{row.excluded_pairs}")
        lines.append(f"{row.model},mape,{row.mape!r},{row.series_count},{row.excluded_pairs}")
        if include_timing:
            lines.append(f"{row.model},compute_time,{row.compute_time!r},"
                         f"{row.series_count},{row.excluded_pairs}")
    if report.improvement_rmse is not None:
        lines.append(f"improvement,rmse,{report.improvement_rmse!r},,")
        lines.append(f"improvement,mape,{report.improvement_mape!r},,")
    return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as ``csv.QUOTE_MINIMAL`` writes it: quoted, with its quotes
    doubled, when it holds a comma, a quote, CR or LF; else as it is."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def format_trace_csv(traces: Sequence[ForecastTrace],
                     series_labels: Optional[Sequence[str]] = None) -> str:
    """Long-format per-step export for box-plot style downstream analysis.

    ``series_labels`` names each trace's series, one label per trace; the
    default labels are the traces' positions. A label or model name that
    holds a comma, a quote, CR or LF is quoted as ``csv.QUOTE_MINIMAL``
    quotes it.

    Each trace is written as one block of rows. The ",index,observed," text
    of a row depends on the series only, so the traces of one series (one
    per model) share it: it is built once per distinct start index and
    observed bits, whatever the label.
    """
    labels = (list(map(str, range(len(traces)))) if series_labels is None
              else list(series_labels))
    if len(labels) != len(traces):
        raise InvalidInputError(f"{len(labels)} series labels for {len(traces)} traces")
    blocks = ["series,model,index,observed,predicted,residual,fallback_flag\n"]
    shared: Dict[Tuple[int, bytes], List[str]] = {}
    with np.errstate(over="ignore"):  # a huge but finite miss gives inf, silently
        for label, trace in zip(labels, traces):
            predicted, observed = trace.predicted_values, trace.observed_values
            first, count = trace.start_index, observed.size
            # The bytes tell -0.0 from 0.0 and give the length.
            key = (first, observed.tobytes())
            steps = shared.get(key)
            if steps is None:
                steps = shared[key] = [f"{index},{o!r}," for index, o in zip(
                    range(first, first + count), observed.tolist())]
            # A row: label,model, | index,observed, | predicted , residual , flag \n
            row = [None, None, None, ",", None, ",", None, "\n"] * count
            row[0::8] = [f"{_csv_field(str(label))},{_csv_field(trace.model)},"] * count
            row[1::8] = steps
            row[2::8] = map(repr, predicted.tolist())
            row[4::8] = map(repr, (observed - predicted).tolist())
            row[6::8] = (trace.fallback_flags.view(np.uint8) + 48).tobytes().decode()
            blocks.append("".join(row))
    return "".join(blocks)
