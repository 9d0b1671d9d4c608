"""Command-line interface.

Subcommands: forecast, calibrate, evaluate, compare, synth.
Exit codes: 0 success, 2 invalid input, 3 calibration failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from . import __version__
from .config import load_config
from .data import generate_synthetic, ingest_csv
from .errors import (
    CalibrationFailedError,
    GreycastError,
    InvalidInputError,
)
from .report import compare, format_csv, format_table, format_trace_csv
from .rolling import (
    ALL_MODEL_NAMES,
    OmegaGrid,
    RollingConfig,
    calibrate_omega,
    parse_model,
    resolve_config,
    roll_forecast,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CALIBRATION = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greycast",
        description="Online grey-system forecasting with Fourier error correction",
    )
    parser.add_argument("--version", action="version", version=f"greycast {__version__}")
    parser.add_argument("--window", type=int, default=RollingConfig.window,
                        help="rolling window size (>= 4)")
    parser.add_argument("--omega", type=float, default=None,
                        help="angular frequency override for trigonometric models")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (GREYCAST_SEED env var also honored)")
    parser.add_argument("--ef-residual-window", default=str(RollingConfig.ef_residual_window),
                        metavar="N|inwindow",
                        help="EF residual buffer length, or 'inwindow' to fit the "
                             "correction on in-window residuals only")
    parser.add_argument("--ef-harmonics", type=int, default=None,
                        help="cap on Fourier correction harmonics (default: auto)")
    parser.add_argument("--standard-psi", action="store_true",
                        help="use textbook AR-infinity weights instead of the "
                             "legacy fixture recursions")
    parser.add_argument("--clamp-nonnegative", action="store_true",
                        help="clamp emitted forecasts at zero")
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    parser.add_argument("--config", default=None, help="INI config file with "
                        "benchmark coefficients and frequencies")

    sub = parser.add_subparsers(dest="command", required=True)

    fc = sub.add_parser("forecast", help="roll one model over every series of the input")
    fc.add_argument("model", help=f"one of {', '.join(ALL_MODEL_NAMES)}")
    fc.add_argument("--input", required=True, help="timestamp,value CSV")
    fc.add_argument("--output", default=None, help="write the trace CSV here")
    fc.add_argument("--steps", type=int, default=RollingConfig.multi_step, metavar="H",
                    help="forecast horizon: the row for target t holds the forecast H "
                         "steps past the window ending at t-1 (of index t+H-1), scored "
                         "against observation t; benchmark models ignore it")

    cal = sub.add_parser("calibrate", help="grid-search the frequency of a grey model")
    cal.add_argument("model", help="GM_S, GM_C, GM_SC or GM_ESC")
    cal.add_argument("--input", required=True, help="CSV of exactly one series")
    cal.add_argument("--grid", default=f"{OmegaGrid.lo}:{OmegaGrid.hi}:{OmegaGrid.step}",
                     metavar="LO:HI:STEP")

    ev = sub.add_parser("evaluate", help="RMSE/MAPE of one model over a dataset")
    ev.add_argument("model")
    ev.add_argument("--input", required=True)

    cmp_ = sub.add_parser("compare", help="full multi-model comparison matrix")
    cmp_.add_argument("--input", required=True)
    cmp_.add_argument("--models", default=None,
                      help="comma-separated subset (default: all 16)")
    cmp_.add_argument("--output", default=None, help="write the report here")
    cmp_.add_argument("--trace-output", default=None,
                      help="write long-format per-step traces here")

    sy = sub.add_parser("synth", help="generate a synthetic series as CSV")
    sy.add_argument("generator", help="exponential | logistic | seasonal | incident")
    sy.add_argument("--params", nargs="*", default=[], metavar="KEY=VALUE")
    sy.add_argument("--output", default=None)
    return parser


def _rolling_config(args, model: str) -> RollingConfig:
    ef_raw = str(args.ef_residual_window).strip().lower()
    if ef_raw == "inwindow":
        ef_window, in_window = RollingConfig.ef_residual_window, True
    else:
        try:
            ef_window, in_window = int(ef_raw), False
        except ValueError:
            raise InvalidInputError(
                f"--ef-residual-window must be an integer or 'inwindow', got {ef_raw!r}")
    return RollingConfig(
        model=model,
        window=args.window,
        omega=args.omega,
        ef_residual_window=ef_window,
        ef_in_window=in_window,
        ef_harmonics=args.ef_harmonics,
        clamp_nonnegative=args.clamp_nonnegative,
        standard_psi=args.standard_psi,
    )


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _cmd_forecast(args, specs) -> int:
    config = replace(_rolling_config(args, args.model), multi_step=args.steps)
    config = resolve_config(config, specs)
    series = ingest_csv(args.input).series
    traces = [roll_forecast(one, config) for one in series]
    _write(format_trace_csv(traces, [one.label for one in series]), args.output)
    return EXIT_OK


def _cmd_calibrate(args, specs) -> int:
    try:
        lo, hi, step = (float(p) for p in args.grid.split(":"))
    except ValueError:
        raise InvalidInputError(f"--grid must be LO:HI:STEP, got {args.grid!r}")
    kind, ef, bench = parse_model(args.model)
    if bench is not None:
        raise InvalidInputError(f"{args.model} has no frequency to calibrate")
    series = ingest_csv(args.input).series
    if len(series) > 1:
        raise InvalidInputError(f"calibrate takes one series; {args.input} holds {len(series)}")
    config = _rolling_config(args, kind.value)
    omega = calibrate_omega(series[0], kind, OmegaGrid(lo, hi, step), config)
    print(f"{omega:.6g}")
    return EXIT_OK


def _cmd_evaluate(args, specs) -> int:
    config = _rolling_config(args, args.model)
    dataset = ingest_csv(args.input)
    report, _ = compare(dataset, models=[args.model], config=config, specs=specs)
    _write(format_csv(report) if args.format == "csv" else format_table(report), None)
    row = report.rows[0]
    return EXIT_INVALID_INPUT if row.failed else EXIT_OK


def _cmd_compare(args, specs) -> int:
    config = _rolling_config(args, "GM11")
    models = (list(ALL_MODEL_NAMES) if args.models is None
              else [m.strip() for m in args.models.split(",") if m.strip()])
    dataset = ingest_csv(args.input)
    report, traces = compare(dataset, models=models, config=config, specs=specs)
    text = format_csv(report) if args.format == "csv" else format_table(report)
    _write(text, args.output)
    if args.trace_output is not None:
        labels = [series.label for row in report.rows if not row.failed
                  for series in dataset.series]
        _write(format_trace_csv(traces, labels), args.trace_output)
    return EXIT_OK


def _cmd_synth(args, specs) -> int:
    params = {}
    for item in args.params:
        if "=" not in item:
            raise InvalidInputError(f"--params entries must be KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        params[key.strip()] = raw  # ``generate_synthetic`` checks each value
    series = generate_synthetic(args.generator, seed=args.seed, **params)
    lines = ["timestamp,value"]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(series.values, start=1))
    _write("\n".join(lines) + "\n", args.output)
    return EXIT_OK


_HANDLERS = {"forecast": _cmd_forecast, "calibrate": _cmd_calibrate, "evaluate": _cmd_evaluate,
             "compare": _cmd_compare, "synth": _cmd_synth}


def _float_values_joined(argv: List[str]) -> List[str]:
    """``argv`` with each ``--omega X`` before the subcommand whose X is a
    float literal written ``--omega=X``, and so each abbreviation ``--o`` ..
    ``--omeg`` (no other top-level option starts with ``--o``). argparse
    reads a token such as -1e3 or -inf, which its negative-number pattern
    does not match, as an option and stops; ``--omega=X`` parses as X."""
    args, i = list(argv), 0
    while i + 1 < len(args) and args[i] not in _HANDLERS:
        if args[i].startswith("--o") and "--omega".startswith(args[i]):
            try:
                float(args[i + 1])
                args[i:i + 2] = [f"--omega={args[i + 1]}"]
            except ValueError:
                pass
        i += 1
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_float_values_joined(argv))
    try:
        # Read for every subcommand, so that each rejects a bad file alike.
        specs = load_config(args.config)
        return _HANDLERS[args.command](args, specs)
    except CalibrationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GreycastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
