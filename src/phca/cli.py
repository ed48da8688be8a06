"""Command-line front end.

Subcommands cover the whole pipeline: generating the bundled study case,
running a batch, spot-validating a finished run against one-off solves,
recomputing reports, and dumping the assembled problem matrices.  Exit
codes: 0 on success, 2 for anything wrong with the inputs (an InputError,
or a file that cannot be read), 3 for runtime failures (aborted batches,
failed validation, any other PhcaError).  Errors print a single
machine-parsable line ``phca: error: <kind>: <message>`` on stderr.
The PHCA_LOG environment variable sets the logging level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import demo
from .builder import (
    ETA_FLOOR,
    BuilderConfig,
    build_problem,
    calibrate_eta,
    dump_problem,
    load_config,
    scale_problem,
)
from .engine import BatchResult, EngineOptions, load_result_json, run_batch, validate_batch
from .errors import AllInfeasibleError, ConfigError, InputError, PhcaError, SchemaError
from .feeder import load_feeder
from .scenarios import AnalysisGrid, expand_grid, load_scenarios
from .stats import json_report, render_report

logger = logging.getLogger(__name__)


def _configure_logging() -> None:
    level = os.environ.get("PHCA_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(
        level=getattr(logging, level),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _add_case_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--feeder", required=True, help="feeder document path")
    p.add_argument("--loads", required=True, help="load profile CSV")
    p.add_argument("--solar", help="solar profile CSV (optional)")
    p.add_argument("--config", help="dispatch config ini (optional)")
    p.add_argument("--scenario-seed", type=int, default=0, help="power-factor draw seed")
    p.add_argument("--kappa", type=_float_list, default=(1.0,), help="comma list")
    p.add_argument("--oversize", type=_float_list, default=(1.0,), help="comma list")
    p.add_argument("--alpha", type=_float_list, default=(0.3,), help="comma list")
    p.add_argument("--eta", type=float, help="skip calibration and use this slack price")
    p.add_argument(
        "--calibration-samples", type=int, default=32,
        help="instances sampled when calibrating the slack price",
    )


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=int, default=EngineOptions.seed, help="parameter pick order seed"
    )
    p.add_argument(
        "--sequential", action="store_true", help="pick parameters in input order"
    )
    p.add_argument("--budget", type=int, help="cap on region-building attempts")


def _engine_options(args) -> EngineOptions:
    return EngineOptions(
        seed=None if args.sequential else args.seed,
        solve_budget=args.budget,
    )


def _read_input(path) -> str:
    """A file as text: UTF-8, after a byte-order mark if it starts with
    one (spreadsheet programs write one into CSV files).  Bytes that do
    not decode are a SchemaError naming the first one's offset.  Line
    ends are translated as open() translates them."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the decoder saw the file's last len(exc.object) bytes: a
        # byte-order mark is cut off first
        at = len(data) - len(exc.object) + exc.start
        raise SchemaError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {at}"
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _build_case(args):
    """Shared pipeline: files -> (feeder, scaled problem, theta set)."""
    if args.calibration_samples < 1:
        raise ConfigError(
            f"calibration-samples must be at least 1, got {args.calibration_samples}"
        )
    feeder = load_feeder(_read_input(args.feeder))
    config = load_config(_read_input(args.config)) if args.config else BuilderConfig()
    grid = AnalysisGrid(kappa=args.kappa, oversize=args.oversize, alpha=args.alpha)
    grid.validate()
    scen = load_scenarios(
        feeder,
        _read_input(args.loads),
        _read_input(args.solar) if args.solar else None,
        seed=args.scenario_seed,
    )
    prob = build_problem(feeder, config)
    thetas = expand_grid(prob, scen, grid)

    # --eta, then the config's eta, then calibration; a set value is used as given
    eta = args.eta if args.eta is not None else config.eta
    if eta is None:
        n = len(thetas)
        take = min(args.calibration_samples, n)
        sample = thetas.thetas[np.linspace(0, n - 1, take).astype(int)]
        try:
            eta = calibrate_eta(prob, sample)
        except AllInfeasibleError:
            logger.warning("every calibration sample infeasible; using the floor price")
            eta = 0.0
        if eta < ETA_FLOOR:
            eta = ETA_FLOOR
    logger.info("slack price eta = %g", eta)
    scaled, _ = scale_problem(prob.with_eta(eta))
    return feeder, scaled, thetas


def _cmd_demo(args) -> int:
    if args.days < 1:
        raise ConfigError(f"days must be at least 1, got {args.days}")
    paths = demo.write_assets(args.out, days=args.days)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _cmd_run(args) -> int:
    feeder, scaled, thetas = _build_case(args)
    result = run_batch(scaled, thetas.thetas, _engine_options(args))
    out = Path(args.out)
    out.write_text(result.to_json())
    report = render_report(result, thetas, feeder)
    if args.report:
        Path(args.report).write_text(report)
    else:
        sys.stdout.write(report)
    if args.json_report:
        Path(args.json_report).write_text(json_report(result, thetas, feeder))
    c = result.counters
    print(
        f"run: instances={c.n_instances} qp={c.qp_solves} regions={c.regions_built} "
        f"wall={result.wall_time_s:.2f}s -> {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args) -> int:
    if args.sample is not None and args.sample < 1:
        raise ConfigError(f"sample must be at least 1, got {args.sample}")
    feeder, scaled, thetas = _build_case(args)
    result = run_batch(scaled, thetas.thetas, _engine_options(args))
    solved = np.flatnonzero(result.solved_mask())
    if solved.size == 0:
        print("phca: error: ValidationFailure: no solved instance to validate", file=sys.stderr)
        return 3
    indices = None
    if args.sample is not None:
        take = min(args.sample, solved.size)
        indices = solved[np.linspace(0, solved.size - 1, take).astype(int)]
    report = validate_batch(result, indices)
    print(
        f"validate: checked={report.checked} max_dx={report.max_dx:.3e} "
        f"max_obj_gap={report.max_rel_objective_gap:.3e} "
        f"mismatches={len(report.mismatches)}"
    )
    if not report.ok:
        print(f"phca: error: ValidationFailure: {len(report.mismatches)} mismatched "
              f"instances, first {report.mismatches[0]}", file=sys.stderr)
        return 3
    return 0


def _cmd_stats(args) -> int:
    feeder, scaled, thetas = _build_case(args)
    if args.results:
        result = load_result_json(_read_input(args.results), scaled, thetas.thetas)
    else:
        result = run_batch(scaled, thetas.thetas, _engine_options(args))
    if args.json:
        sys.stdout.write(json_report(result, thetas, feeder))
    else:
        sys.stdout.write(render_report(result, thetas, feeder))
    return 0


def _cmd_dump_problem(args) -> int:
    feeder = load_feeder(_read_input(args.feeder))
    config = load_config(_read_input(args.config)) if args.config else BuilderConfig()
    prob = build_problem(feeder, config)
    if args.eta is not None:
        prob = prob.with_eta(args.eta)
    if args.scaled:
        prob, _ = scale_problem(prob)
    sys.stdout.write(dump_problem(prob))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phca",
        description="batch hosting-capacity dispatch over parameterized QPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="write the bundled study case to a directory")
    p.add_argument("--out", required=True, help="target directory")
    p.add_argument("--days", type=int, default=30, help="days of profile data")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("run", help="run a batch and write results plus a report")
    _add_case_args(p)
    _add_engine_args(p)
    p.add_argument("--out", default="phca-results.json", help="results JSON path")
    p.add_argument("--report", help="write the text report here instead of stdout")
    p.add_argument("--json-report", help="also write the JSON report here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="re-solve instances and compare to the batch")
    _add_case_args(p)
    _add_engine_args(p)
    p.add_argument("--sample", type=int, help="check this many instances (default all)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="print reports for a finished or fresh run")
    _add_case_args(p)
    _add_engine_args(p)
    p.add_argument("--results", help="results JSON from a previous run")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("dump-problem", help="print the assembled matrices")
    p.add_argument("--feeder", required=True)
    p.add_argument("--config")
    p.add_argument("--eta", type=float)
    p.add_argument("--scaled", action="store_true")
    p.set_defaults(func=_cmd_dump_problem)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"phca: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except PhcaError as exc:
        print(f"phca: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
