"""phca benchmark: one workload in one fresh process.

    python3 bench/run.py --workload demo-30d --seed 1 --seconds 50 --trace 0

Runs the library calls that ``phca run``, ``phca stats --results`` and
``phca validate --sample 1000`` make, in the same order, with set-up timed
apart.  The process starts no worker threads or pools and pins BLAS to one
thread.  A run is a fixed number of rounds, set by ``--seconds`` and the
workload's nominal round time alone, so that every run of a workload with
the same ``--seconds`` draws the same number of samples.  A round sets up
and makes one pass on that set-up.  The pass goes through the run path as
many times as the workload says, and then through the stats path as many
times as the workload says, the validate path once and the round's other
set-ups, all interleaved.  A round sets up ``SETUPS_PER_ROUND`` times in
all and validates once, or more often when the run has fewer than
``MIN_SETUPS`` set-ups or ``MIN_VALIDATIONS`` validations.
``setup_s`` is the median of the run's set-ups; every other end-to-end time
is the mean over the run's whole passes through one CLI path.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced second half of the run (see bench/README.md).  The line before it
is the host and provenance record.  Files go to ``.bench_out/`` in the
checkout.  Exits 2 when the phca sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

CALIBRATION_SAMPLES = 32
VALIDATE_SAMPLE = 1000
SETUPS_PER_ROUND = 3
#: a run with few rounds sets up more often in each, so that the median
#: set-up is not that of the first, cold one and its samples spread out
MIN_SETUPS = 7
#: a run with fewer rounds than this repeats the validate path in each
#: pass, since one validation on feeder80-30d is a single 5-s sample
MIN_VALIDATIONS = 3
PATHS = ("path.run", "path.stats", "path.validate")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_instances_per_s": "1/s",
    "stats_s": "s",
    "validate_instances_per_s": "1/s",
    "results_bytes": "bytes",
    "peak_rss_mb": "MB",
}

COUNT = "count"
PER_LAYER_UNITS = {
    "feeder.load_s": "s",
    "scenarios.load_s": "s",
    "scenarios.expand_s": "s",
    "scenarios.instances": COUNT,
    "builder.build_s": "s",
    "builder.calibrate_s": "s",
    "builder.scale_s": "s",
    "builder.n_var": COUNT,
    "builder.n_rows": COUNT,
    "qp.calibrate.calls": COUNT,
    "qp.calibrate.s": "s",
    **{f"qp.{phase}.{key}": unit
       for phase in ("batch", "oracle")
       for key, unit in (("calls", COUNT), ("s", "s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
                         ("tail_pct", "%"), ("iterations_mean", COUNT))},
    **{f"qp.batch.status.{status}": COUNT for status in tracing.QP_STATUSES},
    "regions.built": COUNT,
    "regions.rank_deficient": COUNT,
    "regions.build_s": "s",
    "regions.membership_s": "s",
    "regions.membership_rows": COUNT,
    "regions.solutions_s": "s",
    "regions.hits": COUNT,
    "regions.served_share": "ratio",
    "engine.run_batch_s": "s",
    "engine.self_s": "s",
    "engine.identify_active_s": "s",
    "engine.direct_share": "ratio",
    **{f"engine.degenerate.{reason}": COUNT for reason in tracing.DEGENERATE_REASONS},
    "engine.screened_out": COUNT,
    "engine.infeasible": COUNT,
    "engine.failed": COUNT,
    "engine.to_json_s": "s",
    "engine.load_result_json_s": "s",
    "engine.validate_batch_s": "s",
    "oracle.max_dx": "1",
    "stats.render_report_s": "s",
    "stats.json_report_s": "s",
    "failed_share": "ratio",
    "trace.overhead_s": "s",
}


def pin_blas_threads() -> dict[str, str]:
    """Pin every BLAS/OpenMP pool to one thread; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def pin_cpu() -> int | None:
    """Run on the highest-numbered CPU this process may use, so that every
    run of the benchmark runs on the same CPU.  On a 2-vCPU host, the stats
    path took 0.17-0.22 s on one vCPU and 0.23-0.25 s on the other, and
    runs left to the scheduler fell into one group or the other."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_phca() -> str | None:
    """Import phca from this checkout's sources, never from elsewhere.

    Returns an error message instead when that is not possible."""
    if not (SRC / "phca" / "__init__.py").is_file():
        return f"no phca sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import phca

    if Path(phca.__file__).resolve().parent != SRC / "phca":
        return f"imported phca from {phca.__file__}, not from {SRC}"
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phca").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, blas: dict, cpu: int | None) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "days": args.days,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_pinned": cpu,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "phca_source_sha256": source_digest(),
        "blas_threads": blas,
    }


@dataclass
class Case:
    feeder: object
    scaled: object
    thetas: object


def setup(inputs, rec) -> Case:
    """Input text to the scaled problem and theta set, as ``phca run`` does it."""
    import numpy as np

    from phca.builder import BuilderConfig, build_problem, calibrate_eta, scale_problem
    from phca.cli import ETA_FLOOR
    from phca.errors import AllInfeasibleError
    from phca.feeder import load_feeder
    from phca.scenarios import AnalysisGrid, expand_grid, load_scenarios

    with rec.span("path.setup"):
        with rec.span("feeder.load_feeder"):
            feeder = load_feeder(inputs.feeder_text)
        with rec.span("scenarios.load_scenarios"):
            scen = load_scenarios(feeder, inputs.loads_csv, inputs.solar_csv,
                                  seed=inputs.scenario_seed)
        with rec.span("builder.build_problem"):
            prob = build_problem(feeder, BuilderConfig())
        grid = AnalysisGrid(**inputs.grid)
        grid.validate()
        with rec.span("scenarios.expand_grid"):
            thetas = expand_grid(prob, scen, grid)
        n = len(thetas)
        sample = thetas.thetas[np.linspace(0, n - 1, min(CALIBRATION_SAMPLES, n)).astype(int)]
        with rec.span("builder.calibrate_eta"):
            try:
                eta = calibrate_eta(prob, sample)
            except AllInfeasibleError:
                eta = 0.0
        with rec.span("builder.scale_problem"):
            scaled, _ = scale_problem(prob.with_eta(max(eta, ETA_FLOOR)))
    return Case(feeder, scaled, thetas)


@dataclass(frozen=True)
class Repeats:
    """How often a round sets up, and how often its pass goes through each
    CLI path."""

    setup: int = SETUPS_PER_ROUND
    run: int = 1
    stats: int = 1
    validate: int = 1


ONCE = Repeats()


@dataclass
class Pass:
    """Path timings and checkable outputs of one run + stats + validate pass.

    paths maps each CLI path span ("path.run", "path.stats",
    "path.validate") to the seconds of each time the pass went through it.
    validated counts the instances of one validation, mismatches those of
    all of them.  repeats_match says whether every run path of the pass
    wrote the same results file."""

    paths: dict
    instances: int
    validated: int
    results_bytes: int
    results_sha256: str
    counters: dict
    failed_instances: int
    mismatches: int
    reports_match: bool
    repeats_match: bool
    layers: dict | None = None


def run_pass(case: Case, inputs, outdir: Path, rec, repeats: Repeats,
             traced: bool) -> Pass:
    import numpy as np

    from phca.engine import FAILED, EngineOptions, load_result_json, run_batch, validate_batch
    from phca.stats import json_report, render_report

    results_path = outdir / "results.json"
    first = len(rec.spans)

    digests = set()
    for _ in range(repeats.run):
        with rec.span("path.run"):  # phca run --out --report --json-report
            with rec.span("engine.run_batch"):
                result = run_batch(case.scaled, case.thetas.thetas,
                                   EngineOptions(seed=inputs.engine_seed))
            with rec.span("engine.to_json"):
                text = result.to_json()
            with rec.span("io.write"):
                results_path.write_text(text)
            with rec.span("stats.render_report"):
                report = render_report(result, case.thetas, case.feeder)
            with rec.span("io.write"):
                (outdir / "report.txt").write_text(report)
            with rec.span("stats.json_report"):
                jreport = json_report(result, case.thetas, case.feeder)
            with rec.span("io.write"):
                (outdir / "report.json").write_text(jreport)
        digests.add(hashlib.sha256(text.encode()).hexdigest())

    reports_match = True
    checks = []
    after_run = {"path.stats": repeats.stats, "path.validate": repeats.validate,
                 "path.setup": repeats.setup - 1}
    for path in interleave(after_run):
        if path == "path.setup":
            setup(inputs, rec)
        elif path == "path.stats":
            with rec.span("path.stats"):  # phca stats --results, text and --json reports
                with rec.span("io.read"):
                    stored = results_path.read_text()
                with rec.span("engine.load_result_json"):
                    loaded = load_result_json(stored, case.scaled, case.thetas.thetas)
                with rec.span("stats.render_report"):
                    report2 = render_report(loaded, case.thetas, case.feeder)
                with rec.span("stats.json_report"):
                    jreport2 = json_report(loaded, case.thetas, case.feeder)
            reports_match = reports_match and report2 == report and jreport2 == jreport
            del loaded
        else:
            with rec.span("path.validate"):  # phca validate --sample 1000
                with rec.span("engine.solved_mask"):
                    solved = np.flatnonzero(result.solved_mask())
                take = max(1, min(VALIDATE_SAMPLE, solved.size))
                sample = solved[np.linspace(0, solved.size - 1, take).astype(int)]
                with rec.span("engine.validate_batch"):
                    checks.append(validate_batch(result, sample))

    spans = rec.spans[first:]
    return Pass(
        paths={path: [sp.duration for sp in spans if sp.name == path] for path in PATHS},
        instances=result.counters.n_instances,
        validated=checks[0].checked,
        results_bytes=results_path.stat().st_size,
        results_sha256=hashlib.sha256(text.encode()).hexdigest(),
        repeats_match=len(digests) == 1,
        counters=asdict(result.counters),
        failed_instances=sum(r.status == FAILED for r in result.records),
        mismatches=sum(len(c.mismatches) for c in checks),
        reports_match=reports_match,
        layers=tracing.pass_metrics(spans, result, max(c.max_dx for c in checks))
        if traced else None,
    )


def interleave(counts: dict[str, int]) -> list[str]:
    """An order for ``counts[name]`` samples of each name, each name's
    samples spread evenly over the sequence, so that all of them see the
    same phases of the host."""
    slots = [((k + 0.5) / n, name) for name, n in counts.items() for k in range(n)]
    return [name for _, name in sorted(slots)]


def rounds_for(seconds: float, round_s: float) -> int:
    """Rounds in a run: fixed by ``--seconds`` and the workload, never by speed."""
    return max(1, int(seconds // round_s))


def measure(inputs, outdir: Path, rec, rounds: int, repeats: Repeats = ONCE,
            traced: bool = False) -> list[Pass]:
    """``rounds`` rounds, each a set-up and one pass on it."""
    passes = []
    for _ in range(rounds):
        case = setup(inputs, rec)
        passes.append(run_pass(case, inputs, outdir, rec, repeats, traced))
    return passes


def check_passes(passes: list[Pass]) -> list[str]:
    """Determinism and correctness problems across passes (empty when none)."""
    problems = []
    ref = passes[0]
    for k, p in enumerate(passes):
        if p.results_sha256 != ref.results_sha256:
            problems.append(f"pass {k}: results file differs from the reference pass")
        if p.counters != ref.counters:
            problems.append(f"pass {k}: counters differ from the reference pass")
        if p.mismatches:
            problems.append(f"pass {k}: {p.mismatches} oracle mismatches")
        if not p.reports_match:
            problems.append(f"pass {k}: reports from the reloaded results differ")
        if not p.repeats_match:
            problems.append(f"pass {k}: repeated run paths wrote different results files")
    return problems


def check_record(path: Path, key: dict, p: Pass) -> list[str]:
    """Compare with the record an earlier correct run of the same code and
    inputs left; leave one when there is none."""
    record = {**key, "results_sha256": p.results_sha256, "counters": p.counters}
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = None
    if earlier is None or any(earlier.get(k) != v for k, v in key.items()):
        path.write_text(json.dumps(record, indent=1))
        return []
    if earlier != record:
        return [f"results or counters differ from the earlier run recorded in {path}"]
    return []


def failures(passes: list[Pass]) -> tuple[int, int]:
    """Operations attempted and failed: every instance of every batch run,
    every validated instance."""
    attempted = sum(p.instances * len(p.paths["path.run"])
                    + p.validated * len(p.paths["path.validate"]) for p in passes)
    failed = sum(p.failed_instances * len(p.paths["path.run"]) + p.mismatches for p in passes)
    return attempted, failed


def path_s(passes: list[Pass], path: str) -> float:
    """Mean seconds of one whole CLI path over every time the run took it.

    The host of this benchmark switches between a fast and a slow phase
    that can each last through many samples.  The mean of a run that spans
    both reads between the two; the median snaps to whichever phase held
    more of the samples, and so spreads more from run to run."""
    return statistics.fmean(s for p in passes for s in p.paths[path])


def paths_total(passes: list[Pass]) -> float:
    return sum(path_s(passes, path) for path in PATHS)


def setup_times(rec) -> list[float]:
    return [sp.duration for sp in rec.spans if sp.name == "path.setup"]


def untraced(inputs, outdir: Path, workload, rounds: int):
    rec = tracing.Recorder()
    repeats = Repeats(max(SETUPS_PER_ROUND, math.ceil(MIN_SETUPS / rounds)),
                      workload.run_repeats, workload.stats_repeats,
                      math.ceil(MIN_VALIDATIONS / rounds))
    passes = measure(inputs, outdir, rec, rounds, repeats)
    setups = setup_times(rec)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_instances_per_s": passes[0].instances / path_s(passes, "path.run"),
        "stats_s": path_s(passes, "path.stats"),
        "validate_instances_per_s": passes[0].validated / path_s(passes, "path.validate"),
        "results_bytes": passes[-1].results_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes, check_passes(passes), {"setup_s": setups}


def traced(inputs, outdir: Path, workload, rounds: int):
    """Half the rounds untraced, then as many traced.

    Their passes go through each CLI path once, so that per-layer seconds
    count each path once."""
    half = max(1, rounds // 2)
    reference = measure(inputs, outdir, tracing.Recorder(), half)
    rec = tracing.Recorder()
    with tracing.install(rec):
        passes = measure(inputs, outdir, rec, half, traced=True)
    rec.dump(outdir / "trace.json")
    setup_layers = [tracing.setup_metrics(g) for g in tracing.groups(rec.spans, "path.setup")]

    problems = check_passes(reference + passes)
    for k, p in enumerate(passes):
        if p.layers["qp.batch.calls"] != p.counters["qp_solves"]:
            problems.append(
                f"traced pass {k}: {p.layers['qp.batch.calls']} wrapped batch QP calls "
                f"but qp_solves = {p.counters['qp_solves']}"
            )
    rows = setup_layers + [p.layers for p in passes]
    layers = {
        name: statistics.median_low(row[name] for row in rows if name in row)
        for name in PER_LAYER_UNITS
        if any(name in row for row in rows)
    }
    attempted, failed = failures(passes)
    layers.update({
        "failed_share": failed / attempted,
        "trace.overhead_s": paths_total(passes) - paths_total(reference),
    })
    detail = {"untraced_paths_s": paths_total(reference), "traced_paths_s": paths_total(passes)}
    return layers, passes, problems, detail


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time, which sets the number of rounds; "
                         "at least one round always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--days", type=int,
                    help="override the workload's days of profiles (smoke tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    blas = pin_blas_threads()
    cpu = pin_cpu()
    error = import_phca()
    if error:
        print(f"bench: error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, inputs_digest

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    outdir = OUT / f"{args.workload}-s{args.seed}"
    if args.days is not None:
        outdir = OUT / f"{args.workload}-{args.days}d-s{args.seed}"
    args.days = args.days or workload.days
    inputs = workload.make(args.seed, args.days)
    rounds = rounds_for(args.seconds, workload.round_s)

    outdir.mkdir(parents=True, exist_ok=True)
    prov = provenance(args, blas, cpu)
    prov["rounds"] = rounds
    prov["inputs_sha256"] = inputs_digest(inputs)

    run = traced if args.trace else untraced
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        metrics, passes, problems, detail = run(inputs, outdir, workload, rounds)
    except Exception as exc:
        # A crashed run counts every operation of one pass as failed.
        n = args.days * 24 * math.prod(len(v) for v in inputs.grid.values())
        attempted = failed = n + min(VALIDATE_SAMPLE, n)
        metrics, passes, problems, detail, units = {}, [], [f"crashed: {exc!r}"], {}, {}
    else:
        if not problems:
            key = {k: prov[k] for k in ("phca_source_sha256", "inputs_sha256")}
            problems = check_record(outdir / "record.json", key, passes[0])
        attempted, failed = failures(passes)

    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (outdir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"provenance": prov, "result": out, "problems": problems,
         "passes": [asdict(p) for p in passes], **detail}, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
