"""In-memory spans around phca's public functions, and the per-layer
metrics derived from them.

The benchmark opens a span around every top-level library call it makes.
For a traced run, ``install`` also wraps the functions inside the batch
and the oracle that the per-layer metrics need: the direct QP solves, the
active-set identification, region builds and the region sweeps.  Nothing
in phca itself is changed; the wrappers are module attributes replaced
for the life of the ``install`` context.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import time
from dataclasses import dataclass, field

#: top-level spans whose QP calls are split out by phase
QP_PHASES = {
    "engine.run_batch": "batch",
    "engine.validate_batch": "oracle",
    "builder.calibrate_eta": "calibrate",
}

QP_STATUSES = ("optimal", "infeasible", "numerical-failure")
DEGENERATE_REASONS = (
    "uncertain-active-set",
    "rank-deficient",
    "region-sanity",
    "solution-mismatch",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: "Span | None" = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory, each linked to the span open around it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sp = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None,
                  attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def dump(self, path) -> None:
        """Write every span as a JSON list; parent is the parent's list index."""
        index = {id(sp): k for k, sp in enumerate(self.spans)}
        rows = [
            {"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": None if sp.parent is None else index[id(sp.parent)], **sp.attrs}
            for sp in self.spans
        ]
        path.write_text(json.dumps(rows))


def _wrap(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as sp:
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                sp.attrs["error"] = type(exc).__name__
                raise
            if after is not None:
                after(sp, out)
            return out

    return wrapper


def _qp_attrs(sp, sol):
    sp.attrs["status"] = sol.status
    sp.attrs["iterations"] = sol.iterations


def _membership_attrs(sp, mask):
    sp.attrs["rows"] = int(mask.shape[0])
    sp.attrs["hits"] = int(mask.sum())


@contextlib.contextmanager
def install(rec: Recorder):
    """Wrap the inner functions of the batch and the oracle in spans."""
    import phca.builder
    import phca.engine
    from phca.regions import CriticalRegion, RegionContext

    targets = [
        (phca.engine, "solve_qp", "qp.solve", _qp_attrs),
        (phca.builder, "solve_qp", "qp.solve", _qp_attrs),
        (phca.engine, "identify_active", "engine.identify_active", None),
        (RegionContext, "build_region", "regions.build", None),
        (CriticalRegion, "batch_membership", "regions.membership", _membership_attrs),
        (CriticalRegion, "batch_solutions", "regions.solutions", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, after in targets:
            setattr(owner, attr, _wrap(rec, name, getattr(owner, attr), after))
        yield rec
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _phase(sp: Span) -> str | None:
    """Phase of a QP call: the top-level span that made it."""
    while sp.parent is not None:
        sp = sp.parent
        if sp.name in QP_PHASES:
            return QP_PHASES[sp.name]
    return None


def tail_percentile(n: int) -> float:
    """Highest whole percentile with at least ten samples beyond it.

    With fewer than 11 samples no percentile qualifies, and the tail
    reported is the maximum (100)."""
    if n < 11:
        return 100.0
    return float(min(99, math.floor(100.0 * (1.0 - 10.0 / n))))


def _percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    vals = sorted(values)
    k = min(len(vals) - 1, max(0, math.ceil(pct / 100.0 * len(vals)) - 1))
    return vals[k]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name total of span duration minus the time of direct children."""
    out: dict[str, float] = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + sp.duration
        if sp.parent is not None:
            out[sp.parent.name] = out.get(sp.parent.name, 0.0) - sp.duration
    return out


def groups(spans: list[Span], name: str) -> list[list[Span]]:
    """Spans under each top-level span called ``name``, that span included."""
    out: dict[int, list[Span]] = {}
    for sp in spans:
        root = sp
        while root.parent is not None:
            root = root.parent
        if root.name == name:
            out.setdefault(id(root), []).append(sp)
    return list(out.values())


def totals(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + sp.duration
    return out


SETUP_LAYERS = {
    "feeder.load_s": "feeder.load_feeder",
    "scenarios.load_s": "scenarios.load_scenarios",
    "scenarios.expand_s": "scenarios.expand_grid",
    "builder.build_s": "builder.build_problem",
    "builder.calibrate_s": "builder.calibrate_eta",
    "builder.scale_s": "builder.scale_problem",
}


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer seconds of one traced set-up."""
    tot = totals(spans)
    out = {metric: tot.get(name, 0.0) for metric, name in SETUP_LAYERS.items()}
    qp = _qp_group(spans, "calibrate")
    out["qp.calibrate.calls"] = qp["calls"]
    out["qp.calibrate.s"] = qp["s"]
    return out


def _qp_group(spans: list[Span], phase: str) -> dict:
    calls = [sp for sp in spans if sp.name == "qp.solve" and _phase(sp) == phase]
    ms = [1e3 * sp.duration for sp in calls]
    pct = tail_percentile(len(ms))
    return {
        "calls": len(calls),
        "s": sum(sp.duration for sp in calls),
        "p50_ms": statistics.median(ms) if ms else 0.0,
        "tail_ms": _percentile(ms, pct),
        "tail_pct": pct,
        "iterations_mean": statistics.fmean(sp.attrs["iterations"] for sp in calls)
        if calls else 0.0,
        "status": {s: sum(sp.attrs["status"] == s for sp in calls) for s in QP_STATUSES},
    }


def pass_metrics(spans: list[Span], result, max_dx: float) -> dict[str, float]:
    """Per-layer figures of one traced pass (run, stats and validate paths).

    result is the pass's BatchResult and max_dx the largest oracle
    difference of the pass; the counters and record reasons come from
    them, everything timed from the spans."""
    tot = totals(spans)
    own = self_times(spans)
    out: dict[str, float] = {}
    for phase in ("batch", "oracle"):
        qp = _qp_group(spans, phase)
        for key in ("calls", "s", "p50_ms", "tail_ms", "tail_pct", "iterations_mean"):
            out[f"qp.{phase}.{key}"] = qp[key]
        if phase == "batch":
            for status, count in qp["status"].items():
                out[f"qp.batch.status.{status}"] = count

    builds = [sp for sp in spans if sp.name == "regions.build"]
    member = [sp for sp in spans if sp.name == "regions.membership"]
    hits = sum(sp.attrs["hits"] for sp in member)
    c = result.counters
    out["regions.built"] = sum("error" not in sp.attrs for sp in builds)
    out["regions.rank_deficient"] = sum(sp.attrs.get("error") == "RankDeficientKError"
                                        for sp in builds)
    out["regions.build_s"] = tot.get("regions.build", 0.0)
    out["regions.membership_s"] = tot.get("regions.membership", 0.0)
    out["regions.membership_rows"] = sum(sp.attrs["rows"] for sp in member)
    out["regions.solutions_s"] = tot.get("regions.solutions", 0.0)
    out["regions.hits"] = hits
    out["regions.served_share"] = c.reuse / hits if hits else 0.0

    out["scenarios.instances"] = c.n_instances
    out["builder.n_var"] = result.problem.n_var
    out["builder.n_rows"] = result.problem.A.shape[0]
    out["engine.run_batch_s"] = tot.get("engine.run_batch", 0.0)
    out["engine.self_s"] = own.get("engine.run_batch", 0.0)
    out["engine.identify_active_s"] = tot.get("engine.identify_active", 0.0)
    out["engine.direct_share"] = c.qp_solves / c.n_instances
    for reason in DEGENERATE_REASONS:
        out[f"engine.degenerate.{reason}"] = sum(rec.reason == reason for rec in result.records)
    out["engine.screened_out"] = c.screened_out
    out["engine.infeasible"] = c.infeasible
    out["engine.failed"] = c.failed
    out["engine.to_json_s"] = tot.get("engine.to_json", 0.0)
    out["engine.load_result_json_s"] = tot.get("engine.load_result_json", 0.0)
    out["engine.validate_batch_s"] = tot.get("engine.validate_batch", 0.0)
    out["oracle.max_dx"] = max_dx
    out["stats.render_report_s"] = tot.get("stats.render_report", 0.0)
    out["stats.json_report_s"] = tot.get("stats.json_report", 0.0)
    return out
