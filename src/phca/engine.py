"""Batch driver: solve many parameter instances by region reuse.

The loop picks an unsolved parameter vector, solves its QP directly and
reads the active set off the solution's multipliers: the rows with a
positive multiplier.  That set gives a critical region, whose map is then
swept over every unsolved instance, SWEEP_BLOCK rows at a time.  The
sweep reads each instance through data formed once per batch: its
unconstrained minimizer and its right-hand sides, never theta itself.  An
instance is served from the map only when the mapped point passes
certification (CriticalRegion.batch_membership): primal feasibility of
every row and nonnegative multipliers on the active rows, which makes it
optimal.  Regions are discarded as soon as they have been swept, so at
most one is alive at a time.  Every direct solve after the first region
is warm-started from that last region's active set: neighbouring regions
differ in a few rows, so the solver's polish usually settles there
without its interior-point method (see phca.qp).

Certification is the one acceptance rule, and the seed must pass it like
every swept point.  When the region does not certify its own seed, or
the active rows stacked on the equalities are rank deficient, the seed
keeps its direct solution and no region is built from it.  An optional
budget caps the number of region-building attempts; leftovers are then
solved directly.

A row with a region, seed included, holds its region's map: one call
maps a region's rows in index order, so x never depends on how the
solver reached the seed.  The results file holds the explicit solution:
the status, reason and region columns, the region table, and the
solutions of the solved rows without a region.  load_result_json
certifies each region's rows with the run's own test (_certified, the
one sweep over batch_membership) and maps them again, the same call on
the same rows, so the loaded solutions are the run's bit for bit.
"""

from __future__ import annotations

import base64
import json
import logging
import numbers
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .builder import MpqpProblem, scale_problem
from .errors import AbortError, ConfigError, DimensionError, RankDeficientKError, SchemaError
from .qp import DEFAULT_TOL
from .qp import INFEASIBLE as QP_INFEASIBLE
from .qp import OPTIMAL as QP_OPTIMAL
from .qp import QpInstance, solve_qp, solve_qp_batch
from .qp import identify_active  # noqa: F401  bench/tracing.py wraps phca.engine.identify_active
from .regions import SCREEN_PRIMAL, RegionContext

logger = logging.getLogger(__name__)

REUSE = "reuse"
DIRECT = "direct"
DEGENERATE = "degenerate-direct"
INFEASIBLE = "infeasible"
FAILED = "failed"

REASON_SEED = "seed"
REASON_BUDGET = "budget-exhausted"
REASON_UNCERTAIN = "uncertain-active-set"
REASON_RANK = "rank-deficient"

#: the status and reason columns hold indices into these tuples; the
#: solved statuses come first
SOLVED = (REUSE, DIRECT, DEGENERATE)
STATUSES = SOLVED + (INFEASIBLE, FAILED)
REASONS = (None, REASON_SEED, REASON_BUDGET, REASON_UNCERTAIN, REASON_RANK)
#: the reasons run_batch writes beside each status
STATUS_REASONS = {
    REUSE: (None,),
    DIRECT: (REASON_SEED, REASON_BUDGET),
    DEGENERATE: (REASON_UNCERTAIN, REASON_RANK),
    INFEASIBLE: (None,),
    FAILED: (None,),
}

#: a row is active at a polished solution when its multiplier exceeds this
#: fraction of the largest one; the polish sets every other row's to zero
ACTIVE_LAM_REL = 1e-9

#: unsolved parameters a region certifies per call; bounds the sweep's work
#: arrays at (SWEEP_BLOCK, n_rows), so memory does not grow with the batch
SWEEP_BLOCK = 1024

#: a batch whose direct solves fail numerically more often than this aborts
MAX_FAILURES = 50

#: instances the oracle solves per stacked call; bounds its work arrays at
#: (VALIDATE_BLOCK, n, n), so memory does not grow with the sample
VALIDATE_BLOCK = 256


@dataclass(frozen=True)
class EngineOptions:
    """What a caller sets for one batch run.

    seed orders the parameter picks (None keeps input order).  solve_budget
    caps region-building attempts; the remainder of the batch is then
    solved instance by instance.
    """

    seed: int | None = 0
    solve_budget: int | None = None

    def validate(self) -> None:
        if not (self.seed is None or _is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer or None, got {self.seed!r}")
        if not (self.solve_budget is None or _is_int(self.solve_budget) and self.solve_budget >= 1):
            raise ConfigError(f"solve_budget must be at least 1, got {self.solve_budget!r}")


def _is_int(value) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class InstanceRecord:
    """How one parameter vector was dispatched (a row of BatchResult.records)."""

    index: int
    status: str
    reason: str | None
    region_id: int | None
    signature: tuple[int, ...] | None


@dataclass
class BatchCounters:
    """Tallies of a batch; BatchResult.counters counts them off the columns."""

    n_instances: int
    qp_solves: int
    regions_built: int
    reuse: int
    seeds: int
    screened_out: int
    degenerate: int
    stragglers: int
    infeasible: int
    failed: int


@dataclass
class BatchResult:
    """Everything a batch run produced, one column entry per instance.

    problem is the scaled problem the engine actually ran, its scaling
    included; x rows and the objectives are in original units (scaling
    leaves the minimizer alone and multiplies the cost by a known
    constant), NaN where nothing was solved.  A row with a region (reuse
    or seed) holds its region's map; the serialized form keeps only the
    other solved rows and rederives these and every objective on load.
    status and reason index STATUSES and REASONS; region_id indexes
    regions, -1 meaning no region.
    regions holds each region's signature (its active rows) in id order,
    and an instance's active set is its region's; the direct rows without
    a region that have one (degenerate and budget rows) keep it in
    direct_signatures, keyed by instance index.  screened_out counts the
    swept rows a region did not serve, the one tally the columns cannot
    give.  wall_time_s is for humans and is deliberately left out of the
    serialized form.  _report_summary keeps phca.stats' statistics pass
    over the result; it is neither serialized nor compared, and
    dataclasses.replace starts a new result without it.
    """

    problem: MpqpProblem
    options: EngineOptions
    thetas: np.ndarray
    x: np.ndarray
    objectives: np.ndarray
    status: np.ndarray
    reason: np.ndarray
    region_id: np.ndarray
    regions: tuple[tuple[int, ...], ...]
    direct_signatures: dict[int, tuple[int, ...]]
    screened_out: int
    wall_time_s: float = field(default=0.0, compare=False)
    _report_summary: object = field(default=None, init=False, repr=False, compare=False)

    def record_for(self, index: int) -> InstanceRecord:
        rid = int(self.region_id[index])
        return InstanceRecord(
            index=index,
            status=STATUSES[self.status[index]],
            reason=REASONS[self.reason[index]],
            region_id=None if rid < 0 else rid,
            signature=self.regions[rid] if rid >= 0 else self.direct_signatures.get(index),
        )

    @property
    def records(self) -> tuple[InstanceRecord, ...]:
        """Per-instance view of the columns, built on each access."""
        return tuple(self.record_for(i) for i in range(self.status.size))

    @property
    def counters(self) -> BatchCounters:
        """The batch's tallies, counted off the columns on each access."""
        n = self.status.size
        rows = dict(zip(STATUSES, np.bincount(self.status, minlength=len(STATUSES)).tolist()))
        rows.update(zip(REASONS, np.bincount(self.reason, minlength=len(REASONS)).tolist()))
        return BatchCounters(
            n_instances=n,
            qp_solves=n - rows[REUSE],  # every row but a reuse row is solved directly
            regions_built=len(self.regions),
            reuse=rows[REUSE],
            seeds=rows[REASON_SEED],
            screened_out=self.screened_out,
            degenerate=rows[DEGENERATE],
            stragglers=rows[REASON_BUDGET],
            infeasible=rows[INFEASIBLE],
            failed=rows[FAILED],
        )

    def solved_mask(self) -> np.ndarray:
        return self.status < len(SOLVED)

    def to_json(self) -> str:
        """Deterministic strict JSON of the columns; excludes wall-clock time.

        x holds only the solved rows without a region (degenerate and
        budget rows), in index order, row-major, as a base64 string of
        their little-endian float64 bytes, every non-finite entry as the
        canonical NaN; load_result_json maps the others and every objective
        again, at the slack price eta (in original units) stored beside.
        """
        payload = {
            "columns": {
                "status": np.asarray(STATUSES, dtype=object)[self.status].tolist(),
                "reason": np.asarray(REASONS, dtype=object)[self.reason].tolist(),
                "region_id": self.region_id.tolist(),
                "x": _float64_text(self.x[_stored_rows(self.status, self.region_id)]),
            },
            "direct_signatures": [
                {"index": i, "signature": list(sig)}
                for i, sig in sorted(self.direct_signatures.items())
            ],
            "eta": _eta(self.problem),
            "options": asdict(self.options),
            "regions": [list(sig) for sig in self.regions],
            "scaling": asdict(self.problem.scaling),
            "screened_out": self.screened_out,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _float64_text(values: np.ndarray) -> str:
    """Base64 of the values' little-endian float64 bytes, NaN for every non-finite entry."""
    values = np.where(np.isfinite(values), values, np.nan).astype("<f8", copy=False)
    return base64.b64encode(values.tobytes()).decode("ascii")


def _objectives(prob: MpqpProblem, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Objectives in original units of the stacked solutions x at the
    scaled costs c; NaN on the rows where x is NaN."""
    return (0.5 * ((x @ prob.H) * x).sum(axis=1) + (c * x).sum(axis=1)) * prob.scaling.cost_scale


def _stored_rows(status: np.ndarray, region_id: np.ndarray) -> np.ndarray:
    """Mask of the solved rows without a region (degenerate and budget
    rows), whose solution and direct signature the results file stores."""
    return (status < len(SOLVED)) & (region_id < 0)


def _eta(prob: MpqpProblem) -> float:
    """The scaled problem's slack price in original units."""
    return prob.eta * prob.scaling.cost_scale


def _positive_multipliers(sol) -> np.ndarray:
    """Rows with a positive multiplier: the active set of a polished solve."""
    lam = sol.lam
    if lam.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(lam > ACTIVE_LAM_REL * max(1.0, float(lam.max())))


def _certified(region, xu: np.ndarray, rhs: np.ndarray, rows) -> np.ndarray:
    """Mask of the instances in rows that the region certifies, swept
    SWEEP_BLOCK rows per batch_membership call."""
    rows = np.asarray(rows, dtype=np.int64)
    ok = np.zeros(rows.size, dtype=bool)
    for start in range(0, rows.size, SWEEP_BLOCK):
        blk = rows[start : start + SWEEP_BLOCK]
        ok[start : start + SWEEP_BLOCK] = region.batch_membership(xu[blk], rhs[blk])
    return ok


def run_batch(
    prob: MpqpProblem,
    thetas: np.ndarray,
    options: EngineOptions | None = None,
) -> BatchResult:
    """Dispatch a whole parameter batch.

    Accepts the problem scaled or unscaled; an unscaled problem is scaled
    here, and the result's problem carries the scaling.  Raises AbortError
    only when direct solves keep failing numerically, which points at a
    broken problem rather than hard instances.
    """
    options = options or EngineOptions()
    options.validate()
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != prob.n_theta:
        raise DimensionError(
            f"thetas must have shape (n, {prob.n_theta}), got {thetas.shape}"
        )
    scaled = prob if prob.scaling is not None else scale_problem(prob)[0]

    n = thetas.shape[0]
    t0 = time.perf_counter()
    ctx = RegionContext(scaled)
    c, xu, rhs = ctx.instance_data(thetas)
    m = scaled.A.shape[0]

    if options.seed is None:
        order = np.arange(n)
    else:
        order = np.random.default_rng(options.seed).permutation(n)

    solved = np.zeros(n, dtype=bool)
    x = np.full((n, scaled.H.shape[0]), np.nan)
    status = np.full(n, -1, dtype=np.int8)
    reason = np.zeros(n, dtype=np.int8)
    region_id = np.full(n, -1, dtype=np.int64)
    direct_signatures: dict[int, tuple[int, ...]] = {}
    regions: list[tuple[int, ...]] = []
    failures = screened_out = 0
    budget_left = options.solve_budget
    # the active set of the last region built warm-starts every later solve
    last_signature = None

    def mark(idx, st, why=None, rid=-1):
        status[idx] = STATUSES.index(st)
        reason[idx] = REASONS.index(why)
        region_id[idx] = rid

    def without_region(i, sol, st, why, signature):
        logger.debug("instance %d: %s (%s)", i, st, why)
        x[i] = sol.x
        mark(i, st, why)
        direct_signatures[i] = signature

    for i in order:
        i = int(i)
        if solved[i]:
            continue
        solved[i] = True
        inst = QpInstance(scaled.H, c[i], scaled.A, rhs[i, :m], scaled.B, rhs[i, m:])
        sol = solve_qp(inst, start=last_signature)
        logger.debug(
            "instance %d: %s solve, %d polish factorizations, %d IPM iterations, exit %s",
            i, "warm" if sol.warm else "cold", sol.factorizations, sol.iterations, sol.exit,
        )
        budget_spent = budget_left == 0
        if budget_left:
            budget_left -= 1
        if sol.status == QP_INFEASIBLE:
            mark(i, INFEASIBLE)
            continue
        if sol.status != QP_OPTIMAL:
            mark(i, FAILED)
            failures += 1
            if failures > MAX_FAILURES:
                raise AbortError(f"{failures} direct solves failed numerically; aborting the batch")
            continue

        signature = tuple(_positive_multipliers(sol).tolist())
        if budget_spent:
            without_region(i, sol, DIRECT, REASON_BUDGET, signature)
            continue

        try:
            region = ctx.build_region(signature)
        except RankDeficientKError:
            without_region(i, sol, DEGENERATE, REASON_RANK, signature)
            continue

        if not _certified(region, xu, rhs, [i])[0]:
            without_region(i, sol, DEGENERATE, REASON_UNCERTAIN, signature)
            continue

        rem = np.flatnonzero(~solved)
        keep = rem[_certified(region, xu, rhs, rem)]
        rid = len(regions)
        screened_out += rem.size - keep.size
        rows = np.union1d(keep, i)  # the seed joins the call, as on load
        x[rows] = region.batch_solutions(xu[rows], rhs[rows])
        mark(keep, REUSE, rid=rid)
        mark(i, DIRECT, REASON_SEED, rid)
        solved[keep] = True
        regions.append(region.active_set)
        last_signature = region.active_set
        logger.debug(
            "region %d: %d active rows, %d swept, %d served",
            rid, len(signature), rem.size, keep.size,
        )

    return BatchResult(
        problem=scaled,
        options=options,
        thetas=thetas,
        x=x,
        objectives=_objectives(scaled, c, x),
        status=status,
        reason=reason,
        region_id=region_id,
        regions=tuple(regions),
        direct_signatures=direct_signatures,
        screened_out=screened_out,
        wall_time_s=time.perf_counter() - t0,
    )


#: top-level keys of a results file, the columns under "columns", and
#: which of those are lists (x is a base64 float64 string)
RESULT_KEYS = ("columns", "direct_signatures", "eta", "options", "regions", "scaling",
               "screened_out")
COLUMNS = ("reason", "region_id", "status", "x")
LIST_COLUMNS = ("reason", "region_id", "status")


def _column(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except (TypeError, ValueError):
        raise SchemaError(f"column {name!r} is malformed") from None


def _stored_x(value, n_rows: int, n_var: int) -> np.ndarray:
    """The stored solution rows, a writable native (n_rows, n_var) array
    decoded from a _float64_text string."""
    if not isinstance(value, str):  # a list, as an earlier version wrote x, too
        raise SchemaError(
            "column 'x' must be a base64 string of float64 values; "
            "rerun phca run to rewrite a file from an earlier version"
        )
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII string
        raise SchemaError("column 'x' is not valid base64") from None
    if len(raw) != 8 * n_rows * n_var:
        raise SchemaError(
            f"column 'x' holds {len(raw)} bytes, not the {8 * n_rows * n_var} of "
            f"{n_rows} solved rows without a region, {n_var} variables each; "
            "rerun phca run to rewrite a file from an earlier version"
        )
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(n_rows, n_var)


def _same(stored, value: float) -> bool:
    """A stored number within a relative 1e-9 of value."""
    number = _is_int(stored) or isinstance(stored, float)
    return number and abs(stored - value) <= 1e-9 * max(1.0, value)


def _codes(values: list, names: tuple, column: str) -> np.ndarray:
    """Indices into names of a list of names."""
    lookup = {name: k for k, name in enumerate(names)}
    try:
        return np.fromiter(map(lookup.__getitem__, values), dtype=np.int8, count=len(values))
    except (KeyError, TypeError):  # an unknown name, or an unhashable entry
        raise SchemaError(f"column {column!r} holds a name outside {names}") from None


def _signature(value, n_rows: int, what: str) -> tuple[int, ...]:
    """A stored active set: a strictly increasing list of inequality rows."""
    # bracketed by -1 and n_rows, every neighbouring pair must increase
    if not (isinstance(value, list) and all(_is_int(v) for v in value)
            and all(a < b for a, b in zip([-1, *value], [*value, n_rows]))):
        raise SchemaError(
            f"{what} must be a strictly increasing list of row indices in 0..{n_rows - 1}"
        )
    return tuple(value)


def load_result_json(text: str, prob: MpqpProblem, thetas: np.ndarray) -> BatchResult:
    """Rebuild a BatchResult from a results file written by to_json.

    The problem and parameter set are reconstructed by the caller from the
    original input files; this checks they line up with the stored run
    (instance count, variable count, scaling, slack price) and that the
    file is well formed: exactly the known top-level keys and columns (an
    'objective' column marks the earlier layout that stored every row),
    known option keys with valid values (as EngineOptions.validate checks
    them), screened_out a non-negative integer, one entry per instance in
    every list column, known status and reason names, region ids naming a
    stored region on exactly the reuse and seed rows, each region with
    exactly one seed row, each row's reason one that STATUS_REASONS pairs
    with its status, every signature a strictly increasing list of
    inequality rows.  The solved rows without a region alone have direct
    signatures, and x holds exactly their float64 values.

    Each region, rebuilt from its signature (it must have full rank), must
    certify its rows, seed and reuse, by the run's own test; it then maps
    them in index order, as run_batch does, so x equals the run's bit for
    bit.  The objectives come from run_batch's formula.  Solved rows must
    be finite, and the stored ones primally feasible; the other rows are
    NaN.  The counters are counted off the columns, so nothing stored can
    disagree with them.
    """
    if prob.scaling is None:
        raise SchemaError("expected the scaled problem when loading results")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"results file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or sorted(payload) != list(RESULT_KEYS):
        raise SchemaError(
            f"results file needs exactly the keys {', '.join(RESULT_KEYS)}; "
            "rerun phca run to rewrite a file from an earlier version"
        )
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[0]
    n_rows = prob.A.shape[0]
    stored = payload["scaling"]
    cost_scale = stored.get("cost_scale") if isinstance(stored, dict) else None
    if not _same(cost_scale, prob.scaling.cost_scale):
        raise SchemaError("results were produced from a different problem (scaling differs)")
    if not _same(payload["eta"], _eta(prob)):
        raise SchemaError(
            f"results were produced at a different slack price (eta {payload['eta']!r} "
            f"in the file, {_eta(prob):g} from the inputs)"
        )
    opts_raw = payload["options"]
    if not isinstance(opts_raw, dict):
        raise SchemaError("results file has a malformed engine option block")
    unknown = sorted(set(opts_raw) - {f.name for f in fields(EngineOptions)})
    if unknown:
        raise SchemaError(f"results file has unknown engine option {unknown[0]!r}")
    options = EngineOptions(**opts_raw)
    try:
        options.validate()
    except ConfigError as exc:
        raise SchemaError(f"results file has a bad engine option: {exc}") from None
    screened_out = payload["screened_out"]
    if not (_is_int(screened_out) and screened_out >= 0):
        raise SchemaError("'screened_out' must be a non-negative integer")

    cols = payload["columns"]
    if isinstance(cols, dict) and "objective" in cols:
        raise SchemaError(
            "results file stores an 'objective' column, as an earlier version wrote it; "
            "rerun phca run to rewrite the file"
        )
    if not isinstance(cols, dict) or sorted(cols) != list(COLUMNS):
        raise SchemaError(f"results file needs exactly the columns {', '.join(COLUMNS)}")
    for name in LIST_COLUMNS:
        if not isinstance(cols[name], list) or len(cols[name]) != n:
            raise SchemaError(
                f"column {name!r} does not hold one entry for each of the {n} "
                "instances the inputs expand to"
            )
    status = _codes(cols["status"], STATUSES, "status")
    reason = _codes(cols["reason"], REASONS, "reason")
    if not isinstance(payload["regions"], list):
        raise SchemaError("results file has a malformed region table")
    regions = tuple(
        _signature(sig, n_rows, f"region {k}'s signature")
        for k, sig in enumerate(payload["regions"])
    )
    region_id = _column(cols["region_id"], "region_id")
    reuse = status == STATUSES.index(REUSE)
    seed = reason == REASONS.index(REASON_SEED)
    if n and (region_id.dtype.kind != "i" or not np.where(
        reuse | seed, (region_id >= 0) & (region_id < len(regions)), region_id == -1
    ).all()):
        raise SchemaError(
            f"column 'region_id' must name a region 0..{len(regions) - 1} on reuse "
            "and seed rows and hold -1 on the others"
        )
    region_id = region_id.astype(np.int64)
    seeds = np.bincount(region_id[seed], minlength=len(regions))
    bad = np.flatnonzero(seeds != 1)
    if bad.size:
        raise SchemaError(f"region {bad[0]} has {seeds[bad[0]]} seed rows, not one")
    pairs = np.array([[why in STATUS_REASONS[st] for why in REASONS] for st in STATUSES])
    bad = np.flatnonzero(~pairs[status, reason])
    if bad.size:
        st, why = STATUSES[status[bad[0]]], REASONS[reason[bad[0]]]
        raise SchemaError(f"row {bad[0]} has status {st!r} with reason {why!r}, which no run writes")
    try:
        direct = [(e["index"], e["signature"]) for e in payload["direct_signatures"]]
    except (KeyError, TypeError):
        raise SchemaError("results file has a malformed direct-signature table") from None
    stored_rows = _stored_rows(status, region_id)
    if [i for i, _ in direct] != np.flatnonzero(stored_rows).tolist() or not all(
        _is_int(i) for i, _ in direct
    ):
        raise SchemaError(
            "direct_signatures must list the degenerate and budget-exhausted rows, "
            "each once, in index order"
        )
    direct_signatures = {
        i: _signature(sig, n_rows, f"the direct signature of row {i}") for i, sig in direct
    }
    x = np.full((n, prob.H.shape[0]), np.nan)
    x[stored_rows] = _stored_x(cols["x"], int(stored_rows.sum()), prob.H.shape[0])

    # every row with a region through it, as run_batch maps them
    ctx = RegionContext(prob)
    c, xu, rhs = ctx.instance_data(thetas)
    rows = np.flatnonzero(region_id >= 0)
    served = np.bincount(region_id[rows], minlength=len(regions))
    rows = rows[np.argsort(region_id[rows], kind="stable")]
    for k, (sig, end) in enumerate(zip(regions, np.cumsum(served).tolist())):
        try:
            region = ctx.build_region(sig)
        except RankDeficientKError:
            raise SchemaError(
                f"region {k}'s signature is rank deficient with the equality rows"
            ) from None
        keep = rows[end - served[k] : end]
        bad = keep[~_certified(region, xu, rhs, keep)]
        if bad.size:
            raise SchemaError(f"row {bad[0]} is served by region {k}, which does not certify it")
        x[keep] = region.batch_solutions(xu[keep], rhs[keep])

    bad = np.flatnonzero((status < len(SOLVED)) & ~np.isfinite(x).all(axis=1))
    if bad.size:
        raise SchemaError(f"row {bad[0]} is solved but its solution is not finite")
    # a stored row is a direct solve's optimum, so it lies within the looser
    # of the two primal tolerances
    rhs = rhs[stored_rows, :n_rows]
    worst = (x[stored_rows] @ prob.A.T - rhs).max(axis=1, initial=-np.inf)
    tol = np.maximum(SCREEN_PRIMAL, DEFAULT_TOL * (1.0 + np.abs(rhs).max(axis=1, initial=0.0)))
    bad = np.flatnonzero(stored_rows)[worst > tol]
    if bad.size:
        raise SchemaError(f"row {bad[0]} is solved but its solution is infeasible")
    return BatchResult(
        problem=prob,
        options=options,
        thetas=thetas,
        x=x,
        objectives=_objectives(prob, c, x),
        status=status,
        reason=reason,
        region_id=region_id,
        regions=regions,
        direct_signatures=direct_signatures,
        screened_out=screened_out,
        wall_time_s=0.0,
    )


@dataclass(frozen=True)
class ValidationReport:
    checked: int
    max_dx: float
    max_rel_objective_gap: float
    mismatches: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def validate_batch(
    result: BatchResult,
    indices: np.ndarray | None = None,
    dx_tol: float = 1e-6,
    obj_tol: float = 1e-8,
) -> ValidationReport:
    """Re-solve instances independently and compare against the batch.

    Checks the solution in the sup norm and the objective relative to its
    magnitude.  indices defaults to every instance that produced a
    solution.  The instances are solved from scratch in stacks of
    VALIDATE_BLOCK, with no region algebra involved.
    """
    if indices is None:
        indices = np.flatnonzero(result.solved_mask())
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    prob = result.problem
    h = prob.scaling.cost_scale
    max_dx = 0.0
    max_gap = 0.0
    bad = []
    for start in range(0, indices.size, VALIDATE_BLOCK):
        idx = indices[start : start + VALIDATE_BLOCK]
        th = result.thetas[idx]
        sols = solve_qp_batch(
            prob.H, prob.A, prob.B,
            th @ prob.C.T + prob.d, th @ prob.E.T + prob.b, th @ prob.F.T + prob.f,
        )
        optimal = sols.status == QP_OPTIMAL
        obj_ref = sols.objective * h
        with np.errstate(invalid="ignore"):
            dx = np.abs(sols.x - result.x[idx]).max(axis=1)
            gap = np.abs(result.objectives[idx] - obj_ref) / np.maximum(1.0, np.abs(obj_ref))
        # written so that a NaN difference (a missing stored solution) fails
        bad.extend(idx[~(optimal & (dx <= dx_tol) & (gap <= obj_tol))].tolist())
        max_dx = float(np.max(dx[optimal], initial=max_dx))
        max_gap = float(np.max(gap[optimal], initial=max_gap))
        logger.debug(
            "validate block: %d instances, IPM iterations max %d mean %.1f, "
            "%d polish groups, %d LP probes, %d not optimal",
            idx.size, sols.iterations.max(), sols.iterations.mean(),
            sols.polish_groups, sols.lp_probes, int((~optimal).sum()),
        )
    return ValidationReport(
        checked=int(indices.size),
        max_dx=max_dx,
        max_rel_objective_gap=max_gap,
        mismatches=tuple(bad),
    )
