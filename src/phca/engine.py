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

Certification is the one acceptance rule: the seed is swept with the
other unsolved instances and must pass it like them.  When the region
does not certify its own seed, or the active rows stacked on the
equalities are rank deficient, the seed keeps its direct solution and no
region is built from it.  An optional budget caps the number of
region-building attempts; leftovers are then solved directly.

Per-instance data comes from one producer, RegionContext.instance_data,
always called on the same blocks: SWEEP_BLOCK consecutive instances.
run_batch keeps the blocks' data for the whole batch, since its sweeps
revisit every unsolved row; load_result_json holds one block at a time.
Both gather each sweep block's rows into work arrays made once per call
(_sweep_work), so that no block maps fresh pages for its copies.
A row with a region, seed included, holds its region's map: one call
maps a region's rows of one block, in index order, so x never depends on
how the solver reached the seed.  A row's status is how it was
dispatched: a reuse or seed row has a region, a budget-exhausted,
uncertain-active-set or rank-deficient row was solved without one, and
an infeasible or failed row has no solution.  The results file holds the
explicit solution: the rows of each status but reuse, the region column,
the region table, and the solutions of the solved rows without a region.
load_result_json goes block by block: it certifies each region's rows
with the run's own test (_certified, the one sweep over
batch_membership), keeps the points that same call mapped, which are
batch_solutions' on the same rows, and checks the stored rows, so the
loaded solutions are the run's bit for bit and no array of its holds a
row per instance and constraint.
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
from .qp import QpMatrices, solve_qp, solve_qp_batch
from .qp import identify_active  # noqa: F401  bench/tracing.py wraps phca.engine.identify_active
from .regions import SCREEN_PRIMAL, RegionContext

logger = logging.getLogger(__name__)

REUSE = "reuse"
SEED = "seed"
BUDGET = "budget-exhausted"
UNCERTAIN = "uncertain-active-set"
RANK = "rank-deficient"
INFEASIBLE = "infeasible"
FAILED = "failed"

#: the status column holds indices into STATUSES: the rows with a region
#: come first, then the other solved rows, then the unsolved ones
STATUSES = (REUSE, SEED, BUDGET, UNCERTAIN, RANK, INFEASIBLE, FAILED)
_WITH_REGION = STATUSES.index(BUDGET)
_SOLVED = STATUSES.index(INFEASIBLE)
#: the coarse status and the reason an InstanceRecord gives each status
_RECORDS = (
    (REUSE, None), ("direct", SEED), ("direct", BUDGET), ("degenerate-direct", UNCERTAIN),
    ("degenerate-direct", RANK), (INFEASIBLE, None), (FAILED, None),
)

#: a row is active at a polished solution when its multiplier exceeds this
#: fraction of the largest one; the polish sets every other row's to zero
ACTIVE_LAM_REL = 1e-9

#: unsolved parameters a region certifies per call, and the instances of
#: one block of instance data, of one map call and of one loader step;
#: bounds those work arrays at (SWEEP_BLOCK, n_rows), so their memory does
#: not grow with the batch
SWEEP_BLOCK = 1024

#: a batch whose direct solves fail numerically more often than this aborts
MAX_FAILURES = 50

#: instances the oracle solves per stacked call, SWEEP_BLOCK's size, so
#: a 1,000-instance sample is one stack; bounds its work arrays at
#: (VALIDATE_BLOCK, n, n), so memory does not grow with the sample
VALIDATE_BLOCK = 1024
#: the oracle's bounds on a stored solution: the sup-norm distance to its
#: own solve, and the objective gap relative to max(1, |objective|)
VALIDATE_DX_TOL = 1e-6
VALIDATE_OBJ_TOL = 1e-8


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
    """How one parameter vector was dispatched (a row of BatchResult.records):
    a coarse status (reuse, direct, degenerate-direct, infeasible or failed)
    and, for the direct ones, the status column's name as the reason."""

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
    budget_exhausted: int
    infeasible: int
    failed: int


@dataclass
class BatchResult:
    """Everything a batch run produced, one column entry per instance.

    problem is the scaled problem the engine actually ran, its scaling
    included; x rows are in original units (scaling leaves the minimizer
    alone), NaN where nothing was solved.  A row with a region (reuse or
    seed) holds its region's map; the serialized form keeps only the other
    solved rows and rederives these on load.
    status indexes STATUSES; region_id indexes regions, -1 meaning no
    region.
    regions holds each region's signature (its active rows) in id order,
    and an instance's active set is its region's; the direct rows without
    a region that have one (degenerate and budget rows) keep it in
    direct_signatures, keyed by instance index.  screened_out counts the
    swept rows a region did not serve, the one tally the columns cannot
    give.  wall_time_s is for humans and is deliberately left out of the
    serialized form.  _report_summary keeps the object phca.stats'
    reports are made from, with the theta set and feeder it read; it is
    neither serialized nor compared, and dataclasses.replace starts a new
    result without it.
    """

    problem: MpqpProblem
    options: EngineOptions
    thetas: np.ndarray
    x: np.ndarray
    status: np.ndarray
    region_id: np.ndarray
    regions: tuple[tuple[int, ...], ...]
    direct_signatures: dict[int, tuple[int, ...]]
    screened_out: int
    wall_time_s: float = field(default=0.0, compare=False)
    _report_summary: object = field(default=None, init=False, repr=False, compare=False)

    def record_for(self, index: int) -> InstanceRecord:
        rid = int(self.region_id[index])
        status, reason = _RECORDS[self.status[index]]
        return InstanceRecord(
            index=index,
            status=status,
            reason=reason,
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
        return BatchCounters(
            n_instances=n,
            qp_solves=n - rows[REUSE],  # every row but a reuse row is solved directly
            regions_built=len(self.regions),
            reuse=rows[REUSE],
            seeds=rows[SEED],
            screened_out=self.screened_out,
            degenerate=rows[UNCERTAIN] + rows[RANK],
            budget_exhausted=rows[BUDGET],
            infeasible=rows[INFEASIBLE],
            failed=rows[FAILED],
        )

    def solved_mask(self) -> np.ndarray:
        return self.status < _SOLVED

    def to_json(self) -> str:
        """Deterministic strict JSON of the columns; excludes wall-clock time.

        status maps each name of STATUSES but reuse to its rows, a
        strictly increasing index list (empty lists kept); a row in none
        of them is a reuse row, so the file names none of the many rows a
        region served.  x holds only the solved rows without a region
        (degenerate and budget rows), in index order, row-major, as a
        base64 string of their little-endian float64 bytes, every
        non-finite entry as the canonical NaN; load_result_json maps the
        others again, at the slack price eta (in original units) stored
        beside.
        """
        payload = {
            "columns": {
                "region_id": self.region_id.tolist(),
                "x": _float64_text(self.x[_stored_rows(self.status)]),
            },
            "direct_signatures": [
                {"index": i, "signature": list(sig)}
                for i, sig in sorted(self.direct_signatures.items())
            ],
            "eta": _eta(self.problem),
            # a numpy integer option is written as a Python int
            "options": {
                k: None if v is None else int(v) for k, v in asdict(self.options).items()
            },
            "regions": [list(sig) for sig in self.regions],
            "scaling": asdict(self.problem.scaling),
            "screened_out": self.screened_out,
            "status": {
                name: np.flatnonzero(self.status == k).tolist()
                for k, name in enumerate(STATUSES) if name != REUSE
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _float64_text(values: np.ndarray) -> str:
    """Base64 of the values' little-endian float64 bytes, NaN for every non-finite entry."""
    values = np.where(np.isfinite(values), values, np.nan).astype("<f8", copy=False)
    return base64.b64encode(values.tobytes()).decode("ascii")


def _stored_rows(status: np.ndarray) -> np.ndarray:
    """Mask of the solved rows without a region (degenerate and budget
    rows), whose solution and direct signature the results file stores."""
    return (status >= _WITH_REGION) & (status < _SOLVED)


def _eta(prob: MpqpProblem) -> float:
    """The scaled problem's slack price in original units."""
    return prob.eta * prob.scaling.cost_scale


def _positive_multipliers(sol) -> np.ndarray:
    """Rows with a positive multiplier: the active set of a polished solve."""
    lam = sol.lam
    if lam.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(lam > ACTIVE_LAM_REL * max(1.0, float(lam.max())))


def _sweep_work(ctx: RegionContext, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Work arrays for the gathered xu and rhs of sweep blocks of up to rows
    instances, made once per run_batch or load_result_json call.  Every
    block reuses them, so that no block maps fresh pages for its copies."""
    return np.empty((rows, ctx.prob.n_var)), np.empty((rows, ctx.K.shape[0]))


def _gather(work, xu: np.ndarray, rhs: np.ndarray, rows: np.ndarray):
    """xu[rows] and rhs[rows], written into the first rows of work's arrays."""
    # rows are in range, and take's default mode="raise" fills a fresh copy
    # of out before writing it back
    k = rows.size
    return (np.take(xu, rows, axis=0, out=work[0][:k], mode="clip"),
            np.take(rhs, rows, axis=0, out=work[1][:k], mode="clip"))


def _certified(
    region, xu: np.ndarray, rhs: np.ndarray, rows: np.ndarray, work,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mask of the instances in rows that the region certifies, swept
    SWEEP_BLOCK rows per batch_membership call, each block gathered into
    the _sweep_work arrays work; with out, also their mapped points, one
    row of out per row of rows."""
    ok = np.zeros(rows.size, dtype=bool)
    for start in range(0, rows.size, SWEEP_BLOCK):
        part = slice(start, start + SWEEP_BLOCK)
        blk = rows[part]
        ok[part] = region.batch_membership(
            *_gather(work, xu, rhs, blk), out=None if out is None else out[part]
        )
    return ok


def _unsolved_picks(order: np.ndarray, status: np.ndarray):
    """The rows of order still unsolved when their turn comes.  order is
    scanned SWEEP_BLOCK rows at a time, so only the unsolved rows reach
    Python; each is checked again when picked, as a region built from an
    earlier pick of its chunk may have served it."""
    for start in range(0, order.size, SWEEP_BLOCK):
        chunk = order[start : start + SWEEP_BLOCK]
        for i in chunk[status[chunk] < 0].tolist():
            if status[i] < 0:
                yield i


def _instance_blocks(ctx: RegionContext, thetas: np.ndarray):
    """(start, c, xu, rhs) of each SWEEP_BLOCK rows of thetas in turn, from
    RegionContext.instance_data: the one way the run and the loader form
    per-instance data, so both read the same products to the bit."""
    for start in range(0, thetas.shape[0], SWEEP_BLOCK):
        yield start, *ctx.instance_data(thetas[start : start + SWEEP_BLOCK])


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
    m = scaled.A.shape[0]
    # kept for the whole batch: the sweeps revisit every unsolved row
    c = np.empty((n, scaled.n_var))
    xu = np.empty_like(c)
    rhs = np.empty((n, ctx.K.shape[0]))
    for start, *block in _instance_blocks(ctx, thetas):
        for whole, part in zip((c, xu, rhs), block):
            whole[start : start + part.shape[0]] = part
    work = _sweep_work(ctx, min(n, SWEEP_BLOCK))

    if options.seed is None:
        order = np.arange(n)
    else:
        order = np.random.default_rng(options.seed).permutation(n)

    x = np.full((n, scaled.H.shape[0]), np.nan)
    status = np.full(n, -1, dtype=np.int8)  # -1 while a row is unsolved
    region_id = np.full(n, -1, dtype=np.int64)
    direct_signatures: dict[int, tuple[int, ...]] = {}
    regions: list[tuple[int, ...]] = []
    failures = screened_out = 0
    budget_left = options.solve_budget
    # the active set of the last region built warm-starts every later solve
    last_signature = None

    def mark(idx, st, rid=-1):
        status[idx] = STATUSES.index(st)
        region_id[idx] = rid

    def without_region(i, sol, st, signature):
        logger.debug("instance %d: %s", i, st)
        x[i] = sol.x
        mark(i, st)
        direct_signatures[i] = signature

    for i in _unsolved_picks(order, status):
        sol = solve_qp(ctx.qp, c[i], rhs[i, :m], rhs[i, m:], start=last_signature)
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
            without_region(i, sol, BUDGET, signature)
            continue

        try:
            region = ctx.build_region(signature)
        except RankDeficientKError:
            without_region(i, sol, RANK, signature)
            continue

        # the seed is swept with every unsolved row and must pass like them
        rem = np.flatnonzero(status < 0)
        ok = _certified(region, xu, rhs, rem, work)
        if not ok[np.searchsorted(rem, i)]:
            without_region(i, sol, UNCERTAIN, signature)
            continue
        keep = rem[ok]
        rid = len(regions)
        screened_out += rem.size - keep.size
        # one map call per block of instances, as load_result_json maps them
        for rows in np.split(keep, np.flatnonzero(np.diff(keep // SWEEP_BLOCK)) + 1):
            x[rows] = region.batch_solutions(*_gather(work, xu, rhs, rows))
        mark(keep, REUSE, rid=rid)
        mark(i, SEED, rid)
        regions.append(region.active_set)
        last_signature = region.active_set
        logger.debug(
            "region %d: %d active rows, %d swept, %d served",
            rid, len(signature), rem.size - 1, keep.size - 1,
        )

    return BatchResult(
        problem=scaled,
        options=options,
        thetas=thetas,
        x=x,
        status=status,
        region_id=region_id,
        regions=tuple(regions),
        direct_signatures=direct_signatures,
        screened_out=screened_out,
        wall_time_s=time.perf_counter() - t0,
    )


#: top-level keys of a results file, and the columns under "columns":
#: region_id, a list, and x, a base64 float64 string
RESULT_KEYS = ("columns", "direct_signatures", "eta", "options", "regions", "scaling",
               "screened_out", "status")
COLUMNS = ("region_id", "x")


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


def _signature(value, n_rows: int, what: str) -> tuple[int, ...]:
    """A stored active set: a strictly increasing list of inequality rows."""
    # bracketed by -1 and n_rows, every neighbouring pair must increase
    if not (isinstance(value, list) and all(_is_int(v) for v in value)
            and all(a < b for a, b in zip([-1, *value], [*value, n_rows]))):
        raise SchemaError(
            f"{what} must be a strictly increasing list of row indices in 0..{n_rows - 1}"
        )
    return tuple(value)


def _status_column(value, n: int) -> np.ndarray:
    """The status column of n rows from a results file's status object:
    each name but reuse with its rows, and reuse on every other row."""
    names = STATUSES[1:]
    if not isinstance(value, dict) or sorted(value) != sorted(names):
        raise SchemaError(
            f"'status' needs exactly the keys {', '.join(names)}, "
            "each with its rows; a row in none of them is a reuse row"
        )
    status = np.zeros(n, dtype=np.int8)  # STATUSES.index(REUSE)
    for k, name in enumerate(names, 1):
        rows = np.array(_signature(value[name], n, f"status {name!r}"), dtype=np.int64)
        twice = rows[status[rows] != 0]
        if twice.size:
            raise SchemaError(
                f"row {twice[0]} is listed under both {STATUSES[status[twice[0]]]!r} and {name!r}"
            )
        status[rows] = k
    return status


def load_result_json(text: str, prob: MpqpProblem, thetas: np.ndarray) -> BatchResult:
    """Rebuild a BatchResult from a results file written by to_json.

    The problem and parameter set are reconstructed by the caller from the
    original input files; this checks they line up with the stored run
    (instance count, variable count, scaling, slack price) and that the
    file is well formed: exactly the known top-level keys and columns
    (other columns mark an earlier layout), known option keys with valid
    values (as EngineOptions.validate checks them), screened_out a
    non-negative integer, one region id per instance, a status object
    with exactly the names but reuse, each naming a strictly increasing
    list of rows and no row under two names, region ids naming a stored
    region on exactly the reuse and seed rows, each region with exactly
    one seed row, every signature a strictly increasing list of
    inequality rows.  The solved rows without a region alone have direct
    signatures, and x holds exactly their float64 values.

    Every region is rebuilt from its signature (it must have full rank).
    Then, one SWEEP_BLOCK block of instances at a time: each region must
    certify its rows of the block, seed and reuse, by the run's own test,
    and x keeps the points that one call mapped: the same expression on
    the same rows, in index order, as run_batch's map, so x equals the
    run's bit for bit; the block's solved rows must be finite, and the
    stored ones primally feasible.  The other rows are NaN.  The counters
    are counted off the columns, so nothing stored can disagree with them.
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
    if not isinstance(cols, dict) or sorted(cols) != list(COLUMNS):
        raise SchemaError(
            f"results file needs exactly the columns {', '.join(COLUMNS)}; "
            "rerun phca run to rewrite a file from an earlier version"
        )
    if not isinstance(cols["region_id"], list) or len(cols["region_id"]) != n:
        raise SchemaError(
            f"column 'region_id' does not hold one entry for each of the {n} "
            "instances the inputs expand to"
        )
    status = _status_column(payload["status"], n)
    if not isinstance(payload["regions"], list):
        raise SchemaError("results file has a malformed region table")
    regions = tuple(
        _signature(sig, n_rows, f"region {k}'s signature")
        for k, sig in enumerate(payload["regions"])
    )
    region_id = _column(cols["region_id"], "region_id")
    if n and (region_id.dtype.kind != "i" or not np.where(
        status < _WITH_REGION, (region_id >= 0) & (region_id < len(regions)), region_id == -1
    ).all()):
        raise SchemaError(
            f"column 'region_id' must name a region 0..{len(regions) - 1} on reuse "
            "and seed rows and hold -1 on the others"
        )
    region_id = region_id.astype(np.int64)
    seeds = np.bincount(region_id[status == STATUSES.index(SEED)], minlength=len(regions))
    bad = np.flatnonzero(seeds != 1)
    if bad.size:
        raise SchemaError(f"region {bad[0]} has {seeds[bad[0]]} seed rows, not one")
    try:
        direct = [(e["index"], e["signature"]) for e in payload["direct_signatures"]]
    except (KeyError, TypeError):
        raise SchemaError("results file has a malformed direct-signature table") from None
    stored_rows = _stored_rows(status)
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

    ctx = RegionContext(prob)
    built = []
    for k, sig in enumerate(regions):
        try:
            built.append(ctx.build_region(sig))
        except RankDeficientKError:
            raise SchemaError(
                f"region {k}'s signature is rank deficient with the equality rows"
            ) from None
    solved = status < _SOLVED
    work = _sweep_work(ctx, min(n, SWEEP_BLOCK))
    # one block of instance data at a time, the blocks run_batch formed
    for start, _, xu, rhs in _instance_blocks(ctx, thetas):
        blk = slice(start, start + xu.shape[0])
        # each region's rows in the block, as run_batch maps them
        owner = region_id[blk]
        for k in np.flatnonzero(np.bincount(owner + 1)[1:]).tolist():  # -1 is no region
            rows = np.flatnonzero(owner == k)
            mapped = np.empty((rows.size, x.shape[1]))
            bad = rows[~_certified(built[k], xu, rhs, rows, work, out=mapped)]
            if bad.size:
                raise SchemaError(
                    f"row {start + bad[0]} is served by region {k}, which does not certify it"
                )
            x[start + rows] = mapped
        bad = np.flatnonzero(solved[blk] & ~np.isfinite(x[blk]).all(axis=1))
        if bad.size:
            raise SchemaError(f"row {start + bad[0]} is solved but its solution is not finite")
        # a stored row is a direct solve's optimum, so each of its
        # inequality rows lies within the looser of the two primal
        # tolerances, the solver's taken against that row's right-hand side
        rows = np.flatnonzero(stored_rows[blk])
        b = rhs[rows, :n_rows]
        tol = np.maximum(SCREEN_PRIMAL, DEFAULT_TOL * (1.0 + np.abs(b)))
        bad = rows[(x[start + rows] @ prob.A.T - b > tol).any(axis=1)]
        if bad.size:
            raise SchemaError(f"row {start + bad[0]} is solved but its solution is infeasible")
    return BatchResult(
        problem=prob,
        options=options,
        thetas=thetas,
        x=x,
        status=status,
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


def validate_batch(result: BatchResult, indices: np.ndarray | None = None) -> ValidationReport:
    """Re-solve instances independently and compare against the batch.

    Checks the solution in the sup norm (VALIDATE_DX_TOL) and the
    objective relative to its magnitude (VALIDATE_OBJ_TOL).  indices
    defaults to every instance that produced a solution.  The instances
    are solved from scratch in stacks of VALIDATE_BLOCK (1,024), on
    MpqpProblem.instance_data's costs and right-hand sides and one
    QpMatrices of the problem's own, with no region algebra involved; the
    stored rows' objectives come from that QpMatrices' objective on the
    same stack, the formula the solver's objectives come from, and both
    are compared in original units.
    """
    if indices is None:
        indices = np.flatnonzero(result.solved_mask())
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    prob = result.problem
    h = prob.scaling.cost_scale
    max_dx = 0.0
    max_gap = 0.0
    bad = []
    m = prob.A.shape[0]
    prep = QpMatrices(prob.H, prob.A, prob.B)
    for start in range(0, indices.size, VALIDATE_BLOCK):
        idx = indices[start : start + VALIDATE_BLOCK]
        c, rhs = prob.instance_data(result.thetas[idx])
        sols = solve_qp_batch(prep, c, rhs[:, :m], rhs[:, m:])
        optimal = sols.status == QP_OPTIMAL
        x = result.x[idx]
        obj = prep.objective(c, x) * h
        obj_ref = sols.objective * h
        with np.errstate(invalid="ignore"):
            dx = np.abs(sols.x - x).max(axis=1)
            gap = np.abs(obj - obj_ref) / np.maximum(1.0, np.abs(obj_ref))
        # written so that a NaN difference (a missing stored solution) fails
        bad.extend(idx[~(optimal & (dx <= VALIDATE_DX_TOL) & (gap <= VALIDATE_OBJ_TOL))].tolist())
        max_dx = float(np.max(dx[optimal], initial=max_dx))
        max_gap = float(np.max(gap[optimal], initial=max_gap))
        logger.debug(
            "validate block: %d instances, IPM iterations max %d mean %.1f, "
            "%d polish groups, %d phase-1 solves, %d not optimal",
            idx.size, sols.iterations.max(), sols.iterations.mean(),
            sols.polish_groups, sols.phase_one, int((~optimal).sum()),
        )
    return ValidationReport(
        checked=int(indices.size),
        max_dx=max_dx,
        max_rel_objective_gap=max_gap,
        mismatches=tuple(bad),
    )
