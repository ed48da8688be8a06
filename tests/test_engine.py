"""Batch driver: reuse correctness, dispatch bookkeeping, serialization."""

import base64
import json
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from conftest import bench_workloads, float_columns
from helpers import instance, soft_violations, solve_instance

import phca.engine as engine_mod
from phca import (
    ETA_FLOOR,
    AnalysisGrid,
    EngineOptions,
    build_problem,
    calibrate_eta,
    demo,
    expand_grid,
    load_feeder,
    load_result_json,
    load_scenarios,
    run_batch,
    scale_problem,
    validate_batch,
)
from phca.builder import BuilderConfig
from phca.engine import STATUSES
from phca.errors import AbortError, DimensionError, RankDeficientKError, SchemaError
from phca.qp import OPTIMAL, QpMatrices, solve_qp_batch
from phca.regions import SCREEN_DUAL, SCREEN_PRIMAL, CriticalRegion, RegionContext
from phca.stats import json_report, recover_ratios, render_report


@pytest.fixture(scope="module")
def batch(scaled_demo_problem, small_theta_set):
    return run_batch(scaled_demo_problem, small_theta_set.thetas)


def _objectives(res):
    """The objectives of res's rows in original units, from
    QpMatrices.objective at the scaled costs; NaN where x is."""
    prob = res.problem
    c, _ = prob.instance_data(res.thetas)
    return QpMatrices(prob.H, prob.A, prob.B).objective(c, res.x) * prob.scaling.cost_scale


def _arrays(res):
    """res's columns and its objectives, by name."""
    return {"x": res.x, "objectives": _objectives(res), "status": res.status,
            "region_id": res.region_id}


def test_every_instance_solved(batch, small_theta_set):
    n = len(small_theta_set)
    assert batch.counters.n_instances == n
    assert batch.solved_mask().all()
    assert not np.any(np.isnan(batch.x))
    assert len(batch.records) == n
    assert all(batch.records[i].index == i for i in range(n))


def test_reuse_matches_direct_solves(batch, scaled_demo_problem):
    # every row, reused or not, must equal its own independent solve
    prob = scaled_demo_problem
    worst = 0.0
    for i, theta in enumerate(batch.thetas):
        sol = solve_instance(instance(prob, theta))
        assert sol.status == OPTIMAL
        worst = max(worst, float(np.max(np.abs(sol.x - batch.x[i]))))
    assert worst < 1e-8


def test_reuse_dominates_direct(batch):
    c = batch.counters
    assert c.qp_solves < 0.1 * c.n_instances
    assert c.reuse > 0.9 * c.n_instances
    assert c.qp_solves == c.seeds + c.degenerate + c.budget_exhausted + c.infeasible + c.failed
    assert c.regions_built == len(batch.regions) == c.seeds


def _every_outcome(prob, theta_set, monkeypatch):
    """A batch with every status but uncertain-active-set and failed: the
    first region build is forced to fail as rank deficient, two rows are
    infeasible, and a budget of two attempts leaves budget-exhausted rows
    behind the one region built."""
    build = RegionContext.build_region
    calls = []

    def first_rank_deficient(self, active_set):
        calls.append(active_set)
        if len(calls) == 1:
            raise RankDeficientKError("forced")
        return build(self, active_set)

    monkeypatch.setattr(RegionContext, "build_region", first_rank_deficient)
    thetas = theta_set.thetas[::4].copy()
    thetas[[3, 17], prob.headroom_slice()] = -0.5
    return run_batch(prob, thetas, EngineOptions(solve_budget=2))


def test_region_census_consistent(scaled_demo_problem, small_theta_set, monkeypatch):
    solves = []
    real = engine_mod.solve_qp
    monkeypatch.setattr(
        engine_mod, "solve_qp", lambda *args, **kwargs: solves.append(1) or real(*args, **kwargs)
    )
    res = _every_outcome(scaled_demo_problem, small_theta_set, monkeypatch)
    n = len(res.thetas)
    statuses = [STATUSES[k] for k in res.status]
    assert asdict(res.counters) == {
        "n_instances": n,
        "qp_solves": len(solves),
        "regions_built": len(res.regions),
        "reuse": statuses.count("reuse"),
        "seeds": statuses.count("seed"),
        "screened_out": res.screened_out,
        "degenerate": statuses.count("uncertain-active-set") + statuses.count("rank-deficient"),
        "budget_exhausted": statuses.count("budget-exhausted"),
        "infeasible": 2,
        "failed": 0,
    }
    assert res.counters.budget_exhausted > 0 and res.counters.degenerate == 1
    # each region has one seed, solved directly, and serves only reuse rows
    for rid, sig in enumerate(res.regions):
        rows = [i for i in range(n) if res.region_id[i] == rid]
        seeds = [i for i in rows if statuses[i] == "seed"]
        assert len(seeds) == 1
        assert seeds[0] not in res.direct_signatures
        assert all(statuses[i] == "reuse" for i in rows if i != seeds[0])
        assert list(sig) == sorted(set(sig))
    # every reused row names a region of the census
    reuse = res.status == STATUSES.index("reuse")
    assert ((res.region_id[reuse] >= 0) & (res.region_id[reuse] < len(res.regions))).all()


def test_no_signature_holds_two_equal_rows(demo_feeder, small_theta_set, monkeypatch):
    # a bus with no inverter at or below it has its parent's voltage rows
    # in A, so the demo's 37 inequality rows hold 27 distinct ones; in a
    # window of 0.99-1.01 pu such rows bind, yet no region and no direct
    # solve of a run names two equal rows, as the polish's independence
    # filter keeps only the first copy.  So a duplicated row reaches
    # rank-deficient only through build_region given both copies
    # (tests/test_regions.py::test_rank_deficient_active_set_rejected)
    prob = build_problem(demo_feeder, BuilderConfig(beta=0.2, vmin=0.99, vmax=1.01))
    prob = scale_problem(prob.with_eta(ETA_FLOOR))[0]
    equal = (prob.A[:, None] == prob.A[None]).all(axis=2)
    assert prob.A.shape[0] == 37 and (~np.tril(equal, -1).any(axis=1)).sum() == 27
    runs = [run_batch(prob, small_theta_set.thetas, EngineOptions(solve_budget=budget))
            for budget in (None, 2)]
    runs.append(_every_outcome(prob, small_theta_set, monkeypatch))
    copied = equal.sum(axis=1) > 1
    named = 0
    for res in runs:
        for sig in (*res.regions, *res.direct_signatures.values()):
            assert (equal[np.ix_(sig, sig)] == np.eye(len(sig), dtype=bool)).all(), sig
            named += copied[list(sig)].any()
    assert named > 50 and runs[2].counters.degenerate


def test_served_rows_satisfy_optimality(batch, scaled_demo_problem):
    # rebuild each region from its stored signature and re-certify the rows
    prob = scaled_demo_problem
    ctx = RegionContext(prob)
    _, xu, rhs = ctx.instance_data(batch.thetas)
    reuse = batch.status == STATUSES.index("reuse")
    for rid, sig in enumerate(batch.regions):
        rows = np.flatnonzero(reuse & (batch.region_id == rid))
        if not rows.size:
            continue
        region = ctx.build_region(sig)
        th = batch.thetas[rows]
        xs = batch.x[rows]
        resid = xs @ prob.A.T - th @ prob.E.T - prob.b
        assert resid.max() <= SCREEN_PRIMAL + 1e-15
        lam = region.multipliers(xu[rows], rhs[rows])[:, : len(region.active_set)]
        assert lam.min(initial=np.inf) >= -SCREEN_DUAL - 1e-15


def test_objectives_in_original_units(batch, demo_problem):
    orig = demo_problem.with_eta(ETA_FLOOR)
    i = int(np.flatnonzero(batch.solved_mask())[0])
    x = batch.x[i]
    assert _objectives(batch)[i] == pytest.approx(
        0.5 * x @ orig.H @ x + instance(orig, batch.thetas[i]).c @ x, rel=1e-9, abs=1e-12
    )


def test_unscaled_problem_is_scaled_on_entry(demo_problem, small_theta_set):
    res = run_batch(demo_problem.with_eta(ETA_FLOOR), small_theta_set.thetas[:20])
    assert res.problem.scaling is not None
    assert res.problem.scaling.cost_scale == pytest.approx(5.608139205308629, rel=1e-12)


def test_infeasible_rows_classified(scaled_demo_problem, small_theta_set):
    thetas = small_theta_set.thetas[:10].copy()
    hs = scaled_demo_problem.headroom_slice()
    bad = [2, 7]
    for i in bad:
        thetas[i, hs] = -0.5  # cap rows close: q <= -0.5 and -q <= -0.5
    res = run_batch(scaled_demo_problem, thetas)
    objectives = _objectives(res)
    for i in range(10):
        expect = "infeasible" if i in bad else None
        if expect:
            rec = res.record_for(i)
            assert rec.status == "infeasible"
            assert np.all(np.isnan(res.x[i]))
            assert np.isnan(objectives[i])
        else:
            assert res.record_for(i).status in ("direct", "reuse", "degenerate-direct")
    assert res.counters.infeasible == 2
    assert not res.solved_mask()[bad].any()


def test_determinism_and_order_invariance(scaled_demo_problem, small_theta_set):
    thetas = small_theta_set.thetas
    a = run_batch(scaled_demo_problem, thetas, EngineOptions(seed=0))
    b = run_batch(scaled_demo_problem, thetas, EngineOptions(seed=0))
    assert a.to_json() == b.to_json()
    # a different pick order changes the census but not the answers
    seq = run_batch(scaled_demo_problem, thetas, EngineOptions(seed=None))
    assert np.max(np.abs(a.x - seq.x)) < 1e-8


def test_sweep_blocks_do_not_change_the_result(batch, scaled_demo_problem, monkeypatch):
    # a block size that divides no sweep evenly, so every region's sweep
    # ends on a partial block
    monkeypatch.setattr(engine_mod, "SWEEP_BLOCK", 7)
    small = run_batch(scaled_demo_problem, batch.thetas, batch.options)
    want = _arrays(batch)
    for name, got in _arrays(small).items():
        np.testing.assert_array_equal(got, want[name])
    assert small.regions == batch.regions
    assert small.direct_signatures == batch.direct_signatures
    assert small.counters == batch.counters


def test_budget_falls_back_to_direct(scaled_demo_problem, small_theta_set):
    thetas = small_theta_set.thetas[:40]
    res = run_batch(scaled_demo_problem, thetas, EngineOptions(solve_budget=1))
    assert res.solved_mask().all()
    assert res.counters.regions_built <= 1
    budget_recs = [r for r in res.records if r.reason == "budget-exhausted"]
    assert len(budget_recs) == res.counters.budget_exhausted
    if res.counters.regions_built == 1:
        assert res.counters.budget_exhausted == 40 - 1 - res.counters.reuse
    # budgeted runs still agree with the unbudgeted ones
    free = run_batch(scaled_demo_problem, thetas)
    assert np.max(np.abs(res.x - free.x)) < 1e-8


def test_budget_signatures_are_cold_positive_multipliers(random_feeder_batch):
    # a budget row's signature comes off its (warm) solve's multipliers, as
    # every other direct solve's does; an independent cold solve of the row
    # has the same positive multipliers
    prob, thetas = random_feeder_batch
    res = run_batch(prob, thetas, EngineOptions(seed=3, solve_budget=3))
    rows = np.flatnonzero(res.status == STATUSES.index("budget-exhausted"))
    assert rows.size > 100
    for i in rows:
        sol = solve_instance(instance(prob, thetas[i]))
        assert sol.status == OPTIMAL
        cutoff = engine_mod.ACTIVE_LAM_REL * max(1.0, sol.lam.max())
        assert res.direct_signatures[i] == tuple(np.flatnonzero(sol.lam > cutoff).tolist())


def _assert_roundtrip(res, theta_set=None, feeder=None):
    """load_result_json(res.to_json()) equals res bit for bit, and so do
    its two reports when a theta set and feeder are given."""
    text = res.to_json()
    back = load_result_json(text, res.problem, res.thetas)
    arrays = _arrays(res)
    for name, got in _arrays(back).items():
        want = arrays[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert back.x.flags.writeable
    assert back.regions == res.regions
    assert back.direct_signatures == res.direct_signatures
    assert back.options == res.options
    assert back.screened_out == res.screened_out
    assert back.counters == res.counters
    assert back.records == res.records
    assert back.to_json() == text
    if theta_set is not None:
        assert render_report(back, theta_set, feeder) == render_report(res, theta_set, feeder)
        assert json_report(back, theta_set, feeder) == json_report(res, theta_set, feeder)
    return text


@pytest.mark.parametrize("budget", [None, 2])
def test_json_roundtrip_across_instance_blocks(batch, small_theta_set, demo_feeder, monkeypatch,
                                               budget):
    # in 64-row blocks the first region serves rows of all three blocks and
    # the second of two, so the run and the loader each map a region's rows
    # block by block; the budget run also stores six rows
    monkeypatch.setattr(engine_mod, "SWEEP_BLOCK", 64)
    res = run_batch(batch.problem, batch.thetas, EngineOptions(seed=0, solve_budget=budget))
    blocks = [np.unique(np.flatnonzero(res.region_id == k) // 64).size for k in range(2)]
    assert blocks == [3, 2]
    assert res.counters.budget_exhausted == (6 if budget else 0)
    _assert_roundtrip(res, small_theta_set, demo_feeder)


@pytest.mark.parametrize("budget", [None, 2])
def test_loader_keeps_the_certified_points(batch, monkeypatch, budget):
    # the loader's x of a region row is the point its certification mapped:
    # no second map call, and the run's x byte for byte
    monkeypatch.setattr(engine_mod, "SWEEP_BLOCK", 64)
    res = run_batch(batch.problem, batch.thetas, EngineOptions(seed=0, solve_budget=budget))
    text = res.to_json()

    def unreachable(*args, **kwargs):
        raise AssertionError("the loader mapped region rows a second time")

    monkeypatch.setattr(CriticalRegion, "batch_solutions", unreachable)
    back = load_result_json(text, res.problem, res.thetas)
    assert (res.region_id >= 0).sum() > 64
    assert back.x.tobytes() == res.x.tobytes()


def test_loader_and_soft_violations_hold_no_array_per_instance_and_row(batch, monkeypatch):
    # 7,680 instances in 64-row blocks: one (n, n_rows) float64 array would
    # take 2.3 MB, the whole of either call's peak far less
    monkeypatch.setattr(engine_mod, "SWEEP_BLOCK", 64)
    thetas = np.tile(batch.thetas, (40, 1))
    res = run_batch(batch.problem, thetas, batch.options)
    text = res.to_json()
    full = thetas.shape[0] * res.problem.A.shape[0] * 8
    tracemalloc.start()
    try:
        load_result_json(text, res.problem, thetas)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        soft_violations(res)
        soft_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_peak < full and soft_peak < full, (load_peak, soft_peak, full)


def _with_failed_rows(prob, theta_set, monkeypatch):
    """_every_outcome with its third direct solve, a budget-exhausted row's,
    failing numerically."""

    class Broken:
        status = "numerical-failure"
        warm, factorizations, iterations, exit = False, 0, 0, "stall"

    real, calls = engine_mod.solve_qp, []

    def third_fails(*args, **kwargs):
        calls.append(args)
        return Broken() if len(calls) == 3 else real(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "solve_qp", third_fails)
    return _every_outcome(prob, theta_set, monkeypatch)


def test_json_roundtrip(batch, small_theta_set, demo_feeder):
    # every row has a region, so the file stores no solution at all
    text = _assert_roundtrip(batch, small_theta_set, demo_feeder)
    assert json.loads(text)["columns"]["x"] == ""
    assert batch.counters.seeds == 3 and batch.counters.qp_solves == 3


def test_json_roundtrip_random_feeder(random_feeder_batch, monkeypatch):
    # on this feeder a region's map of a few rows can differ in the last bit
    # from its map of more, so with 64-row blocks the loaded x is the run's
    # only because both map a region's rows of each block in one call
    prob, thetas = random_feeder_batch
    for block in (engine_mod.SWEEP_BLOCK, 64):
        monkeypatch.setattr(engine_mod, "SWEEP_BLOCK", block)
        res = run_batch(prob, thetas)
        assert res.counters.reuse > 0
        _assert_roundtrip(res)


def test_json_roundtrip_budget_rows(batch, small_theta_set, demo_feeder):
    res = run_batch(batch.problem, batch.thetas, EngineOptions(seed=None, solve_budget=2))
    assert res.counters.budget_exhausted > 0 and res.counters.reuse > 0
    text = _assert_roundtrip(res, small_theta_set, demo_feeder)
    # the budget rows alone are stored
    stored = base64.b64decode(json.loads(text)["columns"]["x"])
    assert len(stored) == 8 * res.counters.budget_exhausted * res.x.shape[1]


@pytest.mark.parametrize("make", [_every_outcome, _with_failed_rows], ids=["every", "failed"])
def test_json_roundtrip_direct_infeasible_failed(scaled_demo_problem, small_theta_set,
                                                 demo_feeder, monkeypatch, make):
    res = make(scaled_demo_problem, small_theta_set, monkeypatch)
    assert res.counters.degenerate and res.counters.infeasible and res.counters.reuse
    assert res.counters.failed == (make is _with_failed_rows)
    rows = slice(None, None, 4)
    theta_set = replace(
        small_theta_set, thetas=res.thetas, hour=small_theta_set.hour[rows],
        kappa=small_theta_set.kappa[rows], oversize=small_theta_set.oversize[rows],
        alpha=small_theta_set.alpha[rows],
    )
    _assert_roundtrip(res, theta_set, demo_feeder)


def test_uncertain_active_set_rows(demo_feeder, caplog):
    # without the soft-row weight two seeds of this grid do not certify
    # their own point, so they keep their direct solve and no region
    prob = build_problem(demo_feeder, BuilderConfig(beta=0.0))
    scen = load_scenarios(demo_feeder, demo.loads_csv(days=5), demo.solar_csv(days=5), seed=0)
    grid = AnalysisGrid(kappa=(1.0, 1.5, 2.0), oversize=(1.0, 1.15), alpha=(0.24, 0.48))
    thetas = expand_grid(prob, scen, grid).thetas
    with caplog.at_level("DEBUG", logger="phca.engine"):
        res = run_batch(scale_problem(prob.with_eta(ETA_FLOOR))[0], thetas, EngineOptions(seed=0))
    rows = np.flatnonzero(res.status == STATUSES.index("uncertain-active-set"))
    assert rows.tolist() == [883, 1145] and len(thetas) == 1440
    assert (res.region_id[rows] == -1).all()
    assert res.direct_signatures == {883: (36,), 1145: (0, 36)}
    assert res.counters.degenerate == 2 and res.counters.budget_exhausted == 0
    lines = [r.getMessage() for r in caplog.records]
    assert [line for line in lines if line.endswith(": uncertain-active-set")] == [
        "instance 883: uncertain-active-set", "instance 1145: uncertain-active-set"
    ]
    # the file stores these two rows' direct solutions and nothing else
    text = _assert_roundtrip(res)
    x, stored = float_columns(json.loads(text))
    assert stored == rows.tolist()
    assert np.isfinite(x).all() and x.tobytes() == res.x[rows].tobytes()


def test_json_roundtrip_every_outcome(scaled_demo_problem, small_theta_set, monkeypatch):
    res = _every_outcome(scaled_demo_problem, small_theta_set, monkeypatch)
    assert {(r.status, r.reason) for r in res.records} == {
        ("reuse", None),
        ("direct", "seed"),
        ("degenerate-direct", "rank-deficient"),
        ("direct", "budget-exhausted"),
        ("infeasible", None),
    }
    # only the direct rows without a region keep their own active set
    assert set(res.direct_signatures) == {
        r.index for r in res.records if r.reason in ("rank-deficient", "budget-exhausted")
    }
    text = res.to_json()
    back = load_result_json(text, scaled_demo_problem, res.thetas)
    want = _arrays(res)
    for name, got in _arrays(back).items():
        np.testing.assert_array_equal(got, want[name])
    assert back.regions == res.regions
    assert back.direct_signatures == res.direct_signatures
    assert back.counters == res.counters
    assert back.options == res.options
    assert back.records == res.records
    assert back.to_json() == text


def _infeasible_rows(res, prob, solve_budget=None):
    # the second grid cell of test_group_stats_empty_cell cannot solve
    thetas = res.thetas[:6].copy()
    thetas[3:, prob.headroom_slice()] = -1.0
    out = run_batch(prob, thetas, EngineOptions(solve_budget=solve_budget))
    assert out.counters.infeasible == 3
    return out


def test_json_is_strict(batch, scaled_demo_problem):
    # the first pick is infeasible and spends the budget, so the solved
    # rows are budget rows, whose solutions the file stores
    res = _infeasible_rows(batch, scaled_demo_problem, solve_budget=1)

    def refuse(token):
        raise ValueError(f"{token} is not a JSON value")

    payload = json.loads(res.to_json(), parse_constant=refuse)
    assert "objective" not in payload["columns"]
    # x holds the solved rows without a region only, none of them an
    # unsolved one
    x, rows = float_columns(payload)
    assert rows == np.flatnonzero(res.status == STATUSES.index("budget-exhausted")).tolist()
    assert x.shape == (len(rows), scaled_demo_problem.n_var) and rows
    assert np.isfinite(x).all()
    np.testing.assert_array_equal(x, res.x[rows])


def _negative_zeros(res, prob):
    # the slack sits at rounding level on the stored rows, a budget run's;
    # -0.0 keeps them feasible
    res = run_batch(prob, res.thetas, EngineOptions(solve_budget=2))
    x = res.x.copy()
    tiny = np.abs(x[:, prob.slack_index]) < 1e-15
    tiny &= res.status == STATUSES.index("budget-exhausted")
    assert tiny.any()
    x[tiny, prob.slack_index] = -0.0
    return replace(res, x=x)


@pytest.mark.parametrize(
    "make",
    [lambda res, prob: res, _infeasible_rows, _negative_zeros,
     lambda res, prob: run_batch(prob, res.thetas[:0])],
    ids=["demo", "infeasible", "negative-zero", "empty"],
)
def test_float_columns_roundtrip_bit_for_bit(batch, scaled_demo_problem, make):
    # byte equality also keeps the sign of a stored -0.0
    _assert_roundtrip(make(batch, scaled_demo_problem))


def test_json_roundtrip_rejects_mismatches(batch, scaled_demo_problem, demo_feeder):
    text = batch.to_json()
    with pytest.raises(SchemaError):
        load_result_json(text, scaled_demo_problem, batch.thetas[:-1])
    with pytest.raises(SchemaError):
        load_result_json("not json", scaled_demo_problem, batch.thetas)
    with pytest.raises(SchemaError):
        load_result_json("{}", scaled_demo_problem, batch.thetas)
    # a differently built problem scales differently and must be refused
    other = scale_problem(build_problem(demo_feeder, BuilderConfig(beta=0.8)))[0]
    with pytest.raises(SchemaError):
        load_result_json(text, other, batch.thetas)
    # solutions are required to rehydrate
    payload = json.loads(text)
    del payload["columns"]["x"]
    with pytest.raises(SchemaError):
        load_result_json(json.dumps(payload), scaled_demo_problem, batch.thetas)
    # and so is the column format: a per-record file is refused
    payload = json.loads(text)
    payload["records"] = [{"index": 0, "status": "direct"}]
    del payload["columns"], payload["direct_signatures"]
    with pytest.raises(SchemaError):
        load_result_json(json.dumps(payload), scaled_demo_problem, batch.thetas)
    # and so is the scaled problem
    unscaled = build_problem(demo_feeder, BuilderConfig())
    with pytest.raises(SchemaError):
        load_result_json(text, unscaled, batch.thetas)


def test_validate_batch(batch):
    report = validate_batch(batch, indices=np.arange(30))
    assert report.ok
    assert report.checked == 30
    assert report.max_dx < 1e-8
    assert report.max_rel_objective_gap < 1e-10


def test_oracle_solutions_validate_exactly(batch):
    # the stored rows' objectives and the oracle's come from one formula,
    # QpMatrices.objective, so the oracle's own solutions show no gap
    prob = batch.problem
    m = prob.A.shape[0]
    c, rhs = prob.instance_data(batch.thetas)
    oracle = solve_qp_batch(QpMatrices(prob.H, prob.A, prob.B), c, rhs[:, :m], rhs[:, m:])
    report = validate_batch(replace(batch, x=oracle.x))
    assert report.ok and report.checked == len(batch.thetas)
    assert report.max_dx == 0.0 and report.max_rel_objective_gap == 0.0


def test_validate_batch_catches_corruption(scaled_demo_problem, small_theta_set):
    res = run_batch(scaled_demo_problem, small_theta_set.thetas[:20])
    res.x[5] = res.x[5] + 1e-3
    report = validate_batch(res, indices=np.arange(10))
    assert not report.ok
    assert 5 in report.mismatches
    assert report.max_dx >= 1e-3


def test_validate_batch_flags_nan_solution(scaled_demo_problem, small_theta_set):
    res = run_batch(scaled_demo_problem, small_theta_set.thetas[:10])
    assert res.solved_mask()[3]
    res.x[3, 3] = np.nan
    report = validate_batch(res, indices=np.arange(5))
    assert report.mismatches == (3,)


def test_validate_batch_crosses_blocks(
    scaled_demo_problem, demo_problem, demo_scenarios, caplog, monkeypatch
):
    # stacks of 256, so the 600 instances take three
    monkeypatch.setattr(engine_mod, "VALIDATE_BLOCK", 256)
    grid = AnalysisGrid(kappa=(1.0, 1.25, 1.5, 2.0), oversize=(1.0, 1.15), alpha=(0.24, 0.48))
    thetas = expand_grid(demo_problem, demo_scenarios, grid).thetas
    res = run_batch(scaled_demo_problem, thetas)
    indices = np.flatnonzero(res.solved_mask())[:600]
    assert indices.size == 600
    # position 520 lies in the third block of the stacked oracle
    assert 2 * engine_mod.VALIDATE_BLOCK <= 520 < 3 * engine_mod.VALIDATE_BLOCK
    bad = int(indices[520])
    res.x[bad] = res.x[bad] + 1e-3
    with caplog.at_level("DEBUG", logger="phca.engine"):
        report = validate_batch(res, indices=indices)
    assert report.checked == 600
    assert report.mismatches == (bad,)
    assert report.max_dx >= 1e-3
    blocks = [r for r in caplog.records if r.getMessage().startswith("validate block:")]
    assert len(blocks) == 3


def test_solver_set_up_once_per_problem(scaled_demo_problem, demo_problem, demo_scenarios,
                                        monkeypatch):
    # every direct solve of a batch shares one QpMatrices, and so does
    # every stack of the oracle
    grid = AnalysisGrid(kappa=(1.0, 1.25, 1.5, 2.0), oversize=(1.0, 1.15), alpha=(0.24, 0.48))
    thetas = expand_grid(demo_problem, demo_scenarios, grid).thetas
    built, solves, stacks = [], [], []
    real_init = QpMatrices.__init__

    def counting_init(self, H, A, Aeq):
        built.append(H is scaled_demo_problem.H)
        real_init(self, H, A, Aeq)

    real_solve, real_batch = engine_mod.solve_qp, engine_mod.solve_qp_batch
    monkeypatch.setattr(QpMatrices, "__init__", counting_init)
    monkeypatch.setattr(engine_mod, "solve_qp",
                        lambda *a, **kw: solves.append(1) or real_solve(*a, **kw))
    monkeypatch.setattr(engine_mod, "solve_qp_batch",
                        lambda *a, **kw: stacks.append(1) or real_batch(*a, **kw))
    res = run_batch(scaled_demo_problem, thetas)
    assert len(solves) >= 3 and built == [True]
    built.clear()
    monkeypatch.setattr(engine_mod, "VALIDATE_BLOCK", 256)
    report = validate_batch(res, indices=np.flatnonzero(res.solved_mask())[:600])
    assert report.ok and len(stacks) == 3 and built == [True]


def test_abort_after_repeated_failures(scaled_demo_problem, small_theta_set, monkeypatch):
    class Broken:
        status = "numerical-failure"
        warm, factorizations, iterations, exit = False, 0, 0, "stall"

    monkeypatch.setattr(engine_mod, "solve_qp", lambda *args, **kwargs: Broken())
    monkeypatch.setattr(engine_mod, "MAX_FAILURES", 3)
    with pytest.raises(AbortError):
        run_batch(scaled_demo_problem, small_theta_set.thetas[:10])


def test_reuse_holds_on_random_feeder(random_feeder_batch):
    prob, thetas = random_feeder_batch
    res = run_batch(prob, thetas)
    c = res.counters
    assert c.failed == 0
    assert c.qp_solves <= 0.05 * c.n_instances
    report = validate_batch(res)
    assert report.checked == int(res.solved_mask().sum()) > 0.9 * c.n_instances
    assert report.mismatches == ()


def test_theta_shape_rejected(scaled_demo_problem):
    with pytest.raises(DimensionError):
        run_batch(scaled_demo_problem, np.zeros((5, 3)))


def test_options_validation():
    assert [f.name for f in fields(EngineOptions)] == ["seed", "solve_budget"]
    for bad in ({"solve_budget": 0}, {"solve_budget": -4}, {"solve_budget": 2.0},
                {"solve_budget": True}, {"seed": "abc"}, {"seed": 1.5}, {"seed": False},
                {"seed": -1}):
        with pytest.raises(ValueError):
            EngineOptions(**bad).validate()
    EngineOptions(seed=None, solve_budget=None).validate()
    EngineOptions(seed=np.int64(3), solve_budget=np.int64(1)).validate()


@pytest.mark.parametrize(
    "options, stored",
    [
        (EngineOptions(seed=np.int64(3)), {"seed": 3, "solve_budget": None}),
        (EngineOptions(seed=None, solve_budget=np.int32(2)), {"seed": None, "solve_budget": 2}),
    ],
    ids=["int64-seed", "int32-budget"],
)
def test_numpy_integer_options_roundtrip(batch, small_theta_set, demo_feeder, options, stored):
    # validate accepts numpy integers, so the results file must write them
    res = run_batch(batch.problem, batch.thetas, options)
    text = _assert_roundtrip(res, small_theta_set, demo_feeder)
    assert json.loads(text)["options"] == stored


@pytest.mark.parametrize("options", [{"seed": "abc"}, {"seed": True}, {"solve_budget": -4},
                                     {"solve_budget": "2"}, {"seed": "abc", "solve_budget": -4}])
def test_json_roundtrip_rejects_bad_option_values(batch, scaled_demo_problem, options):
    payload = json.loads(batch.to_json())
    payload["options"].update(options)
    with pytest.raises(SchemaError, match="engine option"):
        load_result_json(json.dumps(payload), scaled_demo_problem, batch.thetas)


def test_ldc_batch_matches_oracle(scaled_ldc_problem, small_theta_set):
    # line-drop compensation: the regulator's equality row also sees the
    # reactive setpoint
    res = run_batch(scaled_ldc_problem, small_theta_set.thetas)
    solved = res.solved_mask()
    assert solved.all() and res.counters.reuse > 0
    report = validate_batch(res)
    assert report.checked == solved.sum()
    assert report.mismatches == () and report.ok


@pytest.mark.parametrize(
    "regulator",
    ["0 1 remote - - - -", "0 1 local 1.00 - - -", "0 1 ldc 1.00 - 0.02 0.01"],
    ids=["remote", "local", "ldc"],
)
def test_regulator_fed_by_the_substation_matches_oracle(regulator):
    # a regulator whose input is the substation bus reads its input voltage
    # off v0, not off a row of the voltage map
    feeder = load_feeder(demo.FEEDER_TEXT + regulator + "\n")
    prob = build_problem(feeder, BuilderConfig(beta=0.2, vmin=0.97, vmax=1.03))
    scaled = scale_problem(prob.with_eta(ETA_FLOOR))[0]
    scen = load_scenarios(feeder, demo.loads_csv(days=2), demo.solar_csv(days=2), seed=0)
    grid = AnalysisGrid(kappa=(1.0, 2.0), oversize=(1.0,), alpha=(0.24, 0.48))
    res = run_batch(scaled, expand_grid(scaled, scen, grid).thetas)
    solved = res.solved_mask()
    report = validate_batch(res)
    assert report.checked == solved.sum() > 0
    assert report.mismatches == ()
    if regulator.split()[2] == "remote":
        ratio = recover_ratios(res, feeder)["0-1"][solved]
        assert np.isfinite(ratio).all()


def _columns(res):
    """Everything a batch result holds, for bit-for-bit comparison."""
    arrays = {name: a.tobytes() for name, a in _arrays(res).items()}
    return arrays, res.regions, res.direct_signatures, res.screened_out


@pytest.mark.parametrize("case", ["demo", "random-feeder", "ldc", "budget"])
def test_warm_starts_match_cold_reference(case, request, monkeypatch):
    # every direct solve after the first region warm-starts from that
    # region's active set; with the start dropped the batch is solved cold,
    # and both must give the same columns bit for bit
    if case == "random-feeder":
        prob, thetas = request.getfixturevalue("random_feeder_batch")
    else:
        prob = request.getfixturevalue("scaled_ldc_problem" if case == "ldc" else "scaled_demo_problem")
        thetas = request.getfixturevalue("small_theta_set").thetas
    options = EngineOptions(solve_budget=2 if case == "budget" else None)
    real = engine_mod.solve_qp

    def run(drop_start):
        warm = []

        def solve(*args, start=None):
            sol = real(*args, start=None if drop_start else start)
            warm.append(sol.warm)
            return sol

        monkeypatch.setattr(engine_mod, "solve_qp", solve)
        return run_batch(prob, thetas, options), warm

    res, warm = run(False)
    ref, cold = run(True)
    assert _columns(res) == _columns(ref)
    assert not any(cold) and warm[0] is False
    assert any(warm)


def test_one_debug_line_per_direct_solve(scaled_demo_problem, small_theta_set, caplog):
    with caplog.at_level("DEBUG", logger="phca.engine"):
        res = run_batch(scaled_demo_problem, small_theta_set.thetas, EngineOptions(solve_budget=2))
    lines = [r.getMessage() for r in caplog.records if " solve, " in r.getMessage()]
    assert len(lines) == res.counters.qp_solves > 2
    assert " cold solve, " in lines[0] and lines[0].endswith(", exit converged")
    assert all(" warm solve, " in line and "0 IPM iterations, exit none" in line for line in lines[1:])


@pytest.mark.parametrize("case", ["demo", "random-feeder", "budget", "every"])
def test_rows_with_a_region_hold_its_map(case, request, monkeypatch):
    # seed included, every row with a region is its region's map over the
    # region's rows in index order, bit for bit, whatever the solver's point
    if case == "random-feeder":
        prob, thetas = request.getfixturevalue("random_feeder_batch")
        res = run_batch(prob, thetas)
    else:
        prob = request.getfixturevalue("scaled_demo_problem")
        theta_set = request.getfixturevalue("small_theta_set")
        if case == "every":
            res = _every_outcome(prob, theta_set, monkeypatch)
        else:
            res = run_batch(prob, theta_set.thetas,
                            EngineOptions(solve_budget=2 if case == "budget" else None))
    ctx = RegionContext(prob)
    _, xu, rhs = ctx.instance_data(res.thetas)
    seed = res.status == STATUSES.index("seed")
    for k, sig in enumerate(res.regions):
        rows = np.flatnonzero(res.region_id == k)
        assert seed[rows].sum() == 1
        mapped = ctx.build_region(sig).batch_solutions(xu[rows], rhs[rows])
        assert mapped.tobytes() == res.x[rows].tobytes()
    # the file stores x for the solved rows without a region and no others
    stored = base64.b64decode(json.loads(res.to_json())["columns"]["x"])
    without = res.solved_mask() & (res.region_id == -1)
    assert stored == res.x[without].tobytes()
    assert without.any() == (case in ("budget", "every"))


def test_json_roundtrip_refuses_another_slack_price(batch, demo_problem):
    # the mapped rows depend on eta, which the file records in original units
    text = batch.to_json()
    assert json.loads(text)["eta"] == pytest.approx(ETA_FLOOR, rel=1e-12)
    for eta in (0.5, 5.0, 100.0):
        other = scale_problem(demo_problem.with_eta(eta))[0]
        assert other.scaling == batch.problem.scaling
        with pytest.raises(SchemaError, match=r"different slack price \(eta 0\.01 in the file, "):
            load_result_json(text, other, batch.thetas)
    for bad in (None, True, "0.01"):
        payload = json.loads(text)
        payload["eta"] = bad
        with pytest.raises(SchemaError, match="different slack price"):
            load_result_json(json.dumps(payload), batch.problem, batch.thetas)


def _oracle_mismatches(feeder_text, loads, solar, config, grid, scenario_seed, eta=None):
    """The rows of a seeded batch (engine seed 0) that the oracle refuses,
    every solved row checked.  eta None calibrates it on 32 evenly spaced
    instances, as phca run does."""
    feeder = load_feeder(feeder_text)
    prob = build_problem(feeder, config)
    theta_set = expand_grid(prob, load_scenarios(feeder, loads, solar, seed=scenario_seed), grid)
    n = len(theta_set)
    if eta is None:
        sample = theta_set.thetas[np.linspace(0, n - 1, 32).astype(int)]
        eta = max(calibrate_eta(prob, sample), ETA_FLOOR)
    res = run_batch(scale_problem(prob.with_eta(eta))[0], theta_set.thetas, EngineOptions(seed=0))
    report = validate_batch(res)
    assert report.checked == n
    return report.mismatches


def test_certification_scales_with_sensitivity_on_a_123_bus_feeder():
    # the optimum of rows 1512, 1518, 2232 and 2238 swaps row 40 for row
    # 44; with the absolute bounds alone, the served points violated row
    # 44 by 9.6e-9 and lay 1.01e-6 from the oracle's solutions
    workloads = bench_workloads()
    params = dict(workloads.FEEDER80, n_bus=123, parent_window=6, n_inverters=20,
                  load_peak_range=(0.006, 0.018))
    text = workloads.feeder80_text(params)
    loads, solar = workloads._profiles(text, 30, np.random.default_rng(5))
    grid = AnalysisGrid(kappa=(1.0, 1.5), oversize=(1.0, 1.15), alpha=(0.24, 0.48))
    assert _oracle_mismatches(text, loads, solar, BuilderConfig(), grid, 1) == ()


def test_certification_scales_with_sensitivity_at_beta_0():
    # at beta = 0 the cost's eigenvalues span 4e-8 to 1: with the absolute
    # bounds alone, 10 of these 576 served points lay up to 3.1e-3 away
    grid = AnalysisGrid(kappa=(1.0, 1.5, 2.0), oversize=(1.0, 1.15), alpha=(0.24, 0.48))
    assert _oracle_mismatches(
        demo.FEEDER_TEXT, demo.loads_csv(days=2), demo.solar_csv(days=2),
        BuilderConfig(beta=0.0), grid, 0, eta=ETA_FLOOR,
    ) == ()
