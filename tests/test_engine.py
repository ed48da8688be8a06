"""Batch driver: reuse correctness, dispatch bookkeeping, serialization."""

import base64
import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from conftest import float_columns

import phca.engine as engine_mod
from phca import (
    ETA_FLOOR,
    AnalysisGrid,
    EngineOptions,
    build_problem,
    expand_grid,
    load_result_json,
    run_batch,
    scale_problem,
    solve_qp,
    validate_batch,
)
from phca.builder import BuilderConfig
from phca.engine import REASONS, STATUS_REASONS, STATUSES
from phca.errors import AbortError, DimensionError, RankDeficientKError, SchemaError
from phca.qp import OPTIMAL
from phca.regions import SCREEN_DUAL, SCREEN_PRIMAL, RegionContext
from phca.stats import json_report, render_report


@pytest.fixture(scope="module")
def batch(scaled_demo_problem, small_theta_set):
    return run_batch(scaled_demo_problem, small_theta_set.thetas)


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
        sol = solve_qp(prob.instance(theta), tol=1e-10)
        assert sol.status == OPTIMAL
        worst = max(worst, float(np.max(np.abs(sol.x - batch.x[i]))))
    assert worst < 1e-8


def test_reuse_dominates_direct(batch):
    c = batch.counters
    assert c.qp_solves < 0.1 * c.n_instances
    assert c.reuse > 0.9 * c.n_instances
    assert c.qp_solves == c.seeds + c.degenerate + c.stragglers + c.infeasible + c.failed
    assert c.regions_built == len(batch.regions) == c.seeds


def _every_outcome(prob, theta_set, monkeypatch):
    """A batch with every status and reason but failed: the first region
    build is forced to fail as rank deficient, two rows are infeasible, and
    a budget of two attempts leaves stragglers behind the one region built."""
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
        engine_mod, "solve_qp", lambda inst, **kwargs: solves.append(1) or real(inst, **kwargs)
    )
    res = _every_outcome(scaled_demo_problem, small_theta_set, monkeypatch)
    n = len(res.thetas)
    statuses = [STATUSES[k] for k in res.status]
    reasons = [REASONS[k] for k in res.reason]
    assert asdict(res.counters) == {
        "n_instances": n,
        "qp_solves": len(solves),
        "regions_built": len(res.regions),
        "reuse": statuses.count("reuse"),
        "seeds": reasons.count("seed"),
        "screened_out": res.screened_out,
        "degenerate": statuses.count("degenerate-direct"),
        "stragglers": reasons.count("budget-exhausted"),
        "infeasible": 2,
        "failed": 0,
    }
    assert res.counters.stragglers > 0 and res.counters.degenerate == 1
    # each region has one seed, solved directly, and serves only reuse rows
    for rid, sig in enumerate(res.regions):
        rows = [i for i in range(n) if res.region_id[i] == rid]
        seeds = [i for i in rows if reasons[i] == "seed"]
        assert len(seeds) == 1 and statuses[seeds[0]] == "direct"
        assert seeds[0] not in res.direct_signatures
        assert all(statuses[i] == "reuse" for i in rows if i != seeds[0])
        assert list(sig) == sorted(set(sig))
    # every reused row names a region of the census
    reuse = res.status == STATUSES.index("reuse")
    assert ((res.region_id[reuse] >= 0) & (res.region_id[reuse] < len(res.regions))).all()


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
    assert batch.objectives[i] == pytest.approx(
        orig.objective(batch.x[i], batch.thetas[i]), rel=1e-9, abs=1e-12
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
    for i in range(10):
        expect = "infeasible" if i in bad else None
        if expect:
            rec = res.record_for(i)
            assert rec.status == "infeasible"
            assert np.all(np.isnan(res.x[i]))
            assert np.isnan(res.objectives[i])
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
    for name in ("status", "reason", "region_id", "x", "objectives"):
        np.testing.assert_array_equal(getattr(small, name), getattr(batch, name))
    assert small.regions == batch.regions
    assert small.direct_signatures == batch.direct_signatures
    assert small.counters == batch.counters


def test_budget_falls_back_to_direct(scaled_demo_problem, small_theta_set):
    thetas = small_theta_set.thetas[:40]
    res = run_batch(scaled_demo_problem, thetas, EngineOptions(solve_budget=1))
    assert res.solved_mask().all()
    assert res.counters.regions_built <= 1
    straggler_recs = [r for r in res.records if r.reason == "budget-exhausted"]
    assert len(straggler_recs) == res.counters.stragglers
    if res.counters.regions_built == 1:
        assert res.counters.stragglers == 40 - 1 - res.counters.reuse
    # budgeted runs still agree with the unbudgeted ones
    free = run_batch(scaled_demo_problem, thetas)
    assert np.max(np.abs(res.x - free.x)) < 1e-8


def test_budget_signatures_are_cold_positive_multipliers(random_feeder_batch):
    # a budget row's signature comes off its (warm) solve's multipliers, as
    # every other direct solve's does; an independent cold solve of the row
    # has the same positive multipliers
    prob, thetas = random_feeder_batch
    res = run_batch(prob, thetas, EngineOptions(seed=3, solve_budget=3))
    rows = np.flatnonzero(res.reason == REASONS.index("budget-exhausted"))
    assert rows.size > 100
    for i in rows:
        sol = solve_qp(prob.instance(thetas[i]))
        assert sol.status == OPTIMAL
        cutoff = engine_mod.ACTIVE_LAM_REL * max(1.0, sol.lam.max())
        assert res.direct_signatures[i] == tuple(np.flatnonzero(sol.lam > cutoff).tolist())


def _assert_roundtrip(res, theta_set=None, feeder=None):
    """load_result_json(res.to_json()) equals res bit for bit, and so do
    its two reports when a theta set and feeder are given."""
    text = res.to_json()
    back = load_result_json(text, res.problem, res.thetas)
    for name in ("x", "objectives", "status", "reason", "region_id"):
        got, want = getattr(back, name), getattr(res, name)
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


def _with_failed_rows(prob, theta_set, monkeypatch):
    """_every_outcome with its third direct solve, a budget straggler's,
    failing numerically."""

    class Broken:
        status = "numerical-failure"
        warm, factorizations, iterations, exit = False, 0, 0, "stall"

    real, calls = engine_mod.solve_qp, []

    def third_fails(inst, **kwargs):
        calls.append(inst)
        return Broken() if len(calls) == 3 else real(inst, **kwargs)

    monkeypatch.setattr(engine_mod, "solve_qp", third_fails)
    return _every_outcome(prob, theta_set, monkeypatch)


def test_json_roundtrip(batch, small_theta_set, demo_feeder):
    # every row has a region, so the file stores no solution at all
    text = _assert_roundtrip(batch, small_theta_set, demo_feeder)
    assert json.loads(text)["columns"]["x"] == ""
    assert batch.counters.seeds == 3 and batch.counters.qp_solves == 3


def test_json_roundtrip_random_feeder(random_feeder_batch):
    prob, thetas = random_feeder_batch
    res = run_batch(prob, thetas)
    assert res.counters.reuse > 0
    _assert_roundtrip(res)


def test_json_roundtrip_budget_rows(batch, small_theta_set, demo_feeder):
    res = run_batch(batch.problem, batch.thetas, EngineOptions(seed=None, solve_budget=2))
    assert res.counters.stragglers > 0 and res.counters.reuse > 0
    text = _assert_roundtrip(res, small_theta_set, demo_feeder)
    # the budget rows alone are stored
    stored = base64.b64decode(json.loads(text)["columns"]["x"])
    assert len(stored) == 8 * res.counters.stragglers * res.x.shape[1]


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
    for name in ("status", "reason", "region_id", "x", "objectives"):
        np.testing.assert_array_equal(getattr(back, name), getattr(res, name))
    assert back.regions == res.regions
    assert back.direct_signatures == res.direct_signatures
    assert back.counters == res.counters
    assert back.options == res.options
    assert back.records == res.records
    assert back.to_json() == text


def test_loader_refuses_pairs_no_run_writes(scaled_demo_problem, small_theta_set, monkeypatch):
    res = _every_outcome(scaled_demo_problem, small_theta_set, monkeypatch)
    written = {(STATUSES[s], REASONS[r]) for s, r in zip(res.status, res.reason)}
    assert all(why in STATUS_REASONS[st] for st, why in written)
    payload = json.loads(res.to_json())
    cols = payload["columns"]
    seed_row = cols["reason"].index("seed")
    reuse_row = cols["status"].index("reuse")
    plain_row = cols["status"].index("infeasible")
    refused = [(st, why) for st in STATUSES for why in REASONS if why not in STATUS_REASONS[st]]
    assert len(refused) == len(STATUSES) * len(REASONS) - 7
    for st, why in refused:
        # a row whose region id and seed count stay valid under the change
        i = seed_row if why == "seed" else reuse_row if st == "reuse" else plain_row
        bad = json.loads(json.dumps(payload))
        bad["columns"]["status"][i], bad["columns"]["reason"][i] = st, why
        with pytest.raises(SchemaError, match=f"row {i} has status '{st}' with reason "):
            load_result_json(json.dumps(bad), scaled_demo_problem, res.thetas)


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
    assert rows == np.flatnonzero(res.reason == REASONS.index("budget-exhausted")).tolist()
    assert x.shape == (len(rows), scaled_demo_problem.n_var) and rows
    assert np.isfinite(x).all()
    np.testing.assert_array_equal(x, res.x[rows])


def _negative_zeros(res, prob):
    # the slack sits at rounding level on the stored rows, a budget run's;
    # -0.0 keeps them feasible
    res = run_batch(prob, res.thetas, EngineOptions(solve_budget=2))
    x = res.x.copy()
    tiny = np.abs(x[:, prob.slack_index]) < 1e-15
    tiny &= res.reason == REASONS.index("budget-exhausted")
    assert tiny.any()
    x[tiny, prob.slack_index] = -0.0
    c, _ = prob.instance_data(res.thetas)
    return replace(res, x=x, objectives=engine_mod._objectives(prob, c, x))


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


def test_validate_batch_crosses_blocks(scaled_demo_problem, demo_problem, demo_scenarios, caplog):
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


def test_abort_after_repeated_failures(scaled_demo_problem, small_theta_set, monkeypatch):
    class Broken:
        status = "numerical-failure"
        warm, factorizations, iterations, exit = False, 0, 0, "stall"

    monkeypatch.setattr(engine_mod, "solve_qp", lambda inst, **kwargs: Broken())
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


def _columns(res):
    """Everything a batch result holds, for bit-for-bit comparison."""
    arrays = {name: getattr(res, name).tobytes()
              for name in ("x", "objectives", "status", "reason", "region_id")}
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

        def solve(inst, start=None):
            sol = real(inst) if drop_start else real(inst, start=start)
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
    seed = res.reason == REASONS.index("seed")
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
