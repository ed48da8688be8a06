"""Acceptance gate: the eight end-to-end guarantees the package ships under.

Each test prints one visible PASS/FAIL line with the measured numbers
(bypassing capture), then asserts, so a full run always shows the whole
scorecard in the terminal.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import feasible_lp
from helpers import Instance, approximation_error_sweep, soft_violations
from scipy.optimize import linprog

from phca import (
    ETA_FLOOR,
    AnalysisGrid,
    BuilderConfig,
    EngineOptions,
    build_problem,
    calibrate_eta,
    demo,
    expand_grid,
    load_feeder,
    load_scenarios,
    run_batch,
    scale_problem,
    theta_map_batch,
    validate_batch,
)
from phca.cli import main
from phca.engine import STATUSES, VALIDATE_DX_TOL, VALIDATE_OBJ_TOL
from phca.qp import OPTIMAL, QpMatrices, solve_qp_batch
from phca.regions import RegionContext


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def study():
    """The reference study: 30 days of hourly scenarios crossed with a
    4 x 2 x 2 analysis grid, slack price calibrated from the data."""
    feeder = load_feeder(demo.FEEDER_TEXT)
    scen = load_scenarios(feeder, demo.loads_csv(days=30), demo.solar_csv(days=30), seed=0)
    prob = build_problem(feeder, BuilderConfig())
    grid = AnalysisGrid(
        kappa=(1.0, 1.25, 1.5, 2.0), oversize=(1.0, 1.15), alpha=(0.24, 0.48)
    )
    thetas = expand_grid(prob, scen, grid)
    n = len(thetas)
    sample = thetas.thetas[np.linspace(0, n - 1, 32).astype(int)]
    eta = max(calibrate_eta(prob, sample), ETA_FLOOR)
    scaled, _ = scale_problem(prob.with_eta(eta))
    t0 = time.perf_counter()
    result = run_batch(scaled, thetas.thetas)
    batch_s = time.perf_counter() - t0
    return SimpleNamespace(
        feeder=feeder,
        prob=prob.with_eta(eta),
        scaled=scaled,
        thetas=thetas,
        result=result,
        eta=eta,
        batch_s=batch_s,
    )


def minimal_relaxation_lp(inst, relax):
    """The least t for which A x <= b + t relax, Aeq x = beq has a point:
    one LP over (x, t) that minimizes t."""
    n = inst.A.shape[1]
    res = linprog(
        c=np.r_[np.zeros(n), 1.0],
        A_ub=np.hstack([inst.A, -relax[:, None]]),
        b_ub=inst.b,
        A_eq=np.hstack([inst.Aeq, np.zeros((inst.Aeq.shape[0], 1))]) if inst.Aeq.shape[0] else None,
        b_eq=inst.beq if inst.Aeq.shape[0] else None,
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"minimal-relaxation LP ended with status {res.status}")
    return float(res.x[-1])


def test_oracle_equivalence(study, capsys):
    n = study.result.counters.n_instances
    t0 = time.perf_counter()
    # the line's bounds are the oracle's own
    assert (VALIDATE_DX_TOL, VALIDATE_OBJ_TOL) == (1e-6, 1e-8)
    report = validate_batch(study.result)
    check_s = time.perf_counter() - t0
    total = study.batch_s + check_s
    ok = (
        n >= 5000
        and study.result.solved_mask().all()
        and report.checked == n
        and report.ok
        and total <= 300.0
    )
    verdict(
        capsys,
        "oracle-equivalence",
        ok,
        f"{report.checked}/{n} instances, max dx {report.max_dx:.3e} <= 1e-6, "
        f"max obj gap {report.max_rel_objective_gap:.3e} <= 1e-8, "
        f"batch {study.batch_s:.2f}s + recheck {check_s:.2f}s <= 300s",
    )


def test_region_economy(study, capsys):
    c = study.result.counters
    share = c.qp_solves / c.n_instances
    ok = share <= 0.10
    verdict(
        capsys,
        "region-economy",
        ok,
        f"{c.qp_solves} direct solves / {c.n_instances} instances = "
        f"{100 * share:.3f}% <= 10%, {c.regions_built} regions",
    )


def test_penalty_exactness(study, capsys):
    """Feasible instances: the slack-penalized solve must return the
    hard-constrained answer with zero slack, at the calibrated price."""
    prob = study.scaled
    res = study.result
    s_idx = prob.slack_index
    order = np.flatnonzero(res.solved_mask())
    H, A, B, c, b, beq, _ = prob._slack_free(res.thetas[order])
    # the first 500 solved instances, in order, that the LP finds feasible
    # and the hard solve optimal: each pass stacks as many LP-feasible
    # instances as are still missing and solves them in one call
    picked = np.zeros(0, dtype=np.int64)
    hard_x = np.zeros((0, H.shape[0]))
    pos = 0
    while picked.size < 500 and pos < order.size:
        feasible = []
        while len(feasible) < 500 - picked.size and pos < order.size:
            if feasible_lp(Instance(H, c[pos], A, b[pos], B, beq[pos])):
                feasible.append(pos)
            pos += 1
        hard = solve_qp_batch(QpMatrices(H, A, B), c[feasible], b[feasible], beq[feasible])
        optimal = hard.status == OPTIMAL
        picked = np.concatenate([picked, np.asarray(feasible, dtype=np.int64)[optimal]])
        hard_x = np.vstack([hard_x, hard.x[optimal]])
    checked = picked.size
    x = res.x[order[picked]]
    worst_s = float(np.abs(x[:, s_idx]).max(initial=0.0))
    worst_dx = float(np.abs(np.delete(x, s_idx, axis=1) - hard_x).max(initial=0.0))
    ok = checked >= 500 and worst_s <= 1e-8 and worst_dx <= 1e-6
    verdict(
        capsys,
        "penalty-exactness",
        ok,
        f"{checked} verified-feasible instances, eta {study.eta:g} from "
        f"calibration, max slack {worst_s:.3e} <= 1e-8, "
        f"max dx vs hard solve {worst_dx:.3e} <= 1e-6",
    )


def test_minimal_relaxation(study, capsys):
    """Infeasible instances: the returned slack must equal the smallest
    uniform soft-row relaxation that restores feasibility."""
    prob = study.prob  # original units
    nu = prob.H[prob.slack_index, prob.slack_index] / 2.0
    keep = [i for i in range(prob.n_var) if i != prob.slack_index]
    lam_max = float(np.linalg.eigvalsh(prob.H[np.ix_(keep, keep)])[-1])
    assert nu >= lam_max - 1e-12

    scen = load_scenarios(
        study.feeder, demo.loads_csv(days=5), demo.solar_csv(days=5), seed=0
    )
    thetas = theta_map_batch(
        prob, scen.pc, scen.qc, scen.pg, alpha=0.12, kappa=5.0, oversize=1.0
    )
    res = run_batch(study.scaled, thetas)
    s = res.x[:, prob.slack_index]
    relaxed = np.flatnonzero(res.solved_mask() & (s > 1e-6))

    H, A, B, c, b, beq, soft = prob._slack_free(thetas[relaxed[:60]])
    worst = 0.0
    n_checked = 0
    for j, i in enumerate(relaxed[:60]):
        inst = Instance(H, c[j], A, b[j], B, beq[j])
        assert not feasible_lp(inst)  # truly infeasible without relief
        relax = np.zeros(inst.b.shape)
        relax[soft] = 1.0
        s_min = minimal_relaxation_lp(inst, relax)
        worst = max(worst, abs(float(s[i]) - s_min))
        n_checked += 1
    ok = len(relaxed) >= 50 and n_checked >= 50 and worst <= 1e-6
    verdict(
        capsys,
        "minimal-relaxation",
        ok,
        f"{len(relaxed)} infeasible instances (need >= 50), nu {nu:.4f} >= "
        f"lam_max {lam_max:.4f}, {n_checked} minimal-relaxation LPs, "
        f"max |s - s_min| {worst:.3e} <= 1e-6",
    )


def test_multiplier_soundness(study, capsys):
    """Every reused row re-certifies against the full optimality system."""
    prob = study.scaled
    res = study.result
    ctx = RegionContext(prob)
    _, xu, rhs = ctx.instance_data(res.thetas)
    n_rows = prob.A.shape[0]
    reuse = res.status == STATUSES.index("reuse")
    worst_lam = 0.0
    worst_stat = 0.0
    worst_slack = 0.0
    n_reuse = 0
    for rid, sig in enumerate(res.regions):
        rows = np.flatnonzero(reuse & (res.region_id == rid))
        if not rows.size:
            continue
        region = ctx.build_region(sig)
        act = list(region.active_set)
        inact = np.setdiff1d(np.arange(n_rows), act)
        th = res.thetas[rows]
        xs = res.x[rows]
        n_reuse += rows.size
        mult = region.multipliers(xu[rows], rhs[rows])
        lam_act, mu = mult[:, : len(act)], mult[:, len(act) :]
        worst_lam = max(worst_lam, float(-lam_act.min(initial=0.0)))
        grad = xs @ prob.H + th @ prob.C.T + prob.d + lam_act @ prob.A[act] + mu @ prob.B
        worst_stat = max(worst_stat, float(np.max(np.abs(grad))))
        resid = xs @ prob.A[inact].T - th @ prob.E[inact].T - prob.b[inact]
        worst_slack = max(worst_slack, float(resid.max()))
    ok = (
        n_reuse == study.result.counters.reuse
        and worst_lam <= 1e-8
        and worst_stat <= 1e-6
        and worst_slack <= 1e-4
    )
    verdict(
        capsys,
        "multiplier-soundness",
        ok,
        f"{n_reuse} reused rows: min multiplier >= -{worst_lam:.3e} (tol 1e-8), "
        f"max stationarity {worst_stat:.3e} <= 1e-6, "
        f"inactive slack >= -{worst_slack:.3e} (tol 1e-4)",
    )


def test_model_error_orders(study, capsys):
    rng = np.random.default_rng(7)
    n = study.feeder.n_bus - 1
    p = -rng.uniform(0.03, 0.15, n)  # net consumption, well under 0.3 pu
    q = 0.4 * p
    assert float(np.max(np.abs(p))) <= 0.3
    out = approximation_error_sweep(study.feeder, p, q, scales=(1.0, 0.5, 0.25))
    v_ord = out["voltage_order"]
    l_ord = out["loss_order"]
    ok = 1.8 <= v_ord <= 2.2 and 2.7 <= l_ord <= 3.3
    verdict(
        capsys,
        "model-error-orders",
        ok,
        f"voltage order {v_ord:.3f} in [1.8, 2.2], "
        f"loss order {l_ord:.3f} in [2.7, 3.3], scales (1, 1/2, 1/4)",
    )


def test_determinism(study, capsys, tmp_path):
    # identical inputs, identical bytes
    d = tmp_path / "case"
    assert main(["demo", "--out", str(d), "--days", "3"]) == 0
    args = [
        "run",
        "--feeder", str(d / "feeder.txt"),
        "--loads", str(d / "loads.csv"),
        "--solar", str(d / "solar.csv"),
        "--config", str(d / "config.ini"),
        "--kappa", "1.0,2.0",
        "--alpha", "0.24,0.48",
    ]
    outs = []
    for tag in ("a", "b"):
        res = d / f"{tag}.json"
        rep = d / f"{tag}.txt"
        jrep = d / f"{tag}-rep.json"
        assert main(args + ["--out", str(res), "--report", str(rep),
                            "--json-report", str(jrep)]) == 0
        outs.append((res.read_bytes(), rep.read_bytes(), jrep.read_bytes()))
    bytes_equal = outs[0] == outs[1]

    # pick order must not change any answer
    seq = run_batch(study.scaled, study.thetas.thetas, EngineOptions(seed=None))
    dx = float(np.max(np.abs(seq.x - study.result.x)))
    ok = bytes_equal and dx <= 1e-8
    verdict(
        capsys,
        "determinism",
        ok,
        f"repeated run byte-identical: {bytes_equal}; "
        f"random vs sequential max dx {dx:.3e} <= 1e-8",
    )


def test_violation_bound(study, capsys):
    res = study.result
    _, resid = soft_violations(res)
    gap = np.max(resid, axis=1, initial=-np.inf) - res.x[:, res.problem.slack_index]
    worst = float(np.nanmax(gap))
    ok = worst <= 1e-6
    verdict(
        capsys,
        "violation-bound",
        ok,
        f"max (soft residual - slack) {worst:.3e} <= 1e-6 over "
        f"{study.result.counters.n_instances} instances",
    )
