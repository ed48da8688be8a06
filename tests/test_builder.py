"""Dispatch problem assembly: layout, row semantics, scaling, calibration."""

import logging
import math
import warnings

import numpy as np
import pytest

from phca import (
    build_problem,
    calibrate_eta,
    dump_problem,
    load_config,
    scale_problem,
    solve_qp,
    theta_map_batch,
)
import phca.builder as builder_mod
from phca.builder import BuilderConfig
from phca.errors import (
    AllInfeasibleError,
    ConfigError,
    DimensionError,
    HeadroomError,
    ModelError,
)
from phca.qp import OPTIMAL, solve_qp_batch

# demo feeder buses in tree order, substation first
BFS_EXT = ("0", "1", "2", "3", "8", "4", "9", "5", "10", "6", "12", "11", "7", "13", "14")

VAR_NAMES = ("qg[6]", "qg[11]", "v0", "vreg[3-4]", "vreg[8-9]", "s")

HEAD_ROWS = [
    "inverter-cap[6].hi:hard",
    "inverter-cap[6].lo:hard",
    "inverter-cap[11].hi:hard",
    "inverter-cap[11].lo:hard",
    "remote-reg[3-4].lo:hard",
    "remote-reg[3-4].hi:hard",
    "reg-input[8-9].hi:soft",
    "reg-input[8-9].lo:soft",
]


def expected_row_labels():
    rows = list(HEAD_ROWS)
    for ext in BFS_EXT[1:]:
        rows.append(f"voltage-hi[{ext}].hi:soft")
        rows.append(f"voltage-lo[{ext}].lo:soft")
    rows.append("slack-nonneg[s].lo:hard")
    return rows


def sample_theta(prob, rng, alpha=0.3, kappa=1.0, oversize=1.0):
    n = prob.n_inj
    pc = np.abs(rng.uniform(0.0, 0.03, n))
    qc = 0.4 * pc
    pg = np.zeros(n)
    pg[8] = 0.08
    pg[10] = 0.06
    return theta_map_batch(prob, pc, qc, pg, alpha=alpha, kappa=kappa, oversize=oversize)[0]


def test_demo_layout(demo_problem):
    prob = demo_problem
    assert prob.n_var == 6
    assert prob.n_theta == 44
    assert prob.n_bus == 15
    assert prob.n_inj == 14
    assert prob.var_names == VAR_NAMES
    assert prob.slack_index == 5
    assert prob.v0_index == 2
    assert prob.vreg_indices == (3, 4)
    assert prob.der_buses == (9, 11)
    assert prob.der_p_rating == (0.1, 0.08)
    assert prob.theta_names[0] == "pc[1]"
    assert prob.theta_names[14] == "qc[1]"
    assert prob.theta_names[28] == "pg[1]"
    assert prob.theta_names[42:] == ("headroom[6]", "headroom[11]")
    assert prob.A.shape == (37, 6)
    assert prob.E.shape == (37, 44)
    assert prob.B.shape == (1, 6)


def test_row_labels_in_tree_order(demo_problem):
    assert [str(lab) for lab in demo_problem.row_labels] == expected_row_labels()
    assert [str(lab) for lab in demo_problem.eq_labels] == ["local-reg-eq[8-9].eq:hard"]


def test_hard_soft_split_and_slack_column(demo_problem):
    prob = demo_problem
    assert prob.soft_rows.tolist() == list(range(6, 36))
    col = prob.A[:, prob.slack_index]
    # every soft row buys relief through -s; the nonnegativity row is -s <= 0
    assert np.all(col[:6] == 0.0)
    assert np.all(col[6:37] == -1.0)
    assert np.all(prob.B[:, prob.slack_index] == 0.0)


def test_cost_curvature(demo_feeder, demo_problem):
    prob = demo_problem
    eigs = np.linalg.eigvalsh(prob.H)
    assert eigs[0] == pytest.approx(0.08863949643622245, rel=1e-10)
    assert eigs[-1] == pytest.approx(5.608139205308629, rel=1e-10)
    # default slack curvature doubles the largest curvature elsewhere
    keep = [i for i in range(prob.n_var) if i != prob.slack_index]
    top = np.linalg.eigvalsh(prob.H[np.ix_(keep, keep)])[-1]
    assert prob.H[prob.slack_index, prob.slack_index] == pytest.approx(2.0 * top, rel=1e-12)
    assert build_problem(demo_feeder, BuilderConfig(nu=7.0)).H[5, 5] == 14.0
    assert prob.eta == 0.0
    assert build_problem(demo_feeder, BuilderConfig(eta=0.5)).eta == 0.5


def test_with_eta(demo_problem):
    prob = demo_problem.with_eta(0.25)
    assert prob.eta == 0.25
    assert demo_problem.eta == 0.0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            demo_problem.with_eta(bad)


def test_voltage_rows_encode_window(demo_problem, rng):
    prob = demo_problem
    th = sample_theta(prob, rng)
    x = rng.normal(size=prob.n_var)
    inst = prob.instance(th)
    v = prob.voltages(x, th)
    s = x[prob.slack_index]
    for bus in range(1, prob.n_bus):
        hi = 8 + 2 * (bus - 1)
        resid_hi = inst.A[hi] @ x - inst.b[hi]
        resid_lo = inst.A[hi + 1] @ x - inst.b[hi + 1]
        assert resid_hi == pytest.approx(v[bus - 1] - 1.03 - s, abs=1e-12)
        assert resid_lo == pytest.approx(0.97 - v[bus - 1] - s, abs=1e-12)


def test_regulator_rows(demo_problem, rng):
    prob = demo_problem
    th = sample_theta(prob, rng)
    x = rng.normal(size=prob.n_var)
    inst = prob.instance(th)
    v = prob.voltages(x, th)
    s = x[prob.slack_index]
    # remote pair 3-4 is internal m=3, n=5; window is 0.9 vm <= vn <= 1.1 vm
    assert inst.A[4] @ x - inst.b[4] == pytest.approx(0.9 * v[2] - v[4], abs=1e-12)
    assert inst.A[5] @ x - inst.b[5] == pytest.approx(v[4] - 1.1 * v[2], abs=1e-12)
    # local 8-9 input window keeps vref +- delta reachable over the tap range
    vin = v[3]
    assert inst.A[6] @ x - inst.b[6] == pytest.approx(
        vin - (1.01 + 0.0083) / 0.9 - s, abs=1e-12
    )
    assert inst.A[7] @ x - inst.b[7] == pytest.approx(
        (1.01 - 0.0083) / 1.1 - vin - s, abs=1e-12
    )
    # local output pinned at vref
    assert inst.Aeq @ x - inst.beq == pytest.approx([v[5] - 1.01], abs=1e-12)


def test_inverter_cap_rows(demo_problem, rng):
    prob = demo_problem
    th = sample_theta(prob, rng)
    x = rng.normal(size=prob.n_var)
    inst = prob.instance(th)
    assert inst.A[0] @ x - inst.b[0] == pytest.approx(x[0] - th[42], abs=1e-14)
    assert inst.A[1] @ x - inst.b[1] == pytest.approx(-x[0] - th[42], abs=1e-14)
    assert inst.A[2] @ x - inst.b[2] == pytest.approx(x[1] - th[43], abs=1e-14)
    assert inst.A[3] @ x - inst.b[3] == pytest.approx(-x[1] - th[43], abs=1e-14)
    assert inst.A[36] @ x - inst.b[36] == pytest.approx(-x[5], abs=1e-14)


def test_theta_map_values(demo_problem):
    prob = demo_problem
    n = prob.n_inj
    pc = np.linspace(0.01, 0.03, n)
    qc = 0.5 * pc
    pg = np.zeros(n)
    pg[8] = 0.08
    pg[10] = 0.06
    th = theta_map_batch(prob, pc, qc, pg, alpha=0.3, kappa=2.0, oversize=1.0)[0]
    assert th[prob.pc_slice()] == pytest.approx(2.0 * pc)
    assert th[prob.qc_slice()] == pytest.approx(2.0 * qc)
    assert th[prob.pg_slice()] == pytest.approx(0.6 * pg)
    assert th[42] == pytest.approx(math.sqrt(0.1**2 - (0.6 * 0.08) ** 2), rel=1e-14)
    assert th[43] == pytest.approx(math.sqrt(0.08**2 - (0.6 * 0.06) ** 2), rel=1e-14)
    batch = theta_map_batch(prob, np.stack([pc, pc]), np.stack([qc, qc]),
                            np.stack([pg, pg]), alpha=0.3, kappa=2.0, oversize=1.0)
    assert batch.shape == (2, 44)
    assert batch[1] == pytest.approx(th)


def test_theta_map_rejects(demo_problem):
    prob = demo_problem
    n = prob.n_inj
    pc = np.full(n, 0.02)
    qc = np.full(n, 0.01)
    pg = np.zeros(n)
    pg[8] = 0.08
    with pytest.raises(ConfigError):
        theta_map_batch(prob, pc, qc, pg, alpha=0.0, kappa=1.0, oversize=1.0)
    with pytest.raises(ConfigError):
        theta_map_batch(prob, pc, qc, pg, alpha=1.5, kappa=1.0, oversize=1.0)
    with pytest.raises(ConfigError):
        theta_map_batch(prob, pc, qc, pg, alpha=0.5, kappa=0.0, oversize=1.0)
    with pytest.raises(ConfigError):
        theta_map_batch(prob, pc, qc, pg, alpha=0.5, kappa=1.0, oversize=0.9)
    with pytest.raises(DimensionError):
        theta_map_batch(prob, pc[:-1], qc[:-1], pg[:-1], alpha=0.5, kappa=1.0, oversize=1.0)
    pg_big = np.zeros(n)
    pg_big[8] = 0.08
    with pytest.raises(HeadroomError):
        # 0.3 * 5 * 0.08 = 0.12 exceeds the 0.1 rating
        theta_map_batch(prob, pc, qc, pg_big, alpha=0.3, kappa=5.0, oversize=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the squared capacity overflows, and so, on top, does the squared
        # generation
        with pytest.raises(ConfigError, match="overflows the parameter vector"):
            theta_map_batch(prob, pc, qc, pg_big, alpha=0.3, kappa=1.0, oversize=1e200)
        with pytest.raises(ConfigError, match="overflows the parameter vector"):
            theta_map_batch(prob, pc, qc, pg_big, alpha=0.3, kappa=1e160, oversize=1e200)


def test_scale_problem_invariance(demo_problem, rng):
    prob = demo_problem.with_eta(1e-2)
    th = sample_theta(prob, rng, alpha=0.5, kappa=1.5, oversize=1.1)
    base = solve_qp(prob.instance(th))
    scaled, record = scale_problem(prob)
    assert record.cost_scale == pytest.approx(5.608139205308629, rel=1e-12)
    assert record.ineq_scale == pytest.approx(5.5677643628300215, rel=1e-12)
    assert record.eq_scale == 1.0
    assert scaled.scaling is record
    sol = solve_qp(scaled.instance(th))
    assert base.status == OPTIMAL and sol.status == OPTIMAL
    assert np.max(np.abs(base.x - sol.x)) < 1e-9
    lam = sol.lam * record.cost_scale / record.ineq_scale
    mu = sol.mu * record.cost_scale / record.eq_scale
    assert np.max(np.abs(base.lam - lam)) < 1e-9
    assert np.max(np.abs(base.mu - mu)) < 1e-9
    with pytest.raises(ModelError):
        scale_problem(scaled)
    with pytest.raises(ModelError):
        scaled.with_eta(1e-3)


def test_reduced_instance_drops_slack(demo_problem, rng):
    prob = demo_problem
    th = sample_theta(prob, rng)
    inst, soft = prob.reduced_instance(th)
    assert inst.A.shape == (36, 5)
    assert inst.H.shape == (5, 5)
    assert soft.tolist() == list(range(6, 36))
    full = prob.instance(th)
    assert inst.b == pytest.approx(full.b[:36])


def test_instance_data_matches_products(scaled_ldc_problem, small_theta_set):
    # the ldc regulator's equality row sees the loads, so F is not zero
    prob = scaled_ldc_problem
    m, n_eq = prob.A.shape[0], prob.B.shape[0]
    assert n_eq >= 1 and np.abs(prob.F).max() > 0
    thetas = small_theta_set.thetas[::7]
    soft = prob.soft_rows
    c, rhs = prob.instance_data(thetas)
    part = prob.right_hand_sides(thetas, soft)
    assert c.shape == (len(thetas), prob.n_var) and rhs.shape == (len(thetas), m + n_eq)
    assert part.shape == (len(thetas), soft.size + n_eq)
    for k, th in enumerate(thetas):
        inst = prob.instance(th)
        for got, want in (
            (c[k], prob.C @ th + prob.d),
            (rhs[k, :m], prob.E @ th + prob.b),
            (rhs[k, m:], prob.F @ th + prob.f),
            (part[k], np.concatenate([prob.E[soft] @ th + prob.b[soft], prob.F @ th + prob.f])),
            (np.concatenate([inst.c, inst.b, inst.beq]), np.concatenate([c[k], rhs[k]])),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def _stacked_rhs(prob, thetas, rows):
    # right_hand_sides as it once was: both blocks formed, then the
    # inequality block sliced off
    E, b = prob.E[rows], prob.b[rows]
    m = b.size
    rhs = np.empty((thetas.shape[0], m + prob.f.size))
    np.matmul(thetas, E.T, out=rhs[:, :m])
    np.matmul(thetas, prob.F.T, out=rhs[:, m:])
    rhs += np.concatenate([b, prob.f])
    return rhs


def test_inequality_rhs_is_the_inequality_block(scaled_ldc_problem, small_theta_set):
    prob = scaled_ldc_problem
    assert prob.f.size >= 1 and np.abs(prob.F).max() > 0
    thetas = small_theta_set.thetas
    for rows in (slice(None), prob.soft_rows):
        old = _stacked_rhs(prob, thetas, rows)
        m = prob.b[rows].size
        # the loader's feasibility check reads every row, soft_violations
        # the soft rows: both bit for bit what they read before
        assert prob.inequality_rhs(thetas, rows).tobytes() == old[:, :m].tobytes()
        assert prob.right_hand_sides(thetas, rows).tobytes() == old.tobytes()


def test_calibrate_eta(demo_problem, demo_scenarios):
    prob = demo_problem
    scen = demo_scenarios
    # heavy overload makes the soft rows bind so the multipliers are positive
    thetas = theta_map_batch(
        prob, scen.pc[:24], scen.qc[:24], scen.pg[:24],
        alpha=0.12, kappa=5.0, oversize=1.0,
    )
    base = calibrate_eta(prob, thetas, margin=1.0)
    assert base > 0.0
    assert calibrate_eta(prob, thetas, margin=10.0) == pytest.approx(10.0 * base, rel=1e-12)


def test_calibrate_eta_warns_once(demo_problem, demo_scenarios, caplog):
    thetas = theta_map_batch(
        demo_problem, demo_scenarios.pc[:4], demo_scenarios.qc[:4], demo_scenarios.pg[:4],
        alpha=0.12, kappa=5.0, oversize=1.0,
    )
    # the same squeeze as below makes half the samples infeasible
    thetas[::2, 42:44] = -0.5
    with caplog.at_level(logging.DEBUG, logger="phca.builder"):
        calibrate_eta(demo_problem, thetas)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert [r.getMessage() for r in warnings] == ["calibration skipped 2 of 4 samples"]


def test_calibrate_eta_skips_forced_infeasible(demo_problem, demo_scenarios, caplog):
    thetas = theta_map_batch(
        demo_problem, demo_scenarios.pc[:24], demo_scenarios.qc[:24], demo_scenarios.pg[:24],
        alpha=0.12, kappa=5.0, oversize=1.0,
    )
    squeezed = thetas.copy()
    squeezed[:, demo_problem.headroom_slice()] = -0.5
    with caplog.at_level(logging.WARNING, logger="phca.builder"):
        eta = calibrate_eta(demo_problem, np.vstack([thetas, squeezed]))
    # 17 of the 24 overloaded hours are infeasible unrelaxed, and all 24
    # squeezed copies are; the value is the one the solver gave before
    # infeasible instances left the interior-point method on a Farkas ray
    assert caplog.messages == ["calibration skipped 41 of 48 samples"]
    assert eta == calibrate_eta(demo_problem, thetas)
    assert eta == pytest.approx(0.039345047021612754, rel=1e-9)


def test_calibrate_eta_all_infeasible(demo_problem):
    bad = np.zeros((3, demo_problem.n_theta))
    bad[:, 42] = -0.5  # negative headroom squeezes the cap rows shut
    bad[:, 43] = -0.5
    with pytest.raises(AllInfeasibleError):
        calibrate_eta(demo_problem, bad)


def overloaded_hours(prob, scen, hours=24):
    """Demo hours overloaded enough that the soft rows bind."""
    return theta_map_batch(
        prob, scen.pc[:hours], scen.qc[:hours], scen.pg[:hours],
        alpha=0.12, kappa=5.0, oversize=1.0,
    )


def scalar_eta(prob, thetas, margin=10.0):
    """calibrate_eta's answer from one solve_qp call per sample."""
    sums = []
    for th in thetas:
        inst, soft = prob.reduced_instance(th)
        sol = solve_qp(inst)
        if sol.status == OPTIMAL:
            sums.append(sol.lam[soft].sum())
    return margin * max(sums)


@pytest.mark.parametrize("sample", ["demo", "random-feeder", "forced-infeasible"])
def test_calibrate_eta_matches_scalar_solves(
    sample, demo_problem, demo_scenarios, random_feeder_case
):
    prob, thetas = demo_problem, overloaded_hours(demo_problem, demo_scenarios)
    if sample == "random-feeder":
        prob, every = random_feeder_case
        thetas = every[np.linspace(0, len(every) - 1, 32).astype(int)]
    elif sample == "forced-infeasible":
        squeezed = thetas[::3].copy()
        squeezed[:, prob.headroom_slice()] = -0.5
        thetas = np.vstack([thetas, squeezed])
    eta = calibrate_eta(prob, thetas)
    assert eta > 0.0
    assert eta == pytest.approx(scalar_eta(prob, thetas), rel=1e-12)


def test_calibrate_eta_one_stacked_solve(demo_problem, demo_scenarios, monkeypatch):
    stacks = []

    def counting(*args, **kwargs):
        stacks.append(args[3].shape[0])
        return solve_qp_batch(*args, **kwargs)

    def unreachable(*args, **kwargs):
        raise AssertionError("calibration made a scalar solve")

    monkeypatch.setattr(builder_mod, "solve_qp_batch", counting)
    monkeypatch.setattr(builder_mod, "solve_qp", unreachable)
    thetas = overloaded_hours(demo_problem, demo_scenarios)
    calibrate_eta(demo_problem, thetas)
    assert stacks == [len(thetas)]


def test_calibrate_eta_refuses_empty_and_wrong_width(demo_problem, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sample reached the solver")

    monkeypatch.setattr(builder_mod, "solve_qp_batch", unreachable)
    n_theta = demo_problem.n_theta
    with pytest.raises(AllInfeasibleError):
        calibrate_eta(demo_problem, np.zeros((0, n_theta)))
    for bad in (np.zeros((3, n_theta + 1)), np.zeros(n_theta - 1), np.zeros((2, 3, n_theta))):
        with pytest.raises(DimensionError):
            calibrate_eta(demo_problem, bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beta": -0.1},
        {"beta": 1.5},
        {"vmin": 1.05, "vmax": 1.03},
        {"vmin": 0.0},
        {"ridge": -1e-9},
        {"beta": 0.0, "ridge": 0.0},
        {"nu": 0.0},
        {"eta": -1.0},
        {"assignments": (("slack-nonneg", "soft"),)},
        {"assignments": (("no-such-family", "hard"),)},
        {"assignments": (("voltage-hi", "sometimes"),)},
        {"nu": math.nan},
        {"ridge": math.inf},
        {"eta": math.nan},
        {"vmax": math.inf},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        BuilderConfig(**kwargs).validate()


def test_assignment_moves_family(demo_feeder):
    cfg = BuilderConfig(assignments=(("voltage-hi", "hard"), ("remote-reg", "soft")))
    prob = build_problem(demo_feeder, cfg)
    labels = [str(lab) for lab in prob.row_labels]
    assert "voltage-hi[1].hi:hard" in labels
    assert "remote-reg[3-4].lo:soft" in labels
    hard_hi = labels.index("voltage-hi[1].hi:hard")
    assert prob.A[hard_hi, prob.slack_index] == 0.0


def test_load_config(tmp_path):
    path = tmp_path / "dispatch.ini"
    path.write_text(
        "[dispatch]\nbeta = 0.4\nvmin = 0.96\nvmax = 1.04\neta = 0.02\n"
        "[constraints]\nvoltage-hi = hard\n"
    )
    cfg = load_config(path)
    assert cfg.beta == 0.4
    assert cfg.vmin == 0.96
    assert cfg.eta == 0.02
    assert cfg.assignments == (("voltage-hi", "hard"),)

    path.write_text("[dispatch]\ngamma = 1.0\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[dispatch]\nbeta = not-a-number\n")
    with pytest.raises(ConfigError):
        load_config(path)
    for line in ("nu = nan", "ridge = inf", "eta = nan"):
        path.write_text(f"[dispatch]\n{line}\n")
        with pytest.raises(ConfigError, match="must be finite"):
            load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_dump_problem(demo_problem):
    text = dump_problem(demo_problem)
    assert "[variables]" in text
    assert "qg[6] qg[11] v0 vreg[3-4] vreg[8-9] s" in text
    assert "[inequalities]" in text
    assert "inverter-cap[6].hi:hard | " in text
    assert "[equalities]" in text
    assert "local-reg-eq[8-9].eq:hard" in text


def test_build_is_deterministic(demo_feeder, demo_config):
    a = build_problem(demo_feeder, demo_config)
    b = build_problem(demo_feeder, demo_config)
    assert a.H.tobytes() == b.H.tobytes()
    assert a.A.tobytes() == b.A.tobytes()
    assert a.E.tobytes() == b.E.tobytes()
    assert a.row_labels == b.row_labels


def test_voltages_batch(demo_problem, rng):
    prob = demo_problem
    th = np.stack([sample_theta(prob, rng), sample_theta(prob, rng)])
    x = rng.normal(size=(2, prob.n_var))
    v = prob.voltages(x, th)
    assert v.shape == (2, 14)
    assert v[0] == pytest.approx(prob.voltages(x[0], th[0]))
