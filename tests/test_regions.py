"""Critical regions: the map in instance data, certification as membership,
degenerate rejection.

The region's map is checked against an independent reference built here:
the full KKT system of the region's active set, solved as affine maps of
theta.  The old region polyhedron S theta <= t is rebuilt from those maps,
as the reference that every certified point must lie in.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from helpers import instance, solve_instance

from phca import run_batch
from phca.errors import RankDeficientKError
from phca.qp import OPTIMAL, identify_active
from phca.regions import DX_BUDGET, SCREEN_DUAL, SCREEN_PRIMAL, RegionContext


def tiny_problem(A, E=None, b=None, n_theta=1):
    """Standalone parametric QP with identity cost for region unit tests."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    E = np.zeros((m, n_theta)) if E is None else np.asarray(E, dtype=float)
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    return SimpleNamespace(
        H=np.eye(n),
        C=np.zeros((n, n_theta)),
        d=np.zeros(n),
        A=A,
        E=E,
        b=b,
        B=np.zeros((0, n)),
        F=np.zeros((0, n_theta)),
        f=np.zeros(0),
    )


def seed_region(prob, theta):
    """Solve one instance directly and build the region its active set spans."""
    inst = instance(prob, theta)
    sol = solve_instance(inst)
    assert sol.status == OPTIMAL
    ctx = RegionContext(prob)
    region = ctx.build_region(identify_active(inst.A, inst.b, sol.x, eps_act=1e-5))
    return sol, region


def instance_data(prob, thetas):
    """What the sweep reads of stacked parameter rows: the unconstrained
    minimizers -H^-1 (C theta + d) and the right-hand sides
    [E theta + b, F theta + f]."""
    thetas = np.atleast_2d(thetas)
    xu = -np.linalg.solve(prob.H, (thetas @ prob.C.T + prob.d).T).T
    rhs = np.hstack([thetas @ prob.E.T + prob.b, thetas @ prob.F.T + prob.f])
    return xu, rhs


def rhs_of(prob, thetas):
    """Inequality right-hand sides E theta + b of stacked parameter rows."""
    return thetas @ prob.E.T + prob.b


def reference_maps(prob, active_set):
    """Affine maps of theta from the full KKT system of one active set.

    Solves [[H, K'], [K, 0]] [x; lam] = [-(C theta + d); rhs_K theta] with
    K the active rows stacked on the equality rows, and returns M, r, G, w
    with x = M theta + r and lam = G theta + w (active rows first).
    """
    act = list(active_set)
    K = np.vstack([prob.A[act], prob.B])
    n, k = prob.H.shape[0], K.shape[0]
    kkt = np.block([[prob.H, K.T], [K, np.zeros((k, k))]])
    # one column per entry of theta, then the constant column
    cost = np.column_stack([-prob.C, -prob.d])
    rhs_K = np.column_stack([np.vstack([prob.E[act], prob.F]), np.r_[prob.b[act], prob.f]])
    sol = np.linalg.solve(kkt, np.vstack([cost, rhs_K]))
    return sol[:n, :-1], sol[:n, -1], sol[n:, :-1], sol[n:, -1]


def reference_polyhedron(prob, region):
    """The region's parameter polyhedron S theta <= t, from the reference maps.

    The first rows are the inactive inequalities at x = M theta + r, the
    rest dual nonnegativity of the active rows.
    """
    M, r, G, w = reference_maps(prob, region.active_set)
    a = len(region.active_set)
    inactive = np.setdiff1d(np.arange(prob.A.shape[0]), region.active_set)
    S = np.vstack([prob.A[inactive] @ M - prob.E[inactive], -G[:a]])
    t = np.concatenate([prob.b[inactive] - prob.A[inactive] @ r, w[:a]])
    return S, t


def perturbed_theta(scaled_demo_problem, rng, scale=0.0):
    prob = scaled_demo_problem
    n = prob.n_inj
    pc = np.abs(rng.uniform(0.005, 0.03, n))
    theta = np.zeros(prob.n_theta)
    theta[prob.pc_slice()] = pc
    theta[prob.qc_slice()] = 0.4 * pc
    theta[prob.pg_slice()] = (0.05, 0.04)  # inverter buses 9 and 11
    theta[prob.headroom_slice()] = (0.09, 0.07)
    if scale:
        theta = theta + rng.normal(0.0, scale, prob.n_theta)
        theta[prob.headroom_slice()] = np.abs(theta[prob.headroom_slice()])
    return theta


def test_region_reproduces_direct_solves(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    sol, region = seed_region(prob, theta)
    # the seed itself passes its own region's certification
    seed = instance_data(prob, theta)
    assert region.batch_membership(*seed)[0]
    assert np.max(np.abs(region.batch_solutions(*seed)[0] - sol.x)) < 1e-9
    hits = 0
    for _ in range(200):
        probe = theta + rng.normal(0.0, 2e-3, prob.n_theta)
        data = instance_data(prob, probe)
        if not region.batch_membership(*data)[0]:
            continue
        hits += 1
        direct = solve_instance(instance(prob, probe))
        assert direct.status == OPTIMAL
        assert np.max(np.abs(region.batch_solutions(*data)[0] - direct.x)) < 1e-8
    assert hits > 50  # the perturbation scale keeps most probes inside


def test_multipliers_match_direct(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    sol, region = seed_region(prob, theta)
    a = len(region.active_set)
    mult = region.multipliers(*instance_data(prob, theta))[0]
    lam = np.zeros(prob.A.shape[0])
    lam[list(region.active_set)] = mult[:a]
    # inactive rows carry no multiplier in the direct solve either
    assert np.max(np.abs(lam - sol.lam)) < 1e-7
    assert np.max(np.abs(mult[a:] - sol.mu)) < 1e-7


@pytest.mark.parametrize("case", ["demo", "demo-ldc", "empty-active-set", "no-rows"])
def test_region_matches_full_kkt_reference(
    case, scaled_demo_problem, scaled_ldc_problem, small_theta_set, rng
):
    """batch_solutions and multipliers against the KKT system solved here,
    at random parameters in and out of each region."""
    thetas = small_theta_set.thetas
    if case == "no-rows":
        prob = tiny_problem(np.zeros((0, 2)))
        prob.C, prob.d = np.array([[1.0], [-2.0]]), np.array([0.5, 0.0])
        thetas = np.array([[0.3]])
        regions = [RegionContext(prob).build_region(())]
    elif case == "empty-active-set":
        # the equality row alone
        prob = scaled_demo_problem
        regions = [RegionContext(prob).build_region(())]
    else:
        # every region a batch seeds, among them active sets whose rows
        # couple through H and, for ldc, through the equality row
        prob = scaled_demo_problem if case == "demo" else scaled_ldc_problem
        ctx = RegionContext(prob)
        regions = [ctx.build_region(sig) for sig in run_batch(prob, thetas).regions]
        assert max(len(r.active_set) for r in regions) >= 3 and prob.B.shape[0] == 1
    for region in regions:
        probes = thetas[rng.integers(0, len(thetas), 50)]
        probes = probes + rng.normal(0.0, 1e-2, probes.shape)
        M, r, G, w = reference_maps(prob, region.active_set)
        x_ref = probes @ M.T + r
        lam_ref = probes @ G.T + w
        xu, rhs = instance_data(prob, probes)
        xs = region.batch_solutions(xu, rhs)
        lam = region.multipliers(xu, rhs)
        assert xs.shape == x_ref.shape and lam.shape == lam_ref.shape
        assert np.max(np.abs(xs - x_ref)) <= 1e-9 * max(1.0, np.abs(x_ref).max())
        assert np.max(np.abs(lam - lam_ref), initial=0.0) <= 1e-9 * max(
            1.0, np.abs(lam_ref).max(initial=0.0)
        )


def test_outside_point_fails_membership(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    outside = theta.copy()
    outside[prob.headroom_slice()] = (-1.0, -1.0)  # cap rows cannot hold
    data = instance_data(prob, outside)
    assert not region.batch_membership(*data)[0]
    # the map extrapolates silently, to a point no row set allows
    xs = region.batch_solutions(*data)
    assert np.all(np.isfinite(xs))
    assert np.max(xs @ prob.A.T - rhs_of(prob, outside)) > 1e-3


def test_batch_membership_matches_loop(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    probes = theta + rng.normal(0.0, 5e-2, (300, prob.n_theta))
    xu, rhs = instance_data(prob, probes)
    mask = region.batch_membership(xu, rhs)
    loop = np.array([region.batch_membership(u[None], r[None])[0] for u, r in zip(xu, rhs)])
    assert mask.dtype == bool and mask.shape == (300,)
    assert mask.tolist() == loop.tolist()
    assert 0 < mask.sum() < 300  # perturbation straddles the boundary
    sols = region.batch_solutions(xu, rhs)
    assert sols.shape == (300, prob.n_var)
    assert sols[7] == pytest.approx(region.batch_solutions(xu[7:8], rhs[7:8])[0])
    M, r, _, _ = reference_maps(prob, region.active_set)
    assert sols[7] == pytest.approx(M @ probes[7] + r)


def test_certified_points_lie_in_reference_polyhedron(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    S, t = reference_polyhedron(prob, region)
    probes = theta + rng.normal(0.0, 5e-2, (300, prob.n_theta))
    mask = region.batch_membership(*instance_data(prob, probes))
    excess = np.max(probes @ S.T - t, axis=1)
    assert 0 < mask.sum() < 300
    # every certified point lies in the polyhedron, and every point inside
    # it (with no slack) is certified
    assert excess[mask].max() <= SCREEN_PRIMAL
    assert mask[excess <= 0.0].all()


def test_negative_multiplier_fails_membership():
    # min 1/2 x^2 subject to x >= theta: with the row active, x = theta and
    # its multiplier is theta, so for theta < 0 the map stays primal
    # feasible and only the dual side rejects it
    prob = tiny_problem([[-1.0]], E=[[-1.0]])
    region = RegionContext(prob).build_region((0,))
    thetas = np.array([[1.0], [0.0], [-1e-9], [-1.0]])
    xu, rhs = instance_data(prob, thetas)
    assert np.max(region.batch_solutions(xu, rhs) @ prob.A.T - rhs_of(prob, thetas)) <= 0.0
    assert region.multipliers(xu, rhs)[:, 0] == pytest.approx(thetas[:, 0])
    assert region.batch_membership(xu, rhs).tolist() == [True, True, True, False]
    S, t = reference_polyhedron(prob, region)
    assert (thetas @ S.T - t).max(axis=1).tolist() == pytest.approx([-1.0, 0.0, 1e-9, 1.0])


def test_region_map_shapes(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    m, e = prob.A.shape[0], prob.B.shape[0]
    k = len(region.active_set) + e
    # active rows, then the equality rows, as indices into K = [A; B]
    assert region.rows.tolist() == [*region.active_set, *range(m, m + e)]
    assert region.Linv.shape == (k, k)
    assert region.HinvKT.shape == (prob.n_var, k)
    # no region array is as wide as theta
    assert prob.n_theta not in (*region.Linv.shape, *region.HinvKT.shape)
    assert region.A is prob.A  # held by reference, not copied


def test_rank_deficient_active_set_rejected():
    # same row twice: the stacked system loses row rank
    prob = tiny_problem([[1.0, 0.0], [1.0, 0.0]])
    ctx = RegionContext(prob)
    with pytest.raises(RankDeficientKError):
        ctx.build_region((0, 1))
    # either row alone is fine
    region = ctx.build_region((0,))
    assert region.active_set == (0,)


@pytest.mark.parametrize("diag", [(1.0, -1.0), (1.0, 0.0)], ids=["indefinite", "singular"])
def test_non_positive_definite_hessian_rejected(diag):
    prob = tiny_problem([[1.0, 0.0]])
    prob.H = np.diag(diag)
    with pytest.raises(np.linalg.LinAlgError):
        RegionContext(prob)


def test_empty_active_set_region():
    prob = tiny_problem([[1.0, 0.0]], E=[[1.0]], b=[5.0])
    ctx = RegionContext(prob)
    region = ctx.build_region(())
    # unconstrained minimizer of 1/2 x'x is the origin for every theta
    theta = np.array([[2.0]])
    xu, rhs = instance_data(prob, theta)
    assert region.batch_solutions(xu, rhs)[0] == pytest.approx([0.0, 0.0])
    assert region.batch_membership(xu, rhs)[0]  # 0 <= theta + 5 holds
    assert (region.batch_solutions(xu, rhs) @ prob.A.T - rhs)[0] == pytest.approx([-7.0])
    assert not region.batch_membership(xu, np.array([[-1.0]]))[0]
    assert region.multipliers(xu, rhs).shape == (1, 0)


def test_membership_no_rows():
    prob = tiny_problem(np.zeros((0, 2)).reshape(0, 2))
    ctx = RegionContext(prob)
    region = ctx.build_region(())
    mask = region.batch_membership(np.zeros((4, 2)), np.zeros((4, 0)))
    assert mask.tolist() == [True] * 4


def test_out_of_range_active_index():
    prob = tiny_problem([[1.0, 0.0]])
    ctx = RegionContext(prob)
    with pytest.raises(IndexError):
        ctx.build_region((3,))


def test_certification_bounds_follow_each_rows_sensitivity(scaled_demo_problem, small_theta_set):
    # against explicit solves with H: an inactive row j entering alone moves
    # x along m_j with curvature a_j' m_j, an active row i leaving alone by
    # |lam_i| |(H^-1 K_S' G)_i| / G_ii; each bound is DX_BUDGET over that
    # gain, capped at the absolute one
    prob = scaled_demo_problem
    _, region = seed_region(prob, small_theta_set.thetas[100])
    act = np.asarray(region.active_set)
    assert act.size
    K = np.vstack([prob.A, prob.B])
    KS = K[region.rows]
    HinvKS = np.linalg.solve(prob.H, KS.T)
    G = np.linalg.inv(KS @ HinvKS)
    for j in range(prob.A.shape[0]):
        if j in act:
            assert region.primal_bound[j] == SCREEN_PRIMAL
            continue
        a = prob.A[j]
        move = np.linalg.solve(prob.H, a) - HinvKS @ (G @ (HinvKS.T @ a))
        want = min(SCREEN_PRIMAL, DX_BUDGET * (a @ move) / np.abs(move).max())
        assert region.primal_bound[j] == pytest.approx(want, rel=1e-6, abs=1e-20)
    P = HinvKS @ G
    for k in range(act.size):
        want = min(SCREEN_DUAL, DX_BUDGET * G[k, k] / np.abs(P[:, k]).max())
        assert region.dual_bound[k] == pytest.approx(want, rel=1e-6)
    # the bounds bite: some row is held tighter than the absolute bound
    assert region.primal_bound.min() < SCREEN_PRIMAL or region.dual_bound.min() < SCREEN_DUAL
