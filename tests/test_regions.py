"""Critical regions: affine maps, certification as membership, degenerate rejection.

The old region polyhedron S theta <= t is rebuilt here, as the reference
that every certified point must lie in.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from phca import solve_qp
from phca.errors import RankDeficientKError
from phca.qp import OPTIMAL, identify_active
from phca.regions import SCREEN_PRIMAL, RegionContext


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
    sol = solve_qp(prob.instance(theta))
    assert sol.status == OPTIMAL
    ctx = RegionContext(prob)
    region = ctx.build_region(identify_active(prob.instance(theta), sol, eps_act=1e-5))
    return sol, region


def rhs_of(prob, thetas):
    """Inequality right-hand sides E theta + b of stacked parameter rows."""
    return thetas @ prob.E.T + prob.b


def reference_polyhedron(prob, region):
    """The region's parameter polyhedron S theta <= t, built from its maps.

    The first rows are the inactive inequalities at x = M theta + r, the
    rest dual nonnegativity of the active rows.
    """
    inactive = np.setdiff1d(np.arange(prob.A.shape[0]), region.active_set)
    S = np.vstack([prob.A[inactive] @ region.M - prob.E[inactive], -region.G1])
    t = np.concatenate([prob.b[inactive] - prob.A[inactive] @ region.r, region.w1])
    return S, t


def perturbed_theta(scaled_demo_problem, rng, scale=0.0):
    prob = scaled_demo_problem
    n = prob.n_inj
    pc = np.abs(rng.uniform(0.005, 0.03, n))
    theta = np.zeros(prob.n_theta)
    theta[prob.pc_slice()] = pc
    theta[prob.qc_slice()] = 0.4 * pc
    pg = np.zeros(n)
    pg[8] = 0.05
    pg[10] = 0.04
    theta[prob.pg_slice()] = pg
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
    seed = theta[None]
    assert region.batch_membership(seed, rhs_of(prob, seed))[0]
    assert np.max(np.abs(region.batch_solutions(seed)[0] - sol.x)) < 1e-9
    hits = 0
    for _ in range(200):
        probe = theta + rng.normal(0.0, 2e-3, prob.n_theta)
        if not region.batch_membership(probe[None], rhs_of(prob, probe[None]))[0]:
            continue
        hits += 1
        direct = solve_qp(prob.instance(probe))
        assert direct.status == OPTIMAL
        assert np.max(np.abs(region.batch_solutions(probe[None])[0] - direct.x)) < 1e-8
    assert hits > 50  # the perturbation scale keeps most probes inside


def test_multipliers_match_direct(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    sol, region = seed_region(prob, theta)
    lam = np.zeros(prob.A.shape[0])
    lam[list(region.active_set)] = region.G1 @ theta + region.w1
    mu = region.G2 @ theta + region.w2
    # inactive rows carry no multiplier in the direct solve either
    assert np.max(np.abs(lam - sol.lam)) < 1e-7
    assert np.max(np.abs(mu - sol.mu)) < 1e-7


def test_outside_point_fails_membership(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    outside = theta.copy()
    outside[prob.headroom_slice()] = (-1.0, -1.0)  # cap rows cannot hold
    assert not region.batch_membership(outside[None], rhs_of(prob, outside[None]))[0]
    # the affine map extrapolates silently, to a point no row set allows
    xs = region.batch_solutions(outside[None])
    assert np.all(np.isfinite(xs))
    assert np.max(xs @ prob.A.T - rhs_of(prob, outside)) > 1e-3


def test_batch_membership_matches_loop(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    probes = theta + rng.normal(0.0, 5e-2, (300, prob.n_theta))
    rhs = rhs_of(prob, probes)
    mask = region.batch_membership(probes, rhs)
    loop = np.array([region.batch_membership(p[None], r[None])[0] for p, r in zip(probes, rhs)])
    assert mask.dtype == bool and mask.shape == (300,)
    assert mask.tolist() == loop.tolist()
    assert 0 < mask.sum() < 300  # perturbation straddles the boundary
    sols = region.batch_solutions(probes)
    assert sols.shape == (300, prob.n_var)
    assert sols[7] == pytest.approx(region.batch_solutions(probes[7:8])[0])
    assert sols[7] == pytest.approx(region.M @ probes[7] + region.r)


def test_certified_points_lie_in_reference_polyhedron(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    S, t = reference_polyhedron(prob, region)
    probes = theta + rng.normal(0.0, 5e-2, (300, prob.n_theta))
    mask = region.batch_membership(probes, rhs_of(prob, probes))
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
    rhs = rhs_of(prob, thetas)
    assert np.max(region.batch_solutions(thetas) @ prob.A.T - rhs) <= 0.0
    assert region.batch_membership(thetas, rhs).tolist() == [True, True, True, False]
    S, t = reference_polyhedron(prob, region)
    assert (thetas @ S.T - t).max(axis=1).tolist() == pytest.approx([-1.0, 0.0, 1e-9, 1.0])


def test_region_map_shapes(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    n_act = len(region.active_set)
    assert region.M.shape == (prob.n_var, prob.n_theta)
    assert region.G1.shape == (n_act, prob.n_theta)
    assert region.G2.shape[0] == prob.B.shape[0]
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


def test_empty_active_set_region():
    prob = tiny_problem([[1.0, 0.0]], E=[[1.0]], b=[5.0])
    ctx = RegionContext(prob)
    region = ctx.build_region(())
    # unconstrained minimizer of 1/2 x'x is the origin for every theta
    theta = np.array([[2.0]])
    assert region.batch_solutions(theta)[0] == pytest.approx([0.0, 0.0])
    rhs = rhs_of(prob, theta)
    assert region.batch_membership(theta, rhs)[0]  # 0 <= theta + 5 holds
    assert (region.batch_solutions(theta) @ prob.A.T - rhs)[0] == pytest.approx([-7.0])
    assert not region.batch_membership(np.array([[-6.0]]), np.array([[-1.0]]))[0]
    assert (theta @ region.G1.T + region.w1).size == 0
    assert (theta @ region.G2.T + region.w2).size == 0


def test_membership_no_rows():
    prob = tiny_problem(np.zeros((0, 2)).reshape(0, 2))
    ctx = RegionContext(prob)
    region = ctx.build_region(())
    mask = region.batch_membership(np.zeros((4, 1)), np.zeros((4, 0)))
    assert mask.tolist() == [True] * 4


def test_out_of_range_active_index():
    prob = tiny_problem([[1.0, 0.0]])
    ctx = RegionContext(prob)
    with pytest.raises(IndexError):
        ctx.build_region((3,))
