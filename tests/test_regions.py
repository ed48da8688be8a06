"""Critical regions: affine maps, membership polyhedra, degenerate rejection."""

from types import SimpleNamespace

import numpy as np
import pytest

from phca import solve_qp
from phca.errors import RankDeficientKError
from phca.qp import OPTIMAL, identify_active
from phca.regions import RegionContext


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
    # the seed itself sits inside its own region
    seed = theta[None]
    assert region.batch_membership(seed, eps=1e-4)[0]
    assert np.max(seed @ region.S.T - region.t) <= 1e-8
    assert np.max(np.abs(region.batch_solutions(seed)[0] - sol.x)) < 1e-9
    hits = 0
    for _ in range(200):
        probe = theta + rng.normal(0.0, 2e-3, prob.n_theta)
        if not region.batch_membership(probe[None], eps=0.0)[0]:
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
    assert not region.batch_membership(outside[None], eps=1e-4)[0]
    # the affine map extrapolates silently, to a point no row set allows
    xs = region.batch_solutions(outside[None])
    assert np.all(np.isfinite(xs))
    assert np.max(xs @ prob.A.T - outside @ prob.E.T - prob.b) > 1e-3


def test_batch_membership_matches_loop(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    probes = theta + rng.normal(0.0, 5e-2, (300, prob.n_theta))
    mask = region.batch_membership(probes, eps=1e-6)
    loop = np.array([region.batch_membership(p[None], eps=1e-6)[0] for p in probes])
    assert mask.tolist() == loop.tolist()
    assert mask.tolist() == np.all(probes @ region.S.T - region.t <= 1e-6, axis=1).tolist()
    assert 0 < mask.sum() < 300  # perturbation straddles the boundary
    sols = region.batch_solutions(probes)
    assert sols.shape == (300, prob.n_var)
    assert sols[7] == pytest.approx(region.batch_solutions(probes[7:8])[0])
    assert sols[7] == pytest.approx(region.M @ probes[7] + region.r)


def test_region_polyhedron_shape(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    n_act = len(region.active_set)
    n_rows = prob.A.shape[0]
    assert region.n_primal_rows == n_rows - n_act
    assert region.S.shape == (n_rows - n_act + n_act, prob.n_theta)
    assert region.M.shape == (prob.n_var, prob.n_theta)
    assert region.G2.shape[0] == prob.B.shape[0]


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
    assert region.batch_membership(theta, eps=1e-4)[0]  # 0 <= theta + 5 holds
    assert np.max(theta @ region.S.T - region.t) == pytest.approx(-7.0)
    assert (theta @ region.G1.T + region.w1).size == 0
    assert (theta @ region.G2.T + region.w2).size == 0


def test_membership_no_rows():
    prob = tiny_problem(np.zeros((0, 2)).reshape(0, 2))
    ctx = RegionContext(prob)
    region = ctx.build_region(())
    assert region.S.shape == (0, 1)
    assert region.batch_membership(np.zeros((4, 1)), eps=0.0).tolist() == [True] * 4


def test_out_of_range_active_index():
    prob = tiny_problem([[1.0, 0.0]])
    ctx = RegionContext(prob)
    with pytest.raises(IndexError):
        ctx.build_region((3,))
