"""Critical regions: affine maps, membership polyhedra, degenerate rejection."""

from types import SimpleNamespace

import numpy as np
import pytest

from phca import solve_qp
from phca.errors import NotInRegionError, RankDeficientKError
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
    assert region.contains(theta)
    assert region.membership_margin(theta) <= 1e-8
    assert np.max(np.abs(region.solution_at(theta) - sol.x)) < 1e-9
    hits = 0
    for _ in range(200):
        probe = theta + rng.normal(0.0, 2e-3, prob.n_theta)
        if not region.contains(probe, eps=0.0):
            continue
        hits += 1
        direct = solve_qp(prob.instance(probe))
        assert direct.status == OPTIMAL
        assert np.max(np.abs(region.solution_at(probe) - direct.x)) < 1e-8
    assert hits > 50  # the perturbation scale keeps most probes inside


def test_multipliers_match_direct(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    sol, region = seed_region(prob, theta)
    lam, mu = region.multipliers_at(theta, prob.A.shape[0])
    assert lam.shape == (prob.A.shape[0],)
    inactive = np.setdiff1d(np.arange(prob.A.shape[0]), region.active_set)
    assert np.all(lam[inactive] == 0.0)
    assert np.max(np.abs(lam - sol.lam)) < 1e-7
    assert np.max(np.abs(mu - sol.mu)) < 1e-7


def test_solution_at_check_raises_outside(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    outside = theta.copy()
    outside[prob.headroom_slice()] = (-1.0, -1.0)  # cap rows cannot hold
    assert not region.contains(outside)
    with pytest.raises(NotInRegionError):
        region.solution_at(outside, check=True)
    # without the flag the affine map extrapolates silently
    region.solution_at(outside)


def test_batch_membership_matches_loop(scaled_demo_problem, rng):
    prob = scaled_demo_problem
    theta = perturbed_theta(prob, rng)
    _, region = seed_region(prob, theta)
    probes = theta + rng.normal(0.0, 5e-2, (300, prob.n_theta))
    mask = region.batch_membership(probes, eps=1e-6)
    loop = np.array([region.contains(p, eps=1e-6) for p in probes])
    assert mask.tolist() == loop.tolist()
    assert 0 < mask.sum() < 300  # perturbation straddles the boundary
    sols = region.batch_solutions(probes)
    assert sols.shape == (300, prob.n_var)
    assert sols[7] == pytest.approx(region.solution_at(probes[7]))


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
    theta = np.array([2.0])
    assert region.solution_at(theta) == pytest.approx([0.0, 0.0])
    assert region.contains(theta)  # 0 <= theta + 5 holds
    assert region.membership_margin(theta) == pytest.approx(-7.0)
    lam, mu = region.multipliers_at(theta, 1)
    assert lam.tolist() == [0.0]
    assert mu.size == 0


def test_membership_margin_no_rows():
    prob = tiny_problem(np.zeros((0, 2)).reshape(0, 2))
    ctx = RegionContext(prob)
    region = ctx.build_region(())
    theta = np.array([1.0])
    assert region.membership_margin(theta) == -np.inf
    assert region.batch_membership(np.zeros((4, 1))).tolist() == [True] * 4


def test_out_of_range_active_index():
    prob = tiny_problem([[1.0, 0.0]])
    ctx = RegionContext(prob)
    with pytest.raises(IndexError):
        ctx.build_region((3,))
