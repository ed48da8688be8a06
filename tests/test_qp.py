import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import feasible_lp
from helpers import build_instance, reduced_instance, solve_instance

import phca.qp as qp_mod
from phca.builder import theta_map_batch
from phca.qp import (
    BROKEN,
    COLD_UPDATES,
    CONVERGED,
    DEFAULT_TOL,
    NONE,
    WARM_UPDATES,
    _farkas,
    _independent_rows,
    _interior_point,
    _phase_one,
    _reduced,
    _spd_solver,
    _triangle,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    RAY,
    RAY_TOL,
    STALL,
    QpMatrices,
    identify_active,
    solve_qp_batch,
)


def brute_force(inst, tol=1e-9):
    """Enumerate every active set and keep the best feasible KKT point.

    Exponential in the row count, so only for tiny instances; serves as an
    independent oracle for the iterative solver.
    """
    n = inst.c.shape[0]
    m = inst.A.shape[0]
    best = None
    for k in range(m + 1):
        for act in itertools.combinations(range(m), k):
            act = list(act)
            K = np.vstack([inst.A[act], inst.Aeq])
            rhs = np.concatenate([inst.b[act], inst.beq])
            kkt = np.block(
                [[inst.H, K.T], [K, np.zeros((K.shape[0], K.shape[0]))]]
            )
            full_rhs = np.concatenate([-inst.c, rhs])
            try:
                sol = np.linalg.solve(kkt, full_rhs)
            except np.linalg.LinAlgError:
                continue
            # singular systems can "solve" to garbage; keep verified roots only
            if not np.allclose(kkt @ sol, full_rhs, atol=1e-8):
                continue
            x = sol[:n]
            lam = sol[n : n + len(act)]
            if lam.size and lam.min() < -tol:
                continue
            if m and (inst.A @ x - inst.b).max() > tol:
                continue
            obj = 0.5 * x @ inst.H @ x + inst.c @ x
            if best is None or obj < best[1] - 1e-12:
                best = (x, obj)
    return best


def test_unconstrained():
    inst = build_instance(np.eye(2), [-1.0, -2.0])
    sol = solve_instance(inst)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 2.0], abs=1e-10)
    assert sol.objective == pytest.approx(-2.5, abs=1e-12)


def test_single_active_inequality():
    # min 0.5|x|^2 - x1 - 2 x2  s.t. x1 + x2 <= 1; multiplier works out to 1
    inst = build_instance(np.eye(2), [-1.0, -2.0], A=[[1.0, 1.0]], b=[1.0])
    sol = solve_instance(inst)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)
    assert sol.lam == pytest.approx([1.0], abs=1e-9)
    assert sol.objective == pytest.approx(-1.5, abs=1e-10)
    assert list(identify_active(inst.A, inst.b, sol.x, eps_act=1e-5)) == [0]


def test_equality_only():
    inst = build_instance(np.eye(2), [0.0, 0.0], Aeq=[[1.0, 1.0]], beq=[2.0])
    sol = solve_instance(inst)
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-10)
    # H x + Aeq' mu = 0 at the optimum
    assert sol.mu == pytest.approx([-1.0], abs=1e-9)


def test_inactive_constraint_ignored():
    inst = build_instance(np.eye(2), [-1.0, -2.0], A=[[1.0, 0.0]], b=[5.0])
    sol = solve_instance(inst)
    assert sol.x == pytest.approx([1.0, 2.0], abs=1e-9)
    assert sol.lam == pytest.approx([0.0], abs=1e-9)
    assert list(identify_active(inst.A, inst.b, sol.x, eps_act=1e-5)) == []


def test_infeasible_inequalities():
    inst = build_instance(np.eye(1), [0.0], A=[[1.0], [-1.0]], b=[-1.0, 0.0])
    assert solve_instance(inst).status == INFEASIBLE


def test_contradictory_equalities():
    inst = build_instance(np.eye(1), [0.0], Aeq=[[1.0], [1.0]], beq=[0.0, 1.0])
    assert solve_instance(inst).status == INFEASIBLE


def test_dependent_equality_rows():
    # the second equality row doubles the first: consistent right-hand
    # sides solve on the independent row, inconsistent ones are infeasible
    kw = dict(A=[[1.0, 1.0]], b=[0.5], Aeq=[[1.0, 0.0], [2.0, 0.0]])
    sol = solve_instance(build_instance(np.eye(2), [1.0, 1.0], beq=[0.3, 0.6], **kw))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.3, -1.0], abs=1e-12)
    assert solve_instance(build_instance(np.eye(2), [1.0, 1.0], beq=[0.3, 0.7], **kw)).status == INFEASIBLE


@pytest.mark.parametrize("c, Aeq, beq", [
    ([np.inf, 0.0], [], []),
    ([np.inf, 0.0], [[1.0, 1.0]], [1.0]),
    ([0.0, 0.0], [[1.0, 1.0]], [np.inf]),
])
def test_infinite_cost_or_equality_side_is_a_numerical_failure(c, Aeq, beq):
    # inf times the zeros of the null-space basis and of x is NaN: the
    # cold path and the polish take it without a warning, and the verdict
    # is a numerical failure
    inst = build_instance(np.eye(2), c, A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                          b=[1.0, 1.0, 1.5], Aeq=Aeq, beq=beq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_instance(inst).status == NUMERICAL_FAILURE


def test_active_rows_land_exactly():
    # the polish step puts active row residuals at machine precision
    inst = build_instance(
        np.diag([2.0, 1.0]), [-4.0, -1.0], A=[[1.0, 0.0], [0.0, 1.0]], b=[0.5, 0.25]
    )
    sol = solve_instance(inst)
    resid = inst.b - inst.A @ sol.x
    assert abs(resid[0]) < 1e-14
    assert abs(resid[1]) < 1e-14


def test_kkt_residual_fields():
    inst = build_instance(np.eye(2), [-1.0, -2.0], A=[[1.0, 1.0]], b=[1.0])
    sol = solve_instance(inst)
    r_stat, r_prim, r_comp = sol.residuals
    assert r_stat < 1e-9 and r_prim < 1e-12 and r_comp < 1e-10


def test_deterministic_repeat():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(4, 3))
    inst = build_instance(
        G.T @ G + 0.5 * np.eye(3),
        rng.normal(size=3),
        A=rng.normal(size=(5, 3)),
        b=rng.normal(size=5) + 1.0,
    )
    a = solve_instance(inst)
    b = solve_instance(inst)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.lam.tobytes() == b.lam.tobytes()


def _small_instance(rng):
    """A random instance small enough for brute_force: 2-4 variables, up
    to 6 rows and one equality row, mostly feasible around a random point
    and occasionally cut off."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(0, 7))
    p = int(rng.integers(0, 2))
    G = rng.normal(size=(n + 1, n))
    H = G.T @ G + 0.1 * np.eye(n)
    c = rng.normal(size=n)
    x0 = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = A @ x0 + rng.uniform(-0.4, 1.0, size=m)
    Aeq = rng.normal(size=(p, n))
    beq = Aeq @ x0
    return build_instance(H, c, A=A, b=b, Aeq=Aeq, beq=beq)


def test_random_instances_match_enumeration():
    """Seeded sweep against the exhaustive oracle, feasible and not."""
    rng = np.random.default_rng(42)
    n_optimal = 0
    n_infeasible = 0
    for trial in range(1000):
        inst = _small_instance(rng)
        sol = solve_instance(inst)
        ref = brute_force(inst)
        if ref is None:
            assert sol.status == INFEASIBLE, f"trial {trial}"
            n_infeasible += 1
            continue
        assert sol.status == OPTIMAL, f"trial {trial}"
        x_ref, obj_ref = ref
        assert np.max(np.abs(sol.x - x_ref)) < 1e-6, f"trial {trial}"
        assert abs(sol.objective - obj_ref) < 1e-8 * max(1.0, abs(obj_ref)), f"trial {trial}"
        n_optimal += 1
    # the draw must exercise both outcomes
    assert n_optimal > 700
    assert n_infeasible > 20


def _sweep_instances():
    """The seeded 300-instance sweep: each seed, its generator and a
    _small_instance drawn from it with, where it has two rows, a third
    that is their sum: sometimes redundant, sometimes binding, sometimes
    cutting off."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        inst = _small_instance(rng)
        if inst.A.shape[0] >= 2:
            inst = build_instance(
                inst.H, inst.c, A=np.vstack([inst.A, inst.A[0] + inst.A[1]]),
                b=np.append(inst.b, inst.b[0] + inst.b[1] + rng.uniform(-0.3, 0.3)),
                Aeq=inst.Aeq, beq=inst.beq,
            )
        yield seed, rng, inst


def test_warm_start_matches_cold_solve():
    """Seeded sweep: each instance is solved cold and from one of four
    kinds of start, in turn empty, the cold active set, a random subset of
    the rows, and a superset with dependent rows."""
    kinds = ("empty", "cold", "subset", "superset")
    n_settled = n_infeasible = 0
    for seed, rng, inst in _sweep_instances():
        kind = kinds[seed % len(kinds)]
        m = inst.A.shape[0]
        cold = solve_instance(inst)
        active = np.flatnonzero(cold.lam > 0).tolist()
        start = {
            "empty": [],
            "cold": active,
            "subset": sorted(rng.permutation(m)[: rng.integers(0, m + 1)].tolist()),
            # the sum row with both its parts is a dependent set
            "superset": sorted(set(active) | ({0, 1, m - 1} if m >= 3 else set())),
        }[kind]
        warm = solve_instance(inst, start=start)
        assert not cold.warm, f"seed {seed}"
        assert warm.status == cold.status, f"seed {seed} ({kind})"
        if cold.status == INFEASIBLE:
            # the warm polish found nothing and the cold path ran as before
            assert not warm.warm and warm.iterations == cold.iterations, f"seed {seed}"
            assert warm.factorizations <= WARM_UPDATES + cold.factorizations, f"seed {seed}"
            n_infeasible += 1
        elif kind == "cold":
            assert warm.x.tobytes() == cold.x.tobytes(), f"seed {seed}"
        else:
            assert np.abs(warm.x - cold.x).max() <= 1e-9, f"seed {seed} ({kind})"
        if warm.warm:
            assert warm.iterations == 0 and warm.exit == NONE and m > 0, f"seed {seed}"
            n_settled += 1
    # the sweep must exercise settled starts and infeasible instances
    assert n_settled > 150
    assert n_infeasible > 15


def test_warm_start_rows_are_checked():
    inst = build_instance(np.eye(2), [1.0, 1.0], A=[[1.0, 0.0]], b=[0.0])
    with pytest.raises(ValueError):
        solve_instance(inst, start=[1])
    with pytest.raises(ValueError):
        solve_qp_batch(QpMatrices(inst.H, inst.A, inst.Aeq), inst.c[None], inst.b[None],
                       inst.beq[None], start=[[0], [0]])


def test_polish_takes_in_a_dependent_violated_row(monkeypatch):
    # The KKT point (0, 0) of rows 0 and 1 violates row 2, which is a
    # combination of them.  The polish must take row 2 in and let an older
    # row go, not drop row 2 again and cycle.  With no interior-point
    # iterations the polish starts from all three rows.
    inst = build_instance(
        np.eye(2), [-1.0, -1.0],
        A=[[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]], b=[0.0, 0.0, -0.1],
    )
    monkeypatch.setattr(qp_mod, "MAX_ITER", 0)
    sol = solve_instance(inst)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([-0.5, -0.5], abs=1e-12)
    assert sol.lam == pytest.approx([0.0, 0.0, 15.0], abs=1e-10)


def _stack(rng, k, n, m, p):
    """k instances that share H, A and Aeq; about one in ten is cut off."""
    G = rng.normal(size=(n + 1, n))
    H = G.T @ G + 0.1 * np.eye(n)
    A = rng.normal(size=(m, n))
    Aeq = rng.normal(size=(p, n))
    x0 = rng.normal(size=(k, n))
    c = rng.normal(size=(k, n))
    b = x0 @ A.T + rng.uniform(-0.4, 1.0, size=(k, m))
    return H, A, Aeq, c, b, x0 @ Aeq.T


def independent_rows_reference(K, rel_tol=1e-10):
    """Row-by-row modified Gram-Schmidt, two passes, one basis vector at a
    time: the loop the stacked projection in _independent_rows replaced."""
    rows, basis = [], []
    for i, row in enumerate(K):
        norm0 = np.linalg.norm(row)
        if norm0 <= 0.0:
            continue
        v = row.astype(float, copy=True)
        for _ in range(2):
            for u in basis:
                v -= (u @ v) * u
        if np.linalg.norm(v) > rel_tol * norm0:
            basis.append(v / np.linalg.norm(v))
            rows.append(i)
    return rows


def test_independent_rows_match_reference():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        base = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        mix = rng.normal(size=(int(rng.integers(1, 12)), base.shape[0]))
        # exact combinations, combinations nudged off the span (well clear
        # of the drop tolerance) and a zero row, shuffled together
        K = np.vstack([base, mix @ base, mix @ base + 1e-6 * rng.normal(size=(len(mix), n)),
                       np.zeros((1, n))])
        K = K[rng.permutation(len(K))]
        assert _independent_rows(K).tolist() == independent_rows_reference(K)
    # sets whose Gram matrix K K' has a smallest-to-largest eigenvalue
    # ratio of at least 1e-12 are kept whole from one eigvalsh call, the
    # others go through the loop; both must pick the reference's rows
    cases = []
    for n in (2, 5, 14, 40):
        for r in sorted({1, n // 2 + 1, n}):
            # well conditioned, and conditioned on both sides of the 1e-12
            # Gram ratio (singular values spread by its square root)
            for ratio in (1.0, 1e-4, 1e-8, 4e-12, 2.5e-13, 1e-14):
                U = np.linalg.qr(rng.normal(size=(r, r)))[0]
                V = np.linalg.qr(rng.normal(size=(n, r)))[0]
                sv = np.sqrt(ratio) ** np.linspace(0.0, 1.0, r)
                cases.append((U * sv) @ V.T * rng.uniform(0.1, 10.0))
            base = rng.normal(size=(r, n))
            cases += [
                # a duplicate row, a zero row, more rows than columns
                np.vstack([base, base[:1]]),
                np.vstack([base[:1], np.zeros((1, n)), base[1:]]),
                np.vstack([base, rng.normal(size=(n + 1 - r, n))]),
                np.zeros((r, n)),
            ]
    fast = slow = 0
    for K in cases:
        assert _independent_rows(K).tolist() == independent_rows_reference(K)
        eig = np.linalg.eigvalsh(K @ K.T)
        if len(K) <= K.shape[1] and eig[0] >= 1e-12 * eig[-1] > 0.0:
            fast += 1
        else:
            slow += 1
    # the cases straddle the threshold
    assert fast >= 40 and slow >= 40


def test_batch_matches_single_solves(monkeypatch):
    """Every member of a stacked solve equals its own solve_qp call, and
    the exhaustive oracle where the row count allows it."""
    rng = np.random.default_rng(7)
    # the last two stacks hold k (n - p) >= 1024, so their first steps take
    # _spd_solver's column loop, and members leave it at different
    # iterations (the 12-row stack's on rays and on convergence)
    large = np.random.default_rng(8)
    stacks = [
        (_stack(rng, 100, 3, 5, 1), qp_mod.MAX_ITER),
        (_stack(rng, 100, 4, 6, 0), qp_mod.MAX_ITER),
        (_stack(rng, 80, 6, 24, 2), qp_mod.MAX_ITER),
        (_stack(large, 300, 5, 6, 1), qp_mod.MAX_ITER),
        (_stack(large, 300, 6, 12, 1), qp_mod.MAX_ITER),
    ]
    sizes = []
    real = qp_mod._spd_solver
    monkeypatch.setattr(qp_mod, "_spd_solver",
                        lambda tri, n: sizes.append((tri.shape[1], n)) or real(tri, n))
    # with no interior-point iterations the polish starts from every row
    # the start point violates; the first member is the dependent-row case
    # of test_polish_takes_in_a_dependent_violated_row
    c = np.vstack([[-1.0, -1.0], rng.normal(size=(39, 2))])
    b = np.vstack([[0.0, 0.0, -0.1], rng.uniform(-0.5, 0.5, size=(39, 3))])
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]])
    stacks.append(((np.eye(2), A, np.zeros((0, 2)), c, b, np.zeros((40, 0))), 0))
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    for (H, A, Aeq, c, b, beq), max_iter in stacks:
        monkeypatch.setattr(qp_mod, "MAX_ITER", max_iter)
        batch = solve_qp_batch(QpMatrices(H, A, Aeq), c, b, beq)
        for i in range(c.shape[0]):
            inst = build_instance(H, c[i], A=A, b=b[i], Aeq=Aeq, beq=beq[i])
            single = solve_instance(inst)
            sol = batch.solution(i)
            assert sol.status == single.status, f"member {i}"
            assert np.max(np.abs(sol.x - single.x)) <= 1e-9, f"member {i}"
            seen[sol.status] += 1
            if A.shape[0] <= 6:
                ref = brute_force(inst)
                assert sol.status == (INFEASIBLE if ref is None else OPTIMAL), f"member {i}"
                if ref is not None:
                    assert np.max(np.abs(sol.x - ref[0])) < 1e-6, f"member {i}"
    assert batch.solution(0).x == pytest.approx([-0.5, -0.5], abs=1e-12)
    assert len({k for k, n in sizes if k * n >= 1024}) >= 4
    assert sum(seen.values()) >= 900
    assert seen[OPTIMAL] > 200 and seen[INFEASIBLE] > 10


def test_stacked_polish_matches_one_at_a_time(monkeypatch):
    """A stack whose polish rounds hold many working sets gives every
    member the status, active set and polish factorizations it gets alone,
    and the same x; its first member is the dependent-row case of
    test_polish_takes_in_a_dependent_violated_row, with two loose rows
    more."""
    rng = np.random.default_rng(0)
    k = 60
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1], [1.0, -1.0], [-0.5, 1.0]])
    c = np.vstack([[-1.0, -1.0], rng.normal(size=(k - 1, 2))])
    b = np.vstack([[0.0, 0.0, -0.1, 5.0, 5.0], rng.uniform(-0.5, 0.5, size=(k - 1, 5))])
    H, Aeq = np.eye(2), np.zeros((0, 2))
    # with no interior-point iterations the polish starts from every row
    # within a slack of 1 of the start point
    monkeypatch.setattr(qp_mod, "MAX_ITER", 0)
    batch = solve_qp_batch(QpMatrices(H, A, Aeq), c, b, np.zeros((k, 0)))
    # the count a loop over the members one at a time gave
    assert batch.polish_groups == 54
    assert batch.polish_groups > batch.factorizations.max()
    assert batch.lam[0].tolist() == pytest.approx([0.0, 0.0, 15.0, 0.0, 0.0], abs=1e-10)
    for i in range(k):
        one = solve_qp_batch(QpMatrices(H, A, Aeq), c[i : i + 1], b[i : i + 1],
                             np.zeros((1, 0)))
        assert batch.status[i] == one.status[0], f"member {i}"
        assert np.flatnonzero(batch.lam[i] > 0).tolist() == np.flatnonzero(one.lam[0] > 0).tolist()
        assert batch.factorizations[i] == one.factorizations[0], f"member {i}"
        assert np.abs(batch.x[i] - one.x[0]).max() <= 1e-12, f"member {i}"
    assert (batch.status == OPTIMAL).sum() == 56


def _stack_with_copies(seed):
    """A seeded stack of 4 instances on one _small_instance's matrices,
    with two more rows (one with a zero entry, one all zero) and copies: a
    drawn row twice, at an equal and at a looser b, the zero row once and
    the zero-entry row once with that entry -0.0, both at b of their own.
    The rows are shuffled, so copies fall before and after their
    originals.  Returns the stack (H, A, Aeq, c, b, beq), group (which
    distinct row each row equals) and the distinct rows."""
    rng = np.random.default_rng(seed)
    inst = _small_instance(rng)
    n, m, k = inst.c.size, inst.A.shape[0], 4
    signed = rng.normal(size=n)
    zero_at = int(rng.integers(n))
    signed[zero_at] = 0.0
    distinct = np.vstack([inst.A, signed, np.zeros(n)])
    b = np.hstack([inst.b + rng.uniform(-0.3, 0.3, size=(k, m)),
                   rng.uniform(-0.5, 1.0, size=(k, 1)),
                   rng.uniform(-0.05, 1.0, size=(k, 2))])
    flipped = signed.copy()
    flipped[zero_at] = -0.0
    j = int(rng.integers(m + 1))
    A = np.vstack([distinct, distinct[j], distinct[j], np.zeros(n), flipped])
    b = np.hstack([b[:, : m + 2], b[:, [j, j]] + [0.0, 0.5] * rng.uniform(size=(k, 2)),
                   b[:, m + 2 :], rng.uniform(-0.5, 1.0, size=(k, 1))])
    group = np.array([*range(m + 2), j, j, m + 1, m])
    order = rng.permutation(m + 6)
    c = inst.c + 0.3 * rng.normal(size=(k, n))
    beq = np.repeat(inst.beq[None], k, axis=0)
    return (inst.H, A[order], inst.Aeq, c, b[:, order], beq), group[order], distinct


def test_equal_rows_are_merged_exactly(monkeypatch):
    """The interior-point method sees each distinct row once, at each
    instance's least b among its copies.  Every answer equals the
    exhaustive oracle's on the distinct rows, a multiplier sits only on
    the first row of its group at the group's least b, and every
    infeasible instance's certificate passes the Farkas check on all the
    rows."""
    seen_rows = []
    real = qp_mod._interior_point
    monkeypatch.setattr(qp_mod, "_interior_point",
                        lambda red, *args: seen_rows.append(red.Az.shape[0]) or real(red, *args))
    seen = {OPTIMAL: 0, INFEASIBLE: 0}
    with_eq = 0
    for seed in range(60):
        (H, A, Aeq, c, b, beq), group, distinct = _stack_with_copies(seed)
        k, (m, n) = c.shape[0], A.shape
        batch = solve_qp_batch(QpMatrices(H, A, Aeq), c, b, beq)
        assert seen_rows.pop() == distinct.shape[0], f"seed {seed}"
        with_eq += Aeq.shape[0] > 0
        for i in range(k):
            least = np.array([b[i, group == g].min() for g in range(len(distinct))])
            home = [min(r for r in range(m) if group[r] == g and b[i, r] == least[g])
                    for g in range(len(distinct))]
            copies = np.setdiff1d(np.arange(m), home)
            assert (batch.lam[i, copies] == 0.0).all(), f"seed {seed} member {i}"
            ref = brute_force(build_instance(H, c[i], A=distinct, b=least, Aeq=Aeq, beq=beq[i]))
            status = batch.status[i]
            assert status == (INFEASIBLE if ref is None else OPTIMAL), f"seed {seed} member {i}"
            seen[status] += 1
            if ref is not None:
                assert np.abs(batch.x[i] - ref[0]).max() < 1e-6, f"seed {seed} member {i}"
                assert abs(batch.objective[i] - ref[1]) < 1e-8 * max(1.0, abs(ref[1]))
        infeasible = batch.status == INFEASIBLE
        assert _farkas(A, Aeq, b[infeasible], beq[infeasible], batch.lam[infeasible],
                       batch.mu[infeasible]).all(), f"seed {seed}"
    assert seen[OPTIMAL] > 150 and seen[INFEASIBLE] > 20
    assert 10 < with_eq < 50


def test_infeasible_stack_leaves_on_farkas_ray(random_feeder_case):
    # the unrelaxed problem at calibration's 32 evenly spaced samples of the
    # random feeder; 7 are infeasible, and before the ray exit the
    # interior-point method ran 22-31 iterations on them
    prob, thetas = random_feeder_case
    sample = thetas[np.linspace(0, len(thetas) - 1, 32).astype(int)]
    insts = [reduced_instance(prob, row)[0] for row in sample]
    H, A, Aeq = insts[0].H, insts[0].A, insts[0].Aeq

    def solve(rows):
        return solve_qp_batch(
            QpMatrices(H, A, Aeq),
            *(np.array([getattr(insts[i], f) for i in rows]) for f in ("c", "b", "beq")),
        )

    batch = solve(range(32))
    infeasible = batch.status == INFEASIBLE
    assert infeasible.sum() == 7
    assert batch.iterations[infeasible].max() <= 20
    assert (batch.status[~infeasible] == OPTIMAL).all()
    # each infeasible instance left on a ray whose certificate passed the
    # Farkas check, so no instance took the phase-1 problem, and none of
    # them reached the polish
    assert (batch.exit[infeasible] == RAY).all()
    assert batch.phase_one == 0
    assert batch.polish_groups == solve(np.flatnonzero(~infeasible)).polish_groups


def _band_stack(seed, k, loose=None, n=3, m=8, gap=(0.01, 1.0)):
    """k instances that share H and A, whose rows m and m + 1 hold a'x in
    a band of width 1; every third instance (marked by cut_off) asks
    a'x <= a'x0 - g and a'x >= a'x0 there instead, which no x meets, g
    drawn uniformly from the range gap.  loose appends the row
    sum(x) <= loose.  Returns (H, A, c, b, cut_off)."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n + 1, n))
    H = G.T @ G + 0.1 * np.eye(n)
    a = rng.normal(size=n)
    A = np.vstack([rng.normal(size=(m, n)), a, -a])
    x0 = rng.normal(size=(k, n))
    b = np.hstack([x0 @ A[:m].T + rng.uniform(0.1, 1.0, size=(k, m)),
                   np.column_stack([x0 @ a + 0.5, 0.5 - x0 @ a])])
    cut_off = np.arange(k) % 3 == 0
    b[cut_off, m] = x0[cut_off] @ a - rng.uniform(*gap, size=cut_off.sum())
    b[cut_off, m + 1] = -x0[cut_off] @ a
    c = rng.normal(size=(k, n))
    if loose is not None:
        A = np.vstack([A, np.ones((1, n))])
        b = np.hstack([b, np.full((k, 1), loose)])
    return H, A, c, b, cut_off


def test_certified_ray_exits_skip_the_polish():
    # the cut-off instances leave the interior-point method on a ray; their
    # certificates pass the Farkas check, which settles them infeasible
    # with no polish and no phase-1 problem
    H, A, c, b, cut_off = _band_stack(0, 30, loose=1e8)
    k, n = c.shape
    none = np.zeros((k, 0))
    batch = solve_qp_batch(QpMatrices(H, A, np.zeros((0, n))), c, b, none)
    assert (batch.status == np.where(cut_off, INFEASIBLE, OPTIMAL)).all()
    assert (batch.exit[cut_off] == RAY).all()
    assert batch.phase_one == 0
    # with no equality rows the solver hands the interior-point method H,
    # A, c and b as they are, started at the unconstrained minimizer
    exits = _interior_point(_reduced(H, A), c, b, -np.linalg.solve(H, c.T).T)[3]
    ray = exits == RAY
    assert not ray[~cut_off].any() and ray[cut_off].sum() >= 8
    # the polish never saw the instances that left on the ray
    keep = ~ray
    rest = solve_qp_batch(QpMatrices(H, A, np.zeros((0, n))), c[keep], b[keep], none[keep])
    assert batch.polish_groups == rest.polish_groups


def test_unconverged_exits_are_probed_after_polish():
    # three of the ten cut-off instances of this stack leave the
    # interior-point method on a broken step, not a ray; they hold no certificate, so the
    # polish tries them within its budget, and then the phase-1 problem,
    # once each, certifies them infeasible, while the rays pass the Farkas
    # check
    H, A, c, b, cut_off = _band_stack(11, 30, loose=1e8)
    k, n = c.shape
    batch = solve_qp_batch(QpMatrices(H, A, np.zeros((0, n))), c, b, np.zeros((k, 0)))
    assert (batch.status == np.where(cut_off, INFEASIBLE, OPTIMAL)).all()
    assert set(batch.exit[cut_off]) == {RAY, BROKEN} and (batch.exit[~cut_off] == CONVERGED).all()
    assert batch.phase_one == (batch.exit == BROKEN).sum() == 3
    assert (batch.factorizations[batch.exit == RAY] == 0).all()
    assert (batch.factorizations[batch.exit == BROKEN] > 0).all()
    assert (batch.factorizations <= COLD_UPDATES).all()


def farkas_holds(A, Aeq, b, beq, lam, mu):
    """lam >= 0 and v = b'lam + beq'mu < 0 with |A'lam + Aeq'mu| <=
    RAY_TOL (-v): every x with A x <= b and Aeq x = beq has
    |x|_1 >= 1 / RAY_TOL."""
    v = b @ lam + beq @ mu
    return (lam >= 0).all() and v < 0 and np.abs(lam @ A + mu @ Aeq).max() <= -RAY_TOL * v


def test_farkas_check_refuses_what_it_cannot_prove():
    # x <= -1 and -x <= 0: lam = (1, 1) proves it infeasible
    A, none = np.array([[1.0], [-1.0]]), np.zeros((1, 0))
    lam = np.array([[1.0, 1.0], [1.0, 0.5], [-1.0, -1.0]])
    b = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    # the second leaves A'lam = 0.5, the third has negative multipliers
    assert _farkas(A, np.zeros((0, 1)), b, none.repeat(3, 0), lam, none.repeat(3, 0)).tolist() == [
        True, False, False]
    # b'lam = -16 exactly, but below what rounding b'lam at this scale can hide
    big = np.array([[1e17, -1e17 - 16.0]])
    assert big[0].sum() == -16.0
    assert not _farkas(A, np.zeros((0, 1)), big, none, lam[:1], none)[0]
    # an equality row joins through mu: x = 2 with x <= 1
    Aeq = np.array([[1.0]])
    assert _farkas(A[:1], Aeq, np.array([[1.0]]), np.array([[2.0]]),
                   np.array([[1.0]]), np.array([[-1.0]])).tolist() == [True]


def test_ray_exits_return_checked_certificates(demo_problem, demo_scenarios):
    # every infeasible verdict, whether its instance left on a ray or took
    # the phase-1 problem, returns in lam and mu a certificate that passes
    # the Farkas check on its own rows, and HiGHS (feasible_lp) agrees that
    # it is infeasible
    cases = [(inst.A, inst.Aeq, solve_instance(inst), inst.b, inst.beq)
             for _, _, inst in _sweep_instances()]
    # the band stacks' broken exits, and equality rows that disagree, whose
    # certificates span the full dependent Aeq
    for seed, k, loose in ((0, 30, 1e8), (11, 30, 1e8), (11, 40, None)):
        H, A, c, b, _ = _band_stack(seed, k, loose)
        batch = solve_qp_batch(QpMatrices(H, A, np.zeros((0, 3))), c, b, np.zeros((k, 0)))
        cases += [(A, np.zeros((0, 3)), batch.solution(i), b[i], np.zeros(0)) for i in range(k)]
    for inst in (build_instance(np.eye(1), [0.0], Aeq=[[1.0], [1.0]], beq=[0.0, 1.0]),
                 build_instance(np.eye(2), [1.0, 1.0], A=[[1.0, 1.0]], b=[0.5],
                                  Aeq=[[1.0, 0.0], [2.0, 0.0]], beq=[0.3, 0.7])):
        cases.append((inst.A, inst.Aeq, solve_instance(inst), inst.b, inst.beq))
    # the unrelaxed demo at 24 overloaded hours, and again with every
    # headroom squeezed: the regulator gives it an equality row, which is
    # then doubled into a dependent one the check leaves out
    thetas = theta_map_batch(
        demo_problem, demo_scenarios.pc[:24], demo_scenarios.qc[:24], demo_scenarios.pg[:24],
        alpha=0.12, kappa=5.0, oversize=1.0,
    )
    squeezed = thetas.copy()
    squeezed[:, demo_problem.headroom_slice()] = -0.5
    insts = [reduced_instance(demo_problem, row)[0] for row in np.vstack([thetas, squeezed])]
    H, A, Aeq = insts[0].H, insts[0].A, insts[0].Aeq
    assert Aeq.shape[0] == 1
    c, b, beq = (np.array([getattr(i, f) for i in insts]) for f in ("c", "b", "beq"))
    for Ae, be in ((Aeq, beq), (np.vstack([Aeq, 2.0 * Aeq]), np.hstack([beq, 2.0 * beq]))):
        batch = solve_qp_batch(QpMatrices(H, A, Ae), c, b, be)
        cases += [(A, Ae, batch.solution(i), b[i], be[i]) for i in range(len(insts))]
        # the phase-1 problem certifies the instances that left on rays too
        inf = batch.status == INFEASIBLE
        assert inf.sum() == 41
        assert _farkas(A, Ae, b[inf], be[inf], *_phase_one(A, Ae, b[inf], be[inf])).all()
    exits = []
    for j, (A, Aeq, sol, b, beq) in enumerate(cases):
        if sol.exit == RAY or sol.status == INFEASIBLE:
            assert sol.status == INFEASIBLE, f"case {j}"
            assert farkas_holds(A, Aeq, b, beq, sol.lam, sol.mu), f"case {j}"
            assert not feasible_lp(SimpleNamespace(A=A, b=b, Aeq=Aeq, beq=beq)), f"case {j}"
            exits.append(sol.exit)
    # the equality-only case never enters the interior-point method
    assert exits.count(RAY) >= 100 and exits.count(BROKEN) == 9
    assert exits.count(NONE) == 1 and exits.count(CONVERGED) == 1
    assert len(exits) == exits.count(RAY) + 11


def test_sub_tolerance_conflicts_stay_numerical_failures():
    # the cut-off instances miss the band by 0.5e-8 to 1e-8, far less than
    # a phase-1 certificate can prove (see the qp module docstring), so
    # each stays a numerical failure; HiGHS, feasible to within its
    # tolerance, finds no conflict either
    H, A, c, b, cut_off = _band_stack(11, 40, gap=(0.5e-8, 1e-8))
    k, n = c.shape
    batch = solve_qp_batch(QpMatrices(H, A, np.zeros((0, n))), c, b, np.zeros((k, 0)))
    assert (batch.status == np.where(cut_off, NUMERICAL_FAILURE, OPTIMAL)).all()
    assert batch.phase_one == cut_off.sum() == 14
    assert all(feasible_lp(build_instance(H, c[i], A=A, b=b[i]))
               for i in np.flatnonzero(cut_off))


def test_a_loose_row_does_not_hide_a_violated_one():
    # the cut-off instances miss the band by 1e-5 to 2e-5, a conflict the
    # phase-1 certificate cannot prove; a row with b = 1e8 beside it must
    # not widen the band rows' primal tolerance, so none of them passes as
    # optimal, while every other instance does
    H, A, c, b, cut_off = _band_stack(0, 40, loose=1e8, gap=(1e-5, 2e-5))
    k, n = c.shape
    batch = solve_qp_batch(QpMatrices(H, A, np.zeros((0, n))), c, b, np.zeros((k, 0)))
    assert cut_off.sum() == 14
    assert (batch.status[cut_off] != OPTIMAL).all()
    assert (batch.status[~cut_off] == OPTIMAL).all()
    assert (batch.residuals[~cut_off, 1] <= DEFAULT_TOL).all()


#: solves the stack saved at argv[1] with every scipy import failing, and
#: prints its statuses and how many instances took the phase-1 problem
SCIPY_BLOCKED = """
import sys
import warnings
sys.modules["scipy"] = None
import numpy as np
from phca.qp import QpMatrices, solve_qp_batch
d = np.load(sys.argv[1])
batch = solve_qp_batch(QpMatrices(d["H"], d["A"], d["Aeq"]), d["c"], d["b"], d["beq"])
print(*batch.status, batch.phase_one)
"""


def test_phase_one_needs_no_scipy(tmp_path):
    H, A, c, b, _ = _band_stack(11, 30, loose=1e8)
    k, n = c.shape
    stack = dict(H=H, A=A, Aeq=np.zeros((0, n)), c=c, b=b, beq=np.zeros((k, 0)))
    np.savez(tmp_path / "stack.npz", **stack)
    env = dict(os.environ, PYTHONPATH=str(Path(qp_mod.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, str(tmp_path / "stack.npz")],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    batch = solve_qp_batch(QpMatrices(H, A, stack["Aeq"]), c, b, stack["beq"])
    assert batch.phase_one == 3
    assert proc.stdout.split() == [*batch.status, "3"]


def _tri(M):
    """The lower triangles of the stack M, in the layout _spd_solver takes:
    one column per matrix."""
    rows, cols, _, _ = _triangle(M.shape[1])
    return M[:, rows, cols].T


def test_step_solves_give_nan_on_bad_matrices():
    # an indefinite matrix (which LU could solve with) gives a NaN row, on
    # the LU path of a small stack and the substitution path of a large
    # one, while the others solve exactly: their factors and quotients are
    # exact in binary
    for k in (2, 512):
        M = np.repeat(np.array([[[4.0, 0.0], [0.0, 16.0]]]), k, axis=0)
        M[1] = [[1.0, 2.0], [2.0, 1.0]]
        rhs = np.repeat(np.array([[4.0], [16.0]]), k, axis=1)
        out = _spd_solver(_tri(M), 2)(rhs)
        assert np.isnan(out[:, 1]).all()
        assert (np.delete(out, 1, axis=1) == 1.0).all()


def _scaled_spd_stack(rng, k, n, cond):
    """k SPD matrices S G S: G well conditioned, S diagonal and spanning
    sqrt(cond), so that cond(S G S) is near cond; the spread of the
    augmented Hessians' diagonals is what makes them ill conditioned."""
    X = rng.normal(size=(k, n, 2 * n))
    G = X @ X.transpose(0, 2, 1) / (2 * n)
    s = np.exp(rng.uniform(0.0, 0.5 * np.log(cond), size=(k, n)))
    s[:, 0], s[:, -1] = 1.0, np.sqrt(cond)
    return s[:, :, None] * G * s[:, None, :]


@pytest.mark.parametrize("k", [1, 32, 256])
@pytest.mark.parametrize("n", [3, 14, 40])
def test_step_solves_match_numpy(k, n):
    # both right-hand sides solved with one factorization match
    # np.linalg.solve, on both paths, up to condition numbers of 1e12
    rng = np.random.default_rng(k * 1000 + n)
    for cond in (1e2, 1e6, 1e9, 1e12):
        M = _scaled_spd_stack(rng, k, n, cond)
        assert np.linalg.cond(M).max() > 0.1 * cond
        solve = _spd_solver(_tri(M), n)
        for _ in range(2):
            rhs = rng.normal(size=(k, n))
            ref = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
            err = np.abs(solve(rhs.T).T - ref).max(axis=1) / np.abs(ref).max(axis=1)
            assert err.max() <= 1e-10, (cond, err.max())


def test_cut_off_band_stack_solves():
    # the iterates of the cut-off instances grow until some augmented
    # Hessians pass the Cholesky test but are singular to LU (seen with
    # numpy 2.4 and OpenBLAS); their step breaks down, the others go on
    H, A, c, b, cut_off = _band_stack(11, 40)
    k, n = c.shape
    batch = solve_qp_batch(QpMatrices(H, A, np.zeros((0, n))), c, b, np.zeros((k, 0)))
    assert (batch.status == np.where(cut_off, INFEASIBLE, OPTIMAL)).all()
    for i in np.flatnonzero(~cut_off)[:8]:
        ref = brute_force(build_instance(H, c[i], A=A, b=b[i]))
        assert np.max(np.abs(batch.x[i] - ref[0])) < 1e-6


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_feasible_large_cancelling_multipliers_are_no_ray(eps):
    # two nearly opposite rows pin x2 at -1e4: at the optimum their
    # multipliers are 1e4 / (2 eps) each, b'lam = -1e8 < 0, and lam'A cancels
    # in x1 but keeps the gradient's 1e4 in x2.  On a feasible instance
    # |A'lam| >= -b'lam / |x|_1 for any feasible x, here 1e-4, far above
    # the ray test's 1e-9.  The multipliers keep the absolute merit above
    # tol, so the method stalls; the polish settles the stall, so no
    # phase-1 problem is solved.
    A = np.array([[1.0, eps], [-1.0, eps]])
    batch = solve_qp_batch(QpMatrices(np.eye(2), A, np.zeros((0, 2))), np.zeros((1, 2)),
                           np.full((1, 2), -1e4 * eps), np.zeros((1, 0)))
    assert batch.status[0] == OPTIMAL and batch.exit[0] == STALL and batch.phase_one == 0
    assert batch.x[0] == pytest.approx([0.0, -1e4], abs=1e-8)
    assert batch.lam[0] == pytest.approx([0.5e4 / eps] * 2, rel=1e-9)


def test_identify_active_threshold():
    inst = build_instance(np.eye(1), [-1.0], A=[[1.0]], b=[0.5])
    sol = solve_instance(inst)
    assert list(identify_active(inst.A, inst.b, sol.x, eps_act=1e-5)) == [0]
    # a huge threshold flags everything near the bound, a zero-width one may not
    assert list(identify_active(inst.A, inst.b, sol.x, eps_act=10.0)) == [0]


def test_build_validates_shapes():
    with pytest.raises(ValueError):
        build_instance(np.eye(2), [1.0])
    with pytest.raises(ValueError):
        build_instance(np.eye(2), [1.0, 2.0], A=[[1.0, 0.0]], b=[1.0, 2.0])
    with pytest.raises(ValueError, match="Aeq and beq row counts differ"):
        build_instance(np.eye(2), [1.0, 2.0], Aeq=[[1.0, 0.0]], beq=[1.0, 2.0])


@pytest.mark.parametrize("H, message", [
    ([[2.0, 1.0], [0.0, 2.0]], "H must be symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "H must be positive definite"),
], ids=["non-symmetric", "indefinite"])
def test_batch_refuses_bad_hessian(H, message):
    c = np.ones((3, 2))
    with pytest.raises(ValueError, match=message):
        solve_qp_batch(QpMatrices(H, np.zeros((0, 2)), np.zeros((0, 2))), c, np.zeros((3, 0)),
                       np.zeros((3, 0)))


def test_shapes_are_checked():
    # a 2x3 A for two variables is refused rather than read as 3x2, and a
    # c of shape (2, 3) rather than read as three instances; a block with
    # no entries has no rows
    for H, A, Aeq, message in [
        (np.ones((2, 3)), [], [], r"H must be square, got shape \(2, 3\)"),
        (np.eye(2), np.ones((2, 3)), [], r"A must have 2 columns, got shape \(2, 3\)"),
        (np.eye(2), [], np.ones((1, 3)), r"Aeq must have 2 columns, got shape \(1, 3\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            QpMatrices(H, A, Aeq)
    prep = QpMatrices(np.eye(2), [], np.zeros(0))
    none = np.zeros((2, 0))
    with pytest.raises(ValueError, match=r"shapes \(k, 2\), \(k, 0\) and \(k, 0\), got \(2, 3\)"):
        solve_qp_batch(prep, np.ones((2, 3)), none, none)
    batch = solve_qp_batch(prep, np.ones((2, 2)), none, none)
    assert (batch.status == OPTIMAL).all() and batch.x.tolist() == [[-1.0, -1.0]] * 2
