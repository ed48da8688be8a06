"""Dense convex QP solver with exact active-set identification.

Solves

    min  0.5 x'Hx + c'x   s.t.  A x <= b,  Aeq x = beq

for symmetric positive definite H.  A Mehrotra-style predictor-corrector
interior-point method drives the iterate close to the optimum, then a
Newton polish on the guessed active set lands on the exact KKT point, so
row residuals of active constraints end up at machine precision rather
than at interior-point tolerance.  Everything is deterministic: no
randomized pivoting, no time-dependent behavior.

Conventions: inequality multipliers lam >= 0 enter the stationarity
residual as A'lam, equality multipliers mu enter as Aeq'mu with free sign,
so  Hx + c + A'lam + Aeq'mu = 0  at the optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical-failure"

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
ACTIVE_TOL = 1e-5


@dataclass(frozen=True)
class QpInstance:
    """One fixed-parameter QP in standard inequality/equality form."""

    H: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    Aeq: np.ndarray
    beq: np.ndarray

    @staticmethod
    def build(H, c, A=None, b=None, Aeq=None, beq=None) -> "QpInstance":
        H = np.asarray(H, dtype=float)
        c = np.asarray(c, dtype=float).ravel()
        n = c.shape[0]
        if H.shape != (n, n):
            raise ValueError(f"H must be {n}x{n}, got {H.shape}")
        A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
        b = np.zeros(0) if b is None else np.asarray(b, dtype=float).ravel()
        Aeq = np.zeros((0, n)) if Aeq is None else np.asarray(Aeq, dtype=float).reshape(-1, n)
        beq = np.zeros(0) if beq is None else np.asarray(beq, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts differ")
        if Aeq.shape[0] != beq.shape[0]:
            raise ValueError("Aeq and beq row counts differ")
        return QpInstance(H, c, A, b, Aeq, beq)


@dataclass(frozen=True)
class QpSolution:
    """Solver output: primal point, multipliers, slacks, and KKT residuals.

    residuals = (stationarity, primal feasibility, complementarity), each an
    infinity norm.  status is "optimal", "infeasible", or
    "numerical-failure"; x holds the best iterate either way.
    """

    status: str
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    slack: np.ndarray
    residuals: tuple[float, float, float]
    iterations: int
    objective: float


def _independent_rows(K: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Greedy maximal independent row subset, earlier rows winning ties.

    Modified Gram-Schmidt with a relative drop tolerance; deterministic and
    order-respecting, which lets callers protect must-keep rows by placing
    them first.
    """
    rows = []
    basis = []
    for i, row in enumerate(K):
        norm0 = np.linalg.norm(row)
        if norm0 <= 0.0:
            continue
        v = row.astype(float, copy=True)
        for u in basis:
            v -= (u @ v) * u
        # second MGS pass tightens orthogonality for near-dependent rows
        for u in basis:
            v -= (u @ v) * u
        norm1 = np.linalg.norm(v)
        if norm1 > rel_tol * norm0:
            basis.append(v / norm1)
            rows.append(i)
    return np.asarray(rows, dtype=np.int64)


def _kkt_solve(H, c, K, rhs):
    """Solve the equality-KKT system [[H, K'], [K, 0]] [x; y] = [-c; rhs]."""
    n = H.shape[0]
    m = K.shape[0]
    if m == 0:
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), -c)
        return x, np.zeros(0)
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H
    kkt[:n, n:] = K.T
    kkt[n:, :n] = K
    full_rhs = np.concatenate([-c, rhs])
    # callers hand in degenerate K on purpose (infeasible probes); keep the
    # NaN propagation but not the warning chatter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        with np.errstate(invalid="ignore"):
            sol = scipy.linalg.lu_solve(scipy.linalg.lu_factor(kkt), full_rhs)
    return sol[:n], sol[n:]


def _kkt_residuals(inst: QpInstance, x, lam, mu):
    with np.errstate(invalid="ignore", over="ignore"):
        return _kkt_residuals_raw(inst, x, lam, mu)


def _kkt_residuals_raw(inst: QpInstance, x, lam, mu):
    r_stat = inst.H @ x + inst.c
    if inst.A.shape[0]:
        r_stat = r_stat + inst.A.T @ lam
    if inst.Aeq.shape[0]:
        r_stat = r_stat + inst.Aeq.T @ mu
    stat = float(np.max(np.abs(r_stat))) if r_stat.size else 0.0
    prim = 0.0
    comp = 0.0
    if inst.A.shape[0]:
        slack = inst.b - inst.A @ x
        prim = float(max(0.0, -slack.min(initial=0.0)))
        comp = float(np.max(np.abs(lam * slack)))
    if inst.Aeq.shape[0]:
        prim = max(prim, float(np.max(np.abs(inst.Aeq @ x - inst.beq))))
    return stat, prim, comp


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def _feasibility_probe(inst: QpInstance) -> bool:
    """Authoritative feasibility check via an LP (no objective)."""
    from scipy.optimize import linprog

    n = inst.c.shape[0]
    res = linprog(
        c=np.zeros(n),
        A_ub=inst.A if inst.A.shape[0] else None,
        b_ub=inst.b if inst.A.shape[0] else None,
        A_eq=inst.Aeq if inst.Aeq.shape[0] else None,
        b_eq=inst.beq if inst.Aeq.shape[0] else None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    return res.status != 2


def _polish(inst: QpInstance, active_guess: np.ndarray, max_updates: int = 60):
    """Newton refinement on the working set until multiplier signs and primal
    feasibility agree.  Returns (x, lam, mu) or None when no consistent set
    is found within the update budget.

    The working set is kept newest row first.  A violated row that the
    step adds can be linearly dependent on rows already in the set; the
    independence filter then drops an older row instead of the new one,
    which would otherwise be re-added at once and close a cycle."""
    m = inst.A.shape[0]
    e = inst.Aeq.shape[0]
    n = inst.c.shape[0]
    work = sorted(int(i) for i in active_guess)
    visited = set()
    scale_b = 1.0 + (float(np.max(np.abs(inst.b))) if m else 0.0)
    for _ in range(max_updates):
        # equality rows first so the independence filter can never drop them
        if work:
            kept = _independent_rows(np.vstack([inst.Aeq, inst.A[work]]))
            work = [work[k - e] for k in kept if k >= e]
        rows = sorted(work)
        key = tuple(rows)
        if key in visited:
            return None
        visited.add(key)
        K = np.vstack([inst.Aeq, inst.A[rows]]) if (rows or e) else np.zeros((0, n))
        rhs = np.concatenate([inst.beq, inst.b[rows]])
        try:
            x, y = _kkt_solve(inst.H, inst.c, K, rhs)
        except (scipy.linalg.LinAlgError, ValueError):
            return None
        mu = y[:e]
        lam_w = y[e:]
        lam_tol = 1e-11 * (1.0 + (float(np.max(np.abs(lam_w))) if rows else 0.0))
        neg = np.flatnonzero(lam_w < -lam_tol)
        if m:
            resid = inst.A @ x - inst.b
            resid[rows] = 0.0
            viol = np.flatnonzero(resid > 1e-11 * scale_b)
        else:
            viol = np.zeros(0, dtype=np.int64)
        if len(neg) == 0 and len(viol) == 0:
            lam = np.zeros(m)
            lam[rows] = np.maximum(lam_w, 0.0)
            return x, lam, mu
        if len(neg):
            work.remove(rows[int(neg[np.argmin(lam_w[neg])])])
        else:
            work.insert(0, int(viol[np.argmax(resid[viol])]))
    return None


def solve_qp(
    inst: QpInstance,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> QpSolution:
    """Solve one convex QP to KKT residuals below ``tol``.

    Preconditions checked here: H symmetric positive definite, Aeq full
    row rank.  Infeasible instances are detected (interior-point collapse
    confirmed by an LP probe) and reported via status rather than raised.
    """
    H, c, A, b, Aeq, beq = inst.H, inst.c, inst.A, inst.b, inst.Aeq, inst.beq
    n = c.shape[0]
    m = A.shape[0]
    e = Aeq.shape[0]

    if not np.allclose(H, H.T, rtol=0.0, atol=1e-11 * (1.0 + np.max(np.abs(H)))):
        raise ValueError("H must be symmetric")
    try:
        scipy.linalg.cho_factor(H)
    except scipy.linalg.LinAlgError:
        raise ValueError("H must be positive definite") from None
    if e:
        Q, R, _ = scipy.linalg.qr(Aeq.T, mode="economic", pivoting=True)
        del Q
        diag = np.abs(np.diag(R))
        if diag.size and np.any(diag <= 1e-8 * diag[0]):
            raise ValueError("equality rows are rank deficient")

    b_scale = 1.0 + (float(np.max(np.abs(b))) if m else 0.0)

    def finish(x, lam, mu, iters, feasible=None):
        """Package a point; feasible carries an LP probe's verdict when one
        was already made, so no second probe runs."""
        resid = _kkt_residuals(inst, x, lam, mu)
        slack = b - A @ x if m else np.zeros(0)
        obj = float(0.5 * x @ H @ x + c @ x)
        # stationarity and complementarity are judged relative to the
        # iterate scale (nearly parallel active rows blow the multipliers
        # up without hurting the primal answer); primal feasibility stays
        # an absolute test so runaway iterates can never pass
        stat, prim, comp = resid
        mult = 1.0
        for vec in (lam, mu, x):
            if vec.size:
                mult = max(mult, float(np.max(np.abs(vec))))
        if prim <= tol * b_scale and max(stat, comp) <= tol * mult:
            status = OPTIMAL
        else:
            if feasible is None:
                feasible = _feasibility_probe(inst)
            status = NUMERICAL_FAILURE if feasible else INFEASIBLE
        return QpSolution(status, x, lam, mu, slack, resid, iters, obj)

    if m == 0:
        x, mu = _kkt_solve(H, c, Aeq, beq)
        return finish(x, np.zeros(0), mu, 0)

    # --- interior point iteration -----------------------------------------
    x, mu = _kkt_solve(H, c, Aeq, beq)
    z = b - A @ x
    z = np.where(z > 1.0, z, 1.0)
    lam = np.ones(m)
    if e == 0:
        mu = np.zeros(0)

    best = (np.inf, x.copy(), lam.copy(), mu.copy())
    it = 0
    stall = 0
    for it in range(1, max_iter + 1):
        r_d = H @ x + c + A.T @ lam + (Aeq.T @ mu if e else 0.0)
        r_p = A @ x + z - b
        r_e = Aeq @ x - beq if e else np.zeros(0)
        mu_c = float(z @ lam) / m
        merit = max(
            float(np.max(np.abs(r_d))),
            float(np.max(np.abs(r_p))),
            float(np.max(np.abs(r_e))) if e else 0.0,
            mu_c,
        )
        if merit < best[0]:
            best = (merit, x.copy(), lam.copy(), mu.copy())
            stall = 0
        else:
            stall += 1
        if merit <= max(tol, 1e-11):
            break
        # interior point has collapsed without reaching feasibility
        if mu_c < 1e-12 and float(np.max(np.abs(r_p))) > 1e-7:
            break
        if stall > 30:
            break

        with np.errstate(over="ignore", invalid="ignore"):
            d = lam / z
            Haug = H + (A.T * d) @ A
        if e:
            kkt = np.zeros((n + e, n + e))
            kkt[:n, :n] = Haug
            kkt[:n, n:] = Aeq.T
            kkt[n:, :n] = Aeq
            try:
                lu = scipy.linalg.lu_factor(kkt)
            except (scipy.linalg.LinAlgError, ValueError):
                break

            def newton(tau):
                rhs_x = -(r_d + A.T @ (tau / z - lam + d * r_p))
                sol = scipy.linalg.lu_solve(lu, np.concatenate([rhs_x, -r_e]))
                dx, dmu = sol[:n], sol[n:]
                dz = -r_p - A @ dx
                dlam = tau / z - lam - d * dz
                return dx, dz, dlam, dmu
        else:
            try:
                cho = scipy.linalg.cho_factor(Haug)
            except (scipy.linalg.LinAlgError, ValueError):
                break

            def newton(tau):
                rhs_x = -(r_d + A.T @ (tau / z - lam + d * r_p))
                dx = scipy.linalg.cho_solve(cho, rhs_x)
                dz = -r_p - A @ dx
                dlam = tau / z - lam - d * dz
                return dx, dz, dlam, np.zeros(0)

        try:
            with np.errstate(all="ignore"):
                dx_a, dz_a, dlam_a, dmu_a = newton(np.zeros(m))
                alpha_a = min(_max_step(z, dz_a), _max_step(lam, dlam_a))
                mu_aff = float((z + alpha_a * dz_a) @ (lam + alpha_a * dlam_a)) / m
                sigma = (mu_aff / mu_c) ** 3 if mu_c > 0 else 0.0
                tau = sigma * mu_c - dz_a * dlam_a
                dx, dz, dlam, dmu = newton(tau)
        except (scipy.linalg.LinAlgError, ValueError):
            # overflow on a collapsing iterate; fall back to the best point
            break
        frac = max(0.99, 1.0 - 10.0 * mu_c)
        alpha = frac * min(_max_step(z, dz), _max_step(lam, dlam))
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dlam))):
            break
        x = x + alpha * dx
        # a full-length step can land a slack on exactly zero; keep strictly
        # interior so lam / z stays finite
        z = np.maximum(z + alpha * dz, 1e-14)
        lam = lam + alpha * dlam
        mu = mu + alpha * dmu if e else mu

    merit_now = max(_kkt_residuals(inst, x, lam, mu))
    if not np.isfinite(merit_now) or best[0] < merit_now:
        _, x, lam, mu = best

    # an iterate that ends clearly outside the feasible set is probed before
    # any polish: on an infeasible instance the polish can only exhaust its
    # update budget, at many times the cost of the probe
    slack = b - A @ x
    feasible = None
    if float(np.max(-slack)) > 1e-6 * b_scale:
        feasible = _feasibility_probe(inst)
        if not feasible:
            return finish(x, lam, mu, it, feasible)

    # --- active-set polish -------------------------------------------------
    guess = np.flatnonzero((slack < lam) | (slack <= 1e-8 * (1.0 + np.abs(b))))
    polished = _polish(inst, guess)
    if polished is None and len(guess):
        polished = _polish(inst, np.zeros(0, dtype=np.int64))
    if polished is not None:
        px, plam, pmu = polished
        if max(_kkt_residuals(inst, px, plam, pmu)) <= max(
            tol, max(_kkt_residuals(inst, x, lam, mu))
        ):
            return finish(px, plam, pmu, it, feasible)
    return finish(x, lam, mu, it, feasible)


def identify_active(inst: QpInstance, sol: QpSolution, eps_act: float = ACTIVE_TOL) -> np.ndarray:
    """Indices of inequality rows active at the solution.

    A row counts as active when the magnitude of its residual A x - b is at
    most ``eps_act``; the test is applied row by row, so a tiny positive
    overshoot and a tiny negative slack are treated alike.  Returns sorted
    0-based indices.
    """
    if inst.A.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    resid = inst.A @ sol.x - inst.b
    return np.flatnonzero(np.abs(resid) <= eps_act).astype(np.int64)
