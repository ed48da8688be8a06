"""Dense convex QP solver for stacks of instances that share their matrices.

Solves k instances of

    min  0.5 x'Hx + c'x   s.t.  A x <= b,  Aeq x = beq

that share H, A and Aeq and differ only in c, b and beq, for symmetric
positive definite H.  The equality rows are eliminated once, x = x0 + Z y,
so the interior-point method sees inequalities only: the polish's
independence filter picks the independent equality rows, and the complete
QR factorization of their transpose gives Z (its trailing columns) and x0
(a solve with its triangular factor).  A Mehrotra predictor-corrector then
advances all k instances at once: one GEMM forms their augmented
Hessians, one batched Cholesky checks that they are positive definite,
and two stacked solves with them (no inverses) give the predictor and
corrector directions, while each instance keeps its own step lengths,
best iterate and exit.

An instance leaves the interior-point method early once its multipliers
form a Farkas ray of its inequality rows, Az y <= bz: bz'lam < 0 with
|Az'lam| <= RAY_TOL (-bz'lam).  On a feasible instance no iterate can
pass that test unless every feasible y has |y|_1 >= 1 / RAY_TOL, since
bz'lam >= y'Az'lam >= -|y|_1 |Az'lam| for any feasible y and lam >= 0.
The test reuses the product Az'lam of the dual residual, so it costs one
dot product per instance and iteration, and infeasible instances leave
after a dozen iterations rather than after the interior-point method
collapses or stalls.

A Newton polish on each guessed active set lands on the exact KKT point,
so active row residuals end up at machine precision rather than at
interior-point tolerance; instances that hold the same working set share
its independence filter and KKT factorization.  An instance that left the
interior-point method any way but converged (on a Farkas ray, a collapse,
a stall, a broken step or at max_iter; see QpBatch.exit), or whose
iterate ends clearly infeasible, gets an LP feasibility probe before any
polish, and so does every instance that does not end optimal; the probe
alone decides infeasibility.  solve_qp is the k = 1 case.  Everything is
deterministic: no randomized pivoting, no time-dependent behavior.

A warm start skips the interior-point method.  An instance given a start,
a list of inequality rows such as the active set of a neighbouring
critical region, first runs the polish from that set for at most
WARM_UPDATES rounds, each taking one row in or out.  When the polish
reaches a consistent set whose KKT point passes the cold path's own
optimality test, that point is the answer, with 0 interior-point
iterations; it equals the cold polish's answer bit for bit whenever both
end on the same working set.  Every instance that does not
settle so, an infeasible one among them, then takes the cold path
unchanged: interior point, probe, polish.  A start therefore costs at
most WARM_UPDATES factorizations, and an instance it does not settle gets
the cold answer.

Conventions: inequality multipliers lam >= 0 enter the stationarity
residual as A'lam, equality multipliers mu enter as Aeq'mu with free sign,
so  Hx + c + A'lam + Aeq'mu = 0  at the optimum.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical-failure"

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
#: relative size of |A'lam| below which the multipliers of an instance with
#: b'lam < 0 count as a Farkas ray of its inequality rows
RAY_TOL = 1e-9
#: polish rounds a warm start may take before the instance goes the cold
#: way.  Measured on synthetic radial feeders, starting from the last
#: region built: a round costs 1/14 of a cold solve at 80 and 123 buses and
#: 1/38 at 400 buses, and the starts settled within 13 rounds (80 buses),
#: 31 (123 buses; one never settled) and 53 (400 buses; 88 of 98 within
#: 32).  Of the budgets 8-64, 24 and 32 gave the least direct-solve time at
#: 123 buses, about 40% below cold solves, and 32 keeps a start that never
#: settles near two cold solves there.
WARM_UPDATES = 32

#: how an instance left the interior-point method (QpBatch.exit): on a
#: Farkas ray, converged, collapsed short of feasibility, stalled, after
#: its Newton step broke down, or at max_iter; NONE where it never entered
#: it (a warm start settled it, or there are no inequality rows)
RAY = "ray"
CONVERGED = "converged"
COLLAPSE = "collapse"
STALL = "stall"
BROKEN = "broken"
LIMIT = "limit"
NONE = "none"
#: the interior-point exits in the order their tests are checked
IPM_EXITS = (RAY, CONVERGED, COLLAPSE, STALL, BROKEN, LIMIT)


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
    """Solver output: primal point, multipliers and KKT residuals.

    residuals = (stationarity, primal feasibility, complementarity), each an
    infinity norm.  status is "optimal", "infeasible", or
    "numerical-failure"; x holds the best iterate either way.  iterations
    counts interior-point iterations and exit says how the method ended
    (NONE when it did not run); warm marks a solution that its warm start
    settled, and factorizations counts the polish's KKT factorizations.
    """

    status: str
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    residuals: tuple[float, float, float]
    iterations: int
    objective: float
    warm: bool = False
    exit: str = NONE
    factorizations: int = 0


@dataclass(frozen=True)
class QpBatch:
    """Solver output for a stack of instances.

    Row i of every array is instance i, with QpSolution's meaning; status
    and exit hold Python strings.  factorizations counts, per instance,
    the polish's KKT factorizations it took part in, warm and cold;
    polish_groups counts them once each, as the instances that held the
    same working set shared them, and lp_probes the feasibility LPs that
    were solved.
    """

    status: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    objective: np.ndarray
    polish_groups: int
    lp_probes: int
    warm: np.ndarray
    exit: np.ndarray
    factorizations: np.ndarray

    def solution(self, i: int) -> QpSolution:
        return QpSolution(
            str(self.status[i]),
            self.x[i],
            self.lam[i],
            self.mu[i],
            tuple(float(v) for v in self.residuals[i]),
            int(self.iterations[i]),
            float(self.objective[i]),
            bool(self.warm[i]),
            str(self.exit[i]),
            int(self.factorizations[i]),
        )


def _independent_rows(K: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Greedy maximal independent row subset, earlier rows winning ties.

    Gram-Schmidt with a relative drop tolerance: each row is projected off
    the orthonormal basis of the rows kept so far in two classical passes,
    the second tightening orthogonality for near-dependent rows.
    Deterministic and order-respecting, which lets callers protect
    must-keep rows by placing them first.
    """
    rows = []
    basis = np.empty(K.shape)
    for i, row in enumerate(K):
        norm0 = math.sqrt(row @ row)
        if norm0 <= 0.0:
            continue
        kept = basis[: len(rows)]
        v = row - (kept @ row) @ kept
        v -= (kept @ v) @ kept
        norm1 = math.sqrt(v @ v)
        if norm1 > rel_tol * norm0:
            basis[len(rows)] = v / norm1
            rows.append(i)
    return np.asarray(rows, dtype=np.int64)


def _kkt_solve(H, K, rhs):
    """Solve [[H, K'], [K, 0]] s = rhs for every row of rhs at once."""
    n = H.shape[0]
    r = K.shape[0]
    kkt = np.zeros((n + r, n + r))
    kkt[:n, :n] = H
    kkt[:n, n:] = K.T
    kkt[n:, :n] = K
    return np.linalg.solve(kkt, rhs.T).T


def _kkt_residuals(H, A, Aeq, c, b, beq, x, lam, mu):
    """(k, 3) stationarity, primal and complementarity infinity norms."""
    with np.errstate(invalid="ignore", over="ignore"):
        stat = np.abs(x @ H + c + lam @ A + mu @ Aeq).max(axis=1, initial=0.0)
        slack = b - x @ A.T
        prim = np.maximum(
            np.maximum(-slack.min(axis=1, initial=0.0), 0.0),
            np.abs(x @ Aeq.T - beq).max(axis=1, initial=0.0),
        )
        comp = np.abs(lam * slack).max(axis=1, initial=0.0)
    return np.column_stack([stat, prim, comp])


def _feasibility_probe(A, b, Aeq, beq) -> bool:
    """Authoritative feasibility check via an LP (no objective)."""
    from scipy.optimize import linprog

    n = A.shape[1]
    res = linprog(
        c=np.zeros(n),
        A_ub=A if A.shape[0] else None,
        b_ub=b if A.shape[0] else None,
        A_eq=Aeq if Aeq.shape[0] else None,
        b_eq=beq if Aeq.shape[0] else None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    return res.status != 2


def _nan_unless_spd(M: np.ndarray) -> np.ndarray:
    """Set every matrix of the stack M that is not numerically positive
    definite (its Cholesky factorization fails) to NaN, in place, so that
    solves with it give NaN; returns M."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # one such matrix fails the whole stacked call; find it
        for i, Mi in enumerate(M):
            try:
                np.linalg.cholesky(Mi)
            except np.linalg.LinAlgError:
                M[i] = np.nan
    return M


def _ipm_residuals(Hz, Az, AzT, s):
    """Dual and primal residuals, the complementarity gap and lam @ Az of
    every instance in the interior-point state s; AzT is Az.T, contiguous."""
    y, z, lam = s["y"], s["z"], s["lam"]
    lam_az = lam @ Az
    r_d = y @ Hz + lam_az + s["cz"]
    r_p = y @ AzT + z - s["bz"]
    return r_d, r_p, np.einsum("ij,ij->i", z, lam) / z.shape[1], lam_az


def _solve_or_nan(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row i of rhs solved against matrix i of the stack M; NaN for a
    matrix that LU factorization finds exactly singular (a Cholesky
    factorization can pass on a matrix that rounding leaves singular)."""
    try:
        return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # one such matrix fails the whole stacked call; find it
        out = np.full_like(rhs, np.nan)
        for i, (Mi, ri) in enumerate(zip(M, rhs)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(Mi, ri)
        return out


def _newton(M, base, Az, AzT, r_p, d, w):
    """Newton direction (dy, dz, dlam) for the complementarity target
    w = tau / z - lam, given the augmented Hessians M and the target-free
    part base of the right-hand side."""
    dy = _solve_or_nan(M, base - w @ Az)
    dz = -r_p - dy @ AzT
    return dy, dz, w - d * dz


def _max_step(z, lam, dz, dlam):
    """Largest step in (0, 1] per instance that keeps z and lam nonnegative."""
    worst = -np.minimum((dz / z).min(axis=1), (dlam / lam).min(axis=1))
    return 1.0 / np.maximum(worst, 1.0)


def _interior_point(Hz, Az, cz, bz, y, tol, max_iter):
    """Mehrotra predictor-corrector on  min 0.5 y'Hz y + cz'y  s.t.
    Az y <= bz  for every row of cz and bz, started at y.

    Instances leave the stack one by one: on convergence, on an
    interior-point collapse short of feasibility, after 30 iterations
    without progress, the iteration after their Newton step broke down, or
    as soon as their multipliers form a Farkas ray of  Az y <= bz (see the
    module docstring), or at max_iter.  Each returns its last iterate, or
    its best one when the last is worse or not finite, as (y, lam,
    iterations, exit), exit holding each instance's exit kind: RAY,
    CONVERGED, COLLAPSE, STALL, BROKEN or LIMIT, the first that applies.
    """
    k, nz = cz.shape
    m = Az.shape[0]
    # row outer products, so the k augmented Hessians are one GEMM
    AA = (Az[:, :, None] * Az[:, None, :]).reshape(m, nz * nz)
    AzT = np.ascontiguousarray(Az.T)
    z = bz - y @ AzT
    lam = np.ones((k, m))
    # row i of every array belongs to instance idx[i]; leave() is the one
    # place that shrinks the stack, and it filters every array in s
    s = {
        "idx": np.arange(k), "cz": cz, "bz": bz,
        "y": y, "z": np.where(z > 1.0, z, 1.0), "lam": lam,
        "best": np.full(k, np.inf), "best_y": y, "best_lam": lam,
        "stall": np.zeros(k, dtype=np.int64), "broken": np.zeros(k, dtype=bool),
        "ray": np.zeros(k, dtype=bool),
    }
    out_y = np.empty((k, nz))
    out_lam = np.empty((k, m))
    iters = np.zeros(k, dtype=np.int64)
    exits = np.empty(k, dtype=np.int64)

    def leave(s, out, it, kind):
        """Store the answers of the instances in out, whose exit kinds are
        in kind (one index into IPM_EXITS per row of s); return the state
        of the others."""
        yo, lo = s["y"][out], s["lam"][out]
        slack = s["bz"][out] - yo @ AzT
        now = np.maximum(
            np.maximum(np.abs(yo @ Hz + s["cz"][out] + lo @ Az).max(axis=1, initial=0.0),
                       -slack.min(axis=1)),
            np.abs(lo * slack).max(axis=1),
        )
        take_best = (~np.isfinite(now) | (s["best"][out] < now))[:, None]
        i = s["idx"][out]
        out_y[i] = np.where(take_best, s["best_y"][out], yo)
        out_lam[i] = np.where(take_best, s["best_lam"][out], lo)
        # an instance whose step broke down did not take this iteration's step
        iters[i] = it - s["broken"][out]
        exits[i] = kind[out]
        return {name: a[~out] for name, a in s.items()}

    with np.errstate(all="ignore"):
        for it in range(1, max_iter + 1):
            r_d, r_p, mu_c, lam_az = _ipm_residuals(Hz, Az, AzT, s)
            rp_max = np.abs(r_p).max(axis=1)
            merit = np.maximum(np.maximum(np.abs(r_d).max(axis=1, initial=0.0), rp_max), mu_c)
            better = merit < s["best"]
            s["best"] = np.where(better, merit, s["best"])
            s["best_y"] = np.where(better[:, None], s["y"], s["best_y"])
            s["best_lam"] = np.where(better[:, None], s["lam"], s["best_lam"])
            s["stall"] = np.where(better, 0, s["stall"] + 1)
            b_lam = np.einsum("ij,ij->i", s["bz"], s["lam"])
            s["ray"] = (b_lam < 0) & (
                np.abs(lam_az).max(axis=1, initial=0.0) <= -RAY_TOL * b_lam
            )
            # certified infeasible, converged, collapsed without reaching
            # feasibility, stalled, or the last Newton step broke down
            tests = (
                s["ray"], merit <= max(tol, 1e-11), (mu_c < 1e-12) & (rp_max > 1e-7),
                s["stall"] > 30, s["broken"],
            )
            out = tests[0] | tests[1] | tests[2] | tests[3] | tests[4]
            if out.any():
                # the first test that holds names the exit
                s = leave(s, out, it, np.argmax(tests, axis=0))
                if not s["idx"].size:
                    break
                r_d, r_p, mu_c, _ = _ipm_residuals(Hz, Az, AzT, s)

            y, z, lam = s["y"], s["z"], s["lam"]
            d = lam / z
            M = _nan_unless_spd(Hz + (d @ AA).reshape(len(d), nz, nz))
            base = -(r_d + (d * r_p) @ Az)
            dy_a, dz_a, dlam_a = _newton(M, base, Az, AzT, r_p, d, -lam)
            alpha_a = _max_step(z, lam, dz_a, dlam_a)[:, None]
            mu_aff = np.einsum("ij,ij->i", z + alpha_a * dz_a, lam + alpha_a * dlam_a) / m
            sigma_mu = np.where(mu_c > 0, (mu_aff / mu_c) ** 3, 0.0) * mu_c
            w = (sigma_mu[:, None] - dz_a * dlam_a) / z - lam
            dy, dz, dlam = _newton(M, base, Az, AzT, r_p, d, w)
            alpha = np.maximum(0.99, 1.0 - 10.0 * mu_c) * _max_step(z, lam, dz, dlam)
            # the step broke down (a factorization failed, giving NaN, or an
            # iterate overflowed): the instance stays put and leaves next time
            broken = ~(
                (alpha > 1e-14) & np.isfinite(dy).all(axis=1) & np.isfinite(dlam).all(axis=1)
            )
            if broken.any():
                alpha[broken] = 0.0
                dy[broken], dz[broken], dlam[broken] = 0.0, 0.0, 0.0
            s["broken"] = broken
            s["y"] = y + alpha[:, None] * dy
            # a full-length step can land a slack on exactly zero; keep strictly
            # interior so lam / z stays finite
            s["z"] = np.maximum(z + alpha[:, None] * dz, 1e-14)
            s["lam"] = lam + alpha[:, None] * dlam
        else:
            left = s["idx"].size
            leave(s, np.ones(left, dtype=bool), max_iter, np.full(left, IPM_EXITS.index(LIMIT)))
    return out_y, out_lam, iters, np.asarray(IPM_EXITS, dtype=object)[exits]


def _polish(H, A, Aeq, c, b, beq, work, max_updates=60):
    """Newton refinement on each instance's working set until multiplier
    signs and primal feasibility agree.

    work holds one list of rows of A per instance.  Instances that hold the
    same list share one independence filter and one KKT factorization per
    round, solved for all their right-hand sides.  Returns (x, lam, mu,
    found, groups, steps), found marking the instances that reached a
    consistent set within the update budget, groups counting the KKT
    factorizations and steps, per instance, those it took part in.

    Each working set is kept newest row first.  A violated row that the
    step adds can be linearly dependent on rows already in the set; the
    independence filter then drops an older row instead of the new one,
    which would otherwise be re-added at once and close a cycle.  An
    instance whose filtered set repeats one it visited stops there.
    """
    k, n = c.shape
    e = Aeq.shape[0]
    x = np.full((k, n), np.nan)
    lam = np.zeros((k, A.shape[0]))
    mu = np.zeros((k, e))
    found = np.zeros(k, dtype=bool)
    visited = [set() for _ in range(k)]
    scale_b = 1.0 + np.abs(b).max(axis=1, initial=0.0)
    work = [sorted(int(i) for i in w) for w in work]
    pending = list(range(k))
    groups = 0
    steps = [0] * k
    for _ in range(max_updates):
        by_set: dict[tuple[int, ...], list[int]] = {}
        for i in pending:
            by_set.setdefault(tuple(work[i]), []).append(i)
        pending = []
        for ordered, members in by_set.items():
            w = list(ordered)
            # equality rows first so the independence filter can never drop them
            if w:
                kept = _independent_rows(np.vstack([Aeq, A[w]]))
                w = [w[j - e] for j in kept if j >= e]
            rows = sorted(w)
            key = tuple(rows)
            members = [i for i in members if key not in visited[i]]
            if not members:
                continue
            for i in members:
                visited[i].add(key)
                steps[i] += 1
            groups += 1
            rhs = np.hstack([-c[members], beq[members], b[members][:, rows]])
            try:
                sol = _kkt_solve(H, np.vstack([Aeq, A[rows]]), rhs)
            except np.linalg.LinAlgError:
                continue
            xs, mus, lam_w = sol[:, :n], sol[:, n : n + e], sol[:, n + e :]
            lam_tol = 1e-11 * (1.0 + np.abs(lam_w).max(axis=1, initial=0.0))
            neg = (lam_w < -lam_tol[:, None]).any(axis=1)
            resid = xs @ A.T - b[members]
            resid[:, rows] = 0.0
            viol = (resid > 1e-11 * scale_b[members][:, None]).any(axis=1)
            for g, i in enumerate(members):
                if neg[g]:
                    drop = rows[int(np.nanargmin(lam_w[g]))]
                    work[i] = [r for r in w if r != drop]
                elif viol[g]:
                    work[i] = [int(np.nanargmax(resid[g]))] + w
                else:
                    x[i], mu[i], found[i] = xs[g], mus[g], True
                    lam[i, rows] = np.maximum(lam_w[g], 0.0)
                    continue
                pending.append(i)
        if not pending:
            break
    return x, lam, mu, found, groups, np.array(steps, dtype=np.int64)


def _polish_full(H, A, Aeq, eq_rows, c, b, beq, guesses, max_updates=60, retry=False):
    """_polish on the independent equality rows eq_rows of Aeq, its
    multipliers spread back over every row of Aeq and its KKT residuals
    taken against the full Aeq.  With retry, an instance whose non-empty
    guess reaches no consistent set is polished again from the empty set.
    Returns (x, lam, mu, found, resid, groups, steps) with _polish's
    meaning."""
    Ae, be = Aeq[eq_rows], beq[:, eq_rows]
    x, lam, mu_r, found, groups, steps = _polish(H, A, Ae, c, b, be, guesses, max_updates)
    if retry:
        again = np.flatnonzero(~found & np.array([len(g) > 0 for g in guesses], dtype=bool))
        if again.size:
            x[again], lam[again], mu_r[again], found[again], more, extra = _polish(
                H, A, Ae, c[again], b[again], be[again], [[] for _ in again], max_updates
            )
            groups += more
            steps[again] += extra
    mu = np.zeros((c.shape[0], Aeq.shape[0]))
    mu[:, eq_rows] = mu_r
    return x, lam, mu, found, _kkt_residuals(H, A, Aeq, c, b, beq, x, lam, mu), groups, steps


def _optimal(resid, b, lam, mu, x, tol):
    """Which solutions pass the acceptance test, given their KKT residuals.

    Stationarity and complementarity are judged relative to the iterate
    scale (nearly parallel active rows blow the multipliers up without
    hurting the primal answer); primal feasibility stays an absolute test
    so runaway iterates can never pass."""
    b_scale = 1.0 + np.abs(b).max(axis=1, initial=0.0)
    mult = np.abs(np.hstack([lam, mu, x])).max(axis=1, initial=1.0)
    with np.errstate(invalid="ignore"):
        return (resid[:, 1] <= tol * b_scale) & (resid[:, [0, 2]].max(axis=1) <= tol * mult)


def _solve_cold(H, A, Aeq, eq_rows, c, b, beq, tol, max_iter):
    """The interior-point method, the LP probe and the polish for every
    instance of the stack; eq_rows are the independent rows of Aeq.
    Returns (status, x, lam, mu, resid, iterations, exits, steps, groups,
    probes), steps and groups counting polish factorizations as _polish
    does and probes the LPs solved."""
    k, n = c.shape
    m, e = A.shape[0], Aeq.shape[0]
    # x = x0 + Z y satisfies the independent equality rows (all of them
    # unless some are dependent); mu comes back from stationarity through P
    r = eq_rows.size
    Z = np.eye(n)
    x0 = np.zeros((k, n))
    if r:
        Q, R = np.linalg.qr(Aeq[eq_rows].T, mode="complete")
        Z = Q[:, r:]
        # rows of x0 and mu are beq @ P and -(Hx + c + A'lam) @ P'
        P = np.linalg.solve(R[:r], Q[:, :r].T)
        x0 = beq[:, eq_rows] @ P
    Hz = Z.T @ H @ Z
    Az = A @ Z
    cz = (x0 @ H + c) @ Z
    y = -np.linalg.solve(Hz, cz.T).T if Z.shape[1] else np.zeros((k, 0))
    lam = np.zeros((k, m))
    iterations = np.zeros(k, dtype=np.int64)
    exits = np.full(k, NONE, dtype=object)
    if m:
        y, lam, iterations, exits = _interior_point(Hz, Az, cz, b - x0 @ A.T, y, tol, max_iter)
    x = x0 + y @ Z.T
    mu = np.zeros((k, e))
    if eq_rows.size:
        mu[:, eq_rows] = -(x @ H + c + lam @ A) @ P.T

    resid = _kkt_residuals(H, A, Aeq, c, b, beq, x, lam, mu)
    probed = np.zeros(k, dtype=bool)
    feasible = np.ones(k, dtype=bool)
    steps = np.zeros(k, dtype=np.int64)
    groups = 0
    if m:
        # an instance that left the interior-point method other than
        # converged, or whose iterate ends clearly outside the feasible set,
        # is probed before any polish: on an infeasible instance the polish
        # can only exhaust its update budget, at many times the cost of the
        # probe
        slack = b - x @ A.T
        b_scale = 1.0 + np.abs(b).max(axis=1, initial=0.0)
        for i in np.flatnonzero((exits != CONVERGED) | (-slack.min(axis=1) > 1e-6 * b_scale)):
            probed[i] = True
            feasible[i] = _feasibility_probe(A, b[i], Aeq, beq[i])
        todo = np.flatnonzero(feasible)
        near = (slack < lam) | (slack <= 1e-8 * (1.0 + np.abs(b)))
        guesses = [np.flatnonzero(near[i]) for i in todo]
        px, plam, pmu, found, polished, groups, steps[todo] = _polish_full(
            H, A, Aeq, eq_rows, c[todo], b[todo], beq[todo], guesses, retry=True
        )
        with np.errstate(invalid="ignore"):
            accept = found & (
                polished.max(axis=1) <= np.maximum(tol, resid[todo].max(axis=1))
            )
        done = todo[accept]
        x[done], lam[done], mu[done] = px[accept], plam[accept], pmu[accept]
        resid[done] = polished[accept]

    optimal = _optimal(resid, b, lam, mu, x, tol)
    status = np.full(k, OPTIMAL, dtype=object)
    for i in np.flatnonzero(~optimal):
        if not probed[i]:
            probed[i] = True
            feasible[i] = _feasibility_probe(A, b[i], Aeq, beq[i])
        status[i] = NUMERICAL_FAILURE if feasible[i] else INFEASIBLE
    return status, x, lam, mu, resid, iterations, exits, steps, groups, int(probed.sum())


def solve_qp_batch(
    H: np.ndarray,
    A: np.ndarray,
    Aeq: np.ndarray,
    c: np.ndarray,
    b: np.ndarray,
    beq: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: list | None = None,
) -> QpBatch:
    """Solve k convex QPs that share H, A and Aeq to KKT residuals below tol.

    c, b and beq hold one instance per row: (k, n), (k, m) and (k, e).
    H must be symmetric positive definite (ValueError otherwise).
    Infeasible instances, including ones whose dependent equality rows
    disagree, are confirmed by an LP probe and reported via status rather
    than raised.  start, when given, holds one list of rows of A per
    instance, from which that instance is warm-started (see the module
    docstring); it is ignored when A has no rows.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    A = np.asarray(A, dtype=float).reshape(-1, n)
    Aeq = np.asarray(Aeq, dtype=float).reshape(-1, n)
    m, e = A.shape[0], Aeq.shape[0]
    c = np.asarray(c, dtype=float).reshape(-1, n)
    k = c.shape[0]
    b = np.asarray(b, dtype=float).reshape(k, m)
    beq = np.asarray(beq, dtype=float).reshape(k, e)

    if not np.abs(H - H.T).max(initial=0.0) <= 1e-11 * (1.0 + np.abs(H).max(initial=0.0)):
        raise ValueError("H must be symmetric")
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise ValueError("H must be positive definite") from None
    if start is not None and len(start) != k:
        raise ValueError(f"start must hold one entry for each of the {k} instances")

    eq_rows = _independent_rows(Aeq)
    x = np.empty((k, n))
    lam = np.zeros((k, m))
    mu = np.zeros((k, e))
    resid = np.empty((k, 3))
    iterations = np.zeros(k, dtype=np.int64)
    exits = np.full(k, NONE, dtype=object)
    status = np.full(k, OPTIMAL, dtype=object)
    warm = np.zeros(k, dtype=bool)
    steps = np.zeros(k, dtype=np.int64)
    groups = probes = 0
    if start is not None and m:
        work = [[int(r) for r in w] for w in start]
        if any(not 0 <= r < m for w in work for r in w):
            raise ValueError(f"start rows must lie in 0..{m - 1}")
        px, plam, pmu, found, presid, groups, steps = _polish_full(
            H, A, Aeq, eq_rows, c, b, beq, work, WARM_UPDATES
        )
        # the cold path's own acceptance test; a settled instance is optimal
        warm = found & _optimal(presid, b, plam, pmu, px, tol)
        x[warm], lam[warm], mu[warm], resid[warm] = px[warm], plam[warm], pmu[warm], presid[warm]
    if not warm.all():
        # a slice when no instance settled warm saves gathering the stack
        cold = np.flatnonzero(~warm) if warm.any() else slice(None)
        (status[cold], x[cold], lam[cold], mu[cold], resid[cold], iterations[cold], exits[cold],
         more, cold_groups, probes) = _solve_cold(
            H, A, Aeq, eq_rows, c[cold], b[cold], beq[cold], tol, max_iter
        )
        steps[cold] += more
        groups += cold_groups
    with np.errstate(invalid="ignore", over="ignore"):
        objective = 0.5 * np.einsum("ij,ij->i", x @ H, x) + np.einsum("ij,ij->i", c, x)
    return QpBatch(
        status, x, lam, mu, resid, iterations, objective,
        groups, probes, warm, exits, steps,
    )


def solve_qp(
    inst: QpInstance,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start=None,
) -> QpSolution:
    """Solve one convex QP to KKT residuals below ``tol``: the k = 1 case of
    solve_qp_batch, warm-started from the rows in start when given."""
    return solve_qp_batch(
        inst.H, inst.A, inst.Aeq, inst.c[None], inst.b[None], inst.beq[None], tol, max_iter,
        None if start is None else [start],
    ).solution(0)


def identify_active(inst: QpInstance, sol: QpSolution, eps_act: float) -> np.ndarray:
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
