"""Dense convex QP solver for stacks of instances that share their matrices.

Solves k instances of

    min  0.5 x'Hx + c'x   s.t.  A x <= b,  Aeq x = beq

that share H, A and Aeq and differ only in c, b and beq, for symmetric
positive definite H.  The equality rows are eliminated once, x = x0 + Z y,
so the interior-point method sees inequalities only: the polish's
independence filter picks the independent equality rows, and the complete
QR factorization of their transpose gives Z (its trailing columns) and x0
(a solve with its triangular factor).  A Mehrotra predictor-corrector then
advances all k instances at once: one GEMM forms the lower triangles of
their augmented Hessians, each is factored once per iteration (a matrix
that is not positive definite gets a NaN direction), and the predictor
and corrector directions are both solved with that factorization (no
inverses), while each instance keeps its own step lengths, best iterate
and exit.

The interior-point method holds its stack instance axis last: y as
(nz, k), z and lam as (m, k), one column per instance, and so are the
step's work arrays, so that its products are Az y, Az'lam and one GEMM
for the k triangles, and every per-instance max, min, all and dot product
reduces over axis 0, a contiguous row of k at a time.  numpy reduces a
short contiguous row axis slowly: at k = 1,000 (one BLAS thread), max
over axis 1 of a (k, 27) array takes 62 us and over axis 0 of its
(27, k) transpose 6.7 us, 90 against 25 us at 101 columns, and about the
same at 1,037.  The callers keep one instance per row; the method
transposes its inputs on entry and each instance's answers as it leaves.

The interior-point method sees each distinct inequality row once, as in
the duplicate-row step of LP presolve.  Of rows a'x <= b_1, ..., a'x <=
b_r that are equal entry for entry in x-space, only one with the least
right-hand side can bind, so the method gets one row per such group, at
each instance's least right-hand side in it, and each multiplier it
returns goes on the group's first row that holds that least value, the
other copies getting 0.  That is exact: the merged rows have the full
rows' feasible set and optimum; the kept row's slack is the merged row's,
and A'lam and b'lam do not change, so multipliers and Farkas rays of the
merged rows are those of the full rows.  Everything after the method (the
certificate check, the polish, the phase-1 problem) and the warm path work
on the full rows, and with no two rows equal the method gets them as they
are.  On a radial feeder a bus with no inverter at or below it has its
parent's voltage rows, so the 183 rows of the 80-bus bench feeder hold
101 distinct ones.

An instance leaves the interior-point method early once its multipliers
form a Farkas ray of its inequality rows, Az y <= bz: bz'lam < 0 with
|Az'lam| <= RAY_TOL (-bz'lam).  On a feasible instance no iterate can
pass that test unless every feasible y has |y|_1 >= 1 / RAY_TOL, since
bz'lam >= y'Az'lam >= -|y|_1 |Az'lam| for any feasible y and lam >= 0.
The test reuses the product Az'lam of the dual residual, so it costs one
dot product per instance and iteration, and infeasible instances leave
after a dozen iterations rather than after the interior-point method
collapses or stalls.

What depends only on H, A and Aeq is built once per problem, in
QpMatrices: H's check and Cholesky factor, the independent equality rows
with Z, P and Z'HZ, and A's groups of equal rows, so that a call forms
only each instance's least right-hand side in each group; and, on the
first cold solve, the interior-point method's rows Az, their transpose,
the lower triangles of their outer products and Z'HZ's lower triangle.
It is the only way the matrices reach the solver, so a caller that
solves many stacks on the same matrices builds it once and hands it to
every call; its objective is the one formula for 0.5 x'Hx + c'x.

A Newton polish on each guessed active set lands on the exact KKT point,
so active row residuals end up at machine precision rather than at
interior-point tolerance; instances that hold the same working set share
its independence filter and KKT factorization.

An instance that leaves on a Farkas ray is reported infeasible, with no
polish, when its multipliers also pass a Farkas check in x-space, on the
caller's own m inequality and e independent equality rows.  With mu =
-(lam A) P' (x0 = beq P; the cold path recovers mu from stationarity the
same way), r = A'lam + Aeq'mu, v = b'lam + beq'mu and g = 2 (m + e) eps,
it asks lam >= 0, V = v + g (|b|'lam + |beq|'|mu|) < 0 and
max_j |r_j| + g (|A|'lam + |Aeq|'|mu|)_j <= RAY_TOL (-V).  The g terms
bound the rounding of the two sums, so the exact v and r meet v < 0 and
|r|_inf <= RAY_TOL (-v).  Any x with A x <= b and Aeq x = beq has r'x =
lam'A x + mu'Aeq x <= v, so |x|_1 >= -v / |r|_inf >= 1 / RAY_TOL: the ray
test's bound, now free of the elimination's rounding.  A check on the
independent equality rows only is still a certificate for the full
system, whose feasible points are among those of the independent rows.
Every other instance, however it left the interior-point method (see
QpBatch.exit), is polished from the rows its iterate holds near-active;
_optimal, the one test that accepts a polished point, decides whether the
polished point replaces the iterate.

Each instance that is then neither optimal nor certified takes the
phase-1 problem  min 0.5 t^2 + 0.5 PHASE_ONE_EPS |x|^2  s.t.  A x - t <= b,
Aeq x - t <= beq,  -Aeq x - t <= -beq,  stacked with the others, through
the cold path and the polish but never the verdict.  With no equality
rows it is always feasible, and it is strictly convex.  At its optimum,
with lam its multipliers on A and mu = lam+ - lam- those on the two copies
of Aeq, A'lam + Aeq'mu = -PHASE_ONE_EPS x and b'lam + beq'mu = -(t^2 +
PHASE_ONE_EPS |x|^2), so (lam, mu) passes the Farkas check above, on all e
equality rows, once the rows conflict by a t with t^2 well above
PHASE_ONE_EPS |x|_inf / RAY_TOL and t above the sums' rounding, about
4e-7 (m + e) max|A|.  The verdict has one rule: optimal, else infeasible
on a checked certificate, which lam and mu hold, else a numerical failure.
solve_qp is the k = 1 case.  Everything is deterministic: no randomized
pivoting, no time-dependent behavior.

A warm start skips the interior-point method.  An instance given a start,
a list of inequality rows such as the active set of a neighbouring
critical region, first runs the polish from that set for at most
WARM_UPDATES rounds, each taking one row in or out.  When the polish
reaches a consistent set whose KKT point passes _optimal, the same test
as a cold polish, that point is the answer, with 0 interior-point
iterations; it equals the cold polish's answer bit for bit whenever both
end on the same working set.  Every instance that does not settle so,
an infeasible one among them, then takes the cold path unchanged:
interior point, certificate check, polish, and the phase-1 problem if it
is still neither optimal nor certified.  A start therefore costs at most
WARM_UPDATES factorizations, and an instance it does not settle gets the
cold answer.

Conventions: inequality multipliers lam >= 0 enter the stationarity
residual as A'lam, equality multipliers mu enter as Aeq'mu with free sign,
so  Hx + c + A'lam + Aeq'mu = 0  at the optimum.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical-failure"

DEFAULT_TOL = 1e-10
#: interior-point iterations an instance may take before it leaves with LIMIT
MAX_ITER = 200
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
#: polish rounds an instance may take from its interior-point guess
COLD_UPDATES = 60
#: weight of 0.5 |x|^2 in the phase-1 objective, which it makes strictly
#: convex; a conflict t is certified once RAY_TOL t^2 is well above
#: PHASE_ONE_EPS |x|_inf.  1e-17 certifies all 616 infeasible instances
#: that the tests, the 80-bus bench feeder's calibration and an
#: all-infeasible demo study reach, with every phase-1 optimal; 1e-13
#: certifies 449 of them.
PHASE_ONE_EPS = 1e-17

#: how an instance left the interior-point method (QpBatch.exit): on a
#: Farkas ray, converged, collapsed short of feasibility, stalled, after
#: its Newton step broke down, or at MAX_ITER; NONE where it never entered
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
class QpSolution:
    """Solver output: primal point, multipliers and KKT residuals.

    residuals = (stationarity, primal feasibility, complementarity), each an
    infinity norm; the primal one divides each row's violation by 1 + |its
    right-hand side|, so it is at most DEFAULT_TOL exactly when every row
    meets its own tolerance.  status is "optimal", "infeasible", or
    "numerical-failure"; x holds the best iterate either way.  iterations
    counts interior-point iterations and exit says how the method ended
    (NONE when it did not run); warm marks a solution that its warm start
    settled, and factorizations counts the polish's KKT factorizations.
    An infeasible instance holds its checked Farkas certificate in lam and
    mu (see the module docstring).
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

    Row i of every array is instance i, with QpSolution's meaning (the
    primal residual scaled row by row); status and exit hold Python
    strings.  factorizations counts, per instance, the polish's KKT
    factorizations it took part in, warm and cold;
    polish_groups counts them once each, as the instances that held the
    same working set shared them, and phase_one the instances that took
    the phase-1 problem: each that after the polish is neither optimal nor
    certified by its ray exit.
    """

    status: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    objective: np.ndarray
    polish_groups: int
    phase_one: int
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


def _independent_rows(K: np.ndarray) -> np.ndarray:
    """Greedy maximal independent row subset, earlier rows winning ties.

    Gram-Schmidt with a relative drop tolerance of 1e-10: each row is
    projected off the orthonormal basis of the rows kept so far in two
    classical passes, the second tightening orthogonality for
    near-dependent rows.
    Deterministic and order-respecting, which lets callers protect
    must-keep rows by placing them first.

    A set whose Gram matrix G = K K' has a smallest-to-largest eigenvalue
    ratio of at least 1e-12 is kept whole after one eigvalsh call: row i
    then lies 1 / sqrt((G^-1)_ii) >= sqrt(lam_min) >= 1e-6 sqrt(G_ii) from
    the span of the others, four orders above the drop tolerance, so the
    loop would keep every row.
    """
    if 0 < len(K) <= K.shape[1]:
        eig = np.linalg.eigvalsh(K @ K.T)
        # a row whose squared norm overflows is the loop's to drop
        if eig[0] >= 1e-12 * eig[-1] > 0.0 and eig[-1] < math.inf:
            return np.arange(len(K), dtype=np.int64)
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
        if norm1 > 1e-10 * norm0:
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
    """(k, 3) stationarity, primal and complementarity infinity norms, each
    row's primal violation divided by 1 + |its right-hand side|."""
    with np.errstate(invalid="ignore", over="ignore"):
        stat = np.abs(x @ H + c + lam @ A + mu @ Aeq).max(axis=1, initial=0.0)
        slack = b - x @ A.T
        prim = np.maximum(
            np.maximum(-(slack / (1.0 + np.abs(b))).min(axis=1, initial=0.0), 0.0),
            (np.abs(x @ Aeq.T - beq) / (1.0 + np.abs(beq))).max(axis=1, initial=0.0),
        )
        comp = np.abs(lam * slack).max(axis=1, initial=0.0)
    return np.column_stack([stat, prim, comp])


def _farkas(A, Aeq, b, beq, lam, mu) -> np.ndarray:
    """Which rows of (lam, mu) pass the Farkas check of the module docstring
    on  A x <= b,  Aeq x = beq,  one instance per row of b, beq, lam and
    mu, with the rounding of b'lam + beq'mu and A'lam + Aeq'mu bounded."""
    gamma = 2.0 * (A.shape[0] + Aeq.shape[0]) * np.finfo(float).eps
    abs_mu = np.abs(mu)
    with np.errstate(invalid="ignore", over="ignore"):
        v = (np.einsum("ij,ij->i", b, lam) + np.einsum("ij,ij->i", beq, mu)
             + gamma * (np.einsum("ij,ij->i", np.abs(b), lam)
                        + np.einsum("ij,ij->i", np.abs(beq), abs_mu)))
        r = np.abs(lam @ A + mu @ Aeq) + gamma * (lam @ np.abs(A) + abs_mu @ np.abs(Aeq))
        return (lam >= 0).all(axis=1) & (v < 0) & (r.max(axis=1, initial=0.0) <= -RAY_TOL * v)


def _ipm_residuals(Hz, Az, AzT, s):
    """Dual and primal residuals, the complementarity gap and Az' lam of
    every instance in the interior-point state s, one column per
    instance; AzT is Az.T, contiguous."""
    y, z, lam = s["y"], s["z"], s["lam"]
    lam_az = AzT @ lam
    r_d = Hz.T @ y + lam_az + s["cz"]
    r_p = Az @ y
    r_p += z
    r_p -= s["bz"]
    return r_d, r_p, np.einsum("ik,ik->k", z, lam) / z.shape[0], lam_az


@functools.lru_cache(maxsize=16)
def _triangle(n: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, low, up): the lower triangle of an n x n matrix row by
    row, and where its entries and their mirror images sit in the matrix
    flattened; read-only, as every caller shares them."""
    rows, cols = np.tril_indices(n)
    out = (rows, cols, rows * n + cols, cols * n + rows)
    for a in out:
        a.flags.writeable = False
    return out


def _spd_solver(tri: np.ndarray, n: int):
    """Factor once each symmetric n x n matrix of a stack given by its lower
    triangles, one column of tri per matrix in _triangle order; return
    solve(rhs), which gives column i of rhs (n rows) solved against matrix
    i, and NaN for a matrix that is not numerically positive definite.

    A stack of k matrices with k n >= 1024 is factored M = U E U' (U unit
    lower triangular, E diagonal: the Cholesky factorization, E holding the
    squares of its diagonal) a column at a time for all k at once, the
    instance axis last so that every step reads contiguous memory, and
    each solve is two substitutions; a matrix is not positive definite
    when some pivot in E is not positive, as a Cholesky factorization
    finds it.  That costs about 5n numpy calls per factorization and 2n per
    solve whatever k is, where LAPACK's stacked Cholesky and LU solve cost
    per matrix, so smaller stacks keep those, with the triangles
    transposed once and each right-hand side in and out: a Cholesky
    check, then an LU solve per right-hand side.  Per factorization and
    two solves (medians, one BLAS thread), LAPACK against substitution: at
    n = 14, 26 against 310 us for k = 1, 306 against 340 for k = 64, 587
    against 408 for k = 128 and 1,140 against 509 for k = 256; at n = 5,
    149 against 118 us for k = 128; at n = 102, 1.97 against 3.85 ms for
    k = 8 and 4.30 against 4.76 ms for k = 16.  The two cross near
    k n = 1,000-1,400 at n = 14 and 22 (the 80- and 123-bus feeders'
    problems), so the switch stays there; they cross near 500 at n = 5
    (the demo's) and 2,500 at n = 102, where the path it picks costs up
    to a third more between the crossing and the switch.
    """
    k = tri.shape[1]
    _, _, low, up = _triangle(n)
    if k * n < 1024:
        M = np.empty((k, n * n))
        M[:, low] = M[:, up] = tri.T
        M = M.reshape(k, n, n)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            # one such matrix fails the whole stacked call; find it
            for i, Mi in enumerate(M):
                try:
                    np.linalg.cholesky(Mi)
                except np.linalg.LinAlgError:
                    M[i] = np.nan

        def solve(rhs):
            try:
                x = np.linalg.solve(M, rhs.T[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                # a Cholesky factorization can pass on a matrix that
                # rounding leaves singular to LU; it fails the whole call
                x = np.full((k, n), np.nan)
                for i, Mi in enumerate(M):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        x[i] = np.linalg.solve(Mi, rhs[:, i])
            return np.ascontiguousarray(x.T)

        return solve

    # U overwrites the strict lower triangle of F and E its diagonal
    F = np.empty((n * n, k))
    F[low] = tri
    E = F[:: n + 1]
    F = F.reshape(n, n, k)
    with np.errstate(all="ignore"):
        for j in range(n):
            if j:
                v = F[j, :j] * E[:j]
                E[j] -= np.einsum("ik,ik->k", F[j, :j], v)
                F[j + 1 :, j] -= np.einsum("rik,ik->rk", F[j + 1 :, :j], v)
            F[j + 1 :, j] /= E[j]
    bad = ~(E > 0.0).all(axis=0)

    def solve(rhs):
        # U w = rhs row by row, then U' x = E^-1 w a column of U' at a time
        x = rhs.copy()
        with np.errstate(all="ignore"):
            for j in range(1, n):
                x[j] -= np.einsum("jk,jk->k", F[j, :j], x[:j])
            x /= E
            for j in range(n - 1, 0, -1):
                x[:j] -= F[j, :j] * x[j]
        x[:, bad] = np.nan
        return x

    return solve


def _newton(solve, base, Az, AzT, r_p, d, w):
    """Newton direction (dy, dz, dlam) for the complementarity target
    w = tau / z - lam, given the solver of the augmented Hessians and the
    target-free part base of the right-hand side."""
    dy = solve(base - AzT @ w)
    # dz = -r_p - Az dy and dlam = w - d dz, one array each
    dz = Az @ dy
    dz += r_p
    np.negative(dz, out=dz)
    dlam = d * dz
    np.subtract(w, dlam, out=dlam)
    return dy, dz, dlam


def _max_step(z, lam, dz, dlam):
    """Largest step in (0, 1] per instance that keeps z and lam nonnegative."""
    worst = -np.minimum((dz / z).min(axis=0), (dlam / lam).min(axis=0))
    return 1.0 / np.maximum(worst, 1.0)


def _corrector_target(solve, base, Az, AzT, r_p, d, z, lam, mu_c):
    """The corrector's complementarity target w = (sigma_mu - dz_a
    dlam_a) / z - lam, from the predictor direction (dz_a, dlam_a): the
    Newton direction for the target -lam."""
    _, dz_a, dlam_a = _newton(solve, base, Az, AzT, r_p, d, -lam)
    alpha_a = _max_step(z, lam, dz_a, dlam_a)
    z_a = alpha_a * dz_a
    z_a += z
    lam_a = alpha_a * dlam_a
    lam_a += lam
    mu_aff = np.einsum("ik,ik->k", z_a, lam_a) / z.shape[0]
    sigma_mu = np.where(mu_c > 0, (mu_aff / mu_c) ** 3, 0.0) * mu_c
    # written over z_a
    w = np.multiply(dz_a, dlam_a, out=z_a)
    np.subtract(sigma_mu, w, out=w)
    w /= z
    w -= lam
    return w


def _ipm_step(red, s, r_d, r_p, mu_c):
    """One predictor-corrector step of every instance in the
    interior-point state s, from its residuals (_ipm_residuals): writes
    the new y, z and lam into s, and marks in s["broken"] the instances
    whose step broke down.  The step's work arrays, each as large as z,
    are freed on return, so the method holds them only while it steps."""
    Hz, Hz_low, Az, AzT, AA = red
    y, z, lam = s["y"], s["z"], s["lam"]
    d = lam / z
    tri = AA @ d
    tri += Hz_low[:, None]
    solve = _spd_solver(tri, Hz.shape[0])
    del tri  # the solver holds its own copy
    base = -(r_d + AzT @ (d * r_p))
    w = _corrector_target(solve, base, Az, AzT, r_p, d, z, lam, mu_c)
    dy, dz, dlam = _newton(solve, base, Az, AzT, r_p, d, w)
    alpha = np.maximum(0.99, 1.0 - 10.0 * mu_c) * _max_step(z, lam, dz, dlam)
    # the step broke down (a factorization failed, giving NaN, or an
    # iterate overflowed): the instance stays put and leaves next time
    broken = ~(
        (alpha > 1e-14) & np.isfinite(dy).all(axis=0) & np.isfinite(dlam).all(axis=0)
    )
    if broken.any():
        alpha[broken] = 0.0
        dy[:, broken], dz[:, broken], dlam[:, broken] = 0.0, 0.0, 0.0
    s["broken"] = broken
    s["y"] = y + alpha * dy
    # z + alpha dz and lam + alpha dlam, over the directions; a full-length
    # step can land a slack on exactly zero, so keep it strictly interior,
    # where lam / z stays finite
    dz *= alpha
    dz += z
    s["z"] = np.maximum(dz, 1e-14, out=dz)
    dlam *= alpha
    dlam += lam
    s["lam"] = dlam


class _Reduced(NamedTuple):
    """The interior-point method's problem matrices: Hz with its lower
    triangle Hz_low (in _triangle order), the rows Az with AzT = Az.T
    (contiguous), and AA, column r of which holds the lower triangle of
    row r's outer product, so that the lower triangles of the augmented
    Hessians are one GEMM."""

    Hz: np.ndarray
    Hz_low: np.ndarray
    Az: np.ndarray
    AzT: np.ndarray
    AA: np.ndarray


def _reduced(Hz, Az) -> _Reduced:
    nz = Hz.shape[0]
    AzT = np.ascontiguousarray(Az.T)
    # written a triangle row at a time, with no gathered copy of Az as
    # large as AA
    AA = np.empty((nz * (nz + 1) // 2, Az.shape[0]))
    for i in range(nz):
        start = i * (i + 1) // 2
        np.multiply(AzT[i], AzT[: i + 1], out=AA[start : start + i + 1])
    rows, cols, _, _ = _triangle(nz)
    return _Reduced(Hz, Hz[rows, cols], Az, AzT, AA)


def _interior_point(red, cz, bz, y):
    """Mehrotra predictor-corrector on  min 0.5 y'Hz y + cz'y  s.t.
    Az y <= bz  for every row of cz and bz, started at y, with Hz and Az
    and what is formed from them in red (_reduced).

    Instances leave the stack one by one: on convergence, on an
    interior-point collapse short of feasibility, after 30 iterations
    without progress, the iteration after their Newton step broke down, or
    as soon as their multipliers form a Farkas ray of  Az y <= bz (see the
    module docstring), or at MAX_ITER.  Each returns its last iterate, or
    its best one when the last is worse or not finite, as (y, lam,
    iterations, exit), exit holding each instance's exit kind: RAY,
    CONVERGED, COLLAPSE, STALL, BROKEN or LIMIT, the first that applies.
    A ray exit always returns the multipliers that passed the ray test.

    Each iteration forms the lower triangles of the k augmented Hessians
    Hz + Az' diag(lam / z) Az in one GEMM and factors each once
    (_spd_solver); the predictor and the corrector direction are solved
    with that factorization.  A matrix that fails it gives a NaN direction,
    so the instance's step breaks down and it leaves with BROKEN.

    The method holds its stack instance axis last (see the module
    docstring): cz, bz and y are transposed once on entry, and each
    instance's answers once as it leaves.
    """
    k, nz = cz.shape
    Hz, Hz_low, Az, AzT, AA = red
    m = Az.shape[0]
    y = np.ascontiguousarray(y.T)
    bz = np.ascontiguousarray(bz.T)
    z = bz - Az @ y
    lam = np.ones((m, k))
    # column i of every array, entry i of every vector, belongs to
    # instance idx[i]; leave() is the one place that shrinks the stack,
    # and it filters every array in s
    s = {
        "idx": np.arange(k), "cz": np.ascontiguousarray(cz.T), "bz": bz,
        "y": y, "z": np.where(z > 1.0, z, 1.0), "lam": lam,
        "best": np.full(k, np.inf), "best_y": y, "best_lam": lam,
        "stall": np.zeros(k, dtype=np.int64), "broken": np.zeros(k, dtype=bool),
        "ray": np.zeros(k, dtype=bool),
    }
    # s alone holds the state, so its arrays are freed as the stack shrinks
    del y, bz, z, lam
    out_y = np.empty((k, nz))
    out_lam = np.empty((k, m))
    iters = np.zeros(k, dtype=np.int64)
    exits = np.empty(k, dtype=np.int64)

    def leave(s, out, it, kind):
        """Store the answers of the instances in out, whose exit kinds are
        in kind (one index into IPM_EXITS per instance of s); return the
        state of the others."""
        yo, lo = s["y"][:, out], s["lam"][:, out]
        slack = s["bz"][:, out] - Az @ yo
        now = np.maximum(
            np.maximum(np.abs(Hz.T @ yo + s["cz"][:, out] + AzT @ lo).max(axis=0, initial=0.0),
                       -slack.min(axis=0)),
            np.abs(lo * slack).max(axis=0),
        )
        take_best = ~np.isfinite(now) | (s["best"][out] < now)
        i = s["idx"][out]
        out_y[i] = np.where(take_best, s["best_y"][:, out], yo).T
        # a ray exit keeps the multipliers that passed the ray test
        ray = kind[out] == IPM_EXITS.index(RAY)
        out_lam[i] = np.where(take_best & ~ray, s["best_lam"][:, out], lo).T
        # an instance whose step broke down did not take this iteration's step
        iters[i] = it - s["broken"][out]
        exits[i] = kind[out]
        return {name: a[..., ~out] for name, a in s.items()}

    with np.errstate(all="ignore"):
        for it in range(1, MAX_ITER + 1):
            r_d, r_p, mu_c, lam_az = _ipm_residuals(Hz, Az, AzT, s)
            rp_max = np.abs(r_p).max(axis=0)
            merit = np.maximum(np.maximum(np.abs(r_d).max(axis=0, initial=0.0), rp_max), mu_c)
            better = merit < s["best"]
            s["best"] = np.where(better, merit, s["best"])
            if better.all():
                # a step replaces y and lam rather than writing into
                # them, so the best iterate may share them, and the copies
                # below then write into buffers that only it holds
                s["best_y"], s["best_lam"] = s["y"], s["lam"]
            else:
                np.copyto(s["best_y"], s["y"], where=better)
                np.copyto(s["best_lam"], s["lam"], where=better)
            s["stall"] = np.where(better, 0, s["stall"] + 1)
            b_lam = np.einsum("ik,ik->k", s["bz"], s["lam"])
            s["ray"] = (b_lam < 0) & (
                np.abs(lam_az).max(axis=0, initial=0.0) <= -RAY_TOL * b_lam
            )
            # certified infeasible, converged, collapsed without reaching
            # feasibility, stalled, or the last Newton step broke down
            tests = (
                s["ray"], merit <= DEFAULT_TOL, (mu_c < 1e-12) & (rp_max > 1e-7),
                s["stall"] > 30, s["broken"],
            )
            out = tests[0] | tests[1] | tests[2] | tests[3] | tests[4]
            if out.any():
                # the first test that holds names the exit
                s = leave(s, out, it, np.argmax(tests, axis=0))
                if not s["idx"].size:
                    break
                r_d, r_p, mu_c, _ = _ipm_residuals(Hz, Az, AzT, s)

            _ipm_step(red, s, r_d, r_p, mu_c)
        else:
            left = s["idx"].size
            leave(s, np.ones(left, dtype=bool), MAX_ITER, np.full(left, IPM_EXITS.index(LIMIT)))
    return out_y, out_lam, iters, np.asarray(IPM_EXITS, dtype=object)[exits]


def _polish(H, A, Aeq, c, b, beq, work, max_updates):
    """Newton refinement on each instance's working set until multiplier
    signs and primal feasibility agree.

    work maps each starting working set, a tuple of rows of A, to the
    instances that hold it, an index array in increasing order.  Returns
    (x, lam, mu, found, groups, steps), found marking the instances that
    reached a consistent set within the update budget, groups counting
    the KKT factorizations and steps, per instance, those it took part in.

    A round takes the working sets in order.  The instances that hold one
    share its independence filter and one KKT factorization, solved for
    all their right-hand sides, and are judged as one array: each that
    goes on drops the row with the most negative multiplier or takes in
    the most violated row.  The next round takes the sets this round
    reached in the order it first reached them, each holding the
    instances that reached it in the order this round took them, so every
    factorization serves the instances, in the order, that a loop over
    the instances one at a time would group.

    Each working set is kept newest row first.  A violated row that the
    step adds can be linearly dependent on rows already in the set; the
    independence filter then drops an older row instead of the new one,
    which would otherwise be re-added at once and close a cycle.  An
    instance whose filtered set repeats one it visited stops there (each
    filtered set keeps a mask of the instances that visited it).
    """
    k, n = c.shape
    m, e = A.shape[0], Aeq.shape[0]
    x = np.full((k, n), np.nan)
    lam = np.zeros((k, m))
    mu = np.zeros((k, e))
    found = np.zeros(k, dtype=bool)
    visited: dict[tuple[int, ...], np.ndarray] = {}
    scale_b = 1.0 + np.abs(b).max(axis=1, initial=0.0)
    # the members of every factorization, counted per instance at the end
    solved = []
    for _ in range(max_updates):
        reached: dict[tuple[int, ...], list[np.ndarray]] = {}
        for ordered, members in work.items():
            w = list(ordered)
            # equality rows first so the independence filter can never drop them
            if w:
                kept = _independent_rows(np.vstack([Aeq, A[w]]))
                w = [w[j - e] for j in kept if j >= e]
            rows = sorted(w)
            key = tuple(rows)
            seen = visited.get(key)
            if seen is None:
                seen = visited[key] = np.zeros(k, dtype=bool)
            else:
                members = members[~seen[members]]
                if not members.size:
                    continue
            seen[members] = True
            solved.append(members)
            rhs = np.hstack([-c[members], beq[members], b[members][:, rows]])
            try:
                sol = _kkt_solve(H, np.vstack([Aeq, A[rows]]), rhs)
            except np.linalg.LinAlgError:
                continue
            xs, mus, lam_w = sol[:, :n], sol[:, n : n + e], sol[:, n + e :]
            lam_tol = 1e-11 * (1.0 + np.abs(lam_w).max(axis=1, initial=0.0))
            neg = (lam_w < -lam_tol[:, None]).any(axis=1)
            with np.errstate(invalid="ignore", over="ignore"):
                resid = xs @ A.T - b[members]
            resid[:, rows] = 0.0
            viol = (resid > 1e-11 * scale_b[members][:, None]).any(axis=1)
            # each member's move: the row it drops, m + the row it takes
            # in, or -1 where its set is consistent; the rows are
            # nanargmin's and nanargmax's, whose all-NaN check no row here
            # needs, as each holds the number that moved it
            move = np.full(members.size, -1)
            if neg.any():
                low = lam_w[neg]
                move[neg] = np.asarray(rows)[np.where(np.isnan(low), np.inf, low).argmin(axis=1)]
            take = viol & ~neg
            if take.any():
                high = resid[take]
                move[take] = m + np.where(np.isnan(high), -np.inf, high).argmax(axis=1)
            done = move < 0
            if done.any():
                fin = members[done]
                x[fin], mu[fin], found[fin] = xs[done], mus[done], True
                lam[fin[:, None], rows] = np.maximum(lam_w[done], 0.0)
            for row in dict.fromkeys(move[~done].tolist()):
                new = [row - m, *w] if row >= m else [r for r in w if r != row]
                reached.setdefault(tuple(new), []).append(members[move == row])
        work = {s: p[0] if len(p) == 1 else np.concatenate(p) for s, p in reached.items()}
        if not work:
            break
    steps = np.bincount(np.concatenate(solved), minlength=k) if solved else np.zeros(k, np.int64)
    return x, lam, mu, found, len(solved), steps


def _settle(prep, c, b, beq, todo, work, max_updates, point):
    """_polish instances todo of the stack from the working sets work
    (positions into todo, as _polish takes them), on the independent
    equality rows, with their multipliers spread back over every row of
    Aeq.  Each polished point that passes _optimal, its KKT residuals
    taken against the full Aeq, is written into point = (x, lam, mu,
    resid) at its instance's row.  Returns (settled, groups, steps):
    which of todo were written, and _polish's counts."""
    c, b, beq = c[todo], b[todo], beq[todo]
    px, plam, pmu_r, found, groups, steps = _polish(
        prep.H, prep.A, prep.Aeq_ind, c, b, beq[:, prep.eq_rows], work, max_updates
    )
    pmu = np.zeros((todo.size, prep.Aeq.shape[0]))
    pmu[:, prep.eq_rows] = pmu_r
    presid = _kkt_residuals(prep.H, prep.A, prep.Aeq, c, b, beq, px, plam, pmu)
    settled = found & _optimal(presid, plam, pmu, px)
    done = todo[settled]
    for out, polished in zip(point, (px, plam, pmu, presid)):
        out[done] = polished[settled]
    return settled, groups, steps


def _optimal(resid, lam, mu, x):
    """Which solutions pass the acceptance test, given their KKT residuals.

    Stationarity and complementarity are judged relative to the iterate
    scale (nearly parallel active rows blow the multipliers up without
    hurting the primal answer).  Primal feasibility is judged row by row,
    each row's violation against 1 + |its right-hand side| (as
    _kkt_residuals scales it), so runaway iterates can never pass and a
    loose row cannot hide a violated one."""
    dual_tol = DEFAULT_TOL * np.abs(np.hstack([lam, mu, x])).max(axis=1, initial=1.0)
    with np.errstate(invalid="ignore"):
        return (resid[:, 1] <= DEFAULT_TOL) & (resid[:, [0, 2]].max(axis=1) <= dual_tol)


class _RowGroups(NamedTuple):
    """A's rows that are equal entry for entry, in groups: keep holds each
    group's first row, in row order; order lists the rows group by group,
    each group's in row order, the groups starting at starts; group gives
    each position of order its group, and first_row puts the groups in the
    order of their first rows."""

    keep: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    group: np.ndarray
    first_row: np.ndarray


def _row_groups(A) -> _RowGroups:
    """A's groups of equal rows (-0.0 equal to 0.0, a row with NaN alone),
    one group per row when no two rows are equal."""
    m = A.shape[0]
    # a stable sort keeps each group's rows in row order
    order = np.lexsort(A.T)
    sorted_A = A[order]
    new = np.ones(m, dtype=bool)
    new[1:] = (sorted_A[1:] != sorted_A[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    first_row = np.argsort(order[starts])
    return _RowGroups(order[starts][first_row], order, starts, np.cumsum(new) - 1, first_row)


def _least(groups: _RowGroups, b):
    """(rows, least) for the right-hand sides b (one instance per row),
    with a column per group in the order of groups.keep: least[i, g] is
    instance i's least right-hand side in group g and rows[i, g] the
    group's first row that holds it."""
    order, starts = groups.order, groups.starts
    m = order.size
    sorted_b = b[:, order]
    least = np.minimum.reduceat(sorted_b, starts, axis=1)
    # the first position at the least value (at the group's first row when
    # the least is NaN, which no comparison exceeds)
    above = sorted_b > least[:, groups.group]
    rows = order[np.minimum.reduceat(np.where(above, m, np.arange(m)), starts, axis=1)]
    return rows[:, groups.first_row], least[:, groups.first_row]


def _block(M, n: int, name: str) -> np.ndarray:
    """M as a float array of rows with n columns; no entries at all read
    as no rows."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        M = M.reshape(0, n)
    if M.ndim != 2 or M.shape[1] != n:
        raise ValueError(f"{name} must have {n} columns, got shape {M.shape}")
    return M


class QpMatrices:
    """The matrices H, A and Aeq that a stack of instances shares, checked,
    with what every solve on them shares, built once: L, with H = L L';
    eq_rows, the independent rows of Aeq (Aeq_ind holds them); Z, whose
    columns span their null space, P, with x0 = beq P on them, and Hz =
    Z'HZ; and A's groups of equal rows, with A_dist holding one row per
    group.  reduced, the interior-point method's matrices on A_dist, is
    built on the first cold solve.  Raises ValueError unless H is square,
    symmetric and positive definite and A and Aeq have H's column count (a
    block with no entries has no rows)."""

    def __init__(self, H, A, Aeq):
        self.H = H = np.asarray(H, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be square, got shape {H.shape}")
        n = H.shape[0]
        self.A = A = _block(A, n, "A")
        self.Aeq = Aeq = _block(Aeq, n, "Aeq")
        if not np.abs(H - H.T).max(initial=0.0) <= 1e-11 * (1.0 + np.abs(H).max(initial=0.0)):
            raise ValueError("H must be symmetric")
        try:
            self.L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ValueError("H must be positive definite") from None
        self.eq_rows = _independent_rows(Aeq)
        self.Aeq_ind = Aeq[self.eq_rows]
        # x = x0 + Z y satisfies the independent equality rows (all of them
        # unless some are dependent); mu comes back from stationarity
        # through P
        r = self.eq_rows.size
        self.Z, self.P = np.eye(n), None
        if r:
            Q, R = np.linalg.qr(self.Aeq_ind.T, mode="complete")
            self.Z = Q[:, r:]
            # rows of x0 and mu are beq @ P and -(Hx + c + A'lam) @ P'
            self.P = np.linalg.solve(R[:r], Q[:, :r].T)
        self.Hz = self.Z.T @ H @ self.Z
        self.groups = _row_groups(A)
        self.A_dist = A[self.groups.keep]

    @functools.cached_property
    def reduced(self) -> _Reduced:
        return _reduced(self.Hz, self.A_dist @ self.Z)

    def objective(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """0.5 x'Hx + c'x of each row of x at the same row of c; NaN where
        x holds one."""
        with np.errstate(invalid="ignore", over="ignore"):
            return 0.5 * np.einsum("ij,ij->i", x @ self.H, x) + np.einsum("ij,ij->i", c, x)


def _solve_cold(prep, c, b, beq):
    """The interior-point method for every instance of the stack, over the
    distinct rows of A (see the module docstring), its iterate taken back
    to x-space, and the Farkas check of its ray exits on every row.
    Returns (x, lam, mu, iterations, exits, certified), certified marking
    the instances whose lam and mu are a checked certificate."""
    H, A, eq_rows, P, Z = prep.H, prep.A, prep.eq_rows, prep.P, prep.Z
    k, n = c.shape
    m, e = A.shape[0], prep.Aeq.shape[0]
    r = eq_rows.size
    # a non-finite c or beq makes NaN of these products (0 inf, inf - inf),
    # which ends in a numerical failure, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        x0 = beq[:, eq_rows] @ P if r else np.zeros((k, n))
        cz = (x0 @ H + c) @ Z
        y = -np.linalg.solve(prep.Hz, cz.T).T if Z.shape[1] else np.zeros((k, 0))
        iterations = np.zeros(k, dtype=np.int64)
        exits = np.full(k, NONE, dtype=object)
        if not m:
            lam = np.zeros((k, 0))
        else:
            # one row per group at each instance's least right-hand side in
            # it; each multiplier goes back to the row that holds that side
            rows, bz = _least(prep.groups, b)
            bz -= x0 @ prep.A_dist.T
            y, lam_k, iterations, exits = _interior_point(prep.reduced, cz, bz, y)
            lam = np.zeros((k, m))
            lam[np.arange(k)[:, None], rows] = lam_k
        x = x0 + y @ Z.T
        mu = np.zeros((k, e))
        if r:
            mu[:, eq_rows] = -(x @ H + c + lam @ A) @ P.T

    # an instance whose ray passes the Farkas check is infeasible and
    # holds its certificate in lam and mu
    ray = np.flatnonzero(exits == RAY)
    mu_ray = -(lam[ray] @ A) @ P.T if r else np.zeros((ray.size, 0))
    ok = _farkas(A, prep.Aeq_ind, b[ray], beq[ray][:, eq_rows], lam[ray], mu_ray)
    certified = np.zeros(k, dtype=bool)
    certified[ray[ok]] = True
    mu[np.ix_(ray[ok], eq_rows)] = mu_ray[ok]
    return x, lam, mu, iterations, exits, certified


def _solve(prep, c, b, beq, start):
    """The stack up to the verdict: the warm start when start is given,
    then _solve_cold and the polish for every instance it did not settle.
    Returns ((x, lam, mu, resid), iterations, exits, certified, warm,
    steps, groups), named as in QpBatch and _solve_cold."""
    A, Aeq = prep.A, prep.Aeq
    k, n = c.shape
    m, e = A.shape[0], Aeq.shape[0]
    x = np.empty((k, n))
    lam = np.zeros((k, m))
    mu = np.zeros((k, e))
    resid = np.empty((k, 3))
    point = (x, lam, mu, resid)
    iterations = np.zeros(k, dtype=np.int64)
    exits = np.full(k, NONE, dtype=object)
    certified = np.zeros(k, dtype=bool)
    warm = np.zeros(k, dtype=bool)
    steps = np.zeros(k, dtype=np.int64)
    groups = 0
    if start is not None and m:
        work: dict[tuple[int, ...], list[int]] = {}
        for i, w in enumerate(start):
            work.setdefault(tuple(sorted(int(r) for r in w)), []).append(i)
        if any(not 0 <= r < m for w in work for r in w):
            raise ValueError(f"start rows must lie in 0..{m - 1}")
        warm, groups, steps = _settle(
            prep, c, b, beq, np.arange(k), {w: np.array(i) for w, i in work.items()},
            WARM_UPDATES, point,
        )
    if not warm.all():
        # a slice when no instance settled warm saves gathering the stack
        cold = np.flatnonzero(~warm) if warm.any() else slice(None)
        x[cold], lam[cold], mu[cold], iterations[cold], exits[cold], certified[cold] = (
            _solve_cold(prep, c[cold], b[cold], beq[cold])
        )
        resid[cold] = _kkt_residuals(
            prep.H, A, Aeq, c[cold], b[cold], beq[cold], x[cold], lam[cold], mu[cold]
        )
        todo = np.flatnonzero(~warm & ~certified)
        if m and todo.size:
            guesses = _near_active(A, b[cold], x[cold], lam[cold], ~certified[cold])
            _, more, cold_steps = _settle(prep, c, b, beq, todo, guesses, COLD_UPDATES, point)
            steps[todo] += cold_steps
            groups += more
    return point, iterations, exits, certified, warm, steps, groups


def _near_active(A, b, x, lam, keep):
    """The polish's starting working sets, as _polish takes them, for the
    interior-point iterates (x, lam) (one instance per row) that keep
    marks: the rows an iterate holds near-active, one set per pattern,
    held by the kept instances that show it (positions among them), the
    patterns in the order they first appear."""
    with np.errstate(invalid="ignore", over="ignore"):
        slack = b - x @ A.T
    near = ((slack < lam) | (slack <= 1e-8 * (1.0 + np.abs(b))))[keep]
    # each instance's pattern as one byte string
    packed = np.packbits(near, axis=1)
    _, first, which = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
        return_index=True, return_inverse=True,
    )
    holders = np.split(np.argsort(which, kind="stable"), np.cumsum(np.bincount(which))[:-1])
    return {tuple(np.flatnonzero(near[first[p]]).tolist()): holders[p] for p in np.argsort(first)}


def _phase_one(A, Aeq, b, beq):
    """Candidate Farkas certificates (lam, mu) of  A x <= b,  Aeq x = beq,
    one instance per row of b and beq: the phase-1 multipliers (see the
    module docstring)."""
    k = b.shape[0]
    (m, n), e = A.shape, Aeq.shape[0]
    # over (x, t): A x - t <= b,  Aeq x - t <= beq,  -Aeq x - t <= -beq
    A1 = np.hstack([np.vstack([A, Aeq, -Aeq]), np.full((m + 2 * e, 1), -1.0)])
    H1 = np.diag(np.append(np.full(n, PHASE_ONE_EPS), 1.0))
    (_, lam1, _, _), *_ = _solve(QpMatrices(H1, A1, np.zeros((0, n + 1))), np.zeros((k, n + 1)),
                                 np.hstack([b, beq, -beq]), np.zeros((k, 0)), None)
    return lam1[:, :m], lam1[:, m : m + e] - lam1[:, m + e :]


def solve_qp_batch(
    prep: QpMatrices,
    c: np.ndarray,
    b: np.ndarray,
    beq: np.ndarray,
    start: list | None = None,
) -> QpBatch:
    """Solve k convex QPs on the shared matrices prep to KKT residuals
    below DEFAULT_TOL.

    c, b and beq hold one instance per row: (k, n), (k, m) and (k, e)
    (ValueError otherwise).  Each instance gets one verdict in status:
    optimal, else infeasible on a checked Farkas certificate, from its ray
    exit or from the phase-1 problem (see the module docstring), else a
    numerical failure.  Infeasible instances, including ones whose
    dependent equality rows disagree, are reported so rather than raised.
    start, when given, holds one list of rows of A per instance, from
    which that instance is warm-started (see the module docstring); it is
    ignored when A has no rows.
    """
    A, Aeq = prep.A, prep.Aeq
    n = prep.H.shape[0]
    m, e = A.shape[0], Aeq.shape[0]
    c, b, beq = (np.asarray(v, dtype=float) for v in (c, b, beq))
    k = c.shape[0] if c.ndim == 2 else -1
    if (c.shape, b.shape, beq.shape) != ((k, n), (k, m), (k, e)):
        raise ValueError(
            f"c, b and beq must have shapes (k, {n}), (k, {m}) and (k, {e}), "
            f"got {c.shape}, {b.shape} and {beq.shape}"
        )
    if start is not None and len(start) != k:
        raise ValueError(f"start must hold one entry for each of the {k} instances")

    (x, lam, mu, resid), iterations, exits, certified, warm, steps, groups = _solve(
        prep, c, b, beq, start
    )
    # the one verdict: optimal, else infeasible on a checked certificate,
    # from a ray exit or from the phase-1 problem, else a numerical failure
    optimal = _optimal(resid, lam, mu, x)
    rest = np.flatnonzero(~optimal & ~certified)
    if rest.size:
        plam, pmu = _phase_one(A, Aeq, b[rest], beq[rest])
        ok = _farkas(A, Aeq, b[rest], beq[rest], plam, pmu)
        proved = rest[ok]
        lam[proved], mu[proved], certified[proved] = plam[ok], pmu[ok], True
    status = np.full(k, NUMERICAL_FAILURE, dtype=object)
    status[certified] = INFEASIBLE
    status[optimal] = OPTIMAL
    return QpBatch(
        status, x, lam, mu, resid, iterations, prep.objective(c, x),
        groups, rest.size, warm, exits, steps,
    )


def solve_qp(prep: QpMatrices, c, b, beq, start=None) -> QpSolution:
    """Solve one convex QP on the shared matrices prep to KKT residuals
    below DEFAULT_TOL: the k = 1 case of solve_qp_batch, with c, b and
    beq one instance's rows, warm-started from the rows in start when
    given."""
    return solve_qp_batch(
        prep, np.asarray(c)[None], np.asarray(b)[None], np.asarray(beq)[None],
        None if start is None else [start],
    ).solution(0)


def identify_active(A: np.ndarray, b: np.ndarray, x: np.ndarray, eps_act: float) -> np.ndarray:
    """Indices of the rows of A x <= b active at x.

    A row counts as active when the magnitude of its residual A x - b is at
    most ``eps_act``; the test is applied row by row, so a tiny positive
    overshoot and a tiny negative slack are treated alike.  Returns sorted
    0-based indices.
    """
    return np.flatnonzero(np.abs(A @ x - b) <= eps_act).astype(np.int64)
