"""Critical-region algebra for the parametric QP.

Once an active set is fixed, the KKT system becomes linear in theta: the
minimizer, the multipliers of the active rows, and the equality
multipliers are all affine maps of theta.  A region serves a parameter
when the mapped point is certified: primal feasible on every row, with
nonnegative multipliers on the active rows.  RegionContext factors the
cost matrix once per problem; build_region then costs one small dense
solve per active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import RankDeficientKError

#: relative eigenvalue cutoff below which the stacked active/equality
#: system is treated as rank deficient
RANK_TOL = 1e-10

#: a mapped point is certified when every inequality residual is at most
#: SCREEN_PRIMAL and every active-row multiplier at least -SCREEN_DUAL
SCREEN_PRIMAL = 1e-8
SCREEN_DUAL = 1e-8


@dataclass(frozen=True)
class CriticalRegion:
    """Closed-form optimizer of one active set.

    x(theta) = M theta + r; active-row multipliers G1 theta + w1; equality
    multipliers G2 theta + w2.  A is the problem's inequality matrix, held
    by reference for the certification in batch_membership.
    """

    active_set: tuple[int, ...]
    M: np.ndarray
    r: np.ndarray
    G1: np.ndarray
    w1: np.ndarray
    G2: np.ndarray
    w2: np.ndarray
    A: np.ndarray

    @property
    def signature(self) -> tuple[int, ...]:
        return self.active_set

    def batch_membership(self, thetas: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Mask of the stacked parameter rows whose mapped point is certified.

        rhs holds their inequality right-hand sides E theta + b.  Certified
        means every residual A x - rhs at most SCREEN_PRIMAL and every
        active-row multiplier at least -SCREEN_DUAL.  The maps satisfy
        stationarity, the equality rows and complementarity (zero
        multiplier or zero residual on every row) by construction, so a
        certified point is optimal.
        """
        primal = (self.batch_solutions(thetas) @ self.A.T - rhs).max(axis=1, initial=-np.inf)
        dual = (thetas @ self.G1.T + self.w1).min(axis=1, initial=np.inf)
        return (primal <= SCREEN_PRIMAL) & (dual >= -SCREEN_DUAL)

    def batch_solutions(self, thetas: np.ndarray) -> np.ndarray:
        return thetas @ self.M.T + self.r


class RegionContext:
    """Per-problem factorizations shared by every region build.

    Holds the Cholesky factor of H and the products of H^-1 with C, d, A',
    and B', so each region only pays for the small stacked system of its
    own active set.
    """

    def __init__(self, prob):
        self.prob = prob
        self.n_var = prob.H.shape[0]
        self.n_rows = prob.A.shape[0]
        self.n_eq = prob.B.shape[0]
        self._cf = cho_factor(prob.H)
        self.HinvC = cho_solve(self._cf, prob.C)
        self.Hinvd = cho_solve(self._cf, prob.d)
        self.HinvAT = cho_solve(self._cf, prob.A.T) if self.n_rows else np.zeros((self.n_var, 0))
        self.HinvBT = cho_solve(self._cf, prob.B.T) if self.n_eq else np.zeros((self.n_var, 0))
        # Gram blocks of [A; B] H^-1 [A; B]'
        self.AHA = prob.A @ self.HinvAT
        self.AHB = prob.A @ self.HinvBT
        self.BHB = prob.B @ self.HinvBT
        self.AHC = prob.A @ self.HinvC
        self.AHd = prob.A @ self.Hinvd
        self.BHC = prob.B @ self.HinvC
        self.BHd = prob.B @ self.Hinvd

    def build_region(self, active_set) -> CriticalRegion:
        """Region for one active-set signature.

        Raises RankDeficientKError when the active rows stacked on the
        equalities lose row rank, which is the degenerate case the batch
        driver falls back to direct solves for.
        """
        act = np.asarray(sorted(int(i) for i in active_set), dtype=np.int64)
        if act.size and (act[0] < 0 or act[-1] >= self.n_rows):
            raise IndexError(f"active row index out of range: {act}")
        prob = self.prob
        a, e = act.size, self.n_eq
        k = a + e

        if k:
            KHK = np.empty((k, k))
            KHK[:a, :a] = self.AHA[np.ix_(act, act)]
            KHK[:a, a:] = self.AHB[act]
            KHK[a:, :a] = self.AHB[act].T
            KHK[a:, a:] = self.BHB
            evals = np.linalg.eigvalsh(KHK)
            if evals[0] <= RANK_TOL * max(evals[-1], 1.0):
                raise RankDeficientKError(
                    f"active set {tuple(act)} with the equality rows is rank deficient"
                )
            KHC = np.vstack([self.AHC[act], self.BHC]) if e else self.AHC[act]
            KHd = np.concatenate([self.AHd[act], self.BHd]) if e else self.AHd[act]
            EF = np.vstack([prob.E[act], prob.F]) if e else prob.E[act]
            bf = np.concatenate([prob.b[act], prob.f]) if e else prob.b[act]
            cf = cho_factor(KHK)
            G = -cho_solve(cf, KHC + EF)
            w = -cho_solve(cf, KHd + bf)
            G1, G2 = G[:a], G[a:]
            w1, w2 = w[:a], w[a:]
            HKT = np.hstack([self.HinvAT[:, act], self.HinvBT]) if e else self.HinvAT[:, act]
            M = -self.HinvC - HKT @ G
            r = -self.Hinvd - HKT @ w
        else:
            G1 = np.zeros((0, prob.C.shape[1]))
            w1 = np.zeros(0)
            G2 = np.zeros((0, prob.C.shape[1]))
            w2 = np.zeros(0)
            M = -self.HinvC
            r = -self.Hinvd

        return CriticalRegion(
            active_set=tuple(int(i) for i in act),
            M=M,
            r=r,
            G1=G1,
            w1=w1,
            G2=G2,
            w2=w2,
            A=prob.A,
        )
