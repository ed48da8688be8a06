"""Critical-region algebra for the parametric QP, in the QP's own data.

An instance is min 1/2 x'Hx + c'x subject to A x <= rhs_A and B x = rhs_B,
where the parameters enter only through c and rhs.  Stack K = [A; B].
Once an active set is fixed, the KKT system of the active rows and the
equality rows (K_S, say) is linear in the instance data:

    lam = (K_S H^-1 K_S')^-1 (K_S xu - rhs_S),    x = xu - H^-1 K_S' lam,

with xu = -H^-1 c the unconstrained minimizer.  A region serves an
instance when this point is certified: primal feasible on every row, with
nonnegative multipliers on the active rows.  RegionContext forms, once
per problem, W = L^-1 K' from the Cholesky factor L of H that QpMatrices
keeps, then H^-1 K' = L^-T W and the Gram matrix W'W (the range-space
form; Nocedal & Wright, Numerical Optimization, 2nd ed., 16.2), and
build_region factors the active set's principal block of W'W.  No region
array depends on the number of parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientKError
from .qp import QpMatrices

#: relative eigenvalue cutoff below which the stacked active/equality
#: system is treated as rank deficient
RANK_TOL = 1e-10

#: a mapped point is certified when every inequality residual is at most
#: SCREEN_PRIMAL and every active-row multiplier at least -SCREEN_DUAL, or
#: less where a row's sensitivity asks for it (see DX_BUDGET)
SCREEN_PRIMAL = 1e-8
SCREEN_DUAL = 1e-8
#: how far a certified point may lie from the optimum when one row's
#: residual or multiplier sits at its bound: a tenth of the oracle's dx
DX_BUDGET = 1e-7


@dataclass(frozen=True)
class CriticalRegion:
    """Closed-form optimizer of one active set, applied to instance data.

    rows indexes K = [A; B]: the active rows, then every equality row.
    Linv is the inverse of the Cholesky factor of K_S H^-1 K_S', where
    K_S = K[rows], so that (K_S H^-1 K_S')^-1 = Linv' Linv; HinvKT holds
    the columns H^-1 K_S'.  K and A are the problem's, held by reference.

    primal_bound holds each inequality row's certification bound on its
    residual and dual_bound each active row's on its negated multiplier
    (RegionContext.build_region sets both).

    Every method takes the stacked instances as xu, their unconstrained
    minimizers -H^-1 c, and rhs, their right-hand sides [rhs_A, rhs_B]
    (one row per instance, columns in K's row order).
    """

    active_set: tuple[int, ...]
    rows: np.ndarray
    Linv: np.ndarray
    HinvKT: np.ndarray
    K: np.ndarray
    A: np.ndarray
    primal_bound: np.ndarray
    dual_bound: np.ndarray

    def multipliers(self, xu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Multipliers of the region's rows, one row per instance.

        The first len(active_set) columns belong to the active rows, the
        rest to the equality rows.
        """
        return (xu @ self.K[self.rows].T - rhs[:, self.rows]) @ self.Linv.T @ self.Linv

    def batch_membership(
        self, xu: np.ndarray, rhs: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Mask of the stacked instances whose mapped point is certified.

        Certified means every residual A x - rhs_A at most its row's
        primal_bound and every active-row multiplier at least minus its
        dual_bound.  The map satisfies stationarity, the equality rows and
        complementarity (zero multiplier or zero residual on every row) by
        construction, so a point with no residual above 0 and no negative
        multiplier is optimal; the bounds only admit rounding, scaled so
        that one row at its bound moves the optimum by at most DX_BUDGET.
        That is exact for one row entering or leaving the active set
        alone, and no proof when several rows sit near their bounds at
        once.  When out is given, the mapped points of every instance are
        written to it: batch_solutions' values on the same rows, bit for
        bit.
        """
        lam = self.multipliers(xu, rhs)
        x = np.subtract(xu, lam @ self.HinvKT.T, out=out)
        r = x @ self.A.T
        r -= rhs[:, : self.A.shape[0]]
        r -= self.primal_bound
        dual = lam[:, : len(self.active_set)] + self.dual_bound
        return (r.max(axis=1, initial=-np.inf) <= 0.0) & (dual.min(axis=1, initial=np.inf) >= 0.0)

    def batch_solutions(self, xu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return xu - self.multipliers(xu, rhs) @ self.HinvKT.T


class RegionContext:
    """Per-problem algebra shared by every region build.

    Holds qp, the problem's QpMatrices, which every direct solve shares,
    K = [A; B] and, from qp's factor L, Linv = L^-1, H^-1 K' and the Gram
    matrix K H^-1 K', so each region only pays for its own principal
    block.  Raises ValueError when H is not positive definite.
    """

    def __init__(self, prob):
        self.prob = prob
        self.qp = QpMatrices(prob.H, prob.A, prob.B)
        self.n_rows = prob.A.shape[0]
        self.K = np.vstack([prob.A, prob.B])
        self.Linv = np.linalg.inv(self.qp.L)
        W = self.Linv @ self.K.T
        self.HinvKT = self.Linv.T @ W
        self.KHK = W.T @ W

    def instance_data(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """MpqpProblem.instance_data's costs c and right-hand sides rhs, with
        the unconstrained minimizers xu = -c L^-T L^-1 between them."""
        c, rhs = self.prob.instance_data(thetas)
        return c, -(c @ self.Linv.T) @ self.Linv, rhs

    def build_region(self, active_set) -> CriticalRegion:
        """Region for one active-set signature.

        Raises RankDeficientKError when the active rows stacked on the
        equalities lose row rank, which is the degenerate case the batch
        driver falls back to direct solves for.
        """
        act = np.asarray(sorted(int(i) for i in active_set), dtype=np.int64)
        if ((act < 0) | (act >= self.n_rows)).any():
            raise IndexError(f"active row index out of range: {act}")
        rows = np.concatenate([act, np.arange(self.n_rows, self.K.shape[0])])
        KHK = self.KHK[np.ix_(rows, rows)]
        evals = np.linalg.eigvalsh(KHK)
        if (evals <= RANK_TOL * evals.max(initial=1.0)).any():
            raise RankDeficientKError(
                f"active set {tuple(act)} with the equality rows is rank deficient"
            )
        # numpy factors and inverts the empty block (no active and no
        # equality rows) too, so no row count needs a case of its own
        Linv = np.linalg.inv(np.linalg.cholesky(KHK))
        HinvKT = self.HinvKT[:, rows]
        primal, dual = self._bounds(act, rows, Linv.T @ Linv, HinvKT)
        return CriticalRegion(
            active_set=tuple(int(i) for i in act),
            rows=rows,
            Linv=Linv,
            HinvKT=HinvKT,
            K=self.K,
            A=self.prob.A,
            primal_bound=primal,
            dual_bound=dual,
        )

    def _bounds(self, act, rows, G, HinvKT) -> tuple[np.ndarray, np.ndarray]:
        """Certification bounds of a region with rows S = rows and
        G = (K_S H^-1 K_S')^-1: min(SCREEN_PRIMAL, DX_BUDGET / gain) per
        inequality row and min(SCREEN_DUAL, DX_BUDGET / gain) per active row.

        An inactive row j entering alone moves x along m_j = H^-1 a_j -
        H^-1 K_S' G K_S H^-1 a_j with curvature c_j = a_j' m_j, so its
        gain is |m_j|_inf / c_j, and its bound 0 where c_j vanishes (the
        row lies in the span of S).  An active row i leaving alone moves x
        by |lam_i| |(H^-1 K_S' G)_i|_inf / G_ii.  Active rows keep
        SCREEN_PRIMAL on the primal side.
        """
        m = self.n_rows
        P = HinvKT @ G
        KHK = self.KHK[rows, :m]
        move = np.abs(self.HinvKT[:, :m] - P @ KHK).max(axis=0, initial=0.0)
        diag = np.diagonal(self.KHK)[:m]
        curv = diag - (KHK * (G @ KHK)).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            primal = np.where(curv > RANK_TOL * diag,
                              np.minimum(SCREEN_PRIMAL, DX_BUDGET * curv / move), 0.0)
            primal[act] = SCREEN_PRIMAL
            k = act.size
            dual = np.minimum(SCREEN_DUAL, DX_BUDGET * np.diagonal(G)[:k]
                              / np.abs(P[:, :k]).max(axis=0, initial=0.0))
        return primal, dual
