"""Exact AC power flow on the radial feeder, used to validate the linear model.

A backward/forward sweep with complex phasors: backward pass accumulates
branch currents from constant-power bus injections, forward pass updates
voltages.  Regulators are treated as ideal transformers with caller-supplied
fixed ratios (lossless, the branch impedance under a regulator is not
modeled), which matches the assumption behind the linear voltage model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import BuilderConfig, build_problem
from .errors import DimensionError, NonConvergenceError
from .feeder import FeederModel

#: the voltage update, in per unit, below which the sweep has converged
SWEEP_TOL = 1e-12
#: sweeps before the power flow gives up
SWEEP_MAX_ITER = 200


@dataclass(frozen=True)
class PowerFlowSolution:
    """Converged sweep result.

    volts holds complex bus voltages (substation first), line_current the
    downstream-side branch current per line, line_loss the ohmic loss per
    line (zero on regulator lines), and iterations the sweep count.
    """

    volts: np.ndarray
    line_current: np.ndarray
    line_loss: np.ndarray
    iterations: int

    @property
    def vmag(self) -> np.ndarray:
        return np.abs(self.volts)

    @property
    def total_loss(self) -> float:
        return float(self.line_loss.sum())


def _ratio_array(feeder: FeederModel, ratios) -> np.ndarray:
    k = len(feeder.regulators)
    if ratios is None:
        return np.ones(k)
    arr = np.asarray(ratios, dtype=float)
    if arr.shape != (k,):
        raise DimensionError(f"expected {k} regulator ratios, got shape {arr.shape}")
    if np.any(arr <= 0):
        raise DimensionError("regulator ratios must be positive")
    return arr


def solve_powerflow(
    feeder: FeederModel,
    p: np.ndarray,
    q: np.ndarray,
    v0: float = 1.0,
    ratios=None,
) -> PowerFlowSolution:
    """Backward/forward sweep for net injections p + jq (non-substation buses).

    Injections are generation minus consumption, ordered by internal bus
    index 1..N.  Raises NonConvergenceError when the voltage update fails
    to fall below SWEEP_TOL within SWEEP_MAX_ITER sweeps.
    """
    n = feeder.n_bus
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (n - 1,) or q.shape != (n - 1,):
        raise DimensionError(f"expected {n - 1} injections, got {p.shape} and {q.shape}")
    s_inj = np.zeros(n, dtype=complex)
    s_inj[1:] = p + 1j * q

    ratio = _ratio_array(feeder, ratios)
    reg_of_line = {feeder.parent_line[rg.n]: j for j, rg in enumerate(feeder.regulators)}

    z = np.array([ln.r + 1j * ln.x for ln in feeder.lines])
    v = np.full(n, complex(v0), dtype=complex)
    # seed downstream pieces at their ratio-implied level to help convergence
    for l, j in reg_of_line.items():
        v[feeder.subtree[l]] *= ratio[j]

    branch = np.zeros(len(feeder.lines), dtype=complex)
    for it in range(1, SWEEP_MAX_ITER + 1):
        # backward: consumption currents, accumulated children-first
        cons = np.conj(-s_inj / v)
        cons[0] = 0.0
        acc = cons.copy()
        for bus in range(n - 1, 0, -1):
            l = feeder.parent_line[bus]
            branch[l] = acc[bus]
            if l in reg_of_line:
                # ideal transformer: upstream current is ratio * downstream
                acc[feeder.parent[bus]] += ratio[reg_of_line[l]] * acc[bus]
            else:
                acc[feeder.parent[bus]] += acc[bus]
        # forward: voltage updates root-to-leaves
        delta = 0.0
        for bus in range(1, n):
            l = feeder.parent_line[bus]
            if l in reg_of_line:
                new = ratio[reg_of_line[l]] * v[feeder.parent[bus]]
            else:
                new = v[feeder.parent[bus]] - z[l] * branch[l]
            delta = max(delta, abs(new - v[bus]))
            v[bus] = new
        if delta < SWEEP_TOL:
            loss = np.array(
                [
                    0.0 if l in reg_of_line else feeder.lines[l].r * abs(branch[l]) ** 2
                    for l in range(len(feeder.lines))
                ]
            )
            if not np.all(np.isfinite(v)):
                raise NonConvergenceError("sweep produced non-finite voltages")
            return PowerFlowSolution(v.copy(), branch.copy(), loss, it)
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > 1e3:
            raise NonConvergenceError(f"sweep diverged after {it} iterations")
    raise NonConvergenceError(f"no convergence to {SWEEP_TOL:g} within {SWEEP_MAX_ITER} sweeps")


def linear_model_prediction(
    feeder: FeederModel,
    p: np.ndarray,
    q: np.ndarray,
    v0: float = 1.0,
    ratios=None,
) -> tuple[np.ndarray, float]:
    """First-order voltages and second-order losses for the same setup.

    Evaluates the voltage map W, U and the loss form RL that build_problem
    assembles the QP from, with every regulator output pinned at
    ratio * (predicted input voltage); the outputs depend on each other
    along chains of regulators, so they come from one linear solve.
    Returns (vmag over all buses, total loss).
    """
    ratio = _ratio_array(feeder, ratios)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = feeder.n_bus
    if p.shape != (n - 1,) or q.shape != (n - 1,):
        raise DimensionError(f"expected {n - 1} injections, got {p.shape} and {q.shape}")
    prob = build_problem(feeder, BuilderConfig())
    # net injections enter as consumption, with no generation, headroom or
    # reactive decision
    theta = np.zeros(prob.n_theta)
    theta[prob.pc_slice()] = -p
    theta[prob.qc_slice()] = -q
    # bus voltages, substation first, are ub + Wr @ vreg: ub holds the
    # substation and injection terms, Wr the regulator output columns
    Wb = np.vstack([np.eye(prob.n_var)[prob.v0_index], prob.W])
    ub = np.concatenate(([0.0], prob.U @ theta)) + v0 * Wb[:, prob.v0_index]
    Wr = Wb[:, list(prob.vreg_indices)]
    m = [rg.m for rg in feeder.regulators]
    vreg = np.linalg.solve(np.eye(len(m)) - ratio[:, None] * Wr[m], ratio * ub[m])
    v = ub + Wr @ vreg
    return v, float(p @ prob.RL @ p + q @ prob.RL @ q)
