"""Helpers that only the tests call: one QP instance, built with shape
checks or taken from an MpqpProblem, and its solve on a QpMatrices of its
own; the soft rows' residuals without the slack; and the AC power-flow
checks of the linear model (power balance, the angle form of the losses
and the model-error orders)."""

from typing import NamedTuple

import numpy as np

from phca import engine
from phca.acflow import _ratio_array, linear_model_prediction, solve_powerflow
from phca.errors import DimensionError
from phca.qp import QpMatrices, QpSolution, solve_qp
from phca.stats import _voltages, _with_v0


class Instance(NamedTuple):
    """One QP:  min 0.5 x'Hx + c'x  s.t.  A x <= b,  Aeq x = beq."""

    H: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    Aeq: np.ndarray
    beq: np.ndarray


def build_instance(H, c, A=None, b=None, Aeq=None, beq=None) -> Instance:
    """An Instance from array-likes, with absent rows as empty blocks;
    raises ValueError when the shapes disagree."""
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
    return Instance(H, c, A, b, Aeq, beq)


def solve_instance(inst: Instance, start=None) -> QpSolution:
    """solve_qp on inst, warm-started from the rows in start when given."""
    return solve_qp(QpMatrices(inst.H, inst.A, inst.Aeq), inst.c, inst.b, inst.beq, start=start)


def instance(prob, theta) -> Instance:
    """The QP of prob at one parameter vector theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (prob.n_theta,):
        raise DimensionError(f"theta must have shape ({prob.n_theta},), got {theta.shape}")
    (c,), (rhs,) = prob.instance_data(theta[None])
    m = prob.A.shape[0]
    return Instance(prob.H, c, prob.A, rhs[:m], prob.B, rhs[m:])


def reduced_instance(prob, theta) -> tuple[Instance, np.ndarray]:
    """The instance at theta without the slack machinery (see
    MpqpProblem._slack_free), and the positions of the soft rows within it."""
    H, A, B, c, b, beq, soft = prob._slack_free(np.asarray(theta, dtype=float)[None])
    return Instance(H, c[0], A, b[0], B, beq[0]), soft


def soft_violations(result) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the soft rows with the slack coupling removed.

    Returns (rows, resid) where rows indexes into the problem's row list
    and resid[i, j] > 0 means instance i violates soft row rows[j] by that
    much in original units when no slack relief is applied.  With every
    row hard, rows is empty and resid has no columns.  resid is read off
    the voltages with the problem's RowForm, SWEEP_BLOCK instances at a
    time, and is the one (n, len(rows)) array made.
    """
    prob = result.problem
    rows = prob.soft_rows
    n = result.x.shape[0]
    resid = np.empty((n, rows.size))
    for start in range(0, n, engine.SWEEP_BLOCK):
        picks = np.arange(start, min(n, start + engine.SWEEP_BLOCK))
        volts = _with_v0(result, picks, _voltages(prob, result.x[picks], result.thetas[picks]))
        resid[picks] = prob.row_form.residuals(rows, volts, result.x, result.thetas, picks)
    return rows, resid


def power_balance_residual(feeder, sol, p, q, ratios=None) -> float:
    """Worst-case complex power mismatch over all buses; small at convergence."""
    n = feeder.n_bus
    s_inj = np.zeros(n, dtype=complex)
    s_inj[1:] = np.asarray(p, float) + 1j * np.asarray(q, float)
    ratio = _ratio_array(feeder, ratios)
    reg_of_line = {feeder.parent_line[rg.n]: j for j, rg in enumerate(feeder.regulators)}

    worst = 0.0
    for bus in range(1, n):
        into = sol.line_current[feeder.parent_line[bus]]
        out = 0.0 + 0.0j
        for l, ln in enumerate(feeder.lines):
            if ln.from_bus != bus:
                continue
            cur = sol.line_current[l]
            if l in reg_of_line:
                # upstream side of an ideal transformer carries ratio * current
                cur = cur * ratio[reg_of_line[l]]
            out += cur
        mismatch = sol.volts[bus] * np.conj(into - out) + s_inj[bus]
        worst = max(worst, abs(mismatch))
    return worst


def angle_form_losses(feeder, sol) -> float:
    """Total loss recomputed from voltage magnitudes and angle differences.

    Per line, with conductance g = r / (r^2 + x^2) and psi the angle
    difference across the line, the ohmic loss is
    g * (vm^2 + vn^2 - 2 vm vn cos psi); summing over non-regulator lines
    must agree with the current-based total.
    """
    reg_lines = {feeder.parent_line[rg.n] for rg in feeder.regulators}
    total = 0.0
    for l, ln in enumerate(feeder.lines):
        if l in reg_lines:
            continue
        vm = sol.volts[ln.from_bus]
        vn = sol.volts[ln.to_bus]
        g = ln.r / (ln.r**2 + ln.x**2)
        psi = np.angle(vm) - np.angle(vn)
        total += g * (abs(vm) ** 2 + abs(vn) ** 2 - 2 * abs(vm) * abs(vn) * np.cos(psi))
    return float(total)


def approximation_error_sweep(
    feeder, p_base, q_base, scales=(1.0, 0.5, 0.25), v0=1.0, ratios=None
) -> dict:
    """Model-error study under uniform injection scaling.

    For each scale eps the base injections are multiplied by eps, the exact
    sweep and the linear/quadratic predictions are evaluated, and the
    worst-case voltage error plus the total-loss error are recorded.  The
    order estimates are least-squares slopes of log error against log
    scale: ~2 for voltages (first-order model), ~3 for losses
    (second-order model), with the per-pair ratios also reported.  The
    error scales this cleanly only around the flat profile, so leave the
    ratios at unity; a fixed off-nominal tap adds a first-order cross
    term.
    """
    scales = tuple(float(s) for s in scales)
    if len(scales) < 2:
        raise DimensionError("need at least two scales to estimate an order")
    v_err, l_err = [], []
    for eps in scales:
        sol = solve_powerflow(feeder, eps * np.asarray(p_base, float), eps * np.asarray(q_base, float), v0=v0, ratios=ratios)
        v_lin, loss_quad = linear_model_prediction(
            feeder, eps * np.asarray(p_base, float), eps * np.asarray(q_base, float), v0=v0, ratios=ratios
        )
        v_err.append(float(np.max(np.abs(sol.vmag - v_lin))))
        l_err.append(abs(sol.total_loss - loss_quad))
    v_order, l_order = [], []
    for a, b in zip(range(len(scales) - 1), range(1, len(scales))):
        ra = scales[a] / scales[b]
        v_order.append(float(np.log(v_err[a] / v_err[b]) / np.log(ra)))
        l_order.append(float(np.log(l_err[a] / l_err[b]) / np.log(ra)))
    log_s = np.log(scales)
    return {
        "scales": scales,
        "voltage_error": tuple(v_err),
        "loss_error": tuple(l_err),
        "voltage_order": float(np.polyfit(log_s, np.log(v_err), 1)[0]),
        "loss_order": float(np.polyfit(log_s, np.log(l_err), 1)[0]),
        "voltage_order_pairs": tuple(v_order),
        "loss_order_pairs": tuple(l_order),
    }
