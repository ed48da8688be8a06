"""Parametric dispatch problem assembly.

Builds, from a feeder and a dispatch configuration, the multiparametric QP

    min  0.5 x'Hx + (C theta + d)'x
    s.t. A x <= E theta + b        (inequality rows, labeled hard or soft)
         B x  = F theta + f        (regulator output equalities)

over decision vector x = [reactive setpoints per inverter bus; substation
voltage; one output voltage per regulator; violation slack s].  theta
stacks the scaled loads (active and reactive), the scaled solar output,
and the per-inverter reactive headroom.

The objective trades voltage flatness against ohmic losses with weight
beta, adds nu*s^2 + eta*s on the slack, and a tiny ridge on the root
voltages keeps the Hessian positive definite when beta = 0.  Soft
constraint rows carry a -1 coefficient on s, so a common slack relaxes
all of them uniformly; s itself is kept nonnegative by a hard row.
"""

from __future__ import annotations

import configparser
import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AllInfeasibleError,
    ConfigError,
    DimensionError,
    HeadroomError,
    ModelError,
)
from .feeder import LDC, LOCAL, REMOTE, FeederModel, partition_by_regulators, sensitivity_matrices
from .qp import OPTIMAL, QpInstance, solve_qp_batch
from .qp import solve_qp  # noqa: F401  bench/tracing.py wraps phca.builder.solve_qp

logger = logging.getLogger(__name__)

INVERTER_CAP = "inverter-cap"
REMOTE_REG = "remote-reg"
LOCAL_REG_EQ = "local-reg-eq"
LDC_REG_EQ = "ldc-reg-eq"
REG_INPUT = "reg-input"
VOLTAGE_HI = "voltage-hi"
VOLTAGE_LO = "voltage-lo"
SLACK_NONNEG = "slack-nonneg"

#: default hard/soft assignment per inequality family
DEFAULT_ASSIGNMENT = {
    INVERTER_CAP: "hard",
    REMOTE_REG: "hard",
    REG_INPUT: "soft",
    VOLTAGE_HI: "soft",
    VOLTAGE_LO: "soft",
}

REMOTE_RATIO_LO = 0.9
REMOTE_RATIO_HI = 1.1


@dataclass(frozen=True)
class BuilderConfig:
    """Dispatch configuration.

    beta weighs voltage flatness against losses (0 = losses only), vmin and
    vmax bound the soft voltage window, nu and eta set the slack penalty
    (None picks nu from the largest cost curvature and leaves eta for a
    later calibration), ridge keeps the cost strictly convex in the root
    voltages, and assignments moves whole constraint families between the
    hard and soft sets.
    """

    beta: float = 0.2
    vmin: float = 0.97
    vmax: float = 1.03
    nu: float | None = None
    eta: float | None = None
    ridge: float = 1e-8
    assignments: tuple[tuple[str, str], ...] = ()

    def validate(self) -> None:
        for name in ("beta", "vmin", "vmax", "nu", "eta", "ridge"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 < self.vmin < self.vmax:
            raise ConfigError(f"need 0 < vmin < vmax, got {self.vmin}, {self.vmax}")
        if self.ridge < 0.0:
            raise ConfigError("ridge must be nonnegative")
        if self.beta == 0.0 and self.ridge == 0.0:
            raise ConfigError(
                "beta = 0 with ridge = 0 leaves the cost singular in the root voltages"
            )
        if self.nu is not None and self.nu <= 0.0:
            raise ConfigError("nu must be positive")
        if self.eta is not None and self.eta < 0.0:
            raise ConfigError("eta must be nonnegative")
        for fam, val in self.assignments:
            if fam == SLACK_NONNEG:
                raise ConfigError("the slack nonnegativity row cannot be reassigned")
            if fam not in DEFAULT_ASSIGNMENT:
                raise ConfigError(f"unknown constraint family {fam!r}")
            if val not in ("hard", "soft"):
                raise ConfigError(f"assignment for {fam!r} must be 'hard' or 'soft'")

    def hardness(self) -> dict[str, str]:
        mapping = dict(DEFAULT_ASSIGNMENT)
        mapping.update(dict(self.assignments))
        return mapping


def load_config(path) -> BuilderConfig:
    """Read a BuilderConfig from an ini-style file.

    Section [dispatch] holds the decimal fields; section [constraints]
    holds family = hard|soft overrides.
    """
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    kwargs = {}
    if parser.has_section("dispatch"):
        for key in parser.options("dispatch"):
            if key not in ("beta", "vmin", "vmax", "nu", "eta", "ridge"):
                raise ConfigError(f"unknown dispatch option {key!r}")
            try:
                kwargs[key] = float(parser.get("dispatch", key))
            except ValueError:
                raise ConfigError(f"bad numeric value for {key!r}") from None
    assignments = []
    if parser.has_section("constraints"):
        for key in parser.options("constraints"):
            assignments.append((key, parser.get("constraints", key).strip().lower()))
    cfg = BuilderConfig(assignments=tuple(assignments), **kwargs)
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class RowLabel:
    family: str
    ref: str
    bound: str  # "hi" | "lo" | "eq"
    soft: bool

    def __str__(self) -> str:
        kind = "soft" if self.soft else "hard"
        return f"{self.family}[{self.ref}].{self.bound}:{kind}"


@dataclass(frozen=True)
class ScalingRecord:
    """Spectral norms divided out of the three matrix blocks."""

    cost_scale: float
    ineq_scale: float
    eq_scale: float


@dataclass(frozen=True)
class MpqpProblem:
    """The assembled parametric QP plus enough layout to interpret x and theta.

    W and U map (x, theta) to the non-substation voltages, and RL is the
    quadratic loss form over the net injections, both under the linear
    subgraph model.
    """

    H: np.ndarray
    C: np.ndarray
    d: np.ndarray
    A: np.ndarray
    E: np.ndarray
    b: np.ndarray
    B: np.ndarray
    F: np.ndarray
    f: np.ndarray
    row_labels: tuple[RowLabel, ...]
    eq_labels: tuple[RowLabel, ...]
    var_names: tuple[str, ...]
    theta_names: tuple[str, ...]
    n_bus: int
    der_buses: tuple[int, ...]
    der_p_rating: tuple[float, ...]
    v0_index: int
    vreg_indices: tuple[int, ...]
    slack_index: int | None
    W: np.ndarray | None
    U: np.ndarray | None
    RL: np.ndarray | None
    config: BuilderConfig | None = None
    scaling: ScalingRecord | None = None

    # ---- dimensions -------------------------------------------------------

    @property
    def n_var(self) -> int:
        return self.H.shape[0]

    @property
    def n_theta(self) -> int:
        return self.C.shape[1]

    @property
    def n_der(self) -> int:
        return len(self.der_buses)

    @property
    def eta(self) -> float:
        if self.slack_index is None:
            return 0.0
        return float(self.d[self.slack_index])

    @property
    def soft_rows(self) -> np.ndarray:
        return np.flatnonzero([lab.soft for lab in self.row_labels])

    # ---- theta slot helpers ----------------------------------------------

    @property
    def n_inj(self) -> int:
        return self.n_bus - 1

    def pc_slice(self) -> slice:
        return slice(0, self.n_inj)

    def qc_slice(self) -> slice:
        return slice(self.n_inj, 2 * self.n_inj)

    def pg_slice(self) -> slice:
        return slice(2 * self.n_inj, 3 * self.n_inj)

    def headroom_slice(self) -> slice:
        return slice(3 * self.n_inj, 3 * self.n_inj + self.n_der)

    # ---- instances --------------------------------------------------------

    def inequality_rhs(
        self, thetas: np.ndarray, rows: np.ndarray | slice = slice(None)
    ) -> np.ndarray:
        """Stacked E theta + b of the inequality rows picked by rows (every
        one by default)."""
        rhs = thetas @ self.E[rows].T
        rhs += self.b[rows]
        return rhs

    def right_hand_sides(
        self, thetas: np.ndarray, rows: np.ndarray | slice = slice(None)
    ) -> np.ndarray:
        """Stacked right-hand sides as the QP sees them: inequality_rhs of
        rows, followed by F theta + f of every equality row."""
        rhs = self.inequality_rhs(thetas, rows)
        if self.f.size == 0:
            return rhs
        eq = thetas @ self.F.T
        eq += self.f
        return np.concatenate([rhs, eq], axis=1)

    def instance_data(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked parameter rows as the QP sees them: the costs
        c = C theta + d and the right-hand sides of every row."""
        return thetas @ self.C.T + self.d, self.right_hand_sides(thetas)

    def instance(self, theta: np.ndarray) -> QpInstance:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_theta,):
            raise DimensionError(f"theta must have shape ({self.n_theta},), got {theta.shape}")
        (c,), (rhs,) = self.instance_data(theta[None])
        m = self.A.shape[0]
        return QpInstance(self.H, c, self.A, rhs[:m], self.B, rhs[m:])

    def _slack_free(self, thetas: np.ndarray) -> tuple:
        """The problem without its slack machinery at every row of thetas.

        Drops the slack variable column and its nonnegativity row; soft rows
        keep their original right-hand side, so this is the unrelaxed
        problem.  Returns the shared blocks and the stacked parameter rows
        in solve_qp_batch's order, (H, A, B, c, b, beq), followed by the
        positions of the soft rows among the kept inequality rows.
        """
        if self.slack_index is None:
            raise ModelError("problem has no slack variable to remove")
        if thetas.ndim != 2 or thetas.shape[1] != self.n_theta:
            raise DimensionError(
                f"thetas must have shape (k, {self.n_theta}), got {thetas.shape}"
            )
        cols = np.delete(np.arange(self.n_var), self.slack_index)
        rows = np.flatnonzero([lab.family != SLACK_NONNEG for lab in self.row_labels])
        soft = np.flatnonzero([self.row_labels[i].soft for i in rows])
        c, rhs = self.instance_data(thetas)
        return (
            self.H[np.ix_(cols, cols)],
            self.A[np.ix_(rows, cols)],
            self.B[:, cols],
            c[:, cols],
            rhs[:, rows],
            rhs[:, self.A.shape[0]:],
            soft,
        )

    def reduced_instance(self, theta: np.ndarray) -> tuple[QpInstance, np.ndarray]:
        """The instance at theta without the slack machinery (see
        _slack_free), and the positions of the soft rows within it."""
        H, A, B, c, b, beq, soft = self._slack_free(np.asarray(theta, dtype=float)[None])
        return QpInstance(H, c[0], A, b[0], B, beq[0]), soft

    def with_eta(self, eta: float) -> "MpqpProblem":
        """Copy of the problem with the linear slack price replaced."""
        if self.scaling is not None:
            raise ModelError("set eta before scaling the problem")
        if self.slack_index is None:
            raise ModelError("problem has no slack variable")
        if not np.isfinite(eta):
            raise ConfigError(f"eta must be finite, got {eta}")
        if eta < 0:
            raise ConfigError("eta must be nonnegative")
        d = self.d.copy()
        d[self.slack_index] = eta
        d.flags.writeable = False
        return replace(self, d=d)

    # ---- interpretation ---------------------------------------------------

    def voltages(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Non-substation voltage magnitudes implied by a solution."""
        if self.W is None:
            raise ModelError("problem carries no voltage map")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        out = x @ self.W.T + theta @ self.U.T
        return out[0] if out.shape[0] == 1 else out

    def objective(self, x: np.ndarray, theta: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.instance(theta).c @ x)


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


def build_problem(feeder: FeederModel, config: BuilderConfig) -> MpqpProblem:
    """Assemble the parametric QP for one feeder and configuration.

    Voltages are expressed per subgraph: member voltage = R p' + X q' +
    root voltage, where effective injections p', q' fold everything hanging
    below a downstream regulator into its input bus.  Regulator output
    voltages are decision variables; local and ldc regulators pin them via
    equality rows (the ldc row sees the reactive decision through the flow
    it compensates), remote regulators bound them relative to the input
    side.
    """
    config.validate()
    n = feeder.n_bus
    n_inj = n - 1
    der = [int(bb) for bb in feeder.der_buses]
    n_der = len(der)
    regs = feeder.regulators
    n_reg = len(regs)

    n_var = n_der + 1 + n_reg + 1
    v0_col = n_der
    vreg_cols = tuple(range(n_der + 1, n_der + 1 + n_reg))
    s_col = n_var - 1
    n_theta = 3 * n_inj + n_der

    qg_col_of_bus = {bus: j for j, bus in enumerate(der)}

    # selector: reactive decision per injection slot (zero row for non-DER)
    sel_qg = np.zeros((n_inj, n_var))
    for bus, j in qg_col_of_bus.items():
        sel_qg[bus - 1, j] = 1.0

    subs = partition_by_regulators(feeder)
    reg_line = [feeder.line_between(rg.m, rg.n) for rg in regs]

    # W, U: member voltages affine in (x, theta); RL: loss quadratic over
    # injections, accumulated per subgraph
    W = np.zeros((n_inj, n_var))
    U = np.zeros((n_inj, n_theta))
    RL = np.zeros((n_inj, n_inj))
    pc_sl = slice(0, n_inj)
    qc_sl = slice(n_inj, 2 * n_inj)
    pg_sl = slice(2 * n_inj, 3 * n_inj)

    for sub in subs:
        if sub.root == 0:
            root_col = v0_col
        else:
            W[sub.root - 1, vreg_cols[sub.index - 1]] = 1.0
            root_col = vreg_cols[sub.index - 1]
        if not sub.members:
            continue
        sens = sensitivity_matrices(sub, feeder)
        agg = np.zeros((len(sub.members), n_inj))
        for jloc, bus in enumerate(sub.members):
            agg[jloc, bus - 1] = 1.0
            for k, rg in enumerate(regs):
                if rg.m == bus:
                    below = np.flatnonzero(feeder.subtree[reg_line[k]])
                    agg[jloc, below - 1] = 1.0
        rows = [bb - 1 for bb in sub.members]
        RA = sens.R @ agg
        XA = sens.X @ agg
        W[rows, :] += XA @ sel_qg
        W[rows, root_col] += 1.0
        U[np.ix_(rows, range(pc_sl.start, pc_sl.stop))] += -RA
        U[np.ix_(rows, range(qc_sl.start, qc_sl.stop))] += -XA
        U[np.ix_(rows, range(pg_sl.start, pg_sl.stop))] += RA
        RL += agg.T @ sens.R @ agg

    def bus_affine(bus: int) -> tuple[np.ndarray, np.ndarray]:
        if bus == 0:
            w = np.zeros(n_var)
            w[v0_col] = 1.0
            return w, np.zeros(n_theta)
        return W[bus - 1], U[bus - 1]

    # ---- objective --------------------------------------------------------
    beta = config.beta
    e0 = np.zeros(n_var)
    e0[v0_col] = 1.0
    es = np.zeros(n_var)
    es[s_col] = 1.0

    qc_pick = np.zeros((n_inj, n_theta))
    qc_pick[:, qc_sl] = np.eye(n_inj)

    Q = beta * (W.T @ W + np.outer(e0, e0)) + (1.0 - beta) * sel_qg.T @ RL @ sel_qg
    Q[v0_col, v0_col] += config.ridge
    for col in vreg_cols:
        Q[col, col] += config.ridge
    H = 2.0 * Q
    if config.nu is None:
        # slack curvature from the largest eigenvalue of the rest of the cost
        nu = float(np.max(np.linalg.eigvalsh(H)))
        if nu <= 0.0:
            raise ConfigError("cost block is not positive semidefinite")
    else:
        nu = config.nu
    H[s_col, s_col] = 2.0 * nu

    C = 2.0 * beta * W.T @ U - 2.0 * (1.0 - beta) * sel_qg.T @ RL @ qc_pick
    d = -2.0 * beta * (W.T @ np.ones(n_inj) + e0) - 2.0 * config.ridge * e0
    for col in vreg_cols:
        d[col] -= 2.0 * config.ridge
    d[s_col] = config.eta if config.eta is not None else 0.0

    evals = np.linalg.eigvalsh(H)
    if evals[0] <= 0.0:
        raise ConfigError(f"cost Hessian not positive definite (min eigenvalue {evals[0]:g})")

    # ---- rows -------------------------------------------------------------
    hardness = config.hardness()
    a_rows, e_rows, b_vals, labels = [], [], [], []

    def add_row(family, ref, bound, a, e_row, rhs):
        soft = hardness.get(family, "hard") == "soft"
        a = a.copy()
        if soft:
            a[s_col] -= 1.0
        a_rows.append(a)
        e_rows.append(e_row)
        b_vals.append(rhs)
        labels.append(RowLabel(family, ref, bound, soft))

    for j, bus in enumerate(der):
        ref = feeder.ext_ids[bus]
        e_head = np.zeros(n_theta)
        e_head[3 * n_inj + j] = 1.0
        a = np.zeros(n_var)
        a[j] = 1.0
        add_row(INVERTER_CAP, ref, "hi", a, e_head, 0.0)
        a = np.zeros(n_var)
        a[j] = -1.0
        add_row(INVERTER_CAP, ref, "lo", a, e_head.copy(), 0.0)

    for k, rg in enumerate(regs):
        ref = f"{feeder.ext_ids[rg.m]}-{feeder.ext_ids[rg.n]}"
        w_m, u_m = bus_affine(rg.m)
        w_n, u_n = bus_affine(rg.n)
        if rg.kind == REMOTE:
            add_row(
                REMOTE_REG, ref, "lo",
                REMOTE_RATIO_LO * w_m - w_n,
                -(REMOTE_RATIO_LO * u_m - u_n),
                0.0,
            )
            add_row(
                REMOTE_REG, ref, "hi",
                w_n - REMOTE_RATIO_HI * w_m,
                -(u_n - REMOTE_RATIO_HI * u_m),
                0.0,
            )
        else:
            # input window keeping the output target reachable across the
            # tap range: (vref - delta)/1.1 <= v_m <= (vref + delta)/0.9
            add_row(
                REG_INPUT, ref, "hi",
                w_m.copy(),
                -u_m,
                (rg.vref + rg.delta) / REMOTE_RATIO_LO,
            )
            add_row(
                REG_INPUT, ref, "lo",
                -w_m,
                u_m.copy(),
                -(rg.vref - rg.delta) / REMOTE_RATIO_HI,
            )

    for bus in range(1, n):
        ref = feeder.ext_ids[bus]
        w_j, u_j = bus_affine(bus)
        add_row(VOLTAGE_HI, ref, "hi", w_j.copy(), -u_j, config.vmax)
        add_row(VOLTAGE_LO, ref, "lo", -w_j, u_j.copy(), -config.vmin)

    add_row(SLACK_NONNEG, "s", "lo", -es, np.zeros(n_theta), 0.0)

    # ---- equalities -------------------------------------------------------
    beq_rows, feq_rows, f_vals, eq_labels = [], [], [], []
    for k, rg in enumerate(regs):
        if rg.kind == REMOTE:
            continue
        ref = f"{feeder.ext_ids[rg.m]}-{feeder.ext_ids[rg.n]}"
        w_n, u_n = bus_affine(rg.n)
        if rg.kind == LOCAL:
            beq_rows.append(w_n.copy())
            feq_rows.append(-u_n)
            f_vals.append(rg.vref)
            eq_labels.append(RowLabel(LOCAL_REG_EQ, ref, "eq", False))
        elif rg.kind == LDC:
            # output voltage minus compensator drop equals the target; the
            # drop rides on the total flow crossing the regulator, which is
            # minus the sum of injections below it
            below = np.flatnonzero(feeder.subtree[reg_line[k]])
            mask = np.zeros(n_inj)
            mask[below - 1] = 1.0
            row = w_n.copy()
            row += rg.x_comp * (sel_qg.T @ mask)  # reactive decisions below
            frow = -u_n.copy()
            frow[pc_sl] += rg.r_comp * mask
            frow[pg_sl] += -rg.r_comp * mask
            frow[qc_sl] += rg.x_comp * mask
            beq_rows.append(row)
            feq_rows.append(frow)
            f_vals.append(rg.vref)
            eq_labels.append(RowLabel(LDC_REG_EQ, ref, "eq", False))

    A = np.array(a_rows)
    E = np.array(e_rows)
    bb = np.array(b_vals)
    B = np.array(beq_rows).reshape(-1, n_var) if beq_rows else np.zeros((0, n_var))
    F = np.array(feq_rows).reshape(-1, n_theta) if feq_rows else np.zeros((0, n_theta))
    ff = np.array(f_vals) if f_vals else np.zeros(0)

    var_names = (
        tuple(f"qg[{feeder.ext_ids[bus]}]" for bus in der)
        + ("v0",)
        + tuple(
            f"vreg[{feeder.ext_ids[rg.m]}-{feeder.ext_ids[rg.n]}]" for rg in regs
        )
        + ("s",)
    )
    theta_names = (
        tuple(f"pc[{feeder.ext_ids[bus]}]" for bus in range(1, n))
        + tuple(f"qc[{feeder.ext_ids[bus]}]" for bus in range(1, n))
        + tuple(f"pg[{feeder.ext_ids[bus]}]" for bus in range(1, n))
        + tuple(f"headroom[{feeder.ext_ids[bus]}]" for bus in der)
    )

    _freeze(H, C, d, A, E, bb, B, F, ff, W, U, RL)
    return MpqpProblem(
        H=H, C=C, d=d, A=A, E=E, b=bb, B=B, F=F, f=ff,
        row_labels=tuple(labels),
        eq_labels=tuple(eq_labels),
        var_names=var_names,
        theta_names=theta_names,
        n_bus=n,
        der_buses=tuple(der),
        der_p_rating=tuple(float(feeder.p_rating[bus]) for bus in der),
        v0_index=v0_col,
        vreg_indices=vreg_cols,
        slack_index=s_col,
        W=W,
        U=U,
        RL=RL,
        config=config,
    )


# ---------------------------------------------------------------------------
# parameter mapping


def theta_map_batch(
    prob: MpqpProblem,
    pc: np.ndarray,
    qc: np.ndarray,
    pg: np.ndarray,
    alpha: float,
    kappa: float,
    oversize: float,
) -> np.ndarray:
    """Vectorized parameter assembly for stacked scenario rows.

    pc, qc, pg have shape (k, n_inj) and hold the unscaled consumption and
    the full (100% penetration) solar output.  Loads are multiplied by
    kappa, solar by alpha*kappa, and the headroom slot per inverter bus is
    sqrt((oversize * p_rating)^2 - (alpha * kappa * pg)^2).
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"penetration must lie in (0, 1], got {alpha}")
    if kappa <= 0.0:
        raise ConfigError(f"injection scaling must be positive, got {kappa}")
    if oversize < 1.0:
        raise ConfigError(f"oversize factor must be at least 1, got {oversize}")
    pc = np.atleast_2d(np.asarray(pc, dtype=float))
    qc = np.atleast_2d(np.asarray(qc, dtype=float))
    pg = np.atleast_2d(np.asarray(pg, dtype=float))
    k, n_inj = pc.shape
    if n_inj != prob.n_inj or qc.shape != pc.shape or pg.shape != pc.shape:
        raise DimensionError("scenario blocks must share shape (k, n_inj)")
    theta = np.zeros((k, prob.n_theta))
    # an overflow becomes inf or NaN here and is refused below, in one line
    with np.errstate(over="ignore", invalid="ignore"):
        theta[:, prob.pc_slice()] = kappa * pc
        theta[:, prob.qc_slice()] = kappa * qc
        theta[:, prob.pg_slice()] = alpha * kappa * pg
        der = np.asarray(prob.der_buses, dtype=np.int64) - 1
        cap = oversize * np.asarray(prob.der_p_rating)
        gen = alpha * kappa * pg[:, der]
        head_sq = cap[None, :] ** 2 - gen**2
    if np.any(head_sq < -1e-15):
        bad = np.argwhere(head_sq < -1e-15)[0]
        raise HeadroomError(
            f"scaled generation {gen[bad[0], bad[1]]:g} exceeds capacity "
            f"{cap[bad[1]]:g} at inverter bus index {int(der[bad[1]]) + 1} "
            f"(alpha={alpha:g}, kappa={kappa:g}, oversize={oversize:g})"
        )
    theta[:, prob.headroom_slice()] = np.sqrt(np.maximum(head_sq, 0.0))
    if not np.isfinite(theta).all():
        raise ConfigError(f"grid point alpha={alpha:g}, kappa={kappa:g}, "
                          f"oversize={oversize:g} overflows the parameter vector")
    return theta


# ---------------------------------------------------------------------------
# scaling and calibration


def scale_problem(prob: MpqpProblem) -> tuple[MpqpProblem, ScalingRecord]:
    """Divide each block by its spectral norm.

    The minimizer is unchanged; inequality multipliers of the scaled
    problem recover the original ones after multiplying by
    cost_scale / ineq_scale (cost_scale / eq_scale for equalities).
    """
    if prob.scaling is not None:
        raise ModelError("problem is already scaled")
    h = float(np.linalg.norm(prob.H, 2))
    a = float(np.linalg.norm(prob.A, 2)) if prob.A.shape[0] else 1.0
    g = float(np.linalg.norm(prob.B, 2)) if prob.B.shape[0] else 1.0
    if h <= 0 or a <= 0 or g <= 0:
        raise ModelError("cannot scale a zero block")
    record = ScalingRecord(cost_scale=h, ineq_scale=a, eq_scale=g)
    H = prob.H / h
    C = prob.C / h
    d = prob.d / h
    A = prob.A / a
    E = prob.E / a
    bb = prob.b / a
    B = prob.B / g
    F = prob.F / g
    ff = prob.f / g
    _freeze(H, C, d, A, E, bb, B, F, ff)
    return replace(prob, H=H, C=C, d=d, A=A, E=E, b=bb, B=B, F=F, f=ff, scaling=record), record


#: positive default the calibrated slack price is floored at before use
ETA_FLOOR = 1e-2


def calibrate_eta(prob: MpqpProblem, thetas: np.ndarray, margin: float = 10.0) -> float:
    """Slack price from soft-constraint multipliers of sample instances.

    Solves the unrelaxed problem of every sample in one stacked solve, sums
    the multipliers of the soft rows per sample, and returns
    margin * (largest sum).  Infeasible samples are skipped, with one
    warning that counts them; if no sample is solved (an empty sample
    included) there is nothing to calibrate against and
    AllInfeasibleError is raised.  A batch whose
    soft rows never bind yields 0.0; callers must floor the result at
    ETA_FLOOR before use.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    *data, soft = prob._slack_free(thetas)
    n = thetas.shape[0]
    if n == 0:
        raise AllInfeasibleError("no calibration samples")
    batch = solve_qp_batch(*data)
    solved = batch.status == OPTIMAL
    if not solved.any():
        raise AllInfeasibleError(f"all {n} calibration samples infeasible")
    skipped = n - int(solved.sum())
    if skipped:
        logger.warning("calibration skipped %d of %d samples", skipped, n)
    return margin * float(batch.lam[solved][:, soft].sum(axis=1).max())


# ---------------------------------------------------------------------------
# plain-text export


def dump_problem(prob: MpqpProblem) -> str:
    """Row-labeled plain-text dump of every matrix block."""
    out = []
    fmt = "%.12g"

    def emit_matrix(name, M):
        out.append(f"[{name}]  # {M.shape[0]} x {M.shape[1]}")
        for row in np.atleast_2d(M):
            out.append("  " + " ".join(fmt % v for v in row))

    out.append("[variables]")
    out.append("  " + " ".join(prob.var_names))
    out.append("[theta]")
    out.append("  " + " ".join(prob.theta_names))
    emit_matrix("H", prob.H)
    emit_matrix("C", prob.C)
    out.append("[d]")
    out.append("  " + " ".join(fmt % v for v in prob.d))
    out.append("[inequalities]  # label | A row | E row | b")
    for i, lab in enumerate(prob.row_labels):
        out.append(
            f"  {lab} | "
            + " ".join(fmt % v for v in prob.A[i])
            + " | "
            + " ".join(fmt % v for v in prob.E[i])
            + " | "
            + fmt % prob.b[i]
        )
    out.append("[equalities]  # label | B row | F row | f")
    for i, lab in enumerate(prob.eq_labels):
        out.append(
            f"  {lab} | "
            + " ".join(fmt % v for v in prob.B[i])
            + " | "
            + " ".join(fmt % v for v in prob.F[i])
            + " | "
            + fmt % prob.f[i]
        )
    if prob.scaling is not None:
        sc = prob.scaling
        out.append(
            f"[scaling]  cost={fmt % sc.cost_scale} ineq={fmt % sc.ineq_scale} "
            f"eq={fmt % sc.eq_scale}"
        )
    return "\n".join(out) + "\n"
