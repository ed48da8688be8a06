"""Parametric dispatch problem assembly.

Builds, from a feeder and a dispatch configuration, the multiparametric QP

    min  0.5 x'Hx + (C theta + d)'x
    s.t. A x <= E theta + b        (inequality rows, labeled hard or soft)
         B x  = F theta + f        (regulator output equalities)

over decision vector x = [reactive setpoints per inverter bus; substation
voltage; one output voltage per regulator; violation slack s].  theta
stacks the scaled loads (active and reactive) per bus, then the scaled
solar output and the reactive headroom per inverter bus.

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
from .feeder import LDC, LOCAL, REMOTE, FeederModel, voltage_model
from .qp import OPTIMAL, QpMatrices, solve_qp_batch
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


def load_config(text: str) -> BuilderConfig:
    """Parse a BuilderConfig from ini-style text.

    Section [dispatch] holds the decimal fields; section [constraints]
    holds family = hard|soft overrides.  Any other section is refused, and
    so is any text configparser cannot parse.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source="config")
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    except configparser.Error as exc:
        # configparser's messages can span lines; an input error takes one
        raise ConfigError(" ".join(str(exc).split())) from None
    unknown = set(sections) - {"dispatch", "constraints"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {}
    for key, value in sections.get("dispatch", {}).items():
        if key not in ("beta", "vmin", "vmax", "nu", "eta", "ridge"):
            raise ConfigError(f"unknown dispatch option {key!r}")
        try:
            kwargs[key] = float(value)
        except ValueError:
            raise ConfigError(f"bad numeric value for {key!r}") from None
    assignments = tuple(
        (key, value.strip().lower()) for key, value in sections.get("constraints", {}).items()
    )
    cfg = BuilderConfig(assignments=assignments, **kwargs)
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
class RowForm:
    """Every inequality row's residual A x - E theta - b, slack column left
    out, as a form in voltages, in original units: for row i

        bus_coef[i, 0] v[bus[i, 0]] + bus_coef[i, 1] v[bus[i, 1]]
            + qg_coef[i] x[qg[i]] + headroom_coef[i] theta[headroom[i]] - bound[i]

    where v[0] is the substation voltage x[v0_index] and v[j], j >= 1,
    the voltage of bus j (column j - 1 of stats.voltage_matrix).  A
    voltage or regulator-input row has one bus term, a remote-regulator
    row two, an inverter-cap row one qg term (an x column) and one
    headroom term (a theta column); every unused term has coefficient 0
    at index 0, and the slack nonnegativity row has none.  build_problem
    evaluates A, E and b from these forms, and residuals evaluates them
    at solved instances, so the QP and the reports read one description.
    """

    bus: np.ndarray  # (m, 2) bus indices
    bus_coef: np.ndarray  # (m, 2)
    qg: np.ndarray
    qg_coef: np.ndarray
    headroom: np.ndarray
    headroom_coef: np.ndarray
    bound: np.ndarray

    def residuals(self, rows, volts, x, thetas, picks) -> np.ndarray:
        """The residuals of rows at the instances picks, (len(picks),
        len(rows)).  volts holds those instances' voltages v, bus j in
        column j and v0 in column 0; x and thetas hold every instance.
        Each term that some of the rows use is gathered and weighted, and
        the bounds are subtracted."""
        resid = None
        terms = [(volts, None, self.bus[rows, k], self.bus_coef[rows, k]) for k in (0, 1)]
        terms += [(x, picks, self.qg[rows], self.qg_coef[rows]),
                  (thetas, picks, self.headroom[rows], self.headroom_coef[rows])]
        for source, at, cols, coef in terms:
            if not coef.any():
                continue
            term = np.take(source, cols, axis=1) if at is None else source[np.ix_(at, cols)]
            term *= coef
            if resid is None:
                resid = term
            else:
                resid += term
        if resid is None:
            resid = np.zeros((volts.shape[0], len(rows)))
        resid -= self.bound[rows]
        return resid


@dataclass(frozen=True)
class MpqpProblem:
    """The assembled parametric QP plus enough layout to interpret x and theta.

    W and U map (x, theta) to the non-substation voltages, x W' + theta U'
    (phca.stats.voltage_matrix forms them for a batch), and RL is the
    quadratic loss form over the net injections, both under the
    first-order model of feeder.voltage_model.  row_form gives every
    inequality row as a form in those voltages, in original units;
    scaling leaves it alone.

    theta has 2 n_inj + 2 n_der columns: active load per non-substation
    bus (pc_slice), reactive load per such bus (qc_slice), then solar
    output per inverter bus (pg_slice) and reactive headroom per inverter
    bus (headroom_slice), both in der_buses order.  Only an inverter bus
    can produce solar, so no other bus has a solar column.
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
    slack_index: int
    W: np.ndarray
    U: np.ndarray
    RL: np.ndarray
    row_form: RowForm
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
        return slice(2 * self.n_inj, 2 * self.n_inj + self.n_der)

    def headroom_slice(self) -> slice:
        return slice(2 * self.n_inj + self.n_der, 2 * self.n_inj + 2 * self.n_der)

    # ---- instances --------------------------------------------------------

    def instance_data(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked parameter rows as the QP sees them: the costs
        c = C theta + d and the right-hand sides, E theta + b of every
        inequality row followed by F theta + f of every equality row."""
        m = self.b.size
        rhs = np.empty((thetas.shape[0], m + self.f.size))
        np.matmul(thetas, self.E.T, out=rhs[:, :m])
        np.matmul(thetas, self.F.T, out=rhs[:, m:])
        rhs[:, :m] += self.b
        rhs[:, m:] += self.f
        return thetas @ self.C.T + self.d, rhs

    def _slack_free(self, thetas: np.ndarray) -> tuple:
        """The problem without its slack machinery at every row of thetas.

        Drops the slack variable column and its nonnegativity row; soft rows
        keep their original right-hand side, so this is the unrelaxed
        problem.  Returns the shared blocks and the stacked parameter rows,
        (H, A, B, c, b, beq), followed by the positions of the soft rows
        among the kept inequality rows.
        """
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

    def with_eta(self, eta: float) -> "MpqpProblem":
        """Copy of the problem with the linear slack price replaced."""
        if self.scaling is not None:
            raise ModelError("set eta before scaling the problem")
        if not np.isfinite(eta):
            raise ConfigError(f"eta must be finite, got {eta}")
        if eta < 0:
            raise ConfigError("eta must be nonnegative")
        d = self.d.copy()
        d[self.slack_index] = eta
        d.flags.writeable = False
        return replace(self, d=d)


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


def build_problem(feeder: FeederModel, config: BuilderConfig) -> MpqpProblem:
    """Assemble the parametric QP for one feeder and configuration.

    Each bus voltage is its piece root's voltage (the substation's or a
    regulator output) plus R p + X q over the net injections, from
    feeder.voltage_model: an injection below a regulator reaches the
    upstream piece through the regulator's input bus.  Regulator output
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
    n_theta = 2 * n_inj + 2 * n_der

    qg_col_of_bus = {bus: j for j, bus in enumerate(der)}

    # selector: reactive decision per injection slot (zero row for non-DER)
    sel_qg = np.zeros((n_inj, n_var))
    for bus, j in qg_col_of_bus.items():
        sel_qg[bus - 1, j] = 1.0

    # Wv, Uv: each bus voltage affine in (x, theta), bus 0's being v0 and
    # every other referenced to its piece root's column (v0 for piece 0,
    # vreg[k] for piece k + 1); W and U are their rows 1..n - 1.  RL: loss
    # quadratic over injections
    piece, R, X, RL = voltage_model(feeder)
    Wv = np.zeros((n, n_var))
    Wv[0, v0_col] = 1.0
    W = np.matmul(X, sel_qg, out=Wv[1:])
    W[np.arange(n_inj), v0_col + piece] += 1.0
    Uv = np.zeros((n, n_theta))
    U = Uv[1:]
    pc_sl = slice(0, n_inj)
    qc_sl = slice(n_inj, 2 * n_inj)
    pg_sl = slice(2 * n_inj, 2 * n_inj + n_der)
    der_slot = np.asarray(der, dtype=np.int64) - 1
    U[:, pc_sl] -= R
    U[:, qc_sl] -= X
    U[:, pg_sl] += R[:, der_slot]

    # ---- objective --------------------------------------------------------
    beta = config.beta
    e0 = Wv[0]

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

    # relative to the largest eigenvalue: a Hessian singular up to rounding
    # (condition number 1e18) passes a sign test and then breaks the solves,
    # while a sound beta = 0 feeder's ratio can be as small as 6e-9
    evals = np.linalg.eigvalsh(H)
    if evals[0] <= 1e-12 * evals[-1]:
        raise ConfigError(
            f"cost Hessian not positive definite (min eigenvalue {evals[0]:g}, "
            f"max {evals[-1]:g})"
        )

    # ---- rows -------------------------------------------------------------
    # each inequality row is recorded once, as its label and its RowForm
    # terms; A, E and b are evaluated from the forms below
    hardness = config.hardness()
    labels, forms = [], []

    def record(family, ref, side, bound, b1=0, c1=0.0, b2=0, c2=0.0,
               qg=0, qg_coef=0.0, head=0, head_coef=0.0):
        labels.append(RowLabel(family, ref, side, hardness.get(family, "hard") == "soft"))
        forms.append((b1, c1, b2, c2, qg, qg_coef, head, head_coef, bound))

    for j, bus in enumerate(der):
        ref = feeder.ext_ids[bus]
        head = pg_sl.stop + j  # the headroom columns follow the solar ones
        # sign qg_j - headroom_j <= 0
        record(INVERTER_CAP, ref, "hi", 0.0, qg=j, qg_coef=1.0, head=head, head_coef=-1.0)
        record(INVERTER_CAP, ref, "lo", 0.0, qg=j, qg_coef=-1.0, head=head, head_coef=-1.0)

    for rg in regs:
        ref = f"{feeder.ext_ids[rg.m]}-{feeder.ext_ids[rg.n]}"
        if rg.kind == REMOTE:
            # 0.9 v_m <= v_n <= 1.1 v_m
            record(REMOTE_REG, ref, "lo", 0.0, rg.m, REMOTE_RATIO_LO, rg.n, -1.0)
            record(REMOTE_REG, ref, "hi", 0.0, rg.n, 1.0, rg.m, -REMOTE_RATIO_HI)
        else:
            # input window keeping the output target reachable across the
            # tap range: (vref - delta)/1.1 <= v_m <= (vref + delta)/0.9
            record(REG_INPUT, ref, "hi", (rg.vref + rg.delta) / REMOTE_RATIO_LO, rg.m, 1.0)
            record(REG_INPUT, ref, "lo", -(rg.vref - rg.delta) / REMOTE_RATIO_HI, rg.m, -1.0)

    for bus in range(1, n):
        record(VOLTAGE_HI, feeder.ext_ids[bus], "hi", config.vmax, bus, 1.0)
        record(VOLTAGE_LO, feeder.ext_ids[bus], "lo", -config.vmin, bus, -1.0)

    record(SLACK_NONNEG, "s", "lo", 0.0)

    cols = list(zip(*forms))
    row_form = RowForm(
        bus=np.array(cols[0:4:2], dtype=np.int64).T,
        bus_coef=np.array(cols[1:4:2]).T,
        qg=np.array(cols[4], dtype=np.int64),
        qg_coef=np.array(cols[5]),
        headroom=np.array(cols[6], dtype=np.int64),
        headroom_coef=np.array(cols[7]),
        bound=np.array(cols[8]),
    )
    # a bus term c v[b] puts c Wv[b] into A and -c Uv[b] into E (only rows
    # with a bus term are negated, so the other rows' zeros stay +0.0), a
    # setpoint term its coefficient into A and a headroom term minus its
    # coefficient into E; a soft row also reads -s, and the slack row is
    # -s <= 0
    buses, coefs = row_form.bus, row_form.bus_coef
    two = np.flatnonzero(coefs[:, 1])
    A = Wv[buses[:, 0]]
    A *= coefs[:, :1]
    A[two] += coefs[two, 1:] * Wv[buses[two, 1]]
    E = Uv[buses[:, 0]]
    E *= coefs[:, :1]
    E[two] += coefs[two, 1:] * Uv[buses[two, 1]]
    np.negative(E, out=E, where=coefs[:, :1] != 0.0)
    q = np.flatnonzero(row_form.qg_coef)
    A[q, row_form.qg[q]] += row_form.qg_coef[q]
    h = np.flatnonzero(row_form.headroom_coef)
    E[h, row_form.headroom[h]] -= row_form.headroom_coef[h]
    A[[lab.soft for lab in labels], s_col] -= 1.0
    es = np.zeros(n_var)
    es[s_col] = 1.0
    A[-1] = -es

    # ---- equalities -------------------------------------------------------
    beq_rows, feq_rows, f_vals, eq_labels = [], [], [], []
    for rg in regs:
        if rg.kind == REMOTE:
            continue
        ref = f"{feeder.ext_ids[rg.m]}-{feeder.ext_ids[rg.n]}"
        if rg.kind == LOCAL:
            beq_rows.append(Wv[rg.n])
            feq_rows.append(-Uv[rg.n])
            f_vals.append(rg.vref)
            eq_labels.append(RowLabel(LOCAL_REG_EQ, ref, "eq", False))
        elif rg.kind == LDC:
            # output voltage minus compensator drop equals the target; the
            # drop rides on the total flow crossing the regulator, which is
            # minus the sum of injections below it
            below = np.flatnonzero(feeder.subtree[feeder.parent_line[rg.n]])
            mask = np.zeros(n_inj)
            mask[below - 1] = 1.0
            brow = Wv[rg.n] + rg.x_comp * (sel_qg.T @ mask)  # reactive decisions below
            frow = -Uv[rg.n]
            frow[pc_sl] += rg.r_comp * mask
            frow[pg_sl] += -rg.r_comp * mask[der_slot]
            frow[qc_sl] += rg.x_comp * mask
            beq_rows.append(brow)
            feq_rows.append(frow)
            f_vals.append(rg.vref)
            eq_labels.append(RowLabel(LDC_REG_EQ, ref, "eq", False))

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
        + tuple(f"pg[{feeder.ext_ids[bus]}]" for bus in der)
        + tuple(f"headroom[{feeder.ext_ids[bus]}]" for bus in der)
    )

    _freeze(H, C, d, A, E, B, F, ff, W, U, RL, *vars(row_form).values())
    return MpqpProblem(
        H=H, C=C, d=d, A=A, E=E, b=row_form.bound, B=B, F=F, f=ff,
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
        row_form=row_form,
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
    sqrt((oversize * p_rating)^2 - (alpha * kappa * pg)^2).  Only the
    inverter buses' solar columns enter theta; a nonzero pg at any other
    bus is refused (ConfigError), so no solar is dropped silently.
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
    der = np.asarray(prob.der_buses, dtype=np.int64) - 1
    others = np.delete(np.arange(n_inj), der)
    bad = others[pg[:, others].any(axis=0)]
    if bad.size:
        raise ConfigError(f"solar output given at bus index {bad[0] + 1}, which has no inverter")
    theta = np.zeros((k, prob.n_theta))
    # an overflow becomes inf or NaN here and is refused below, in one line
    with np.errstate(over="ignore", invalid="ignore"):
        theta[:, prob.pc_slice()] = kappa * pc
        theta[:, prob.qc_slice()] = kappa * qc
        cap = oversize * np.asarray(prob.der_p_rating)
        gen = alpha * kappa * pg[:, der]
        theta[:, prob.pg_slice()] = gen
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
#: factor by which the calibrated slack price exceeds the largest sample's
#: soft-row multiplier sum
ETA_MARGIN = 10.0


def calibrate_eta(prob: MpqpProblem, thetas: np.ndarray) -> float:
    """Slack price from soft-constraint multipliers of sample instances.

    Solves the unrelaxed problem of every sample in one stacked solve, sums
    the multipliers of the soft rows per sample, and returns
    ETA_MARGIN * (largest sum).  Infeasible samples are skipped, with one
    warning that counts them; if no sample is solved (an empty sample
    included) there is nothing to calibrate against and
    AllInfeasibleError is raised.  A batch whose
    soft rows never bind yields 0.0; callers must floor the result at
    ETA_FLOOR before use.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    H, A, B, c, b, beq, soft = prob._slack_free(thetas)
    n = thetas.shape[0]
    if n == 0:
        raise AllInfeasibleError("no calibration samples")
    batch = solve_qp_batch(QpMatrices(H, A, B), c, b, beq)
    solved = batch.status == OPTIMAL
    if not solved.any():
        raise AllInfeasibleError(f"all {n} calibration samples infeasible")
    skipped = n - int(solved.sum())
    if skipped:
        logger.warning("calibration skipped %d of %d samples", skipped, n)
    return ETA_MARGIN * float(batch.lam[solved][:, soft].sum(axis=1).max())


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
