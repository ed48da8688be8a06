"""Violation statistics over a finished batch.

Everything here reads a BatchResult and reports in original (unscaled)
units: slack distributions per analysis-grid group, per-bus voltage
quantiles, which soft constraints would be violated without the slack
and by how much, and the tap ratios implied for remote regulators.
Slack below 1e-8 is treated as exactly zero; an instance whose slack
exceeds 1e-6 is counted as needing relaxation, meaning its unrelaxed
problem is infeasible for practical purposes.

json_report dumps one object made by a statistics pass over the result:
the counters, the group statistics and the remote regulators' tap-ratio
ranges, the last two from group_stats and recover_ratios on one voltage
matrix.  render_report formats the same object as text, so the two
reports cannot disagree.  The object is kept on the result, keyed by the
theta set and feeder objects the pass read, so a report pair on one
result runs the pass once.  The reports therefore treat a BatchResult
as a value: to change one, build a new one with dataclasses.replace
(which starts with no object kept) rather than editing its arrays in
place after a report.  The public functions below are never cached.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .engine import BatchResult
from .errors import EmptyGroupError
from .feeder import REMOTE, FeederModel
from .scenarios import ThetaSet

SLACK_ZERO_TOL = 1e-8
RELAX_THRESHOLD = 1e-6
VIOLATION_TOL = 1e-6
#: the slack and voltage quantiles every group reports
QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
#: most violated soft rows a group lists
TOP_ROWS = 5


def slack_values(result: BatchResult) -> np.ndarray:
    """Zero-clamped slack per instance; NaN where no solution exists."""
    s = result.x[:, result.problem.slack_index].copy()
    tiny = np.abs(s) < SLACK_ZERO_TOL
    s[tiny & np.isfinite(s)] = 0.0
    return s


def voltage_matrix(result: BatchResult) -> np.ndarray:
    """Non-substation voltages per instance (rows follow the batch)."""
    return _voltages(result.problem, result.x, result.thetas)


def _voltages(prob, x: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """x W' + theta U' of the stacked rows x and thetas."""
    volts = x @ prob.W.T
    volts += thetas @ prob.U.T
    return volts


def _with_v0(result: BatchResult, picks: np.ndarray, volts: np.ndarray) -> np.ndarray:
    """The voltages of the instances picks (volts' rows) behind their v0,
    bus j in column j, as RowForm.residuals reads them."""
    out = np.empty((picks.size, volts.shape[1] + 1))
    out[:, 0] = result.x[picks, result.problem.v0_index]
    out[:, 1:] = volts
    return out


def recover_ratios(
    result: BatchResult, feeder: FeederModel, volts: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Implied tap ratio v_out / v_in per remote regulator, per instance.

    volts, when given, is the result's voltage_matrix; otherwise that
    matrix is formed once a remote regulator needs it."""
    prob = result.problem
    out = {}
    for k, rg in enumerate(feeder.regulators):
        if rg.kind != REMOTE:
            continue
        if volts is None:
            volts = voltage_matrix(result)
        ref = f"{feeder.ext_ids[rg.m]}-{feeder.ext_ids[rg.n]}"
        v_out = result.x[:, prob.vreg_indices[k]]
        v_in = result.x[:, prob.v0_index] if rg.m == 0 else volts[:, rg.m - 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            out[ref] = v_out / v_in
    return out


@dataclass(frozen=True)
class GroupStats:
    """Summary for one (kappa, oversize, alpha) cell of the grid."""

    key: tuple[float, float, float]
    n_instances: int
    n_solved: int
    n_relaxed: int
    slack_quantiles: tuple[float, ...]
    max_slack: float
    voltage_quantiles: np.ndarray  # len(QUANTILES) x n_inj
    worst_rows: tuple[tuple[str, int, float], ...]  # label, violated count, max amount


def _quantiles(values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """np.quantile(values, qs, axis=0, method="linear") of values already
    sorted along axis 0, bit for bit: the order statistics at q (n - 1),
    interpolated as numpy does (from the upper one when the weight is at
    least 0.5).  numpy's own call would sort again and import numpy.ma."""
    at = (values.shape[0] - 1) * qs
    lo = np.floor(at)
    lo[at >= values.shape[0] - 1] = -1  # numpy reads the last row there
    t = (at - lo).reshape(-1, *(1,) * (values.ndim - 1))
    lo = lo.astype(np.intp)
    a, b = values[lo], values[np.where(lo < 0, -1, lo + 1)]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out


def group_stats(
    result: BatchResult, theta_set: ThetaSet, volts: np.ndarray | None = None
) -> list[GroupStats]:
    """Per-group distributions over the solved instances: QUANTILES of the
    slack and of each bus voltage, and the TOP_ROWS most violated soft
    rows.

    Quantiles use the linear interpolation rule.  volts, when given, is
    the result's voltage_matrix, which is formed otherwise.  Raises
    EmptyGroupError when a grid cell produced no solved instance at all.
    """
    if volts is None:
        volts = voltage_matrix(result)
    prob = result.problem
    s_all = slack_values(result)
    soft = prob.soft_rows
    labels = [str(prob.row_labels[i]) for i in soft]
    qs = np.asarray(QUANTILES)

    out = []
    for key, rows in theta_set.groups():
        solved = rows[np.isfinite(s_all[rows])]
        if solved.size == 0:
            raise EmptyGroupError(f"grid cell {key} has no solved instances")
        s = np.sort(s_all[solved])
        cell = _with_v0(result, solved, volts[solved])
        resid = prob.row_form.residuals(soft, cell, result.x, result.thetas, solved)
        cell = cell[:, 1:]
        cell.sort(axis=0)
        vq = _quantiles(cell, qs)
        counts = (resid > VIOLATION_TOL).sum(axis=0)
        worst = []
        for j in np.argsort(-counts):
            if counts[j] == 0:
                break
            worst.append((labels[j], int(counts[j]), float(resid[:, j].max())))
            if len(worst) == TOP_ROWS:
                break
        out.append(
            GroupStats(
                key=key,
                n_instances=int(rows.size),
                n_solved=int(solved.size),
                n_relaxed=int((s > RELAX_THRESHOLD).sum()),
                slack_quantiles=tuple(_quantiles(s, qs).tolist()),
                max_slack=float(s.max()),
                voltage_quantiles=vq,
                worst_rows=tuple(worst),
            )
        )
    return out


def _summary(result: BatchResult, theta_set: ThetaSet, feeder: FeederModel) -> dict:
    """The JSON report's object for these inputs, from one statistics pass.

    It is kept on the result with the theta set and feeder it read, and
    served again while both are the same objects.
    """
    kept = result._report_summary
    if kept is not None and kept[0] is theta_set and kept[1] is feeder:
        return kept[2]
    volts = voltage_matrix(result)
    buses = feeder.ext_ids[1:]
    groups = []
    for gs in group_stats(result, theta_set, volts):
        groups.append(
            {
                "kappa": gs.key[0],
                "oversize": gs.key[1],
                "alpha": gs.key[2],
                "instances": gs.n_instances,
                "solved": gs.n_solved,
                "relaxed": gs.n_relaxed,
                "max_slack": gs.max_slack,
                "slack_quantiles": list(gs.slack_quantiles),
                "voltage_quantiles": dict(zip(buses, gs.voltage_quantiles.T.tolist())),
                "worst_rows": [
                    {"row": label, "count": cnt, "max_violation": amt}
                    for label, cnt, amt in gs.worst_rows
                ],
            }
        )
    payload = {
        "counters": asdict(result.counters),
        "quantiles": list(QUANTILES),
        "groups": groups,
    }
    ratios = {}
    for ref, arr in recover_ratios(result, feeder, volts).items():
        finite = arr[np.isfinite(arr)]
        ratios[ref] = {"min": float(finite.min()), "max": float(finite.max())}
    if ratios:
        payload["remote_ratios"] = ratios
    result._report_summary = (theta_set, feeder, payload)
    return payload


def render_report(result: BatchResult, theta_set: ThetaSet, feeder: FeederModel) -> str:
    """Human-readable batch report: json_report's object as text."""
    payload = _summary(result, theta_set, feeder)
    c = payload["counters"]
    lines = []
    lines.append("batch summary")
    lines.append(
        f"  instances {c['n_instances']}  qp-solves {c['qp_solves']} "
        f"({100.0 * c['qp_solves'] / max(c['n_instances'], 1):.2f}%)  "
        f"regions {c['regions_built']}"
    )
    lines.append(
        f"  reuse {c['reuse']}  seeds {c['seeds']}  degenerate {c['degenerate']} "
        f"budget-exhausted {c['budget_exhausted']}  infeasible {c['infeasible']}  failed {c['failed']}"
    )
    qs_label = " ".join(f"q{int(round(100 * q)):02d}" for q in payload["quantiles"])
    bus_row = "    bus %4s  " + " ".join(["%.5f"] * len(payload["quantiles"]))
    for g in payload["groups"]:
        lines.append("")
        lines.append(
            f"group kappa={g['kappa']:g} oversize={g['oversize']:g} alpha={g['alpha']:g} "
            f"({g['solved']}/{g['instances']} solved)"
        )
        lines.append(
            f"  relaxed {g['relaxed']} ({100.0 * (g['relaxed'] / g['solved']):.2f}%)  "
            f"max slack {g['max_slack']:.3e}"
        )
        lines.append(
            "  slack    " + qs_label + "  =  "
            + " ".join(f"{v:.3e}" for v in g["slack_quantiles"])
        )
        lines.append("  voltage quantiles per bus [" + qs_label + "]")
        for bus, vals in g["voltage_quantiles"].items():
            lines.append(bus_row % (bus, *vals))
        if g["worst_rows"]:
            lines.append("  most violated soft rows (count, worst amount):")
            for w in g["worst_rows"]:
                lines.append(f"    {w['row']}  {w['count']}  {w['max_violation']:.3e}")
        else:
            lines.append("  no soft-row violations")
    if "remote_ratios" in payload:
        lines.append("")
        lines.append("remote regulator tap ratios (min, max over solved instances)")
        for ref, r in payload["remote_ratios"].items():
            lines.append(f"  {ref}  {r['min']:.5f}  {r['max']:.5f}")
    return "\n".join(lines) + "\n"


def json_report(result: BatchResult, theta_set: ThetaSet, feeder: FeederModel) -> str:
    """Machine-readable counterpart of render_report; deterministic."""
    return _json_text(_summary(result, theta_set, feeder))


def _json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=1), byte for byte."""
    parts = []
    _write_json(obj, "\n", parts)
    return "".join(parts)


def _write_json(obj, newline: str, parts: list) -> None:
    """Append json.dumps(obj, sort_keys=True, indent=1)'s text to parts, byte
    for byte, with obj's first line at the indent newline ends in.  A list
    of floats alone is joined from float.__repr__ in one call."""
    if not isinstance(obj, (dict, list, tuple)):
        parts.append(json.dumps(obj))
        return
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = newline + " "
    sep = ("{" if isinstance(obj, dict) else "[") + inner
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            # json.dumps writes a key that is not a string as its own text
            key = key if isinstance(key, str) else json.dumps(key)
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
        return
    try:
        text = ("," + inner).join(map(float.__repr__, obj))
    except TypeError:  # not floats alone
        text = "n"
    if "n" not in text:  # no nan or inf, which JSON spells otherwise
        parts.append(sep + text + newline + "]")
        return
    for value in obj:
        parts.append(sep)
        _write_json(value, inner, parts)
        sep = "," + inner
    parts.append(newline + "]")
