"""Radial feeder model.

Parses the feeder document, validates the topology, and computes the
injection-to-voltage sensitivities used everywhere else.  Voltage
magnitudes are per-unit; a first-order drop model is used on every line
but the regulator lines:

    v_m - v_n ~= r_mn * P_mn + x_mn * Q_mn

Each regulator output bus roots the piece of the tree below it, up to
the next regulators, so a bus's voltage is its piece root's plus an
affine term in the injections, whose (i, j) coefficient is the
resistance (reactance) summed over the lines between bus i and its
piece root that carry bus j's injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleError,
    DisconnectedError,
    DuplicateRegulatorError,
    SchemaError,
)

REMOTE = "remote"
LOCAL = "local"
LDC = "ldc"

#: input-window half width used when a regulator row leaves the field blank
DEFAULT_BANDWIDTH = 0.0083


@dataclass(frozen=True)
class Line:
    """Series branch oriented away from the substation (from_bus is upstream)."""

    from_bus: int
    to_bus: int
    r: float
    x: float


@dataclass(frozen=True)
class RegulatorSpec:
    """Voltage regulator riding on the line (m, n); m is the input side.

    kind is one of "remote", "local", "ldc".  vref and delta apply to the
    local and ldc kinds; r_comp / x_comp are the line-drop compensator
    impedance and apply to ldc only.
    """

    m: int
    n: int
    kind: str
    vref: float | None = None
    delta: float | None = None
    r_comp: float | None = None
    x_comp: float | None = None


@dataclass(frozen=True)
class FeederModel:
    """Validated radial feeder with dense bus indexing (substation = 0)."""

    ext_ids: tuple[str, ...]
    lines: tuple[Line, ...]
    regulators: tuple[RegulatorSpec, ...]
    p_rating: np.ndarray
    parent: np.ndarray
    parent_line: np.ndarray  # the line into each bus; -1 at the substation
    subtree: np.ndarray  # (n_lines, n_bus) bool, bus below line (inclusive)

    @property
    def n_bus(self) -> int:
        return len(self.ext_ids)

    @property
    def der_buses(self) -> np.ndarray:
        """Buses hosting an inverter, identified by a positive active rating."""
        return np.flatnonzero(self.p_rating > 0.0)

    def index_of(self, ext_id: str) -> int:
        try:
            return self.ext_ids.index(str(ext_id))
        except ValueError:
            raise SchemaError(f"unknown bus id {ext_id!r}") from None


# ---------------------------------------------------------------------------
# document parsing


def _tokens(line: str) -> list[str]:
    body = line.split("#", 1)[0].strip()
    if not body:
        return []
    return body.replace(",", " ").split()


def _float(tok: str, what: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise SchemaError(f"bad numeric value {tok!r} for {what}") from None
    if not math.isfinite(v):
        raise SchemaError(f"non-finite value {tok!r} for {what}")
    return v


def _opt_float(tok: str, what: str) -> float | None:
    if tok == "-":
        return None
    return _float(tok, what)


def load_feeder(text: str) -> FeederModel:
    """Parse and validate a feeder document.

    The document has bracketed sections: ``[substation]`` with one bus id,
    ``[buses]`` with ``id  p_peak  p_rating`` rows, ``[lines]`` with
    ``from  to  r  x`` rows, and an optional ``[regulators]`` section with
    ``m  n  kind  vref  delta  r_comp  x_comp`` rows ("-" marks a field
    that does not apply).  ``#`` starts a comment.  All values are decimal
    per-unit quantities.  p_peak, the bus's peak load, is checked but not
    kept: the load profiles carry the loads.
    """
    sections: dict[str, list[list[str]]] = {}
    current: str | None = None
    for raw in text.splitlines():
        toks = _tokens(raw)
        if not toks:
            continue
        head = raw.split("#", 1)[0].strip()
        if head.startswith("[") and head.endswith("]"):
            current = head[1:-1].strip().lower()
            if current in sections:
                raise SchemaError(f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise SchemaError(f"data before any section header: {raw.strip()!r}")
        sections[current].append(toks)

    for required in ("substation", "buses", "lines"):
        if required not in sections:
            raise SchemaError(f"missing section [{required}]")
    unknown = set(sections) - {"substation", "buses", "lines", "regulators"}
    if unknown:
        raise SchemaError(f"unknown sections: {sorted(unknown)}")

    if len(sections["substation"]) != 1 or len(sections["substation"][0]) != 1:
        raise SchemaError("[substation] must hold exactly one bus id")
    sub_id = sections["substation"][0][0]

    raw_buses: dict[str, float] = {}  # id -> p_rating
    for row in sections["buses"]:
        if len(row) != 3:
            raise SchemaError(f"bus row needs 'id p_peak p_rating', got {row}")
        bid, peak_tok, p_tok = row
        if bid in raw_buses:
            raise SchemaError(f"duplicate bus id {bid!r}")
        p_peak = _float(peak_tok, f"p_peak of bus {bid}")
        p_bar = _float(p_tok, f"p_rating of bus {bid}")
        if p_peak < 0 or p_bar < 0:
            raise SchemaError(f"negative p_peak or p_rating at bus {bid}")
        raw_buses[bid] = p_bar
    if sub_id not in raw_buses:
        raise SchemaError(f"substation bus {sub_id!r} not listed in [buses]")
    if raw_buses[sub_id] > 0:
        raise SchemaError("substation bus cannot host an inverter rating")

    n_bus = len(raw_buses)
    raw_lines = []
    seen_pairs = set()
    for row in sections["lines"]:
        if len(row) != 4:
            raise SchemaError(f"line row needs 'from to r x', got {row}")
        a, b, r_tok, x_tok = row
        for bid in (a, b):
            if bid not in raw_buses:
                raise SchemaError(f"line references unknown bus {bid!r}")
        if a == b:
            raise SchemaError(f"self-loop at bus {a!r}")
        key = frozenset((a, b))
        if key in seen_pairs:
            raise SchemaError(f"duplicate line between {a!r} and {b!r}")
        seen_pairs.add(key)
        r = _float(r_tok, f"r of line {a}-{b}")
        x = _float(x_tok, f"x of line {a}-{b}")
        if r <= 0:
            raise SchemaError(f"line {a}-{b} needs r > 0")
        if x < 0:
            raise SchemaError(f"line {a}-{b} needs x >= 0")
        raw_lines.append((a, b, r, x))

    if len(raw_lines) > n_bus - 1:
        raise CycleError(f"{len(raw_lines)} lines for {n_bus} buses; tree needs {n_bus - 1}")
    if len(raw_lines) < n_bus - 1:
        raise DisconnectedError(
            f"{len(raw_lines)} lines for {n_bus} buses; tree needs {n_bus - 1}"
        )

    # BFS from the substation to orient lines away from it and detect defects.
    adj: dict[str, list[tuple[str, int]]] = {bid: [] for bid in raw_buses}
    for k, (a, b, _, _) in enumerate(raw_lines):
        adj[a].append((b, k))
        adj[b].append((a, k))
    order = [sub_id]
    visited = {sub_id}
    used_line = [False] * len(raw_lines)
    parent_ext: dict[str, tuple[str, int]] = {}
    qhead = 0
    while qhead < len(order):
        u = order[qhead]
        qhead += 1
        for v, k in adj[u]:
            if used_line[k]:
                continue
            used_line[k] = True
            if v in visited:
                raise CycleError(f"cycle detected through line {raw_lines[k][0]}-{raw_lines[k][1]}")
            visited.add(v)
            parent_ext[v] = (u, k)
            order.append(v)
    if len(visited) != n_bus:
        missing = sorted(set(raw_buses) - visited)
        raise DisconnectedError(f"buses unreachable from substation: {missing}")

    ext_ids = tuple(order)  # BFS order, substation first
    idx = {bid: i for i, bid in enumerate(ext_ids)}

    lines = []
    parent = np.full(n_bus, -1, dtype=np.int64)
    parent_line = np.full(n_bus, -1, dtype=np.int64)
    for bid in order[1:]:
        up, k = parent_ext[bid]
        a, b, r, x = raw_lines[k]
        i = idx[bid]
        parent[i] = idx[up]
        parent_line[i] = len(lines)
        lines.append(Line(idx[up], i, r, x))

    # subtree masks: bus j below line l, downstream end included
    n_lines = len(lines)
    subtree = np.zeros((n_lines, n_bus), dtype=bool)
    for bus in range(n_bus - 1, 0, -1):  # internal ids follow BFS order: children first
        l = parent_line[bus]
        subtree[l, bus] = True
        up_line = parent_line[parent[bus]]
        if up_line >= 0:
            subtree[up_line] |= subtree[l]

    regulators = []
    reg_lines = set()
    for row in sections.get("regulators", ()):
        if len(row) != 7:
            raise SchemaError(
                f"regulator row needs 'm n kind vref delta r_comp x_comp', got {row}"
            )
        m_tok, n_tok, kind, vref_tok, delta_tok, rc_tok, xc_tok = row
        kind = kind.lower()
        if kind not in (REMOTE, LOCAL, LDC):
            raise SchemaError(f"unknown regulator kind {kind!r}")
        for bid in (m_tok, n_tok):
            if bid not in raw_buses:
                raise SchemaError(f"regulator references unknown bus {bid!r}")
        m, n = idx[m_tok], idx[n_tok]
        if frozenset((m_tok, n_tok)) not in seen_pairs:
            raise SchemaError(f"regulator line {m_tok}-{n_tok} not in [lines]")
        if parent[n] != m:
            raise SchemaError(
                f"regulator input bus must be the upstream end of its line "
                f"({m_tok!r} does not feed {n_tok!r})"
            )
        lk = parent_line[n]
        if lk in reg_lines:
            raise DuplicateRegulatorError(f"two regulators on line {m_tok}-{n_tok}")
        reg_lines.add(lk)

        vref = _opt_float(vref_tok, "vref")
        delta = _opt_float(delta_tok, "delta")
        r_comp = _opt_float(rc_tok, "r_comp")
        x_comp = _opt_float(xc_tok, "x_comp")
        if kind == REMOTE:
            if vref is not None or delta is not None or r_comp is not None or x_comp is not None:
                raise SchemaError("remote regulator takes no vref/delta/compensator fields")
        else:
            if vref is None:
                raise SchemaError(f"{kind} regulator needs vref")
            if vref <= 0:
                raise SchemaError("vref must be positive")
            if delta is None:
                delta = DEFAULT_BANDWIDTH
            if not 0 < delta < vref:
                raise SchemaError("delta must satisfy 0 < delta < vref")
            if kind == LDC:
                if r_comp is None or x_comp is None:
                    raise SchemaError("ldc regulator needs r_comp and x_comp")
                if r_comp < 0 or x_comp < 0:
                    raise SchemaError("compensator impedance must be nonnegative")
            elif r_comp is not None or x_comp is not None:
                raise SchemaError("local regulator takes no compensator fields")
        regulators.append(
            RegulatorSpec(m, n, kind, vref=vref, delta=delta, r_comp=r_comp, x_comp=x_comp)
        )

    p_rating = np.array([raw_buses[b] for b in ext_ids])
    for arr in (p_rating, parent, parent_line, subtree):
        arr.flags.writeable = False

    return FeederModel(
        ext_ids=ext_ids,
        lines=tuple(lines),
        regulators=tuple(regulators),
        p_rating=p_rating,
        parent=parent,
        parent_line=parent_line,
        subtree=subtree,
    )


# ---------------------------------------------------------------------------
# first-order voltage and loss model


def voltage_model(feeder: FeederModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Piece of each bus and the injection-to-voltage and loss matrices.

    Cutting every regulator line splits the tree into pieces: piece 0
    holds the substation, piece k + 1 is rooted at regulator k's output
    bus.  Returns (piece, R, X, RL) over the injection slots of buses
    1..N: bus i + 1 lies in piece piece[i], and its voltage is its piece
    root's plus (R p + X q)[i] for net injections p and q.  R[i, j] sums r
    over the lines between bus i + 1 and its piece root that also carry
    bus j + 1's injection; a line carries every bus below it, across
    regulators, so an injection below a regulator acts on the upstream
    piece through the regulator's input bus.  p' RL p is the ohmic loss
    over every non-regulator line.
    """
    piece = np.zeros(feeder.n_bus, dtype=np.int64)
    starts = {rg.n: k + 1 for k, rg in enumerate(feeder.regulators)}
    for bus in range(1, feeder.n_bus):  # BFS order: parents come first
        piece[bus] = starts.get(bus, piece[feeder.parent[bus]])
    # a line lies in its lower bus's piece; a regulator line lies in none
    line_piece = piece[[ln.to_bus for ln in feeder.lines]]
    line_piece[feeder.parent_line[list(starts)]] = -1
    T = feeder.subtree[:, 1:].astype(float)
    path = T * (line_piece[:, None] == piece[None, 1:])
    r = np.array([ln.r for ln in feeder.lines])
    x = np.array([ln.x for ln in feeder.lines])
    R = path.T @ (r[:, None] * T)
    X = path.T @ (x[:, None] * T)
    RL = np.zeros_like(R)
    # summed piece by piece: one product over every line regroups the
    # terms, which moves RL by an ulp or so and with it the results files
    for s in range(len(starts) + 1):
        Ts = T[line_piece == s]
        RL += Ts.T @ (r[line_piece == s, None] * Ts)
    return piece[1:], R, X, RL
