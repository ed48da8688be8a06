"""Radial feeder model.

Parses the feeder document, validates the topology, splits the tree into
regulator-bounded subgraphs, and computes the injection-to-voltage
sensitivities used everywhere else.  Voltage magnitudes are per-unit; a
first-order drop model is used inside each subgraph:

    v_m - v_n ~= r_mn * P_mn + x_mn * Q_mn

so member voltages are affine in the injections with coefficient matrices
whose (i, j) entry is the resistance (reactance) summed over the lines
shared by the paths root->i and root->j.
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
    SingularIncidenceError,
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
    parent_line: np.ndarray
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

    def line_between(self, a: int, b: int) -> int:
        for k, ln in enumerate(self.lines):
            if (ln.from_bus, ln.to_bus) == (a, b) or (ln.from_bus, ln.to_bus) == (b, a):
                return k
        raise SchemaError(f"no line between buses {self.ext_ids[a]} and {self.ext_ids[b]}")

    def regulator_line_indices(self) -> set[int]:
        return {self.line_between(rg.m, rg.n) for rg in self.regulators}


@dataclass(frozen=True)
class Subgraph:
    """One regulator-bounded piece of the tree.

    ``root`` is the substation or a regulator output bus.  ``members`` are
    the buses whose voltage is referenced to the root (the root itself is
    excluded).
    """

    index: int
    root: int
    members: tuple[int, ...]
    line_indices: tuple[int, ...]


@dataclass(frozen=True)
class SubgraphSensitivity:
    """Affine voltage data for one subgraph.

    R and X map member injections to voltage deviations from the root.
    """

    index: int
    root: int
    members: tuple[int, ...]
    R: np.ndarray
    X: np.ndarray


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
        if l < 0:
            continue
        subtree[l, bus] = True
        up_line = parent_line[parent[bus]]
        if up_line >= 0:
            subtree[up_line] |= subtree[l]
    # fixpoint above relies on BFS order; verify each mask is closed upward
    for l, ln in enumerate(lines):
        if not subtree[l, ln.to_bus]:
            raise SingularIncidenceError("subtree accumulation failed")

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
# regulator partition and sensitivities


def partition_by_regulators(feeder: FeederModel) -> tuple[Subgraph, ...]:
    """Split the tree into subgraphs by cutting every regulator line.

    The piece containing the substation comes first, rooted at bus 0; each
    regulator contributes a piece rooted at its output bus, in document
    order.  Every non-substation bus lands in exactly one piece.
    """
    cut = {feeder.line_between(rg.m, rg.n) for rg in feeder.regulators}
    children: list[list[tuple[int, int]]] = [[] for _ in range(feeder.n_bus)]
    for k, ln in enumerate(feeder.lines):
        if k not in cut:
            children[ln.from_bus].append((ln.to_bus, k))

    def grow(root: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        buses, lns = [], []
        stack = [root]
        while stack:
            u = stack.pop()
            for v, k in children[u]:
                buses.append(v)
                lns.append(k)
                stack.append(v)
        return tuple(sorted(buses)), tuple(sorted(lns))

    out = []
    members, lns = grow(0)
    out.append(Subgraph(0, 0, members, lns))
    for j, rg in enumerate(feeder.regulators, start=1):
        members, lns = grow(rg.n)
        out.append(Subgraph(j, rg.n, members, lns))
    return tuple(out)


def sensitivity_matrices(sub: Subgraph, feeder: FeederModel) -> SubgraphSensitivity:
    """Build R and X for one subgraph.

    Works by two tree traversals instead of inverting the incidence matrix:
    each line adds its impedance to every member pair lying below it, which
    reproduces the shared-path-to-root rule.  R (and X when every line has
    positive reactance) is symmetric positive definite.
    """
    members = sub.members
    if not members:
        z = np.zeros((0, 0))
        return SubgraphSensitivity(sub.index, sub.root, members, z, z.copy())
    # each member's feeding line, ordered like the members themselves
    line_order = tuple(int(feeder.parent_line[b]) for b in members)
    if sorted(line_order) != sorted(sub.line_indices):
        raise SingularIncidenceError("subgraph line set does not match its members")
    mem_idx = np.asarray(members, dtype=np.int64)
    below = feeder.subtree[np.asarray(line_order, dtype=np.int64)][:, mem_idx]
    r = np.array([feeder.lines[k].r for k in line_order])
    x = np.array([feeder.lines[k].x for k in line_order])
    mem = below.astype(float)
    R = mem.T @ (r[:, None] * mem)
    X = mem.T @ (x[:, None] * mem)
    for arr in (R, X):
        arr.flags.writeable = False
    return SubgraphSensitivity(sub.index, sub.root, members, R, X)

