"""Scenario ingestion and parameter-set expansion.

Loads come from a CSV in either long form (hour,bus,value) or wide form
(hour plus one column per bus); the form is detected from the header.
Reactive consumption is synthesized from a per-bus power factor drawn
uniformly from [0.90, 0.95] with a caller-supplied seed, so a scenario
set is reproducible from (files, seed) alone.  Solar columns are
peak-normalized to the inverter active rating of their bus, which makes
the penetration and oversize factors in the analysis grid dimensionless
knobs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .builder import MpqpProblem, theta_map_batch
from .errors import ConfigError, MissingBusError, NegativeValueError, SchemaError
from .feeder import FeederModel

PF_LOW = 0.90
PF_HIGH = 0.95


@dataclass(frozen=True)
class ScenarioTable:
    """One parsed profile CSV, aligned to internal non-substation order."""

    hours: tuple[int, ...]
    values: np.ndarray  # shape (n_hours, n_bus - 1)
    present: np.ndarray  # bool per injection slot: bus appeared in the file


@dataclass(frozen=True)
class ScenarioSet:
    """Joined consumption and normalized solar profiles for one feeder."""

    hours: tuple[int, ...]
    pc: np.ndarray
    qc: np.ndarray
    pg: np.ndarray
    power_factor: np.ndarray

    @property
    def n_hours(self) -> int:
        return len(self.hours)


@dataclass(frozen=True)
class AnalysisGrid:
    """Cartesian sweep of the three analysis knobs."""

    kappa: tuple[float, ...] = (1.0,)
    oversize: tuple[float, ...] = (1.0,)
    alpha: tuple[float, ...] = (1.0,)

    def validate(self) -> None:
        if not self.kappa or not self.oversize or not self.alpha:
            raise SchemaError("analysis grid axes must be non-empty")
        for name, vals, lo_ok in (
            ("kappa", self.kappa, lambda v: v > 0),
            ("oversize", self.oversize, lambda v: v >= 1.0),
            ("alpha", self.alpha, lambda v: 0 < v <= 1.0),
        ):
            for v in vals:
                if not math.isfinite(float(v)):
                    raise SchemaError(f"grid value {v!r} for {name} must be finite")
                if not lo_ok(float(v)):
                    raise SchemaError(f"grid value {v!r} out of range for {name}")

    @property
    def size(self) -> int:
        return len(self.kappa) * len(self.oversize) * len(self.alpha)


@dataclass(frozen=True)
class ThetaSet:
    """Stacked parameter vectors with per-row provenance."""

    thetas: np.ndarray
    hour: np.ndarray
    kappa: np.ndarray
    oversize: np.ndarray
    alpha: np.ndarray

    def __len__(self) -> int:
        return self.thetas.shape[0]

    def groups(self) -> list[tuple[tuple[float, float, float], np.ndarray]]:
        """Each distinct (kappa, oversize, alpha) triple in first-seen order,
        with the rows that hold it in index order, found in one sort."""
        cells = np.column_stack([self.kappa, self.oversize, self.alpha]).astype(float)
        if not len(cells):
            return []
        order = np.lexsort(cells.T[::-1])  # stable, so each cell's rows stay in order
        ranked = cells[order]
        starts = np.flatnonzero((ranked[1:] != ranked[:-1]).any(axis=1)) + 1
        rows = sorted(np.split(order, starts), key=lambda r: r[0])
        return [(tuple(cells[r[0]].tolist()), r) for r in rows]


# ---------------------------------------------------------------------------
# CSV parsing


def _parse_hour(tok: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SchemaError(f"line {ln}: hour label {tok!r} is not an integer") from None


def _check_value(tok: str, where: str) -> None:
    """Raise the error of one bad value token; _cast_values's scalar scan."""
    try:
        v = float(tok)
    except ValueError:
        raise SchemaError(f"bad numeric value {tok!r} at {where}") from None
    if not np.isfinite(v):
        raise SchemaError(f"non-finite value at {where}")
    if v < 0:
        raise NegativeValueError(f"negative profile value {v:g} at {where}")


def _cast_values(tokens: list[list[str]], lines: list[int]) -> np.ndarray:
    """The value tokens of every data line (one list per line, all of one
    length) as one float array, one row per line.

    The tokens take Python's float() grammar, in one array cast; the values
    must be finite and nonnegative.  On a bad token, the scalar scan names
    the first one in file order.
    """
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values) & (values >= 0)):
        for ln, row in zip(lines, tokens):
            for tok in row:
                _check_value(tok.strip(), f"line {ln}")
    return values


def _bus_slot(feeder: FeederModel, tok: str) -> int:
    try:
        bus = feeder.index_of(tok)
    except SchemaError:
        raise MissingBusError(f"profile references unknown bus {tok!r}") from None
    if bus == 0:
        raise SchemaError("the substation bus cannot carry a profile")
    return bus - 1


def _header(feeder: FeederModel, row: list[str]) -> tuple[int, bool, list[int]]:
    """The column count of a profile's header row, whether it names the
    long form, and in wide form the slot of each bus column."""
    header = [c.strip() for c in row]
    if not header or header[0].lower() != "hour":
        raise SchemaError("profile header must start with 'hour'")
    if len(header) == 3 and [h.lower() for h in header[1:]] == ["bus", "value"]:
        return 3, True, []
    slots = []
    columns = set()
    for tok in header[1:]:
        if tok in columns:
            raise SchemaError(f"duplicate bus column {tok!r}")
        columns.add(tok)
        slots.append(_bus_slot(feeder, tok))
    if not slots:
        raise SchemaError("wide-form profile needs at least one bus column")
    return len(header), False, slots


def _read_wide(feeder: FeederModel, text: str):
    """_scan's result for a wide-form file, from one np.loadtxt call, or
    None, and _scan reads or refuses the file.

    Only an unquoted file with LF line ends is read here, so that each
    line splits at its commas as the csv module splits it (the CLI reads
    files with universal newlines, so a CRLF file arrives with LF ends).
    Every check _scan makes is made on the arrays, and any failure returns
    None: _scan holds the grammar and every message.
    """
    if "\r" in text or '"' in text:
        return None
    # a line of spaces, tabs and commas is blank; a line the scanner finds
    # blank for other whitespace is kept here and fails its hour below
    lines = [ln for ln in text.split("\n") if ln.strip(" \t,")]
    limit = csv.field_size_limit()
    if any(len(ln) > limit and max(map(len, ln.split(","))) > limit for ln in lines):
        return None  # the csv module refuses a field this long
    try:
        width, long_form, slots = _header(feeder, lines[0].split(","))
        if long_form or len(lines) < 2:
            return None
        hours = [int(ln.split(",", 1)[0]) for ln in lines[1:]]
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except (IndexError, SchemaError, ValueError):
        return None
    if len(set(hours)) < len(hours) or values.shape[1] != width:
        return None
    values = values[:, 1:]
    if not np.all(np.isfinite(values) & (values >= 0)):
        return None
    return hours, values, slots, False


def _scan(feeder: FeederModel, text: str):
    """The data lines' hours, their values (one row per line), the slot of
    each value column (of each line, in long form) and whether the file is
    in long form: the profile grammar, checked line by line.

    A Python pass over the csv rows checks their structure: column count,
    hour, bus and duplicates.  The value tokens of every line that passed
    are then cast and checked as one array (_cast_values).  A structure
    error stops the pass but is raised only after the values before it
    were checked, so the first error in file order is the one reported.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if row and any(c.strip() for c in row)]
    except csv.Error as exc:  # a carriage return inside a line, or an overlong field
        raise SchemaError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise SchemaError("profile file is empty")
    width, long_form, slots = _header(feeder, rows[0])

    # per data line: its number, hour, value tokens and, in long form, slot
    lines: list[int] = []
    hours: list[int] = []
    tokens: list[list[str]] = []
    seen: set = set()  # hours in wide form, (hour, slot) pairs in long form
    slot_of: dict[str, int] = {}
    try:
        for ln, row in enumerate(rows[1:], start=2):
            if long_form:
                if len(row) != 3:
                    raise SchemaError(f"line {ln}: expected hour,bus,value")
                hour = _parse_hour(row[0].strip(), ln)
                bus = row[1].strip()
                if bus not in slot_of:
                    slot_of[bus] = _bus_slot(feeder, bus)
                slot = slot_of[bus]
                lines.append(ln)
                hours.append(hour)
                tokens.append(row[2:])
                # a bad value on this line comes before its duplicate entry
                if (hour, slot) in seen:
                    raise SchemaError(
                        f"line {ln}: duplicate entry for hour {hour}, bus {row[1]!r}"
                    )
                seen.add((hour, slot))
                slots.append(slot)
            else:
                if len(row) != width:
                    raise SchemaError(f"line {ln}: expected {width} columns")
                hour = _parse_hour(row[0].strip(), ln)
                if hour in seen:
                    raise SchemaError(f"line {ln}: duplicate hour {hour}")
                seen.add(hour)
                lines.append(ln)
                hours.append(hour)
                tokens.append(row[1:])
        structure_error = None
    except SchemaError as exc:
        structure_error = exc
    values = _cast_values(tokens, lines)
    if structure_error is not None:
        raise structure_error
    if not lines:
        raise SchemaError("profile file has a header but no data rows")
    return hours, values, slots, long_form


def parse_profile(feeder: FeederModel, text: str) -> ScenarioTable:
    """Parse one profile CSV (long or wide form, detected from the header).

    A wide-form file is read in one numpy pass (_read_wide) and checked on
    its arrays.  Any other file, and any file that fails a check, goes to
    the line scanner (_scan), which defines the grammar and every error
    message; the fast pass returns a table only where the scanner would
    return the same one, byte for byte.
    """
    hours, values, slots, long_form = _read_wide(feeder, text) or _scan(feeder, text)
    n_inj = feeder.n_bus - 1
    distinct = sorted(set(hours))
    table = np.zeros((len(distinct), n_inj))
    if long_form:
        row_of = {h: i for i, h in enumerate(distinct)}
        # unmentioned (hour, bus) pairs stay zero
        table[[row_of[h] for h in hours], slots] = values[:, 0]
    else:
        table[:, slots] = values[sorted(range(len(hours)), key=hours.__getitem__)]
    present = np.zeros(n_inj, dtype=bool)
    present[slots] = True
    table.flags.writeable = False
    present.flags.writeable = False
    return ScenarioTable(hours=tuple(distinct), values=table, present=present)


def load_scenarios(
    feeder: FeederModel,
    loads_text: str,
    solar_text: str | None = None,
    seed: int = 0,
) -> ScenarioSet:
    """Join a load profile and an optional solar profile into one set.

    Reactive load is p * tan(acos(pf)) with one power factor per bus drawn
    from U[0.90, 0.95] using the given seed, a non-negative integer.  Solar
    columns are rescaled so each bus peaks exactly at its inverter active
    rating; a solar column on a bus without a rating is an error, and rated
    buses missing from the solar file simply produce nothing.
    """
    if seed < 0:
        raise ConfigError(f"scenario seed must be a non-negative integer, got {seed}")
    loads = parse_profile(feeder, loads_text)
    n_inj = feeder.n_bus - 1

    rng = np.random.default_rng(seed)
    pf = rng.uniform(PF_LOW, PF_HIGH, size=n_inj)
    qc = loads.values * np.tan(np.arccos(pf))[None, :]

    if solar_text is not None:
        solar = parse_profile(feeder, solar_text)
        if solar.hours != loads.hours:
            raise SchemaError(
                f"solar hours {solar.hours[:3]}... do not match load hours {loads.hours[:3]}..."
            )
        rating = feeder.p_rating[1:]
        bad = np.flatnonzero(solar.present & (rating <= 0))
        if bad.size:
            ext = feeder.ext_ids[int(bad[0]) + 1]
            raise SchemaError(f"solar profile given for bus {ext!r} with no inverter rating")
        pg = solar.values.copy()
        for slot in np.flatnonzero(solar.present):
            peak = pg[:, slot].max()
            if peak > 0:
                pg[:, slot] *= rating[slot] / peak
    else:
        pg = np.zeros_like(loads.values)

    qc.flags.writeable = False
    pg.flags.writeable = False
    pf.flags.writeable = False
    return ScenarioSet(
        hours=loads.hours,
        pc=loads.values,
        qc=qc,
        pg=pg,
        power_factor=pf,
    )


def expand_grid(prob: MpqpProblem, scen: ScenarioSet, grid: AnalysisGrid) -> ThetaSet:
    """Cross every hourly scenario with every grid point.

    Row order is kappa-major, then oversize, then alpha, then hour, which
    fixes the instance numbering that reports refer to.
    """
    grid.validate()
    n_hours = scen.n_hours
    cells = [(k, o, a) for k in grid.kappa for o in grid.oversize for a in grid.alpha]
    # each cell's rows go straight into their slice: no second full copy
    thetas = np.empty((len(cells) * n_hours, prob.n_theta))
    for j, (kappa, oversize, alpha) in enumerate(cells):
        thetas[j * n_hours : (j + 1) * n_hours] = theta_map_batch(
            prob, scen.pc, scen.qc, scen.pg, alpha, kappa, oversize
        )
    thetas.flags.writeable = False
    kappa, oversize, alpha = (np.repeat(v, n_hours) for v in np.array(cells, dtype=float).T)
    return ThetaSet(
        thetas=thetas,
        hour=np.tile(np.asarray(scen.hours, dtype=np.int64), len(cells)),
        kappa=kappa,
        oversize=oversize,
        alpha=alpha,
    )
