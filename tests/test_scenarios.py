"""Profile CSV parsing, reactive synthesis, solar normalization, grid expansion."""

import math

import numpy as np
import pytest

from phca import AnalysisGrid, expand_grid, load_feeder, load_scenarios, theta_map_batch
from phca.errors import MissingBusError, NegativeValueError, SchemaError
from phca import scenarios
from phca.scenarios import ThetaSet, parse_profile

FORK = """
[substation]
s
[buses]
s 0 0
a 1.0 0
b 1.0 0.2
c 1.0 0
[lines]
s a 0.10 0.08
a b 0.20 0.10
a c 0.30 0.15
"""

WIDE = "hour,a,b\n0,1.0,2.0\n1,0.5,1.25\n"
LONG = (
    "hour,bus,value\n"
    "0,a,1.0\n0,b,2.0\n"
    "1,a,0.5\n1,b,1.25\n"
)


@pytest.fixture(scope="module")
def fork():
    return load_feeder(FORK)


def test_wide_form_parse(fork):
    table = parse_profile(fork, WIDE)
    a, b, c = fork.index_of("a") - 1, fork.index_of("b") - 1, fork.index_of("c") - 1
    assert table.hours == (0, 1)
    assert table.values[:, a].tolist() == [1.0, 0.5]
    assert table.values[:, b].tolist() == [2.0, 1.25]
    assert table.values[:, c].tolist() == [0.0, 0.0]
    assert table.present[a] and table.present[b] and not table.present[c]


def test_wide_form_rows_in_hour_order(fork):
    table = parse_profile(fork, "hour,b,a\n3,1.0,2.0\n1,0.5,1.25\n")
    a, b = fork.index_of("a") - 1, fork.index_of("b") - 1
    assert table.hours == (1, 3)
    assert table.values[:, [a, b]].tolist() == [[1.25, 0.5], [2.0, 1.0]]


def test_long_form_matches_wide(fork):
    assert parse_profile(fork, LONG).values.tolist() == parse_profile(fork, WIDE).values.tolist()


def test_hours_sorted_and_sparse_long(fork):
    # out-of-order rows and unmentioned (hour, bus) pairs are fine in long form
    table = parse_profile(fork, "hour,bus,value\n5,b,1.0\n2,a,0.3\n")
    assert table.hours == (2, 5)
    a, b = fork.index_of("a") - 1, fork.index_of("b") - 1
    assert table.values[0, a] == 0.3 and table.values[0, b] == 0.0
    assert table.values[1, a] == 0.0 and table.values[1, b] == 1.0


#: each malformed file and the exact message it is refused with
MALFORMED = {
    "": "profile file is empty",
    "time,a\n0,1.0\n": "profile header must start with 'hour'",
    "hour\n0\n": "wide-form profile needs at least one bus column",
    "hour,a,a\n0,1.0,1.0\n": "duplicate bus column 'a'",
    "hour,a\n0,1.0\n0,2.0\n": "line 3: duplicate hour 0",
    "hour,a\n0\n": "line 2: expected 2 columns",
    "hour,bus,value\n0,a,1.0\n0,a,2.0\n": "line 3: duplicate entry for hour 0, bus 'a'",
    "hour,bus,value\n0,a\n": "line 2: expected hour,bus,value",
    "hour,a\nnoon,1.0\n": "line 2: hour label 'noon' is not an integer",
    "hour,bus,value\n0,a,1.0\nx,a,1.0\n": "line 3: hour label 'x' is not an integer",
    "hour,a\n0,much\n": "bad numeric value 'much' at line 2",
    "hour,s\n0,1.0\n": "the substation bus cannot carry a profile",
    "hour,a\n": "profile file has a header but no data rows",
    "hour,bus,value\n0,s,1.0\n": "the substation bus cannot carry a profile",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_malformed_profiles(fork, text):
    with pytest.raises(SchemaError) as err:
        parse_profile(fork, text)
    assert type(err.value) is SchemaError
    assert str(err.value) == MALFORMED[text]


def test_unknown_bus_and_negative_value(fork):
    with pytest.raises(MissingBusError):
        parse_profile(fork, "hour,zz\n0,1.0\n")
    with pytest.raises(NegativeValueError):
        parse_profile(fork, "hour,a\n0,-0.5\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # a carriage return inside a line, as in a file with CR line ends
        ("hour,a\r0,1.0\r", "line 1: new-line character seen in unquoted field"),
        ("hour,a\n0,1.0\n1,2\r5\n", "line 3: new-line character seen in unquoted field"),
        # a value longer than the csv module's field limit
        ("hour,a\n0,0." + "0" * 131072 + "1\n", "line 2: field larger than field limit"),
    ],
    ids=["cr-line-ends", "cr-inside-a-line", "overlong-field"],
)
def test_csv_errors_are_schema_errors(fork, text, message):
    with pytest.raises(SchemaError) as err:
        parse_profile(fork, text)
    assert type(err.value) is SchemaError
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("long_form", [False, True])
def test_value_token_grammar(fork, long_form):
    """Values take Python's float() grammar, in both forms."""

    def parse(tokens):
        if long_form:
            lines = ["hour,bus,value"] + [f"{h},a,{tok}" for h, tok in enumerate(tokens)]
        else:
            lines = ["hour,a"] + [f"{h},{tok}" for h, tok in enumerate(tokens)]
        return parse_profile(fork, "\n".join(lines) + "\n")

    a = fork.index_of("a") - 1
    assert parse(["+1.5", " 2.5 ", "1_000", "1e-3", "0"]).values[:, a].tolist() == [
        1.5, 2.5, 1000.0, 0.001, 0.0
    ]
    for tok in ("nan", "inf", "-inf"):
        with pytest.raises(SchemaError) as err:
            parse(["1.0", tok])
        assert type(err.value) is SchemaError
        assert str(err.value) == "non-finite value at line 3"
    with pytest.raises(NegativeValueError, match="^negative profile value -0.5 at line 4$"):
        parse(["1.0", "2.0", "-0.5"])
    with pytest.raises(SchemaError, match="^bad numeric value '1,5' at line 2$"):
        parse(['"1,5"'])


@pytest.mark.parametrize(
    "text, message",
    [
        # a bad value before a structure error, and the other way round
        ("hour,a,b\n0,1,2\n1,1,much\n2,1\n", "bad numeric value 'much' at line 3"),
        ("hour,a,b\n0,1,2\n1,1\n2,1,much\n", "line 3: expected 3 columns"),
        ("hour,a,b\n0,1,-2\n1,nan,1\n", "negative profile value -2 at line 2"),
        ("hour,a,b\n0,1,2\n1,nan,-1\n", "non-finite value at line 3"),
        ("hour,bus,value\n0,a,1\n1,a,much\n1,zz,1\n", "bad numeric value 'much' at line 3"),
        ("hour,bus,value\n0,a,1\n1,zz,1\n2,a,much\n", "profile references unknown bus 'zz'"),
        # in long form a line's value is checked before its duplicate entry
        ("hour,bus,value\n0,a,1\n0,a,-1\n", "negative profile value -1 at line 3"),
        ("hour,bus,value\n0,a,1\n0,a,2\n1,a,-1\n", "line 3: duplicate entry for hour 0, bus 'a'"),
    ],
)
def test_first_error_in_file_order(fork, text, message):
    with pytest.raises(SchemaError) as err:
        parse_profile(fork, text)
    assert str(err.value) == message


#: value tokens of a generated wide-form file: the forms of
#: test_value_token_grammar, most of them good so that many files parse
GOOD_TOKENS = ("0", "1", "0.25", "+1.5", " 2.5 ", "1e-3", "1E2", "-0", "7.125\t")
BAD_TOKENS = ("1_000", "nan", "inf", "-inf", "-0.5", '"1,5"', "much", "", " ", "0x10", "\u0661")
#: lines the scanner skips, and one it does not
BLANK_LINES = ("", "  ", ",,", " , ", "\t,", "\x0c", ",\u3000,")


def _random_wide(rng) -> str:
    """A small wide-form profile, mostly well formed: a column subset in
    random order, sparse hours in or out of order, blank and comma-only
    lines, LF or CRLF line ends, and now and then a bad token, hour, width,
    duplicate or header."""
    rare = lambda: rng.random() < 0.04  # noqa: E731
    buses = [str(b) for b in rng.permutation(["a", "b", "c"])[: rng.integers(1, 4)]]
    if rare():
        buses.append(str(rng.choice(["a", "zz", "s"])))
    header = str(rng.choice(["hour", "Hour", " hour "])) if not rare() else "time"
    n = int(rng.integers(1, 7))
    hours = rng.choice(24, size=n, replace=False)
    if rng.random() < 0.5:
        hours.sort()
    hours = [str(h) for h in hours]
    if rare() and n > 1:
        hours[-1] = hours[0]
    if rare():
        hours[int(rng.integers(n))] = str(rng.choice(["x", "1.0", " 3 ", "+4", "1_0"]))
    lines = [",".join([header, *buses])]
    for h in hours:
        row = [str(rng.choice(BAD_TOKENS if rare() else GOOD_TOKENS)) for _ in buses]
        if rare():
            row = row[:-1] if rng.random() < 0.5 else [*row, "1"]
        lines.append(",".join([h, *row]))
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(BLANK_LINES)))
    if rare():
        k = int(rng.integers(len(lines)))
        cut = int(rng.integers(len(lines[k]) + 1))
        lines[k] = lines[k][:cut] + "\r" + lines[k][cut:]
    newline = "\r\n" if rng.random() < 0.1 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.8 else "")


def _outcome(feeder, text):
    """What parse_profile makes of text: the table's bytes, or the error."""
    try:
        table = parse_profile(feeder, text)
    except SchemaError as exc:
        return type(exc), str(exc)
    return table.hours, table.values.tobytes(), table.present.tobytes()


def test_fast_path_matches_the_scanner(fork, monkeypatch):
    # the one-pass read returns a table only where the scanner returns the
    # same bytes; everywhere else the scanner decides, message and all
    rng = np.random.default_rng(29)
    read_wide = scenarios._read_wide
    taken = 0
    for _ in range(400):
        text = _random_wide(rng)
        got = _outcome(fork, text)
        with monkeypatch.context() as m:
            m.setattr(scenarios, "_read_wide", lambda feeder, text: None)
            assert got == _outcome(fork, text), text
        taken += read_wide(fork, text) is not None
    # both paths are exercised
    assert 100 < taken < 400, taken


def test_wide_form_takes_the_fast_path(fork, demo_feeder, monkeypatch, tmp_path):
    from phca import demo
    from phca.cli import _read_input

    # a CRLF file, as spreadsheet programs write it, read as the CLI reads it
    crlf = tmp_path / "loads.csv"
    crlf.write_bytes(demo.loads_csv(days=2).replace("\n", "\r\n").encode())
    cases = [(fork, "hour,b,a\n3,1.0,2.0\n1,0.5,1.25\n\n"),
             (demo_feeder, demo.loads_csv(days=2)), (demo_feeder, demo.solar_csv(days=2)),
             (demo_feeder, _read_input(crlf))]
    with monkeypatch.context() as m:
        m.setattr(scenarios, "_read_wide", lambda feeder, text: None)
        want = [_outcome(feeder, text) for feeder, text in cases]

    def unreachable(*args):
        raise AssertionError("the line scanner read a plain wide-form file")

    monkeypatch.setattr(scenarios, "_scan", unreachable)
    for (feeder, text), ref in zip(cases, want):
        assert _outcome(feeder, text) == ref


def test_reactive_synthesis(fork):
    scen = load_scenarios(fork, WIDE, seed=0)
    assert scen.pc.shape == (2, 3)
    # one power factor per bus inside [0.90, 0.95]
    assert np.all((scen.power_factor >= 0.90) & (scen.power_factor <= 0.95))
    ratio = np.tan(np.arccos(scen.power_factor))
    assert scen.qc == pytest.approx(scen.pc * ratio[None, :])
    lo = math.tan(math.acos(0.95))
    hi = math.tan(math.acos(0.90))
    assert hi == pytest.approx(0.48432210483785254, rel=1e-14)
    loaded = scen.pc[0] > 0
    assert np.all(scen.qc[0, loaded] / scen.pc[0, loaded] >= lo - 1e-12)
    assert np.all(scen.qc[0, loaded] / scen.pc[0, loaded] <= hi + 1e-12)
    # reproducible from the seed, different under another one
    again = load_scenarios(fork, WIDE, seed=0)
    assert again.qc.tobytes() == scen.qc.tobytes()
    other = load_scenarios(fork, WIDE, seed=1)
    assert other.qc.tobytes() != scen.qc.tobytes()


def test_solar_peak_normalization(fork):
    solar = "hour,b\n0,0.4\n1,1.6\n"
    scen = load_scenarios(fork, WIDE, solar, seed=0)
    b = fork.index_of("b") - 1
    # bus b rates 0.2, so the 1.6 peak rescales to exactly the rating
    assert scen.pg[:, b].tolist() == [0.05, 0.2]
    assert np.all(scen.pg[:, [i for i in range(3) if i != b]] == 0.0)


def test_solar_on_unrated_bus_rejected(fork):
    with pytest.raises(SchemaError, match="'a'"):
        load_scenarios(fork, WIDE, "hour,a\n0,1.0\n1,1.0\n", seed=0)


def test_solar_hour_mismatch(fork):
    with pytest.raises(SchemaError):
        load_scenarios(fork, WIDE, "hour,b\n0,1.0\n", seed=0)


def test_no_solar_means_zero_generation(fork):
    scen = load_scenarios(fork, WIDE, seed=0)
    assert np.all(scen.pg == 0.0)


def test_zero_solar_column_stays_zero(fork):
    scen = load_scenarios(fork, WIDE, "hour,b\n0,0\n1,0\n", seed=0)
    assert np.all(scen.pg == 0.0)


def test_demo_scenarios(demo_scenarios, demo_feeder):
    scen = demo_scenarios
    assert scen.n_hours == 48
    assert scen.pc.shape == (48, 14)
    assert scen.hours == tuple(range(48))
    # normalized solar peaks sit exactly at the inverter ratings
    for bus, rating in zip(demo_feeder.der_buses, demo_feeder.p_rating[list(demo_feeder.der_buses)]):
        assert scen.pg[:, bus - 1].max() == pytest.approx(rating, rel=1e-12)


def test_expand_grid_ordering(demo_problem, demo_scenarios):
    grid = AnalysisGrid(kappa=(1.0, 2.0), oversize=(1.0,), alpha=(0.24, 0.48))
    ts = expand_grid(demo_problem, demo_scenarios, grid)
    n = demo_scenarios.n_hours
    assert len(ts) == grid.size * n == 4 * n
    # kappa-major, then oversize, then alpha, then hour
    assert ts.kappa[: 2 * n].tolist() == [1.0] * (2 * n)
    assert ts.alpha[:n].tolist() == [0.24] * n
    assert ts.alpha[n : 2 * n].tolist() == [0.48] * n
    assert ts.hour[:n].tolist() == list(range(n))
    groups = dict(ts.groups())
    assert list(groups) == [
        (1.0, 1.0, 0.24),
        (1.0, 1.0, 0.48),
        (2.0, 1.0, 0.24),
        (2.0, 1.0, 0.48),
    ]
    rows = groups[(2.0, 1.0, 0.24)]
    assert rows.tolist() == list(range(2 * n, 3 * n))
    block = theta_map_batch(
        demo_problem, demo_scenarios.pc, demo_scenarios.qc, demo_scenarios.pg,
        alpha=0.24, kappa=2.0, oversize=1.0,
    )
    assert ts.thetas[rows] == pytest.approx(block)
    assert (9.0, 9.0, 9.0) not in groups


def test_expand_grid_writes_each_cell_block_bit_for_bit(demo_problem, demo_scenarios):
    grid = AnalysisGrid(kappa=(1.0, 1.5), oversize=(1.0, 1.15), alpha=(0.24, 0.48))
    ts = expand_grid(demo_problem, demo_scenarios, grid)
    scen = demo_scenarios
    blocks = [
        theta_map_batch(demo_problem, scen.pc, scen.qc, scen.pg, alpha, kappa, oversize)
        for kappa in grid.kappa for oversize in grid.oversize for alpha in grid.alpha
    ]
    assert ts.thetas.tobytes() == np.vstack(blocks).tobytes()
    assert not ts.thetas.flags.writeable
    cells = [(k, o, a) for k in grid.kappa for o in grid.oversize for a in grid.alpha]
    assert [key for key, _ in ts.groups()] == cells
    n = scen.n_hours
    for j, (key, rows) in enumerate(ts.groups()):
        assert rows.tolist() == list(range(j * n, (j + 1) * n))
        assert ts.hour[rows].tolist() == list(scen.hours)


def _group_keys_loop(ts):
    """The row-by-row first-seen scan that groups replaced, kept as the
    reference for its keys."""
    seen = {}
    for i in range(len(ts)):
        seen.setdefault((float(ts.kappa[i]), float(ts.oversize[i]), float(ts.alpha[i])))
    return list(seen)


def test_group_keys_first_seen_order_on_interleaved_cells(rng):
    # cells drawn row by row in random order, so first appearances do not
    # follow the sorted order of the keys
    cells = np.array([(2.0, 1.15, 0.48), (1.0, 1.0, 0.24), (1.5, 1.0, 0.48), (1.0, 1.15, 0.24),
                      (2.0, 1.0, 0.24), (1.0, 1.0, 0.48)])
    pick = rng.integers(0, len(cells), 500)
    ts = ThetaSet(
        thetas=np.zeros((500, 3)),
        hour=np.arange(500),
        kappa=cells[pick, 0],
        oversize=cells[pick, 1],
        alpha=cells[pick, 2],
    )
    keys = [key for key, _ in ts.groups()]
    assert keys == _group_keys_loop(ts)
    for (k, o, a), rows in ts.groups():
        mask = (ts.kappa == k) & (ts.oversize == o) & (ts.alpha == a)
        assert rows.tolist() == np.flatnonzero(mask).tolist()
    assert keys != sorted(keys) and len(keys) == len(cells)
    assert all(isinstance(v, float) for key in keys for v in key)
    assert ThetaSet(np.zeros((0, 3)), *(np.zeros(0),) * 4).groups() == []


@pytest.mark.parametrize(
    "grid",
    [
        AnalysisGrid(kappa=()),
        AnalysisGrid(kappa=(0.0,)),
        AnalysisGrid(kappa=(-1.0,)),
        AnalysisGrid(oversize=(0.9,)),
        AnalysisGrid(alpha=(0.0,)),
        AnalysisGrid(alpha=(1.5,)),
    ],
)
def test_grid_validation(grid):
    with pytest.raises(SchemaError):
        grid.validate()
