import numpy as np
import pytest

from conftest import regulated_radial_case

from phca import load_feeder, voltage_model
from phca.errors import (
    CycleError,
    DisconnectedError,
    DuplicateRegulatorError,
    SchemaError,
)

SINGLE_LINE = """
[substation]
0
[buses]
0 0 0
1 1.0 0.1
[lines]
0 1 0.1 0.05
"""

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


def test_single_line_parse():
    fd = load_feeder(SINGLE_LINE)
    assert fd.ext_ids == ("0", "1")
    assert fd.n_bus == 2
    assert fd.lines[0].from_bus == 0 and fd.lines[0].to_bus == 1
    assert fd.lines[0].r == 0.1 and fd.lines[0].x == 0.05
    assert list(fd.der_buses) == [1]


def test_lines_reoriented_toward_substation():
    # line written leaf-first must come out oriented root to leaf
    text = SINGLE_LINE.replace("0 1 0.1 0.05", "1 0 0.1 0.05")
    fd = load_feeder(text)
    assert fd.lines[0].from_bus == 0 and fd.lines[0].to_bus == 1


def test_fork_parent_structure():
    fd = load_feeder(FORK)
    a, b, c = fd.index_of("a"), fd.index_of("b"), fd.index_of("c")
    assert fd.parent[a] == 0
    assert fd.parent[b] == a and fd.parent[c] == a
    # subtree of the s-a line covers everything below a, inclusive
    l_sa = fd.parent_line[a]
    assert set(np.flatnonzero(fd.subtree[l_sa])) == {a, b, c}


def test_demo_feeder_ordering(demo_feeder):
    # BFS from the substation; frozen so downstream index math stays honest
    assert demo_feeder.ext_ids == (
        "0", "1", "2", "3", "8", "4", "9", "5", "10", "6", "12", "11", "7", "13", "14",
    )
    assert list(demo_feeder.der_buses) == [9, 11]
    assert demo_feeder.p_rating[9] == pytest.approx(0.10)
    assert demo_feeder.p_rating[11] == pytest.approx(0.08)
    kinds = [rg.kind for rg in demo_feeder.regulators]
    assert kinds == ["remote", "local"]


def test_comments_and_commas_tolerated():
    text = SINGLE_LINE.replace("0 1 0.1 0.05", "0, 1, 0.1, 0.05  # feeder head")
    fd = load_feeder(text)
    assert fd.lines[0].r == 0.1


@pytest.mark.parametrize(
    "mutation, exc",
    [
        (("0 1 0.1 0.05", "0 1 0.1 0.05\n0 1 0.2 0.1"), SchemaError),
        (("0 1 0.1 0.05", "0 1 -0.1 0.05"), SchemaError),
        (("0 1 0.1 0.05", "0 1 0.1 -0.05"), SchemaError),
        (("1 1.0 0.1", "1 -1.0 0.1"), SchemaError),
        (("[lines]", "[wires]"), SchemaError),
        (("1 1.0 0.1", "1 high 0.1"), SchemaError),
    ],
)
def test_bad_documents(mutation, exc):
    old, new = mutation
    with pytest.raises(exc):
        load_feeder(SINGLE_LINE.replace(old, new))


def test_cycle_detected():
    text = FORK.replace("a c 0.30 0.15", "a c 0.30 0.15\nb c 0.10 0.10")
    with pytest.raises(CycleError):
        load_feeder(text)


def test_disconnected_detected():
    text = FORK.replace("a c 0.30 0.15\n", "")
    with pytest.raises(DisconnectedError):
        load_feeder(text)


def test_substation_cannot_host_der():
    with pytest.raises(SchemaError):
        load_feeder(SINGLE_LINE.replace("0 0 0", "0 0 0.5"))


def test_duplicate_regulator_line_rejected():
    text = FORK + "[regulators]\na b remote - - - -\na b local 1.0 - - -\n"
    with pytest.raises(DuplicateRegulatorError):
        load_feeder(text)


def test_unknown_regulator_kind_rejected():
    text = FORK + "[regulators]\na b sometimes - - - -\n"
    with pytest.raises(SchemaError):
        load_feeder(text)


def test_single_line_sensitivity_closed_form():
    piece, R, X, RL = voltage_model(load_feeder(SINGLE_LINE))
    # one bus below one line: dv/dp = r, dv/dq = x, loss = r p^2
    assert list(piece) == [0]
    assert R == pytest.approx(np.array([[0.1]]))
    assert X == pytest.approx(np.array([[0.05]]))
    assert RL == pytest.approx(np.array([[0.1]]))


def test_fork_sensitivity_path_overlap():
    fd = load_feeder(FORK)
    _, R, X, RL = voltage_model(fd)
    a, b, c = (fd.index_of(name) - 1 for name in "abc")
    # R[i][j] sums r over lines shared by the paths root->i and root->j
    assert R[a, a] == pytest.approx(0.10)
    assert R[b, b] == pytest.approx(0.30)
    assert R[c, c] == pytest.approx(0.40)
    assert R[b, c] == pytest.approx(0.10)
    assert X[b, c] == pytest.approx(0.08)
    # with no regulator the loss form is R itself: symmetric positive definite
    assert np.array_equal(RL, R)
    assert np.allclose(R, R.T)
    assert np.linalg.eigvalsh(R).min() > 0


def test_regulator_splits_subgraphs(demo_feeder):
    piece, R, X, _ = voltage_model(demo_feeder)
    # every non-substation bus lies in exactly one piece: the substation's
    # or one per regulator, which starts at the regulator's output bus
    assert sorted(set(piece)) == [0, 1, 2]
    for k, rg in enumerate(demo_feeder.regulators):
        assert piece[rg.n - 1] == k + 1
        # the output bus is its piece's root: no line between them
        assert not R[rg.n - 1].any() and not X[rg.n - 1].any()
    for bus in range(1, demo_feeder.n_bus):
        if bus not in {rg.n for rg in demo_feeder.regulators}:
            assert piece[bus - 1] == (piece[demo_feeder.parent[bus] - 1] if demo_feeder.parent[bus] else 0)


def _regulated_feeder(seed):
    return load_feeder(regulated_radial_case(seed)[0])


@pytest.mark.parametrize("seed", range(4))
def test_voltage_model_matches_path_sums(seed):
    fd = _regulated_feeder(seed)
    roots = {rg.n: k + 1 for k, rg in enumerate(fd.regulators)}

    def lines_up(bus, stop_at_roots):
        """The lines from bus up to its piece root (or the substation), and
        the piece of the bus the walk stopped at."""
        out = set()
        while bus and not (stop_at_roots and bus in roots):
            out.add(int(fd.parent_line[bus]))
            bus = fd.parent[bus]
        return out, roots.get(bus, 0)

    reg_lines = {int(fd.parent_line[b]) for b in roots}
    buses = range(1, fd.n_bus)
    to_substation = {b: lines_up(b, False)[0] for b in buses}
    ref = {name: np.zeros((len(buses), len(buses))) for name in ("R", "X", "RL")}
    ref_piece = []
    for i in buses:
        own, root = lines_up(i, True)
        ref_piece.append(root)
        for k in buses:
            feed = to_substation[k]
            ref["R"][i - 1, k - 1] = sum(fd.lines[l].r for l in own & feed)
            ref["X"][i - 1, k - 1] = sum(fd.lines[l].x for l in own & feed)
            shared = (to_substation[i] & feed) - reg_lines
            ref["RL"][i - 1, k - 1] = sum(fd.lines[l].r for l in shared)
    piece, R, X, RL = voltage_model(fd)
    assert list(piece) == ref_piece
    assert len(set(piece)) == len(fd.regulators) + 1
    for name, got in (("R", R), ("X", X), ("RL", RL)):
        np.testing.assert_allclose(got, ref[name], rtol=1e-12, atol=0, err_msg=name)
