import numpy as np
import pytest

from phca import load_feeder, partition_by_regulators, sensitivity_matrices
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
    l_sa = fd.line_between(0, a)
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
    fd = load_feeder(SINGLE_LINE)
    (sub,) = partition_by_regulators(fd)
    sens = sensitivity_matrices(sub, fd)
    # one bus below one line: dv/dp = r, dv/dq = x
    assert sens.R == pytest.approx(np.array([[0.1]]))
    assert sens.X == pytest.approx(np.array([[0.05]]))


def test_fork_sensitivity_path_overlap():
    fd = load_feeder(FORK)
    (sub,) = partition_by_regulators(fd)
    sens = sensitivity_matrices(sub, fd)
    a, b, c = fd.index_of("a"), fd.index_of("b"), fd.index_of("c")
    pos = {bus: k for k, bus in enumerate(sub.members)}
    # R[i][j] sums r over lines shared by the paths root->i and root->j
    assert sens.R[pos[a], pos[a]] == pytest.approx(0.10)
    assert sens.R[pos[b], pos[b]] == pytest.approx(0.30)
    assert sens.R[pos[c], pos[c]] == pytest.approx(0.40)
    assert sens.R[pos[b], pos[c]] == pytest.approx(0.10)
    assert sens.X[pos[b], pos[c]] == pytest.approx(0.08)
    # symmetric PSD
    assert np.allclose(sens.R, sens.R.T)
    assert np.linalg.eigvalsh(sens.R).min() > 0


def test_regulator_splits_subgraphs(demo_feeder):
    subs = partition_by_regulators(demo_feeder)
    # substation piece plus one piece per regulator
    assert len(subs) == 3
    roots = sorted(sub.root for sub in subs)
    reg_outputs = sorted(rg.n for rg in demo_feeder.regulators)
    assert roots == sorted([0] + reg_outputs)
    # every non-substation bus is owned exactly once
    owned = []
    for sub in subs:
        # a regulator-rooted piece owns its root bus too
        owned.extend(sub.members + ((sub.root,) if sub.root else ()))
    assert sorted(owned) == list(range(1, demo_feeder.n_bus))
