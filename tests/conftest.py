import base64
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from phca import (
    ETA_FLOOR,
    AnalysisGrid,
    build_problem,
    calibrate_eta,
    demo,
    expand_grid,
    load_feeder,
    load_scenarios,
    scale_problem,
)
from phca.builder import BuilderConfig


def feasible_lp(inst):
    """Independent feasibility check of one instance via an LP: HiGHS,
    through scipy.optimize.linprog, on inst's rows A, b, Aeq and beq."""
    res = linprog(
        c=np.zeros(inst.A.shape[1]),
        A_ub=inst.A,
        b_ub=inst.b,
        A_eq=inst.Aeq if inst.Aeq.shape[0] else None,
        b_eq=inst.beq if inst.Aeq.shape[0] else None,
        bounds=[(None, None)] * inst.A.shape[1],
        method="highs",
    )
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"feasibility LP ended with status {res.status}")


def status_names(payload):
    """The status name of every row of a parsed results file: the status
    object's lists, and reuse on every row in none of them."""
    names = ["reuse"] * len(payload["columns"]["region_id"])
    for name, rows in payload["status"].items():
        for i in rows:
            names[i] = name
    return names


def set_status(payload, row, name):
    """Move one row of a parsed results file to the status name, reuse
    included, keeping every list of the status object in index order."""
    for rows in payload["status"].values():
        if row in rows:
            rows.remove(row)
    if name != "reuse":
        payload["status"][name] = sorted(payload["status"][name] + [row])


def float_columns(payload):
    """The stored solution rows of a parsed results file, as a writable
    (k, n_var) array, and the instance index of each: the solved rows
    without a region (degenerate and budget rows), in index order."""
    st = payload["status"]
    rows = sorted(st["budget-exhausted"] + st["uncertain-active-set"] + st["rank-deficient"])
    x = np.frombuffer(base64.b64decode(payload["columns"]["x"]), dtype="<f8").astype(float)
    return x.reshape(len(rows), -1), rows


def set_float_columns(payload, x):
    """Write stored solution rows back into a parsed results file."""
    payload["columns"]["x"] = base64.b64encode(np.asarray(x, "<f8").tobytes()).decode()


def bench_workloads():
    """The benchmark's seeded workload recipes, bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        # dataclasses look the module up while its classes are made
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["bench_workloads"]


def random_radial_case(n_bus, n_inverters, days, seed, impedance=4.0):
    """Feeder text, load CSV and solar CSV of a seeded random radial feeder.

    Each bus hangs off one of the previous four; impedance scales the line
    r and x draws.  Loads follow the demo's daily shape, inverters a
    clear-sky solar curve with one cloud factor per day.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(1, n_bus):
        parent = int(rng.integers(max(0, k - 4), k))
        r, x = impedance * rng.uniform(0.002, 0.01), impedance * rng.uniform(0.001, 0.008)
        lines.append(f"{parent} {k} {r:.6f} {x:.6f}")
    peaks = rng.uniform(0.008, 0.024, size=n_bus - 1)
    inverters = sorted(int(b) for b in rng.choice(np.arange(1, n_bus), n_inverters, replace=False))
    buses = ["0 0.0 0.0"] + [
        f"{k} {peaks[k - 1]:.6f} {0.05 if k in inverters else 0.0}" for k in range(1, n_bus)
    ]
    feeder = (
        "[substation]\n0\n\n[buses]\n" + "\n".join(buses)
        + "\n\n[lines]\n" + "\n".join(lines) + "\n"
    )
    loads = ["hour," + ",".join(str(k) for k in range(1, n_bus))]
    solar = ["hour," + ",".join(str(k) for k in inverters)]
    for day in range(days):
        scale = peaks * rng.uniform(0.8, 1.05, size=n_bus - 1)
        cloud = rng.uniform(0.55, 1.0)
        for h in range(24):
            sun = cloud * np.sin(np.pi * (h - 6) / 12.0) ** 2 if 6 < h < 18 else 0.0
            loads.append(f"{day * 24 + h}," + ",".join(f"{v:.6f}" for v in scale * demo.LOAD_SHAPE[h]))
            solar.append(f"{day * 24 + h}," + ",".join(f"{sun:.6f}" for _ in inverters))
    return feeder, "\n".join(loads) + "\n", "\n".join(solar) + "\n"


def regulated_radial_case(seed):
    """random_radial_case(30, 5, days=1, seed=seed) with six regulators of
    all three kinds: one on the substation's line and, below it, a chain of
    two more."""
    text, loads, solar = random_radial_case(30, 5, days=1, seed=seed)
    fd = load_feeder(text)
    rng = np.random.default_rng(seed)

    def below(bus):
        return np.flatnonzero(fd.subtree[fd.parent_line[bus]])[1:]

    # the substation's largest branch, and a chain of two regulators in it
    head = max(np.flatnonzero(fd.parent == 0), key=lambda b: below(b).size)
    middle = int(rng.choice([b for b in below(head) if below(b).size]))
    tail = int(rng.choice(below(middle)))
    rest = sorted(set(range(1, fd.n_bus)) - {head, middle, tail})
    chosen = [head, middle, tail] + [int(b) for b in rng.choice(rest, 3, replace=False)]
    kinds = ["remote - - - -", "local 1.00 - - -", "ldc 1.00 - 0.02 0.01"]
    rows = [
        f"{fd.ext_ids[fd.parent[n]]} {fd.ext_ids[n]} {kinds[k % 3]}" for k, n in enumerate(chosen)
    ]
    return text + "\n[regulators]\n" + "\n".join(rows) + "\n", loads, solar


@pytest.fixture(scope="session")
def demo_feeder():
    return load_feeder(demo.FEEDER_TEXT)


@pytest.fixture(scope="session")
def demo_config():
    return BuilderConfig(beta=0.2, vmin=0.97, vmax=1.03)


@pytest.fixture(scope="session")
def demo_problem(demo_feeder, demo_config):
    return build_problem(demo_feeder, demo_config)


@pytest.fixture(scope="session")
def demo_scenarios(demo_feeder):
    return load_scenarios(
        demo_feeder, demo.loads_csv(days=2), demo.solar_csv(days=2), seed=0
    )


@pytest.fixture(scope="session")
def small_theta_set(demo_problem, demo_scenarios):
    grid = AnalysisGrid(kappa=(1.0, 2.0), oversize=(1.0,), alpha=(0.24, 0.48))
    return expand_grid(demo_problem, demo_scenarios, grid)


@pytest.fixture(scope="session")
def scaled_demo_problem(demo_problem):
    prob, record = scale_problem(demo_problem.with_eta(ETA_FLOOR))
    return prob


#: the demo feeder with its 8-9 regulator switched to line-drop
#: compensation, whose equality row also sees a reactive setpoint
LDC_FEEDER_TEXT = demo.FEEDER_TEXT.replace(
    "8    9  local   1.01  -      -       -", "8    9  ldc     1.01  -      0.02   0.01"
)
assert LDC_FEEDER_TEXT != demo.FEEDER_TEXT


@pytest.fixture(scope="session")
def scaled_ldc_problem():
    """The problem of LDC_FEEDER_TEXT, scaled."""
    prob = build_problem(
        load_feeder(LDC_FEEDER_TEXT), BuilderConfig(beta=0.2, vmin=0.97, vmax=1.03)
    )
    return scale_problem(prob.with_eta(ETA_FLOOR))[0]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def random_feeder_case():
    """Unscaled problem and thetas of a 30-bus random feeder over two days."""
    feeder_text, loads, solar = random_radial_case(30, 5, days=2, seed=2)
    feeder = load_feeder(feeder_text)
    prob = build_problem(feeder, BuilderConfig())
    scen = load_scenarios(feeder, loads, solar, seed=0)
    grid = AnalysisGrid(kappa=(1.0, 1.5), oversize=(1.0, 1.15), alpha=(0.24, 0.48))
    return prob, expand_grid(prob, scen, grid).thetas


@pytest.fixture(scope="session")
def random_feeder_batch(random_feeder_case):
    """Scaled problem and thetas of the 30-bus random feeder.

    At most direct solves of this draw, some inactive row's residual lies
    between 1e-6 and 1e-4, so an active set read off the residuals is
    ambiguous there.
    """
    prob, thetas = random_feeder_case
    sample = thetas[np.linspace(0, len(thetas) - 1, 8).astype(int)]
    eta = max(calibrate_eta(prob, sample), ETA_FLOOR)
    return scale_problem(prob.with_eta(eta))[0], thetas
