"""Seeded inputs for the benchmark workloads.

Every workload is text, exactly what ``phca run`` reads from disk: a
feeder document, a load CSV, a solar CSV and an analysis grid.  The same
workload name and seed always give byte-identical text.

The seed also fixes the engine's pick order, which the CLI takes as its
own ``--seed``.  On feeder80-30d the pick order is all the seed sets.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from phca import demo

DEMO_GRID = {
    "kappa": (1.0, 1.25, 1.5, 2.0),
    "oversize": (1.0, 1.15),
    "alpha": (0.24, 0.48),
}

#: Parameters of the synthetic radial feeder.  The network, its profiles and
#: its power factors all come from case_seed, and the benchmark seed sets
#: only the engine's pick order: with redrawn profiles or power factors the
#: cost of the direct solves moves from draw to draw by more than the
#: run-to-run noise the benchmark's bounds can absorb.
#:
#: The recipe fixes everything but the size of the loads.  load_peak_range
#: is set so that the seed-3 draw stresses the engine as the recipe's
#: reference draw does: about 85% of the instances solved directly, nearly
#: all of them for an uncertain active set.
FEEDER80 = {
    "n_bus": 80,
    "n_inverters": 12,
    "inverter_rating": 0.05,
    "parent_window": 4,
    "r_range": (0.002, 0.01),
    "x_range": (0.001, 0.008),
    "load_peak_range": (0.008, 0.024),
    "case_seed": 3,
    "grid": {"kappa": (1.0, 1.5), "oversize": (1.0, 1.15), "alpha": (0.24, 0.48)},
}


@dataclass(frozen=True)
class Inputs:
    """One workload's input text plus the CLI options that go with it."""

    feeder_text: str
    loads_csv: str
    solar_csv: str
    grid: dict
    scenario_seed: int
    engine_seed: int


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def demo_inputs(seed: int, days: int) -> Inputs:
    """The bundled 15-bus study with seeded profile draws."""
    s_load, s_solar, s_scen, s_engine = _seeds(seed, 4)
    return Inputs(
        feeder_text=demo.feeder_text(),
        loads_csv=demo.loads_csv(days=days, seed=s_load),
        solar_csv=demo.solar_csv(days=days, seed=s_solar),
        grid=DEMO_GRID,
        scenario_seed=s_scen,
        engine_seed=s_engine,
    )


def feeder80_text(params: dict = FEEDER80) -> str:
    """Radial feeder: each bus hangs off one of the previous few buses."""
    rng = np.random.default_rng(params["case_seed"])
    n = params["n_bus"]
    window = params["parent_window"]
    lines = []
    for k in range(1, n):
        parent = int(rng.integers(max(0, k - window), k))
        r = rng.uniform(*params["r_range"])
        x = rng.uniform(*params["x_range"])
        lines.append(f"{parent} {k} {r:.6f} {x:.6f}")
    peaks = rng.uniform(*params["load_peak_range"], size=n - 1)
    inverters = set(
        int(b) for b in rng.choice(np.arange(1, n), params["n_inverters"], replace=False)
    )
    buses = ["0 0.0 0.0"]
    for k in range(1, n):
        rating = params["inverter_rating"] if k in inverters else 0.0
        buses.append(f"{k} {peaks[k - 1]:.6f} {rating}")
    return (
        f"# synthetic {n}-bus radial feeder, seed {params['case_seed']}\n"
        "[substation]\n0\n\n[buses]\n" + "\n".join(buses)
        + "\n\n[lines]\n" + "\n".join(lines) + "\n"
    )


def _solar_shape(hour: int) -> float:
    if hour <= 6 or hour >= 18:
        return 0.0
    return math.sin(math.pi * (hour - 6) / 12.0) ** 2


def _profiles(feeder_text: str, days: int, rng) -> tuple[str, str]:
    """Load and solar CSVs in the same style as the bundled demo profiles."""
    body = feeder_text.split("[buses]", 1)[1].split("[lines]", 1)[0]
    rows = [ln.split() for ln in body.splitlines() if ln.strip()]
    loads = [(r[0], float(r[1])) for r in rows if float(r[1]) > 0]
    solar = [r[0] for r in rows if float(r[2]) > 0]

    load_lines = ["hour," + ",".join(b for b, _ in loads)]
    solar_lines = ["hour," + ",".join(solar)]
    for day in range(days):
        day_scale = rng.uniform(0.80, 1.05, size=len(loads))
        cloud = rng.uniform(0.55, 1.0)
        jitter = rng.uniform(0.92, 1.0, size=len(solar))
        for h in range(24):
            hour = day * 24 + h
            shape = demo.LOAD_SHAPE[h]
            load_lines.append(
                f"{hour}," + ",".join(
                    f"{peak * shape * day_scale[j]:.6f}" for j, (_, peak) in enumerate(loads)
                )
            )
            base = _solar_shape(h) * cloud
            solar_lines.append(f"{hour}," + ",".join(f"{base * s:.6f}" for s in jitter))
    return "\n".join(load_lines) + "\n", "\n".join(solar_lines) + "\n"


def feeder80_inputs(seed: int, days: int) -> Inputs:
    s_profile, s_scen = _seeds(FEEDER80["case_seed"], 2)
    (s_engine,) = _seeds(seed, 1)
    text = feeder80_text()
    loads, solar = _profiles(text, days, np.random.default_rng(s_profile))
    return Inputs(
        feeder_text=text,
        loads_csv=loads,
        solar_csv=solar,
        grid=FEEDER80["grid"],
        scenario_seed=s_scen,
        engine_seed=s_engine,
    )


def inputs_digest(inputs: Inputs) -> str:
    """SHA-256 of everything a workload feeds to phca."""
    return hashlib.sha256(json.dumps(asdict(inputs), sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """How to make a workload's inputs, how long one round of it takes and
    how often a round's pass goes through the run and stats paths.

    round_s is a fixed nominal time, not a measurement: with it a run's
    number of rounds depends on ``--seconds`` only."""

    make: Callable[[int, int], Inputs]
    days: int
    round_s: float
    run_repeats: int
    stats_repeats: int


WORKLOADS = {
    "demo-30d": Workload(demo_inputs, 30, 5.5, run_repeats=3, stats_repeats=3),
    "demo-300d": Workload(demo_inputs, 300, 25.0, run_repeats=1, stats_repeats=5),
    "feeder80-30d": Workload(feeder80_inputs, 30, 50.0, run_repeats=1, stats_repeats=6),
}
