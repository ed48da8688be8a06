"""Bundled 15-bus study case.

One mid-size feeder with both regulator styles and two inverter buses,
plus deterministic profile generators, so the command line and the test
suite exercise the full pipeline on identical inputs.  All randomness is
seeded; calling these helpers twice yields byte-identical text.
"""

from __future__ import annotations

import math

import numpy as np

FEEDER_TEXT = """\
# 15-bus feeder: trunk 0-7 with laterals at 2, 5, and 13
[substation]
0

[buses]
# id  p_peak    p_rating
0     0.0       0.0
1     0.04      0.0
2     0.04      0.0
3     0.0       0.0
4     0.04      0.0
5     0.05      0.0
6     0.0       0.10
7     0.05      0.0
8     0.0       0.0
9     0.04      0.0
10    0.04      0.0
11    0.0       0.08
12    0.05      0.0
13    0.04      0.0
14    0.05      0.0

[lines]
# from  to  r       x
0       1   0.010   0.020
1       2   0.012   0.014
2       3   0.010   0.012
2       8   0.014   0.012
3       4   0.0001  0.0002
4       5   0.036   0.033
5       6   0.042   0.030
5       12  0.048   0.033
6       7   0.036   0.024
8       9   0.0001  0.0002
9       10  0.013   0.010
10      11  0.015   0.009
12      13  0.042   0.027
13      14  0.048   0.030

[regulators]
# m  n  kind    vref  delta  r_comp  x_comp
3    4  remote  -     -      -       -
8    9  local   1.01  -      -       -
"""

#: external ids of the buses that carry load, with their peak active power
LOAD_PEAKS = {
    "1": 0.030,
    "2": 0.035,
    "4": 0.030,
    "5": 0.040,
    "7": 0.045,
    "9": 0.030,
    "10": 0.035,
    "12": 0.040,
    "13": 0.030,
    "14": 0.045,
}

SOLAR_BUSES = ("6", "11")

#: normalized daily load shape, one value per hour
LOAD_SHAPE = (
    0.55, 0.50, 0.47, 0.45, 0.45, 0.48, 0.55, 0.65, 0.72, 0.75, 0.76, 0.77,
    0.76, 0.74, 0.72, 0.72, 0.76, 0.85, 0.95, 1.00, 0.97, 0.88, 0.75, 0.63,
)


def _solar_shape(hour: int) -> float:
    if hour <= 6 or hour >= 18:
        return 0.0
    return math.sin(math.pi * (hour - 6) / 12.0) ** 2


def feeder_text() -> str:
    return FEEDER_TEXT


def loads_csv(days: int = 30, seed: int = 11) -> str:
    """Wide-form load profile: per-day scaling noise on the common shape."""
    rng = np.random.default_rng(seed)
    buses = list(LOAD_PEAKS)
    lines = ["hour," + ",".join(buses)]
    for day in range(days):
        day_scale = rng.uniform(0.80, 1.05, size=len(buses))
        for h in range(24):
            vals = [
                LOAD_PEAKS[bus] * LOAD_SHAPE[h] * day_scale[j]
                for j, bus in enumerate(buses)
            ]
            lines.append(f"{day * 24 + h}," + ",".join(f"{v:.6f}" for v in vals))
    return "\n".join(lines) + "\n"


def solar_csv(days: int = 30, seed: int = 12) -> str:
    """Wide-form solar profile: common cloud factor plus per-bus jitter."""
    rng = np.random.default_rng(seed)
    lines = ["hour," + ",".join(SOLAR_BUSES)]
    for day in range(days):
        cloud = rng.uniform(0.55, 1.0)
        jitter = rng.uniform(0.92, 1.0, size=len(SOLAR_BUSES))
        for h in range(24):
            base = _solar_shape(h) * cloud
            vals = [base * jitter[j] for j in range(len(SOLAR_BUSES))]
            lines.append(f"{day * 24 + h}," + ",".join(f"{v:.6f}" for v in vals))
    return "\n".join(lines) + "\n"


def config_text() -> str:
    return (
        "[dispatch]\n"
        "beta = 0.2\n"
        "vmin = 0.97\n"
        "vmax = 1.03\n"
        "\n"
    )


def write_assets(directory, days: int = 30) -> dict[str, str]:
    """Write feeder, profiles, and config into a directory; returns paths."""
    from pathlib import Path

    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in (
        ("feeder.txt", feeder_text()),
        ("loads.csv", loads_csv(days=days)),
        ("solar.csv", solar_csv(days=days)),
        ("config.ini", config_text()),
    ):
        p = d / name
        p.write_text(text)
        paths[name] = str(p)
    return paths
