import math

import numpy as np
import pytest
from helpers import angle_form_losses, approximation_error_sweep, power_balance_residual

from phca import acflow, linear_model_prediction, load_feeder, solve_powerflow
from phca.errors import DimensionError, NonConvergenceError

SINGLE_LINE = """
[substation]
0
[buses]
0 0 0
1 1.0 0.1
[lines]
0 1 0.1 0.05
"""

REGULATED = """
[substation]
0
[buses]
0 0 0
1 1.0 0
2 1.0 0
[lines]
0 1 0.08 0.06
1 2 0.0001 0.0002
[regulators]
1 2 remote - - - -
"""


def closed_form_single_line(r, x, p_load, q_load):
    """Exact fixed point of V = 1 - z * conj(S) / conj(V) for one line.

    Multiplying through by conj(V) and splitting parts gives
    Im(V) = -(x p - r q) exactly and a quadratic for Re(V).
    """
    im = -(x * p_load - r * q_load)
    cterm = r * p_load + x * q_load + im * im
    re = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * cterm))
    return complex(re, im)


def test_single_line_against_closed_form():
    fd = load_feeder(SINGLE_LINE)
    sol = solve_powerflow(fd, [-0.1], [-0.04])
    v_ref = closed_form_single_line(0.1, 0.05, 0.1, 0.04)
    assert sol.volts[0] == pytest.approx(1.0 + 0.0j, abs=0.0)
    assert sol.volts[1] == pytest.approx(v_ref, abs=1e-12)
    # frozen magnitude for this exact setup
    assert abs(sol.volts[1]) == pytest.approx(0.9878519179537311, abs=1e-12)
    loss_ref = 0.1 * abs(complex(0.1, 0.04) / v_ref) ** 2
    assert sol.total_loss == pytest.approx(loss_ref, abs=1e-14)


def test_single_line_real_load_only():
    # with q = 0 and x = 0 the voltage is (1 + sqrt(1 - 4 r p)) / 2
    text = SINGLE_LINE.replace("0 1 0.1 0.05", "0 1 0.1 0.0")
    fd = load_feeder(text)
    sol = solve_powerflow(fd, [-0.1], [0.0])
    assert sol.volts[1].real == pytest.approx(0.9898979485566356, abs=1e-13)
    assert sol.volts[1].imag == pytest.approx(0.0, abs=1e-13)
    assert sol.total_loss == pytest.approx(0.0010205144336438037, abs=1e-15)


def test_generation_raises_voltage():
    fd = load_feeder(SINGLE_LINE)
    lo = solve_powerflow(fd, [-0.05], [0.0])
    hi = solve_powerflow(fd, [0.05], [0.0])
    assert abs(hi.volts[1]) > 1.0 > abs(lo.volts[1])


def test_power_balance_residual_tiny(demo_feeder):
    n = demo_feeder.n_bus - 1
    rng = np.random.default_rng(7)
    p = rng.uniform(-0.03, 0.02, size=n)
    q = rng.uniform(-0.015, 0.01, size=n)
    sol = solve_powerflow(demo_feeder, p, q)
    assert power_balance_residual(demo_feeder, sol, p, q) < 1e-11


def test_angle_form_matches_current_form_losses(demo_feeder):
    n = demo_feeder.n_bus - 1
    rng = np.random.default_rng(8)
    p = rng.uniform(-0.03, 0.02, size=n)
    q = rng.uniform(-0.015, 0.01, size=n)
    sol = solve_powerflow(demo_feeder, p, q)
    assert angle_form_losses(demo_feeder, sol) == pytest.approx(
        sol.total_loss, rel=1e-9
    )


def test_regulator_is_ideal_and_lossless():
    fd = load_feeder(REGULATED)
    ratio = 1.05
    sol = solve_powerflow(fd, [-0.05, -0.05], [0.0, 0.0], ratios=[ratio])
    assert sol.volts[2] == pytest.approx(ratio * sol.volts[1], abs=1e-12)
    l_reg = fd.parent_line[2]
    assert sol.line_loss[l_reg] == 0.0
    # power conservation across the ideal transformer
    assert power_balance_residual(fd, sol, [-0.05, -0.05], [0.0, 0.0], ratios=[ratio]) < 1e-11


def test_ratio_validation():
    fd = load_feeder(REGULATED)
    with pytest.raises(DimensionError):
        solve_powerflow(fd, [0.0, 0.0], [0.0, 0.0], ratios=[1.0, 1.0])
    with pytest.raises(DimensionError):
        solve_powerflow(fd, [0.0, 0.0], [0.0, 0.0], ratios=[-1.0])


def test_injection_shape_validation(demo_feeder):
    with pytest.raises(DimensionError):
        solve_powerflow(demo_feeder, [0.0], [0.0])


def test_overload_does_not_converge():
    fd = load_feeder(SINGLE_LINE)
    # beyond the loadability limit (4 r p > 1) the sweep cannot settle
    with pytest.raises(NonConvergenceError):
        solve_powerflow(fd, [-4.0], [0.0])


def test_linear_prediction_first_order(demo_feeder):
    n = demo_feeder.n_bus - 1
    rng = np.random.default_rng(9)
    p = rng.uniform(-0.02, 0.015, size=n)
    q = rng.uniform(-0.01, 0.008, size=n)
    v_lin, loss_lin = linear_model_prediction(demo_feeder, p, q)
    sol = solve_powerflow(demo_feeder, p, q)
    assert np.max(np.abs(v_lin - sol.vmag)) < 5e-4
    assert loss_lin == pytest.approx(sol.total_loss, rel=0.2)
    assert v_lin[0] == 1.0


CHAIN_LINES = """
[substation]
0
[buses]
0 0 0
1 1.0 0
2 1.0 0
3 1.0 0
4 1.0 0
[lines]
0 1 0.01 0.01
1 2 0.0001 0.0002
2 3 0.01 0.01
3 4 0.0001 0.0002
[regulators]
"""


@pytest.mark.parametrize("order", [("1 2", "3 4"), ("3 4", "1 2")])
def test_linear_prediction_any_regulator_order(order):
    # the regulator on 3-4 sits downstream of the one on 1-2, whatever
    # order the document lists them in
    fd = load_feeder(CHAIN_LINES + "".join(f"{mn} local 1.0 0.01 - -\n" for mn in order))
    p = np.full(4, -0.01)
    q = np.full(4, -0.005)
    ratios = np.array([1.02, 0.99])
    v_lin, loss_lin = linear_model_prediction(fd, p, q, ratios=ratios)
    sol = solve_powerflow(fd, p, q, ratios=ratios)
    assert np.max(np.abs(v_lin - sol.vmag)) < 1e-3
    assert loss_lin == pytest.approx(sol.total_loss, rel=0.05)


def test_linear_prediction_exact_at_zero_injection(demo_feeder):
    n = demo_feeder.n_bus - 1
    v_lin, loss_lin = linear_model_prediction(demo_feeder, np.zeros(n), np.zeros(n))
    assert v_lin == pytest.approx(np.ones(demo_feeder.n_bus), abs=1e-14)
    assert loss_lin == 0.0


def test_taylor_orders_on_demo_feeder(demo_feeder):
    """Voltage error shrinks quadratically, loss error cubically."""
    n = demo_feeder.n_bus - 1
    rng = np.random.default_rng(10)
    p = rng.uniform(-0.03, 0.02, size=n)
    q = rng.uniform(-0.015, 0.01, size=n)
    out = approximation_error_sweep(demo_feeder, p, q, scales=(1.0, 0.5, 0.25))
    assert 1.8 <= out["voltage_order"] <= 2.2
    assert 2.7 <= out["loss_order"] <= 3.3
    assert len(out["voltage_error"]) == 3
    assert all(e > 0 for e in out["voltage_error"])
    # every adjacent-scale pair should tell the same story
    assert all(1.8 <= r <= 2.2 for r in out["voltage_order_pairs"])
    assert all(2.7 <= r <= 3.3 for r in out["loss_order_pairs"])


def test_sweep_needs_two_scales(demo_feeder):
    n = demo_feeder.n_bus - 1
    with pytest.raises(DimensionError):
        approximation_error_sweep(demo_feeder, np.zeros(n), np.zeros(n), scales=(1.0,))


def test_sweep_tolerance_controls_iterations(monkeypatch):
    fd = load_feeder(SINGLE_LINE)
    assert acflow.SWEEP_TOL == 1e-12
    fine = solve_powerflow(fd, [-0.1], [-0.04])
    monkeypatch.setattr(acflow, "SWEEP_TOL", 1e-6)
    coarse = solve_powerflow(fd, [-0.1], [-0.04])
    assert coarse.iterations <= fine.iterations
