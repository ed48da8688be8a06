"""Violation statistics: slack, voltages, soft-row residuals, reports."""

import json
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from conftest import bench_workloads, regulated_radial_case
from helpers import soft_violations

import phca.stats as stats_mod
from phca import (
    ETA_FLOOR,
    AnalysisGrid,
    BuilderConfig,
    build_problem,
    demo,
    expand_grid,
    load_feeder,
    load_scenarios,
    run_batch,
    scale_problem,
)
from phca.errors import EmptyGroupError
from phca.scenarios import ThetaSet
from phca.stats import (
    group_stats,
    json_report,
    recover_ratios,
    render_report,
    slack_values,
    voltage_matrix,
)


@pytest.fixture(scope="module")
def batch(scaled_demo_problem, small_theta_set):
    return run_batch(scaled_demo_problem, small_theta_set.thetas)


@pytest.fixture(scope="module")
def mixed_batch(scaled_demo_problem, small_theta_set):
    """Ten instances with two forced-infeasible rows."""
    thetas = small_theta_set.thetas[:10].copy()
    thetas[3, scaled_demo_problem.headroom_slice()] = -1.0
    thetas[8, scaled_demo_problem.headroom_slice()] = -1.0
    return run_batch(scaled_demo_problem, thetas)


def test_slack_values(batch, mixed_batch):
    s = slack_values(batch)
    raw = batch.x[:, batch.problem.slack_index]
    assert s.shape == raw.shape
    tiny = np.abs(raw) < 1e-8
    assert np.all(s[tiny] == 0.0)
    assert s[~tiny] == pytest.approx(raw[~tiny])
    sm = slack_values(mixed_batch)
    assert np.isnan(sm[[3, 8]]).all()
    assert np.isfinite(np.delete(sm, [3, 8])).all()


def test_voltage_matrix_matches_problem_map(batch):
    volts = voltage_matrix(batch)
    n = batch.counters.n_instances
    assert volts.shape == (n, 14)
    prob = batch.problem
    for i in (0, 17, n - 1):
        assert volts[i] == pytest.approx(batch.x[i] @ prob.W.T + batch.thetas[i] @ prob.U.T)
    # local regulator output bus is pinned by its equality row
    assert volts[:, 5] == pytest.approx(np.full(n, 1.01), abs=1e-9)


def test_soft_violations_in_original_units(batch, demo_problem):
    soft, resid = soft_violations(batch)
    assert soft.tolist() == list(range(6, 36))
    orig = demo_problem.with_eta(ETA_FLOOR)
    i = 11
    A0 = orig.A[soft].copy()
    A0[:, orig.slack_index] = 0.0
    manual = A0 @ batch.x[i] - orig.E[soft] @ batch.thetas[i] - orig.b[soft]
    assert resid[i] == pytest.approx(manual, abs=1e-12)


def _bound_gap(result):
    """The worst soft-row residual minus the slack, per instance."""
    _, resid = soft_violations(result)
    return np.max(resid, axis=1, initial=-np.inf) - result.x[:, result.problem.slack_index]


def test_violation_bound_gap(batch, mixed_batch):
    gap = _bound_gap(batch)
    # relaxed feasibility caps every soft residual by the slack itself
    assert np.nanmax(gap) <= 1e-6
    gm = _bound_gap(mixed_batch)
    assert np.isnan(gm[[3, 8]]).all()


def test_all_hard_problem_has_no_soft_violations(demo_feeder, small_theta_set):
    config = BuilderConfig(assignments=(("voltage-hi", "hard"), ("voltage-lo", "hard"),
                                        ("reg-input", "hard")))
    prob = scale_problem(build_problem(demo_feeder, config).with_eta(ETA_FLOOR))[0]
    res = run_batch(prob, small_theta_set.thetas[:10])
    soft, resid = soft_violations(res)
    assert soft.size == 0 and resid.shape == (10, 0)
    gap = _bound_gap(res)
    assert np.all((gap == -np.inf) | np.isnan(gap))


def test_recover_ratios(batch, demo_feeder):
    ratios = recover_ratios(batch, demo_feeder)
    assert list(ratios) == ["3-4"]
    arr = ratios["3-4"]
    volts = voltage_matrix(batch)
    # remote pair is internal m=3, n=5; the ratio is the regulated output
    # variable over the incoming bus voltage
    manual = batch.x[:, 3] / volts[:, 2]
    assert arr == pytest.approx(manual)
    assert np.all((arr >= 0.9 - 1e-9) & (arr <= 1.1 + 1e-9))


def test_recover_ratios_without_remote_regulator_skips_voltages(batch, demo_feeder, monkeypatch):
    def refuse(result):
        raise AssertionError("voltage matrix formed with no remote regulator")

    monkeypatch.setattr(stats_mod, "voltage_matrix", refuse)
    assert recover_ratios(batch, replace(demo_feeder, regulators=())) == {}


def test_group_stats_match_numpy(batch, mixed_batch, small_theta_set):
    # mixed_batch's rows 3 and 8 are unsolved, one in each of its two cells
    mixed_set = ThetaSet(
        thetas=mixed_batch.thetas,
        hour=np.arange(10),
        kappa=np.repeat([1.0, 2.0], 5),
        oversize=np.ones(10),
        alpha=np.ones(10),
    )
    for result, theta_set, unsolved in [(batch, small_theta_set, 0), (mixed_batch, mixed_set, 1)]:
        _check_group_stats(result, theta_set, unsolved)


def _check_group_stats(result, theta_set, unsolved):
    qs = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
    stats = group_stats(result, theta_set)
    assert [gs.key for gs in stats] == [key for key, _ in theta_set.groups()]
    s_all = slack_values(result)
    volts = voltage_matrix(result)
    _, resid = soft_violations(result)
    for gs in stats:
        k, o, a = gs.key
        rows = np.flatnonzero(
            (theta_set.kappa == k) & (theta_set.oversize == o) & (theta_set.alpha == a)
        )
        solved = rows[np.isfinite(s_all[rows])]
        assert gs.n_instances == rows.size
        assert gs.n_solved == solved.size == rows.size - unsolved
        # the quantiles of the rows in index order, not sorted first: the
        # same values to the bit
        s = s_all[solved]
        assert gs.slack_quantiles == tuple(np.quantile(s, qs, method="linear"))
        assert gs.max_slack == s.max()
        assert gs.n_relaxed == int((s > 1e-6).sum())
        np.testing.assert_array_equal(
            gs.voltage_quantiles, np.quantile(volts[solved], qs, axis=0, method="linear")
        )
        for label, cnt, amt in gs.worst_rows:
            assert cnt > 0
            assert amt > 1e-6
        # counts agree with a direct tally of the most violated row
        counts = (resid[solved] > 1e-6).sum(axis=0)
        if gs.worst_rows:
            assert gs.worst_rows[0][1] == int(counts.max())
        else:
            assert counts.max() == 0


def test_quantiles_of_sorted_arrays_match_numpy_bit_for_bit():
    # 1-59 rows at scales 1e-8 to 1e2, with ties drawn from a few levels in
    # every other array; both the 1-D (slack) and 2-D (voltage) shapes
    rng = np.random.default_rng(26)
    qs = np.asarray(stats_mod.QUANTILES)
    for k in range(6000):
        n = int(rng.integers(1, 60))
        scale = 10.0 ** rng.uniform(-8, 2)
        if k % 2:
            values = scale * rng.choice(rng.random(3), size=(n, 3))
        else:
            values = scale * rng.standard_normal((n, 3))
        values = np.sort(values, axis=0)
        for v in (values[:, 0], values):
            want = np.quantile(v, qs, axis=0, method="linear")
            got = stats_mod._quantiles(v, qs)
            # compared as integers: bit for bit, and a failure prints briefly
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (k, n, scale)


def test_group_stats_empty_cell(scaled_demo_problem, small_theta_set):
    prob = scaled_demo_problem
    thetas = small_theta_set.thetas[:6].copy()
    thetas[3:, prob.headroom_slice()] = -1.0  # the second cell cannot solve
    ts = ThetaSet(
        thetas=thetas,
        hour=np.arange(6),
        kappa=np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0]),
        oversize=np.ones(6),
        alpha=np.ones(6),
    )
    res = run_batch(prob, thetas)
    with pytest.raises(EmptyGroupError):
        group_stats(res, ts)


def test_render_report(batch, small_theta_set, demo_feeder):
    text = render_report(batch, small_theta_set, demo_feeder)
    assert text.startswith("batch summary")
    assert f"instances {batch.counters.n_instances} " in text
    for key, _ in small_theta_set.groups():
        assert f"group kappa={key[0]:g} oversize={key[1]:g} alpha={key[2]:g}" in text
    assert "    bus    1  " in text
    assert "remote regulator tap ratios" in text
    assert "  3-4  " in text
    # deterministic
    assert text == render_report(batch, small_theta_set, demo_feeder)


def test_json_report(batch, small_theta_set, demo_feeder):
    text = json_report(batch, small_theta_set, demo_feeder)
    assert text == json_report(batch, small_theta_set, demo_feeder)
    payload = json.loads(text)
    assert payload["counters"]["n_instances"] == batch.counters.n_instances
    assert len(payload["groups"]) == 4
    g0 = payload["groups"][0]
    assert {"kappa", "oversize", "alpha", "solved", "relaxed", "slack_quantiles",
            "voltage_quantiles", "worst_rows"} <= set(g0)
    assert len(g0["voltage_quantiles"]) == 14
    assert "1" in g0["voltage_quantiles"]
    ratios = payload["remote_ratios"]["3-4"]
    assert 0.9 - 1e-9 <= ratios["min"] <= ratios["max"] <= 1.1 + 1e-9


def _count_passes(monkeypatch):
    """Count the statistics passes: each forms the voltage matrix once."""
    calls = []
    real = stats_mod.voltage_matrix

    def counted(result):
        calls.append(result)
        return real(result)

    monkeypatch.setattr(stats_mod, "voltage_matrix", counted)
    return calls


def test_report_pair_runs_one_statistics_pass(batch, small_theta_set, demo_feeder, monkeypatch):
    res = replace(batch)
    calls = _count_passes(monkeypatch)
    text = render_report(res, small_theta_set, demo_feeder)
    payload = json_report(res, small_theta_set, demo_feeder)
    assert len(calls) == 1
    # the reports of the kept pass equal those of a result that kept none
    fresh = replace(res)
    assert fresh._report_summary is None
    assert render_report(fresh, small_theta_set, demo_feeder) == text
    assert json_report(fresh, small_theta_set, demo_feeder) == payload
    assert len(calls) == 2


def test_other_inputs_rerun_the_statistics_pass(batch, small_theta_set, demo_feeder, monkeypatch):
    res = replace(batch)
    calls = _count_passes(monkeypatch)
    text = json_report(res, small_theta_set, demo_feeder)
    assert len(calls) == 1
    # each call differs from the one before in one input only: an equal
    # input held by another object
    theta_set = replace(small_theta_set)
    assert json_report(res, theta_set, demo_feeder) == text
    assert len(calls) == 2
    assert json_report(res, theta_set, replace(demo_feeder)) == text
    assert len(calls) == 3


def test_replaced_result_never_sees_the_kept_pass(batch, small_theta_set, demo_feeder):
    res = replace(batch)
    before = render_report(res, small_theta_set, demo_feeder)
    x = res.x.copy()
    x[:, res.problem.slack_index] += 1.0  # every instance now needs relaxation
    moved = replace(res, x=x)
    assert moved._report_summary is None
    after = render_report(moved, small_theta_set, demo_feeder)
    assert after != before
    assert "relaxed 48 (100.00%)" in after
    assert render_report(res, small_theta_set, demo_feeder) == before


def test_kept_pass_leaves_equality_alone(batch, small_theta_set, demo_feeder):
    kept, bare = replace(batch), replace(batch)
    json_report(kept, small_theta_set, demo_feeder)
    assert kept._report_summary is not None and bare._report_summary is None
    assert kept == bare
    assert "_report_summary" not in repr(kept)


ALL_SOFT = tuple(
    (family, "soft")
    for family in ("inverter-cap", "remote-reg", "reg-input", "voltage-hi", "voltage-lo")
)


def _all_soft_batch(feeder_text, loads, solar):
    """Unscaled problem and batch of a feeder with every inequality family
    soft, over the one-day grid kappa (1, 2) x alpha (0.24, 0.48)."""
    feeder = load_feeder(feeder_text)
    prob = build_problem(feeder, BuilderConfig(assignments=ALL_SOFT)).with_eta(ETA_FLOOR)
    scen = load_scenarios(feeder, loads, solar, seed=0)
    grid = AnalysisGrid(kappa=(1.0, 2.0), oversize=(1.0,), alpha=(0.24, 0.48))
    thetas = expand_grid(prob, scen, grid).thetas
    return prob, run_batch(scale_problem(prob)[0], thetas)


def _form_matches_algebra(prob, result):
    """Whether soft_violations equals A0 x - E theta - b of the unscaled
    problem prob (A0: A without its slack column) within 1e-12 (1 + |b|)."""
    soft, resid = soft_violations(result)
    A0 = prob.A[soft].copy()
    A0[:, prob.slack_index] = 0.0
    want = result.x @ A0.T - result.thetas @ prob.E[soft].T - prob.b[soft]
    return bool(np.all(np.abs(resid - want) <= 1e-12 * (1.0 + np.abs(prob.b[soft]))))


def _without_term(result, field, column=None):
    """result with one term of its problem's RowForm dropped: the field's
    coefficients (one column of a two-column field) set to zero."""
    form = result.problem.row_form
    values = getattr(form, field).copy()
    if column is None:
        values[:] = 0.0
    else:
        values[:, column] = 0.0
    prob = replace(result.problem, row_form=replace(form, **{field: values}))
    return replace(result, problem=prob)


@pytest.mark.parametrize("case", ["demo", "regulated"])
def test_soft_violations_follow_the_row_form_of_every_family(case):
    # the demo has a remote and a local regulator; the regulated case all
    # three kinds, the remote one on the substation's line, so its rows read v0
    if case == "demo":
        inputs = demo.FEEDER_TEXT, demo.loads_csv(days=1), demo.solar_csv(days=1)
    else:
        inputs = regulated_radial_case(3)
    prob, res = _all_soft_batch(*inputs)
    families = {prob.row_labels[i].family for i in prob.soft_rows}
    assert families == {family for family, _ in ALL_SOFT}
    form = prob.row_form
    if case == "regulated":
        assert ((form.bus == 0) & (form.bus_coef != 0))[prob.soft_rows].any()
    assert np.isfinite(res.x).all()
    assert _form_matches_algebra(prob, res)
    # every term of the table counts: dropping any one breaks the match
    for field, column in [("bus_coef", 0), ("bus_coef", 1), ("qg_coef", None),
                          ("headroom_coef", None), ("bound", None)]:
        assert not _form_matches_algebra(prob, _without_term(res, field, column)), field


def test_row_form_is_frozen_and_carried_by_scaling(demo_problem):
    form = demo_problem.row_form
    assert form.bus.shape == form.bus_coef.shape == (demo_problem.A.shape[0], 2)
    for values in vars(form).values():
        assert not values.flags.writeable
    scaled = scale_problem(demo_problem.with_eta(0.5))[0]
    assert scaled.row_form is form
    with pytest.raises(FrozenInstanceError):
        form.bound = form.bound.copy()


def test_statistics_pass_holds_no_array_per_instance_and_soft_row(
    scaled_demo_problem, small_theta_set, demo_feeder
):
    # 7,680 instances in 16 grid cells: the pass holds the voltage matrix
    # and one cell's residuals at a time, not an (n, n_soft) array
    thetas = np.tile(small_theta_set.thetas, (40, 1))
    n = thetas.shape[0]
    theta_set = ThetaSet(
        thetas=thetas,
        hour=np.arange(n),
        kappa=np.repeat(np.arange(1.0, 17.0), n // 16),
        oversize=np.ones(n),
        alpha=np.ones(n),
    )
    res = run_batch(scaled_demo_problem, thetas)
    n_soft = scaled_demo_problem.soft_rows.size
    volts_bytes = n * scaled_demo_problem.n_inj * 8
    tracemalloc.start()
    try:
        json_report(res, theta_set, demo_feeder)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - volts_bytes < n * n_soft * 8, (peak, volts_bytes, n * n_soft * 8)


def test_json_report_is_json_dumps_byte_for_byte(batch, small_theta_set, demo_feeder):
    payload = stats_mod._summary(batch, small_theta_set, demo_feeder)
    assert json_report(batch, small_theta_set, demo_feeder) == json.dumps(
        payload, sort_keys=True, indent=1
    )


def test_json_report_of_a_bench_workload_is_json_dumps_byte_for_byte():
    workloads = bench_workloads()
    inputs = workloads.feeder80_inputs(1, 2)
    feeder = load_feeder(inputs.feeder_text)
    prob = build_problem(feeder, BuilderConfig()).with_eta(ETA_FLOOR)
    scen = load_scenarios(feeder, inputs.loads_csv, inputs.solar_csv, seed=inputs.scenario_seed)
    theta_set = expand_grid(prob, scen, AnalysisGrid(**inputs.grid))
    res = run_batch(scale_problem(prob)[0], theta_set.thetas)
    payload = stats_mod._summary(res, theta_set, feeder)
    assert len(payload["groups"]) == 8
    assert json_report(res, theta_set, feeder) == json.dumps(payload, sort_keys=True, indent=1)


SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e22, 1e16, 1e-7, 0.1,
                  float("nan"), float("inf"), float("-inf"), 1.7976931348623157e308)
KEYS = ("a", "kappa", "bus é", "母线", "x\"y", "back\\slash", "tab\t", "\x01", "😀", "", "Z")


def _synthetic(rng, depth):
    """A seeded JSON-able value: nested dicts and lists of ints, bools,
    None, strings and floats, float-only lists among them."""
    kind = int(rng.integers(0, 9 if depth < 4 else 5))
    if kind == 0:
        return int(rng.integers(-10**12, 10**12)) * int(rng.choice([1, 10**9]))
    if kind == 1:
        return [True, False, None][int(rng.integers(0, 3))]
    if kind == 2:
        return str(rng.choice(KEYS))
    if kind in (3, 4):
        return float(rng.choice(SPECIAL_FLOATS)) if rng.random() < 0.4 else float(
            rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 5:  # floats alone, sometimes with a nan or an inf
        values = [float(v) for v in rng.standard_normal(int(rng.integers(0, 8)))]
        if values and rng.random() < 0.3:
            values[int(rng.integers(0, len(values)))] = float(rng.choice(SPECIAL_FLOATS))
        return values if rng.random() < 0.8 else tuple(values)
    if kind in (6, 7):
        return {str(rng.choice(KEYS)) + str(k): _synthetic(rng, depth + 1)
                for k in range(int(rng.integers(0, 5)))}
    return [_synthetic(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]


def test_json_writer_is_json_dumps_on_synthetic_payloads():
    rng = np.random.default_rng(32)
    for k in range(300):
        obj = _synthetic(rng, 0) if k % 3 else {"root": _synthetic(rng, 1), "é": [0.5, -0.0]}
        assert stats_mod._json_text(obj) == json.dumps(obj, sort_keys=True, indent=1), k
    with pytest.raises(TypeError):
        stats_mod._json_text({"a": [object()]})
