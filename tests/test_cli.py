"""Command-line pipeline: demo assets, run, validate, stats, dump-problem."""

import builtins
import json
import logging
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    float_columns,
    random_radial_case,
    regulated_radial_case,
    set_float_columns,
    set_status,
    status_names,
)

import phca
import phca.cli as cli_mod
import phca.errors
from phca.cli import main
from phca.engine import (
    INFEASIBLE,
    STATUSES,
    EngineOptions,
    load_result_json,
    run_batch,
    validate_batch,
)
from phca.regions import RegionContext


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """Demo assets plus a finished run in one temp directory."""
    d = tmp_path_factory.mktemp("case")
    assert main(["demo", "--out", str(d), "--days", "2"]) == 0
    return d


def base_args(d):
    return [
        "--feeder", str(d / "feeder.txt"),
        "--loads", str(d / "loads.csv"),
        "--solar", str(d / "solar.csv"),
        "--config", str(d / "config.ini"),
        "--eta", "0.01",
        "--kappa", "1.0,2.0",
        "--alpha", "0.24,0.48",
    ]


def test_demo_writes_assets(case, capsys):
    for name in ("feeder.txt", "loads.csv", "solar.csv", "config.ini"):
        assert (case / name).exists()
    # 2 days = 48 hourly rows plus the header
    assert len((case / "loads.csv").read_text().strip().splitlines()) == 49


def test_run_writes_results_and_report(case, capsys):
    out = case / "results.json"
    report = case / "report.txt"
    jrep = case / "report.json"
    code = main(
        ["run", *base_args(case), "--out", str(out),
         "--report", str(report), "--json-report", str(jrep)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "run: instances=192 " in captured.err
    payload = json.loads(out.read_text())
    assert len(payload["columns"]["region_id"]) == 192
    # only the rows that took a direct solve are named
    assert sum(map(len, payload["status"].values())) < 20
    text = report.read_text()
    assert text.startswith("batch summary")
    assert "group kappa=2 " in text
    jpayload = json.loads(jrep.read_text())
    assert len(jpayload["groups"]) == 4


def test_run_report_to_stdout(case, capsys):
    out = case / "results-stdout.json"
    assert main(["run", *base_args(case), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("batch summary")


def test_validate_passes(case, capsys):
    code = main(["validate", *base_args(case), "--sample", "40"])
    captured = capsys.readouterr()
    assert code == 0
    assert "validate: checked=40 " in captured.out
    assert "mismatches=0" in captured.out


def test_validate_with_nothing_solved_is_exit_3(case, capsys, monkeypatch):
    real = cli_mod.run_batch

    def all_infeasible(*args, **kwargs):
        res = real(*args, **kwargs)
        n = res.status.size
        return replace(
            res,
            status=np.full(n, STATUSES.index(INFEASIBLE), dtype=np.int8),
            region_id=np.full(n, -1),
            direct_signatures={},
        )

    monkeypatch.setattr(cli_mod, "run_batch", all_infeasible)
    code = main(["validate", *base_args(case), "--sample", "40"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "phca: error: ValidationFailure: no solved instance to validate\n"


def test_stats_from_saved_results(case, capsys):
    out = case / "results.json"
    if not out.exists():
        assert main(["run", *base_args(case), "--out", str(out)]) == 0
        capsys.readouterr()
    code = main(["stats", *base_args(case), "--results", str(out), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["counters"]["n_instances"] == 192
    # text report from the same results
    assert main(["stats", *base_args(case), "--results", str(out)]) == 0
    assert capsys.readouterr().out.startswith("batch summary")


def test_stats_results_for_other_inputs_rejected(case, capsys):
    out = case / "results.json"
    args = base_args(case)
    args[args.index("--kappa") + 1] = "1.0"  # fewer instances than the run held
    code = main(["stats", *args, "--results", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "phca: error: SchemaError" in captured.err


def test_dump_problem(case, capsys):
    code = main(["dump-problem", "--feeder", str(case / "feeder.txt"), "--eta", "0.01"])
    captured = capsys.readouterr()
    assert code == 0
    assert "[variables]" in captured.out
    assert "inverter-cap[6].hi:hard" in captured.out
    assert main(["dump-problem", "--feeder", str(case / "feeder.txt"), "--scaled"]) == 0
    capsys.readouterr()


#: the exit code of every error class phca.errors defines, and of the
#: standard library's unreadable-file errors
EXIT_CODES = {
    "PhcaError": 3,
    "InputError": 2,
    "DimensionError": 2,
    "SchemaError": 2,
    "MissingBusError": 2,
    "NegativeValueError": 2,
    "CycleError": 2,
    "DisconnectedError": 2,
    "DuplicateRegulatorError": 2,
    "ConfigError": 2,
    "HeadroomError": 2,
    "ModelError": 3,
    "AllInfeasibleError": 3,
    "RankDeficientKError": 3,
    "AbortError": 3,
    "EmptyGroupError": 3,
    "NonConvergenceError": 3,
    "FileNotFoundError": 2,
    "IsADirectoryError": 2,
    "PermissionError": 2,
}


@pytest.mark.parametrize(
    "name", sorted(set(EXIT_CODES) | {k for k, v in vars(phca.errors).items() if isinstance(v, type)})
)
def test_exit_code_table(capsys, monkeypatch, name):
    error = getattr(phca.errors, name, None) or getattr(builtins, name)

    def refuse(args):
        raise error("refused")

    monkeypatch.setattr(cli_mod, "_build_case", refuse)
    code = main(["run", "--feeder", "feeder.txt", "--loads", "loads.csv"])
    assert code == EXIT_CODES[name]
    assert capsys.readouterr().err == f"phca: error: {name}: refused\n"


def test_missing_input_is_exit_2(case, capsys):
    for flag in ("--feeder", "--config"):
        args = base_args(case)
        args[args.index(flag) + 1] = str(case / "no-such-file.txt")
        code = main(["run", *args, "--out", str(case / "x.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "phca: error: FileNotFoundError" in captured.err


def test_bad_feeder_is_exit_2(case, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("[substation]\n0\n[buses]\n0 0 0\n")
    args = base_args(case)
    args[args.index("--feeder") + 1] = str(bad)
    code = main(["run", *args, "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "phca: error:" in captured.err


def test_bad_grid_value_is_exit_2(case, capsys):
    args = base_args(case)
    args[args.index("--alpha") + 1] = "1.7"
    code = main(["run", *args, "--out", str(case / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "SchemaError" in captured.err


@pytest.mark.parametrize("axis", ["kappa", "oversize", "alpha"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_grid_value_is_exit_2(case, capsys, axis, value):
    args = [*base_args(case), f"--{axis}={value}"]
    code = main(["run", *args, "--out", str(case / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"phca: error: SchemaError: grid value {float(value)!r} for {axis} must be finite\n"
    )


@pytest.mark.parametrize("count", ["0", "-3"])
def test_validate_sample_below_one_is_exit_2(case, capsys, count):
    code = main(["validate", *base_args(case), "--sample", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"phca: error: ConfigError: sample must be at least 1, got {count}\n"


@pytest.mark.parametrize("days", ["0", "-2"])
def test_demo_days_below_one_is_exit_2(tmp_path, capsys, days):
    code = main(["demo", "--out", str(tmp_path / "case"), "--days", days])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"phca: error: ConfigError: days must be at least 1, got {days}\n"
    assert not (tmp_path / "case").exists()


def test_corrupted_results_fail_validation(case, capsys, tmp_path):
    # tamper with one stored solution, a budget row's: raising the slack
    # variable keeps the point feasible but not optimal, so the file loads
    # and stats runs on it, but the oracle on the loaded batch flags the
    # row, and only that row
    payload = json.loads(_results(case, capsys).read_text())
    x, rows = float_columns(payload)
    assert rows[0] in payload["status"]["budget-exhausted"]
    x[0, -1] += 0.5
    set_float_columns(payload, x)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(payload))
    code = main(["stats", *base_args(case), "--results", str(bad)])
    captured = capsys.readouterr()
    assert code == 0  # stats alone does not re-solve
    assert "batch summary" in captured.out
    args = cli_mod.build_parser().parse_args(["stats", *base_args(case)])
    _, prob, thetas = cli_mod._build_case(args)
    loaded = load_result_json(bad.read_text(), prob, thetas.thetas)
    assert validate_batch(loaded).mismatches == (rows[0],)


def test_zero_budget_is_exit_2(case, capsys):
    code = main(["run", *base_args(case), "--out", str(case / "x.json"), "--budget", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: ConfigError: solve_budget")
    assert len(captured.err.splitlines()) == 1


def test_negative_scenario_seed_is_exit_2(case, capsys):
    code = main(["run", *base_args(case), "--out", str(case / "x.json"), "--scenario-seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "phca: error: ConfigError: scenario seed must be a non-negative integer, got -1\n"
    )


@pytest.mark.parametrize("axis, value, error", [
    ("oversize", "1e200", "ConfigError: grid point alpha=0.24, kappa=1, oversize=1e+200 "
                          "overflows the parameter vector"),
    ("kappa", "1e160", "HeadroomError: scaled generation"),
])
def test_overflowing_grid_value_is_exit_2(case, capsys, axis, value, error):
    # oversize 1e200 squares to inf in the headroom, kappa 1e160 squares
    # the scaled generation to inf; neither may warn or reach the solver
    args = [*base_args(case), f"--{axis}={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", *args, "--out", str(case / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"phca: error: {error}")
    assert len(captured.err.splitlines()) == 1


def test_near_singular_cost_hessian_is_exit_2(tmp_path, capsys):
    # with the default beta this layout's smallest Hessian eigenvalue is
    # 1.4e-17 against a largest of 15, positive only by rounding
    feeder, loads, solar = regulated_radial_case(2)
    for name, text in (("feeder.txt", feeder), ("loads.csv", loads), ("solar.csv", solar)):
        (tmp_path / name).write_text(text)
    code = main(["run", "--feeder", str(tmp_path / "feeder.txt"),
                 "--loads", str(tmp_path / "loads.csv"), "--solar", str(tmp_path / "solar.csv"),
                 "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: ConfigError: cost Hessian not positive definite")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


def test_negative_seed_is_exit_2(case, capsys):
    code = main(["run", *base_args(case), "--out", str(case / "x.json"), "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: ConfigError: seed")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_calibration_samples_below_one_is_exit_2(case, capsys, count):
    code = main(["run", *base_args(case), "--out", str(case / "x.json"),
                 "--calibration-samples", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: ConfigError: calibration-samples")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_non_finite_eta_is_exit_2(case, capsys, eta):
    args = base_args(case)
    args[args.index("--eta") + 1] = eta
    code = main(["run", *args, "--out", str(case / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: ConfigError: eta must be finite")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("line", ["nu = nan", "ridge = inf", "eta = nan"])
def test_non_finite_dispatch_value_is_exit_2(case, capsys, tmp_path, line):
    config = tmp_path / "config.ini"
    config.write_text(f"[dispatch]\n{line}\n")
    args = base_args(case)
    args[args.index("--config") + 1] = str(config)
    code = main(["run", *args, "--out", str(case / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: ConfigError:")
    assert "must be finite" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_misspelled_config_section_is_exit_2(case, capsys, tmp_path):
    # a [constraint] section would otherwise drop its overrides unread
    config = tmp_path / "config.ini"
    config.write_text((case / "config.ini").read_text() + "[constraint]\nvoltage-hi = hard\n")
    args = base_args(case)
    args[args.index("--config") + 1] = str(config)
    code = main(["run", *args, "--out", str(case / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "phca: error: ConfigError: unknown config sections: ['constraint']\n"


@pytest.mark.parametrize(
    "text",
    [
        "beta = 0.2\n",  # no section header
        "[dispatch]\nbeta = 0.2\nbeta = 0.3\n",  # a duplicate option
        "[dispatch]\nbeta\n",  # a key without a value
        "[dispatch]\nbeta = 0.2\n[dispatch]\nvmin = 0.96\n",  # a duplicate section
    ],
)
def test_config_syntax_error_is_exit_2(case, capsys, tmp_path, text):
    config = tmp_path / "config.ini"
    config.write_text(text)
    args = base_args(case)
    args[args.index("--config") + 1] = str(config)
    code = main(["run", *args, "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: ConfigError: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_inputs_with_a_byte_order_mark_give_the_same_results(case, capsys, tmp_path, newline):
    # spreadsheet programs write a UTF-8 byte-order mark, and CRLF line ends
    args = base_args(case)
    marked = list(args)
    for flag in ("--feeder", "--loads", "--solar", "--config"):
        k = args.index(flag) + 1
        copy = tmp_path / Path(args[k]).name
        copy.write_bytes(b"\xef\xbb\xbf" + Path(args[k]).read_text().replace("\n", newline).encode())
        marked[k] = str(copy)
    assert main(["run", *args, "--out", str(tmp_path / "plain.json")]) == 0
    assert main(["run", *marked, "--out", str(tmp_path / "marked.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


@pytest.mark.parametrize(
    "flag, pipe",
    [("--feeder", False), ("--loads", False), ("--solar", False), ("--config", False),
     ("--results", False), ("--loads", True)],
    ids=["--feeder", "--loads", "--solar", "--config", "--results", "--loads-pipe"],
)
def test_file_that_is_not_utf8_is_exit_2(case, capsys, tmp_path, flag, pipe):
    # a Latin-1 e-acute halfway through the file, after a byte-order mark:
    # the offset counts the file's bytes, the mark's too, also through a
    # named pipe, as a shell's process substitution passes, which has no size
    args = [*base_args(case), "--results", str(_results(case, capsys))]
    k = args.index(flag) + 1
    raw = b"\xef\xbb\xbf" + Path(args[k]).read_bytes()
    at = len(raw) // 2
    raw = raw[:at] + b"\xe9" + raw[at:]
    bad = tmp_path / Path(args[k]).name
    if pipe:
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        os.mkfifo(bad)
        threading.Thread(target=bad.write_bytes, args=(raw,), daemon=True).start()
    else:
        bad.write_bytes(raw)
    args[k] = str(bad)
    code = main(["stats", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"phca: error: SchemaError: {bad} is not UTF-8 text: byte 0xe9 at offset {at}\n"
    )


def test_all_hard_constraints_report(case, capsys, tmp_path):
    # with no soft row left, every group reports no soft-row violations
    config = tmp_path / "config.ini"
    config.write_text(
        (case / "config.ini").read_text()
        + "[constraints]\nvoltage-hi = hard\nvoltage-lo = hard\nreg-input = hard\n"
    )
    args = base_args(case)
    args[args.index("--config") + 1] = str(config)
    out, report, jreport = tmp_path / "r.json", tmp_path / "report.txt", tmp_path / "report.json"
    assert main(["run", *args, "--out", str(out), "--report", str(report),
                 "--json-report", str(jreport)]) == 0
    capsys.readouterr()
    assert main(["stats", *args, "--results", str(out)]) == 0
    text = capsys.readouterr().out
    assert text == report.read_text()
    assert text.count("no soft-row violations") == 4
    assert main(["stats", *args, "--results", str(out), "--json"]) == 0
    assert capsys.readouterr().out == jreport.read_text()


def test_config_eta_is_used_as_given(case, capsys, caplog, tmp_path):
    # --eta, then the config's eta, then calibration
    config = tmp_path / "config.ini"
    config.write_text((case / "config.ini").read_text() + "eta = 5.0\n")
    args = base_args(case)
    del args[args.index("--eta"):args.index("--eta") + 2]
    from_config = list(args)
    from_config[from_config.index("--config") + 1] = str(config)
    with caplog.at_level(logging.INFO, logger="phca.cli"):
        assert main(["run", *from_config, "--out", str(tmp_path / "config.json")]) == 0
        assert caplog.messages == ["slack price eta = 5"]
        caplog.clear()
        assert main(["run", *args, "--eta", "5", "--out", str(tmp_path / "flag.json")]) == 0
        assert main(["run", *from_config, "--eta", "0.5", "--out", str(tmp_path / "both.json")]) == 0
        assert caplog.messages == ["slack price eta = 5", "slack price eta = 0.5"]
    capsys.readouterr()
    assert (tmp_path / "config.json").read_bytes() == (tmp_path / "flag.json").read_bytes()
    # each file records the slack price its run used
    etas = [json.loads((tmp_path / f"{name}.json").read_text())["eta"]
            for name in ("config", "flag", "both")]
    assert etas == pytest.approx([5.0, 5.0, 0.5], rel=1e-12)


def test_results_at_another_slack_price_are_exit_2(case, capsys):
    # the rows with a region are mapped again on load, so a file read under
    # another slack price would silently give that price's solutions
    results = _results(case, capsys)
    assert json.loads(results.read_text())["eta"] == pytest.approx(0.01, rel=1e-12)
    for eta in ("0.5", "5", "100"):
        args = base_args(case)
        args[args.index("--eta") + 1] = eta
        code = main(["stats", *args, "--results", str(results)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "phca: error: SchemaError: results were produced at a different slack price "
            f"(eta 0.01 in the file, {eta} from the inputs)"
        )
        assert len(captured.err.splitlines()) == 1


def _unknown_counter(payload):
    # counters other than screened_out are counted off the columns, never stored
    payload["qp_solves"] = 3


def _no_status(payload):
    del payload["status"]


def _no_index(payload):
    # the direct-signature table is the one place rows are named by index
    payload["direct_signatures"].append({"signature": [0]})


def _nan_solution(payload):
    x, _ = float_columns(payload)
    x[0, 0] = np.nan
    set_float_columns(payload, x)


def _short_column(payload):
    x, _ = float_columns(payload)
    set_float_columns(payload, x[:-1])


def _unknown_status(payload):
    payload["status"]["served"] = [5]


def _region_out_of_range(payload):
    payload["columns"]["region_id"][5] = len(payload["regions"])


def _reuse_without_region(payload):
    assert status_names(payload)[5] == "reuse"
    payload["columns"]["region_id"][5] = -1


def _infeasible_solution(payload):
    # the first variable is a reactive setpoint, capped by the inverter's
    # headroom far below 0.5
    x, _ = float_columns(payload)
    x[0, 0] += 0.5
    set_float_columns(payload, x)


def _removed_option(payload):
    payload["options"]["eps_active"] = 1e-5


def _bad_option_values(payload):
    payload["options"].update(seed="abc", solve_budget=-4)


def _bool_seed(payload):
    payload["options"]["seed"] = True


def _options_not_object(payload):
    payload["options"] = [0, None]


def _regions_not_list(payload):
    payload["regions"] = {"0": payload["regions"][0]}


def _ragged_region_id(payload):
    payload["columns"]["region_id"][5] = [0, 1]


def _text_counter(payload):
    payload["screened_out"] = "abc"


def _negative_counter(payload):
    payload["screened_out"] = -1


def _null_counter(payload):
    payload["screened_out"] = None


def _bool_counter(payload):
    payload["screened_out"] = False


def _wrong_instance_count(payload):
    payload["columns"]["region_id"].pop()


def _status_row_out_of_range(payload):
    payload["status"]["failed"] = [192]


def _row_under_two_names(payload):
    payload["status"]["failed"] = [payload["status"]["seed"][1]]


def _unsorted_status_list(payload):
    payload["status"]["seed"].reverse()


def _missing_status_name(payload):
    del payload["status"]["failed"]


def _reuse_status_name(payload):
    # reuse rows are the rows in no list, never listed themselves
    payload["status"]["reuse"] = [i for i, st in enumerate(status_names(payload)) if st == "reuse"]


def _status_list_column(payload):
    # the layout that wrote a status name for every row
    payload["columns"]["status"] = status_names(payload)
    del payload["status"]


def _status_list_beside_object(payload):
    # a status column is an unknown column, even beside the object
    payload["columns"]["status"] = status_names(payload)


def _non_string_column(payload):
    payload["columns"]["x"] = 1.5


def _bad_base64(payload):
    # a lenient decoder would skip the stray character and load the file
    payload["columns"]["x"] = "!" + payload["columns"]["x"]


def _wrong_byte_count(payload):
    x, _ = float_columns(payload)
    set_float_columns(payload, x[:, :-1])


def _inf_in_solved_row(payload):
    x, rows = float_columns(payload)
    assert rows[1] == 156
    x[1, 0] = np.inf
    set_float_columns(payload, x)


def _number_in_unsolved_row(payload):
    # x has room for the solved rows without a region only, so a solution
    # for any other row is one row too many
    x, _ = float_columns(payload)
    set_float_columns(payload, np.vstack([x, x[:1]]))


def _direct_row_without_solution(payload):
    # row 5 becomes a degenerate row with its direct signature, but x
    # gains no row for it
    assert status_names(payload)[5] == "reuse"
    set_status(payload, 5, "uncertain-active-set")
    payload["columns"]["region_id"][5] = -1
    payload["direct_signatures"].insert(0, {"index": 5, "signature": payload["regions"][0]})


def _rank_deficient_region(payload):
    # more active rows than variables cannot have full row rank
    x, _ = float_columns(payload)
    payload["regions"][0] = list(range(x.shape[1] + 1))


def _objective_column(payload):
    # the layout that also stored every solution and the objectives
    payload["columns"]["objective"] = payload["columns"]["x"]


def _reason_column(payload):
    # the layout that split a row's status into a status and a reason
    _status_list_column(payload)
    cols = payload["columns"]
    coarse = {"seed": ("direct", "seed"), "budget-exhausted": ("direct", "budget-exhausted"),
              "uncertain-active-set": ("degenerate-direct", "uncertain-active-set"),
              "rank-deficient": ("degenerate-direct", "rank-deficient")}
    pairs = [coarse.get(st, (st, None)) for st in cols["status"]]
    cols["status"], cols["reason"] = map(list, zip(*pairs))


def _list_format_x(payload):
    x, _ = float_columns(payload)
    payload["columns"]["x"] = x.tolist()


def _seed_rows_stored(payload):
    # the layout that also stored each region's seed row and no slack price
    x, rows = float_columns(payload)
    _status_list_column(payload)
    del payload["eta"]
    cols = payload["columns"]
    seeds = [i for i, st in enumerate(cols["status"]) if st == "seed"]
    order = np.argsort(rows + seeds, kind="stable")
    set_float_columns(payload, np.vstack([x, np.zeros((len(seeds), x.shape[1]))])[order])


def _parent_layout(payload):
    # the layout that stored the counters and each region's id, seed row and
    # served count beside the columns
    _status_list_column(payload)
    cols = payload["columns"]
    status, region_id = cols["status"], cols["region_id"]
    n = len(status)
    payload["counters"] = {
        "n_instances": n,
        "qp_solves": n - status.count("reuse"),
        "regions_built": len(payload["regions"]),
        "reuse": status.count("reuse"),
        "seeds": status.count("seed"),
        "screened_out": payload.pop("screened_out"),
        "degenerate": status.count("uncertain-active-set") + status.count("rank-deficient"),
        "budget_exhausted": status.count("budget-exhausted"),
        "infeasible": status.count("infeasible"),
        "failed": status.count("failed"),
    }
    payload["regions"] = [
        {
            "region_id": k,
            "signature": sig,
            "seed_index": next(i for i in range(n) if region_id[i] == k and status[i] == "seed"),
            "served": sum(r == k and s == "reuse" for r, s in zip(region_id, status)),
        }
        for k, sig in enumerate(payload["regions"])
    ]


def _row_of_region_0(payload, status):
    region_id = payload["columns"]["region_id"]
    return next(i for i, st in enumerate(status_names(payload)) if st == status and region_id[i] == 0)


def _region_without_seed(payload):
    set_status(payload, _row_of_region_0(payload, "seed"), "reuse")


def _region_with_two_seeds(payload):
    set_status(payload, _row_of_region_0(payload, "reuse"), "seed")


def _direct_signature_on_reuse_row(payload):
    assert status_names(payload)[5] == "reuse"
    payload["direct_signatures"].insert(0, {"index": 5, "signature": [0, 1, 2]})


def _region_table_off(payload):
    payload["regions"][0] = [999999]


def _negative_direct_signature(payload):
    # row 5 becomes a degenerate row whose signature names no inequality row
    assert status_names(payload)[5] == "reuse"
    set_status(payload, 5, "uncertain-active-set")
    payload["columns"]["region_id"][5] = -1
    payload["direct_signatures"].insert(0, {"index": 5, "signature": [-5]})


def _reuse_row_in_another_region(payload):
    # region 1 maps row 0 to a primal feasible point, but not an optimal one
    assert (status_names(payload)[0], payload["columns"]["region_id"][0]) == ("reuse", 0)
    payload["columns"]["region_id"][0] = 1


#: the error each new case must hit, not merely some SchemaError
MESSAGES = {
    _nan_solution: "row 155 is solved but its solution is not finite",
    _short_column: "column 'x' holds 240 bytes, not the 288 of 6 solved rows without a region",
    _infeasible_solution: "row 155 is solved but its solution is infeasible",
    _non_string_column: "column 'x' must be a base64 string",
    _bad_base64: "column 'x' is not valid base64",
    _wrong_byte_count: "column 'x' holds",
    _inf_in_solved_row: "row 156 is solved but its solution is not finite",
    _number_in_unsolved_row: "column 'x' holds 336 bytes, not the 288 of 6 solved rows without",
    _direct_row_without_solution: "column 'x' holds 288 bytes, not the 336 of 7 solved rows",
    _rank_deficient_region: "region 0's signature is rank deficient",
    _objective_column: "needs exactly the columns region_id, x; rerun phca run",
    _reason_column: "needs exactly the keys columns, direct_signatures, eta, options, "
                    "regions, scaling, screened_out, status; rerun phca run",
    _status_list_column: "needs exactly the keys columns, direct_signatures, eta, options, "
                         "regions, scaling, screened_out, status; rerun phca run",
    _status_list_beside_object: "needs exactly the columns region_id, x; rerun phca run",
    _list_format_x: "rerun phca run",
    _seed_rows_stored: "rerun phca run",
    _unknown_counter: "needs exactly the keys",
    _text_counter: "'screened_out' must be a non-negative integer",
    _negative_counter: "'screened_out' must be a non-negative integer",
    _null_counter: "'screened_out' must be a non-negative integer",
    _bool_counter: "'screened_out' must be a non-negative integer",
    _wrong_instance_count: "column 'region_id' does not hold one entry for each of the 192",
    _status_row_out_of_range: "status 'failed' must be a strictly increasing list of row "
                              "indices in 0..191",
    _row_under_two_names: "row 141 is listed under both 'seed' and 'failed'",
    _unsorted_status_list: "status 'seed' must be a strictly increasing list",
    _missing_status_name: "'status' needs exactly the keys seed, budget-exhausted, "
                          "uncertain-active-set, rank-deficient, infeasible, failed, each",
    _reuse_status_name: "'status' needs exactly the keys seed, budget-exhausted",
    _options_not_object: "results file has a malformed engine option block",
    _regions_not_list: "results file has a malformed region table",
    _ragged_region_id: "column 'region_id' is malformed",
    _parent_layout: "rerun phca run",
    _region_without_seed: "region 0 has 0 seed rows",
    _region_with_two_seeds: "region 0 has 2 seed rows",
    _direct_signature_on_reuse_row: "direct_signatures must list the degenerate",
    _region_table_off: "region 0's signature must be a strictly increasing list",
    _negative_direct_signature: "the direct signature of row 5 must be a strictly increasing",
    _reuse_row_in_another_region: "row 0 is served by region 1, which does not certify it",
}


@pytest.mark.parametrize(
    "corrupt",
    [_no_status, _no_index, _unknown_status, _region_out_of_range, _reuse_without_region,
     _removed_option, _bad_option_values, _bool_seed, *MESSAGES],
)
def test_malformed_results_are_exit_2(case, capsys, tmp_path, corrupt):
    payload = json.loads(_results(case, capsys).read_text())
    corrupt(payload)
    _assert_refused(case, capsys, tmp_path, payload, MESSAGES.get(corrupt, ""))


def _results(case, capsys):
    """A budget run's results file: two regions, and six budget rows, the
    rows whose solutions the file stores."""
    orig = case / "results-budget.json"
    if not orig.exists():
        assert main(["run", *base_args(case), "--budget", "2", "--out", str(orig)]) == 0
        capsys.readouterr()
    return orig


def _assert_refused(case, capsys, tmp_path, payload, message):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(payload))
    code = main(["stats", *base_args(case), "--results", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("phca: error: SchemaError")
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1


def test_reuse_row_moved_to_a_region_that_maps_it_outside_is_exit_2(case, capsys, tmp_path):
    # the loader certifies each reuse row with the region its region_id
    # names, so pointing a row at another region must fail that test; find
    # a row and a region whose map puts it outside the inequality rows
    payload = json.loads(_results(case, capsys).read_text())
    args = cli_mod.build_parser().parse_args(["stats", *base_args(case)])
    _, prob, thetas = cli_mod._build_case(args)
    ctx = RegionContext(prob)
    _, xu, rhs = ctx.instance_data(thetas.thetas)
    reuse = np.array(status_names(payload)) == "reuse"
    owner = np.array(payload["columns"]["region_id"])
    m = prob.A.shape[0]
    for k, sig in enumerate(payload["regions"]):
        rows = np.flatnonzero(reuse & (owner != k))
        x = ctx.build_region(sig).batch_solutions(xu[rows], rhs[rows])
        outside = rows[(x @ prob.A.T - rhs[rows, :m]).max(axis=1) > 1e-6]
        if outside.size:
            break
    assert outside.size
    i = int(outside[0])
    payload["columns"]["region_id"][i] = k
    message = f"row {i} is served by region {k}, which does not certify it"
    _assert_refused(case, capsys, tmp_path, payload, message)


def test_sequential_and_budget_flags(case, capsys):
    out = case / "seq.json"
    code = main(
        ["run", *base_args(case), "--out", str(out), "--sequential", "--budget", "2"]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["options"]["seed"] is None
    assert payload["options"]["solve_budget"] == 2
    # same answers as the seeded, unbudgeted run
    ref = json.loads((case / "results.json").read_text())
    args = cli_mod.build_parser().parse_args(["stats", *base_args(case)])
    _, prob, thetas = cli_mod._build_case(args)
    xa = load_result_json(out.read_text(), prob, thetas.thetas).x
    xb = load_result_json(json.dumps(ref), prob, thetas.thetas).x
    assert np.max(np.abs(xa - xb)) < 1e-8
    # budget rows are stored, the seeds are mapped, and both load back bit
    # for bit
    assert payload["status"]["budget-exhausted"]
    result = run_batch(prob, thetas.thetas, EngineOptions(seed=None, solve_budget=2))
    np.testing.assert_array_equal(xa, result.x)


def test_empty_grid_cell_is_exit_3(case, capsys, tmp_path, monkeypatch):
    # every instance of the second grid cell is made infeasible, so the
    # report has nothing to summarize there once the results are written
    real = cli_mod.expand_grid

    def second_cell_infeasible(prob, scen, grid):
        ts = real(prob, scen, grid)
        thetas = ts.thetas.copy()
        thetas[ts.groups()[1][1], prob.headroom_slice()] = -1.0
        return replace(ts, thetas=thetas)

    monkeypatch.setattr(cli_mod, "expand_grid", second_cell_infeasible)
    out = tmp_path / "results.json"
    code = main(["run", *base_args(case), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("phca: error: EmptyGroupError: grid cell")
    assert len(captured.err.splitlines()) == 1
    payload = json.loads(out.read_text())
    assert len(payload["status"]["infeasible"]) == 48


#: the steps given as JSON in one process, in which every scipy import
#: fails; prints their exit codes
PIPELINE = """
import json
import sys
import threading

sys.modules["scipy"] = None
from phca.cli import main

codes = [main(step) for step in json.loads(sys.argv[1])]
print("codes", codes)
"""


def run_pipeline(d, case, first=()):
    """The first steps, then set-up with calibration, the batch and its
    results file, the file read back, both reports and the oracle on the
    case arguments, writing to directory d, all in one fresh process;
    returns it."""
    steps = [
        *first,
        ["run", *case, "--out", f"{d}/r.json", "--report", f"{d}/r.txt",
         "--json-report", f"{d}/rj.json"],
        ["stats", *case, "--results", f"{d}/r.json"],
        ["stats", *case, "--results", f"{d}/r.json", "--json"],
        ["validate", *case, "--sample", "50"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(phca.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", PIPELINE, json.dumps(steps)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )


def test_demo_pipeline_imports_no_scipy(tmp_path):
    # phca needs numpy alone: the whole pipeline runs with scipy blocked
    d = str(tmp_path)
    case = ["--feeder", f"{d}/feeder.txt", "--loads", f"{d}/loads.csv",
            "--solar", f"{d}/solar.csv", "--config", f"{d}/config.ini"]
    proc = run_pipeline(d, case, first=[["demo", "--out", d, "--days", "2"]])
    assert proc.stdout.splitlines()[-1] == "codes [0, 0, 0, 0, 0]"


def test_certified_infeasible_calibration_imports_no_scipy(tmp_path):
    # 7 of the random feeder's 32 calibration samples are infeasible; each
    # leaves the interior-point method on a ray whose certificate passes
    # the Farkas check, in set-up, run, stats and oracle, with scipy blocked
    feeder, loads, solar = random_radial_case(30, 5, days=2, seed=2)
    for name, text in (("feeder.txt", feeder), ("loads.csv", loads), ("solar.csv", solar)):
        (tmp_path / name).write_text(text)
    d = str(tmp_path)
    case = ["--feeder", f"{d}/feeder.txt", "--loads", f"{d}/loads.csv", "--solar", f"{d}/solar.csv",
            "--kappa", "1.0,1.5", "--oversize", "1.0,1.15", "--alpha", "0.24,0.48"]
    proc = run_pipeline(d, case)
    assert proc.stderr.count("calibration skipped 7 of 32 samples") == 4
    assert proc.stdout.splitlines()[-1] == "codes [0, 0, 0, 0]"
