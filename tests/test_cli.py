"""End-to-end tests for the command-line interface and report files."""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from voltctrl import cli, load_case, simulate
from voltctrl.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_RUNTIME,
    RunConfig,
    main,
    parse_config,
    parse_trip,
)
from voltctrl.errors import ConfigError
from voltctrl.netcase import Bus, BusKind, scale_loads, serialize_case
from voltctrl.oracle import solve_at
from voltctrl.powerflow import nominal_injections, solve_power_flow
from voltctrl.sensitivity import partition_buses
from voltctrl.simulate import PlantMode


def test_parse_config_defaults():
    cfg = parse_config("case = case14\n")
    assert cfg.case_path == "case14"
    assert cfg.scenario == "static"
    assert cfg.plant is PlantMode.NONLINEAR
    assert cfg.v_lo == 0.95 and cfg.v_hi == 1.05
    assert cfg.q_lo == -0.2 and cfg.q_hi == 0.2
    assert cfg.load_scale == 1.0
    assert cfg.tol == 1e-6
    assert cfg.profile is None


def test_parse_config_all_keys():
    text = """
    # full configuration
    case = case30
    scenario = fault
    plant = linear
    v_lo = 0.94
    v_hi = 1.06
    q_lo = -0.5
    q_hi = 0.5
    k_q = 2.0
    k_lam = 3.0
    k_mu = 4.0
    load_scale = 2.5
    trip = 29:30@15.5
    out = results
    tol = 1e-8
    horizon = 5e4
    hour_seconds = 1800
    reset_multipliers = true
    """
    cfg = parse_config(text)
    assert cfg.case_path == "case30"
    assert cfg.scenario == "fault"
    assert cfg.plant is PlantMode.LINEAR
    assert (cfg.v_lo, cfg.v_hi, cfg.q_lo, cfg.q_hi) == (0.94, 1.06, -0.5, 0.5)
    assert cfg.gains().k_q == 2.0
    assert cfg.gains().k_lam == 3.0
    assert cfg.gains().k_mu == 4.0
    assert cfg.load_scale == 2.5
    assert cfg.trip == (29, 30, 15.5)
    assert cfg.out_dir == "results"
    assert cfg.tol == 1e-8
    assert cfg.horizon == 5e4
    assert cfg.hour_seconds == 1800.0
    assert cfg.reset_multipliers is True


def test_parse_config_unknown_key_names_it():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'vmaks'"):
        parse_config("case = case14\nvmaks = 1.05\n")


def test_parse_config_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("v_lo = high\n")
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("scenario = sideways\n")
    with pytest.raises(ConfigError, match="scenario must be one of static, fault, daily"):
        parse_config("scenario = validate\n")
    with pytest.raises(ConfigError, match="plant"):
        parse_config("plant = quadratic\n")
    with pytest.raises(ConfigError, match="tol"):
        parse_config("tol = -1\n")
    with pytest.raises(ConfigError, match="24"):
        parse_config("profile = 1.0, 1.0, 1.0\n")
    with pytest.raises(ConfigError, match="v_lo"):
        parse_config("v_lo = 1.10\nv_hi = 1.05\n")


@pytest.mark.parametrize("value", ["0", "-1.5"])
@pytest.mark.parametrize("key", ["k_q", "k_lam", "k_mu"])
def test_nonpositive_gain_is_a_config_error(tmp_path, capsys, key, value):
    # exit 1 means "ran but did not converge"; a gain the controller cannot
    # take is a configuration error
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = case14\n{key} = {value}\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert f"config error: line 2: {key} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("word", ["no", "off", "false", "0"])
def test_reset_multipliers_reads_false_words(word):
    assert parse_config(f"reset_multipliers = {word}\n").reset_multipliers is False


@pytest.mark.parametrize(
    "text, message",
    [
        ("reset_multipliers = maybe\n", "line 1: expected a boolean, got 'maybe'"),
        ("q_lo = 0.2\nq_hi = 0.2\n", "q_lo must be below q_hi"),
        ("q_lo = 0.3\nq_hi = 0.2\n", "q_lo must be below q_hi"),
    ],
    ids=["reset_maybe", "q_box_empty", "q_box_reversed"],
)
def test_parse_config_rejects_bad_values(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_parse_config_profile_roundtrip():
    values = ", ".join(str(0.7 + 0.01 * h) for h in range(24))
    cfg = parse_config(f"profile = {values}\n")
    assert cfg.profile is not None
    assert len(cfg.profile) == 24
    assert cfg.profile[0] == pytest.approx(0.7)
    assert cfg.profile[23] == pytest.approx(0.93)


def test_parse_trip_variants():
    assert parse_trip("4:5") == (4, 5, None)
    assert parse_trip("4:5@50") == (4, 5, 50.0)
    with pytest.raises(ConfigError):
        parse_trip("4-5")
    with pytest.raises(ConfigError):
        parse_trip("4:b")
    with pytest.raises(ConfigError):
        parse_trip("4:5@zero")
    with pytest.raises(ConfigError):
        parse_trip("4:5@-1")


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--trip", "4:5@nan"], "", "--trip: value must be finite"),
        ([], "trip = 4:5@inf\n", "line 3: value must be finite"),
        ([], "profile = " + ", ".join(["1.0"] * 23 + ["-0.5"]) + "\n",
         "line 3: profile factors must be nonnegative"),
        (["--trip", "4:5@"], "", "--trip: expected a number, got ''"),
        ([], "profile = " + ", ".join(["1.0"] * 12 + [""] + ["1.0"] * 12) + "\n",
         "line 3: expected a number, got ''"),
        ([], "profile = " + ", ".join(["1.0"] * 24) + ",\n", "line 3: expected a number, got ''"),
        (["--plant", "quadratic"], "", "--plant: plant must be 'nonlinear' or 'linear'"),
        (["--scenario", "sideways"], "", "--scenario: scenario must be one of static, fault, daily"),
    ],
    ids=["trip-flag-nan", "trip-key-inf", "negative-profile", "trip-flag-empty-time",
         "empty-profile-field", "trailing-profile-comma", "plant-flag", "scenario-flag"],
)
def test_late_failing_values_are_config_errors_before_the_output(tmp_path, capsys, flags, config,
                                                                 message):
    # a trip time that is not finite and a negative load factor once parsed,
    # then failed inside the run without their location, after the output
    # directory was made; a bad --plant or --scenario is judged as its
    # config key, where argparse's own list of choices once judged it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = case14\nscenario = fault\n{config}")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out), *flags])
    assert code == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_powerflow_command_prints_setpoints(capsys):
    code = main(["powerflow", "--case", "case14"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "converged: yes" in out
    assert "1.0600" in out
    assert "1.0900" in out


def test_powerflow_scale_flag_changes_solution(capsys):
    code = main(["powerflow", "--case", "case14", "--scale", "3.1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0.8895" in out


def test_powerflow_case30_bundled(capsys):
    code = main(["powerflow", "--case", "case30"])
    assert code == EXIT_OK
    assert "converged: yes" in capsys.readouterr().out


def test_sensitivity_command(capsys):
    code = main(["sensitivity", "--case", "case14"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "symmetry error" in out
    assert "min eigenvalue" in out


@pytest.fixture(scope="module")
def static_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("static")
    code = main(
        ["run", "--case", "case14", "--scale", "3.1", "--plant", "linear",
         "--out", str(out)]
    )
    return code, out


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    return header, np.atleast_2d(data)


def test_run_writes_all_three_reports(static_run):
    code, out = static_run
    assert code == EXIT_OK
    for name in ("trajectory.csv", "voltages_before_after.txt", "summary.txt"):
        assert (out / name).exists()


def test_trajectory_csv_roundtrip(static_run):
    _, out = static_run
    header, data = _read_csv(out / "trajectory.csv")
    assert header[0] == "t"
    assert header[-1] == "cost"
    assert header[-3:-1] == ["lam_norm", "mu_norm"]
    q_cols = [i for i, h in enumerate(header) if h.startswith("q_")]
    v_cols = [i for i, h in enumerate(header) if h.startswith("v_")]
    assert len(q_cols) == 9 and len(v_cols) == 9
    t = data[:, 0]
    assert np.all(np.diff(t) > 0)
    # cost column must equal the sum of squares of the printed q columns
    recomputed = np.sum(data[:, q_cols] ** 2, axis=1)
    assert np.max(np.abs(recomputed - data[:, -1])) < 1e-10
    assert np.all(data[0, q_cols] == 0.0)


def test_voltage_rows_are_four_decimal(static_run):
    _, out = static_run
    lines = (out / "voltages_before_after.txt").read_text().splitlines()
    assert lines[0].startswith("bus")
    before = lines[1].split()
    after = lines[2].split()
    assert before[0] == "before" and after[0] == "after"
    assert len(before) == 15 and len(after) == 15
    assert before[14] == "0.8895"
    assert after[14] == "0.9500"
    assert after[4] == "0.9500"
    for token in before[1:] + after[1:]:
        whole, frac = token.split(".")
        assert len(frac) == 4


def test_summary_matches_trajectory(static_run):
    _, out = static_run
    summary = (out / "summary.txt").read_text()
    assert "converged: yes" in summary
    assert "v_lo @ bus 14" in summary
    assert "q_hi @ bus 14" in summary
    _, data = _read_csv(out / "trajectory.csv")
    cost_line = next(
        line for line in summary.splitlines() if line.startswith("final cost")
    )
    assert float(cost_line.split(":")[1]) == pytest.approx(data[-1, -1], abs=1e-6)


def test_summary_lists_the_oracle_binding_constraints(static_run):
    # the linear loop settles on the QP oracle's optimum at the base point,
    # built as validate builds it, so its binding multipliers are the
    # oracle's active sets, listed by family and then by position
    _, out = static_run
    case = scale_loads(load_case("case14"), 3.1)
    part = partition_buses(case)
    active = solve_at(case, RunConfig().limits_for(case))[0].active_sets
    pq_ids = [case.buses[i].id for i in part.pq]
    ctl_ids = [case.buses[i].id for i in part.controlled]
    want = [
        f"{family} @ bus {ids[pos]}"
        for family, ids in (("v_hi", pq_ids), ("v_lo", pq_ids), ("q_hi", ctl_ids), ("q_lo", ctl_ids))
        for pos in sorted(active[family])
    ]
    assert want
    summary = (out / "summary.txt").read_text().splitlines()
    assert "binding constraints: " + ", ".join(want) in summary


def test_summary_reports_solver_counts(static_run):
    # one line with the run's SolverStats: the x3.1 linear run takes 12
    # accepted steps in 16 attempts, one plant call each and one phi-product
    # each but for the 4 retries after a landing, which take the landing's
    # last product, and 13 phi-products to land its events
    _, out = static_run
    summary = (out / "summary.txt").read_text().splitlines()
    _, data = _read_csv(out / "trajectory.csv")
    line = next(line for line in summary if line.startswith("solver: "))
    accepted = len(data) - 1
    assert line.startswith(f"solver: {accepted} accepted steps, ")
    rejected = int(line.split(", ")[1].split()[0])
    retries = int(line.split("crossing ")[1].split(",")[0])
    retries += int(line.split("entering ")[1].split(",")[0])
    landing = int(line.split("(")[-1].split()[0])
    attempts = accepted + rejected
    phi_products = attempts - retries + landing
    assert line.endswith(
        f"{attempts} plant calls, {phi_products} phi-products ({landing} to land events)"
    )
    assert landing > 0 and retries > 0


def test_reruns_are_byte_identical(static_run, tmp_path):
    _, out = static_run
    code = main(
        ["run", "--case", "case14", "--scale", "3.1", "--plant", "linear",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    first = (out / "trajectory.csv").read_bytes()
    second = (tmp_path / "trajectory.csv").read_bytes()
    assert first == second


def test_fault_summary_reports_cost_ratio(tmp_path):
    code = main(
        ["run", "--scenario", "fault", "--case", "case14", "--scale", "3.1",
         "--plant", "linear", "--trip", "4:5", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    summary = (tmp_path / "summary.txt").read_text()
    pre = post = ratio = None
    for line in summary.splitlines():
        if line.startswith("pre-trip cost"):
            pre = float(line.split(":")[1])
        elif line.startswith("post-trip cost"):
            post = float(line.split(":")[1])
        elif line.startswith("cost ratio"):
            ratio = float(line.split(":")[1])
    assert pre is not None and post is not None and ratio is not None
    assert post > pre
    assert ratio == pytest.approx(post / pre, abs=5e-4)


def test_a_fault_whose_costs_both_stay_zero_reports_ratio_one(tmp_path, capsys):
    # case14's flow is inside the wide band before and after the trip
    cfg = tmp_path / "wide_fault.cfg"
    cfg.write_text("case = case14\nscenario = fault\nplant = linear\nv_lo = 0.8\nv_hi = 1.2\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "post-trip cost 0.000000  ratio 1.0000" in capsys.readouterr().out
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert "post-trip cost: 0.000000" in summary and "cost ratio: 1.0000" in summary


def test_daily_summary_counts_band_hours(tmp_path):
    code = main(
        ["run", "--scenario", "daily", "--case", "case14", "--plant", "linear",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    summary = (tmp_path / "summary.txt").read_text()
    assert "hours out of band uncontrolled: 24" in summary
    assert "hours out of band controlled: 0" in summary


def test_daily_summary_counts_hours_against_configured_band(tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("case = case14\nscenario = daily\nplant = linear\nv_lo = 0.93\nv_hi = 1.07\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "hours out of band uncontrolled: 0" in summary
    assert "hours out of band controlled: 0" in summary


def test_a_daily_report_takes_its_before_row_from_the_last_hour(tmp_path, capsys):
    # at x5.5 the unprofiled case has no power flow, but every hour of a
    # x0.5 profile (x2.75) does, and the run converges; the before row is
    # the last hour's uncontrolled flow, as the after row is that hour's,
    # so the report no longer solves a flow the run never met
    cfg = tmp_path / "heavy_daily.cfg"
    profile = ", ".join(["0.5"] * 24)
    cfg.write_text(
        f"case = case14\nload_scale = 5.5\nscenario = daily\nplant = linear\nprofile = {profile}\n"
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK and capsys.readouterr().err == ""
    heavy = scale_loads(load_case("case14"), 5.5)
    assert not solve_power_flow(heavy, nominal_injections(heavy)).converged
    last_hour = scale_loads(heavy, 0.5)
    bare = solve_power_flow(last_hour, nominal_injections(last_hour))
    lines = (tmp_path / "out" / "voltages_before_after.txt").read_text().splitlines()
    assert lines[1] == "before " + " ".join(f"{v:7.4f}" for v in bare.v)


def test_exit_code_not_converged(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("case = case14\nload_scale = 3.1\nplant = linear\nhorizon = 1.0\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NOT_CONVERGED


def test_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("case = case14\nvmaks = 1.05\n")
    code = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "vmaks" in err


def test_exit_code_runtime_failure(tmp_path):
    code = main(
        ["run", "--case", "case14", "--scale", "40", "--plant", "nonlinear",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_RUNTIME


@pytest.mark.parametrize(
    "trip, message",
    [
        ("1:99", "no in-service branch joins buses 1 and 99"),
        ("7:8", "tripping branch 7-8 would island part of the network"),
    ],
)
def test_a_bad_trip_is_a_runtime_failure_before_any_run(
    tmp_path, capsys, monkeypatch, trip, message
):
    def no_run(*args, **kwargs):
        raise AssertionError("the intact window ran before the trip was checked")

    monkeypatch.setattr(simulate, "integrate", no_run)
    code = main(
        ["run", "--case", "case14", "--scale", "3.1", "--scenario", "fault", "--trip", trip,
         "--out", str(tmp_path)]
    )
    assert code == EXIT_RUNTIME
    assert f"runtime failure: {message}" in capsys.readouterr().err


def test_validate_diverging_base_point_is_runtime_failure(capsys):
    # the base point's solve names its mismatch, and validate names the point
    code = main(["validate", "--case", "case14", "--scale", "40"])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: power flow did not converge (mismatch ")
    assert err.endswith(") at the base point\n")


def test_non_finite_case_number_is_runtime_failure(tmp_path, capsys):
    from importlib import resources

    text = resources.files("voltctrl").joinpath("data", "case14.m").read_text()
    path = tmp_path / "grid.m"
    path.write_text(text.replace("\t47.8\t", "\tNaN\t"))
    code = main(["powerflow", "--case", str(path)])
    assert code == EXIT_RUNTIME
    assert "runtime failure: bus 4: p_load is nan" in capsys.readouterr().err


def test_missing_case_file_is_config_error(capsys):
    code = main(["powerflow", "--case", "/nonexistent/grid.m"])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "input_kind", ["case_is_a_directory", "config_is_a_directory", "case_not_utf8", "out_is_a_file"]
)
def test_unreadable_paths_are_config_errors(tmp_path, capsys, input_kind):
    # each once ended in a traceback and exit 1; the output path is judged
    # before the run, not after it
    (tmp_path / "grid.m").write_bytes(b"\xff\xfe function mpc = grid\n")
    (tmp_path / "taken").write_text("")
    argv = {
        "case_is_a_directory": ["powerflow", "--case", str(tmp_path)],
        "config_is_a_directory": ["run", "--config", str(tmp_path)],
        "case_not_utf8": ["powerflow", "--case", str(tmp_path / "grid.m")],
        "out_is_a_file": ["run", "--case", "case14", "--out", str(tmp_path / "taken")],
    }[input_kind]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("config error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "validate", "sensitivity", "powerflow"])
def test_an_islanded_case_names_its_cause(tmp_path, capsys, command):
    # bundled case14 plus a PQ bus 15 that no branch reaches: the case
    # parses, and every command fails at its first solve, naming the bus,
    # where a singular matrix was reported before
    case14 = load_case("case14")
    bus = Bus(id=15, kind=BusKind.PQ, p_load=0.1, q_load=0.05, has_controller=True)
    path = tmp_path / "island.m"
    path.write_text(serialize_case(replace(case14, buses=case14.buses + (bus,))))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--case", str(path), *out]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime failure: the network is islanded: buses [15] cannot be reached from slack bus 1\n"
    )


def test_overflowing_gains_are_a_runtime_failure(tmp_path, capsys):
    # gains of 1e300 overflow numpy's products: the run ends in one line that
    # names the non-finite stage, with no numpy warning (the suite turns
    # every warning into an error)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = case14\nload_scale = 3.1\nk_q = 1e300\nk_lam = 1e300\nk_mu = 1e300\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime failure: step size underflow at t=0: the step's stage is not finite\n"
    )


@pytest.mark.parametrize("gain, t, cause", [
    ("k_q = 1e300\nplant = linear", r"[1-9][0-9.]*", "the state's rates are not finite"),
    ("k_q = 1e300\nplant = linear\nhorizon = 2e4", "20000", "the state's rates are not finite"),
    ("k_lam = 1e300\nplant = nonlinear", "0", "the step's stage is not finite"),
], ids=["k_q-linear", "k_q-linear-at-horizon", "k_lam-nonlinear"])
def test_one_overflowing_gain_names_the_non_finite_stage(tmp_path, capsys, gain, t, cause):
    # one gain of 1e300: on the linear plant the run steps until the rates
    # of an accepted state overflow, which ends it there, even where that
    # state is the horizon's (the run once ended there with exit 1 and
    # residual inf); on the nonlinear one k_lam overflows the first stage.
    # Either way one line, and no numpy warning
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = case14\nload_scale = 3.1\n{gain}\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.fullmatch(rf"runtime failure: step size underflow at t={t}: {cause}\n", err)


def test_a_run_past_its_attempt_budget_exits_3(monkeypatch, tmp_path, capsys):
    # the budget's error ends `voltctrl run` as a runtime failure, in one line
    monkeypatch.setattr(simulate, "_MAX_ATTEMPTS", 10)
    out = tmp_path / "out"
    code = main(["run", "--case", "case14", "--scale", "3.1", "--plant", "linear", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert re.fullmatch(
        r"runtime failure: window ended after 10 attempts at t=\S+, step size \S+; "
        r"last rejection: .+\n",
        capsys.readouterr().err,
    )


# a two-bus case with one slack and one PV bus: no load bus, so nothing to
# control or linearize, though its power flow solves
NO_LOAD_BUS_TEXT = """\
function mpc = noload
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
\t2\t2\t50\t10\t0\t0\t1\t1\t0\t0\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t0\t0\t1.0\t100\t1\t0\t0;
\t2\t20\t0\t0\t0\t1.02\t100\t1\t0\t0;
];
mpc.branch = [
\t1\t2\t0.01\t0.1\t0\t0\t0\t0\t0\t0\t1\t-360\t360;
];
"""


def test_a_case_with_no_load_bus_is_refused_by_the_commands_that_need_one(tmp_path, capsys):
    # validate and sensitivity once ended in numpy tracebacks on an empty
    # argmax and an empty max (exit 1); run refused the case but left its
    # output directory behind. The power flow still solves it
    case = tmp_path / "noload.m"
    case.write_text(NO_LOAD_BUS_TEXT)
    out = tmp_path / "out"
    for command, code, err in (
        ("run", EXIT_CONFIG, "config error: case noload has no controlled bus\n"),
        ("validate", EXIT_CONFIG, "config error: case noload has no controlled bus\n"),
        ("sensitivity", EXIT_CONFIG, "config error: case noload has no load bus\n"),
        ("powerflow", EXIT_OK, ""),
    ):
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, "--case", str(case), *extra]) == code
        assert capsys.readouterr().err == err
    assert not out.exists()


# the fuzzer's token pool, by config key: first the values a key is meant to
# take, among them limits, an overflowing gain, a case file with no load bus,
# the scenario and plant words and trip and profile forms; then values it
# must refuse or that fail the run: numbers that are not finite or out of
# range, punctuation, misspelt words, broken forms and an output path under
# a file. "vmaks" is a key the config does not know, and {tmp} is the
# directory each call of the command runs in
_FUZZ_POOL = {
    "v_lo": (("0.95", "0.9"), ("1.1", "nan", "")),
    "v_hi": (("1.05", "1.1"), ("0.9", "nan", "")),
    "q_lo": (("-0.2", "-0.3"), ("0.2", "nan", "")),
    "q_hi": (("0.2", "0.3"), ("-0.2", "nan", "")),
    **dict.fromkeys(("k_q", "k_lam", "k_mu"), (("1", "1e-3", "1e300"), ("0", "-1", "inf", "#"))),
    **dict.fromkeys(("tol", "horizon", "hour_seconds"), (("1e-3", "50", "1e300"), ("0", "-inf", ":"))),
    "load_scale": (("3.1", "1", "0"), ("50", "1e300", "-1", "nan")),
    "case": (("case14", "case30", "{tmp}/noload.m"), ("case9", ",")),
    "scenario": (("static", "fault", "daily"), ("sideways", "linear")),
    "plant": (("linear", "nonlinear"), ("quadratic", "static")),
    "trip": (("4:5", "4:5@20"), ("2:3@1e300", "7:8", "1:99", "4:5@nan", "4:5@-1", "4:5@", "4", "@")),
    "profile": ((", ".join(["0.5"] * 12 + ["2.5"] * 12),),
                (", ".join(["1.0"] * 23), ", ".join(["1.0"] * 23 + ["-0.5"]),
                 ", ".join(["1.0"] * 24) + ",", "1e300")),
    "reset_multipliers": (("yes", "off"), ("maybe",)),
    "out": (("{tmp}/elsewhere", "{tmp}/="), ("{tmp}/run.cfg/x",)),
    "vmaks": (("1.05",), ()),
}


def _mostly(common, rare):
    """Four draws in five from ``common``, the rest from ``rare`` where it has any."""
    return st.integers(0, 4).flatmap(lambda n: st.sampled_from(common if n or not rare else rare))


def _fuzz_lines(command):
    """One to four config lines for ``command``, four keys in five among those it reads.

    Each line is a key, a value and whether to give it as its flag, where
    the subcommand has that flag. The keys are distinct, which spreads a
    hundred draws over more keys and flags than Hypothesis's repeats do.
    """
    # run reads every key the config knows
    reads = sorted(cli._COMMAND_KEYS.get(command, set(_FUZZ_POOL) - {"vmaks"}))
    line = _mostly(reads, sorted(_FUZZ_POOL)).flatmap(
        lambda key: st.tuples(st.just(key), _mostly(*_FUZZ_POOL[key]), st.booleans())
    )
    return st.lists(line, min_size=1, max_size=4, unique_by=lambda line: line[0])


# each subcommand's base lines, keys it reads: they bind the band and keep
# each run short, and a drawn key overrides them
_FUZZ_BASE = {
    "run": "case = case14\nload_scale = 3.1\nplant = linear\nhorizon = 50\nhour_seconds = 50\n"
           "out = {tmp}/out\n",
    "validate": "case = case14\nload_scale = 3.1\nhorizon = 50\n",
    **dict.fromkeys(("sensitivity", "powerflow"), "case = case14\nload_scale = 3.1\n"),
}


def _fuzz_main(command, text, flags):
    """Run ``command`` on config ``text`` and ``flags`` in a new directory that {tmp} names.

    Checks the exit code, the one stderr line of a failure, and that a
    config error leaves nothing behind; returns the code and the stderr
    text with the directory written back as {tmp}.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text.replace("{tmp}", tmp))
        (Path(tmp) / "noload.m").write_text(NO_LOAD_BUS_TEXT)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), *(a.replace("{tmp}", tmp) for a in flags)])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED, EXIT_CONFIG, EXIT_RUNTIME)
        if code in (EXIT_CONFIG, EXIT_RUNTIME):
            prefix = "config error: " if code == EXIT_CONFIG else "runtime failure: "
            assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
        if code == EXIT_CONFIG:
            assert sorted(os.listdir(tmp)) == ["noload.m", "run.cfg"]
        return code, err.getvalue().replace(tmp, "{tmp}")


@seed(28423422612864172547531963415808578612691762664739298711628142767708570055189659266298705870590485395410720306412047)
@settings(max_examples=100, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_FUZZ_BASE)), data=st.data())
def test_fuzzed_configs_end_in_an_exit_code_and_one_line_on_failure(command, data):
    # a subcommand with its base lines and one to four fuzzed keys, some
    # given as their flags, ends in one of the four exit codes; a failure
    # says why in one stderr line, and a config error leaves no output
    # behind. Each flag drawn also runs alone, once as its flag and once as
    # its key, and both end in the same code and the same message after the
    # location. 100 examples take about 2 s
    lines = data.draw(_fuzz_lines(command))
    flag_of = {key: f"--{flag}" for flag, key in cli._FLAG_KEYS.items()
               if command == "run" or flag in ("case", "scale")}
    keyed = [(key, value) for key, value, as_flag in lines if not (as_flag and key in flag_of)]
    flagged = [(key, value) for key, value, as_flag in lines if as_flag and key in flag_of]
    base = _FUZZ_BASE[command]
    _fuzz_main(command, base + "".join(f"{key} = {value}\n" for key, value in keyed),
               [arg for key, value in flagged for arg in (flag_of[key], value)])
    for key, value in flagged:
        code, err = _fuzz_main(command, base, [flag_of[key], value])
        key_code, key_err = _fuzz_main(command, base + f"{key} = {value}\n", [])
        assert code == key_code
        assert err.replace(f"{flag_of[key]}: ", "") == re.sub(r"line \d+: ", "", key_err)


def test_missing_config_file_is_config_error(capsys):
    code = main(["run", "--config", "/nonexistent.cfg"])
    assert code == EXIT_CONFIG


def test_no_case_given_is_config_error(capsys):
    code = main(["run"])
    assert code == EXIT_CONFIG
    assert "case" in capsys.readouterr().err


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("case = case30\nload_scale = 1.0\n")
    code = main(["powerflow", "--config", str(cfg), "--case", "case14"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "1.0600" in out


def test_validate_command_passes(capsys):
    code = main(["validate", "--case", "case14", "--scale", "3.1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    # the oracle linearizes the plant where the loop does, so the loop meets
    # its optimum to rounding, far inside the row's 1e-4 threshold
    (gap,) = [line for line in out.splitlines() if line.startswith("|q_sim - q_oracle| inf norm")]
    assert float(gap.split()[-3]) < 1e-12


def test_validate_runs_without_scipy():
    # a None entry in sys.modules makes any later `import scipy` fail, so
    # this also catches an import hidden inside a function
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from voltctrl.cli import main\n"
        "sys.exit(main(['validate', '--case', 'case14', '--scale', '3.1']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.count("PASS") == 4


_KEY_VALUES = {
    "scenario": "fault", "plant": "nonlinear", "v_lo": "0.9", "v_hi": "1.1", "q_lo": "-0.3",
    "q_hi": "0.3", "k_q": "2", "k_lam": "2", "k_mu": "2", "trip": "4:5",
    "profile": ", ".join(["1.0"] * 24), "out": "/nonexistent/x", "tol": "1e-8",
    "horizon": "1e5", "hour_seconds": "60", "reset_multipliers": "yes",
}
_VALIDATE_KEYS = ("v_lo", "v_hi", "q_lo", "q_hi", "k_q", "k_lam", "k_mu", "tol", "horizon")


@pytest.mark.parametrize(
    "command, key",
    [
        (command, key)
        for command, reads in (
            ("powerflow", ()), ("sensitivity", ()), ("validate", _VALIDATE_KEYS),
        )
        for key in _KEY_VALUES
        if key not in reads
    ],
)
def test_config_keys_a_subcommand_does_not_read_are_config_errors(tmp_path, capsys, command, key):
    # each was once accepted and silently ignored, like the flags that only
    # run reads: validate with plant = nonlinear ran the linear loop and
    # passed, whatever out said
    cfg = tmp_path / "f.cfg"
    cfg.write_text(f"case = case14\nload_scale = 3.1\n{key} = {_KEY_VALUES[key]}\n")
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err == f"config error: line 3: {command} does not read {key!r}\n"
    assert captured.out == ""


def test_validate_reads_its_config_keys(tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(
        "case = case14\nload_scale = 3.1\n"
        + "".join(f"{key} = {_KEY_VALUES[key]}\n" for key in _VALIDATE_KEYS)
    )
    code = main(["validate", "--config", str(cfg)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 4


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--case", "case14", "--plant", "nonlinear"],
        ["powerflow", "--case", "case14", "--out", "x"],
        ["sensitivity", "--case", "case14", "--trip", "4:5"],
    ],
    ids=["validate_plant", "powerflow_out", "sensitivity_trip"],
)
def test_flags_only_run_reads_are_usage_errors_elsewhere(capsys, argv):
    # each was once accepted and silently ignored: validate always runs the
    # linear plant, and only run writes reports or trips a line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["-1", "nan", "inf"])
def test_scale_flag_rejects_negative(capsys, scale):
    # the flag goes through the load_scale key's checks: sign and finiteness
    code = main(["powerflow", "--case", "case14", "--scale", scale])
    assert code == EXIT_CONFIG
    assert "config error: --scale: " in capsys.readouterr().err


def test_runconfig_limits_match_case():
    from voltctrl import load_case

    cfg = RunConfig(case_path="case14", q_hi=0.3)
    lim = cfg.limits_for(load_case("case14"))
    assert lim.v_lo.shape == (9,)
    assert lim.q_hi[0] == 0.3
