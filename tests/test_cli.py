"""End-to-end tests for the command-line interface and report files."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voltctrl import cli
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


def test_summary_reports_solver_counts(static_run):
    # one line with the run's SolverStats: the x3.1 linear run takes 30
    # accepted steps in 45 attempts, one plant call and one phi-product each
    _, out = static_run
    summary = (out / "summary.txt").read_text().splitlines()
    _, data = _read_csv(out / "trajectory.csv")
    line = next(line for line in summary if line.startswith("solver: "))
    accepted = len(data) - 1
    assert line.startswith(f"solver: {accepted} accepted steps, ")
    rejected = int(line.split(", ")[1].split()[0])
    assert f"{accepted + rejected} plant calls, {accepted + rejected} phi-products" in line


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


def test_validate_diverging_base_point_is_runtime_failure(capsys):
    code = main(["validate", "--case", "case14", "--scale", "40"])
    assert code == EXIT_RUNTIME
    assert "runtime failure: power flow did not converge at the base point" in (
        capsys.readouterr().err
    )


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


# gains of 1e300 overflow numpy's products on purpose; those warnings are the
# defect's symptom, expected here and nowhere else
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_gains_are_a_runtime_failure(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = case14\nload_scale = 3.1\nk_q = 1e300\nk_lam = 1e300\nk_mu = 1e300\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME
    assert "runtime failure: step size underflow" in capsys.readouterr().err


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
