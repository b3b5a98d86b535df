"""Re-run the recorded mutants of voltctrl and check that each ends as its row says.

Each row of ``MUTANTS`` is one mutant: a name, the file it edits, the exact
old text (which must occur in that file exactly once), the new text, the
tests it names and its expected outcome. A killed mutant must fail one of
the tests it names; a surviving one passes every test it names, which is
what its row records as a gap. Run it from any directory:

    python3 tools/mutants.py              # every row
    python3 tools/mutants.py NAME ...     # the named rows only
    python3 tools/mutants.py --check      # each old text occurs once, each test exists

A run copies the checkout it sits in, without ``.git``, ``.hypothesis`` and
caches, into a temporary directory, applies each mutant to a fresh copy
and runs ``python -m pytest -x -q -p no:cacheprovider
--hypothesis-profile=no-shrink`` on the row's tests there, under a
timeout. It prints killed, survived or timed out for each mutant (a killed
one with the test that failed) and exits 1 where an outcome differs from
its row; a run that ends in an error, such as tests that cannot be
collected, differs from every row. ``--check`` runs no test: it only
verifies each old text against the checkout's files and that each named
test function is defined in its file. Standard library only; it writes
nothing into the checkout.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# seconds one mutant's pytest run may take; a failing run stops at its first failure
TIMEOUT = 600
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=no-shrink"]
SKIP = {".git", ".hypothesis", "__pycache__", ".pytest_cache"}

SIM, CTRL = "src/voltctrl/simulate.py", "src/voltctrl/controller.py"
SENS, NET = "src/voltctrl/sensitivity.py", "src/voltctrl/netcase.py"
T_SIM, T_CTRL = "tests/test_simulate.py", "tests/test_controller.py"
FEWER = f"{T_SIM}::test_per_family_outputs_on_a_network_with_fewer_controllers_than_load_buses"
CHAINED = f"{T_SIM}::test_chained_windows_on_a_network_with_fewer_controllers_than_load_buses"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str = "killed"


MUTANTS = (
    # the step's event path, its step control and its failed attempts
    Mutant(
        "eval-turns-at-zero-rate", SIM,
        "turn = near & (flow.event_rates(f, on) < 0)",
        "turn = near & (flow.event_rates(f, on) <= 0)",
        (f"{T_SIM}::test_near_zero_rising_events_keep_their_place",),
    ),
    Mutant(
        "near-band-1e-7", SIM,
        "_OVERSHOOT, _NEAR = 1e-12, 1e-9", "_OVERSHOOT, _NEAR = 1e-12, 1e-7",
        (f"{T_SIM}::test_eval_switches_only_rows_whose_event_is_within_1e_9",
         f"{T_SIM}::test_steps_resume_the_size_an_event_cut_back"),
    ),
    Mutant(
        "off-row-overshoot-1e-9", SIM,
        "event = g1 < -_OVERSHOOT", "event = g1 < np.where(on, -_OVERSHOOT, -1e-9)",
        (f"{T_SIM}::test_no_accepted_step_leaves_its_piece_violated",),
    ),
    Mutant(
        "step-exponent-1/2", SIM,
        "0.9 * err ** (-1.0 / 3.0)", "0.9 * err ** (-1.0 / 2.0)",
        (f"{T_SIM}::test_steps_resume_the_size_an_event_cut_back",
         f"{T_SIM}::test_the_step_controller_aims_below_the_tolerance"),
    ),
    Mutant(
        "error-scale-from-y1", SIM,
        "scale = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(y1))",
        "scale = _ATOL + _RTOL * np.abs(y1)",
        (f"{T_SIM}::test_steps_resume_the_size_an_event_cut_back",
         f"{T_SIM}::test_the_error_test_reads_each_entry_against_its_larger_end"),
    ),
    Mutant(
        "safety-factor-0.99", SIM,
        "0.9 * err ** (-1.0 / 3.0)", "0.99 * err ** (-1.0 / 3.0)",
        (f"{T_SIM}::test_steps_resume_the_size_an_event_cut_back",
         f"{T_SIM}::test_the_step_controller_aims_below_the_tolerance"),
    ),
    Mutant(
        "exact-step-growth-4x", SIM,
        "h = h_try * (5.0 if err == 0", "h = h_try * (4.0 if err == 0",
        (f"{T_SIM}::test_an_exact_step_grows_the_next_attempt_fivefold",),
    ),
    Mutant(
        "plant-sensitivity-keeps-piece", CTRL,
        "        self._modal = False\n        self._piece = None\n",
        "        self._modal = False\n",
        (f"{T_CTRL}::test_phi_rebuilds_its_piece_on_a_new_mask_or_plant_sensitivity",
         f"{T_SIM}::test_fixed_step_is_third_order"),
    ),
    Mutant(
        "phi-piece-key-dropped", CTRL,
        "if self._piece is None or self._piece[0] != key:", "if self._piece is None:",
        (f"{T_CTRL}::test_phi_rebuilds_its_piece_on_a_new_mask_or_plant_sensitivity",),
    ),
    Mutant(
        "first-root-sign-test", SIM,
        "if not side * px > 0.0:", "if not side * px >= 0.0:",
        (f"{T_SIM}::test_event_root_is_the_whole_array_root_bit_for_bit",),
    ),
    Mutant(
        "event-test-skips-on-zero", SIM,
        "event = g1 < -_OVERSHOOT", "event = ((g0 > 0) | ~on) & (g1 < -_OVERSHOOT)",
        (f"{T_SIM}::test_an_on_piece_multiplier_leaving_zero_is_landed",),
    ),
    Mutant(
        "row-rates-1d-dot", CTRL,
        "return dy[c + row], f0[c + row] + m_dy[row], (j_mq @ f_q)[row]",
        "return dy[c + row], f0[c + row] + m_dy[row], j_mq[row] @ f_q",
        (f"{T_CTRL}::test_row_rates_are_the_rows_of_the_whole_products",),
    ),
    Mutant(
        "row-rates-1-row-slice", CTRL,
        "return dy[c + row], f0[c + row] + m_dy[row], (j_mq @ f_q)[row]",
        "return dy[c + row], f0[c + row] + m_dy[row], (j_mq[row : row + 1] @ f_q)[0]",
        (f"{T_CTRL}::test_row_rates_are_the_rows_of_the_whole_products",),
    ),
    Mutant(
        "stage-check-deleted", SIM,
        '        if not np.isfinite(u2).all():\n'
        '            raise _NonFiniteStage("the step\'s stage is not finite")\n',
        "",
        (f"{T_SIM}::test_overflowing_gains_end_in_step_size_underflow",),
    ),
    Mutant(
        "divergence-as-non-finite-stage", SIM,
        'raise PlantDivergenceError(f"power flow lost convergence',
        'raise _NonFiniteStage(f"power flow lost convergence',
        (f"{T_SIM}::test_failed_plant_solve_retries_the_step_at_half_size",),
    ),
    # the landing's stage, handed to the retry only
    Mutant(
        "stage-not-passed", SIM,
        "loop.attempt(y, f, on, h_try, stage)", "loop.attempt(y, f, on, h_try)",
        (f"{T_SIM}::test_a_landing_hands_its_last_stage_to_the_retry",),
    ),
    Mutant(
        "stage-cleared-only-on-return", SIM,
        "                continue\n            finally:\n                stage = None\n",
        "                continue\n            stage = None\n",
        (f"{T_SIM}::test_a_landing_retry_that_fails_hands_its_stage_to_no_later_attempt",),
    ),
    # the one linearization
    Mutant(
        "linearized-warm-start-dropped", SENS,
        "sol = solve_power_flow(case, moved, tol=tol, warm_start=warm_start)",
        "sol = solve_power_flow(case, moved, tol=tol)",
        ("tests/test_sensitivity.py::test_linearized_is_the_written_out_recipe",),
    ),
    Mutant(
        "linearized-base-q-zeroed", SENS,
        "base_q=full), sol", "base_q=0.0 * full), sol",
        ("tests/test_sensitivity.py::test_linearized_is_the_written_out_recipe",),
    ),
    Mutant(
        "linearized-tol-ignored", SENS,
        "sol = solve_power_flow(case, moved, tol=tol, warm_start=warm_start)",
        "sol = solve_power_flow(case, moved, warm_start=warm_start)",
        ("tests/test_sensitivity.py::test_linearized_is_the_written_out_recipe",),
    ),
    Mutant(
        "linearized-divergence-not-raised", SENS,
        "    if not sol.converged:\n        raise PlantDivergenceError",
        "    if False:\n        raise PlantDivergenceError",
        ("tests/test_sensitivity.py::test_linearized_at_a_diverging_point_raises",),
    ),
    Mutant(
        "window-start-newton-as-chord", SIM,
        "Counter(newton_iterations=self.last.iterations)",
        "Counter(chord_steps=self.last.iterations)",
        (f"{T_SIM}::test_steps_resume_the_size_an_event_cut_back",),
    ),
    # the controllers' places among the load buses, read by the one gather
    Mutant(
        "plant-dvdq-leading-columns", SIM,
        "self.part.gather(self.inverse[n_a:, n_a:])", "self.inverse[n_a:, n_a : n_a + self.c]",
        ("tests/test_oracle.py::test_nonlinear_loop_settles_on_the_plant_equilibrium", CHAINED),
    ),
    Mutant(
        "gather-leading-entries", NET,
        "a[..., self._positions]", "a[..., : len(self.controlled)]",
        ("tests/test_sensitivity.py::test_partition_controlled_subset", FEWER, CHAINED),
    ),
    # the cuts of a row vector into its families, and of a packed row
    Mutant(
        "limits-families-at-m-m+c", CTRL,
        "return _families(x, len(self.v_lo), len(self.q_lo))",
        "m, c = len(self.v_lo), len(self.q_lo)\n"
        "        return [x[..., :m], x[..., m : m + c], x[..., m + c : 2 * m + c], x[..., 2 * m + c :]]",
        (f"{T_CTRL}::test_the_constraint_rows_are_the_written_out_ones", FEWER),
    ),
    Mutant(
        "shared-families-at-m-m+c", CTRL,
        "return [x[..., :m], x[..., m : 2 * m], x[..., 2 * m : 2 * m + c], x[..., 2 * m + c :]]",
        "return [x[..., :m], x[..., m : m + c], x[..., m + c : 2 * m + c], x[..., 2 * m + c :]]",
        (f"{T_CTRL}::test_the_constraint_rows_are_the_written_out_ones", FEWER),
    ),
    Mutant(
        "split-reads-mu-first", CTRL,
        "return [vec[:n_controlled], *_families(vec[n_controlled:], n_load, n_controlled)]",
        "c, m = n_controlled, n_load\n"
        "    return [vec[:c], vec[3 * c : 3 * c + m], vec[3 * c + m :], vec[c : 2 * c], vec[2 * c : 3 * c]]",
        (FEWER, f"{T_CTRL}::test_pack_unpack_round_trip"),
    ),
    # the window records and the run's outcome read off them
    Mutant(
        "join-no-row-shift", SIM,
        "first=first + w.first)", "first=w.first)",
        (f"{T_SIM}::test_a_daily_run_keeps_one_window_per_hour",),
    ),
    Mutant(
        "join-no-start-shift", SIM,
        "start=start + w.start,", "start=w.start,",
        (f"{T_SIM}::test_a_timed_trip_does_not_wait_for_the_intact_window",
         f"{T_SIM}::test_a_daily_run_keeps_one_window_per_hour"),
    ),
    Mutant(
        "no-timed-trip-rule", SIM,
        "return self.windows[-1].converged if self.t_trip is not None else super().converged",
        "return super().converged",
        (f"{T_SIM}::test_a_timed_trip_does_not_wait_for_the_intact_window",
         f"{T_SIM}::test_fault_with_explicit_trip_time"),
    ),
    Mutant(
        "hourly-v-at-first-rows", SIM,
        "self.trajectory.v[[w.first - 1 for w in self.windows[1:]] + [-1]]",
        "self.trajectory.v[[w.first for w in self.windows]]",
        (f"{T_SIM}::test_a_daily_run_keeps_one_window_per_hour",),
    ),
    Mutant(
        "stats-of-the-last-window", SIM,
        "sum((w.stats for w in self.windows), SolverStats())", "self.windows[-1].stats",
        (f"{T_SIM}::test_solver_stats_repeat_and_sum_over_windows",),
    ),
    # a window's start and the chained start states
    Mutant(
        "loop-built-before-size-checks", SIM,
        "    state0 = initial_state\n",
        "    _ClosedLoop(case, plant_mode, lim, gains, np.zeros(c))\n    state0 = initial_state\n",
        (f"{T_SIM}::test_a_wrong_size_is_refused_before_any_plant_solve",),
    ),
    Mutant(
        "daily-reset-keeps-multipliers", SIM,
        "*map(np.zeros_like, multipliers)", "*multipliers",
        (CHAINED, f"{T_SIM}::test_a_daily_run_keeps_one_window_per_hour"),
    ),
    # known gaps: each survives the tests it names. The 1e-9 event band is the
    # off-row overshoot above, which the random-network searches do not see;
    # a zero discriminant puts all three cuts on one point, so that mutant is
    # equivalent and survives the whole suite
    Mutant(
        "event-band-1e-9", SIM,
        "event = g1 < -_OVERSHOOT", "event = g1 < np.where(on, -_OVERSHOOT, -1e-9)",
        (f"{T_SIM}::test_landings_on_random_networks_are_exact",
         f"{T_SIM}::test_linear_runs_on_random_networks_meet_the_oracle"),
        "survived",
    ),
    Mutant(
        "first-root-zero-discriminant", SIM,
        "if disc >= 0.0 else np.nan", "if disc > 0.0 else np.nan",
        (f"{T_SIM}::test_event_root_is_the_first_zero_of_the_hermite_cubic",
         f"{T_SIM}::test_event_root_is_the_whole_array_root_bit_for_bit"),
        "survived",
    ),
)


def check() -> list[str]:
    """Problems at the checkout: an old text not found exactly once, a named test not defined."""
    problems = []
    defined: dict[str, set[str]] = {}
    for m in MUTANTS:
        path = ROOT / m.path
        count = path.read_text().count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: old text found {count} times in {m.path}")
        if m.expect not in ("killed", "survived"):
            problems.append(f"{m.name}: expected outcome {m.expect!r}")
        for test in m.tests:
            file, _, function = test.partition("::")
            if file not in defined:
                source = ROOT / file
                body = ast.parse(source.read_text()).body if source.is_file() else []
                defined[file] = {n.name for n in body if isinstance(n, ast.FunctionDef)}
            if function not in defined[file]:
                problems.append(f"{m.name}: {test} is not defined")
    return problems


def _copy(dest: Path) -> None:
    def ignore(_, names):
        return {n for n in names if n in SKIP or n.endswith(".egg-info")}

    shutil.copytree(ROOT, dest, ignore=ignore)


def run(m: Mutant, work: Path) -> tuple[str, str]:
    """Apply one mutant to a fresh copy of the checkout and run its tests: (outcome, detail)."""
    tree = work / m.name
    _copy(tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        path = tree / m.path
        text = path.read_text()
        if text.count(m.old) != 1:
            return "not applied", f"old text found {text.count(m.old)} times"
        path.write_text(text.replace(m.old, m.new))
        proc = subprocess.run(
            [sys.executable, *PYTEST, *m.tests], cwd=tree, env=env,
            capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "timed out", f"after {TIMEOUT} s"
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    if proc.returncode == 0:
        return "survived", ""
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return "killed", failed[0]
    return "error", f"pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        problems = check()
        for problem in problems:
            print(problem)
        print(f"{len(MUTANTS)} mutants, {len(problems)} problems")
        return int(bool(problems))
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    differ = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="voltctrl-mutants-") as tmp:
        for m in chosen:
            began = time.perf_counter()
            outcome, detail = run(m, Path(tmp))
            differ += outcome != m.expect
            mark = "ok" if outcome == m.expect else f"DIFFERS (expected {m.expect})"
            took = time.perf_counter() - began
            print(f"{m.name:34} {outcome:9} {took:6.1f} s  {mark}  {detail}".rstrip(), flush=True)
    took = time.perf_counter() - start
    print(f"{len(chosen)} mutants, {differ} differ from their rows, {took:.0f} s")
    return int(bool(differ))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
