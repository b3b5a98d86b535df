"""Print one ``name sha256`` line per fixed run, to show that a change keeps results bit for bit.

Run it from any directory as ``python3 tools/digests.py``; it imports
voltctrl from ``src/`` and the seeded inputs from ``perfbench/workloads.py``
of the checkout it sits in, and writes nothing there. Two checkouts print
identical output exactly when each of these 42 results is identical:

- closed-loop runs: static-nl14, validate-lin30 and daily-nl14 seeds 0-3;
  case14 x3.1 ``run_fault`` on both plants with the trip time unset and at
  50 s; case14 x2.5 ``run_daily(reset_multipliers=True)`` on both plants;
  and case14 x2.8 with controllers at buses 9, 10 and 13 (M = 9, C = 3) on
  both plants;
- QP answers: validate-lin30 seeds 0-3 and ``solve_at`` on the M != C case;
- the stdout of ``voltctrl validate`` on case14 x3.1 and case30 x0.25;
- the three report files of ``voltctrl run`` on case14 x3.1 linear (the run
  criterion C10 repeats), the case14 x3.1 fault run and the case14 daily
  run, each on both plants.

A run's digest reads only public names, so it runs on any version that has
them: ``t``, ``y`` and ``v`` of the trajectory, ``final_q``, ``final_v``,
``converged``, ``final_residual``, the ``ViolationSummary`` and the
``SolverStats``, plus a fault run's costs and ``pre_q`` and a daily run's
hourly arrays. Compare two checkouts with
``diff <(python3 A/tools/digests.py) <(python3 B/tools/digests.py)``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no bytecode in src/ or perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import workloads
from voltctrl import load_case
from voltctrl.cli import main
from voltctrl.controller import Limits
from voltctrl.netcase import scale_loads
from voltctrl.oracle import solve_at
from voltctrl.simulate import PlantMode, run_daily, run_fault, run_static

SEEDS = range(4)
PLANTS = (("nl", PlantMode.NONLINEAR), ("lin", PlantMode.LINEAR))


def _digest(*values) -> str:
    """sha256 over each value: an array's dtype, shape and bytes, anything else's repr."""
    h = hashlib.sha256()
    for x in values:
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())
    return h.hexdigest()


def _run(res) -> str:
    """A run's digest: its trajectory and outcome, and a fault or daily run's own names."""
    traj = res.trajectory
    own = ("pre_cost", "post_cost", "cost_ratio", "pre_q",
           "hourly_final_q", "hourly_final_v", "uncontrolled_v")
    extra = [getattr(res, name) for name in own if hasattr(res, name)]
    return _digest(
        traj.t, traj.y, traj.v, res.final_q, res.final_v, res.converged, res.final_residual,
        dataclasses.astuple(res.violations), dataclasses.astuple(res.stats), *extra,
    )


def _qp(qp) -> str:
    active = {k: (v, [type(i).__name__ for i in v]) for k, v in qp.active_sets.items()}
    return _digest(qp.q_star, qp.lam_hi, qp.lam_lo, qp.mu_hi, qp.mu_lo, active,
                   qp.objective_value, qp.kkt_residual)


def _cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def digests():
    """Yield (name, sha256) for each of the 42 results, in a fixed order."""
    for name in ("static-nl14", "validate-lin30", "daily-nl14"):
        work = workloads.WORKLOADS[name]
        for seed in SEEDS:
            result = work.operation(work.prepare(seed))
            yield f"{name}/seed{seed}", _run(workloads.simulation(result))
            if name == "validate-lin30":
                yield f"{name}/seed{seed}/qp", _qp(result.qp)

    case14 = load_case("case14")
    heavy = scale_loads(case14, 3.1)
    for plant, mode in PLANTS:
        for t_trip in (None, 50.0):
            res = run_fault(heavy, plant_mode=mode, t_trip=t_trip)
            yield f"fault-x3.1-{plant}-trip@{t_trip}", _run(res)
    for plant, mode in PLANTS:
        res = run_daily(scale_loads(case14, 2.5), plant_mode=mode, reset_multipliers=True)
        yield f"daily-x2.5-reset-{plant}", _run(res)
    few = scale_loads(case14, 2.8).with_controllers([9, 10, 13])
    lim = Limits.box(9, 3)
    for plant, mode in PLANTS:
        yield f"m9c3-{plant}", _run(run_static(few, lim, plant_mode=mode))
    yield "m9c3/qp", _qp(solve_at(few, lim)[0])

    for case, scale in (("case14", "3.1"), ("case30", "0.25")):
        code, text = _cli(["validate", "--case", case, "--scale", scale])
        yield f"validate-{case}-x{scale}", _digest(code, text)

    runs = {"c10": ["--case", "case14", "--scale", "3.1", "--plant", "linear"]}
    for plant, mode in PLANTS:
        fault = ["--scenario", "fault", "--case", "case14", "--scale", "3.1", "--trip", "4:5"]
        runs[f"fault-{plant}"] = fault + ["--plant", mode.value]
        runs[f"daily-{plant}"] = ["--scenario", "daily", "--case", "case14", "--plant", mode.value]
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in runs.items():
            out = Path(tmp) / name
            code, _ = _cli(["run", *args, "--out", str(out)])
            for report in ("trajectory.csv", "voltages_before_after.txt", "summary.txt"):
                yield f"report-{name}/{report}", _digest(code, (out / report).read_bytes())


if __name__ == "__main__":
    for name, sha in digests():
        print(name, sha, flush=True)
