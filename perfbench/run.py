"""voltctrl benchmark: time to a checked equilibrium on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload static-nl14 --seed 0 --seconds 40 --trace 0

Workloads: static-nl14, validate-lin30, daily-nl14 (see perfbench/README.md).

With ``--trace 0`` the run measures the end-to-end metrics with tracing off:
``setup_s`` (median over fresh interpreters of imports, case parse, seeded
input and base power flow), ``scenario_s`` (mean seconds of one timed
call, after one untimed warm-up call) and ``peak_rss_mb``. Both times are
scaled to the reference host's speed by a calibration kernel timed between
the calls (``calibration_s``), because a shared host's speed can drift by
up to 2x within minutes. ``--seconds`` sets the number of timed calls through the
workload's typical call time, so the count never depends on the host. With
``--trace 1`` it wraps the public functions of each voltctrl layer, times
traced and untraced calls, and reports the per-layer counts and self times.
Every result is checked from outside the program. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts calls that raised or returned a result failing its check;
``correct`` is false when a returned result fails its check.

BLAS is pinned to one thread in this process and in every process it starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
MIN_TRACED = 2  # traced calls per traced run; their counts must agree
CAL_ROUNDS = 60_000  # rounds of the calibration kernel, about 0.25 s
CAL_REF_S = 0.25  # kernel seconds on the reference host (2 vCPU Xeon, OpenBLAS, 1 thread)
MAX_CALL_S = 75.0  # host seconds; a failing input's warm-up and call still end inside 180 s


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _source_tree_present() -> bool:
    return (ROOT / "src" / "voltctrl" / "__init__.py").is_file() and (
        ROOT / "tests" / "_reference.py"
    ).is_file()


def _import_path() -> None:
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def calibration_s() -> float:
    """Seconds of a fixed kernel of small matrix products and interpreter work.

    The kernel does the kind of work voltctrl's inner loop does and none of
    voltctrl's code, so its time follows the host's speed and nothing else.
    """
    import numpy as np

    a = np.eye(14) * 2.0
    acc = 0.0
    start = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        acc += float((a @ a)[0, 0])
        _ = [j * j for j in range(10)]
    return time.perf_counter() - start


def scaled(seconds: float, cal: float) -> float:
    """Host seconds scaled to the reference host, given the kernel's time ``cal``."""
    return seconds * CAL_REF_S / cal


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Seconds for imports, case parse, seeded input and base power flow,
    then the calibration kernel's seconds in the same interpreter."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].prepare(seed)
    return time.perf_counter() - start, calibration_s()


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Run the setup probe in fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    setup, cal = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        s, c = proc.stdout.strip().splitlines()[-1].split()
        setup.append(float(s))
        cal.append(float(c))
    return setup, cal


def fingerprint(result) -> str:
    """Digest of every number a result carries, to compare runs bit for bit."""
    import numpy as np
    import workloads

    sim = workloads.simulation(result)
    h = hashlib.sha256()
    arrays = [sim.final_q, sim.final_v, sim.trajectory.t, sim.trajectory.v, sim.trajectory.cost]
    arrays += [s.packed() for s in sim.trajectory.states]
    if sim is not result:
        arrays.append(result.qp.q_star)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


class CallTimeout(Exception):
    pass


def _stop_call(signum, frame):
    raise CallTimeout("call ran past the workload's call limit")


def call_limit(w, cal: float) -> float:
    """Host seconds a call may run: the workload's limit at the host speed a
    kernel time ``cal`` shows, so that limit reads the same in scaled seconds."""
    return min(w.call_limit_s * cal / CAL_REF_S, MAX_CALL_S)


def timed_call(w, inp, limit_s: float):
    """(seconds, result or None, error text or None) of one call of w."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        result = w.operation(inp)
    except Exception:  # a failed call is counted, not fatal
        return time.perf_counter() - start, None, traceback.format_exc(limit=3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, result, None


class Checker:
    """Judges calls: a call fails if it raised or its result failed its check.

    ``wrong`` counts the results that failed their check; a raised error
    leaves no result to be wrong, so it counts as failed only.
    """

    def __init__(self, workload):
        import checks

        self.workload = workload
        self.reference = checks.load_reference(ROOT)
        self.failures: list[str] = []
        self.wrong = 0

    def judge(self, label: str, inp, result, error) -> bool:
        if error:
            problems = [error.strip().splitlines()[-1]]
        else:
            problems = self.workload.check(self.reference, inp, result)
            self.wrong += bool(problems)
        for p in problems:
            self.failures.append(f"{label}: {p}")
        return not problems


def run_untraced(w, inp, seconds: float, seed: int) -> dict:
    setup, setup_cal = measure_setup(w.name, seed)
    cal = [calibration_s()]
    warm = timed_call(w, inp, call_limit(w, cal[-1]))
    # read before the checks load their reference code and before timed
    # results pile up for checking, so the figure is the workload's own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker = Checker(w)
    # the program is deterministic: when the warm-up fails, every call on
    # this input fails the same way, so the run makes one timed call and stops
    n_calls = w.calls_for(seconds) if checker.judge("warm-up", inp, warm[1], warm[2]) else 1
    calls = []  # (seconds, result, error)
    for _ in range(n_calls):
        calls.append(timed_call(w, inp, call_limit(w, cal[-1])))
        cal.append(calibration_s())
    ok = [checker.judge(f"call {k}", inp, res, err) for k, (_, res, err) in enumerate(calls)]
    good_times = [dt for (dt, _, _), good in zip(calls, ok) if good]
    times = good_times or [dt for dt, _, _ in calls]
    # the host's speed changes from call to call; the mean call time over the
    # mean kernel time follows it more closely than a ratio of medians
    metrics = {
        "scenario_s": scaled(statistics.fmean(times), statistics.fmean(cal)),
        "setup_s": statistics.median(map(scaled, setup, setup_cal)),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"scenario_s: mean of {len(times)} timed calls after 1 untimed warm-up, "
        f"{statistics.fmean(times):.4f} host s, scaled by {CAL_REF_S} s / mean kernel "
        f"{statistics.fmean(cal):.4f} s; calls (s): {', '.join(f'{dt:.3f}' for dt, _, _ in calls)}",
        f"setup_s: median of {len(setup)} fresh interpreters, each scaled by its own kernel "
        "time; setup (s): " + ", ".join(f"{s:.3f}" for s in setup)
        + "; kernel (s): " + ", ".join(f"{c:.3f}" for c in setup_cal),
    ]
    return {
        "metrics": metrics,
        "attempted": len(calls),
        "failed": ok.count(False),
        "correct": checker.wrong == 0,
        "failures": checker.failures,
        "notes": notes,
    }


def per_layer_metrics(names, counts: dict, self_s: dict, q_err: float, overhead_s: float) -> dict:
    """The named per-layer metrics from one trace's counts and self times."""

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    derived = {
        "powerflow.newton_iters_per_solve": ratio("powerflow.newton_iters", "powerflow.solve_power_flow.calls"),
        "simulate.plant_calls_per_step": ratio("simulate.plant_calls", "simulate.accepted_steps"),
        "simulate.rhs_per_step": ratio("controller.dynamics_rhs.calls", "simulate.accepted_steps"),
        "oracle.q_err": q_err,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out


def run_traced(w, inp, seconds: float, seed: int, names) -> dict:
    import checks
    import workloads
    from tracer import Tracer

    checker = Checker(w)
    limit_s = call_limit(w, calibration_s())
    reference_run = timed_call(w, inp, limit_s)  # untimed warm-up, bitwise reference
    clean = checker.judge("warm-up", inp, reference_run[1], reference_run[2])
    # pairs of one untraced and one traced call; one traced call alone when
    # the warm-up failed, since every call on this input fails the same way
    pairs = max(MIN_TRACED, round(w.calls_for(seconds) / 2)) if clean else 0
    plain, traced = [], []  # (seconds, result, error), (seconds, result, error, tracer)
    for _ in range(max(pairs, 1)):
        if clean:
            plain.append(timed_call(w, inp, limit_s))
        tracer = Tracer()
        with tracer.installed():
            traced.append((*timed_call(w, inp, limit_s), tracer))

    failed = 0
    for k, (_, res, err) in enumerate(plain):
        failed += not checker.judge(f"untraced call {k}", inp, res, err)
    for k, (_, res, err, _) in enumerate(traced):
        failed += not checker.judge(f"traced call {k}", inp, res, err)
    correct = checker.wrong == 0

    if clean and failed == 0:
        ref_print = fingerprint(reference_run[1])
        for k, (_, res, _, _) in enumerate(traced):
            if fingerprint(res) != ref_print:
                checker.failures.append(f"traced call {k}: result differs from the untraced run")
                correct = False
    counts = [t.counts() for *_, t in traced]
    if any(c != counts[0] for c in counts[1:]):
        checker.failures.append("per-layer counts differ between traced calls")
        correct = False

    self_s: dict[str, list[float]] = {}
    for *_, t in traced:
        for name, secs in t.calls_and_self()[1].items():
            self_s.setdefault(name, []).append(secs)
    last = traced[-1][1]
    q_err = (checks.oracle_gap(last.sim, last.qp)
             if isinstance(last, workloads.ValidateResult) else 0.0)
    traced_s = statistics.median(dt for dt, *_ in traced)
    plain_s = statistics.median(dt for dt, *_ in plain) if plain else reference_run[0]
    metrics = per_layer_metrics(
        names, counts[-1], {k: statistics.median(v) for k, v in self_s.items()}, q_err, traced_s - plain_s
    )

    tracer = traced[-1][3]
    spans_path = HERE / "out" / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    notes = [
        f"traced {len(traced)} calls (median {traced_s:.3f} s) and untraced {len(plain)} "
        f"(median {plain_s:.3f} s)",
        f"{len(tracer.spans)} spans of the last traced call written to "
        f"{spans_path.relative_to(ROOT)}",
        "all counts: " + json.dumps(dict(sorted(counts[-1].items()))),
    ]
    return {
        "metrics": metrics,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "correct": correct,
        "failures": checker.failures,
        "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not _source_tree_present():
        print(f"voltctrl sources not found under {ROOT} (need src/voltctrl and "
              "tests/_reference.py); run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _import_path()

    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed)))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _stop_call)
    w = workloads.WORKLOADS[args.workload]
    inp = w.prepare(args.seed)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        out = run_traced(w, inp, args.seconds, args.seed, list(units))
    else:
        out = run_untraced(w, inp, args.seconds, args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads: " + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS))
    for note in out["notes"]:
        print(note)
    for name, value in out["metrics"].items():
        print(f"{name:<42} {value:>16.6g} {units[name]}")
    print(f"{'fail_frac':<42} {out['failed'] / out['attempted']:>16.6g} "
          f"({out['failed']} of {out['attempted']} calls)")
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": out["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
