"""What the benchmark's tracer and workloads need from the program.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table by
looking them up on the voltctrl modules, and counts plant calls only while
``simulate.integrate`` is running. ``perfbench/workloads.py`` calls the
public API directly (validate-lin30 builds the sensitivity from
``build_admittance``). A renamed function, a changed return type, or a
scenario that calls the engine without going through the module global,
would otherwise break the benchmark only when it runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from voltctrl import scale_loads, simulate
from voltctrl.controller import Limits

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name: str):
    """Import perfbench/<name>.py by path without writing bytecode next to it.

    perfbench's modules import one another by bare name (``import checks``),
    so its directory is on ``sys.path`` while one loads. The module is
    registered in ``sys.modules``, which its dataclasses need, and stays
    there for the rest of the session, as what it imports does.
    """
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        sys.dont_write_bytecode = saved
    return module


def _load_tracer():
    return _load_perfbench("tracer")


def test_traced_functions_resolve():
    for mod_name, fn_name, _ in _load_tracer().TRACED:
        module = importlib.import_module(f"voltctrl.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"voltctrl.{mod_name}.{fn_name}"


def test_the_engine_takes_the_benchmarked_entry_points_parameters():
    # the benchmark times run_static, a one-line call of the engine; a
    # parameter on one that the other lacks would let the two drift apart
    assert inspect.signature(simulate.integrate) == inspect.signature(simulate.run_static)


def test_scenarios_reach_the_traced_engine(toy2, case14):
    tracer = _load_tracer().Tracer()
    limits = Limits.box(1, 1, q_lo=-0.5, q_hi=0.5)
    linear = simulate.PlantMode.LINEAR
    with tracer.installed():
        # looked up on the module, as the benchmark's workloads do
        simulate.run_static(toy2, limits=limits, plant_mode=linear)
        simulate.run_daily(toy2, limits, profile=np.ones(24), plant_mode=linear)
        simulate.run_fault(case14, plant_mode=linear)
    counts = tracer.counts()
    assert counts["simulate.run_static.calls"] == 27
    assert counts["simulate.integrate.calls"] == 27
    assert counts["simulate.run_daily.calls"] == 1
    assert counts.get("simulate.plant_calls", 0) > 0


def test_nonlinear_plant_calls_are_counted(toy2):
    # the engine's evaluations no longer pass through a traced controller
    # function, so plant calls are the benchmark's per-step evaluation count
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        simulate.run_static(toy2, limits=Limits.box(1, 1, q_lo=-0.5, q_hi=0.5))
    counts = tracer.counts()
    assert counts.get("sensitivity.predict_voltage.calls", 0) == 0
    assert counts["simulate.plant_calls"] == counts["powerflow.solve_power_flow.calls"]
    assert counts["simulate.plant_calls"] > counts["simulate.samples"] > 1


@pytest.mark.parametrize("mode", list(simulate.PlantMode), ids=lambda mode: mode.value)
def test_solver_stats_count_the_plant_calls_the_tracer_sees(case14, mode):
    # the run's own count against one taken from outside the program: the
    # tracer also sees each window's relinearization solve, whose voltage
    # the window's start reads and the run does not count (240 against 241
    # and 16 against 17 on the static run, 80 against 104 and 29 against 53
    # over the 24 windows of a flat daily run)
    flat = np.ones(24)
    for run, windows in (
        (lambda: simulate.run_static(scale_loads(case14, 3.1), plant_mode=mode), 1),
        (lambda: simulate.run_daily(scale_loads(case14, 2.5), profile=flat, plant_mode=mode), 24),
    ):
        tracer = _load_tracer().Tracer()
        with tracer.installed():
            res = run()
        assert res.stats.plant_calls == tracer.counts()["simulate.plant_calls"] - windows > 0


@pytest.mark.parametrize(
    "name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_workload_chain_passes_its_check(name):
    # the steps the benchmark times for each declared workload, judged by its
    # own check
    workloads = _load_perfbench("workloads")
    reference = sys.modules["checks"].load_reference(ROOT)
    workload = workloads.WORKLOADS[name]
    inp = workload.prepare(0)
    result = workload.operation(inp)
    assert workload.check(reference, inp, result) == []
    assert workloads.simulation(result).converged


@pytest.mark.parametrize("name", ["static-nl14", "validate-lin30", "daily-nl14"])
def test_fingerprints_of_equal_runs_are_equal(monkeypatch, name):
    # ``--trace 1`` compares traced and untraced calls by ``fingerprint``, a
    # digest of every number a result carries, its trajectory's costs and
    # states among them; it looks the workloads up by their bare name
    workloads = _load_perfbench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    fingerprint = _load_perfbench("run").fingerprint
    workload = workloads.WORKLOADS[name]
    inp = workload.prepare(0)
    first, second = (workload.operation(inp) for _ in range(2))
    assert first is not second
    assert fingerprint(first) == fingerprint(second)
    assert len(fingerprint(first)) == 64
