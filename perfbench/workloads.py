"""The three benchmark workloads: seeded inputs and the operation each one times.

A workload's ``prepare`` step imports the voltctrl modules it uses, parses
the bundled case, builds the seeded input and solves its uncontrolled base
power flow. Its ``operation`` is the user-facing call being timed, and
``check`` judges one result from outside the program.

Seed 0 is the nominal input. Any other seed applies a small seeded random
change to the loads: each PQ bus of static-nl14 and validate-lin30 gets its
own factor in [1 - BUS_NOISE, 1 + BUS_NOISE], each hour of daily-nl14 its
own factor in [1 - HOUR_NOISE, 1 + HOUR_NOISE]. Some of these inputs make
the program fail or leave a daily hour unsettled (perfbench/README.md,
"Seed noise"); the run counts that, it does not avoid it.

voltctrl functions are looked up through their module at call time, so a
tracer that replaces module-global names sees every call.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

BUS_NOISE = 0.02
HOUR_NOISE = 0.05


def _noise(seed: int, n: int, amplitude: float) -> np.ndarray:
    """Per-entry load factors in [1 - amplitude, 1 + amplitude]; ones on seed 0."""
    if seed == 0:
        return np.ones(n)
    return 1.0 + amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def _per_bus_scaled(vc, case, base_factor: float, seed: int):
    """Scale every PQ-bus load by base_factor times its own seeded factor."""
    if seed == 0:
        return vc.netcase.scale_loads(case, base_factor)
    pq_ids = [b.id for b in case.buses if b.kind is vc.netcase.BusKind.PQ]
    factors = base_factor * _noise(seed, len(pq_ids), BUS_NOISE)
    return vc.netcase.scale_loads(case, {i: float(f) for i, f in zip(pq_ids, factors)})


class _Modules:
    """Attribute access to the imported voltctrl submodules (vc.simulate, ...)."""

    def __init__(self, names: tuple[str, ...]):
        self.voltctrl = importlib.import_module("voltctrl")
        for name in names:
            setattr(self, name, importlib.import_module(f"voltctrl.{name}"))


@dataclass(frozen=True)
class Inputs:
    """One seeded input: the case the program sees plus operation options."""

    vc: _Modules
    case: Any
    options: dict


@dataclass(frozen=True)
class Workload:
    name: str
    case_name: str
    modules: tuple[str, ...]
    build: Callable[..., Inputs]  # (vc, parsed case, seed) -> Inputs
    operation: Callable[[Inputs], Any]
    check: Callable[..., list[str]]  # (reference module, inputs, result) -> failures
    # seconds of one call when the host is in its slow state; a run of
    # --seconds makes round(seconds / call_s) timed calls, so the number of
    # calls depends on the command line only, never on the host's speed
    call_s: float
    # a call running longer is stopped and counted as failed: several times
    # the slowest correct call seen, yet short enough that a run meeting a
    # non-settling input (warm-up plus one call) still ends inside 180 s
    call_limit_s: float = 30.0

    def calls_for(self, seconds: float) -> int:
        """Timed calls in a run of ``seconds``: at least one."""
        return max(1, round(seconds / self.call_s))

    def prepare(self, seed: int) -> Inputs:
        """Imports, case parse, the seeded input and its base power flow."""
        vc = _Modules(self.modules)
        inp = self.build(vc, vc.voltctrl.load_case(self.case_name), seed)
        pf = vc.powerflow
        base = pf.solve_power_flow(inp.case, pf.nominal_injections(inp.case), max_iter=30)
        if not base.converged:
            raise RuntimeError(f"{self.name}: uncontrolled base power flow did not converge")
        return inp


# -- static-nl14: run_static, case14, loads x3.1, nonlinear plant -------------

def _build_static_nl14(vc, parsed, seed):
    return Inputs(vc, _per_bus_scaled(vc, parsed, 3.1, seed), {})


def _op_static_nl14(inp: Inputs):
    sim = inp.vc.simulate
    return sim.run_static(inp.case, plant_mode=sim.PlantMode.NONLINEAR)


def _check_static_nl14(reference, inp: Inputs, res) -> list[str]:
    return checks.check_static(reference, inp.case, res)


# -- validate-lin30: the steps of `voltctrl validate`, case30, loads x0.25 -----

def _build_validate_lin30(vc, parsed, seed):
    return Inputs(vc, _per_bus_scaled(vc, parsed, 0.25, seed), {})


@dataclass(frozen=True)
class ValidateResult:
    qp: Any
    sim: Any
    limits: Any


def _op_validate_lin30(inp: Inputs):
    """``voltctrl validate`` with default settings, minus printing."""
    vc, case = inp.vc, inp.case
    part = vc.sensitivity.partition_buses(case)
    limits = vc.controller.Limits.box(part.n_load, part.n_controlled)
    sol = vc.powerflow.solve_power_flow(case, vc.powerflow.nominal_injections(case), max_iter=30)
    if not sol.converged:
        raise RuntimeError("power flow did not converge at the base point")
    sens = vc.sensitivity.rebased(
        vc.sensitivity.voltage_sensitivity(vc.netcase.build_admittance(case), part),
        base_v=sol.v[part.pq],
        base_q=np.zeros(part.n_load),
    )
    qp = vc.oracle.solve_centralized(sens, limits)
    sim = vc.simulate.run_static(
        case, limits, vc.controller.Gains(), tol=1e-6,
        plant_mode=vc.simulate.PlantMode.LINEAR, horizon=2e5,
    )
    return ValidateResult(qp=qp, sim=sim, limits=limits)


def _check_validate_lin30(reference, inp: Inputs, res) -> list[str]:
    return checks.check_validate(res.sim, res.qp, res.limits)


# -- daily-nl14: run_daily, case14, loads x2.5, default profile ----------------

def _build_daily_nl14(vc, parsed, seed):
    case = vc.netcase.scale_loads(parsed, 2.5)
    profile = vc.simulate.default_daily_profile() * _noise(seed, 24, HOUR_NOISE)
    return Inputs(vc, case, {"profile": profile})


def _op_daily_nl14(inp: Inputs):
    return inp.vc.simulate.run_daily(inp.case, profile=inp.options["profile"])


def _check_daily_nl14(reference, inp: Inputs, res) -> list[str]:
    return checks.check_daily(res)


_SIM = ("netcase", "powerflow", "sensitivity", "controller", "simulate")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("static-nl14", "case14", _SIM, _build_static_nl14, _op_static_nl14,
                 _check_static_nl14, call_s=6.0),
        Workload("validate-lin30", "case30", _SIM + ("oracle",), _build_validate_lin30,
                 _op_validate_lin30, _check_validate_lin30, call_s=4.0),
        Workload("daily-nl14", "case14", _SIM, _build_daily_nl14, _op_daily_nl14,
                 _check_daily_nl14, call_s=8.0, call_limit_s=60.0),
    )
}


def simulation(result):
    """The closed-loop SimulationResult inside a workload's result."""
    return result.sim if isinstance(result, ValidateResult) else result
