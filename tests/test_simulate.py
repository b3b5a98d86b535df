"""Closed-loop behavior: equilibria, faults, integrator quality, daily runs."""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.interpolate
import scipy.linalg
import scipy.optimize

from _reference import written_out_jacobian, written_out_rates
from voltctrl import simulate
from voltctrl.controller import (
    ControllerState,
    Gains,
    Limits,
    PackedFlow,
    equilibrium_residual,
    objective,
)
from voltctrl.errors import (
    CaseDataError,
    ConfigError,
    PlantDivergenceError,
    StepSizeUnderflowError,
)
from voltctrl.netcase import BusKind, build_admittance, scale_loads, trip_branch
from voltctrl.oracle import solve_centralized
from voltctrl.powerflow import nominal_injections, solve_power_flow
from voltctrl.sensitivity import partition_buses, rebased, voltage_sensitivity
from voltctrl.simulate import (
    PlantMode,
    Trajectory,
    SimulationResult,
    ViolationSummary,
    _ClosedLoop,
    _join,
    calibrate_load_scale,
    default_daily_profile,
    integrate,
    run_daily,
    run_fault,
    run_static,
)

TOY_LIMITS_KW = dict(q_lo=-0.5, q_hi=0.5)


def _oracle_for(case):
    """Centralized solution at the uncontrolled operating point."""
    sol = solve_power_flow(case, nominal_injections(case), max_iter=30)
    assert sol.converged
    part = partition_buses(case)
    sens = rebased(
        voltage_sensitivity(build_admittance(case), part),
        base_v=sol.v[part.pq],
        base_q=np.zeros(part.n_load),
    )
    lim = Limits.box(part.n_load, part.n_controlled)
    return solve_centralized(sens, lim), sens, lim, sol


@pytest.fixture(scope="module")
def toy_limits():
    return Limits.box(1, 1, **TOY_LIMITS_KW)


@pytest.fixture(scope="module")
def toy_lin(toy2, toy_limits):
    return run_static(toy2, limits=toy_limits, plant_mode=PlantMode.LINEAR, tol=1e-7)


@pytest.fixture(scope="module")
def toy_nl(toy2, toy_limits):
    return run_static(toy2, limits=toy_limits, plant_mode=PlantMode.NONLINEAR, tol=1e-7)


@pytest.fixture(scope="module")
def heavy14(case14):
    return scale_loads(case14, 3.1)


@pytest.fixture(scope="module")
def heavy_lin(heavy14):
    return run_static(heavy14, plant_mode=PlantMode.LINEAR, tol=1e-7)


@pytest.fixture(scope="module")
def heavy_nl(heavy14):
    return run_static(heavy14, plant_mode=PlantMode.NONLINEAR)


@pytest.fixture(scope="module")
def heavy_oracle(heavy14):
    return _oracle_for(heavy14)


@pytest.fixture(scope="module")
def light30(case30):
    return scale_loads(case30, 0.25)


@pytest.fixture(scope="module")
def light30_lin(light30):
    return run_static(light30, plant_mode=PlantMode.LINEAR, tol=1e-7)


@pytest.fixture(scope="module")
def fault_nl(heavy14):
    return run_fault(heavy14, trip=(4, 5), plant_mode=PlantMode.NONLINEAR)


@pytest.fixture(scope="module")
def daily14(case14):
    return run_daily(scale_loads(case14, 2.5), plant_mode=PlantMode.NONLINEAR)


@pytest.fixture(scope="module")
def daily30(case30):
    profile = np.array([0.25] * 8 + [2.0] * 16)
    return run_daily(case30, profile=profile, plant_mode=PlantMode.NONLINEAR)


def test_toy_linear_matches_hand_kkt(toy_lin):
    assert toy_lin.converged
    assert toy_lin.final_q[0] == pytest.approx(0.3, abs=1e-4)
    assert toy_lin.trajectory.states[-1].lam_lo[0] == pytest.approx(6.0, abs=1e-4)
    assert toy_lin.final_residual < 1e-7


def test_toy_nonlinear_drives_true_voltage_to_floor(toy_nl):
    # exact plant equilibrium: 10 v (v - 1) = q - 0.736 at v = 0.95
    assert toy_nl.converged
    assert toy_nl.final_v[1] == pytest.approx(0.95, abs=1e-5)
    assert toy_nl.final_q[0] == pytest.approx(0.736 - 0.475, abs=1e-3)
    lam = toy_nl.trajectory.states[-1].lam_lo[0]
    assert lam == pytest.approx(2 * toy_nl.final_q[0] / 0.1, abs=1e-2)


def test_toy_residual_decays_monotonically_after_transient(toy2, toy_limits, toy_lin):
    sol = solve_power_flow(toy2, nominal_injections(toy2))
    part = partition_buses(toy2)
    sens = rebased(
        voltage_sensitivity(build_admittance(toy2), part),
        base_v=sol.v[part.pq],
        base_q=np.zeros(1),
    )
    resid = np.array(
        [
            equilibrium_residual(s, v, sens, toy_limits)
            for s, v in zip(toy_lin.trajectory.states, toy_lin.trajectory.v)
        ]
    )
    tail = resid[len(resid) // 4 :]
    assert np.all(np.diff(tail) <= 1e-12)


def test_feasible_start_stays_at_zero(case14):
    case = scale_loads(case14, 1.6)
    sol = solve_power_flow(case, nominal_injections(case))
    part = partition_buses(case)
    v = sol.v[part.pq]
    assert np.all(v > 0.95) and np.all(v < 1.05)
    res = run_static(case, plant_mode=PlantMode.NONLINEAR)
    assert res.converged
    assert len(res.trajectory) == 1
    assert np.max(np.abs(res.final_q)) == 0.0
    assert res.trajectory.cost[-1] == 0.0


def test_stock_case_needs_only_small_correction(case14):
    res = run_static(case14, plant_mode=PlantMode.NONLINEAR)
    assert res.converged
    assert np.max(np.abs(res.final_q)) < 0.1
    assert res.trajectory.cost[-1] < 0.02
    v = res.trajectory.v[-1]
    assert np.all(v > 0.95 - 1e-5) and np.all(v < 1.05 + 1e-5)


def test_heavy_linear_matches_oracle(heavy_lin, heavy_oracle):
    qp, sens, lim, _ = heavy_oracle
    assert heavy_lin.converged
    assert np.max(np.abs(heavy_lin.final_q - qp.q_star)) < 1e-4
    st = heavy_lin.trajectory.states[-1]
    assert np.max(np.abs(st.lam_lo - qp.lam_lo)) < 1e-3
    assert np.max(np.abs(st.lam_hi - qp.lam_hi)) < 1e-3
    assert np.max(np.abs(st.mu_hi - qp.mu_hi)) < 1e-3
    assert np.max(np.abs(st.mu_lo - qp.mu_lo)) < 1e-3
    v = heavy_lin.trajectory.v[-1]
    slack = np.concatenate(
        [lim.v_hi - v, v - lim.v_lo, lim.q_hi - st.q, st.q - lim.q_lo]
    )
    mults = np.concatenate([st.lam_hi, st.lam_lo, st.mu_hi, st.mu_lo])
    assert np.max(np.abs(mults * slack)) < 1e-4


def test_heavy_nonlinear_voltages_within_band(heavy14, heavy_nl, case14):
    assert heavy_nl.converged
    part = partition_buses(heavy14)
    v = heavy_nl.final_v[part.pq]
    assert np.all(v >= 0.95 - 5e-3) and np.all(v <= 1.05 + 5e-3)
    assert np.max(np.abs(heavy_nl.final_q)) <= 0.2 + 1e-6
    ids = [case14.buses[i].id for i in part.pq]
    v4, v14 = v[ids.index(4)], v[ids.index(14)]
    assert v4 == pytest.approx(0.95, abs=1e-3)
    assert v14 == pytest.approx(0.95, abs=1e-3)


def test_plant_modes_agree_within_linearization_bound(heavy_lin, heavy_nl, toy_lin, toy_nl):
    gap14 = np.max(np.abs(heavy_lin.final_q - heavy_nl.final_q))
    gap_toy = np.max(np.abs(toy_lin.final_q - toy_nl.final_q))
    assert gap14 < 0.1, f"linear/nonlinear gap {gap14:.4f} exceeds 0.1"
    assert gap_toy < 0.1, f"linear/nonlinear gap {gap_toy:.4f} exceeds 0.1"


def test_light30_consumes_reactive_and_restores_band(light30, light30_lin):
    qp, sens, lim, bare = _oracle_for(light30)
    part = partition_buses(light30)
    assert np.max(bare.v[part.pq]) > 1.05
    assert light30_lin.converged
    assert np.max(np.abs(light30_lin.final_q - qp.q_star)) < 1e-4
    assert np.all(light30_lin.final_q < 1e-9)
    assert np.min(light30_lin.final_q) < -0.01
    v = light30_lin.trajectory.v[-1]
    assert np.all(v <= 1.05 + 5e-3)


def test_fault_raises_cost_and_bus4_injection(fault_nl):
    assert fault_nl.converged
    assert fault_nl.post_cost > fault_nl.pre_cost
    assert fault_nl.cost_ratio == pytest.approx(fault_nl.post_cost / fault_nl.pre_cost)
    # controlled position 0 is bus 4 on the 14-bus case
    assert fault_nl.final_q[0] > fault_nl.pre_q[0]
    assert fault_nl.pre_cost == pytest.approx(objective(fault_nl.pre_q))


def test_fault_voltages_reenter_band(fault_nl, heavy14):
    part = partition_buses(heavy14)
    v = fault_nl.final_v[part.pq]
    assert np.all(v >= 0.95 - 5e-3) and np.all(v <= 1.05 + 5e-3)


def test_fault_with_explicit_trip_time(heavy14):
    res = run_fault(
        heavy14, trip=(4, 5), t_trip=50.0, plant_mode=PlantMode.LINEAR, tol=1e-6
    )
    t = res.trajectory.t
    assert t[0] == 0.0 and t[-1] > 50.0
    pre_idx = int(np.max(np.nonzero(t <= 50.0)[0]))
    assert res.pre_cost == pytest.approx(res.trajectory.cost[pre_idx])
    assert res.converged
    assert res.post_cost > res.pre_cost


def test_far_trip_barely_moves_optimal_cost(light30):
    qp_base, _, _, _ = _oracle_for(light30)
    qp_trip, _, _, _ = _oracle_for(trip_branch(light30, 29, 30))
    rel = abs(qp_trip.objective_value - qp_base.objective_value) / qp_base.objective_value
    assert rel < 0.05


def test_load_step_reaches_new_optimum(case14, heavy_oracle):
    # one light hour, then the heavy load carried over from its state
    qp, _, _, _ = heavy_oracle
    res = run_daily(
        case14, profile=[1.6] + [3.1] * 23, plant_mode=PlantMode.LINEAR, hour_seconds=2e5
    )
    assert res.converged
    assert np.max(np.abs(res.hourly_final_q[1] - qp.q_star)) < 1e-4


def test_timed_fault_runs_are_bit_identical(heavy14):
    a = run_fault(heavy14, t_trip=50.0, horizon=250.0)
    b = run_fault(heavy14, t_trip=50.0, horizon=250.0)
    assert a.trajectory.t.tobytes() == b.trajectory.t.tobytes()
    assert a.trajectory.v.tobytes() == b.trajectory.v.tobytes()
    assert a.trajectory.cost.tobytes() == b.trajectory.cost.tobytes()
    for sa, sb in zip(a.trajectory.states, b.trajectory.states):
        assert np.array_equal(sa.packed(), sb.packed())


def test_solver_stats_repeat_and_sum_over_windows(heavy14):
    # counting changes no arithmetic, so identical runs count alike, and a
    # multi-window run's counts are its windows' summed
    linear = PlantMode.LINEAR
    pre = run_static(heavy14, plant_mode=linear)
    post = run_static(
        trip_branch(heavy14, 4, 5), plant_mode=linear, initial_state=pre.trajectory.states[-1]
    )
    runs = [run_fault(heavy14, trip=(4, 5), plant_mode=linear) for _ in range(2)]
    assert runs[0].stats == runs[1].stats == pre.stats + post.stats
    assert runs[0].stats.accepted == len(runs[0].trajectory) - 2
    assert runs[0].stats.attempts == pre.stats.attempts + post.stats.attempts > 0


def test_gain_scaling_preserves_equilibrium(toy2, toy_limits):
    slow = run_static(
        toy2, limits=toy_limits, plant_mode=PlantMode.LINEAR, tol=1e-7
    )
    fast = run_static(
        toy2,
        limits=toy_limits,
        gains=Gains(k_q=10.0, k_lam=10.0, k_mu=10.0),
        plant_mode=PlantMode.LINEAR,
        tol=1e-7,
    )
    assert abs(slow.final_q[0] - fast.final_q[0]) < 1e-6
    lam_a = slow.trajectory.states[-1].lam_lo[0]
    lam_b = fast.trajectory.states[-1].lam_lo[0]
    assert abs(lam_a - lam_b) < 1e-5


def _lam_lo_start() -> ControllerState:
    """toy2's start with lam_lo = 0.5: its voltage sits below the band, so lam_lo stays active."""
    return ControllerState(
        q=np.zeros(1),
        lam_hi=np.zeros(1),
        lam_lo=np.array([0.5]),
        mu_hi=np.zeros(1),
        mu_lo=np.zeros(1),
    )


def _fixed_steps(loop, start: ControllerState, h: float, steps: int) -> np.ndarray:
    """The packed state after ``steps`` accepted steps of size h from the start."""
    y, f, active, _ = loop.eval(start.packed(), loop.rebase(start.q))
    for _ in range(steps):
        _, _, (y, f, active, _) = loop.attempt(y, f, active, h)
        loop.refresh_inverse()
    return y


def test_fixed_step_is_third_order(toy2, toy_limits):
    # the nonlinear plant's curvature is all the step does not integrate
    # exactly; with lam_lo active on [0, 1] the global error shrinks 8-fold
    # per halving (8.0, 8.2 and 9.0 measured), against a run 64 times finer
    loop = _ClosedLoop(toy2, PlantMode.NONLINEAR, toy_limits, Gains())
    start = _lam_lo_start()
    exact = _fixed_steps(loop, start, 1.0 / 2560, 2560)
    errors = []
    for h in (0.2, 0.1, 0.05, 0.025):
        errors.append(np.max(np.abs(_fixed_steps(loop, start, h, round(1.0 / h)) - exact)))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    for r in ratios:
        assert 6.5 < r < 10.0, f"error ratios {ratios} not consistent with order 3"


@pytest.mark.parametrize("h", [1.0, 0.25, 0.05])
def test_linear_decay_is_exact_for_any_step(toy2, toy_limits, h):
    # q decays freely from 0.3 with rate -2q and no constraint ever
    # activates: the flow is linear, so each step is its exact solution
    relaxed = scale_loads(toy2, 0.0)
    start = ControllerState(
        q=np.array([0.3]),
        lam_hi=np.zeros(1),
        lam_lo=np.zeros(1),
        mu_hi=np.zeros(1),
        mu_lo=np.zeros(1),
    )
    loop = _ClosedLoop(relaxed, PlantMode.LINEAR, toy_limits, Gains())
    y = _fixed_steps(loop, start, h, round(1.0 / h))
    assert abs(y[0] - 0.3 * np.exp(-2.0)) <= 1e-14


@pytest.mark.parametrize("h", [0.01, 0.02, 0.04])
def test_embedded_estimate_tracks_the_local_error(toy2, toy_limits, h):
    # the estimate is U2's local error, U2 = y1 - est; 200 steps of h/200
    # stand in for the exact solution (0.98-0.99 measured)
    loop = _ClosedLoop(toy2, PlantMode.NONLINEAR, toy_limits, Gains())
    start = _lam_lo_start()
    y0, f0, active0, _ = loop.eval(start.packed(), loop.rebase(start.q))
    y1, est, _ = loop.attempt(y0, f0, active0, h)
    local = np.max(np.abs(y1 - est - _fixed_steps(loop, start, h / 200, 200)))
    assert 0.5 < np.max(np.abs(est)) / local < 2.0


def test_halving_tolerance_reduces_error(toy2, toy_limits):
    # the linear plant's steps are exact whatever the tolerance, so only the
    # nonlinear plant's curvature leaves an error for the tolerance to shrink
    loop = _ClosedLoop(toy2, PlantMode.NONLINEAR, toy_limits, Gains())
    exact = _fixed_steps(loop, _lam_lo_start(), 1.0 / 2560, 2560)
    errors = []
    for rtol in (4e-9, 2e-9, 1e-9, 5e-10):
        res = integrate(
            toy2,
            limits=toy_limits,
            tol=None,
            plant_mode=PlantMode.NONLINEAR,
            horizon=1.0,
            initial_state=_lam_lo_start(),
            rtol=rtol,
            atol=rtol * 1e-2,
        )
        errors.append(np.max(np.abs(res.trajectory.states[-1].packed() - exact)))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine < coarse * 1.05


@pytest.mark.parametrize(
    "case_name, mode", [("heavy14", PlantMode.LINEAR), ("toy2", PlantMode.NONLINEAR)]
)
def test_no_state_is_evaluated_twice_in_a_row(request, monkeypatch, toy_limits, case_name, mode):
    # each plant call (a power-flow solve on the nonlinear plant) is made at
    # a new output: a step whose end has its stage's q reuses the stage's
    # voltage, and the state a step accepts keeps the voltage it ended on
    seen = []
    measure = _ClosedLoop.voltage

    def recording(self, q):
        seen.append(q.tobytes())
        return measure(self, q)

    monkeypatch.setattr(_ClosedLoop, "voltage", recording)
    limits = toy_limits if case_name == "toy2" else None
    res = run_static(request.getfixturevalue(case_name), limits=limits, plant_mode=mode)
    assert res.converged and len(seen) >= len(res.trajectory) - 1 > 1
    assert sum(a == b for a, b in zip(seen, seen[1:])) == 0


def _count_per_attempt(monkeypatch):
    # per attempt: [plant calls, phi-products, power-flow iteration counts]
    per_attempt = [[0, 0, []]]
    attempt, measure, phi = _ClosedLoop.attempt, _ClosedLoop.voltage, PackedFlow.phi
    power_flow = simulate.solve_power_flow

    def counting_attempt(self, *args):
        per_attempt.append([0, 0, []])
        return attempt(self, *args)

    def counting_voltage(self, q):
        per_attempt[-1][0] += 1
        return measure(self, q)

    def counting_phi(self, *args):
        per_attempt[-1][1] += 1
        return phi(self, *args)

    def recording_power_flow(*args, **kwargs):
        sol = power_flow(*args, **kwargs)
        per_attempt[-1][2].append(sol.iterations)
        return sol

    monkeypatch.setattr(_ClosedLoop, "attempt", counting_attempt)
    monkeypatch.setattr(_ClosedLoop, "voltage", counting_voltage)
    monkeypatch.setattr(PackedFlow, "phi", counting_phi)
    monkeypatch.setattr(simulate, "solve_power_flow", recording_power_flow)
    return per_attempt


@pytest.mark.parametrize(
    "case_name, mode",
    [("heavy14", PlantMode.LINEAR), ("light30", PlantMode.LINEAR), ("heavy14", PlantMode.NONLINEAR)],
)
def test_no_implicit_solve_hits_its_cap(request, monkeypatch, case_name, mode):
    # a step is explicit, so the only implicit solves left are the plant's
    # power flows: the window's rebase solve, and on the nonlinear plant at
    # most two per attempt (at the stage and at the end). Each must converge
    # by chord steps well inside the iteration cap, with no Newton hand-over
    counts = _count_per_attempt(monkeypatch)
    res = run_static(request.getfixturevalue(case_name), plant_mode=mode)
    assert res.converged and len(counts) - 1 >= len(res.trajectory) - 1
    iterations = [n for _, _, its in counts for n in its]
    assert iterations and max(iterations) < 20
    if mode is PlantMode.LINEAR:
        assert {(calls, phis) for calls, phis, _ in counts[1:]} == {(1, 1)}
        assert len(iterations) == 1
    else:
        assert all(len(its) == calls <= 2 for calls, _, its in counts[1:])


def test_linear_stage_solves_take_one_evaluation(monkeypatch, light30):
    # on the piece a step holds the linear-plant flow is affine, so the
    # step's one stage U2 = y0 + h phi1(hJ) F0 is exact and ends the step:
    # one phi-product and one plant call, at the end, per attempt
    counts = _count_per_attempt(monkeypatch)
    res = run_static(light30, plant_mode=PlantMode.LINEAR)
    assert res.converged and len(counts) - 1 >= len(res.trajectory) - 1 > 1
    assert {(calls, phis) for calls, phis, _ in counts[1:]} == {(1, 1)}


def test_nonlinear_stage_solves_average_two_evaluations(monkeypatch, heavy14):
    # the nonlinear plant is called at the stage only while a lam row is
    # active, and then the end's estimate takes a second phi-product; an
    # end whose q is the stage's reuses its voltage. No Newton iteration:
    # the x3.1 run takes 246 plant calls in 114 samples (279 in 138 when
    # events were landed by linear interpolation). The run's own counts
    # agree with the ones taken from outside
    counts = _count_per_attempt(monkeypatch)
    res = run_static(heavy14, plant_mode=PlantMode.NONLINEAR)
    assert res.converged and len(counts) - 1 >= len(res.trajectory) - 1 > 1
    per_attempt = [(calls, phis) for calls, phis, _ in counts[1:]]
    assert set(per_attempt) <= {(1, 1), (2, 2), (1, 2)}
    assert sum(calls for calls, _ in per_attempt) / len(per_attempt) <= 2.0
    assert res.stats.attempts == len(per_attempt)
    assert res.stats.accepted == len(res.trajectory) - 1
    assert res.stats.plant_calls == sum(calls for calls, _ in per_attempt)
    assert res.stats.phi_products == sum(phis for _, phis in per_attempt)
    assert res.stats.plant_calls <= 270 and len(res.trajectory) <= 125


# the distinct pieces (active-row patterns) the accepted steps of the
# linear runs hold: 5 on heavy14 and 18 on light30, with 4 and 17 changes,
# the same sequence of pieces whether events are landed by a cubic root or
# by linear interpolation
LINEAR_PIECES = {"heavy14": 5, "light30": 18}


@pytest.mark.parametrize("name", ["heavy14", "light30"])
def test_linear_steps_are_exact_on_their_piece(request, monkeypatch, name):
    # every accepted linear-plant step ends where the affine flow of its
    # piece does, y0 + h phi1(hA) F0, with A and F0 written out from the
    # Lagrangian and the exponential taken by scipy at full size (3.7e-13
    # relative at worst, measured), and the steps pass through every piece.
    # At the default tol the stop test sets the distance to the optimum the
    # oracle finds for the loop's own linear plant: on the final piece the
    # flow is affine, so q is off q* by at most ||A^-1|| times the final
    # residual (1.5e-8 against 1.8e-8 on light30, 5.3e-12 against 6.4e-12
    # on heavy14). At tol=1e-10 the run settles on q* (5.3e-12 and 2.1e-16)
    steps, accepted = [], []
    attempt, refresh = _ClosedLoop.attempt, _ClosedLoop.refresh_inverse

    def recording_attempt(self, y0, f0, active0, h):
        out = attempt(self, y0, f0, active0, h)
        steps.append((self, y0.copy(), active0.copy(), h, out[0].copy()))
        return out

    def recording_refresh(self):
        if steps:
            accepted.append(steps[-1])
        refresh(self)

    monkeypatch.setattr(_ClosedLoop, "attempt", recording_attempt)
    monkeypatch.setattr(_ClosedLoop, "refresh_inverse", recording_refresh)
    case = request.getfixturevalue(name)
    for tol in (1e-6, 1e-10):
        steps.clear()
        accepted.clear()
        res = run_static(case, plant_mode=PlantMode.LINEAR, tol=tol)
        assert res.converged and len(accepted) == len(res.trajectory) - 1
        pieces = {active0.tobytes() for _, _, active0, _, _ in accepted}
        assert len(pieces) >= LINEAR_PIECES[name]
        for loop, y0, active0, h, y1 in accepted:
            c = loop.c
            xc = loop.sens.x[:, loop.cpos]
            v0 = loop.sens.base_v + xc @ (y0[:c] - loop.sens.base_q[loop.cpos])
            f0, on = written_out_rates(y0, v0, xc, loop.lim, Gains(), active0[c:])
            assert on.tolist() == active0.tolist()
            n = len(y0)
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = h * written_out_jacobian(xc, Gains(), active0)
            aug[:n, n] = f0
            exact = y0 + h * scipy.linalg.expm(aug)[:n, n]
            assert np.all(np.abs(y1 - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact)))
        qp = solve_centralized(loop.sens, loop.lim)
        distance = np.max(np.abs(res.final_q - qp.q_star))
        if tol == 1e-10:
            assert distance < 1e-10
            continue
        y = res.trajectory.states[-1].packed()
        v = loop.sens.base_v + xc @ (y[:c] - loop.sens.base_q[loop.cpos])
        _, on = written_out_rates(y, v, xc, loop.lim, Gains(), np.zeros(len(y) - c, bool))
        inverse = np.linalg.inv(written_out_jacobian(xc, Gains(), on)[np.ix_(on, on)])
        assert res.final_residual < tol
        assert distance <= np.linalg.norm(inverse[:c], np.inf) * res.final_residual


@pytest.mark.parametrize("name, bound", [("heavy14", 55), ("light30", 150)])
def test_linear_runs_land_events_in_few_attempts(request, name, bound):
    # each event is landed on the first root of its row's cubic Hermite
    # interpolant over the step: 45 and 128 attempts measured, where linear
    # interpolation took 93 and 267. Every attempt is counted once, by reason
    res = run_static(request.getfixturevalue(name), plant_mode=PlantMode.LINEAR)
    stats = res.stats
    assert res.converged and stats.accepted == len(res.trajectory) - 1
    assert stats.attempts <= bound
    assert stats.plant_calls == stats.phi_products == stats.attempts
    assert stats.error_test == stats.plant_divergence == 0


def test_event_root_is_the_first_zero_of_the_hermite_cubic():
    # random cubic Hermite data with p(0) > 0 >= p(1), over seven decades of
    # scale and with up to three roots in (0, 1]: the root is the first sign
    # change of scipy's interpolant on a grid of 4,001 points, refined by
    # brentq, to 1e-12
    rng = np.random.default_rng(20)
    n = 600
    scale = 10.0 ** rng.uniform(-6.0, 1.0, n)
    p0 = scale * rng.uniform(1e-3, 1.0, n)
    p1 = -scale * rng.uniform(1e-3, 1.0, n)
    d0, d1 = (scale * 10.0 * rng.standard_normal(n) for _ in range(2))
    roots = simulate._first_root(p0, p1, d0, d1)
    grid = np.linspace(0.0, 1.0, 4001)
    several = 0
    for i in range(n):
        cubic = scipy.interpolate.CubicHermiteSpline([0.0, 1.0], [p0[i], p1[i]], [d0[i], d1[i]])
        first = int(np.argmax(cubic(grid) <= 0.0))
        expected = scipy.optimize.brentq(cubic, grid[first - 1], grid[first], xtol=1e-15)
        assert abs(roots[i] - expected) <= 1e-12
        several += np.count_nonzero(np.diff(np.sign(cubic(grid))) != 0) > 1
    assert several > 50


def test_nonlinear_run_forms_one_jacobian_per_accepted_step(jacobian_builds, heavy14):
    # the plant's Jacobian is formed and inverted once per accepted state;
    # every solve inside the step runs chord iterations with that inverse,
    # and the step's dv/dq is a block of it. Only the window's cold rebase
    # solve forms more. Each solve once formed its own Jacobians: 2,551 on
    # this run.
    res = run_static(heavy14, plant_mode=PlantMode.NONLINEAR)
    assert res.converged
    assert jacobian_builds[0] <= len(res.trajectory) + 10


@pytest.mark.parametrize("mode", [PlantMode.LINEAR, PlantMode.NONLINEAR])
def test_trajectory_states_are_the_accepted_rows(monkeypatch, heavy14, mode):
    # integrate checks its accepted rows once, as one array, and builds the
    # states from them without checking each again; each state must still be
    # the row the loop accepted, which is the end of the attempt just before
    # the loop refreshes its plant at the new state
    ends, accepted = [], []
    attempt, refresh = _ClosedLoop.attempt, _ClosedLoop.refresh_inverse

    def recording_attempt(self, y0, f0, active0, h):
        out = attempt(self, y0, f0, active0, h)
        ends.append((active0.tobytes(), out[-1][0].copy()))
        return out

    def recording_refresh(self):
        if ends:
            accepted.append(ends[-1])
        refresh(self)

    monkeypatch.setattr(_ClosedLoop, "attempt", recording_attempt)
    monkeypatch.setattr(_ClosedLoop, "refresh_inverse", recording_refresh)
    res = run_static(heavy14, plant_mode=mode)
    assert res.converged
    # the accepted steps pass through every piece the linear run holds;
    # the nonlinear run still takes more than 40 of them (114 measured)
    rows = [ControllerState.zeros(9, 9).packed()] + [row for _, row in accepted]
    if mode is PlantMode.LINEAR:
        assert len({piece for piece, _ in accepted}) >= LINEAR_PIECES["heavy14"]
        assert len(rows) == len(res.trajectory)
    else:
        assert len(rows) == len(res.trajectory) > 40
    for state, row in zip(res.trajectory.states, rows):
        assert state.packed().tobytes() == row.tobytes()


def test_flow_is_compiled_once_per_window(monkeypatch, toy2, toy_limits, case14):
    # the controller's flow, with its rate map and Jacobian blocks, is built
    # when a window starts, never per step or per evaluation
    built = []
    init = PackedFlow.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(PackedFlow, "__init__", counting)
    linear = PlantMode.LINEAR
    runs = (
        (lambda: run_static(toy2, limits=toy_limits), 1),
        (lambda: run_fault(case14, plant_mode=linear), 2),
        (lambda: run_daily(toy2, toy_limits, profile=np.ones(24), plant_mode=linear), 24),
    )
    for run, windows in runs:
        built.clear()
        res = run()
        assert res.converged and len(res.trajectory) > windows
        assert len(built) == windows


@pytest.mark.parametrize("module", ["voltctrl.simulate", "voltctrl.oracle", "voltctrl.cli"])
def test_simulate_import_leaves_scipy_unloaded(module):
    # importing scipy.linalg alone costs more than a static run's whole
    # set-up, so the loop's linear algebra and the oracle stay on numpy,
    # and so does every command the CLI runs
    code = f"import sys, {module}; sys.exit('scipy' in sys.modules)"
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_window_start_reuses_the_rebase_solve(monkeypatch, heavy14):
    # each window's rebase solves the plant at its start output; the start
    # state's rates read that solve's voltage instead of solving it again
    seen = []
    solve = simulate.solve_power_flow

    def recording(case, inj, *args, **kwargs):
        seen.append((case, inj.q_injection.tobytes()))
        return solve(case, inj, *args, **kwargs)

    monkeypatch.setattr(simulate, "solve_power_flow", recording)
    res = run_fault(heavy14, trip=(4, 5), t_trip=20.0, plant_mode=PlantMode.NONLINEAR)
    assert res.converged
    windows = {}
    for case, q in seen:
        windows.setdefault(id(case), []).append(q)
    assert len(windows) == 2
    for solved in windows.values():
        assert solved.count(solved[0]) == 1


def test_step_onto_a_multiplier_zero_converges(toy2, toy_limits):
    # lam_lo = 1e-3 decays at 0.05 /s while its constraint is slack (v = 1),
    # and h = 0.02 is the step that lands it on zero. Projected afresh at each
    # point this step has no consistent piece: the active row ends just below
    # zero, the inactive one stays at 1e-3. Held on the piece it starts on,
    # the step is the exact solution of one affine flow, with one plant call
    # at its end.
    relaxed = scale_loads(toy2, 0.0)
    start = ControllerState(
        q=np.zeros(1),
        lam_hi=np.zeros(1),
        lam_lo=np.array([1e-3]),
        mu_hi=np.zeros(1),
        mu_lo=np.zeros(1),
    )
    loop = _ClosedLoop(relaxed, PlantMode.LINEAR, toy_limits, Gains())
    y0, f0, active0, _ = loop.eval(start.packed(), loop.rebase(start.q))
    assert f0[2] == pytest.approx(-0.05)
    calls = []
    measure = loop.voltage
    loop.voltage = lambda q: calls.append(q) or measure(q)
    z, _, (y, g, _, _) = loop.attempt(y0, f0, active0, 1e-3 / 0.05)
    assert len(calls) == 1
    # the row ends a hair past zero, a crossing for integrate to land on;
    # the evaluation handed back is the projected one
    assert -1e-8 < z[2] < 0.0
    assert y[2] == 0.0 and g[2] == 0.0


@pytest.mark.parametrize("mode", [PlantMode.LINEAR, PlantMode.NONLINEAR])
@pytest.mark.parametrize(
    "start, clamped, joined",
    [
        # lam_hi decays at v - v_hi = -0.13 /s from a residual level
        (dict(q=0.0, lam_hi=5e-10, lam_lo=0.0), True, False),
        # q sits on q_hi and rises: lam_lo pulls it up at X lam_lo - 2 q = 1 /s
        (dict(q=0.5, lam_hi=0.0, lam_lo=20.0), False, True),
        (dict(q=0.5, lam_hi=5e-10, lam_lo=20.0), True, True),
    ],
    ids=["clamp", "join", "both"],
)
def test_start_of_step_events_retry_the_same_step(
    monkeypatch, toy2, toy_limits, mode, start, clamped, joined
):
    # packed toy2 state: [q, lam_hi, lam_lo, mu_hi, mu_lo]. Each event at the
    # step's start changes the piece and retries the same step once, at the
    # same size; both at once take one retry too, so the first step takes
    # two attempts
    attempts, accepted = [], []
    attempt, refresh = _ClosedLoop.attempt, _ClosedLoop.refresh_inverse

    def recording_attempt(self, y0, f0, active0, h):
        attempts.append((y0.copy(), active0.copy(), h))
        return attempt(self, y0, f0, active0, h)

    def recording_refresh(self):
        accepted.append(len(attempts))
        refresh(self)

    monkeypatch.setattr(_ClosedLoop, "attempt", recording_attempt)
    monkeypatch.setattr(_ClosedLoop, "refresh_inverse", recording_refresh)
    state = ControllerState(
        q=np.array([start["q"]]),
        lam_hi=np.array([start["lam_hi"]]),
        lam_lo=np.array([start["lam_lo"]]),
        mu_hi=np.zeros(1),
        mu_lo=np.zeros(1),
    )
    res = run_static(toy2, toy_limits, plant_mode=mode, initial_state=state)
    assert res.converged
    # the window's start refreshes before any attempt, each accepted step after one
    assert accepted[:2] == [0, 2]
    (y0, active0, h0), (y1, active1, h1) = attempts[:2]
    assert h1 == h0
    assert y1[0] == y0[0] and y1[2] == y0[2]
    assert active1[2] and not active0[3]
    assert (y1[1], active1[1]) == ((0.0, False) if clamped else (y0[1], active0[1]))
    assert active1[3] == joined


def test_daily_flat_profile_matches_static(case14):
    base = scale_loads(case14, 2.5)
    static = run_static(base, plant_mode=PlantMode.NONLINEAR)
    assert static.converged
    flat = run_daily(base, profile=np.ones(24), plant_mode=PlantMode.NONLINEAR)
    assert flat.converged
    for hour in range(24):
        assert np.max(np.abs(flat.hourly_final_q[hour] - static.final_q)) < 1e-6
    spread = np.max(flat.hourly_final_q, axis=0) - np.min(flat.hourly_final_q, axis=0)
    assert np.max(spread) < 1e-6


def test_daily_peaked_profile_restores_band(daily14):
    unc = daily14.uncontrolled_v
    out_hours = (unc < 0.95 - 1e-9).any(axis=1) | (unc > 1.05 + 1e-9).any(axis=1)
    assert out_hours.any()
    ctl = daily14.hourly_final_v
    assert np.all(ctl >= 0.95 - 1e-3) and np.all(ctl <= 1.05 + 1e-3)
    assert daily14.converged


def test_daily_low_then_high_flips_injection_sign(daily30):
    sums = daily30.hourly_final_q.sum(axis=1)
    assert np.all(sums[:8] < 0)
    assert np.all(sums[8:] > 0)
    unc = daily30.uncontrolled_v
    assert np.max(unc[0]) > 1.05
    assert np.min(unc[-1]) < 0.95


def test_daily_reset_multipliers_flag(case14):
    base = scale_loads(case14, 1.6)
    res = run_daily(
        base,
        profile=np.ones(24),
        plant_mode=PlantMode.NONLINEAR,
        reset_multipliers=True,
    )
    assert res.converged
    assert np.max(np.abs(res.hourly_final_q)) < 1e-9


def test_daily_profile_validation(case14):
    with pytest.raises(ConfigError):
        run_daily(case14, profile=np.ones(23))
    with pytest.raises(ConfigError):
        run_daily(case14, profile=np.full(24, -1.0))


def test_daily_hour_without_a_power_flow_names_the_hour(case14):
    profile = default_daily_profile()
    profile[3] = 40.0
    with pytest.raises(PlantDivergenceError, match="uncontrolled power flow failed at hour 3"):
        run_daily(case14, profile=profile, plant_mode=PlantMode.LINEAR)


def test_multipliers_stay_nonnegative_everywhere(
    toy_lin, toy_nl, heavy_lin, heavy_nl, light30_lin, fault_nl, daily14, daily30
):
    for res in (toy_lin, toy_nl, heavy_lin, heavy_nl, light30_lin, fault_nl, daily14, daily30):
        assert res.violations.min_multiplier >= -1e-9
        for state in res.trajectory.states:
            assert np.min(state.packed()[len(state.q) :]) >= 0.0


@pytest.mark.parametrize("seed", [28, 35])
def test_perturbed_heavy_load_settles(case14, seed):
    # the benchmark's static-nl14 input for this seed: each PQ load in case
    # order scaled by 3.1 (1 + 0.02 u), u uniform in [-1, 1]. Seed 28 used
    # to end in StepSizeUnderflowError at t = 4464.61 s and seed 35 to grind
    # on without settling, so a wall bound turns a grind into a failure.
    pq = [b.id for b in case14.buses if b.kind is BusKind.PQ]
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, len(pq))
    case = scale_loads(case14, {i: float(f) for i, f in zip(pq, 3.1 * (1.0 + 0.02 * u))})

    def stop(signum, frame):
        raise TimeoutError("run_static did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 120.0)
    try:
        res = run_static(case, plant_mode=PlantMode.NONLINEAR)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert res.converged
    assert res.violations.min_multiplier >= -1e-12
    # the nominal x3.1 input settles in about 400 samples
    assert len(res.trajectory) <= 500


def test_final_cost_equals_objective_exactly(heavy_nl, toy_lin):
    for res in (heavy_nl, toy_lin):
        assert res.trajectory.cost[-1] == objective(res.trajectory.states[-1].q)
        assert res.converged and res.final_residual < 1e-6 + 1e-12


def test_scenario_validation():
    from voltctrl import load_case

    case = load_case("case14")
    with pytest.raises(ConfigError):
        integrate(case, horizon=-1.0)
    for t_trip in (0.0, -5.0):
        with pytest.raises(ConfigError):
            run_fault(case, t_trip=t_trip)


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_non_finite_horizon_is_rejected(heavy14, horizon):
    # either used to return the start state alone, unconverged, with no error
    with pytest.raises(ConfigError, match=f"horizon must be positive and finite, got {horizon}"):
        run_static(heavy14, plant_mode=PlantMode.LINEAR, horizon=horizon)


@pytest.mark.parametrize("t_trip", [np.inf, np.nan])
def test_non_finite_trip_time_is_rejected(heavy14, t_trip):
    # either used to end in an untyped ValueError about trajectory times
    with pytest.raises(ConfigError, match=f"trip time must be positive and finite, got {t_trip}"):
        run_fault(heavy14, t_trip=t_trip, plant_mode=PlantMode.LINEAR)


def test_non_finite_hour_is_rejected(heavy14):
    with pytest.raises(ConfigError, match="horizon must be positive and finite, got inf"):
        run_daily(heavy14, hour_seconds=np.inf, plant_mode=PlantMode.LINEAR)


@pytest.mark.parametrize(
    "name, value",
    [("tol", np.inf), ("tol", 0.0), ("tol", -1.0), ("tol", np.nan),
     ("rtol", np.nan), ("rtol", 0.0), ("atol", -1.0), ("atol", 0.0)],
)
def test_invalid_tolerances_are_rejected(heavy14, name, value):
    # each used to end as a false convergence at t = 0, a silent grind to the
    # horizon, an error test that never rejects, or a division by zero
    with pytest.raises(ConfigError, match=f"{name} must be positive and finite, got {value}"):
        integrate(heavy14, plant_mode=PlantMode.LINEAR, **{name: value})


def test_case_without_controllers_is_rejected(case14):
    # used to run the whole window, then fail on an empty reduction
    with pytest.raises(ConfigError, match="no controlled bus"):
        run_static(case14.with_controllers([]))


def test_calibration_rejects_unknown_bus_ids(case14):
    with pytest.raises(CaseDataError, match=r"unknown bus ids \[99\]"):
        calibrate_load_scale(case14, {99: 1.0, 12: 0.95})


def test_calibration_rejects_an_empty_target(case14):
    # used to fail inside numpy on a zero-size reduction
    with pytest.raises(CaseDataError, match="target voltage map is empty"):
        calibrate_load_scale(case14, {})


def test_failed_plant_solve_retries_the_step_at_half_size(monkeypatch, heavy14):
    # one chord plant solve inside a step reports converged=False: that
    # attempt fails, the loop retries the same step from the same state at
    # half the size, and the run settles
    solve, attempt = simulate.solve_power_flow, _ClosedLoop.attempt
    chord_solves, tries = [0], []

    def failing_once(case, inj, **kwargs):
        sol = solve(case, inj, **kwargs)
        if kwargs.get("inverse") is not None:
            chord_solves[0] += 1
            if chord_solves[0] == 40:
                return dataclasses.replace(sol, converged=False)
        return sol

    def recording(self, y0, f0, active0, h):
        try:
            out = attempt(self, y0, f0, active0, h)
        except PlantDivergenceError:
            tries.append((y0.copy(), h, False))
            raise
        tries.append((y0.copy(), h, True))
        return out

    monkeypatch.setattr(simulate, "solve_power_flow", failing_once)
    monkeypatch.setattr(_ClosedLoop, "attempt", recording)
    res = run_static(heavy14, plant_mode=PlantMode.NONLINEAR)
    failed = [i for i, (_, _, ok) in enumerate(tries) if not ok]
    assert chord_solves[0] > 40 and len(failed) == 1
    (y_fail, h_fail, _), (y_next, h_next, ok) = tries[failed[0]], tries[failed[0] + 1]
    assert ok and h_next == 0.5 * h_fail and np.array_equal(y_next, y_fail)
    assert res.converged


# gains of 1e300 overflow numpy's products on purpose; those warnings are the
# defect's symptom, expected here and nowhere else
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", list(PlantMode), ids=lambda mode: mode.value)
def test_overflowing_gains_end_in_step_size_underflow(monkeypatch, heavy14, mode):
    # k_q k_lam overflows inside phi whatever h scales it by, so every
    # stage is non-finite: each attempt fails before its plant call and is
    # retried at half the size until the step underflows
    attempt, tries, plant_calls = _ClosedLoop.attempt, [], [0]

    def recording(self, y0, f0, active0, h):
        tries.append(h)
        return attempt(self, y0, f0, active0, h)

    def measuring(self, q):
        plant_calls[0] += 1
        raise AssertionError("no plant call is made at a non-finite stage")

    monkeypatch.setattr(_ClosedLoop, "attempt", recording)
    monkeypatch.setattr(_ClosedLoop, "voltage", measuring)
    with pytest.raises(StepSizeUnderflowError, match="t=0"):
        run_static(heavy14, gains=Gains(1e300, 1e300, 1e300), plant_mode=mode)
    assert plant_calls[0] == 0
    assert len(tries) > 30 and all(b == 0.5 * a for a, b in zip(tries, tries[1:]))


def test_final_v_is_last_sample_at_load_buses(heavy14, heavy_lin, heavy_nl):
    # one rule for both plants: regulated buses keep their setpoints, load
    # buses read what the last sample measured
    part = partition_buses(heavy14)
    regulated = np.setdiff1d(np.arange(heavy14.n_buses), part.pq)
    setpoints = np.array([b.v_setpoint for b in heavy14.buses])[regulated]
    for res in (heavy_lin, heavy_nl):
        assert np.array_equal(res.final_v[part.pq], res.trajectory.v[-1])
        assert np.array_equal(res.final_v[regulated], setpoints)


def test_trajectory_validation():
    state = ControllerState.zeros(1, 1)
    with pytest.raises(ValueError):
        Trajectory(
            t=np.array([0.0, 0.0]),
            states=(state, state),
            v=np.zeros((2, 1)),
            cost=np.zeros(2),
        )
    with pytest.raises(ValueError):
        Trajectory(
            t=np.array([0.0, 1.0]),
            states=(state,),
            v=np.zeros((2, 1)),
            cost=np.zeros(2),
        )


def test_initial_state_must_match_case(case14, case30):
    part30 = partition_buses(case30)
    with pytest.raises(ConfigError, match="needs M=9, C=9"):
        run_static(case14, initial_state=ControllerState.zeros(part30.n_load, part30.n_controlled))
    wrong_m = ControllerState(
        q=np.zeros(9), lam_hi=np.zeros(8), lam_lo=np.zeros(8), mu_hi=np.zeros(9), mu_lo=np.zeros(9)
    )
    with pytest.raises(ConfigError, match="has M=8, C=9"):
        run_static(case14, initial_state=wrong_m)


@pytest.mark.parametrize("size", [2, 1])
def test_limits_must_match_case(case14, size):
    # a size-1 box would broadcast over all nine buses without this check
    with pytest.raises(ConfigError, match=f"limits have M={size}, C={size}; the case needs M=9, C=9"):
        run_static(case14, limits=Limits.box(size, size), plant_mode=PlantMode.LINEAR)


def _window(t_end: float) -> SimulationResult:
    """A two-sample window from t = 0 to t_end, enough for ``_join``."""
    state = ControllerState.zeros(1, 1)
    no_excursion = ViolationSummary(0.0, 0.0, 0.0, 0.0, 0.0)
    trajectory = Trajectory(
        t=np.array([0.0, t_end]), states=(state, state), v=np.ones((2, 1)), cost=np.zeros(2)
    )
    return SimulationResult(
        trajectory, np.ones(1), np.zeros(1), True, 0.0, no_excursion, simulate.SolverStats()
    )


@pytest.mark.parametrize("boundary", [1e7, 2e7])
def test_join_nudges_a_shared_boundary_forward(boundary):
    # past 2**24 s an absolute 1e-9 s is below half the float spacing
    trajectory, _, _ = _join([(0.0, _window(boundary)), (boundary, _window(5.0))])
    assert trajectory.t[2] > trajectory.t[1] == boundary
    if boundary < 2.0**24:
        assert trajectory.t[2] == boundary + 1e-9


def test_unsolvable_plant_raises(case14):
    hopeless = scale_loads(case14, 40.0)
    with pytest.raises(PlantDivergenceError):
        run_static(hopeless, plant_mode=PlantMode.NONLINEAR)


def test_default_profile_shape():
    prof = default_daily_profile()
    assert prof.shape == (24,)
    assert prof.min() == pytest.approx(0.7, abs=0.02)
    assert prof.max() == pytest.approx(1.2, abs=0.02)
