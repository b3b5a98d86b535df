from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from voltctrl import BusKind, scale_loads
from voltctrl.netcase import parse_case
from voltctrl.powerflow import (
    InjectionSet,
    bus_power,
    magnitude_sensitivity,
    mismatch,
    nominal_injections,
    solve_power_flow,
)
from _reference import reference_pq, reference_pq_scalar, reference_solve
from conftest import TOY2_TEXT


def test_nominal_injections(case14):
    inj = nominal_injections(case14)
    assert inj.p_injection[0] == pytest.approx(2.324)  # slack machine output
    assert inj.p_injection[1] == pytest.approx(0.40 - 0.217)
    assert inj.p_injection[2] == pytest.approx(-0.942)
    # q runs over the nine PQ buses 4,5,7,9..14; bus 4 has a capacitive load
    assert len(inj.q_injection) == 9
    assert inj.q_injection[0] == pytest.approx(0.039)
    assert inj.q_injection[3] == pytest.approx(-0.166)


def test_injections_must_be_finite():
    with pytest.raises(ValueError):
        InjectionSet(p_injection=np.array([np.nan]), q_injection=np.array([]))


def test_unloaded_network_is_flat():
    text = TOY2_TEXT.replace("\t2\t1\t0\t73.6", "\t2\t1\t0\t0")
    case = parse_case(text)
    sol = solve_power_flow(case, nominal_injections(case))
    assert sol.converged
    assert sol.iterations == 0
    assert_allclose(sol.v, [1.0, 1.0], atol=1e-12)
    assert_allclose(sol.delta, [0.0, 0.0], atol=1e-12)


def test_two_bus_closed_form(toy2):
    # 10 v (v - 1) = -0.736 has roots 0.92 and 0.08; Newton from a flat
    # start lands on the high-voltage branch
    sol = solve_power_flow(toy2, nominal_injections(toy2))
    assert sol.converged
    assert sol.v[1] == pytest.approx(0.92, abs=1e-10)
    assert sol.delta[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.v[0] == 1.0


def test_two_bus_slack_reactive_output(toy2):
    # slack supplies the load plus I^2 X: 0.736 + 0.8^2 * 0.1 = 0.8
    sol = solve_power_flow(toy2, nominal_injections(toy2))
    _, q = bus_power(toy2, sol)
    assert q[0] == pytest.approx(0.8, abs=1e-9)


def test_case14_matches_reference(case14):
    inj = nominal_injections(case14)
    sol = solve_power_flow(case14, inj)
    assert sol.converged
    v_ref, delta_ref = reference_solve(case14, inj.p_injection, inj.q_injection)
    assert_allclose(sol.v, v_ref, atol=1e-6)
    assert_allclose(sol.delta, delta_ref, atol=1e-6)


def test_case30_matches_reference(case30):
    inj = nominal_injections(case30)
    sol = solve_power_flow(case30, inj)
    assert sol.converged
    v_ref, delta_ref = reference_solve(case30, inj.p_injection, inj.q_injection)
    assert_allclose(sol.v, v_ref, atol=1e-6)
    assert_allclose(sol.delta, delta_ref, atol=1e-6)


def test_regulated_magnitudes_pinned(case14):
    sol = solve_power_flow(case14, nominal_injections(case14))
    index = case14.bus_index()
    for bus_id, setpoint in {1: 1.06, 2: 1.045, 3: 1.01, 6: 1.07, 8: 1.09}.items():
        assert sol.v[index[bus_id]] == pytest.approx(setpoint, abs=1e-12)
    assert sol.delta[index[1]] == 0.0


def test_regulated_magnitudes_pinned_under_heavy_load(case14):
    heavy = scale_loads(case14, 3.1)
    sol = solve_power_flow(heavy, nominal_injections(heavy))
    assert sol.converged
    index = heavy.bus_index()
    assert sol.v[index[2]] == pytest.approx(1.045, abs=1e-12)
    # remote feeder end sags hardest, matching the heavy-load profile shape
    pq = heavy.indices_of(BusKind.PQ)
    assert sol.v[pq].min() == sol.v[index[14]]
    assert sol.v[index[14]] < 0.95
    # moderate scaling keeps every load bus inside the band
    mild = scale_loads(case14, 1.8)
    sol_mild = solve_power_flow(mild, nominal_injections(mild))
    assert sol_mild.converged
    assert sol_mild.v[mild.indices_of(BusKind.PQ)].min() > 0.95


def test_converged_mismatch_below_tolerance(case14):
    # re-evaluate the equations with the scalar-sum oracle, not the solver
    inj = nominal_injections(case14)
    sol = solve_power_flow(case14, inj, tol=1e-8)
    p, q = reference_pq_scalar(case14, sol.v, sol.delta)
    non_slack = [i for i, b in enumerate(case14.buses) if b.kind is not BusKind.SLACK]
    pq_idx = [i for i, b in enumerate(case14.buses) if b.kind is BusKind.PQ]
    assert np.max(np.abs(inj.p_injection[non_slack] - p[non_slack])) < 1e-8
    assert np.max(np.abs(inj.q_injection - q[pq_idx])) < 1e-8


def test_mismatch_function_agrees_with_reference(case14):
    inj = nominal_injections(case14)
    sol = solve_power_flow(case14, inj)
    dp, dq = mismatch(case14, inj, sol)
    assert np.max(np.abs(dp)) < 1e-8
    assert np.max(np.abs(dq)) < 1e-8
    # and at a flat profile the residual equals spec minus computed flow
    flat = dataclasses.replace(sol, v=np.ones(14), delta=np.zeros(14))
    dp0, dq0 = mismatch(case14, inj, flat)
    p0, q0 = reference_pq(case14, flat.v, flat.delta)
    non_slack = [i for i, b in enumerate(case14.buses) if b.kind is not BusKind.SLACK]
    pq_idx = [i for i, b in enumerate(case14.buses) if b.kind is BusKind.PQ]
    assert_allclose(dp0, inj.p_injection[non_slack] - p0[non_slack], atol=1e-12)
    assert_allclose(dq0, inj.q_injection - q0[pq_idx], atol=1e-12)


def test_voltage_bump_shows_in_reactive_mismatch(case14):
    inj = nominal_injections(case14)
    sol = solve_power_flow(case14, inj)
    index = case14.bus_index()
    v = sol.v.copy()
    v[index[5]] += 0.01
    bumped = dataclasses.replace(sol, v=v)
    _, dq = mismatch(case14, inj, bumped)
    pq_ids = [b.id for b in case14.buses if b.kind is BusKind.PQ]
    # raising v5 raises the reactive power pushed into the network there
    # (diagonal susceptance is negative), leaving a negative residual
    assert dq[pq_ids.index(5)] < -1e-4


def test_slack_balances_losses(case14, case30):
    for case in (case14, case30):
        sol = solve_power_flow(case, nominal_injections(case))
        p, _ = bus_power(case, sol)
        index = case.bus_index()
        u = sol.v * np.exp(1j * sol.delta)
        loss = 0.0
        for br in case.branches:
            if not br.in_service:
                continue
            uf = u[index[br.from_bus]] / br.tap_ratio
            ut = u[index[br.to_bus]]
            i_series = (uf - ut) / complex(br.r, br.x)
            loss += abs(i_series) ** 2 * br.r
        for bus in case.buses:
            loss += bus.g_shunt * sol.v[index[bus.id]] ** 2
        assert p.sum() == pytest.approx(loss, abs=1e-6)


def test_warm_start_converges_faster(case14):
    inj = nominal_injections(case14)
    cold = solve_power_flow(case14, inj)
    nudged = scale_loads(case14, 1.02)
    cold2 = solve_power_flow(nudged, nominal_injections(nudged))
    warm = solve_power_flow(nudged, nominal_injections(nudged), warm_start=cold)
    assert warm.converged
    assert warm.iterations <= cold2.iterations
    assert_allclose(warm.v, cold2.v, atol=1e-7)


def test_added_reactive_injection_raises_local_voltage(case14, case30):
    for case in (case14, case30):
        inj = nominal_injections(case)
        base = solve_power_flow(case, inj)
        pq_ids = [b.id for b in case.buses if b.kind is BusKind.PQ]
        index = case.bus_index()
        for probe in (pq_ids[0], pq_ids[-1]):
            q = inj.q_injection.copy()
            q[pq_ids.index(probe)] += 0.01
            sol = solve_power_flow(case, InjectionSet(inj.p_injection, q))
            assert sol.converged
            assert sol.v[index[probe]] > base.v[index[probe]]


@pytest.mark.parametrize("name, load", [("case14", 3.1), ("case30", 1.0)])
def test_magnitude_sensitivity_matches_finite_differences(request, name, load):
    # every PQ injection column against central differences, at a 1e-6
    # step, of solves held to a 1e-13 mismatch: within 1e-6 of the largest
    # entry
    case = scale_loads(request.getfixturevalue(name), load)
    inj = nominal_injections(case)
    sol = solve_power_flow(case, inj, tol=1e-13, max_iter=30)
    assert sol.converged
    pq = case.topology.pq
    columns = np.arange(len(pq))
    got = magnitude_sensitivity(case, sol, columns)
    step = 1e-6
    expected = np.empty_like(got)
    for j in columns:
        v = []
        for sign in (1.0, -1.0):
            q = inj.q_injection.copy()
            q[j] += sign * step
            moved = solve_power_flow(
                case, InjectionSet(inj.p_injection, q), tol=1e-13, warm_start=sol
            )
            assert moved.converged
            v.append(moved.v[pq])
        expected[:, j] = (v[0] - v[1]) / (2 * step)
    assert np.max(np.abs(got - expected)) <= 1e-6 * np.max(np.abs(expected))
    # a subset of columns is the same subset of the matrix
    assert_allclose(magnitude_sensitivity(case, sol, columns[::2]), got[:, ::2], rtol=1e-12)


def test_nonconvergence_reports_false(case14):
    hopeless = scale_loads(case14, 40.0)
    sol = solve_power_flow(hopeless, nominal_injections(hopeless))
    assert not sol.converged
    assert sol.max_mismatch > 1e-8


def test_bad_arguments(toy2):
    inj = nominal_injections(toy2)
    with pytest.raises(ValueError):
        solve_power_flow(toy2, inj, tol=0.0)
    with pytest.raises(ValueError):
        solve_power_flow(toy2, inj, max_iter=0)
