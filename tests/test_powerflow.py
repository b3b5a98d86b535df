from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from voltctrl import BusKind, powerflow, scale_loads, trip_branch
from voltctrl.netcase import parse_case
from voltctrl.powerflow import (
    InjectionSet,
    jacobian_inverse,
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
    _, q = reference_pq(toy2, sol.v, sol.delta)
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


def test_voltage_bump_shows_in_reactive_mismatch(case14):
    inj = nominal_injections(case14)
    sol = solve_power_flow(case14, inj)
    index = case14.bus_index()
    v = sol.v.copy()
    v[index[5]] += 0.01
    _, q = reference_pq(case14, v, sol.delta)
    dq = inj.q_injection - q[case14.indices_of(BusKind.PQ)]
    pq_ids = [b.id for b in case14.buses if b.kind is BusKind.PQ]
    # raising v5 raises the reactive power pushed into the network there
    # (diagonal susceptance is negative), leaving a negative residual
    assert dq[pq_ids.index(5)] < -1e-4


def test_slack_balances_losses(case14, case30):
    for case in (case14, case30):
        sol = solve_power_flow(case, nominal_injections(case))
        p, _ = reference_pq(case, sol.v, sol.delta)
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
    # the inverse Jacobian's magnitude rows and reactive columns, for every
    # PQ injection, against central differences, at a 1e-6 step, of solves
    # held to a 1e-13 mismatch: within 1e-6 of the largest entry
    case = scale_loads(request.getfixturevalue(name), load)
    inj = nominal_injections(case)
    sol = solve_power_flow(case, inj, tol=1e-13, max_iter=30)
    assert sol.converged
    pq = case.topology.pq
    n_a = len(case.topology.non_slack)
    got = jacobian_inverse(case, sol)[n_a:, n_a:]
    step = 1e-6
    expected = np.empty_like(got)
    for j in range(len(pq)):
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


def _moved_heavy14(case14):
    """case14 at x3.1, its solution, the inverse Jacobian there, and moved injections."""
    heavy = scale_loads(case14, 3.1)
    inj = nominal_injections(heavy)
    old = solve_power_flow(heavy, inj, tol=1e-12)
    q = inj.q_injection.copy()
    q[[0, 4, 8]] += [0.05, -0.03, 0.04]
    return heavy, old, jacobian_inverse(heavy, old), InjectionSet(inj.p_injection, q)


def _mismatch(case, inj, sol):
    """Specified minus computed power by the solver's own equations.

    Returns (delta P over non-slack buses, delta Q over PQ buses), in case order.
    """
    top = case.topology
    s = powerflow._complex_power(top.y, sol.v, sol.delta)
    return inj.p_injection[top.non_slack] - s.real[top.non_slack], inj.q_injection - s.imag[top.pq]


def test_chord_solve_matches_full_newton(jacobian_builds, case14):
    # a warm solve at moved injections, stepping with the inverse Jacobian
    # of the old point, builds no Jacobian and lands where full Newton does
    heavy, old, inverse, moved = _moved_heavy14(case14)
    full = solve_power_flow(heavy, moved, tol=1e-10, warm_start=old)
    built = jacobian_builds[0]
    chord = solve_power_flow(heavy, moved, tol=1e-10, warm_start=old, inverse=inverse)
    assert jacobian_builds[0] == built
    assert full.converged and chord.converged and chord.max_mismatch < 1e-10
    assert chord.iterations > full.iterations
    # both within 1e-10 of zero mismatch, so within a few 1e-10 of each other
    assert_allclose(chord.v, full.v, atol=1e-9)
    assert_allclose(chord.delta, full.delta, atol=1e-9)


def test_a_solution_lends_its_power_only_on_its_own_topology(case14):
    # a solution carries S at its point for its own topology's solves; a
    # warm start on another topology (branch 4-5 tripped: another Y)
    # recomputes it. So each solve from the intact solution (on its own
    # topology at moved injections, then tripped, full Newton and chord)
    # equals bit for bit the one from the same v and delta with S dropped,
    # and so does the inverse Jacobian on either topology
    heavy = scale_loads(case14, 3.1)
    tripped = trip_branch(heavy, 4, 5)
    intact = solve_power_flow(heavy, nominal_injections(heavy), tol=1e-10)
    assert intact.power[0] is heavy.topology
    bare = dataclasses.replace(intact, power=None)
    for case in (heavy, tripped):
        assert jacobian_inverse(case, intact).tobytes() == jacobian_inverse(case, bare).tobytes()
    nominal = nominal_injections(heavy)  # a trip moves no injection
    moved = InjectionSet(nominal.p_injection, nominal.q_injection - 0.01)
    for case, inj, inverse in (
        (heavy, moved, None),
        (tripped, nominal, None),
        (tripped, nominal, jacobian_inverse(tripped, bare)),
    ):
        got, want = (
            solve_power_flow(case, inj, tol=1e-10, warm_start=start, inverse=inverse)
            for start in (intact, bare)
        )
        assert got.iterations > 0 and got.power[0] is want.power[0] is case.topology
        for field in (lambda sol: sol.v, lambda sol: sol.delta, lambda sol: sol.power[1]):
            assert field(got).tobytes() == field(want).tobytes()
        assert (got.iterations, got.max_mismatch) == (want.iterations, want.max_mismatch)


def test_chord_iterations_count_chord_steps(case14):
    # the same chord, stepped by hand: x <- x + inverse f(x) until the
    # mismatch clears tol
    heavy, old, inverse, moved = _moved_heavy14(case14)
    top = heavy.topology
    n_a = len(top.non_slack)
    x, steps = old, 0
    while True:
        f = np.concatenate(_mismatch(heavy, moved, x))
        if np.max(np.abs(f)) < 1e-10:
            break
        step = inverse @ f
        v, delta = x.v.copy(), x.delta.copy()
        delta[top.non_slack] += step[:n_a]
        v[top.pq] += step[n_a:]
        x, steps = dataclasses.replace(x, v=v, delta=delta), steps + 1
    chord = solve_power_flow(heavy, moved, tol=1e-10, warm_start=old, inverse=inverse)
    assert steps >= 2
    assert chord.iterations == steps
    assert_allclose(chord.v, x.v, rtol=0, atol=1e-14)


def test_stale_inverse_ends_unconverged(jacobian_builds, case14):
    # an inverse taken at x3.1 load, used at nominal load from a flat start,
    # fails to halve the mismatch; the solve ends there, building no
    # Jacobian, and reports its last accepted iterate unconverged. Its
    # caller, the closed loop, retries from closer in; full Newton converges
    nominal = nominal_injections(case14)
    heavy = scale_loads(case14, 3.1)
    heavy_inverse = jacobian_inverse(heavy, solve_power_flow(heavy, nominal_injections(heavy)))
    built = jacobian_builds[0]
    sol = solve_power_flow(case14, nominal, inverse=heavy_inverse)
    assert jacobian_builds[0] == built
    assert not sol.converged and sol.iterations <= 20
    assert np.all(sol.v > 0) and np.all(np.isfinite(sol.v)) and np.all(np.isfinite(sol.delta))
    dp, dq = _mismatch(case14, nominal, sol)
    assert sol.max_mismatch == max(np.max(np.abs(dp)), np.max(np.abs(dq)))
    assert solve_power_flow(case14, nominal).converged


def test_far_inverse_reaches_the_loaded_point_by_chord_steps(jacobian_builds, case14):
    # the inverse at nominal load, used at x3.1 from a flat start, contracts
    # by about 0.39 a step: it reaches the point full Newton finds on chord
    # steps alone. At tol 1e-12 twenty such steps stop short, unconverged
    nominal = nominal_injections(case14)
    heavy = scale_loads(case14, 3.1)
    loaded = nominal_injections(heavy)
    light_inverse = jacobian_inverse(case14, solve_power_flow(case14, nominal, tol=1e-12))
    full = solve_power_flow(heavy, loaded)
    built = jacobian_builds[0]
    sol = solve_power_flow(heavy, loaded, inverse=light_inverse)
    short = solve_power_flow(heavy, loaded, tol=1e-12, max_iter=20, inverse=light_inverse)
    assert jacobian_builds[0] == built
    assert sol.converged and full.converged
    assert_allclose(sol.v, full.v, atol=1e-7)
    assert_allclose(sol.delta, full.delta, atol=1e-7)
    assert not short.converged and short.iterations == 20
    assert 1e-12 < short.max_mismatch < 1e-8


def _equations(case, v, delta):
    """[P at non-slack buses; Q at PQ buses] computed straight from Y."""
    top = case.topology
    u = v * np.exp(1j * delta)
    s = u * np.conj(top.y @ u)
    return np.concatenate([s.real[top.non_slack], s.imag[top.pq]])


@pytest.mark.parametrize("which", ["case14 x3.1", "case30 x1.0", "case14 x3.1 rotated"])
def test_jacobian_matches_central_differences(case14, case30, which):
    # all four blocks, at solved points, one with the slack bus not first
    case = scale_loads(case30, 1.0) if which == "case30 x1.0" else scale_loads(case14, 3.1)
    if which.endswith("rotated"):
        case = dataclasses.replace(case, buses=case.buses[5:] + case.buses[:5])
    sol = solve_power_flow(case, nominal_injections(case), tol=1e-12)
    assert sol.converged
    top = case.topology
    s_bus = powerflow._complex_power(top.y, sol.v, sol.delta)
    jac = powerflow._jacobian(top, sol.v, sol.delta, s_bus)
    n_a, step = len(top.non_slack), 1e-6
    want = np.empty_like(jac)
    for j, (target, bus) in enumerate(
        [("delta", b) for b in top.non_slack] + [("v", b) for b in top.pq]
    ):
        moved = []
        for sign in (1, -1):
            v, delta = sol.v.copy(), sol.delta.copy()
            (delta if target == "delta" else v)[bus] += sign * step
            moved.append(_equations(case, v, delta))
        want[:, j] = (moved[0] - moved[1]) / (2 * step)
    assert jac.shape == (n_a + len(top.pq),) * 2
    assert np.max(np.abs(jac - want)) <= 1e-7 * np.max(np.abs(want))


def test_diverged_solve_returns_its_last_valid_iterate(case14):
    # at x5 Newton steps a magnitude through zero; the solve stops there
    # and reports the iterate before that step, with that iterate's mismatch
    hopeless = scale_loads(case14, 5.0)
    inj = nominal_injections(hopeless)
    sol = solve_power_flow(hopeless, inj, max_iter=30)
    assert not sol.converged
    assert np.all(sol.v > 0)
    assert np.all(np.isfinite(sol.delta))
    dp, dq = _mismatch(hopeless, inj, sol)
    assert sol.max_mismatch == pytest.approx(max(np.max(np.abs(dp)), np.max(np.abs(dq))))
    assert np.isfinite(sol.max_mismatch) and sol.max_mismatch > 1e-8


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


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_non_finite_tolerance_is_rejected(case14, tol):
    # inf used to report converged=True at the flat start (mismatch 0.92),
    # and nan converged=False after no iteration, with no reason given
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_power_flow(case14, nominal_injections(case14), tol=tol)
