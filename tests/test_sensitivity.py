from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from voltctrl import build_admittance, scale_loads, trip_branch
from voltctrl.controller import Gains
from voltctrl.errors import PlantDivergenceError, SingularModelError
from voltctrl.powerflow import InjectionSet, nominal_injections, solve_power_flow
from voltctrl.sensitivity import (
    BusPartition,
    SensitivityMatrix,
    linearized,
    partition_buses,
    predict_voltage,
    rebased,
    voltage_sensitivity,
)
from voltctrl.simulate import PlantMode, _ClosedLoop, run_static


def pq_ids(case):
    return [case.buses[i].id for i in partition_buses(case).pq]


def test_partition_case14(case14):
    part = partition_buses(case14)
    assert pq_ids(case14) == [4, 5, 7, 9, 10, 11, 12, 13, 14]
    assert part.n_load == 9
    assert part.n_controlled == 9
    assert list(part.controlled) == list(part.pq)
    assert case14.buses[part.slack].id == 1
    assert [case14.buses[i].id for i in part.pv] == [2, 3, 6, 8]


def test_partition_case30(case30):
    part = partition_buses(case30)
    assert part.n_load == 24
    assert part.n_controlled == 24


def test_partition_toy(toy2):
    part = partition_buses(toy2)
    assert part.n_load == 1 and part.n_controlled == 1
    assert toy2.buses[part.pq[0]].id == 2


def test_partition_controlled_subset(case14):
    case = case14.with_controllers([4, 9, 14])
    part = partition_buses(case)
    assert part.n_controlled == 3
    assert list(part.controlled_in_pq()) == [0, 3, 8]
    # the controllers' place in the plant: their outputs at load-bus
    # positions 0, 3 and 8 with zeros elsewhere, and X's columns there
    assert part.embed(np.array([0.1, -0.2, 0.3])).tolist() == [0.1, 0, 0, -0.2, 0, 0, 0, 0, 0.3]
    sens = voltage_sensitivity(case.topology.y, part)
    assert np.array_equal(sens.xc, np.column_stack([sens.x[:, 0], sens.x[:, 3], sens.x[:, 8]]))


def test_controlled_must_be_load_buses():
    with pytest.raises(ValueError):
        BusPartition(
            slack=0, pv=np.array([1]), pq=np.array([2]), controlled=np.array([1])
        )


@pytest.mark.parametrize("field", ["x", "base_v", "base_q"])
def test_sensitivity_dimensions_must_match_the_partition(case14, field):
    fields = dict(x=np.eye(9), base_v=np.ones(9), base_q=np.zeros(9))
    fields[field] = np.eye(8) if field == "x" else fields[field][:8]
    with pytest.raises(ValueError, match="dimensions do not match the partition"):
        SensitivityMatrix(partition=partition_buses(case14), **fields)


def test_toy_sensitivity_is_exact(toy2):
    sens = voltage_sensitivity(build_admittance(toy2), partition_buses(toy2))
    assert_allclose(sens.x, [[0.1]], atol=1e-14)


def test_lossless_case_reduces_to_susceptance_inverse(case14):
    lossless = dataclasses.replace(
        case14,
        branches=tuple(dataclasses.replace(br, r=0.0) for br in case14.branches),
    )
    y = build_admittance(lossless)
    part = partition_buses(lossless)
    sens = voltage_sensitivity(y, part)
    want = -np.linalg.inv(y.imag[np.ix_(part.pq, part.pq)])
    assert_allclose(sens.x, want, atol=1e-12)
    eig = np.linalg.eigvalsh(sens.x)
    assert np.all(eig > 0)


def test_sensitivity_symmetric_positive_definite(case14, case30):
    for case in (case14, case30):
        sens = voltage_sensitivity(build_admittance(case), partition_buses(case))
        assert np.max(np.abs(sens.x - sens.x.T)) < 1e-9
        assert np.all(np.linalg.eigvalsh(sens.x) > 0)


def test_sensitivity_entries_nonnegative(case14):
    # injecting reactive power anywhere should not pull any voltage down
    sens = voltage_sensitivity(build_admittance(case14), partition_buses(case14))
    assert np.all(np.diag(sens.x) > 0)
    assert np.all(sens.x >= 0)


def test_finite_difference_agreement(case14, case30):
    dq = 0.01
    for case in (case14, case30):
        part = partition_buses(case)
        sens = voltage_sensitivity(build_admittance(case), part)
        inj = nominal_injections(case)
        base = solve_power_flow(case, inj)
        assert base.converged
        for col, pq_pos in enumerate(part.controlled_in_pq()):
            q = inj.q_injection.copy()
            q[pq_pos] += dq
            bumped = solve_power_flow(
                case, InjectionSet(inj.p_injection, q), warm_start=base
            )
            assert bumped.converged
            fd = (bumped.v[part.pq] - base.v[part.pq]) / dq
            pred = sens.xc[:, col]
            err = np.max(np.abs(fd - pred)) / np.max(np.abs(fd))
            assert err < 0.10, f"{case.name} column {col}: {err:.3f}"


def test_predict_at_base_point(case14):
    part = partition_buses(case14)
    sens = voltage_sensitivity(build_admittance(case14), part)
    inj = nominal_injections(case14)
    sol = solve_power_flow(case14, inj)
    sens = rebased(sens, base_v=sol.v[part.pq], base_q=inj.q_injection)
    assert_allclose(predict_voltage(sens, sens.base_q), sens.base_v, atol=1e-14)


def test_predict_toy_shift(toy2):
    part = partition_buses(toy2)
    sens = voltage_sensitivity(build_admittance(toy2), part)
    sens = rebased(sens, base_v=np.array([0.92]), base_q=np.array([0.0]))
    assert predict_voltage(sens, np.array([0.3]))[0] == pytest.approx(0.95)


def test_predict_superposition(case14):
    part = partition_buses(case14)
    sens = voltage_sensitivity(build_admittance(case14), part)
    rng = np.random.RandomState(7)
    q1 = rng.uniform(-0.2, 0.2, part.n_load)
    q2 = rng.uniform(-0.2, 0.2, part.n_load)
    lhs = predict_voltage(sens, q1 + q2 - sens.base_q)
    rhs = predict_voltage(sens, q1) + predict_voltage(sens, q2) - sens.base_v
    assert_allclose(lhs, rhs, atol=1e-12)


def test_predict_dimension_mismatch(toy2):
    sens = voltage_sensitivity(build_admittance(toy2), partition_buses(toy2))
    with pytest.raises(ValueError):
        predict_voltage(sens, np.zeros(3))


def test_trip_changes_local_rows(case14):
    part = partition_buses(case14)
    before = voltage_sensitivity(build_admittance(case14), part).x
    tripped = trip_branch(case14, 4, 5)
    after = voltage_sensitivity(build_admittance(tripped), partition_buses(tripped)).x
    ids = pq_ids(case14)
    for bus in (4, 5):
        row = ids.index(bus)
        assert np.max(np.abs(after[row] - before[row])) > 1e-4


def test_singular_model_rejected(toy2):
    dead = np.zeros((2, 2), dtype=complex)
    with pytest.raises(SingularModelError):
        voltage_sensitivity(dead, partition_buses(toy2))


@pytest.fixture(scope="module", params=[("case14", 3.1), ("case30", 0.25)], ids=lambda p: f"{p[0]}x{p[1]}")
def loaded_with_final_q(request):
    """A loaded case and the final q of its nonlinear closed-loop run."""
    name, factor = request.param
    case = scale_loads(request.getfixturevalue(name), factor)
    res = run_static(case, plant_mode=PlantMode.NONLINEAR)
    assert res.converged
    return case, res.final_q


# solve_power_flow's own 1e-8 at q = 0, the plant tolerance that validate
# and a window's start share at its start output, and a plant_equilibrium
# iterate, warm-started
@pytest.mark.parametrize("at, tol, warm", [
    ("zero", 1e-8, False), ("final", 1e-10, False), ("zero", 1e-12, True), ("final", 1e-12, True),
])
def test_linearized_is_the_written_out_recipe(loaded_with_final_q, at, tol, warm):
    # the one path equals the steps it replaces, bit for bit: nominal
    # injections plus q at the controlled buses, the full-Newton power flow,
    # and X rebased at its load-bus voltages and that q
    case, final_q = loaded_with_final_q
    part = partition_buses(case)
    q = np.zeros(part.n_controlled) if at == "zero" else final_q
    inj = nominal_injections(case)
    start = solve_power_flow(case, inj) if warm else None
    full = np.zeros(part.n_load)
    full[part.controlled_in_pq()] = q
    moved = InjectionSet(inj.p_injection, inj.q_injection + full)
    want_sol = solve_power_flow(case, moved, tol=tol, warm_start=start)
    assert want_sol.converged
    sens = voltage_sensitivity(build_admittance(case), part)
    want = rebased(sens, base_v=want_sol.v[part.pq], base_q=full)

    y = case.topology.y.copy()
    start_v, start_delta = (start.v.copy(), start.delta.copy()) if warm else (None, None)
    got, sol = linearized(case, q, tol, start)
    assert got.partition is part
    for a, b in [
        (got.x, want.x), (got.base_v, want.base_v), (got.base_q, want.base_q),
        (sol.v, want_sol.v), (sol.delta, want_sol.delta),
    ]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert sol.iterations == want_sol.iterations and sol.converged
    # the inputs are left as they were: the warm start and Y
    if warm:
        assert np.array_equal(start.v, start_v) and np.array_equal(start.delta, start_delta)
    assert np.array_equal(case.topology.y, y)


@pytest.mark.parametrize("at", ["zero", "final"])
def test_linearized_by_default_is_the_loops_model(loaded_with_final_q, at):
    # validate's oracle reads the model the closed loop runs: a window's
    # start and linearized's default solve the plant to the same tolerance
    case, final_q = loaded_with_final_q
    q = np.zeros(partition_buses(case).n_controlled) if at == "zero" else final_q
    loop = _ClosedLoop(case, PlantMode.LINEAR, None, Gains())
    loop.rebase(q)
    got, _ = linearized(case, q)
    assert got.partition is loop.sens.partition
    for a, b in [(got.x, loop.sens.x), (got.base_v, loop.sens.base_v),
                 (got.base_q, loop.sens.base_q)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_linearized_at_a_diverging_point_raises(case14):
    # at x40 load no power flow exists near the flat start; the one path
    # raises instead of rebasing at an unconverged iterate
    case = scale_loads(case14, 40.0)
    part = partition_buses(case)
    with pytest.raises(PlantDivergenceError, match=r"^power flow did not converge \(mismatch \d"):
        linearized(case, np.zeros(part.n_controlled))
