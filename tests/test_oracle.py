from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from _reference import enumerate_active_sets
from voltctrl import build_admittance, oracle, scale_loads, trip_branch
from voltctrl.controller import ControllerState, Limits, dynamics_rhs
from voltctrl.errors import InfeasibleProblemError, NotContractingError, PlantDivergenceError
from voltctrl.netcase import BusKind
from voltctrl.oracle import (
    kkt_residual,
    plant_equilibrium,
    solve_at,
    solve_centralized,
)
from voltctrl.powerflow import InjectionSet, nominal_injections, solve_power_flow
from voltctrl.sensitivity import (
    BusPartition,
    SensitivityMatrix,
    linearized,
    partition_buses,
    rebased,
    voltage_sensitivity,
)
from voltctrl.simulate import PlantMode, run_static


def make_sens(x, base_v, base_q=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    c = x.shape[0]
    part = BusPartition(
        slack=0,
        pv=np.array([], dtype=int),
        pq=np.arange(1, c + 1),
        controlled=np.arange(1, c + 1),
    )
    if base_q is None:
        base_q = np.zeros(c)
    return SensitivityMatrix(
        x=x, partition=part, base_v=np.asarray(base_v, dtype=float), base_q=base_q
    )


def toy_problem():
    sens = make_sens([[0.1]], [0.92])
    lim = Limits.box(1, 1, q_lo=-0.5, q_hi=0.5)
    return sens, lim


def test_unconstrained_optimum_is_zero():
    sens = make_sens([[0.1]], [1.0])
    lim = Limits.box(1, 1, q_lo=-0.5, q_hi=0.5)
    qp = solve_centralized(sens, lim)
    assert_allclose(qp.q_star, [0.0], atol=1e-12)
    assert qp.objective_value == pytest.approx(0.0, abs=1e-20)
    for vec in (qp.lam_hi, qp.lam_lo, qp.mu_hi, qp.mu_lo):
        assert_allclose(vec, [0.0], atol=1e-12)
    assert all(len(v) == 0 for v in qp.active_sets.values())
    assert qp.kkt_residual < 1e-10


def test_toy_single_binding_floor():
    sens, lim = toy_problem()
    qp = solve_centralized(sens, lim)
    assert qp.q_star[0] == pytest.approx(0.3, abs=1e-10)
    assert qp.lam_lo[0] == pytest.approx(6.0, abs=1e-8)
    assert qp.active_sets["v_lo"] == (0,)
    assert qp.active_sets["v_hi"] == ()
    assert qp.objective_value == pytest.approx(0.09, abs=1e-10)
    assert qp.kkt_residual < 1e-10


def test_toy_enumeration_agrees():
    sens, lim = toy_problem()
    qp = solve_centralized(sens, lim)
    brute = enumerate_active_sets(sens, lim)
    assert_allclose(brute.q_star, qp.q_star, atol=1e-10)
    assert brute.active_sets == qp.active_sets
    assert_allclose(brute.lam_lo, qp.lam_lo, atol=1e-8)


def test_positive_box_floor_binds():
    sens = make_sens([[0.1]], [1.0])
    lim = Limits.box(1, 1, q_lo=0.1, q_hi=0.5)
    qp = solve_centralized(sens, lim)
    assert qp.q_star[0] == pytest.approx(0.1, abs=1e-10)
    assert qp.mu_lo[0] == pytest.approx(0.2, abs=1e-8)
    assert qp.active_sets["q_lo"] == (0,)


def test_infeasible_band_is_reported():
    cases = [
        # lifting 0.5 pu to 0.95 with X = 0.1 needs q = 4.5, far past the box
        ([0.5], 0.5),
        # the floor needs q = 0.5, and the box stops 1e-8 short of it: the
        # band is missed by 1e-9, ten times the default feasibility tol
        ([0.90], 0.5 - 1e-8),
    ]
    for base_v, q_hi in cases:
        sens = make_sens([[0.1]], base_v)
        lim = Limits.box(1, 1, q_lo=-0.5, q_hi=q_hi)
        with pytest.raises(InfeasibleProblemError, match="constraints are infeasible"):
            solve_centralized(sens, lim)
        with pytest.raises(InfeasibleProblemError):
            enumerate_active_sets(sens, lim)


def test_nearly_dependent_rows_end_in_an_infeasible_verdict(case14, case30):
    # a seeded sweep of random base points, boxes and bands draws 400 on
    # case14, then case30's. Its 88th on case30 has a band no q in the box
    # meets: linprog's least worst violation is 0.037. One voltage row lies
    # 2.8e-10 of its length outside the working rows' span; taken as
    # independent, it joined, dropped and joined again, each cycle growing
    # the step about 2e9-fold, until the step overflowed about 90
    # iterations on. Under this suite's warnings-as-errors that overflow
    # was the error, not the verdict
    rng = np.random.default_rng(5)
    for case, draws in ((case14, 400), (case30, 88)):
        part = partition_buses(case)
        m, c = part.n_load, part.n_controlled
        for _ in range(draws):
            base_v, base_q = rng.uniform(0.85, 1.15, m), rng.uniform(-0.1, 0.1, m)
            box, band = rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.08)
    assert (round(box, 3), round(band, 3)) == (0.460, 0.066)
    sens = rebased(voltage_sensitivity(case30.topology.y, part), base_v, base_q)
    lim = Limits.box(m, c, 1 - band, 1 + band, -box, box)
    xc = sens.x[:, part.controlled_in_pq()]
    r = sens.base_v - xc @ sens.base_q[part.controlled_in_pq()]
    rows = np.vstack([xc, -xc, np.eye(c), -np.eye(c)])
    bound = np.concatenate([lim.v_hi - r, r - lim.v_lo, lim.q_hi, -lim.q_lo])
    # min s subject to rows q - s <= bound: the least worst violation
    least = scipy.optimize.linprog(
        np.eye(c + 1)[-1], A_ub=np.hstack([rows, -np.ones((len(rows), 1))]), b_ub=bound,
        bounds=[(None, None)] * (c + 1),
    )
    assert least.status == 0 and least.x[-1] > 0.03
    with pytest.raises(InfeasibleProblemError, match="constraints are infeasible"):
        solve_centralized(sens, lim)


def test_degenerate_floors_meet_at_one_point():
    # the voltage floor and the box floor both bind at q = 0.2 and are
    # parallel rows, so the multipliers are not unique: compare q only
    sens = make_sens([[0.1]], [0.93])
    lim = Limits.box(1, 1, q_lo=0.2, q_hi=0.5)
    qp = solve_centralized(sens, lim)
    assert qp.q_star[0] == pytest.approx(0.2, abs=1e-12)
    assert qp.kkt_residual <= 1e-10
    assert_allclose(qp.q_star, enumerate_active_sets(sens, lim).q_star, atol=1e-12)


def random_instance(rng, c, diagonal=False):
    if diagonal:
        # each voltage row is parallel to its controller's box row
        x = np.diag(rng.uniform(0.05, 0.3, c))
    else:
        a = rng.uniform(0.05, 0.3, (c, c))
        x = a @ a.T + 0.05 * np.eye(c)
    base_v = rng.uniform(0.9, 1.1, c)
    lim = Limits.box(c, c, q_lo=-0.3, q_hi=0.3)
    return make_sens(x, base_v), lim


def test_enumeration_matches_active_set_on_random_toys():
    rng = np.random.RandomState(42)
    feasible_seen = 0
    infeasible_seen = 0
    for trial in range(90):
        c = 1 + trial % 3
        sens, lim = random_instance(rng, c, diagonal=trial % 2 == 1)
        try:
            qp = solve_centralized(sens, lim)
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError):
                enumerate_active_sets(sens, lim)
            infeasible_seen += 1
            continue
        brute = enumerate_active_sets(sens, lim)
        assert_allclose(qp.q_star, brute.q_star, atol=1e-8)
        assert qp.objective_value == pytest.approx(brute.objective_value, abs=1e-10)
        assert qp.kkt_residual < 1e-8
        feasible_seen += 1
    assert feasible_seen >= 20
    assert infeasible_seen >= 5


def test_solution_respects_all_constraints():
    rng = np.random.RandomState(9)
    for _ in range(30):
        sens, lim = random_instance(rng, 3)
        try:
            qp = solve_centralized(sens, lim)
        except InfeasibleProblemError:
            continue
        v = sens.base_v + sens.x @ qp.q_star
        assert np.all(qp.q_star <= lim.q_hi + 1e-9)
        assert np.all(qp.q_star >= lim.q_lo - 1e-9)
        assert np.all(v <= lim.v_hi + 1e-9)
        assert np.all(v >= lim.v_lo - 1e-9)
        for vec in (qp.lam_hi, qp.lam_lo, qp.mu_hi, qp.mu_lo):
            assert np.all(vec >= 0)


def reference_problem(case, scale, trip=None, box=0.2):
    """The case with its loads scaled, and the box the oracle solves it under."""
    case = scale_loads(case, scale)
    if trip is not None:
        case = trip_branch(case, *trip)
    part = partition_buses(case)
    return case, Limits.box(part.n_load, part.n_controlled, q_lo=-box, q_hi=box)


# active sets by PQ position on the inputs C3-C5 and `voltctrl validate` read;
# None marks the input whose box cannot hold the voltage band
REFERENCE_ACTIVE_SETS = [
    ("case14", 3.099, None, 0.2, {"v_lo": (0, 8), "q_hi": (8,)}),
    ("case14", 3.1, None, 0.2, {"v_lo": (0, 8), "q_hi": (8,)}),
    ("case14", 3.1, (4, 5), 0.2, {"v_lo": (0, 8), "q_hi": (0,)}),
    ("case30", 0.25, None, 0.2, {"v_hi": (4, 6)}),
    ("case14", 3.1, None, 0.01, None),
]


def test_heavy_case14_active_pattern(case14, case30):
    # under ~3.1x uniform loading the floor binds at buses 4 and 14 and the
    # bus-14 source saturates; the optimizer leaves bus 12 well under its
    # ceiling because the voltage-controlled bus 6 shields that corner
    heavy, lim = reference_problem(case14, 3.1)
    qp, sens, _ = solve_at(heavy, lim)
    ids = [heavy.buses[i].id for i in sens.partition.pq]
    binding_lo = {ids[i] for i in qp.active_sets["v_lo"]}
    assert binding_lo == {4, 14}
    assert {ids[i] for i in qp.active_sets["q_hi"]} == {14}
    assert qp.kkt_residual <= 1e-10
    v = sens.base_v + sens.x @ qp.q_star
    assert v[ids.index(4)] == pytest.approx(0.95, abs=1e-9)
    assert v[ids.index(14)] == pytest.approx(0.95, abs=1e-9)
    assert qp.q_star[ids.index(14)] == pytest.approx(0.2, abs=1e-9)
    assert np.all(qp.q_star <= 0.2 + 1e-9)
    assert qp.objective_value == pytest.approx(0.0693, abs=2e-4)

    cases = {"case14": case14, "case30": case30}
    for name, scale, trip, box, expected in REFERENCE_ACTIVE_SETS:
        case, lim = reference_problem(cases[name], scale, trip, box)
        if expected is None:
            with pytest.raises(InfeasibleProblemError):
                solve_at(case, lim)
            continue
        qp, sens, _ = solve_at(case, lim)
        active = {family: rows for family, rows in qp.active_sets.items() if rows}
        assert active == expected, (name, scale, trip)
        assert qp.kkt_residual <= 1e-10
        v = sens.base_v + sens.xc @ qp.q_star
        assert np.all(v <= lim.v_hi + 1e-10) and np.all(v >= lim.v_lo - 1e-10)
        assert np.all(qp.q_star <= lim.q_hi + 1e-10) and np.all(qp.q_star >= lim.q_lo - 1e-10)


def test_kkt_residual_flags_broken_complementarity():
    sens, lim = toy_problem()
    qp = solve_centralized(sens, lim)
    # lam_hi prices the ceiling, which sits 0.1 pu away at the optimum
    residual = kkt_residual(
        qp.q_star, (qp.lam_hi + 1.0, qp.lam_lo, qp.mu_hi, qp.mu_lo), sens, lim
    )
    assert residual >= 0.1 - 1e-9


def test_kkt_residual_flags_infeasible_point():
    sens, lim = toy_problem()
    zero = np.zeros(1)
    residual = kkt_residual(zero, (zero, zero, zero, zero), sens, lim)
    assert residual >= 0.03 - 1e-12


def test_kkt_residual_flags_negative_dual():
    sens, lim = toy_problem()
    qp = solve_centralized(sens, lim)
    residual = kkt_residual(
        qp.q_star, (qp.lam_hi - 0.5, qp.lam_lo, qp.mu_hi, qp.mu_lo), sens, lim
    )
    assert residual >= 0.5 - 1e-9


def _perturbed_heavy14(case14, seed):
    """case14 at x3.1 load, each PQ load scaled by (1 + 0.02 u), u uniform in [-1, 1]."""
    if seed == 0:
        return scale_loads(case14, 3.1)
    pq = [b.id for b in case14.buses if b.kind is BusKind.PQ]
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, len(pq))
    return scale_loads(case14, {i: float(f) for i, f in zip(pq, 3.1 * (1.0 + 0.02 * u))})


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda c14, c30, s=s: _perturbed_heavy14(c14, s), id=str(s))
        for s in (0, 1, 28, 35)
    ]
    + [
        pytest.param(lambda c14, c30, f=f: scale_loads(c30, f), id=f"case30x{f}")
        for f in (1.5, 2.0)
    ],
)
def test_nonlinear_loop_settles_on_the_plant_equilibrium(case14, case30, build):
    # the closed loop at tol=1e-10 against the fixed point of the oracle on
    # its own linearization (9.1e-10 worst over case14 seeds 0-41; 9.8e-13
    # and 1.9e-12 on case30 at x1.5 and x2.0, in 10 and 11 iterations)
    case = build(case14, case30)
    part = partition_buses(case)
    lim = Limits.box(part.n_load, part.n_controlled)
    qp, iterations = plant_equilibrium(case, lim)
    assert iterations <= 20
    res = run_static(case, lim, tol=1e-10, plant_mode=PlantMode.NONLINEAR)
    assert res.converged
    assert np.max(np.abs(res.final_q - qp.q_star)) < 2e-9


def test_loop_rates_vanish_at_the_plant_equilibrium(case14):
    # at the fixed point the oracle's multipliers and the plant's own
    # voltage there are an equilibrium of the loop's projected flow
    case = scale_loads(case14, 3.1)
    lim = Limits.box(9, 9)
    qp, _ = plant_equilibrium(case, lim)
    part = partition_buses(case)
    sens, sol = linearized(case, qp.q_star, tol=1e-12)
    state = ControllerState(qp.q_star, qp.lam_hi, qp.lam_lo, qp.mu_hi, qp.mu_lo)
    assert np.max(qp.lam_lo) > 0
    assert np.max(np.abs(dynamics_rhs(state, sol.v[part.pq], sens, lim))) <= 1e-10


@pytest.mark.parametrize("name, factor, qps", [("case14", 3.1, 14), ("case30", 0.25, 7)])
def test_plant_equilibrium_is_the_written_out_iteration(request, name, factor, qps):
    # each iterate linearizes the plant by the one path; written out here
    # (nominal injections plus q, full Newton to 1e-12 warm from the last
    # iterate's solution, X rebased there), the iteration reaches the same
    # answer bit for bit in the same number of QPs
    case = scale_loads(request.getfixturevalue(name), factor)
    part = partition_buses(case)
    lim = Limits.box(part.n_load, part.n_controlled)
    sens = voltage_sensitivity(build_admittance(case), part)
    inj = nominal_injections(case)
    q, sol = np.zeros(part.n_controlled), None
    for iteration in range(1, oracle._EQUILIBRIUM_MAX_ITER + 1):
        full = np.zeros(part.n_load)
        full[part.controlled_in_pq()] = q
        moved = InjectionSet(inj.p_injection, inj.q_injection + full)
        sol = solve_power_flow(case, moved, tol=1e-12, warm_start=sol)
        assert sol.converged
        want = solve_centralized(rebased(sens, base_v=sol.v[part.pq], base_q=full), lim)
        if np.max(np.abs(want.q_star - q)) < 1e-10:
            break
        q = want.q_star
    got, iterations = plant_equilibrium(case, lim)
    assert iterations == iteration == qps
    for family in ("q_star", "lam_hi", "lam_lo", "mu_hi", "mu_lo"):
        assert np.array_equal(getattr(got, family), getattr(want, family))


def test_plant_equilibrium_reports_infeasible_limits(case14):
    with pytest.raises(InfeasibleProblemError):
        plant_equilibrium(scale_loads(case14, 3.1), Limits.box(9, 9, q_lo=-0.01, q_hi=0.01))


def test_plant_equilibrium_reports_a_diverging_power_flow(case30):
    # from q = 0 the undamped iteration's second power flow diverges on
    # case30 at x3.0 load (minimum magnitude 0.60), though the loop settles
    with pytest.raises(PlantDivergenceError, match="iterate 2"):
        plant_equilibrium(scale_loads(case30, 3.0), Limits.box(24, 24))


def test_plant_equilibrium_that_does_not_contract_raises(monkeypatch, case14):
    # two iterations are too few for the x3.1 fixed point; the error gives
    # the last step and the contraction rate
    monkeypatch.setattr(oracle, "_EQUILIBRIUM_MAX_ITER", 2)
    with pytest.raises(NotContractingError, match=r"last step \S+, rate 0\.\d+"):
        plant_equilibrium(scale_loads(case14, 3.1), Limits.box(9, 9))
