"""Ten end-to-end release gates, one test per shipped guarantee.

Each test prints a single CRITERION n: PASS/FAIL line with the measured
values; the conftest terminal hook repeats the collected lines after the
run. Where a criterion's expected value depends on the network (the
heavy-load v12 of C4, the fault cost ratio of C5), it is computed in the
test from the centralized QP oracle rather than written in as a literal,
and the verdict line prints the oracle's number beside the measured one,
with the nonlinear plant's certificate (``oracle.plant_equilibrium``) for
information.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _reference import reference_solve, written_out_lagrangian, written_out_violation

from voltctrl.cli import main
from voltctrl.controller import ControllerState, Limits, dynamics_rhs
from voltctrl.netcase import build_admittance, scale_loads, trip_branch
from voltctrl.oracle import plant_equilibrium, solve_at
from voltctrl.powerflow import InjectionSet, nominal_injections, solve_power_flow
from voltctrl.sensitivity import (
    linearized,
    partition_buses,
    predict_voltage,
    voltage_sensitivity,
)
from voltctrl.simulate import (
    PlantMode,
    calibrate_load_scale,
    default_daily_profile,
    run_daily,
    run_fault,
    run_static,
)

# Reference heavy-load load-bus profile the uniform scale factor is fitted
# to; slack and PV magnitudes are fixed setpoints and double as pins.
HEAVY_TARGETS = {
    1: 1.0600, 2: 1.0450, 3: 1.0100, 4: 0.9382, 5: 0.9393, 6: 1.0700,
    7: 0.9806, 8: 1.0900, 9: 0.9362, 10: 0.9348, 11: 0.9899, 12: 1.0167,
    13: 0.9927, 14: 0.8970,
}
PINNED_SETPOINTS = {1: 1.060, 2: 1.045, 3: 1.010, 6: 1.070, 8: 1.090}

TOY_LIMITS = Limits.box(1, 1, q_lo=-0.5, q_hi=0.5)

VERDICTS: list[tuple[int, str]] = []
TRAJECTORIES: list = []


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append((n, line))
    print(line)
    if not ok:
        pytest.fail(line)


def _certificate(case):
    """The nonlinear plant's equilibrium under the default box, with the bus voltages there.

    Informational beside the oracle's value: the gates stay on the oracle.
    """
    part = partition_buses(case)
    qp, _ = plant_equilibrium(case, Limits.box(part.n_load, part.n_controlled))
    _, sol = linearized(case, qp.q_star, tol=1e-12)
    return qp, sol.v


def test_criterion_01_power_flow_fidelity(case14, case30):
    start = time.perf_counter()
    worst = 0.0
    for case in (case14, case30):
        inj = nominal_injections(case)
        sol = solve_power_flow(case, inj)
        assert sol.converged
        v_ref, _ = reference_solve(case, inj.p_injection, inj.q_injection)
        worst = max(worst, float(np.max(np.abs(sol.v - v_ref))))
    idx = case14.bus_index()
    sol14 = solve_power_flow(case14, nominal_injections(case14))
    pin_err = max(
        abs(sol14.v[idx[b]] - v_set) for b, v_set in PINNED_SETPOINTS.items()
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and pin_err < 1e-9 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"reference agreement {worst:.2e} (tol 1e-6), setpoint pin error "
        f"{pin_err:.1e}, {elapsed:.2f} s",
    )


def test_criterion_02_toy_kkt_equivalence(toy2):
    start = time.perf_counter()
    res = run_static(toy2, limits=TOY_LIMITS, plant_mode=PlantMode.LINEAR, tol=1e-7)
    TRAJECTORIES.append(("toy linear", res))
    qp, _, _ = solve_at(toy2, TOY_LIMITS)
    st = res.trajectory.states[-1]
    dq_hand = abs(res.final_q[0] - 0.3)
    dlam_hand = abs(st.lam_lo[0] - 6.0)
    dq_oracle = abs(res.final_q[0] - qp.q_star[0])
    elapsed = time.perf_counter() - start
    ok = (
        res.converged
        and dq_hand < 1e-4
        and dlam_hand < 1e-4
        and dq_oracle < 1e-4
        and elapsed < 1.0
    )
    _verdict(
        2,
        ok,
        f"q* err {dq_hand:.1e}, lower-limit multiplier err {dlam_hand:.1e}, "
        f"oracle gap {dq_oracle:.1e}, {elapsed:.2f} s",
    )


def test_criterion_03_oracle_certification(case14, case30):
    start = time.perf_counter()
    details = []
    ok = True
    for name, case, factor, size in (("14-bus", case14, 3.1, 9), ("30-bus", case30, 0.25, 24)):
        scaled, limits = scale_loads(case, factor), Limits.box(size, size)
        res = run_static(scaled, limits, plant_mode=PlantMode.LINEAR, tol=1e-7)
        TRAJECTORIES.append((f"{name} linear", res))
        qp, _, _ = solve_at(scaled, limits)
        dq = float(np.max(np.abs(res.final_q - qp.q_star)))
        st = res.trajectory.states[-1]
        slack = -written_out_violation(res.trajectory.v[-1], st.q, limits)
        mults = np.concatenate([st.lam_hi, st.lam_lo, st.mu_hi, st.mu_lo])
        comp = float(np.max(np.abs(mults * slack)))
        ok = ok and res.converged and dq < 1e-4 and comp < 1e-4
        details.append(f"{name} dq {dq:.1e} comp {comp:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(3, ok, f"{'; '.join(details)}, {elapsed:.2f} s")


def test_criterion_04_heavy_load_voltage_pattern(case14):
    cal = calibrate_load_scale(case14, HEAVY_TARGETS)
    heavy = scale_loads(case14, cal.factor)
    res = run_static(heavy, plant_mode=PlantMode.NONLINEAR)
    TRAJECTORIES.append(("heavy nonlinear", res))
    assert res.converged
    idx = heavy.bus_index()
    v = {b: float(res.final_v[idx[b]]) for b in (4, 5, 12, 14)}
    q_max = float(np.max(np.abs(res.final_q)))
    if cal.achieved:
        # v12 sits inside the band, so its value depends on the network:
        # expect the oracle's v12 at the calibrated base point
        qp, sens, _ = solve_at(heavy, Limits.box(9, 9))
        q_oracle = np.zeros(sens.partition.n_load)
        q_oracle[sens.partition.controlled_in_pq()] = qp.q_star
        pos12 = int(np.flatnonzero(sens.partition.pq == idx[12])[0])
        v12_oracle = float(predict_voltage(sens, q_oracle)[pos12])
        v12_cert = float(_certificate(heavy)[1][idx[12]])
        checks = {
            "v4": abs(v[4] - 0.95) <= 0.005,
            "v5": abs(v[5] - 0.95) <= 0.005,
            "v14": abs(v[14] - 0.95) <= 0.005,
            "v12": abs(v[12] - v12_oracle) <= 0.005,
            "q cap": q_max <= 0.2 + 1e-9,
        }
        bad = [k for k, good in checks.items() if not good]
        _verdict(
            4,
            not bad,
            f"calibrated scale {cal.factor:.3f} (profile error {cal.max_error:.4f}); "
            f"v4={v[4]:.4f} v5={v[5]:.4f} v14={v[14]:.4f} "
            f"v12={v[12]:.4f} (oracle {v12_oracle:.4f} ± 0.005, certificate {v12_cert:.4f}) "
            f"max|q|={q_max:.4f}"
            + (f"; out of tolerance: {', '.join(bad)}" if bad else ""),
        )
    else:
        part = partition_buses(heavy)
        load_v = res.final_v[part.pq]
        st = res.trajectory.states[-1]
        in_band = bool(np.all(load_v >= 0.945) and np.all(load_v <= 1.055))
        lower_binding = bool(np.any(st.lam_lo > 1e-6))
        _verdict(
            4,
            in_band and lower_binding,
            f"calibration missed (error {cal.max_error:.4f} > 0.02), downgraded "
            f"check: band [{load_v.min():.4f}, {load_v.max():.4f}], "
            f"lower limit binding: {lower_binding}",
        )


def test_criterion_05_fault_cost_increase(case14):
    heavy = scale_loads(case14, 3.1)
    trip = (4, 5)
    res = run_fault(heavy, trip=trip, plant_mode=PlantMode.NONLINEAR)
    TRAJECTORIES.append(("fault nonlinear", res))
    assert res.converged
    part = partition_buses(heavy)
    ctl_ids = [heavy.buses[i].id for i in part.controlled]
    pos4 = ctl_ids.index(4)
    q4_pre = float(res.pre_q[pos4])
    q4_post = float(res.final_q[pos4])
    increased = res.post_cost > res.pre_cost and q4_post > q4_pre
    # expected ratio: the oracle's optimal cost on the tripped case over the
    # intact one, each at its own uncontrolled base point
    qp_pre, _, _ = solve_at(heavy, Limits.box(9, 9))
    qp_post, _, _ = solve_at(trip_branch(heavy, *trip), Limits.box(9, 9))
    ratio_oracle = qp_post.objective_value / qp_pre.objective_value
    agrees = abs(res.cost_ratio - ratio_oracle) <= 0.02 * ratio_oracle
    cert_pre, _ = _certificate(heavy)
    cert_post, _ = _certificate(trip_branch(heavy, *trip))
    ratio_cert = cert_post.objective_value / cert_pre.objective_value
    _verdict(
        5,
        increased and agrees,
        f"cost ratio {res.cost_ratio:.4f} (oracle {ratio_oracle:.4f} ± 2%, certificate "
        f"{ratio_cert:.4f}), pre "
        f"{res.pre_cost:.4f} post {res.post_cost:.4f}, bus-4 injection "
        f"{q4_pre:.4f} -> {q4_post:.4f}",
    )


def _fd_column_errors(case, h=1e-3):
    part = partition_buses(case)
    sens = voltage_sensitivity(build_admittance(case), part)
    inj = nominal_injections(case)
    base = solve_power_flow(case, inj)
    assert base.converged
    errors = []
    for j in range(part.n_load):
        q_plus = inj.q_injection.copy()
        q_plus[j] += h
        q_minus = inj.q_injection.copy()
        q_minus[j] -= h
        v_plus = solve_power_flow(
            case, InjectionSet(inj.p_injection, q_plus), warm_start=base
        )
        v_minus = solve_power_flow(
            case, InjectionSet(inj.p_injection, q_minus), warm_start=base
        )
        assert v_plus.converged and v_minus.converged
        fd = (v_plus.v[part.pq] - v_minus.v[part.pq]) / (2 * h)
        col = sens.x[:, j]
        errors.append(float(np.max(np.abs(fd - col)) / np.max(np.abs(col))))
    return sens, errors


def test_criterion_06_sensitivity_validity(case14, case30):
    details = []
    ok = True
    for name, case in (("14-bus", case14), ("30-bus", case30)):
        sens, errors = _fd_column_errors(case)
        sym = float(np.max(np.abs(sens.x - sens.x.T)))
        eig_min = float(np.min(np.linalg.eigvalsh(sens.x)))
        worst = max(errors)
        ok = ok and worst < 0.10 and sym < 1e-9 and eig_min > 0
        details.append(
            f"{name} worst column {worst:.3f}, symmetry {sym:.1e}, "
            f"min eig {eig_min:.1e}"
        )
    _verdict(6, ok, "; ".join(details))


def test_criterion_08_gradient_consistency(case14):
    part = partition_buses(case14)
    sens, _ = linearized(case14, np.zeros(part.n_controlled))
    lim = Limits.box(part.n_load, part.n_controlled)
    cpos = part.controlled_in_pq()
    rng = np.random.RandomState(20240819)
    m, c = part.n_load, part.n_controlled
    h = 1e-6
    worst = 0.0

    def volts(q):
        dq = np.zeros(m)
        dq[cpos] = q
        return sens.base_v + sens.x @ (dq - sens.base_q)

    for _ in range(100):
        q = rng.uniform(lim.q_lo + 0.02, lim.q_hi - 0.02)
        state = ControllerState(
            q=q,
            lam_hi=rng.uniform(0.0, 1.0, m),
            lam_lo=rng.uniform(0.0, 1.0, m),
            mu_hi=rng.uniform(0.0, 1.0, c),
            mu_lo=rng.uniform(0.0, 1.0, c),
        )
        # the q rows the flow integrates, at unit gains: -dq/dt
        bracket = -dynamics_rhs(state, volts(q), sens, lim)[:c]
        fd = np.zeros(c)
        for i in range(c):
            qp = q.copy()
            qp[i] += h
            qm = q.copy()
            qm[i] -= h
            up = written_out_lagrangian(
                ControllerState(qp, state.lam_hi, state.lam_lo, state.mu_hi, state.mu_lo),
                volts(qp),
                lim,
            )
            dn = written_out_lagrangian(
                ControllerState(qm, state.lam_hi, state.lam_lo, state.mu_hi, state.mu_lo),
                volts(qm),
                lim,
            )
            fd[i] = (up - dn) / (2 * h)
        worst = max(worst, float(np.max(np.abs(bracket - fd))))
    _verdict(8, worst < 1e-8, f"max |bracket - finite difference| {worst:.2e} over 100 states")


def test_criterion_09_daily_run_properties(case14, case30):
    start = time.perf_counter()
    mid14 = scale_loads(case14, 2.5)

    flat = run_daily(mid14, profile=np.ones(24))
    static = run_static(mid14)
    TRAJECTORIES.append(("flat daily", flat))
    TRAJECTORIES.append(("static 2.5", static))
    flat_gap = float(np.max(np.abs(flat.hourly_final_q - static.final_q)))

    peaked = run_daily(mid14, profile=default_daily_profile())
    TRAJECTORIES.append(("peaked daily", peaked))
    unc = peaked.uncontrolled_v
    out_hours = int(np.sum((unc < 0.95).any(axis=1) | (unc > 1.05).any(axis=1)))
    ctl = peaked.hourly_final_v
    in_band = bool(np.all(ctl >= 0.95 - 1e-3) and np.all(ctl <= 1.05 + 1e-3))

    swing = run_daily(case30, profile=np.array([0.25] * 8 + [2.0] * 16))
    TRAJECTORIES.append(("30-bus swing daily", swing))
    sums = swing.hourly_final_q.sum(axis=1)
    flips = bool(np.all(sums[:8] < 0) and np.all(sums[8:] > 0))

    elapsed = time.perf_counter() - start
    ok = (
        flat.converged
        and static.converged
        and peaked.converged
        and swing.converged
        and flat_gap < 1e-6
        and out_hours >= 1
        and in_band
        and flips
        and elapsed < 60.0
    )
    _verdict(
        9,
        ok,
        f"flat-vs-static gap {flat_gap:.1e}, {out_hours} uncontrolled hours out of "
        f"band, controlled in band: {in_band}, aggregate q sign flips at hour 8: "
        f"{flips}, {elapsed:.1f} s",
    )


def test_criterion_10_deterministic_outputs(tmp_path):
    args = ["run", "--case", "case14", "--scale", "3.1", "--plant", "linear"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("trajectory.csv", "voltages_before_after.txt", "summary.txt")
    )
    _verdict(10, same, "repeated runs produce byte-identical reports")


def test_criterion_07_multiplier_nonnegativity(toy2):
    # defined last on purpose: audits every trajectory the module produced
    if not TRAJECTORIES:
        res = run_static(toy2, limits=TOY_LIMITS, plant_mode=PlantMode.NONLINEAR)
        TRAJECTORIES.append(("toy nonlinear standalone", res))
    raw_min = 0.0
    recorded_min = 0.0
    for _, res in TRAJECTORIES:
        raw_min = min(raw_min, res.violations.min_multiplier)
        for st in res.trajectory.states:
            recorded_min = min(
                recorded_min,
                float(min(st.lam_hi.min(), st.lam_lo.min(), st.mu_hi.min(), st.mu_lo.min())),
            )
    ok = raw_min >= -1e-9 and recorded_min >= -1e-9
    _verdict(
        7,
        ok,
        f"{len(TRAJECTORIES)} trajectories audited, raw step minimum "
        f"{raw_min:.1e}, recorded minimum {recorded_min:.1e}",
    )
