"""Correctness checks applied from outside the program to every timed result.

Each check reuses a threshold the repository already states: criterion C1
(reference power-flow agreement), C7 (raw multiplier minimum), C9 (hour-end
band) and the pass thresholds of ``voltctrl validate``. The static check
re-solves the final operating point with the independent solver in
``tests/_reference.py`` (imported read-only) and recomputes the equilibrium
residual from its own formula, so it shares no code path with the loop it
checks beyond the case data.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

V_LO, V_HI, Q_LO, Q_HI = 0.95, 1.05, -0.2, 0.2  # Limits.box defaults
TOL = 1e-6  # run_static's equilibrium tolerance
REFERENCE_V_TOL = 1e-6  # C1
MULTIPLIER_FLOOR = -1e-9  # C7
BAND_SLACK = 1e-3  # C9
VALIDATE_DQ, VALIDATE_COMP, VALIDATE_KKT = 1e-4, 1e-4, 1e-8  # voltctrl validate


def load_reference(root: Path):
    """Import tests/_reference.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_reference", root / "tests" / "_reference.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _multiplier_failures(res) -> list[str]:
    out = []
    if res.violations.min_multiplier < MULTIPLIER_FLOOR:
        out.append(f"raw multiplier minimum {res.violations.min_multiplier:.3e}")
    recorded = min(
        float(min(s.lam_hi.min(), s.lam_lo.min(), s.mu_hi.min(), s.mu_lo.min()))
        for s in res.trajectory.states
    )
    if recorded < MULTIPLIER_FLOOR:
        out.append(f"recorded multiplier minimum {recorded:.3e}")
    return out


def _bus_sets(case):
    kinds = [b.kind.name for b in case.buses]
    pq = [i for i, k in enumerate(kinds) if k == "PQ"]
    non_slack = [i for i, k in enumerate(kinds) if k != "SLACK"]
    controlled = [pq.index(i) for i, b in enumerate(case.buses) if b.has_controller]
    return pq, non_slack, controlled


def check_static(reference, case, res) -> list[str]:
    """Re-solve the final injections independently; check the equilibrium there."""
    out = [] if res.converged else ["run did not settle"]
    pq, non_slack, controlled = _bus_sets(case)
    index = {b.id: i for i, b in enumerate(case.buses)}
    p_inj = -np.array([b.p_load for b in case.buses])
    for g in case.generators:
        p_inj[index[g.bus]] += g.p_gen
    q_inj = -np.array([case.buses[i].q_load for i in pq])
    q_inj[controlled] += res.final_q
    v_ref, _ = reference.reference_solve(case, p_inj, q_inj)
    dv = float(np.max(np.abs(v_ref - res.final_v)))
    if dv >= REFERENCE_V_TOL:
        out.append(f"final_v differs from the reference solve by {dv:.3e}")

    # X = -(G_LA B_AA^-1 G_AL + B_LL)^-1 from the reference admittance
    y = reference.reference_ybus(case)
    g, b = y.real, y.imag
    a_set = sorted(non_slack)
    core = g[np.ix_(pq, a_set)] @ np.linalg.solve(b[np.ix_(a_set, a_set)], g[np.ix_(a_set, pq)])
    x = np.linalg.inv(-(core + b[np.ix_(pq, pq)]))
    xc = x[:, controlled]
    st = res.trajectory.states[-1]
    v = v_ref[pq]

    def proj(rate, mult):
        return np.where(mult > 0, rate, np.maximum(rate, 0.0))

    rates = np.concatenate([
        -(2.0 * st.q + xc.T @ (st.lam_hi - st.lam_lo) + st.mu_hi - st.mu_lo),
        proj(v - V_HI, st.lam_hi),
        proj(V_LO - v, st.lam_lo),
        proj(st.q - Q_HI, st.mu_hi),
        proj(Q_LO - st.q, st.mu_lo),
    ])
    residual = float(np.max(np.abs(rates)))
    if residual >= 10 * TOL:
        out.append(f"recomputed equilibrium residual {residual:.3e}")
    slack = 10 * TOL
    if v.min() < V_LO - slack or v.max() > V_HI + slack:
        out.append(f"load voltages [{v.min():.6f}, {v.max():.6f}] outside the band")
    if res.final_q.min() < Q_LO - slack or res.final_q.max() > Q_HI + slack:
        out.append(f"q [{res.final_q.min():.6f}, {res.final_q.max():.6f}] outside its box")
    return out + _multiplier_failures(res)


def oracle_gap(res, qp) -> float:
    """Largest gap between the settled q and the oracle's optimum."""
    return float(np.max(np.abs(res.final_q - qp.q_star)))


def check_validate(res, qp, lim) -> list[str]:
    """The pass thresholds of ``voltctrl validate``."""
    out = [] if res.converged else ["controller did not converge"]
    st, v = res.trajectory.states[-1], res.trajectory.v[-1]
    dq = oracle_gap(res, qp)
    slack = np.concatenate([lim.v_hi - v, v - lim.v_lo, lim.q_hi - st.q, st.q - lim.q_lo])
    mults = np.concatenate([st.lam_hi, st.lam_lo, st.mu_hi, st.mu_lo])
    comp = float(np.max(np.abs(mults * slack)))
    if dq >= VALIDATE_DQ:
        out.append(f"|q_sim - q_oracle| {dq:.3e}")
    if comp >= VALIDATE_COMP:
        out.append(f"complementarity {comp:.3e}")
    if qp.kkt_residual >= VALIDATE_KKT:
        out.append(f"oracle KKT residual {qp.kkt_residual:.3e}")
    return out


def check_daily(res) -> list[str]:
    """Hour-end voltages in the band (C9) and nonnegative multipliers (C7)."""
    out = []
    v = res.hourly_final_v
    if v.min() < V_LO - BAND_SLACK or v.max() > V_HI + BAND_SLACK:
        out.append(f"hour-end voltages [{v.min():.6f}, {v.max():.6f}] outside the band")
    return out + _multiplier_failures(res)
