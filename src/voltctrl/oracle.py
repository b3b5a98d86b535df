"""Centralized quadratic program used to certify the distributed controller.

Solves min ||q||^2 subject to the linear voltage band and the injection box,

    v_lo <= base_v + X (q - base_q) <= v_hi,    q_lo <= q <= q_hi,

with the dual active-set method of Goldfarb & Idnani (Math. Programming 27,
1983) on the stacked rows A q <= b. It starts at the unconstrained minimizer
q = 0 and adds the most violated row, raising that row's multiplier while
the rows already in the working set stay tight and dropping any whose
multiplier reaches zero first. No feasible start is needed: a violated row
that admits neither step proves the constraints infeasible. The result
carries the multipliers in the same four-vector layout the dynamics use, so
a converged trajectory can be checked against the true optimum and its KKT
certificate directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import Limits
from .errors import InfeasibleProblemError, NotContractingError, PlantDivergenceError
from .netcase import NetworkCase
from .powerflow import InjectionSet, nominal_injections, solve_power_flow
from .sensitivity import SensitivityMatrix, rebased, voltage_sensitivity


@dataclass(frozen=True, eq=False)
class QPSolution:
    """Primal/dual optimum of the centralized problem.

    ``active_sets`` maps constraint family to the binding positions:
    voltage entries index the load-bus ordering, box entries the controller
    ordering.
    """

    q_star: np.ndarray
    lam_hi: np.ndarray
    lam_lo: np.ndarray
    mu_hi: np.ndarray
    mu_lo: np.ndarray
    active_sets: dict[str, tuple[int, ...]]
    objective_value: float
    kkt_residual: float


def _constraint_rows(sens: SensitivityMatrix, lim: Limits):
    """Stack the problem as A q <= b, returning (A, b, M, C)."""
    cpos = sens.partition.controlled_in_pq()
    m, c = sens.partition.n_load, len(cpos)
    xc = sens.x[:, cpos]
    r = sens.base_v - xc @ sens.base_q[cpos]
    eye = np.eye(c)
    a = np.vstack([xc, -xc, eye, -eye])
    b = np.concatenate([lim.v_hi - r, r - lim.v_lo, lim.q_hi, -lim.q_lo])
    return a, b, m, c


def _equality_solve(a_w: np.ndarray, b_w: np.ndarray, c: int):
    """Minimize ||q||^2 subject to A_w q = b_w; returns (q, duals)."""
    if len(b_w) == 0:
        return np.zeros(c), np.zeros(0)
    gram = a_w @ a_w.T
    try:
        alpha = np.linalg.solve(gram, b_w)
    except np.linalg.LinAlgError:
        alpha, *_ = np.linalg.lstsq(gram, b_w, rcond=None)
    return a_w.T @ alpha, -2.0 * alpha


def _pack_solution(
    q: np.ndarray, duals: np.ndarray, working: list[int], sens, lim, m: int, c: int
) -> QPSolution:
    nu = np.zeros(2 * m + 2 * c)
    for row, d in zip(working, duals):
        nu[row] = max(d, 0.0)
    lam_hi, lam_lo = nu[:m], nu[m : 2 * m]
    mu_hi, mu_lo = nu[2 * m : 2 * m + c], nu[2 * m + c :]
    in_w = set(working)
    active = {
        "v_hi": tuple(i for i in range(m) if i in in_w),
        "v_lo": tuple(i - m for i in sorted(in_w) if m <= i < 2 * m),
        "q_hi": tuple(i - 2 * m for i in sorted(in_w) if 2 * m <= i < 2 * m + c),
        "q_lo": tuple(i - 2 * m - c for i in sorted(in_w) if i >= 2 * m + c),
    }
    residual = kkt_residual(q, (lam_hi, lam_lo, mu_hi, mu_lo), sens, lim)
    return QPSolution(
        q_star=q,
        lam_hi=lam_hi,
        lam_lo=lam_lo,
        mu_hi=mu_hi,
        mu_lo=mu_lo,
        active_sets=active,
        objective_value=float(q @ q),
        kkt_residual=residual,
    )


def solve_centralized(
    sens: SensitivityMatrix, lim: Limits, tol: float = 1e-10, max_iter: int = 2000
) -> QPSolution:
    """Dual active-set solve of the strictly convex certification QP.

    ``tol`` is the largest row violation ``A q - b`` accepted as feasible.
    A row joins the working set only when it lies outside the span of the
    rows already there, so the working rows always have full rank.

    Raises :class:`InfeasibleProblemError` when the voltage band cannot be
    met inside the injection box: a violated row lies in the span of the
    working rows, and none of their multipliers can give way to it.
    """
    a, b, m, c = _constraint_rows(sens, lim)
    q, u, working, p = np.zeros(c), np.zeros(0), [], None
    for _ in range(max_iter):
        if p is None:
            violation = a @ q - b
            p = int(np.argmax(violation))
            if violation[p] <= tol:
                q, duals = _equality_solve(a[working], b[working], c)
                return _pack_solution(q, duals, working, sens, lim, m, c)
            t_p = 0.0
        # keep 2 q + A_w' u + t_p a_p = 0 with the working rows tight: per
        # unit of t_p, u moves by -r and q by -d / 2, where d is the part
        # of a_p outside the working rows' span (taken as none when it is
        # below 1e-10 of |a_p|)
        a_w = a[working]
        r = np.linalg.lstsq(a_w.T, a[p], rcond=None)[0]
        d = a[p] - a_w.T @ r
        in_span = d @ d <= 1e-20 * (a[p] @ a[p])
        # step 0 makes row p tight; step j + 1 zeroes working multiplier j
        full = np.inf if in_span else 2.0 * (a[p] @ q - b[p]) / (d @ d)
        steps = np.append(full, np.divide(u, r, out=np.full(len(u), np.inf), where=r > 0))
        k = int(np.argmin(steps))
        if steps[k] == np.inf:
            raise InfeasibleProblemError(
                "constraints are infeasible: the dual step on a violated row is unbounded"
            )
        q = q - 0.5 * steps[k] * d
        u = np.maximum(u - steps[k] * r, 0.0)
        t_p += steps[k]
        if k == 0:
            working, u, p = working + [p], np.append(u, t_p), None
        else:
            working.pop(k - 1)
            u = np.delete(u, k - 1)
    raise InfeasibleProblemError(f"active-set method did not settle in {max_iter} iterations")


def plant_equilibrium(
    case: NetworkCase, limits: Limits, tol: float = 1e-10, max_iter: int = 50
) -> tuple[QPSolution, int]:
    """The nonlinear plant's equilibrium: the fixed point of the oracle on its own linearization.

    Iterates q <- ``solve_centralized(rebased(sens, base_v=v(q), base_q=q), limits).q_star``
    from q = 0, with v(q) the full-Newton power flow at q solved to 1e-12.
    At the fixed point the linear voltage the oracle reads is the plant's,
    so its KKT conditions are the closed loop's equilibrium conditions with
    the measured voltages. Returns the last QP solution, once its q moved
    by less than ``tol`` in max norm, and the number of QPs solved.
    Contraction is not guaranteed; a run that has not met ``tol`` after
    ``max_iter`` QPs raises :class:`NotContractingError` with its last step
    and rate. Limits infeasible at an iterate's linearization raise
    :class:`InfeasibleProblemError`, and a power flow that does not
    converge :class:`PlantDivergenceError`. Both judge the iteration, not
    the plant: far from the band (case14 at x3.5 load, case30 at x3.0) the
    first linearization can fail while the closed loop still settles.
    """
    part = case.topology.partition
    cpos = part.controlled_in_pq()
    sens = voltage_sensitivity(case.topology.y, part)
    inj = nominal_injections(case)
    q, sol, step, rate = np.zeros(len(cpos)), None, np.inf, np.nan
    for iteration in range(1, max_iter + 1):
        full = np.zeros(part.n_load)
        full[cpos] = q
        moved = InjectionSet(inj.p_injection, inj.q_injection + full)
        sol = solve_power_flow(case, moved, tol=1e-12, max_iter=30, warm_start=sol)
        if not sol.converged:
            raise PlantDivergenceError(f"power flow did not converge at iterate {iteration}")
        qp = solve_centralized(rebased(sens, base_v=sol.v[part.pq], base_q=full), limits)
        moved_by = float(np.max(np.abs(qp.q_star - q)))
        step, rate = moved_by, moved_by / step
        if step < tol:
            return qp, iteration
        q = qp.q_star
    raise NotContractingError(
        f"fixed-point iteration did not contract below {tol:g} in {max_iter} iterations: "
        f"last step {step:.3e}, rate {rate:.3g}"
    )


def kkt_residual(q: np.ndarray, multipliers, sens: SensitivityMatrix, lim: Limits) -> float:
    """Worst violation of stationarity, feasibility, dual sign, or slackness.

    ``multipliers`` is the tuple (lam_hi, lam_lo, mu_hi, mu_lo).
    """
    lam_hi, lam_lo, mu_hi, mu_lo = multipliers
    cpos = sens.partition.controlled_in_pq()
    xc = sens.x[:, cpos]
    v = sens.base_v + xc @ (q - sens.base_q[cpos])
    stationarity = 2.0 * q + xc.T @ (lam_hi - lam_lo) + mu_hi - mu_lo
    pieces = [
        stationarity,
        np.maximum(v - lim.v_hi, 0.0),
        np.maximum(lim.v_lo - v, 0.0),
        np.maximum(q - lim.q_hi, 0.0),
        np.maximum(lim.q_lo - q, 0.0),
        np.maximum(-lam_hi, 0.0),
        np.maximum(-lam_lo, 0.0),
        np.maximum(-mu_hi, 0.0),
        np.maximum(-mu_lo, 0.0),
        lam_hi * (v - lim.v_hi),
        lam_lo * (lim.v_lo - v),
        mu_hi * (q - lim.q_hi),
        mu_lo * (lim.q_lo - q),
    ]
    return float(max(np.max(np.abs(p)) if len(p) else 0.0 for p in pieces))
