"""Centralized quadratic program used to certify the distributed controller.

Solves min ||q||^2 subject to the linear voltage band and the injection box,

    v_lo <= base_v + X (q - base_q) <= v_hi,    q_lo <= q <= q_hi,

with the dual active-set method of Goldfarb & Idnani (Math. Programming 27,
1983) on the stacked rows A q <= b. It starts at the unconstrained minimizer
q = 0 and adds the most violated row, raising that row's multiplier while
the rows already in the working set stay tight and dropping any whose
multiplier reaches zero first. No feasible start is needed: a violated row
that admits neither step proves the constraints infeasible. The result is
the method's own last iterate: the q that passed the feasibility test and
the working rows' multipliers and active sets, cut by ``Limits.families``
into the dynamics' four families, so a converged trajectory can be checked
against the true optimum and its KKT certificate: ``kkt_residual``, over
the same rows A q <= b. ``solve_at`` is the one place that says where a
certificate reads the plant: it solves the QP on the plant ``linearized``
at a controller output, zero by default, as ``voltctrl validate``, each
``plant_equilibrium`` iterate and the test oracles do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import ROWS, Limits, rows
from .errors import InfeasibleProblemError, NotContractingError, PlantDivergenceError
from .netcase import NetworkCase
from .powerflow import PowerFlowSolution
from .sensitivity import PLANT_TOL, SensitivityMatrix, linearized

# the largest row violation A q - b the QP accepts as feasible, and its cap
# on active-set changes; the max-norm step in q that ends plant_equilibrium,
# and its cap on QPs
_QP_TOL = 1e-10
_QP_MAX_ITER = 2000
_EQUILIBRIUM_TOL = 1e-10
_EQUILIBRIUM_MAX_ITER = 50


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
    """Stack the problem as A q <= b: (``rows(xc)``, minus ``Limits.violation`` at q = 0)."""
    xc = sens.xc
    r = sens.base_v - xc @ sens.partition.gather(sens.base_q)
    return rows(xc), -lim.violation(r, np.zeros(xc.shape[1]))


def _pack_solution(q: np.ndarray, u: np.ndarray, working: list[int], sens, lim) -> QPSolution:
    """The solution at q with multipliers u on the working rows, cut by ``Limits.families``."""
    nu = np.zeros(2 * (sens.partition.n_load + sens.partition.n_controlled))
    nu[working] = u
    multipliers = lim.families(nu)
    held = lim.families(np.isin(np.arange(len(nu)), working))
    active = {name: tuple(np.flatnonzero(on).tolist()) for name, on in zip(ROWS, held)}
    return QPSolution(
        q, *multipliers, active_sets=active, objective_value=float(q @ q),
        kkt_residual=kkt_residual(q, multipliers, sens, lim),
    )


def solve_centralized(sens: SensitivityMatrix, lim: Limits) -> QPSolution:
    """Dual active-set solve of the strictly convex certification QP.

    A row is feasible when ``A q - b`` is at most 1e-10. A row joins the
    working set only when more than 1e-7 of its length lies outside the
    span of the rows already there, so the working rows always have full
    rank.

    Raises :class:`InfeasibleProblemError` when the voltage band cannot be
    met inside the injection box: a violated row lies in the span of the
    working rows, and none of their multipliers can give way to it.
    """
    a, b = _constraint_rows(sens, lim)
    q, u, working, p = np.zeros(sens.partition.n_controlled), np.zeros(0), [], None
    for _ in range(_QP_MAX_ITER):
        if p is None:
            violation = a @ q - b
            p = int(np.argmax(violation))
            if violation[p] <= _QP_TOL:
                return _pack_solution(q, u, working, sens, lim)
            t_p = 0.0
        # keep 2 q + A_w' u + t_p a_p = 0 with the working rows tight: per
        # unit of t_p, u moves by -r and q by -d / 2, where d is the part
        # of a_p outside the working rows' span, taken as none below 1e-7
        # of |a_p|: nearly dependent voltage rows give d up to 1e-8 of
        # |a_p|, and a row joined on such a d steps by 1/|d|^2 and can
        # cycle in and out of the working set
        a_w = a[working]
        r = np.linalg.lstsq(a_w.T, a[p], rcond=None)[0]
        d = a[p] - a_w.T @ r
        in_span = d @ d <= 1e-14 * (a[p] @ a[p])
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
    raise InfeasibleProblemError(f"active-set method did not settle in {_QP_MAX_ITER} iterations")


def solve_at(
    case: NetworkCase, limits: Limits, q: np.ndarray | None = None,
    tol: float = PLANT_TOL, warm_start: PowerFlowSolution | None = None,
) -> tuple[QPSolution, SensitivityMatrix, PowerFlowSolution]:
    """The oracle on the plant linearized at controller output q, zero output when unset.

    ``linearized(case, q, tol, warm_start)``, then ``solve_centralized`` on
    that X; returns the QP solution, X and the plant's power flow, and
    raises what either raises. At the defaults it reads the model that a
    closed loop started at zero output runs.
    """
    if q is None:
        q = np.zeros(case.topology.partition.n_controlled)
    sens, sol = linearized(case, q, tol, warm_start)
    return solve_centralized(sens, limits), sens, sol


def plant_equilibrium(case: NetworkCase, limits: Limits) -> tuple[QPSolution, int]:
    """The nonlinear plant's equilibrium: the fixed point of the oracle on its own linearization.

    Iterates q <- ``solve_at(case, limits, q, tol=1e-12, warm_start)`` from
    q = 0: X ``linearized`` at nominal injections plus q, full Newton to
    1e-12 warm from the last iterate, X rebuilt from the case (about 0.1 ms
    at case14 and case30).
    At the fixed point the linear voltage the oracle reads is the plant's,
    so its KKT conditions are the closed loop's equilibrium conditions with
    the measured voltages. Returns the last QP solution, once its q moved
    by less than 1e-10 in max norm, and the number of QPs solved.
    Contraction is not guaranteed; a run that has not met 1e-10 after 50
    QPs raises :class:`NotContractingError` with its last step
    and rate. Limits infeasible at an iterate's linearization raise
    :class:`InfeasibleProblemError`, and a power flow that does not
    converge :class:`PlantDivergenceError`. Both judge the iteration, not
    the plant: far from the band (case14 at x3.5 load, case30 at x3.0) the
    first linearization can fail while the closed loop still settles.
    """
    q, sol, step, rate = np.zeros(case.topology.partition.n_controlled), None, np.inf, np.nan
    for iteration in range(1, _EQUILIBRIUM_MAX_ITER + 1):
        try:
            qp, _, sol = solve_at(case, limits, q, tol=1e-12, warm_start=sol)
        except PlantDivergenceError as exc:
            raise PlantDivergenceError(f"{exc} at iterate {iteration}") from exc
        moved_by = float(np.max(np.abs(qp.q_star - q)))
        step, rate = moved_by, moved_by / step
        if step < _EQUILIBRIUM_TOL:
            return qp, iteration
        q = qp.q_star
    raise NotContractingError(
        f"fixed-point iteration did not contract below {_EQUILIBRIUM_TOL:g} in "
        f"{_EQUILIBRIUM_MAX_ITER} iterations: last step {step:.3e}, rate {rate:.3g}"
    )


def kkt_residual(q: np.ndarray, multipliers, sens: SensitivityMatrix, lim: Limits) -> float:
    """Worst violation of the KKT conditions of min ||q||^2 subject to A q <= b.

    ``multipliers`` holds lam_hi, lam_lo, mu_hi and mu_lo, stacked as nu in
    the order of ``ROWS``, as ``_constraint_rows`` stacks A and b. The residual
    is the largest magnitude in stationarity 2 q + A' nu, feasibility
    max(A q - b, 0), dual sign max(-nu, 0) and slackness nu (A q - b).
    """
    a, b = _constraint_rows(sens, lim)
    nu = np.concatenate(multipliers)
    slack = a @ q - b
    pieces = (2.0 * q + a.T @ nu, np.maximum(slack, 0.0), np.maximum(-nu, 0.0), nu * slack)
    return float(np.max(np.abs(np.concatenate(pieces)), initial=0.0))
