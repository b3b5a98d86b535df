"""Nonlinear AC power flow solved by Newton-Raphson in polar form.

This is the plant model: given a network and a set of power injections it
returns the voltage magnitudes and angles that balance the polar power flow
equations

    P_k = V_k sum_n V_n (G_kn cos d_kn + B_kn sin d_kn)
    Q_k = V_k sum_n V_n (G_kn sin d_kn - B_kn cos d_kn)

with d_kn = delta_k - delta_n. Angles are solved at every non-slack bus and
magnitudes at every PQ bus; slack and PV magnitudes stay at their setpoints
(no reactive-limit switching).

Everything that depends only on the network, the complex admittance matrix,
the index sets of the unknowns and equations and the flat-start magnitudes,
comes from the case's cached ``topology`` and is built once per case; a
solve assembles its Jacobian from it by broadcasting. ``jacobian_inverse``
inverts that Jacobian at a solved point. The closed loop takes one per
accepted step: its plant solves inside the step run chord (simplified
Newton) iterations with it (Stott, Proc. IEEE 67(2), 1979), each of which
must halve the mismatch or end the solve unconverged, and its block of
magnitude rows and reactive columns is the exact d|V|/dQ in the Jacobian
of the loop's exponential steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularModelError
from .netcase import NetworkCase, Topology


@dataclass(frozen=True, eq=False)
class InjectionSet:
    """Specified busbar injections in per-unit, generation counted positive.

    ``p_injection`` runs over all buses in case order (the slack entry is
    carried but not enforced). ``q_injection`` runs over PQ buses only, in
    case order, and already contains any controller output added to the
    negated load.
    """

    p_injection: np.ndarray
    q_injection: np.ndarray

    def __post_init__(self) -> None:
        if not (np.all(np.isfinite(self.p_injection)) and np.all(np.isfinite(self.q_injection))):
            raise ValueError("injections must be finite")


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """Voltage solution in case bus order. Angles in radians."""

    v: np.ndarray
    delta: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float


def nominal_injections(case: NetworkCase) -> InjectionSet:
    """Injections from the case data alone: generation minus load, no controllers."""
    p_gen = np.zeros(case.n_buses)
    index = case.bus_index()
    for g in case.generators:
        p_gen[index[g.bus]] += g.p_gen
    p_load = np.array([b.p_load for b in case.buses])
    q_load = np.array([b.q_load for b in case.buses])
    return InjectionSet(p_injection=p_gen - p_load, q_injection=-q_load[case.topology.pq])


def _complex_power(y_bus: np.ndarray, v: np.ndarray, delta: np.ndarray):
    """Complex bus voltages U and bus powers S = diag(U) conj(Y U)."""
    u = v * np.exp(1j * delta)
    return u, u * np.conj(y_bus @ u)


def _jacobian(top: Topology, v: np.ndarray, u: np.ndarray, s_bus: np.ndarray) -> np.ndarray:
    """Jacobian of the computed [P over non-slack; Q over PQ] in [delta; |V_pq|].

    Complex-form partial derivatives of S = diag(U) conj(Y U), with
    A[k, n] = U_k conj(Y_kn U_n):
    dS/d delta = j (diag(S) - A),  dS/d|V| = (diag(S) + A) / |V_n|.
    Only the unknowns' columns are formed, one per row of ``d``; the
    equations are ``top.rows`` of their interleaved float view.
    """
    non_slack, pq = top.non_slack, top.pq
    n_a, cols = len(non_slack), np.concatenate([non_slack, pq])
    a = u[None, :] * np.conj(top.y[:, cols].T * u[cols, None])
    d = np.concatenate([-1j * a[:n_a], a[n_a:] / v[pq, None]])
    d[np.arange(len(cols)), cols] += np.concatenate([1j * s_bus[non_slack], s_bus[pq] / v[pq]])
    return d.view(float)[:, top.rows].T


def solve_power_flow(
    case: NetworkCase,
    inj: InjectionSet,
    tol: float = 1e-8,
    max_iter: int = 30,
    warm_start: PowerFlowSolution | None = None,
    inverse: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Newton-Raphson solve of the polar power flow equations.

    Starts flat (v = 1, delta = 0 at the unknowns) unless ``warm_start``
    supplies a previous solution. Given ``inverse``, the inverse Jacobian
    at a nearby solution (``jacobian_inverse``), every step is a chord
    (simplified Newton) step with it: one residual and one matrix-vector
    product, and no Jacobian is built. A step that leaves the domain (a
    magnitude at or below zero, or a non-finite mismatch) ends the solve,
    and so does a chord step that does not halve the mismatch.
    ``iterations`` counts every step tried against ``max_iter``.
    Non-convergence is reported through ``converged=False``, with the last
    accepted iterate and its mismatch, not an exception; a singular
    Jacobian raises :class:`SingularModelError`. A ``tol`` that is not
    positive and finite, or a ``max_iter`` below 1, raises ``ValueError``.
    """
    if not 0 < tol < np.inf or max_iter < 1:
        raise ValueError("tol must be positive and finite, and max_iter at least 1")
    top = case.topology
    y_bus, non_slack, pq, rows = top.y, top.non_slack, top.pq, top.rows
    n_a = len(non_slack)

    v = top.v_start.copy()
    delta = np.zeros(case.n_buses)
    if warm_start is not None:
        v[pq] = warm_start.v[pq]
        delta[non_slack] = warm_start.delta[non_slack]

    spec = np.concatenate([inj.p_injection[non_slack], inj.q_injection])

    def residual(v, delta):
        u, s = _complex_power(y_bus, v, delta)
        f = spec - s.view(float)[rows]
        return f, float(np.abs(f).max()), u, s

    f, worst, u, s_bus = residual(v, delta)
    iterations = 0
    while worst >= tol and iterations < max_iter:
        if inverse is None:
            try:
                step = np.linalg.solve(_jacobian(top, v, u, s_bus), f)
            except np.linalg.LinAlgError as exc:
                raise SingularModelError(f"power flow Jacobian is singular: {exc}") from exc
        else:
            step = inverse @ f
        iterations += 1
        trial_v, trial_delta = v.copy(), delta.copy()
        trial_delta[non_slack] += step[:n_a]
        trial_v[pq] += step[n_a:]
        # an accepted step keeps magnitudes positive and the mismatch finite;
        # a chord step must also halve it
        limit = np.inf if inverse is None else 0.5 * worst
        trial = residual(trial_v, trial_delta) if trial_v.min() > 0 else None
        if trial is None or not trial[1] < limit:
            break
        v, delta = trial_v, trial_delta
        f, worst, u, s_bus = trial
    return PowerFlowSolution(
        v=v, delta=delta, converged=worst < tol, iterations=iterations, max_mismatch=worst
    )


def jacobian_inverse(case: NetworkCase, sol: PowerFlowSolution) -> np.ndarray:
    """Inverse of the power-flow Jacobian at a solved point.

    Rows and columns run over [delta at non-slack buses; |V| at PQ buses]
    and [P at non-slack buses; Q at PQ buses]. It is the fixed matrix of
    ``solve_power_flow``'s chord steps near ``sol``, and, since the solved
    equations balance the specified injections, its block
    ``[n_a:, n_a + j]`` (n_a non-slack buses) is the exact d|V_pq|/dQ for
    the j-th PQ injection. A singular Jacobian raises
    :class:`SingularModelError`.
    """
    top = case.topology
    u, s_bus = _complex_power(top.y, sol.v, sol.delta)
    try:
        return np.linalg.inv(_jacobian(top, sol.v, u, s_bus))
    except np.linalg.LinAlgError as exc:
        raise SingularModelError(f"power flow Jacobian is singular: {exc}") from exc

