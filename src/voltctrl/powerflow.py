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
the index sets of the unknowns and the flat-start magnitudes, comes from the
case's cached ``topology`` and is built once per case; a solve assembles its
Jacobian from it by broadcasting. ``magnitude_sensitivity`` reuses that
Jacobian at a solved point for the exact d|V|/dQ the closed loop's implicit
stages linearize with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularModelError
from .netcase import BusKind, NetworkCase, Topology


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
    pq = case.indices_of(BusKind.PQ)
    return InjectionSet(p_injection=p_gen - p_load, q_injection=-q_load[pq])


def _complex_power(y_bus: np.ndarray, v: np.ndarray, delta: np.ndarray):
    """Complex bus voltages U and bus powers S = diag(U) conj(Y U)."""
    u = v * np.exp(1j * delta)
    return u, u * np.conj(y_bus @ u)


def _jacobian(top: Topology, v: np.ndarray, u: np.ndarray, s_bus: np.ndarray) -> np.ndarray:
    """Jacobian of the computed [P over non-slack; Q over PQ] in [delta; |V_pq|].

    Complex-form partial derivatives of S = diag(U) conj(Y U), with
    A[k, n] = U_k conj(Y_kn U_n):
    dS/d delta = j (diag(S) - A),  dS/d|V| = (diag(S) + A) / |V_n|.
    """
    n_a, n_l = len(top.non_slack), len(top.pq)
    diag = np.diag_indices(len(v))
    a = u[:, None] * np.conj(top.y * u[None, :])
    ds_ddelta = -1j * a
    ds_ddelta[diag] += 1j * s_bus
    ds_dvm = a / v[None, :]
    ds_dvm[diag] += s_bus / v
    jac = np.empty((n_a + n_l, n_a + n_l))
    jac[:n_a, :n_a] = ds_ddelta.real[top.ix_p_delta]
    jac[:n_a, n_a:] = ds_dvm.real[top.ix_p_vm]
    jac[n_a:, :n_a] = ds_ddelta.imag[top.ix_q_delta]
    jac[n_a:, n_a:] = ds_dvm.imag[top.ix_q_vm]
    return jac


def solve_power_flow(
    case: NetworkCase,
    inj: InjectionSet,
    tol: float = 1e-8,
    max_iter: int = 20,
    warm_start: PowerFlowSolution | None = None,
) -> PowerFlowSolution:
    """Newton-Raphson solve of the polar power flow equations.

    Starts flat (v = 1, delta = 0 at the unknowns) unless ``warm_start``
    supplies a previous solution. Non-convergence within ``max_iter`` is
    reported through ``converged=False``, not an exception; a singular
    Jacobian raises :class:`SingularModelError`.
    """
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter at least 1")
    top = case.topology
    y_bus, non_slack, pq = top.y, top.non_slack, top.pq
    n_a = len(non_slack)

    v = top.v_start.copy()
    delta = np.zeros(case.n_buses)
    if warm_start is not None:
        v[pq] = warm_start.v[pq]
        delta[non_slack] = warm_start.delta[non_slack]

    p_spec = inj.p_injection[non_slack]
    q_spec = inj.q_injection

    def residual(v, delta):
        u, s = _complex_power(y_bus, v, delta)
        return np.concatenate([p_spec - s.real[non_slack], q_spec - s.imag[pq]]), u, s

    f, u, s_bus = residual(v, delta)
    worst = float(np.max(np.abs(f)))
    iterations = 0
    converged = worst < tol
    while not converged and iterations < max_iter:
        jac = _jacobian(top, v, u, s_bus)
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError as exc:
            raise SingularModelError(f"power flow Jacobian is singular: {exc}") from exc
        delta = delta.copy()
        v = v.copy()
        delta[non_slack] += step[:n_a]
        v[pq] += step[n_a:]
        iterations += 1
        if not (np.all(np.isfinite(v)) and np.all(v > 0) and np.all(np.isfinite(delta))):
            worst = float("inf")
            break
        f, u, s_bus = residual(v, delta)
        worst = float(np.max(np.abs(f)))
        converged = worst < tol
    return PowerFlowSolution(
        v=v, delta=delta, converged=converged, iterations=iterations, max_mismatch=worst
    )


def magnitude_sensitivity(
    case: NetworkCase, sol: PowerFlowSolution, columns: np.ndarray
) -> np.ndarray:
    """d|V_pq|/dQ at a solved point for the PQ injections at positions ``columns``.

    Differentiates the solved equations with respect to the specified
    reactive injections: one solve of the power-flow Jacobian at ``sol``
    against a unit right-hand side per column, keeping the magnitude rows.
    Returns an M x len(columns) matrix; a singular Jacobian raises
    :class:`SingularModelError`.
    """
    top = case.topology
    n_a = len(top.non_slack)
    u, s_bus = _complex_power(top.y, sol.v, sol.delta)
    jac = _jacobian(top, sol.v, u, s_bus)
    unit = np.zeros((len(jac), len(columns)))
    unit[n_a + np.asarray(columns), np.arange(len(columns))] = 1.0
    try:
        return np.linalg.solve(jac, unit)[n_a:]
    except np.linalg.LinAlgError as exc:
        raise SingularModelError(f"power flow Jacobian is singular: {exc}") from exc


def mismatch(
    case: NetworkCase, inj: InjectionSet, sol: PowerFlowSolution
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the solved equations: specified minus computed power.

    Returns (delta_p over non-slack buses, delta_q over PQ buses), both in
    case bus order.
    """
    top = case.topology
    _, s = _complex_power(top.y, sol.v, sol.delta)
    return (
        inj.p_injection[top.non_slack] - s.real[top.non_slack],
        inj.q_injection - s.imag[top.pq],
    )


def bus_power(case: NetworkCase, sol: PowerFlowSolution) -> tuple[np.ndarray, np.ndarray]:
    """Actual per-bus active and reactive network injections at a solution."""
    _, s = _complex_power(case.topology.y, sol.v, sol.delta)
    return s.real, s.imag
