"""Distributed volt/var controller as primal-dual gradient dynamics.

The controllers jointly minimize f(Q) = sum_i Q_i^2 subject to voltage
limits at every load bus and box limits on each injection. The Lagrangian

    L = f(Q) + lam_lo'(v_lo - v) + lam_hi'(v - v_hi)
             + mu_lo'(q_lo - Q) + mu_hi'(Q - q_hi)

is driven to its saddle point by gradient descent in Q and projected
gradient ascent in the multipliers. Controller i only needs its own state,
its measured voltage, and the voltage multipliers weighted by column i of
the sensitivity matrix, which is what makes the scheme distributed.

Q is never clipped to its box; the mu dynamics enforce the box at
equilibrium and transient excursions are allowed through.

The flow itself, ``packed_flow``, works on one packed vector
[q, lam_hi, lam_lo, mu_hi, mu_lo] and returns the rates together with the
mask of rows the projection leaves active; ``flow_jacobian`` is the
constant unprojected Jacobian under the linear plant, so the Jacobian of
the projected flow is its active rows. ``flow_newton_step`` solves an
implicit stage's Newton system through its C x C Schur complement in q,
with the plant's own voltage sensitivity in the lam rows' q block (the
nonlinear plant's dv/dq is not X); ``flow_jacobian`` stays as its
documented reference. This module is the only one that knows the packed
layout. ``dynamics_rhs`` is the validating wrapper over ``ControllerState``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gains:
    """Rate coefficients of the three dynamics blocks, all in 1/s."""

    k_q: float = 1.0
    k_lam: float = 1.0
    k_mu: float = 1.0

    def __post_init__(self) -> None:
        if min(self.k_q, self.k_lam, self.k_mu) <= 0:
            raise ValueError("gains must be positive")


@dataclass(frozen=True, eq=False)
class Limits:
    """Voltage band per load bus and injection box per controller."""

    v_lo: np.ndarray
    v_hi: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray

    def __post_init__(self) -> None:
        if self.v_lo.shape != self.v_hi.shape or self.q_lo.shape != self.q_hi.shape:
            raise ValueError("limit vectors must come in equal-shaped pairs")
        if not np.all(self.v_lo < self.v_hi):
            raise ValueError("v_lo must be below v_hi")
        if not np.all(self.q_lo < self.q_hi):
            raise ValueError("q_lo must be below q_hi")

    @classmethod
    def box(
        cls,
        n_load: int,
        n_controlled: int,
        v_lo: float = 0.95,
        v_hi: float = 1.05,
        q_lo: float = -0.2,
        q_hi: float = 0.2,
    ) -> "Limits":
        return cls(
            v_lo=np.full(n_load, v_lo),
            v_hi=np.full(n_load, v_hi),
            q_lo=np.full(n_controlled, q_lo),
            q_hi=np.full(n_controlled, q_hi),
        )


@dataclass(frozen=True, eq=False)
class ControllerState:
    """Primal injections plus the four nonnegative multiplier vectors.

    lam pairs run over the M load buses, q and mu pairs over the C
    controlled buses.
    """

    q: np.ndarray
    lam_hi: np.ndarray
    lam_lo: np.ndarray
    mu_hi: np.ndarray
    mu_lo: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lam_hi", "lam_lo", "mu_hi", "mu_lo"):
            arr = getattr(self, name)
            if np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")
        for name in ("q", "lam_hi", "lam_lo", "mu_hi", "mu_lo"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")
        if self.lam_hi.shape != self.lam_lo.shape:
            raise ValueError("lam vectors must agree in shape")
        if not (self.q.shape == self.mu_hi.shape == self.mu_lo.shape):
            raise ValueError("q and mu vectors must agree in shape")

    @classmethod
    def zeros(cls, n_load: int, n_controlled: int) -> "ControllerState":
        return cls(
            q=np.zeros(n_controlled),
            lam_hi=np.zeros(n_load),
            lam_lo=np.zeros(n_load),
            mu_hi=np.zeros(n_controlled),
            mu_lo=np.zeros(n_controlled),
        )

    def packed(self) -> np.ndarray:
        return np.concatenate([self.q, self.lam_hi, self.lam_lo, self.mu_hi, self.mu_lo])


@dataclass(frozen=True, eq=False)
class StateRates:
    """Time derivative of a ControllerState; multiplier rates may be negative."""

    q: np.ndarray
    lam_hi: np.ndarray
    lam_lo: np.ndarray
    mu_hi: np.ndarray
    mu_lo: np.ndarray

    def packed(self) -> np.ndarray:
        return np.concatenate([self.q, self.lam_hi, self.lam_lo, self.mu_hi, self.mu_lo])


def _split(vec: np.ndarray, n_load: int, n_controlled: int) -> list[np.ndarray]:
    """Views of the five blocks q, lam_hi, lam_lo, mu_hi, mu_lo of a packed vector."""
    m, c = n_load, n_controlled
    bounds = (0, c, c + m, c + 2 * m, 2 * c + 2 * m, None)
    return [vec[a:b] for a, b in zip(bounds, bounds[1:])]


def unpack_state(vec: np.ndarray, n_load: int, n_controlled: int) -> ControllerState:
    m, c = n_load, n_controlled
    if len(vec) != 3 * c + 2 * m:
        raise ValueError(f"state vector length {len(vec)} does not match M={m}, C={c}")
    return ControllerState(*_split(vec, m, c))


def objective(q: np.ndarray) -> float:
    return float(np.dot(q, q))


def objective_gradient(q: np.ndarray) -> np.ndarray:
    return 2.0 * np.asarray(q, dtype=float)


def lagrangian(state: ControllerState, v: np.ndarray, lim: Limits) -> float:
    return float(
        objective(state.q)
        + state.lam_lo @ (lim.v_lo - v)
        + state.lam_hi @ (v - lim.v_hi)
        + state.mu_lo @ (lim.q_lo - state.q)
        + state.mu_hi @ (state.q - lim.q_hi)
    )


def _gradient(q, lam_hi, lam_lo, mu_hi, mu_lo, xc: np.ndarray) -> np.ndarray:
    return objective_gradient(q) + xc.T @ (lam_hi - lam_lo) + mu_hi - mu_lo


def primal_rate_bracket(state: ControllerState, sens) -> np.ndarray:
    """The gradient of L in q: 2q_i + sum_j X[j][i] (lam_hi - lam_lo)_j + mu_hi_i - mu_lo_i."""
    xc = sens.x[:, sens.partition.controlled_in_pq()]
    return _gradient(state.q, state.lam_hi, state.lam_lo, state.mu_hi, state.mu_lo, xc)


def packed_flow(
    y: np.ndarray, v: np.ndarray, xc: np.ndarray, lim: Limits, gains: Gains, held=False
) -> tuple[np.ndarray, np.ndarray]:
    """Saddle-point flow at a packed state and its measured voltages.

    ``xc`` holds the sensitivity columns of the controlled buses (M x C).
    Returns the rates and the active-row mask: all q rows, and each
    multiplier row whose multiplier is positive, whose constraint is
    violated, or which ``held`` marks (a mask over the multiplier rows that
    keeps them on one smooth piece of the flow). Inactive multiplier rows
    are projected to a zero rate. No input is validated; ``dynamics_rhs``
    is the checked entry point.
    """
    m, c = xc.shape
    q, lam_hi, lam_lo, mu_hi, mu_lo = _split(y, m, c)
    raw = np.concatenate([v - lim.v_hi, lim.v_lo - v, q - lim.q_hi, lim.q_lo - q])
    on = (y[c:] > 0) | (raw > 0) | held
    ascent = np.where(on, raw, 0.0)
    rates = np.concatenate(
        [
            -gains.k_q * _gradient(q, lam_hi, lam_lo, mu_hi, mu_lo, xc),
            gains.k_lam * ascent[: 2 * m],
            gains.k_mu * ascent[2 * m :],
        ]
    )
    return rates, np.concatenate([np.ones(c, dtype=bool), on])


def flow_jacobian(xc: np.ndarray, gains: Gains) -> np.ndarray:
    """Jacobian of ``packed_flow``'s rates with every row active.

    The flow is piecewise linear in the packed state when v = base + xc q,
    so the Jacobian at any state is this matrix with its inactive rows
    zeroed: ``flow_jacobian(xc, gains) * active[:, None]``.
    """
    m, c = xc.shape
    k_q, k_lam, k_mu = gains.k_q, gains.k_lam, gains.k_mu
    eye = np.eye(c)
    jac = np.zeros((3 * c + 2 * m, 3 * c + 2 * m))
    jac[:c] = np.hstack([-2.0 * k_q * eye, -k_q * xc.T, k_q * xc.T, -k_q * eye, k_q * eye])
    jac[c:, :c] = np.vstack([k_lam * xc, -k_lam * xc, k_mu * eye, -k_mu * eye])
    return jac


def flow_newton_step(
    xc: np.ndarray,
    gx: np.ndarray,
    gains: Gains,
    h: float,
    active: np.ndarray,
    resid: np.ndarray,
) -> np.ndarray:
    """Solve (I - h/2 (J * active[:, None])) dz = resid for the closed loop's J.

    J is ``flow_jacobian`` with the plant's own voltage sensitivity ``gx``
    (M x C, dv/dq at the controlled buses) in the lam rows' q columns:
    +k_lam gx for lam_hi, -k_lam gx for lam_lo. The q rows are the
    controller's own dynamics and keep ``xc``; with ``gx = xc`` J is
    ``flow_jacobian`` itself. The multiplier rows of J depend only on the q
    columns, so the system reduces exactly to the C x C one

        S dq = r_q + (h/2) J_qm r_m,
        S = (1 + h k_q) I + (h^2/4) k_q (k_lam xc' D_lam gx + k_mu D_mu),

    where D_lam counts the active lam_hi and lam_lo rows of each load bus
    and D_mu the active mu rows of each controller; then
    dm = r_m + (h/2) active_m (J_mq dq). S is not symmetric when gx differs
    from xc, and a singular S raises ``numpy.linalg.LinAlgError``.
    """
    m, c = xc.shape
    k_q, k_lam, k_mu = gains.k_q, gains.k_lam, gains.k_mu
    r_q, r_lhi, r_llo, r_mhi, r_mlo = _split(resid, m, c)
    _, a_lhi, a_llo, a_mhi, a_mlo = _split(active, m, c)
    d_lam = np.add(a_lhi, a_llo, dtype=float)
    d_mu = np.add(a_mhi, a_mlo, dtype=float)
    s = (0.25 * h * h * k_q * k_lam) * (xc.T @ (d_lam[:, None] * gx))
    s[np.diag_indices(c)] += 1.0 + h * k_q + (0.25 * h * h * k_q * k_mu) * d_mu
    rhs = r_q - (0.5 * h * k_q) * (xc.T @ (r_lhi - r_llo) + r_mhi - r_mlo)
    dq = np.linalg.solve(s, rhs)
    xdq = (0.5 * h * k_lam) * (gx @ dq)
    udq = (0.5 * h * k_mu) * dq
    dm = resid[c:] + active[c:] * np.concatenate([xdq, -xdq, udq, -udq])
    return np.concatenate([dq, dm])


def dynamics_rhs(
    state: ControllerState,
    v_measured: np.ndarray,
    sens,
    lim: Limits,
    gains: Gains = Gains(),
) -> StateRates:
    """Saddle-point flow of the Lagrangian at the measured voltages.

    Descent in q on the full gradient; projected ascent in each multiplier
    on its own constraint violation.
    """
    v_measured = np.asarray(v_measured, dtype=float)
    if v_measured.shape != state.lam_hi.shape:
        raise ValueError("measured voltage length must match the load-bus count")
    if not np.all(np.isfinite(v_measured)):
        raise ValueError("measured voltages contain non-finite values")
    xc = sens.x[:, sens.partition.controlled_in_pq()]
    rates, _ = packed_flow(state.packed(), v_measured, xc, lim, gains)
    return StateRates(*_split(rates, *xc.shape))


def equilibrium_residual(
    state: ControllerState,
    v_measured: np.ndarray,
    sens,
    lim: Limits,
    gains: Gains = Gains(),
) -> float:
    """Infinity norm of the projected state derivative; zero at a saddle point."""
    return float(np.max(np.abs(dynamics_rhs(state, v_measured, sens, lim, gains).packed())))
