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


def unpack_state(vec: np.ndarray, n_load: int, n_controlled: int) -> ControllerState:
    m, c = n_load, n_controlled
    if len(vec) != 3 * c + 2 * m:
        raise ValueError(f"state vector length {len(vec)} does not match M={m}, C={c}")
    return ControllerState(
        q=vec[:c],
        lam_hi=vec[c : c + m],
        lam_lo=vec[c + m : c + 2 * m],
        mu_hi=vec[c + 2 * m : 2 * c + 2 * m],
        mu_lo=vec[2 * c + 2 * m :],
    )


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


def _project(rates: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    return np.where(multipliers > 0, rates, np.maximum(rates, 0.0))


def primal_rate_bracket(state: ControllerState, sens) -> np.ndarray:
    """The gradient of L in q: 2q_i + sum_j X[j][i] (lam_hi - lam_lo)_j + mu_hi_i - mu_lo_i."""
    cpos = sens.partition.controlled_in_pq()
    coupling = sens.x[:, cpos].T @ (state.lam_hi - state.lam_lo)
    return objective_gradient(state.q) + coupling + state.mu_hi - state.mu_lo


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
    return StateRates(
        q=-gains.k_q * primal_rate_bracket(state, sens),
        lam_hi=gains.k_lam * _project(v_measured - lim.v_hi, state.lam_hi),
        lam_lo=gains.k_lam * _project(lim.v_lo - v_measured, state.lam_lo),
        mu_hi=gains.k_mu * _project(state.q - lim.q_hi, state.mu_hi),
        mu_lo=gains.k_mu * _project(lim.q_lo - state.q, state.mu_lo),
    )


def equilibrium_residual(
    state: ControllerState,
    v_measured: np.ndarray,
    sens,
    lim: Limits,
    gains: Gains = Gains(),
) -> float:
    """Infinity norm of the projected state derivative; zero at a saddle point."""
    return float(np.max(np.abs(dynamics_rhs(state, v_measured, sens, lim, gains).packed())))
