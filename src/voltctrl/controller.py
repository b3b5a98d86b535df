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

The flow itself is ``PackedFlow``, compiled once for a sensitivity,
limits and gains. It works on one packed vector [q, lam_hi, lam_lo, mu_hi,
mu_lo]: ``rates`` returns the rates together with the mask of rows the
projection leaves active, and ``newton_step`` solves an implicit stage's
Newton system through its C x C Schur complement in q, with the plant's own
voltage sensitivity in the lam rows' q block (the nonlinear plant's dv/dq
is not X; ``set_plant_sensitivity`` stores it). ``flow_jacobian`` is the
constant unprojected Jacobian under the linear plant, so the Jacobian of
the projected flow is its active rows; it stays as the documented
reference. This module is the only one that knows the packed layout.
``dynamics_rhs`` is the validating wrapper over ``ControllerState``, and
``trajectory_states`` checks a whole trajectory's packed rows at once.
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
        for name, value in vars(self).items():
            if not 0 < value < np.inf:
                raise ValueError(f"gain {name} must be positive and finite, got {value}")


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
        for name in ("v_lo", "v_hi", "q_lo", "q_hi"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"limit {name} must be finite")
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


def trajectory_states(
    rows: np.ndarray, n_load: int, n_controlled: int
) -> tuple[ControllerState, ...]:
    """One state per row of a 2-D array of packed states, checked once as one array.

    Every entry must be finite and every multiplier nonnegative, which is
    what ``ControllerState`` checks one state at a time, so the states are
    built without repeating it. Their arrays are views of ``rows``.
    """
    m, c = n_load, n_controlled
    if rows.ndim != 2 or rows.shape[1] != 3 * c + 2 * m:
        raise ValueError(f"state rows of shape {rows.shape} do not match M={m}, C={c}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("state rows contain non-finite values")
    if np.any(rows[:, c:] < 0):
        raise ValueError("multipliers must be nonnegative")
    states = []
    for row in rows:
        state = object.__new__(ControllerState)
        vars(state).update(zip(("q", "lam_hi", "lam_lo", "mu_hi", "mu_lo"), _split(row, m, c)))
        states.append(state)
    return tuple(states)


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


def primal_rate_bracket(state: ControllerState, sens) -> np.ndarray:
    """The gradient of L in q: 2q_i + sum_j X[j][i] (lam_hi - lam_lo)_j + mu_hi_i - mu_lo_i."""
    xc = sens.x[:, sens.partition.controlled_in_pq()]
    lam = state.lam_hi - state.lam_lo
    return objective_gradient(state.q) + xc.T @ lam + state.mu_hi - state.mu_lo


def flow_jacobian(xc: np.ndarray, gains: Gains) -> np.ndarray:
    """Jacobian of the packed flow's rates with every row active, under the linear plant.

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


class PackedFlow:
    """The saddle-point flow compiled for one sensitivity, limits and gains.

    States are packed vectors [q, lam_hi, lam_lo, mu_hi, mu_lo]; ``xc``
    holds the sensitivity columns of the controlled buses (M x C). Before
    projection the rates are affine in the state and the measured voltages:
    the q rows are -k_q times the Lagrangian's gradient in q, and each
    multiplier row is its gain times its constraint's violation
    (v - v_hi, v_lo - v, q - q_hi, q_lo - q). The map is built once, with
    the violations in place of the multiplier rates, so the projection
    tests the violations themselves and the gains scale what it keeps. No
    input is validated; ``dynamics_rhs`` is the checked entry point.
    """

    def __init__(self, xc: np.ndarray, lim: Limits, gains: Gains):
        m, c = xc.shape
        self.c, self.k_q, self.k_lam = c, gains.k_q, gains.k_lam
        jac = flow_jacobian(xc, gains)
        # q rates, then violations: the lam rows read v, the mu rows q
        self._of_y = np.zeros_like(jac)
        self._of_y[:c] = jac[:c]
        self._of_y[c + 2 * m :, :c] = np.vstack([np.eye(c), -np.eye(c)])
        self._of_v = np.vstack([np.zeros((c, m)), np.eye(m), -np.eye(m), np.zeros((2 * c, m))])
        self._offset = np.concatenate([np.zeros(c), -lim.v_hi, lim.v_lo, -lim.q_hi, lim.q_lo])
        self._gain = np.repeat([gains.k_lam, gains.k_mu], [2 * m, 2 * c])
        self._q_rows = np.ones(c, dtype=bool)
        # the Jacobian's coupling blocks: q rows by multiplier columns, and
        # multiplier rows by q columns, whose lam rows hold the plant's dv/dq
        self._j_qm = jac[:c, c:].copy()
        self._j_mq = jac[c:, :c].copy()

    def set_plant_sensitivity(self, gx: np.ndarray) -> None:
        """Put the plant's own dv/dq at the controlled buses (M x C) in the lam rows' q block.

        That block is +k_lam gx for lam_hi and -k_lam gx for lam_lo; it is
        ``xc``'s, the linear plant's dv/dq, until this is called. The q rows
        are the controller's own dynamics and keep ``xc``.
        """
        m = len(gx)
        self._j_mq[:m] = self.k_lam * gx
        self._j_mq[m : 2 * m] = -self.k_lam * gx

    def rates(self, y: np.ndarray, v: np.ndarray, held=False) -> tuple[np.ndarray, np.ndarray]:
        """Rates at a packed state and its measured voltages, with the active-row mask.

        Active rows are all q rows, and each multiplier row whose multiplier
        is positive, whose constraint is violated, or which ``held`` marks
        (a mask over the multiplier rows that keeps them on one smooth piece
        of the flow). Inactive multiplier rows are projected to a zero rate.
        """
        c = self.c
        rates = self._of_y @ y + self._of_v @ v + self._offset
        violation = rates[c:]
        on = (y[c:] > 0) | (violation > 0) | held
        violation[~on] = 0.0
        violation *= self._gain
        return rates, np.concatenate((self._q_rows, on))

    def newton_step(self, h: float, active: np.ndarray, resid: np.ndarray) -> np.ndarray:
        """Solve (I - h/2 (J * active[:, None])) dz = resid for the closed loop's J.

        J is ``flow_jacobian`` with the plant's dv/dq in the lam rows' q
        block (``set_plant_sensitivity``). Its multiplier rows depend only
        on the q columns, so with J_qm its q rows' multiplier columns, J_mq
        its multiplier rows' q columns and D the active multiplier rows the
        system reduces exactly to the C x C one

            S dq = r_q + (h/2) J_qm r_m,   S = (1 + h k_q) I - (h^2/4) J_qm D J_mq,

        then dm = r_m + (h/2) D J_mq dq. S is not symmetric when the
        plant's dv/dq differs from ``xc``, and a singular S raises
        ``numpy.linalg.LinAlgError``.
        """
        c = self.c
        on, r_m = active[c:], resid[c:]
        s = self._j_qm[:, on] @ self._j_mq[on]
        s *= -0.25 * h * h
        s.flat[:: c + 1] += 1.0 + h * self.k_q
        dq = np.linalg.solve(s, resid[:c] + (0.5 * h) * (self._j_qm @ r_m))
        dm = (0.5 * h) * (self._j_mq @ dq)
        dm[~on] = 0.0
        dm += r_m
        return np.concatenate((dq, dm))


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
    rates, _ = PackedFlow(xc, lim, gains).rates(state.packed(), v_measured)
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
