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
limits and gains from the flow's two coupling blocks: the q rows, whose
multiplier columns are J_qm, and the multiplier rows' q columns J_mq. It
works on one packed vector [q, lam_hi, lam_lo, mu_hi, mu_lo]: ``rates``
returns the rates together with the mask of rows the projection leaves
active, and ``phi`` the phi-function products an exponential integrator
steps with, phi_k(hJ) r for the Jacobian J of one piece of the flow. J has
the plant's own voltage sensitivity in J_mq's lam rows (the nonlinear
plant's dv/dq is not X; ``set_plant_sensitivity`` stores it), and its
multiplier rows depend on q only, so every product comes from a 2C-square
exponential instead of the (3C + 2M)-square one; ``expm`` is that
exponential, numpy only. This module is the only one that knows the packed
layout. ``dynamics_rhs`` is the validating wrapper over
``ControllerState``, and ``trajectory_states`` checks a whole trajectory's
packed rows at once.
"""

from __future__ import annotations

import math
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


def lagrangian(state: ControllerState, v: np.ndarray, lim: Limits) -> float:
    return float(
        objective(state.q)
        + state.lam_lo @ (lim.v_lo - v)
        + state.lam_hi @ (v - lim.v_hi)
        + state.mu_lo @ (lim.q_lo - state.q)
        + state.mu_hi @ (state.q - lim.q_hi)
    )


class PackedFlow:
    """The saddle-point flow compiled for one sensitivity, limits and gains.

    States are packed vectors [q, lam_hi, lam_lo, mu_hi, mu_lo]; ``xc``
    holds the sensitivity columns of the controlled buses (M x C). Before
    projection the rates are affine in the state and the measured voltages:
    the q rows are -k_q times the Lagrangian's gradient in q, and each
    multiplier row is its gain times its constraint's violation
    (v - v_hi, v_lo - v, q - q_hi, q_lo - q). Stored are the q rows, the
    multiplier rows' q columns J_mq, the limits and the gains; the
    projection tests the violations themselves and the gains scale what it
    keeps. No input is validated; ``dynamics_rhs`` is the checked entry point.
    """

    def __init__(self, xc: np.ndarray, lim: Limits, gains: Gains):
        m, c = xc.shape
        self.m, self.c = m, c
        eye = np.eye(c)
        # the q rows of J, whose multiplier columns are J_qm
        self._q_rows = gains.k_q * np.hstack([-2.0 * eye, -xc.T, xc.T, -eye, eye])
        self._j_qm = self._q_rows[:, c:]
        self._offset = np.concatenate([-lim.v_hi, lim.v_lo, -lim.q_hi, lim.q_lo])
        self._gain = np.repeat([gains.k_lam, gains.k_mu], [2 * m, 2 * c])
        # J_mq: each multiplier row's gain times its violation's derivative in q
        self._j_mq = self._gain[:, None] * np.vstack([xc, -xc, eye, -eye])

    def set_plant_sensitivity(self, gx: np.ndarray) -> None:
        """Put the plant's own dv/dq at the controlled buses (M x C) in the lam rows' q block.

        That block is +k_lam gx for lam_hi and -k_lam gx for lam_lo; it is
        ``xc``'s, the linear plant's dv/dq, until this is called. The q rows
        are the controller's own dynamics and keep ``xc``.
        """
        lam = slice(0, 2 * self.m)
        self._j_mq[lam] = self._gain[lam, None] * np.vstack([gx, -gx])

    def reads_voltage(self, active: np.ndarray) -> bool:
        """Whether the piece with these active rows reads the measured voltage: a lam row is on."""
        return bool(np.any(active[self.c : self.c + 2 * self.m]))

    def rates(self, y: np.ndarray, v: np.ndarray, held=False) -> tuple[np.ndarray, np.ndarray]:
        """Rates at a packed state and its measured voltages, with the active-row mask.

        Active rows are all q rows, and each multiplier row whose multiplier
        is positive, whose constraint is violated, or which ``held`` marks
        (a mask over the multiplier rows that keeps them on one smooth piece
        of the flow). Inactive multiplier rows are projected to a zero rate.
        """
        c = self.c
        violation = self.violation(y, v)
        on = (y[c:] > 0) | (violation > 0) | held
        violation[~on] = 0.0
        violation *= self._gain
        rates = np.concatenate((self._q_rows @ y, violation))
        return rates, np.concatenate((np.ones(c, dtype=bool), on))

    def violation(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The multiplier rows' constraint violations at a packed state and its voltages."""
        return np.concatenate((v, -v, y[: self.c], -y[: self.c])) + self._offset

    def jacobian_product(self, active: np.ndarray, z: np.ndarray) -> np.ndarray:
        """J z for the closed loop's J with its inactive rows zeroed (see ``phi``)."""
        dm = self._j_mq @ z[: self.c]
        dm[~active[self.c :]] = 0.0
        return np.concatenate((self._q_rows @ z, dm))

    def phi(self, k: int, h: float, active: np.ndarray, r: np.ndarray) -> np.ndarray:
        """phi_k(hJ) r, with J the closed loop's Jacobian on the active rows.

        J's q rows are -k_q times the gradient of the Lagrangian in the
        packed state, [-2 k_q I, J_qm]. Its multiplier rows are [J_mq, 0]
        on the active rows and zero on the others, where J_mq holds the
        gains times each violation's derivative in q: the plant's dv/dq in
        the lam rows (``set_plant_sensitivity``), +-I in the mu rows. And
        phi_k(z) = sum_j z^j / (j + k)!. With D the active multiplier rows,
        (q, J_qm m) follows the 2C x 2C matrix

            B = [[-2 k_q I, I], [J_qm D J_mq, 0]],

        and phi_k(hJ) r = (P_k, h D J_mq P_{k+1} + r_m / k!), where
        P_j = phi_j(hB) (r_q, J_qm r_m) restricted to its q entries. Both
        come from one exponential of B augmented with the vector and a unit
        chain (Sidje, ACM TOMS 24(1), 1998), of size 2C + k + 1.
        """
        c = self.c
        j_mq = self._j_mq * active[c:, None]
        n = 2 * c + k + 1
        aug = np.zeros((n, n))
        aug[:c, :c] = h * self._q_rows[:, :c]
        aug[:c, c : 2 * c] = h * np.eye(c)
        aug[c : 2 * c, :c] = h * (self._j_qm @ j_mq)
        aug[:c, 2 * c] = r[:c]
        aug[c : 2 * c, 2 * c] = self._j_qm @ r[c:]
        aug[np.arange(2 * c, n - 1), np.arange(2 * c + 1, n)] = 1.0
        top = expm(aug)[:c, n - 2 :]
        return np.concatenate((top[:, 0], h * (j_mq @ top[:, 1]) + r[c:] / math.factorial(k)))


# Pade-13 numerator coefficients and the 1-norm up to which the approximant
# is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Pade-13 scaling-and-squaring matrix exponential (Higham 2005); an inf norm is not scaled."""
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if 0 < norm < math.inf else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    e = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        e = e @ e
    return e


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
