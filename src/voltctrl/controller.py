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
exponential instead of the (3C + 2M)-square one, balanced so that its
norm is about that of its 2C-square block. ``expm`` is that exponential,
numpy only: Higham's scaling and squaring at the lowest Pade degree the
norm allows, solved for only the columns ``phi`` reads. This module is the
only one that knows the packed layout. ``dynamics_rhs`` is the validating
wrapper over ``ControllerState``, and ``trajectory_states`` checks a whole
trajectory's packed rows at once.
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

    def violation_rate(self, q_rate: np.ndarray) -> np.ndarray:
        """The violations' time derivatives while q moves at ``q_rate``: J_mq q_rate / gain."""
        return self._j_mq @ q_rate / self._gain

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
        come from the last two columns of one exponential of hB augmented
        with the vector w = (r_q, J_qm r_m) and a unit chain (Sidje, ACM
        TOMS 24(1), 1998), of size 2C + k + 1. The augmented matrix is
        balanced (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011): the
        chain holds tau, the largest power of two up to ||hB||_1 within
        [1/4, 1], and the vector column w / sigma, sigma the power of two
        that brings ||w||_1 / sigma into [tau / 2, tau). Its 1-norm is then
        about ||hB||_1, not at least 1 and ||w||_1, and P_k and P_{k+1}
        come back exactly as sigma / tau^(k-1) and sigma / tau^k times its
        columns, so the product is exactly linear in r. ||w||_1 is summed
        over w scaled by its largest entry's power of two, and sigma is
        applied by its exponent, so neither overflows where the product
        itself does not.
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
        # the 1-norms of hB's columns and of w set the exponents of tau and sigma
        t = min(0, max(-2, math.frexp(np.abs(aug[: 2 * c, : 2 * c]).sum(axis=0).max())[1] - 1))
        w = np.abs(aug[: 2 * c, 2 * c])
        e_max = math.frexp(w.max())[1]
        e_sigma = e_max + math.frexp(np.ldexp(w, -e_max).sum())[1] - t
        aug[: 2 * c, 2 * c] = np.ldexp(aug[: 2 * c, 2 * c], -e_sigma)
        tau = 2.0**t
        for i in range(2 * c, n - 1):
            aug[i, i + 1] = tau
        top = np.ldexp(expm(aug, last=2)[:c] / [tau ** (k - 1), tau**k], e_sigma)
        return np.concatenate((top[:, 0], h * (j_mq @ top[:, 1]) + r[c:] / math.factorial(k)))


# Pade numerator coefficients b_0..b_m of the degrees m that Higham's
# algorithm chooses from, each after the 1-norm theta_m up to which that
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26(4), 2005)
_PADE = tuple(
    (theta, np.array(b))
    for theta, b in (
        (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
        (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
        (9.504178996162932e-1, (
            17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0,
        )),
        (2.097847961257068, (
            17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
            2162160.0, 110880.0, 3960.0, 90.0, 1.0,
        )),
        (5.371920351148152, (
            64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
        )),
    )
)


def expm(a: np.ndarray, last: int | None = None) -> np.ndarray:
    """e^a by Higham's scaling and squaring (2005), or only its ``last`` columns.

    The Pade degree m is the lowest of 3, 5, 7, 9 and 13 whose theta_m
    bounds the 1-norm of ``a``. Above theta_13, ``a`` is scaled by 2^-s
    into degree 13's range and the approximant is squared s times. A norm
    that is not finite, which no scaling brings into range, gives NaNs. The
    approximant (V - U)^-1 (V + U) is solved for the asked columns alone
    when there is no squaring, and otherwise the last squaring forms only
    those columns.
    """
    n = len(a)
    cols = slice(None) if last is None else slice(n - last, None)
    norm = float(np.linalg.norm(a, 1))
    if not norm < math.inf:
        return np.full((n, n if last is None else last), np.nan)
    s = 0
    for theta, b in _PADE:
        if norm <= theta:
            break
    else:
        s = math.ceil(math.log2(norm / theta))
        a = a / 2.0**s
    # the even powers I, a^2, a^4, ... the sums take: up to a^(m - 1), or a^6 for m = 13
    count = 4 if len(b) == 14 else len(b) // 2
    powers = np.empty((count, n, n))
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    for j in range(2, count):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    flat = powers.reshape(count, n * n)

    def sum_of(coeffs, first=0):
        """sum_j coeffs[j] powers[first + j]"""
        return (coeffs @ flat[first : first + len(coeffs)]).reshape(n, n)

    if len(b) < 14:
        u = a @ sum_of(b[1::2])
        v = sum_of(b[::2])
    else:  # Higham's nested form, u = a (a^6 (b_13 a^6 + b_11 a^4 + b_9 a^2) + b_7 a^6 + ...)
        u = a @ (powers[3] @ sum_of(b[9::2], 1) + sum_of(b[1:9:2]))
        v = powers[3] @ sum_of(b[8::2], 1) + sum_of(b[:8:2])
    if s == 0:
        return np.linalg.solve(v - u, (v + u)[:, cols])
    e = np.linalg.solve(v - u, v + u)
    for _ in range(s - 1):
        e = e @ e
    return e @ e[:, cols]


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
