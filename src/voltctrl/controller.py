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
works on one packed vector [q, lam_hi, lam_lo, mu_hi, mu_lo]. A piece of
the flow is one boolean mask over the 2M + 2C multiplier rows, those the
projection leaves on: ``rates`` returns the rates on a piece together with
that piece and each multiplier row's event, and ``phi`` the phi-function
products an exponential integrator steps with, phi_k(hJ) r for the
Jacobian J of one piece. J has the plant's own voltage sensitivity in
J_mq's lam rows (the nonlinear plant's dv/dq is not X;
``set_plant_sensitivity`` stores it), and its multiplier rows depend on q
only, so every product comes from one exponential of a 2C-square B,
not of the (3C + 2M)-square J, taken by one routine over a stack of
blocks of B and balanced so that its norm is about theirs. B's coupling
block G = J_qm D J_mq chooses the blocks. On the linear plant, whose lam
rows keep X, G is symmetric: one symmetric eigendecomposition per piece
splits B into C independent 2 x 2 modes (the modal path). Once
``set_plant_sensitivity`` has stored the nonlinear plant's dv/dq, G is
not symmetric, and the one block is B itself (the dense path). ``expm``
is that exponential, of one matrix or of a stack, numpy only and from
matrix products alone: a truncated Taylor series in Paterson and
Stockmeyer's form, scaled and squared at the fewest products the norm
allows, whose last product forms only the columns ``phi`` reads.
This module defines the packed layout, which ``simulate`` also slices, and
the constraint rows the oracle and ``cli`` read: their families ``ROWS``,
``rows``, ``Limits.violation`` and its inverse cut ``Limits.families``, the
same cut that gives a packed row's four multiplier blocks after its q.
``ControllerState.view`` reads a state off a packed row that its caller
has checked, as ``simulate.Trajectory`` checks its rows once.
``dynamics_rhs`` is the validating wrapper over ``ControllerState``; it
returns the packed rate vector.
"""

from __future__ import annotations

import bisect
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
        bounds = np.concatenate([self.v_hi, -self.v_lo, self.q_hi, -self.q_lo])
        object.__setattr__(self, "_bounds", bounds)  # what ``violation`` subtracts

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

    def violation(self, v: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The rows' violations [v, -v, q, -q] - [v_hi, -v_lo, q_hi, -q_lo], on the last axis."""
        return np.concatenate((v, -v, q, -q), axis=-1) - self._bounds

    def families(self, x: np.ndarray) -> list[np.ndarray]:
        """Views of x's last axis cut into the ``ROWS`` families, as ``violation`` stacks them."""
        return _families(x, len(self.v_lo), len(self.q_lo))


def _families(x: np.ndarray, m: int, c: int) -> list[np.ndarray]:
    """Views of x's last axis cut at (M, 2M, 2M + C) into the four ``ROWS`` families."""
    return [x[..., :m], x[..., m : 2 * m], x[..., 2 * m : 2 * m + c], x[..., 2 * m + c :]]


# the constraint families, in the order of the multiplier rows and of the oracle's A q <= b
ROWS = ("v_hi", "v_lo", "q_hi", "q_lo")


def rows(xc: np.ndarray) -> np.ndarray:
    """The constraint rows' derivatives in q, [xc; -xc; I; -I], for the M x C dv/dq ``xc``."""
    eye = np.eye(xc.shape[1])
    return np.vstack([xc, -xc, eye, -eye])


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
        for name in _FIELDS[1:]:
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be nonnegative")
        for name in _FIELDS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")
        if self.lam_hi.shape != self.lam_lo.shape:
            raise ValueError("lam vectors must agree in shape")
        if not (self.q.shape == self.mu_hi.shape == self.mu_lo.shape):
            raise ValueError("q and mu vectors must agree in shape")

    @classmethod
    def zeros(cls, n_load: int, n_controlled: int) -> "ControllerState":
        return cls(*_split(packed_zeros(n_load, n_controlled), n_load, n_controlled))

    def packed(self) -> np.ndarray:
        return np.concatenate([self.q, self.lam_hi, self.lam_lo, self.mu_hi, self.mu_lo])

    @classmethod
    def view(cls, row: np.ndarray, n_load: int, n_controlled: int) -> "ControllerState":
        """The state whose arrays are views of a packed row, built without its checks.

        For rows their caller has checked: finite, with nonnegative
        multipliers, and of length 3C + 2M.
        """
        state = object.__new__(cls)
        vars(state).update(zip(_FIELDS, _split(row, n_load, n_controlled)))
        return state


_FIELDS = ("q", "lam_hi", "lam_lo", "mu_hi", "mu_lo")


def packed_zeros(n_load: int, n_controlled: int) -> np.ndarray:
    """The zero state as a packed vector of length 3C + 2M, built without a ``ControllerState``."""
    return np.zeros(3 * n_controlled + 2 * n_load)


def _split(vec: np.ndarray, n_load: int, n_controlled: int) -> list[np.ndarray]:
    """Views of the five blocks q, lam_hi, lam_lo, mu_hi, mu_lo of a packed vector."""
    return [vec[:n_controlled], *_families(vec[n_controlled:], n_load, n_controlled)]


def unpack_state(vec: np.ndarray, n_load: int, n_controlled: int) -> ControllerState:
    m, c = n_load, n_controlled
    if len(vec) != 3 * c + 2 * m:
        raise ValueError(f"state vector length {len(vec)} does not match M={m}, C={c}")
    return ControllerState(*_split(vec, m, c))


def objective(q: np.ndarray) -> float:
    return float(np.dot(q, q))


class PackedFlow:
    """The saddle-point flow compiled for one sensitivity, limits and gains.

    States are packed vectors [q, lam_hi, lam_lo, mu_hi, mu_lo]; ``xc``
    holds the sensitivity columns of the controlled buses (M x C). Before
    projection the rates are affine in the state and the measured voltages:
    the q rows are -k_q times the Lagrangian's gradient in q, and each
    multiplier row is its gain times its ``Limits.violation``. Stored are
    the q rows, the multiplier rows' q columns J_mq (the gains times
    ``rows(xc)``), the limits and the gains. ``rates``
    forms the violations once per state: the projection tests them, the
    gains scale what it keeps, and the same vector gives each row's event,
    which tells where a piece of the projection ends. ``phi`` keeps one
    piece: what ``_maps`` built for the last piece it was called with,
    rebuilt when the piece changes and cleared by
    ``set_plant_sensitivity``, and the last vector's w, which a landing's
    products all share. No input is validated;
    ``dynamics_rhs`` is the checked entry point.
    """

    def __init__(self, xc: np.ndarray, lim: Limits, gains: Gains):
        m, c = xc.shape
        self.m, self.c = m, c
        eye, a = np.eye(c), rows(xc)
        # the q rows of J, whose multiplier columns are J_qm
        self._q_rows = gains.k_q * np.hstack([-2.0 * eye, -a.T])
        self._j_qm = self._q_rows[:, c:]
        self._lim = lim
        self._gain = np.repeat([gains.k_lam, gains.k_mu], [2 * m, 2 * c])
        # J_mq: each multiplier row's gain times its violation's derivative in q
        self._j_mq = self._gain[:, None] * a
        # B's top blocks [-2 k_q I, I] over zeros, and a mode's [[-2 k_q, 1], [0, 0]]
        self._b_top = np.vstack([np.hstack([self._q_rows[:, :c], eye]), np.zeros((c, 2 * c))])
        self._mode = np.array([[-2.0 * gains.k_q, 1.0], [0.0, 0.0]])
        # whether the lam rows hold xc, so that G is symmetric; the last piece's mask and
        # maps, and the last vector's w
        self._modal = True
        self._piece: tuple | None = None
        self._w: tuple | None = None

    def set_plant_sensitivity(self, gx: np.ndarray) -> None:
        """Put the plant's own dv/dq at the controlled buses (M x C) in the lam rows' q block.

        That block is +k_lam gx for lam_hi and -k_lam gx for lam_lo; it is
        ``xc``'s, the linear plant's dv/dq, until this is called. The q rows
        are the controller's own dynamics and keep ``xc``, so G is no longer
        symmetric and ``phi`` takes its dense path from here on. The piece
        ``phi`` keeps is cleared, since its maps hold the old block.
        """
        lam = slice(0, 2 * self.m)
        self._j_mq[lam] = self._gain[lam, None] * np.vstack([gx, -gx])
        self._modal = False
        self._piece = None

    def reads_voltage(self, on: np.ndarray) -> bool:
        """Whether the piece ``on`` reads the measured voltage: a lam row is on it."""
        return bool(on[: 2 * self.m].any())

    def rates(
        self, y: np.ndarray, v: np.ndarray, on=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rates, piece and events at a packed state and its measured voltages.

        A piece is a mask over the multiplier rows; the q rows are always
        on it. Unset, it is the natural one: each multiplier row whose
        multiplier is positive or whose constraint is violated. Multiplier
        rows off the piece are projected to a zero rate. Each row's event
        function is its multiplier on the piece and minus its constraint's
        violation off it; the piece ends where one turns negative. Returns
        the rates, the piece and the events, all from one violation vector.
        """
        violation = self._lim.violation(v, y[: self.c])
        if on is None:
            on = (y[self.c :] > 0) | (violation > 0)
        events = np.where(on, y[self.c :], -violation)
        violation[~on] = 0.0
        violation *= self._gain
        return np.concatenate((self._q_rows @ y, violation)), on, events

    def event_rates(self, f: np.ndarray, on: np.ndarray) -> np.ndarray:
        """The events' time derivatives at rates f: f on the piece, -J_mq f_q / gain off it."""
        return np.where(on, f[self.c :], -(self._j_mq @ f[: self.c]) / self._gain)

    def jacobian_product(self, on: np.ndarray, z: np.ndarray) -> np.ndarray:
        """J z for the closed loop's J on the piece ``on`` (see ``phi``)."""
        dm = self._j_mq @ z[: self.c]
        dm[~on] = 0.0
        return np.concatenate((self._q_rows @ z, dm))

    def row_rates(self, row: int, on: np.ndarray, f0: np.ndarray, dy: np.ndarray):
        """Multiplier row ``row``'s event along a path of the piece ``on``.

        For y = y0 + dy, whose rates on the piece's linearization are
        f = f0 + J dy, returns ``event_rates`` of dy, f and J f at that one
        row: the event's change from y0, and its slope and bend (first and
        second time derivatives) at y. Each is read off the whole
        matrix-vector products ``event_rates`` and ``jacobian_product``
        take, so it is theirs bit for bit; J f's q rows are formed only
        for a row off the piece, whose event reads q.
        """
        c, j_mq = self.c, self._j_mq
        q_dy, m_dy = self._q_rows @ dy, j_mq @ dy[:c]
        f_q = f0[:c] + q_dy
        if on[row]:
            return dy[c + row], f0[c + row] + m_dy[row], (j_mq @ f_q)[row]
        # off the piece the event is minus the violation, whose rates read J f's q rows
        gain = self._gain[row]
        change = -m_dy[row] / gain
        m_dy[~on] = 0.0
        jf_q = self._q_rows @ (f0 + np.concatenate((q_dy, m_dy)))
        return change, -(j_mq @ f_q)[row] / gain, -(j_mq @ jf_q)[row] / gain

    def phi(self, k: int, h: float, on: np.ndarray, r: np.ndarray) -> np.ndarray:
        """phi_k(hJ) r, with J the closed loop's Jacobian on the piece ``on``.

        J's q rows are -k_q times the gradient of the Lagrangian in the
        packed state, [-2 k_q I, J_qm]. Its multiplier rows are [J_mq, 0]
        on the piece's rows and zero off them, where J_mq holds the gains
        times each violation's derivative in q: the plant's dv/dq in the
        lam rows (``set_plant_sensitivity``), +-I in the mu rows. And
        phi_k(z) = sum_j z^j / (j + k)!. With D the piece's multiplier rows,
        (q, J_qm m) follows the 2C x 2C matrix

            B = [[-2 k_q I, I], [G, 0]],   G = J_qm D J_mq,

        and phi_k(hJ) r = (P_k, h D J_mq P_{k+1} + r_m / k!), where
        P_j = phi_j(hB) w restricted to its q entries, w = (r_q, J_qm r_m).
        One routine takes them over the blocks ``_maps`` splits B into.
        While the lam rows hold ``xc`` (``set_plant_sensitivity`` has not
        been called), G = -k_q (k_lam xc' (D_hi + D_lo) xc + k_mu D_mu) is
        symmetric, one symmetric eigendecomposition per piece gives
        G = V diag(g) V' with V orthogonal, and rotated by V', B splits into
        C independent modes [[-2 k_q, 1], [g_i, 0]]: mode i's vector column
        is its two entries of V' w, and P_j comes back rotated by V (the
        modal path). Otherwise the one block is B itself, its column w (the
        dense path). A G that is not finite has no eigendecomposition: its
        modes are NaN, and so is every product, as on the dense path.

        P_k and P_{k+1} come from the last two columns of one exponential
        of the stack of h times each block augmented with its column and a
        unit chain (Sidje, ACM TOMS 24(1), 1998), which ``expm`` takes from
        matrix products alone, forming only those two columns in its last
        product. The stack is balanced (Al-Mohy & Higham, SIAM J. Sci.
        Comput. 33(2), 2011): the chains hold tau, the largest power of two
        up to the step blocks' largest 1-norm within [1/4, 1], and the
        vector columns their part of w / sigma, sigma the power of two that
        brings the largest column's 1-norm into [tau / 2, tau). The 1-norm
        handed to ``expm`` is then the step blocks' or tau, not at least 1
        and ||w||_1; P_k and P_{k+1} come back exactly as sigma / tau^(k-1)
        and sigma / tau^k times its columns, so the product is exactly
        linear in r. w is formed from r scaled by its largest entry's power
        of two, and sigma is applied by its exponent, so neither overflows
        where the product itself does not.
        """
        key = on.tobytes()
        if self._piece is None or self._piece[0] != key:
            blocks, *maps = self._maps(on)
            self._piece = key, blocks, float(np.abs(blocks).sum(axis=-2).max()), *maps
            self._w = None
        _, blocks, block_norm, into, back, j_mq = self._piece
        c = self.c
        count, size = blocks.shape[:2]
        n = size + k + 1
        aug = np.zeros((count, n, n))
        np.multiply(blocks, h, out=aug[:, :size, :size])
        norm = h * block_norm
        t = min(0, max(-2, math.frexp(norm)[1] - 1))
        # w from r scaled by its largest power of two, one column per block, and the
        # exponent of the largest column's 1-norm: kept for the next product of the
        # same r, as a landing's iterates all take the step's rates
        key = r.tobytes()
        if self._w is None or self._w[0] != key:
            e_max = math.frexp(np.abs(r).max())[1]
            w = into(np.ldexp(r, -e_max)).reshape(size, count).T
            self._w = key, e_max, w, e_max + math.frexp(np.abs(w).sum(axis=1).max())[1]
        _, e_max, w, e_col = self._w
        e_sigma = e_col - t
        aug[:, :size, size] = np.ldexp(w, e_max - e_sigma)
        tau = 2.0**t
        # the chains: aug[:, i, i + 1], i >= size
        aug.reshape(count, -1)[:, size * (n + 1) + 1 :: n + 1] = tau
        # each block's q rows: P_k and P_{k+1}, scaled, in its last two columns
        top = _expm(aug, max(norm, tau), 2)[:, : size // 2].reshape(c, 2)
        top = np.ldexp(top, (e_sigma - t * (k - 1), e_sigma - t * k))
        p_k = top[:, 0] if back is None else back @ top[:, 0]
        return np.concatenate((p_k, h * (j_mq @ top[:, 1]) + r[c:] / math.factorial(k)))

    def _maps(self, on: np.ndarray) -> tuple:
        """What ``phi`` keeps of the piece ``on``: its blocks, the maps r -> w and back, D J_mq.

        On the dense path one block, B itself, the map r -> w = (r_q, J_qm r_m),
        no map back and D J_mq; on the modal path the C modes
        [[-2 k_q, 1], [g_i, 0]], the map r -> V' w, V and D J_mq V.
        """
        c = self.c
        j_mq = self._j_mq * on[:, None]
        g = self._j_qm @ j_mq
        if not self._modal:
            b = self._b_top.copy()
            b[c:, :c] = g
            return b[None], lambda r: np.concatenate((r[:c], self._j_qm @ r[c:])), None, j_mq
        if np.isfinite(g).all():
            eig, v = np.linalg.eigh(0.5 * (g + g.T))
        else:
            eig, v = np.full(c, np.nan), np.full((c, c), np.nan)
        modes = np.repeat(self._mode[None], c, axis=0)
        modes[:, 1, 0] = eig
        # r -> V' w = (V' r_q, V' J_qm r_m)
        into = np.zeros((2 * c, len(self._gain) + c))
        into[:c, :c], into[c:, c:] = v.T, v.T @ self._j_qm
        return modes, lambda r: into @ r, v, j_mq @ v


# Taylor degrees m, each after the 1-norm theta_m up to which T_m(a) = e^(a + e)
# with ||e|| <= 2^-53 ||a|| (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2),
# 2011), with its Paterson-Stockmeyer block size p and the coefficients
# c_k = 1/k! of T_m for k < m as m/p rows of p; the top block is c_m I
_TAYLOR = tuple(
    (theta, m, p, np.array([1.0 / math.factorial(k) for k in range(m)]).reshape(-1, p))
    for theta, m, p in (
        (9.065656407595102e-3, 6, 3),
        (8.957760203223342e-2, 9, 3),
        (0.299615891381158, 12, 4),
        (0.7802874256626574, 16, 4),
        (1.4382525968043367, 20, 4),
        (2.428582524442826, 25, 5),
        (3.539666348743689, 30, 5),
    )
)


# expm's choice of degree and squarings s changes only at the norms theta_m 2^j:
# tabled at those below 16. Halving a norm above every theta_m takes one s from
# each degree
_BREAKS = sorted(x for theta, *_ in _TAYLOR for j in range(12) if (x := math.ldexp(theta, j)) < 16)
_CHOICES = [min((p + m // p - 2 + s, s, m, p, blocks) for theta, m, p, blocks in _TAYLOR
                for s in [sum(norm > math.ldexp(theta, j) for j in range(12))])[1:]
            for norm in _BREAKS]


def expm(a: np.ndarray, last: int | None = None) -> np.ndarray:
    """e^a by scaling and squaring a truncated Taylor series, or only its ``last`` columns.

    The degree m and the squarings s are those of the table above with the
    fewest matrix products, (p - 1) + (m/p - 1) + s, and on a tie the fewer
    squarings; s is the least that brings the 1-norm of ``a`` 2^-s within
    theta_m. T_m(a 2^-s) is evaluated by Paterson and Stockmeyer's scheme
    (SIAM J. Comput. 2(1), 1973): Horner in a^p over blocks in I, a, ...,
    a^(p-1), from the top block c_m I, and is squared s times. No step
    solves a system. A norm that is not finite, which no scaling brings
    into range, gives NaNs. Only the asked columns are formed in the last
    Horner step when there is no squaring, and otherwise in the last
    squaring. A stack a[..., :, :] gives the stack of its exponentials,
    each taken with the degree and squarings of the largest 1-norm.
    """
    return _expm(a, float(np.abs(a).sum(axis=-2).max()), last)


def _expm(a: np.ndarray, norm: float, last: int | None) -> np.ndarray:
    """``expm`` of a matrix or a stack whose largest 1-norm its caller has."""
    n = a.shape[-1]
    cols = slice(None) if last is None else slice(n - last, None)
    if not norm < math.inf:
        return np.full(a.shape[:-1] + (n if last is None else last,), np.nan)
    halved = max(0, math.frexp(norm)[1] - 3)  # a norm of 8 or more into [4, 8)
    s, m, p, blocks = _CHOICES[bisect.bisect_left(_BREAKS, math.ldexp(norm, -halved))]
    s += halved
    # a, a^2, ..., a^p of the scaled a
    powers = np.empty((p,) + a.shape)
    np.multiply(a, 0.5**s, out=powers[0])
    for j in range(1, p):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    top = powers[-1]
    # the blocks sum_i c_(jp + i) a^i, the c_(jp) I on their diagonals
    b = (blocks[:, 1:] @ powers[:-1].reshape(p - 1, -1)).reshape((-1,) + a.shape)
    b.reshape(len(b), -1, n * n)[..., :: n + 1] += blocks[:, :1, None]
    e, buf = b[-1], np.empty(a.shape)
    e += np.divide(top, float(math.factorial(m)), out=buf)
    for j in range(len(b) - 2, -1 if s else 0, -1):
        b[j] += np.matmul(e, top, out=buf)
        e = b[j]
    if s == 0:
        return e @ top[..., cols] + b[0][..., cols]
    for _ in range(s - 1):
        e, buf = np.matmul(e, e, out=buf), e
    return e @ e[..., cols]


def dynamics_rhs(
    state: ControllerState,
    v_measured: np.ndarray,
    sens,
    lim: Limits,
    gains: Gains = Gains(),
) -> np.ndarray:
    """Saddle-point flow of the Lagrangian at the measured voltages, as a packed rate vector.

    Descent in q on the full gradient; projected ascent in each multiplier
    on its own constraint violation. Multiplier rates may be negative.
    """
    v_measured = np.asarray(v_measured, dtype=float)
    if v_measured.shape != state.lam_hi.shape:
        raise ValueError("measured voltage length must match the load-bus count")
    if not np.all(np.isfinite(v_measured)):
        raise ValueError("measured voltages contain non-finite values")
    return PackedFlow(sens.xc, lim, gains).rates(state.packed(), v_measured)[0]
