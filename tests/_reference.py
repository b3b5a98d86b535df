"""Independent power-flow and controller-flow implementations used only as test oracles.

Everything here is deliberately written in a different form from the
package: admittance accumulated in explicit loops, power equations in real
trigonometric form (the package works in complex rectangular form), a
scalar double-sum variant for spot checks, and the root find delegated to
scipy's hybrid Powell method with a numerical Jacobian. The controller's
flow, its Jacobian on a piece and the Lagrangian itself are written out
entry by entry, where the package compiles the flow into matrices, and the
certification QP is solved by enumerating active sets, where the package
runs a dual active-set method. The event root is found on whole arrays,
all rows at once, where the package takes each row in Python floats, and
phi-products are read off scipy's exponential of one augmented matrix,
where the package exponentiates the piece's blocks.
Agreement between the two paths is the point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations

import numpy as np
import scipy.linalg
from scipy.optimize import root

from voltctrl.errors import InfeasibleProblemError
from voltctrl.netcase import BusKind, NetworkCase


def reference_ybus(case: NetworkCase) -> np.ndarray:
    index = case.bus_index()
    n = case.n_buses
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.in_service:
            continue
        f = index[br.from_bus]
        t = index[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b_charging / 2.0
        a = br.tap_ratio
        y[f, f] += (ys + bc) / a**2
        y[t, t] += ys + bc
        y[f, t] -= ys / a
        y[t, f] -= ys / a
    for bus in case.buses:
        k = index[bus.id]
        y[k, k] += complex(bus.g_shunt, bus.b_shunt)
    return y


def reference_pq_scalar(case: NetworkCase, v, delta):
    """P_k and Q_k as textbook double sums with scalar math only."""
    y = reference_ybus(case)
    g, b = y.real, y.imag
    n = case.n_buses
    p = np.zeros(n)
    q = np.zeros(n)
    for k in range(n):
        for m in range(n):
            dkm = delta[k] - delta[m]
            p[k] += v[k] * v[m] * (g[k, m] * math.cos(dkm) + b[k, m] * math.sin(dkm))
            q[k] += v[k] * v[m] * (g[k, m] * math.sin(dkm) - b[k, m] * math.cos(dkm))
    return p, q


def reference_pq(case: NetworkCase, v, delta):
    """Same equations in vectorized trigonometric form."""
    y = reference_ybus(case)
    g, b = y.real, y.imag
    dkm = np.subtract.outer(delta, delta)
    p = v * ((g * np.cos(dkm) + b * np.sin(dkm)) @ v)
    q = v * ((g * np.sin(dkm) - b * np.cos(dkm)) @ v)
    return p, q


def reference_solve(case: NetworkCase, p_injection, q_injection, tol=1e-10):
    """Solve the power flow with scipy.optimize.root (hybr, numeric Jacobian).

    ``p_injection`` covers all buses and ``q_injection`` covers PQ buses,
    both in case order, matching the package's InjectionSet convention.
    """
    kinds = [bus.kind for bus in case.buses]
    non_slack = [i for i, k in enumerate(kinds) if k is not BusKind.SLACK]
    pq = [i for i, k in enumerate(kinds) if k is BusKind.PQ]
    v0 = np.array(
        [bus.v_setpoint if bus.kind is not BusKind.PQ else 1.0 for bus in case.buses]
    )

    def unpack(x):
        delta = np.zeros(case.n_buses)
        v = v0.copy()
        delta[non_slack] = x[: len(non_slack)]
        v[pq] = x[len(non_slack) :]
        return v, delta

    def equations(x):
        v, delta = unpack(x)
        p, q = reference_pq(case, v, delta)
        res_p = [p_injection[i] - p[i] for i in non_slack]
        res_q = [q_injection[j] - q[pq[j]] for j in range(len(pq))]
        return np.array(res_p + res_q)

    x0 = np.concatenate([np.zeros(len(non_slack)), np.ones(len(pq))])
    sol = root(equations, x0, method="hybr", tol=tol)
    if not sol.success:
        raise RuntimeError(f"reference power flow failed: {sol.message}")
    v, delta = unpack(sol.x)
    return v, delta


def written_out_rates(y, v, xc, lim, gains, held):
    """The Lagrangian's flow entry by entry: descent in q, projected ascent in each multiplier."""
    m, c = xc.shape
    q, lam_hi, lam_lo, mu_hi, mu_lo = np.split(y, np.cumsum([c, m, m, c]))
    rates, active = [], []
    for i in range(c):
        grad = 2.0 * q[i] + mu_hi[i] - mu_lo[i]
        for j in range(m):
            grad += xc[j, i] * (lam_hi[j] - lam_lo[j])
        rates.append(-gains.k_q * grad)
        active.append(True)
    rows = (
        [(gains.k_lam, lam_hi[j], v[j] - lim.v_hi[j]) for j in range(m)]
        + [(gains.k_lam, lam_lo[j], lim.v_lo[j] - v[j]) for j in range(m)]
        + [(gains.k_mu, mu_hi[i], q[i] - lim.q_hi[i]) for i in range(c)]
        + [(gains.k_mu, mu_lo[i], lim.q_lo[i] - q[i]) for i in range(c)]
    )
    for (gain, mult, violation), hold in zip(rows, held):
        on = bool(mult > 0 or violation > 0 or hold)
        rates.append(gain * violation if on else 0.0)
        active.append(on)
    return np.array(rates), np.array(active)


def written_out_violation(v, q, lim) -> np.ndarray:
    """The violation of each multiplier row's constraint, rows in packed order."""
    return np.concatenate((v - lim.v_hi, lim.v_lo - v, q - lim.q_hi, lim.q_lo - q))


def full_phi(k: int, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """phi_k(a) r from scipy's exponential of a augmented with r and a unit chain."""
    n = len(a)
    aug = np.zeros((n + k, n + k))
    aug[:n, :n] = a
    aug[:n, n] = r
    aug[np.arange(n, n + k - 1), np.arange(n + 1, n + k)] = 1.0
    return scipy.linalg.expm(aug)[:n, -1]


def written_out_lagrangian(state, v, lim) -> float:
    """sum_i q_i^2 plus each multiplier times its constraint's violation, term by term."""
    value = sum(float(qi) * float(qi) for qi in state.q)
    terms = (
        (state.lam_hi, v - lim.v_hi),
        (state.lam_lo, lim.v_lo - v),
        (state.mu_hi, state.q - lim.q_hi),
        (state.mu_lo, lim.q_lo - state.q),
    )
    for mults, violations in terms:
        for mult, violation in zip(mults, violations):
            value += float(mult) * float(violation)
    return value


def written_out_jacobian(xc, gains, active, gx=None):
    """Jacobian of ``written_out_rates`` in the packed state on one piece.

    ``active`` marks the rows the piece keeps; the others have zero rate.
    The voltage moves with q by ``gx`` (M x C), the plant's dv/dq, which is
    xc when none is given.
    """
    m, c = xc.shape
    gx = xc if gx is None else gx
    n = 3 * c + 2 * m
    jac = np.zeros((n, n))
    for i in range(c):
        jac[i, i] = -2.0 * gains.k_q
        for j in range(m):
            jac[i, c + j] = -gains.k_q * xc[j, i]
            jac[i, c + m + j] = gains.k_q * xc[j, i]
        jac[i, c + 2 * m + i] = -gains.k_q
        jac[i, 2 * c + 2 * m + i] = gains.k_q
    for j in range(m):
        for i in range(c):
            jac[c + j, i] = gains.k_lam * gx[j, i] if active[c + j] else 0.0
            jac[c + m + j, i] = -gains.k_lam * gx[j, i] if active[c + m + j] else 0.0
    for i in range(c):
        jac[c + 2 * m + i, i] = gains.k_mu if active[c + 2 * m + i] else 0.0
        jac[2 * c + 2 * m + i, i] = -gains.k_mu if active[2 * c + 2 * m + i] else 0.0
    return jac


def vectorized_first_root(p0, p1, d0, d1) -> np.ndarray:
    """The smallest root in (0, 1] of each row's cubic Hermite interpolant, all rows at once.

    The same cuts, piece and one-sided Newton iteration as
    ``simulate._first_root``, in numpy operations over every row together,
    with inf and nan where a division is by zero or a square root is of a
    negative number. A row whose iterate stops keeps it; all rows stop
    together after at most 64 steps.
    """
    c2 = 3.0 * (p1 - p0) - 2.0 * d0 - d1
    c3 = 2.0 * (p0 - p1) + d0 + d1
    with np.errstate(divide="ignore", invalid="ignore"):
        g = -(c2 + np.copysign(np.sqrt(c2 * c2 - 3.0 * d0 * c3), c2))
        cuts = np.stack((g / (3.0 * c3), d0 / g, -c2 / (3.0 * c3)))
        cuts[~((cuts > 0.0) & (cuts < 1.0))] = 1.0
        value = p0 + cuts * (d0 + cuts * (c2 + cuts * c3))
        hi = np.min(np.where(value <= 0.0, cuts, 1.0), axis=0)
        lo = np.max(np.where(cuts < hi, cuts, 0.0), axis=0)
        convex = c2 + 1.5 * c3 * (lo + hi) > 0.0
        x = np.where(convex, lo, hi)
        side = np.where(convex, 1.0, -1.0)
        c2_twice, c3_thrice = 2.0 * c2, 3.0 * c3
        for _ in range(64):
            px = p0 + x * (d0 + x * (c2 + x * c3))
            step = np.minimum(np.maximum(x - px / (d0 + x * (c2_twice + x * c3_thrice)), lo), hi)
            step = np.where(side * px > 0.0, step, x)
            if (step == x).all():
                break
            x = step
    return x


# the best active set's point, multipliers per family, binding positions and cost
EnumeratedOptimum = namedtuple(
    "EnumeratedOptimum", "q_star lam_hi lam_lo mu_hi mu_lo active_sets objective_value"
)


def enumerate_active_sets(sens, lim, tol=1e-9):
    """Brute-force optimum of the oracle's QP by trying every candidate active set.

    The QP is min |q|^2 with v_lo <= base_v + X (q - base_q) <= v_hi at the
    load buses and q_lo <= q <= q_hi, over the controlled columns of X.
    Each constraint is one row a q <= b, labelled by family and position.
    For every set of at most C independent rows, the stationarity and
    tightness equations 2 q + A_w' nu = 0, A_w q = b_w are solved as one
    (C + |w|)-square system; a set counts when its point meets every row
    within ``tol`` and its multipliers nu are at least -``tol``. Exponential
    in the row count, so meant for C <= 3.
    """
    pq = list(sens.partition.pq)
    cpos = [pq.index(b) for b in sens.partition.controlled]
    xc = sens.x[:, cpos]
    m, c = xc.shape
    if c > 3:
        raise ValueError("enumeration is only meant for C <= 3")
    offset = sens.base_v - xc @ sens.base_q[cpos]
    unit = np.eye(c)
    rows = (
        [("v_hi", j, xc[j], lim.v_hi[j] - offset[j]) for j in range(m)]
        + [("v_lo", j, -xc[j], offset[j] - lim.v_lo[j]) for j in range(m)]
        + [("q_hi", i, unit[i], lim.q_hi[i]) for i in range(c)]
        + [("q_lo", i, -unit[i], -lim.q_lo[i]) for i in range(c)]
    )
    best = None
    for size in range(c + 1):
        for subset in combinations(rows, size):
            a_w = np.array([row[2] for row in subset]).reshape(size, c)
            if np.linalg.matrix_rank(a_w) < size:
                continue
            kkt = np.zeros((c + size, c + size))
            kkt[:c, :c] = 2.0 * unit
            kkt[:c, c:] = a_w.T
            kkt[c:, :c] = a_w
            rhs = np.concatenate([np.zeros(c), [row[3] for row in subset]])
            solution = np.linalg.solve(kkt, rhs)
            q, nu = solution[:c], solution[c:]
            if any(a @ q - b > tol for _, _, a, b in rows) or np.any(nu < -tol):
                continue
            if best is None or q @ q < best.objective_value - 1e-15:
                mult = {family: np.zeros(m) for family in ("v_hi", "v_lo")}
                mult.update({family: np.zeros(c) for family in ("q_hi", "q_lo")})
                for (family, pos, _, _), value in zip(subset, nu):
                    mult[family][pos] = max(value, 0.0)
                best = EnumeratedOptimum(
                    q_star=q,
                    lam_hi=mult["v_hi"],
                    lam_lo=mult["v_lo"],
                    mu_hi=mult["q_hi"],
                    mu_lo=mult["q_lo"],
                    active_sets={
                        family: tuple(sorted(pos for f, pos, _, _ in subset if f == family))
                        for family in mult
                    },
                    objective_value=float(q @ q),
                )
    if best is None:
        raise InfeasibleProblemError("no feasible active set exists")
    return best
