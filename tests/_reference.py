"""Independent power-flow and controller-flow implementations used only as test oracles.

Everything here is deliberately written in a different form from the
package: admittance accumulated in explicit loops, power equations in real
trigonometric form (the package works in complex rectangular form), a
scalar double-sum variant for spot checks, and the root find delegated to
scipy's hybrid Powell method with a numerical Jacobian. The controller's
flow and its Jacobian on a piece are written out entry by entry from the
Lagrangian, where the package compiles them into matrices. Agreement
between the two paths is the point.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import root

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


def written_out_jacobian(xc, gains, active):
    """Jacobian of ``written_out_rates`` in the packed state on one piece, with dv/dq = xc.

    ``active`` marks the rows the piece keeps; the others have zero rate.
    """
    m, c = xc.shape
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
            jac[c + j, i] = gains.k_lam * xc[j, i] if active[c + j] else 0.0
            jac[c + m + j, i] = -gains.k_lam * xc[j, i] if active[c + m + j] else 0.0
    for i in range(c):
        jac[c + 2 * m + i, i] = gains.k_mu if active[c + 2 * m + i] else 0.0
        jac[2 * c + 2 * m + i, i] = -gains.k_mu if active[2 * c + 2 * m + i] else 0.0
    return jac
