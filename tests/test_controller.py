from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from _reference import full_phi, written_out_jacobian, written_out_lagrangian
from _reference import written_out_rates, written_out_violation
from voltctrl import build_admittance, scale_loads
from voltctrl.controller import (
    ROWS,
    ControllerState,
    Gains,
    Limits,
    PackedFlow,
    _TAYLOR,
    dynamics_rhs,
    expm,
    objective,
    rows,
    unpack_state,
)
from voltctrl.powerflow import jacobian_inverse, nominal_injections, solve_power_flow
from voltctrl.sensitivity import (
    BusPartition,
    SensitivityMatrix,
    partition_buses,
    predict_voltage,
    rebased,
    voltage_sensitivity,
)
from voltctrl.simulate import Trajectory


def toy_sens(base_v=0.92):
    part = BusPartition(
        slack=0, pv=np.array([], dtype=int), pq=np.array([1]), controlled=np.array([1])
    )
    return SensitivityMatrix(
        x=np.array([[0.1]]),
        partition=part,
        base_v=np.array([float(base_v)]),
        base_q=np.array([0.0]),
    )


def toy_limits():
    return Limits.box(1, 1, q_lo=-0.5, q_hi=0.5)


def test_objective_basics():
    assert objective(np.zeros(3)) == 0.0
    assert objective(np.array([0.1, -0.2])) == pytest.approx(0.05)


def test_lagrangian_reduces_to_objective():
    state = ControllerState.zeros(2, 2)
    state = ControllerState(
        q=np.array([0.1, -0.3]),
        lam_hi=state.lam_hi,
        lam_lo=state.lam_lo,
        mu_hi=state.mu_hi,
        mu_lo=state.mu_lo,
    )
    lim = Limits.box(2, 2)
    v = np.array([1.0, 1.0])
    assert written_out_lagrangian(state, v, lim) == pytest.approx(objective(state.q))


def test_lagrangian_boundary_term_vanishes():
    lim = Limits.box(1, 1)
    v_at_floor = lim.v_lo.copy()
    for lam in (0.0, 5.0):
        state = ControllerState(
            q=np.zeros(1),
            lam_hi=np.zeros(1),
            lam_lo=np.array([lam]),
            mu_hi=np.zeros(1),
            mu_lo=np.zeros(1),
        )
        assert written_out_lagrangian(state, v_at_floor, lim) == pytest.approx(0.0)


def test_lagrangian_single_bus_value():
    lim = Limits.box(1, 1)
    state = ControllerState(
        q=np.zeros(1),
        lam_hi=np.zeros(1),
        lam_lo=np.array([2.0]),
        mu_hi=np.zeros(1),
        mu_lo=np.zeros(1),
    )
    assert written_out_lagrangian(state, np.array([0.92]), lim) == pytest.approx(0.06)


def test_positive_projection():
    # rates pass through in the interior and are floored at zero on the
    # boundary; v_hi = 0 makes the lam_hi rows' raw rates equal to v
    lim = Limits(v_lo=np.full(4, -10.0), v_hi=np.zeros(4), q_lo=-np.ones(1), q_hi=np.ones(1))
    y = np.zeros(1 + 2 * 4 + 2)
    y[1:5] = [0.0, 0.5, 0.0, 0.0]
    flow = PackedFlow(np.ones((4, 1)), lim, Gains())
    rates, on, events = flow.rates(y, np.array([-3.0, -3.0, 3.0, 0.0]))
    assert rates[1:5].tolist() == [0.0, -3.0, 3.0, 0.0]
    assert on.tolist() == [False, True, True, False] + [False] * 6
    # the events are the multipliers on the piece and minus the violations off it
    assert events.tolist() == [3.0, 0.5, 0.0, 0.0, 7.0, 7.0, 13.0, 10.0, 1.0, 1.0]


def test_the_constraint_rows_are_the_written_out_ones(case14):
    # one row per multiplier, in their order; a stack of samples gives a
    # row of violations each, bit for bit the written-out formula's
    rng = np.random.default_rng(5)
    m, c = 4, 3
    lim = Limits(v_lo=rng.uniform(0.9, 0.95, m), v_hi=rng.uniform(1.05, 1.1, m),
                 q_lo=rng.uniform(-0.3, -0.1, c), q_hi=rng.uniform(0.1, 0.3, c))
    v, q = rng.uniform(0.85, 1.15, (6, m)), rng.uniform(-0.4, 0.4, (6, c))
    stacked = lim.violation(v, q)
    for k in range(len(v)):
        assert np.array_equal(stacked[k], written_out_violation(v[k], q[k], lim))
        assert np.array_equal(lim.violation(v[k], q[k]), stacked[k])
    # rows(xc) is each violation's derivative in q where v moves by xc dq
    xc, dq = rng.normal(size=(m, c)), rng.normal(size=c)
    moved = lim.violation(v[0] + xc @ dq, q[0] + dq) - stacked[0]
    assert_allclose(moved, rows(xc) @ dq, rtol=0, atol=1e-14)
    multipliers = list(ControllerState.__dataclass_fields__)[1:]
    assert [f.replace("lam", "v").replace("mu", "q") for f in multipliers] == list(ROWS)
    # Limits.families cuts the rows back into the families of ROWS: views
    # that stack to x again, and each family's written-out violation, bit
    # for bit, for one row and for a stack of rows
    part = partition_buses(case14)
    for m, c in ((1, 1), (3, 1), (4, 3), (part.n_load, part.n_controlled)):
        lim = Limits(v_lo=rng.uniform(0.9, 0.95, m), v_hi=rng.uniform(1.05, 1.1, m),
                     q_lo=rng.uniform(-0.3, -0.1, c), q_hi=rng.uniform(0.1, 0.3, c))
        for lead in ((), (6,)):
            x = rng.normal(size=lead + (2 * m + 2 * c,))
            cut = lim.families(x)
            assert [f.shape for f in cut] == [lead + (n,) for n in (m, m, c, c)]
            assert all(np.shares_memory(f, x) for f in cut)
            assert np.concatenate(cut, axis=-1).tobytes() == x.tobytes()
            v, q = rng.uniform(0.85, 1.15, lead + (m,)), rng.uniform(-0.4, 0.4, lead + (c,))
            written = (v - lim.v_hi, lim.v_lo - v, q - lim.q_hi, lim.q_lo - q)
            cut = lim.families(lim.violation(v, q))
            assert [f.tobytes() for f in cut] == [w.tobytes() for w in written]


def test_flow_jacobian_matches_finite_difference(case14):
    # with v = base + xc q the flow is linear between kinks, so central
    # differences at states away from the kinks give the active rows of J
    part = partition_buses(case14)
    xc = voltage_sensitivity(build_admittance(case14), part).xc
    m, c = xc.shape
    lim = Limits.box(m, c)
    gains = Gains(k_q=0.7, k_lam=1.3, k_mu=2.1)
    flow = PackedFlow(xc, lim, gains)
    rng = np.random.RandomState(7)
    h = 1e-7
    masked = 0
    for _ in range(10):
        q = rng.uniform(-0.3, 0.3, c)
        base = rng.uniform(0.9, 1.1, m)
        v = base + xc @ q
        raw = written_out_violation(v, q, lim)
        if np.min(np.abs(raw)) < 1e-3:
            continue
        mult = rng.uniform(0.1, 2.0, 2 * m + 2 * c) * (rng.rand(2 * m + 2 * c) < 0.5)
        y = np.concatenate([q, mult])

        def rates(y):
            return flow.rates(y, base + xc @ y[:c])[0]

        _, on, _ = flow.rates(y, v)
        expected = written_out_jacobian(xc, gains, np.concatenate([np.ones(c, dtype=bool), on]))
        masked += int(np.sum(~on))
        # a zero multiplier sits on the kink of its own row, so its column is skipped
        for j in np.concatenate([np.arange(c), c + np.flatnonzero(mult > 0)]):
            e = np.zeros(len(y))
            e[j] = h
            assert_allclose((rates(y + e) - rates(y - e)) / (2 * h), expected[:, j], atol=1e-6)
    assert masked > 0


def _plant_sensitivity(case, xc):
    """The nonlinear plant's dv/dq at the controlled buses, at the case's power flow."""
    sol = solve_power_flow(case, nominal_injections(case), tol=1e-12, max_iter=30)
    assert sol.converged
    n_a = len(case.topology.non_slack)
    gx = case.topology.partition.gather(jacobian_inverse(case, sol)[n_a:, n_a:])
    assert np.max(np.abs(gx - xc)) > 0.1 * np.max(np.abs(xc))
    return gx


def test_flow_jacobian_product_matches_written_out_jacobian(case14):
    # J z on random pieces, gains and vectors, with the nonlinear plant's
    # dv/dq in the lam rows: the product every nonlinear step's D2 takes
    case = scale_loads(case14, 3.1)
    part = partition_buses(case)
    xc = voltage_sensitivity(build_admittance(case), part).xc
    m, c = xc.shape
    n = 3 * c + 2 * m
    gx = _plant_sensitivity(case, xc)
    rng = np.random.default_rng(23)
    for _ in range(50):
        gains = Gains(*np.exp(rng.uniform(-2.0, 2.0, 3)))
        active = np.concatenate([np.ones(c, dtype=bool), rng.random(n - c) < rng.random()])
        z = rng.standard_normal(n)
        flow = PackedFlow(xc, Limits.box(m, c), gains)
        flow.set_plant_sensitivity(gx)
        expected = written_out_jacobian(xc, gains, active, gx) @ z
        got = flow.jacobian_product(active[c:], z)
        assert np.all(got[~active] == 0.0)
        assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("factor, ids", [(3.1, None), (2.8, (9, 10, 13))], ids=["M=C", "M!=C"])
def test_plant_sensitivity_is_the_rows_of_its_dvdq(case14, factor, ids):
    # set_plant_sensitivity puts the gains times rows(gx) in J_mq, the rule
    # the flow applies to xc: its multiplier rows are those of a flow built
    # on gx bit for bit, the mu rows too, on random pieces. Only the q rows
    # keep xc. The second network has M = 9 load buses and C = 3 controllers
    case = scale_loads(case14, factor)
    if ids is not None:
        case = case.with_controllers(ids)
    xc = voltage_sensitivity(build_admittance(case), partition_buses(case)).xc
    m, c = xc.shape
    n = 3 * c + 2 * m
    gx = _plant_sensitivity(case, xc)
    rng = np.random.default_rng(37)
    for _ in range(20):
        lim, gains = Limits.box(m, c), Gains(*np.exp(rng.uniform(-2.0, 2.0, 3)))
        flow, built = PackedFlow(xc, lim, gains), PackedFlow(gx, lim, gains)
        flow.set_plant_sensitivity(gx)
        on = rng.random(n - c) < rng.random()
        f, z = rng.standard_normal(n), rng.standard_normal(n)
        assert flow.event_rates(f, on).tobytes() == built.event_rates(f, on).tobytes()
        got, expected = (x.jacobian_product(on, z)[c:] for x in (flow, built))
        assert got.tobytes() == expected.tobytes()


def _count_eigh(monkeypatch) -> list[int]:
    """Count the symmetric eigendecompositions taken from here on: one per modal piece."""
    eigh, calls = np.linalg.eigh, [0]

    def counting(a):
        calls[0] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _phi_flow(xc, gains, gx):
    """A flow on its modal path (``gx`` None: the lam rows keep xc) or its dense one."""
    m, c = xc.shape
    flow = PackedFlow(xc, Limits.box(m, c), gains)
    if gx is not None:
        flow.set_plant_sensitivity(gx)
    return flow


@pytest.mark.parametrize("name, factor", [("case14", 3.1), ("case30", 0.25)], ids=["case14", "case30"])
def test_flow_phi_product_matches_full_exponential(monkeypatch, name, factor, request):
    # the reduced phi-products against the exponential of the full
    # (3C + 2M)-square Jacobian, over random pieces, gains, vectors and
    # step sizes from 1e-2 to 1e3. The modal path runs while the lam rows'
    # q block is xc, the linear plant's dv/dq, and takes one symmetric
    # eigendecomposition per piece; the dense path runs once the plant's
    # own dv/dq is set, on case14 at x3.1 load the nonlinear plant's, from
    # the power flow, and on case30 at x0.25 xc itself, and takes none
    case = scale_loads(request.getfixturevalue(name), factor)
    part = partition_buses(case)
    xc = voltage_sensitivity(build_admittance(case), part).xc
    m, c = xc.shape
    n = 3 * c + 2 * m
    plant = _plant_sensitivity(case, xc) if name == "case14" else xc
    eighs = _count_eigh(monkeypatch)
    for gx, decompositions in ((None, 100), (plant, 0)):
        rng = np.random.default_rng(11)
        eighs[0] = 0
        worst = 0.0
        for _ in range(100):
            gains = Gains(*np.exp(rng.uniform(-2.0, 2.0, 3)))
            h = 10.0 ** rng.uniform(-2.0, 3.0)
            active = np.concatenate([np.ones(c, dtype=bool), rng.random(n - c) < rng.random()])
            r = rng.standard_normal(n)
            jac = written_out_jacobian(xc, gains, active, gx)
            flow = _phi_flow(xc, gains, gx)
            for k in (1, 3):
                expected = full_phi(k, h * jac, r)
                got = flow.phi(k, h, active[c:], r)
                worst = max(worst, np.linalg.norm(got - expected) / np.linalg.norm(expected))
        assert worst <= 1e-11
        assert eighs[0] == decompositions


@pytest.mark.parametrize("name, factor", [("case14", 3.1), ("case30", 0.25)], ids=["case14", "case30"])
def test_flow_phi_product_is_exactly_linear_in_its_vector(monkeypatch, name, factor, request):
    # phi balances its vector column by a power of two, so scaling r by
    # 2^+-600 scales the product by exactly that, bit for bit, and r = 0
    # gives exact zeros; without the balancing a vector of 1e180 forces
    # hundreds of squarings and the product is wrong in its leading digit.
    # Both paths, as in the test above
    case = scale_loads(request.getfixturevalue(name), factor)
    part = partition_buses(case)
    xc = voltage_sensitivity(build_admittance(case), part).xc
    m, c = xc.shape
    n = 3 * c + 2 * m
    plant = _plant_sensitivity(case, xc) if name == "case14" else xc
    eighs = _count_eigh(monkeypatch)
    for gx, decompositions in ((None, 30), (plant, 0)):
        rng = np.random.default_rng(19)
        eighs[0] = 0
        for _ in range(30):
            gains = Gains(*np.exp(rng.uniform(-2.0, 2.0, 3)))
            h = 10.0 ** rng.uniform(-2.0, 3.0)
            on = rng.random(n - c) < rng.random()
            r = rng.standard_normal(n)
            flow = _phi_flow(xc, gains, gx)
            for k in (1, 3):
                base = flow.phi(k, h, on, r)
                for e in (-600, 600):
                    assert np.array_equal(flow.phi(k, h, on, 2.0**e * r), 2.0**e * base)
                assert np.all(flow.phi(k, h, on, np.zeros(n)) == 0.0)
        # at the top of the float range a short step is still scaled
        # exactly, also for a dense vector whose w has a 1-norm past the
        # float range: w is formed from r scaled by its largest entry's
        # power of two, and so is its norm. Summed unscaled it overflowed, expm
        # skipped its scaling, and the product came back finite and 0.22
        # off where its entries are below 0.4
        unit = np.eye(n)[0]
        w = np.concatenate((r[:c], flow._j_qm @ r[c:]))
        assert np.abs(w).sum() > 8.0
        for k in (1, 3):
            for vec, step in ((unit, 1e-3), (r, 1e-4)):
                big = flow.phi(k, step, on, 2.0**1021 * vec)
                assert np.array_equal(big, 2.0**1021 * flow.phi(k, step, on, vec))
        assert eighs[0] == decompositions


@pytest.mark.parametrize("name, factor", [("case14", 3.1), ("case30", 0.25)], ids=["case14", "case30"])
def test_modal_phi_products_on_degenerate_pieces(monkeypatch, name, factor, request):
    # the modal path against the full exponential on the pieces whose modes
    # are degenerate: at the default gains with only mu rows on the piece,
    # at most one per controller, each such mode [[-2, 1], [-1, 0]] has the
    # double eigenvalue -k_q = -1 (exact critical damping); with fewer rows
    # on the piece than controllers, G has zero eigenvalues; and on the empty
    # piece G is zero. One eigendecomposition per piece
    case = scale_loads(request.getfixturevalue(name), factor)
    part = partition_buses(case)
    xc = voltage_sensitivity(build_admittance(case), part).xc
    m, c = xc.shape
    n = 3 * c + 2 * m
    rng = np.random.default_rng(37)
    eighs = _count_eigh(monkeypatch)
    pieces = []
    for _ in range(5):
        mu = np.zeros((2, c), dtype=bool)
        mu[rng.integers(0, 2, c), np.arange(c)] = rng.random(c) < 0.7
        pieces.append(("critical", Gains(), np.concatenate((np.zeros(2 * m, bool), mu.ravel()))))
        few = np.zeros(n - c, dtype=bool)
        few[rng.choice(n - c, rng.integers(1, c), replace=False)] = True
        pieces.append(("few", Gains(*np.exp(rng.uniform(-2.0, 2.0, 3))), few))
    pieces.append(("empty", Gains(), np.zeros(n - c, dtype=bool)))
    worst = 0.0
    for kind, gains, on in pieces:
        flow = _phi_flow(xc, gains, None)
        jac = written_out_jacobian(xc, gains, np.concatenate((np.ones(c, dtype=bool), on)))
        g = jac[:c, c:] @ jac[c:, :c]
        eig = np.linalg.eigvalsh(0.5 * (g + g.T))
        if kind == "critical":
            # g_i is -1 on a controller with a mu row on the piece, and 0 without
            assert np.array_equal(np.sort(eig), np.sort(-on[2 * m :].reshape(2, c).sum(axis=0)))
            assert eig.min() == -1.0
        elif kind == "few":
            assert np.min(np.abs(eig)) <= 1e-12 * np.max(np.abs(eig))
        else:
            assert not eig.any()
        for h in (1e-2, 1.0, 30.0, 1e3):
            r = rng.standard_normal(n)
            for k in (1, 3):
                expected = full_phi(k, h * jac, r)
                got = flow.phi(k, h, on, r)
                worst = max(worst, np.linalg.norm(got - expected) / np.linalg.norm(expected))
    assert worst <= 1e-11
    assert eighs[0] == len(pieces)


# gains of 1e300 overflow numpy's products on purpose
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("path", ["modal", "dense"])
def test_overflowing_gains_give_nan_products(monkeypatch, case14, path):
    # k_q k_lam overflows, so G is not finite: the modal path takes no
    # eigendecomposition of it, which would fail, and both paths return
    # NaN products, which fail the step's finiteness check
    part = partition_buses(case14)
    xc = voltage_sensitivity(build_admittance(case14), part).xc
    m, c = xc.shape
    eighs = _count_eigh(monkeypatch)
    flow = _phi_flow(xc, Gains(1e300, 1e300, 1e300), None if path == "modal" else xc)
    r = np.random.default_rng(41).standard_normal(3 * c + 2 * m)
    for on in (np.ones(2 * m + 2 * c, dtype=bool), np.arange(2 * m + 2 * c) < m):
        for k, h in ((1, 0.1), (3, 1e-300)):
            assert np.isnan(flow.phi(k, h, on, r)).all()
    assert eighs[0] == 0


def test_phi_rebuilds_its_piece_on_a_new_mask_or_plant_sensitivity(case14):
    # phi keeps the last piece's maps, keyed on the piece's mask, and
    # set_plant_sensitivity clears them: through the pieces A -> B -> A,
    # and after a new dv/dq on A, every product is a freshly built flow's
    # bit for bit. Kept across the new dv/dq, A's old maps gave the linear
    # plant's product. Both paths also keep the last vector's w, keyed on
    # its values: a new vector, and the same array changed in place, are
    # mapped anew
    case = scale_loads(case14, 3.1)
    part = partition_buses(case)
    xc = voltage_sensitivity(build_admittance(case), part).xc
    m, c = xc.shape
    n = 3 * c + 2 * m
    gx = _plant_sensitivity(case, xc)
    lim, gains = Limits.box(m, c), Gains(0.7, 1.9, 1.3)
    rng = np.random.default_rng(29)
    piece_a, piece_b = (rng.random(n - c) < 0.5 for _ in "ab")
    assert np.any(piece_a[: 2 * m]) and np.any(piece_a != piece_b)
    r = rng.standard_normal(n)

    def fresh(on, k, h, sensitivity=None, vec=r):
        flow = PackedFlow(xc, lim, gains)
        if sensitivity is not None:
            flow.set_plant_sensitivity(sensitivity)
        return flow.phi(k, h, on, vec.copy())

    flow = PackedFlow(xc, lim, gains)
    calls = ((piece_a, 1, 0.3), (piece_a, 3, 2.0), (piece_b, 1, 0.3), (piece_a, 1, 7.0))
    for on, k, h in calls:
        assert flow.phi(k, h, on, r).tobytes() == fresh(on, k, h).tobytes()
    vec = rng.standard_normal(n)
    for _ in range(2):
        assert flow.phi(1, 0.3, piece_a, vec).tobytes() == fresh(piece_a, 1, 0.3, vec=vec).tobytes()
        vec[: c + 1] *= 3.0
    flow.set_plant_sensitivity(gx)
    for k, h in ((1, 0.3), (3, 7.0)):
        got = flow.phi(k, h, piece_a, r)
        assert got.tobytes() == fresh(piece_a, k, h, gx).tobytes()
        assert np.max(np.abs(got - fresh(piece_a, k, h))) > 1e-6 * np.max(np.abs(got))
    for _ in range(2):
        got = flow.phi(1, 0.3, piece_a, vec)
        assert got.tobytes() == fresh(piece_a, 1, 0.3, gx, vec).tobytes()
        vec[: c + 1] *= 3.0


def test_row_rates_are_the_rows_of_the_whole_products(case14):
    # a landing reads one row's event change, slope and bend; row_rates
    # reads an off-piece row off the whole products and forms an on-piece
    # row's for that row alone, and each is the row of event_rates of dy,
    # of f = f0 + J dy and of J f bit for bit, on the piece and off it,
    # with the nonlinear plant's dv/dq in J_mq
    case = scale_loads(case14, 3.1)
    part = partition_buses(case)
    xc = voltage_sensitivity(build_admittance(case), part).xc
    m, c = xc.shape
    n = 3 * c + 2 * m
    gx = _plant_sensitivity(case, xc)
    rng = np.random.default_rng(31)
    for _ in range(20):
        flow = PackedFlow(xc, Limits.box(m, c), Gains(*np.exp(rng.uniform(-2.0, 2.0, 3))))
        flow.set_plant_sensitivity(gx)
        on = rng.random(n - c) < rng.random()
        f0, dy = rng.standard_normal(n), rng.standard_normal(n)
        f = f0 + flow.jacobian_product(on, dy)
        whole = [flow.event_rates(z, on) for z in (dy, f, flow.jacobian_product(on, f))]
        for row in range(n - c):
            got = flow.row_rates(row, on, f0, dy)
            assert np.array(got).tobytes() == np.array([w[row] for w in whole]).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_expm_of_a_non_finite_norm_is_nan():
    # no scaling brings a norm that is not finite within a Taylor degree's
    # theta_m, so the exponential is NaN and a step taking it fails its
    # finiteness check; finite entries whose column sum overflows count too
    a = np.zeros((4, 4))
    for entries in ((np.inf,), (1e308, 1e308), (np.nan,)):
        a[: len(entries), 0] = entries
        assert np.all(np.isnan(expm(a)))
        assert np.isnan(expm(a, last=2)).all() and expm(a, last=2).shape == (4, 2)


@pytest.mark.parametrize("size", [20, 50])
def test_expm_matches_scipy(size):
    # damped rotations, so that the exponential neither overflows nor
    # vanishes: one 1-norm just under each Taylor degree's theta_m, where
    # that degree is the cheapest choice, unscaled, and its truncation
    # error is largest, then norms from 10 to 1e4, scaled and squared; at
    # most 2.4e-13 measured. The last two columns, as phi asks for them,
    # are checked on their own
    rng = np.random.default_rng(5)
    under = [0.999 * theta for theta, *_ in _TAYLOR]
    for norm in under + [10.0, 100.0, 1e3, 1e4]:
        g = rng.standard_normal((size, size))
        a = g - g.T - np.diag(rng.uniform(0.0, 1.0, size))
        a *= norm / np.linalg.norm(a, 1)
        expected = scipy.linalg.expm(a)
        assert np.linalg.norm(expm(a) - expected) <= 1e-12 * np.linalg.norm(expected)
        tail = expected[:, -2:]
        assert np.linalg.norm(expm(a, last=2) - tail) <= 1e-12 * np.linalg.norm(tail)
    # a stack is exponentiated slice by slice at the degree and squarings
    # of its largest 1-norm, so its smaller slices are squared more often
    # than alone; each slice, and its last two columns, against scipy
    g = rng.standard_normal((4, size, size))
    stack = g - g.transpose(0, 2, 1) - np.eye(size) * rng.uniform(0.0, 1.0, (4, 1, size))
    norms = np.abs(stack).sum(axis=1).max(axis=1)
    stack *= (np.array([1e-3, 0.5, 10.0, 1e3]) / norms)[:, None, None]
    whole, tails = expm(stack), expm(stack, last=2)
    assert whole.shape == stack.shape and tails.shape == (4, size, 2)
    for a, got, tail in zip(stack, whole, tails):
        expected = scipy.linalg.expm(a)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(tail - expected[:, -2:]) <= 1e-12 * np.linalg.norm(expected[:, -2:])


def _taylor_theta(m: int) -> float:
    """The largest 1-norm theta with sum_k |c_k| theta^(k - 1) <= 2^-53, c_k those of h_m.

    h_m(x) = log(e^-x T_m(x)) = sum_(k > m) c_k x^k, so T_m(a) = e^(a + h_m(a))
    with ||h_m(a)|| / ||a|| at most that sum at theta = ||a||. The c_k up to
    x^(3m + 21) come exactly, in rationals, from the log-series recurrence
    k c_k = k g_k - sum_(0 < j < k) j c_j g_(k - j) for g = e^-x T_m(x),
    whose terms cancel far below double precision. Each |c_k| is then
    rounded once, and the sum of positive terms bisected in floats.
    """
    n = 3 * m + 21
    g = [
        sum(
            Fraction((-1) ** (k - i), math.factorial(i) * math.factorial(k - i))
            for i in range(min(k, m) + 1)
        )
        for k in range(n + 1)
    ]
    c = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        c[k] = g[k] - sum(j * c[j] * g[k - j] for j in range(1, k)) / k
    assert not any(c[1 : m + 1])
    coeffs = [float(abs(ck)) for ck in c[m + 1 :]]
    lo, hi = 0.0, 4.0
    while hi - lo > 1e-15 * hi:
        mid = (lo + hi) / 2
        if sum(ck * mid ** (m + j) for j, ck in enumerate(coeffs)) <= 2.0**-53:
            lo = mid
        else:
            hi = mid
    return lo


def test_taylor_thetas_match_exact_arithmetic():
    # every theta_m of expm's table, recomputed from its series; a moved
    # threshold lets a degree run past its accuracy or wastes products
    assert [m for _, m, *_ in _TAYLOR] == [6, 9, 12, 16, 20, 25, 30]
    for theta, m, *_ in _TAYLOR:
        assert theta == pytest.approx(_taylor_theta(m), rel=1e-12)


def test_expm_and_phi_solve_no_linear_system(monkeypatch, case14):
    # the exponential and the phi-products come from matrix products alone:
    # unscaled (a 1-norm of 1e-3; a step of 1e-6, whose balanced matrix has
    # a 1-norm near 1/4) and scaled and squared (a 1-norm of 100; a step of
    # 1e3), with every column and with the last two. The modal path takes
    # one symmetric eigendecomposition per piece and still solves no
    # linear system; the dense path takes none
    def refuse(*args, **kwargs):
        raise AssertionError("a linear system was solved")

    case = scale_loads(case14, 3.1)
    part = partition_buses(case)
    xc = voltage_sensitivity(build_admittance(case), part).xc
    m, c = xc.shape
    modal, dense = (_phi_flow(xc, Gains(), gx) for gx in (None, _plant_sensitivity(case, xc)))
    eighs = _count_eigh(monkeypatch)
    on = np.ones(2 * c + 2 * m, dtype=bool)
    r = np.random.default_rng(3).standard_normal(3 * c + 2 * m)
    a = np.random.default_rng(4).standard_normal((20, 20))
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for scale, h in ((1e-3, 1e-6), (100.0, 1e3)):
        b = a * (scale / np.abs(a).sum(axis=0).max())
        assert np.all(np.isfinite(expm(b))) and np.all(np.isfinite(expm(b, last=2)))
        for k in (1, 3):
            assert np.all(np.isfinite(modal.phi(k, h, on, r)))
            assert np.all(np.isfinite(dense.phi(k, h, on, r)))
    # one piece: the modal flow's one decomposition
    assert eighs[0] == 1


def test_rates_match_the_lagrangian():
    # random networks, limits, gains, states, held rows and measured
    # voltages; about half the multipliers are zero, so many rows are on
    # the piece only because they are violated or held. rates finds the
    # natural piece itself and takes the piece with held rows as given.
    # With a gain of 1e-300 and violations of order 1e-30 the gain-scaled
    # rate underflows to zero, so only a test that reads the violation
    # itself keeps those rows on the natural piece.
    rng = np.random.default_rng(17)
    tiny = 0
    for trial in range(300):
        m, c = rng.integers(1, 6, 2)
        scale = 1e-30 if trial % 3 == 0 else 1.0
        gains = Gains(*np.exp(rng.uniform(-2.0, 2.0, 3)))
        if trial % 3 == 0:
            gains = Gains(k_q=gains.k_q, k_lam=1e-300, k_mu=1e-300)
        xc = rng.uniform(0.0, 0.2, (m, c))
        half_band = scale * rng.uniform(0.1, 1.0, m)
        half_box = scale * rng.uniform(0.1, 1.0, c)
        lim = Limits(v_lo=-half_band, v_hi=half_band, q_lo=-half_box, q_hi=half_box)
        mult = rng.uniform(0.0, 2.0, 2 * m + 2 * c) * (rng.random(2 * m + 2 * c) < 0.5)
        y = np.concatenate([scale * rng.uniform(-2.0, 2.0, c), mult])
        v = scale * rng.uniform(-2.0, 2.0, m)
        held = rng.random(2 * m + 2 * c) < 0.2
        flow = PackedFlow(xc, lim, gains)
        for hold in (held, np.zeros(2 * m + 2 * c, dtype=bool)):
            expected, expected_active = written_out_rates(y, v, xc, lim, gains, hold)
            rates, on, _ = flow.rates(y, v, expected_active[c:] if hold is held else None)
            assert on.tolist() == expected_active[c:].tolist()
            assert_allclose(rates[:c], expected[:c], rtol=1e-12, atol=1e-13)
            assert_allclose(rates[c:], expected[c:], rtol=1e-12, atol=0.0)
            if scale < 1.0 and hold is not held:
                tiny += int(np.sum(on & (rates[c:] == 0.0) & (y[c:] == 0.0)))
    assert tiny > 0


def test_event_rates_are_the_events_time_derivative(case14):
    # the linear plant on case14 at seeded random states, gains and held
    # rows: on the piece a state lies on, the events (multipliers on it,
    # minus the violations off it) are affine in the state, so their central
    # difference along the piece's written-out rates is their time
    # derivative up to rounding. At a point of its own piece every event is
    # nonnegative
    part = partition_buses(case14)
    sens = voltage_sensitivity(build_admittance(case14), part)
    xc = sens.xc
    m, c = xc.shape
    lim = Limits.box(m, c)

    def voltage(y):
        return predict_voltage(sens, part.embed(y[:c]))

    rng = np.random.default_rng(21)
    for _ in range(50):
        gains = Gains(*np.exp(rng.uniform(-2.0, 2.0, 3)))
        mult = rng.uniform(0.0, 2.0, 2 * m + 2 * c) * (rng.random(2 * m + 2 * c) < 0.5)
        y = np.concatenate([rng.uniform(-0.3, 0.3, c), mult])
        held = rng.random(2 * m + 2 * c) < 0.2
        f, active = written_out_rates(y, voltage(y), xc, lim, gains, held)
        on = active[c:]
        flow = PackedFlow(xc, lim, gains)
        assert np.all(flow.rates(y, voltage(y), on)[2] >= 0.0)
        s = 0.5
        up, dn = y + s * f, y - s * f
        diff = (flow.rates(up, voltage(up), on)[2] - flow.rates(dn, voltage(dn), on)[2]) / (2 * s)
        rates = flow.event_rates(f, on)
        assert np.max(np.abs(rates - diff)) <= 1e-10 * np.max(np.abs(diff))


def _residual(state, v, sens, lim, gains=Gains()) -> float:
    """Infinity norm of the projected rates; zero at a saddle point."""
    return float(np.max(np.abs(dynamics_rhs(state, v, sens, lim, gains))))


def test_interior_zero_state_is_equilibrium():
    sens = toy_sens(base_v=1.0)
    lim = toy_limits()
    state = ControllerState.zeros(1, 1)
    rates = dynamics_rhs(state, np.array([1.0]), sens, lim)
    assert np.all(rates == 0.0)
    assert _residual(state, np.array([1.0]), sens, lim) == 0.0


def test_toy_kkt_point_is_equilibrium():
    # by hand: v = 0.92 + 0.1 q pinned at 0.95 needs q = 0.3; stationarity
    # 2q - 0.1 lam_lo = 0 gives lam_lo = 6
    sens = toy_sens()
    lim = toy_limits()
    state = ControllerState(
        q=np.array([0.3]),
        lam_hi=np.zeros(1),
        lam_lo=np.array([6.0]),
        mu_hi=np.zeros(1),
        mu_lo=np.zeros(1),
    )
    v = predict_voltage(sens, state.q)
    assert v[0] == pytest.approx(0.95)
    assert _residual(state, v, sens, lim) < 1e-10


def test_violated_floor_forces_multiplier_growth():
    sens = toy_sens()
    lim = toy_limits()
    state = ControllerState.zeros(1, 1)
    gains = Gains(k_lam=2.5)
    v = np.array([0.92])
    rates = dynamics_rhs(state, v, sens, lim, gains)
    # the packed rates [q, lam_hi, lam_lo, mu_hi, mu_lo] of one bus and one controller
    assert rates[2] == pytest.approx(2.5 * 0.03)
    assert _residual(state, v, sens, lim, gains) >= 2.5 * 0.03 - 1e-12


def test_rates_scale_with_gains():
    sens = toy_sens()
    lim = toy_limits()
    state = ControllerState(
        q=np.array([0.1]),
        lam_hi=np.array([0.2]),
        lam_lo=np.array([1.0]),
        mu_hi=np.zeros(1),
        mu_lo=np.zeros(1),
    )
    v = np.array([0.9])
    r1 = dynamics_rhs(state, v, sens, lim, Gains())
    r7 = dynamics_rhs(state, v, sens, lim, Gains(k_q=7, k_lam=7, k_mu=7))
    assert_allclose(r7, 7 * r1, atol=1e-14)


def test_gradient_bracket_matches_lagrangian_fd(case14):
    # central differences of L(q, v(q)) against the bracket the flow
    # descends, -dq/dt at unit gains, at random strictly interior states
    part = partition_buses(case14)
    sens = voltage_sensitivity(build_admittance(case14), part)
    sens = rebased(sens, base_v=np.full(9, 1.0), base_q=np.zeros(9))
    lim = Limits.box(9, 9)
    rng = np.random.RandomState(11)
    h = 1e-6
    for _ in range(10):
        state = ControllerState(
            q=rng.uniform(-0.15, 0.15, 9),
            lam_hi=rng.uniform(0.1, 2.0, 9),
            lam_lo=rng.uniform(0.1, 2.0, 9),
            mu_hi=rng.uniform(0.1, 2.0, 9),
            mu_lo=rng.uniform(0.1, 2.0, 9),
        )
        bracket = -dynamics_rhs(state, predict_voltage(sens, state.q), sens, lim)[:9]
        for i in range(9):
            e = np.zeros(9)
            e[i] = h
            up = ControllerState(state.q + e, state.lam_hi, state.lam_lo, state.mu_hi, state.mu_lo)
            dn = ControllerState(state.q - e, state.lam_hi, state.lam_lo, state.mu_hi, state.mu_lo)
            fd = (
                written_out_lagrangian(up, predict_voltage(sens, up.q), lim)
                - written_out_lagrangian(dn, predict_voltage(sens, dn.q), lim)
            ) / (2 * h)
            assert abs(fd - bracket[i]) < 1e-8


def test_residual_invariant_under_relabeling(case14):
    part = partition_buses(case14)
    sens = voltage_sensitivity(build_admittance(case14), part)
    lim = Limits.box(9, 9)
    rng = np.random.RandomState(5)
    state = ControllerState(
        q=rng.uniform(-0.2, 0.2, 9),
        lam_hi=rng.uniform(0, 1, 9),
        lam_lo=rng.uniform(0, 1, 9),
        mu_hi=rng.uniform(0, 1, 9),
        mu_lo=rng.uniform(0, 1, 9),
    )
    v = rng.uniform(0.9, 1.1, 9)
    r0 = _residual(state, v, sens, lim)

    perm = rng.permutation(9)
    part_p = BusPartition(
        slack=part.slack, pv=part.pv, pq=part.pq[perm], controlled=part.controlled[perm]
    )
    sens_p = SensitivityMatrix(
        x=sens.x[np.ix_(perm, perm)],
        partition=part_p,
        base_v=sens.base_v[perm],
        base_q=sens.base_q[perm],
    )
    state_p = ControllerState(
        q=state.q[perm],
        lam_hi=state.lam_hi[perm],
        lam_lo=state.lam_lo[perm],
        mu_hi=state.mu_hi[perm],
        mu_lo=state.mu_lo[perm],
    )
    r1 = _residual(state_p, v[perm], sens_p, lim)
    assert r1 == pytest.approx(r0, abs=1e-14)


def test_pack_unpack_round_trip():
    rng = np.random.RandomState(2)
    state = ControllerState(
        q=rng.uniform(-1, 1, 3),
        lam_hi=rng.uniform(0, 1, 5),
        lam_lo=rng.uniform(0, 1, 5),
        mu_hi=rng.uniform(0, 1, 3),
        mu_lo=rng.uniform(0, 1, 3),
    )
    vec = state.packed()
    assert len(vec) == 3 * 3 + 2 * 5
    again = unpack_state(vec, 5, 3)
    for name in ("q", "lam_hi", "lam_lo", "mu_hi", "mu_lo"):
        assert_allclose(getattr(again, name), getattr(state, name))
    with pytest.raises(ValueError):
        unpack_state(vec[:-1], 5, 3)


def test_state_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ControllerState(
            q=np.zeros(1),
            lam_hi=np.array([-0.1]),
            lam_lo=np.zeros(1),
            mu_hi=np.zeros(1),
            mu_lo=np.zeros(1),
        )
    with pytest.raises(ValueError, match="finite"):
        ControllerState(
            q=np.array([np.nan]),
            lam_hi=np.zeros(1),
            lam_lo=np.zeros(1),
            mu_hi=np.zeros(1),
            mu_lo=np.zeros(1),
        )
    with pytest.raises(ValueError, match="lam vectors must agree in shape"):
        ControllerState(
            q=np.zeros(1), lam_hi=np.zeros(2), lam_lo=np.zeros(1), mu_hi=np.zeros(1),
            mu_lo=np.zeros(1),
        )
    with pytest.raises(ValueError, match="q and mu vectors must agree in shape"):
        ControllerState(
            q=np.zeros(1), lam_hi=np.zeros(1), lam_lo=np.zeros(1), mu_hi=np.zeros(2),
            mu_lo=np.zeros(1),
        )


_BAD_ENTRIES = [
    (name, bad)
    for name in ("q", "lam_hi", "lam_lo", "mu_hi", "mu_lo")
    for bad in (np.nan, np.inf, -np.inf)
] + [(name, -0.1) for name in ("lam_hi", "lam_lo", "mu_hi", "mu_lo")]


@pytest.mark.parametrize("name, bad", _BAD_ENTRIES)
def test_state_rejects_bad_entries(name, bad):
    fields = {field: np.zeros(2) for field in ("q", "lam_hi", "lam_lo", "mu_hi", "mu_lo")}
    fields[name][1] = bad
    with pytest.raises(ValueError):
        ControllerState(**fields)
    with pytest.raises(ValueError):
        unpack_state(np.concatenate(list(fields.values())), 2, 2)
    # a trajectory checks its rows once, as one array, for what each state checks
    rows = np.vstack([np.zeros(10), np.concatenate(list(fields.values()))])
    with pytest.raises(ValueError, match="nonnegative" if bad == -0.1 else "non-finite"):
        Trajectory(t=np.arange(2.0), y=rows, v=np.ones((2, 2)))


@pytest.mark.parametrize("length", [9, 11])
def test_unpack_rejects_a_wrong_length(length):
    with pytest.raises(ValueError, match="length"):
        unpack_state(np.zeros(length), 2, 2)
    with pytest.raises(ValueError, match="shape"):
        Trajectory(t=np.arange(3.0), y=np.zeros((3, length)), v=np.ones((3, 2)))


def test_trajectory_states_match_unpacked_rows():
    rng = np.random.default_rng(4)
    rows = np.hstack([rng.uniform(-1, 1, (6, 3)), rng.uniform(0, 1, (6, 16))])
    rows[:, 5] = 0.0
    states = Trajectory(t=np.arange(6.0), y=rows, v=np.ones((6, 5))).states
    assert len(states) == 6
    for state, row in zip(states, rows):
        assert isinstance(state, ControllerState)
        assert state.packed().tobytes() == row.tobytes()
        again = unpack_state(row, 5, 3)
        for name in ("q", "lam_hi", "lam_lo", "mu_hi", "mu_lo"):
            assert_allclose(getattr(state, name), getattr(again, name), rtol=0, atol=0)


def test_limits_validation():
    with pytest.raises(ValueError):
        Limits.box(2, 2, v_lo=1.05, v_hi=0.95)
    with pytest.raises(ValueError):
        Limits.box(2, 2, q_lo=0.2, q_hi=-0.2)
    for v_hi, q_hi in ((np.ones(3), np.ones(1)), (np.ones(2), np.ones(2))):
        with pytest.raises(ValueError, match="equal-shaped pairs"):
            Limits(v_lo=np.zeros(2), v_hi=v_hi, q_lo=np.zeros(1), q_hi=q_hi)


@pytest.mark.parametrize(
    "field, value", [("v_hi", np.nan), ("v_lo", -np.inf), ("q_lo", -np.inf), ("q_hi", np.inf)]
)
def test_limits_reject_non_finite(field, value):
    # a NaN v_hi used to be reported as "v_lo must be below v_hi", and an
    # infinite box gave an oracle KKT residual of 0.0 from NaN products
    with pytest.raises(ValueError, match=f"limit {field} must be finite"):
        Limits.box(2, 2, **{field: value})


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(k_q=0.0)


@pytest.mark.parametrize("field, value", [("k_q", np.nan), ("k_lam", np.inf), ("k_mu", -np.inf)])
def test_gains_reject_non_finite(field, value):
    # these used to pass the positivity test and end in step underflow at t = 0
    with pytest.raises(ValueError, match=f"gain {field} must be positive and finite"):
        Gains(**{field: value})


def test_rhs_input_validation():
    sens = toy_sens()
    lim = toy_limits()
    state = ControllerState.zeros(1, 1)
    with pytest.raises(ValueError):
        dynamics_rhs(state, np.array([1.0, 1.0]), sens, lim)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            dynamics_rhs(state, np.array([bad]), sens, lim)


def test_rates_packed_layout():
    # every multiplier positive, so no row is projected, and each block's
    # rate distinct: q, then lam_hi, lam_lo, mu_hi and mu_lo
    state = ControllerState(
        q=np.array([0.1]),
        lam_hi=np.array([0.2]),
        lam_lo=np.array([1.0]),
        mu_hi=np.array([0.3]),
        mu_lo=np.array([0.4]),
    )
    rates = dynamics_rhs(state, np.array([0.9]), toy_sens(), toy_limits())
    assert_allclose(rates, [-0.02, -0.15, 0.05, -0.4, -0.6], rtol=0, atol=1e-15)
