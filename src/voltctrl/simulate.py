"""Closed-loop quasi-static simulation of the controller against a plant.

The controller state follows its saddle-point dynamics while the voltage it
measures comes from an algebraic plant solved at the current injections:
either the AC power flow or the constant linear model. Integration uses
the adaptive exponential Rosenbrock method exprb32 (Hochbruck, Ostermann &
Schweitzer, SIAM J. Numer. Anal. 47(1), 2009). The projected rates kink
where multipliers reach zero or constraints turn violated, so each step
holds the smooth piece of the flow it starts on: rows active there stay
active and unfloored, the others keep a zero rate. On a piece the flow is
affine for the linear plant and nearly so for the nonlinear one, whose
curvature enters only the lam rows through the measured voltage. With J
the piece's Jacobian at the step's start, the plant's own dv/dq in its lam
rows, a step of size h is

    U2 = y0 + h phi1(hJ) F0,
    y1 = U2 + 2h phi3(hJ) D2,   D2 = F(U2) - F0 - J (U2 - y0),

where F is the piece's rate. The correction is the embedded estimate of
U2's local error and sets the step size. On the linear plant, and on the
nonlinear one while no lam row is active, D2 is zero: the step is exact on
its piece and makes one plant call, at its end; otherwise it makes two, at
U2 and at y1, and no Newton iteration. A step that would drive a
multiplier negative, or end where a row off its piece has its constraint
violated, is cut back to land on that event: to the first root of each
event row's cubic Hermite interpolant over the step, from the row's values
and time derivatives at both ends (dense-output event location; Shampine
& Thompson, Comput. Math. Appl. 39, 2000), so trajectories never leave the
nonnegative orthant by more than the solver tolerance. Events already at
the step's start change the piece instead, all in one retry of the same
step at the same size: every multiplier within 1e-9 of zero that would
cross is clamped to zero, and every row within 1e-9 of its constraint that
would enter joins the piece. Each result counts its accepted steps, its
rejected attempts by reason, its plant calls and its phi-products in a
``SolverStats``.

Every plant solve of the loop is taken to a power mismatch of 1e-10, far
below the local errors the step control reads; ``solve_power_flow`` keeps
its 1e-8 default everywhere else. Those solves are chord iterations: the
power-flow Jacobian is formed and inverted once at the window's start
(whose own solve is full Newton) and at each accepted state, and every
solve in the step from there, retries included, starts at the last
solution and steps with that inverse. Its block of magnitude rows and
reactive columns is the plant's dv/dq in J. A chord solve whose step does
not halve the mismatch ends unconverged; the attempt fails with it and the
step is retried at half the size, nearer the point where the inverse was
taken. A stage that is not finite (gains so large that hJ overflows) fails
the attempt the same way, before any plant call; where halving never
makes it finite, the run ends in :class:`StepSizeUnderflowError`.

``integrate`` runs one window: one case, from a start state at t = 0 to a
horizon or to equilibrium; it takes ``run_static``'s parameters plus the
error tolerances. Three scenario families mirror the intended use:
a static load held to equilibrium (one window), a line trip during
operation (an intact window, then a tripped one from its last state), and a
24-hour load profile (one window per hour, warm-started hour to hour).
Multi-window runs are joined into one trajectory by ``_join``.

Inside a window the engine works on packed state vectors only: one loop
object per window holds the plant and the controller's flow, compiled once
for the window (``controller.PackedFlow``). Every evaluation is its
``rates`` and every phi-product its ``phi``, a 2C-square exponential (the
engine knows only that the first C entries are q and the rest
multipliers). The accepted rows are checked once, as one array, and
``ControllerState`` objects are built from them once, for the returned
trajectory. Every plant call is made at a new output: an accepted step
hands its end's rates and voltage to the next step, a step whose end has
its stage's q reuses the stage's voltage, and a window's start reads the
voltage of the power flow its relinearization solved.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from enum import Enum

import numpy as np

from .controller import ControllerState, Gains, Limits, PackedFlow, objective, trajectory_states
from .errors import CaseDataError, ConfigError, PlantDivergenceError, StepSizeUnderflowError
from .netcase import NetworkCase, scale_loads, trip_branch
from .powerflow import (
    InjectionSet,
    PowerFlowSolution,
    jacobian_inverse,
    nominal_injections,
    solve_power_flow,
)
from .sensitivity import (
    partition_buses,
    predict_voltage,
    rebased,
    voltage_sensitivity,
)


class PlantMode(Enum):
    NONLINEAR = "nonlinear"
    LINEAR = "linear"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted-step samples: times, states, load-bus voltages, cost."""

    t: np.ndarray
    states: tuple[ControllerState, ...]
    v: np.ndarray
    cost: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.t) == len(self.states) == self.v.shape[0] == len(self.cost)):
            raise ValueError("trajectory arrays disagree on sample count")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True, eq=False)
class ViolationSummary:
    """Worst constraint excursions seen anywhere along the trajectory."""

    max_v_below: float
    max_v_above: float
    max_q_below: float
    max_q_above: float
    min_multiplier: float


@dataclass(frozen=True)
class SolverStats:
    """Work counts of a run, summed over its windows.

    Accepted steps, and rejected attempts by reason: an attempt fails the
    error test, is cut back to land on a multiplier crossing zero or on a
    row entering its piece, is retried after a start-of-step event (a clamp
    or a join), or is retried at half the size after the plant diverged.
    Plant calls are the voltages the steps measure (a window's start reads
    its relinearization's solve), and phi-products those the steps take.
    """

    accepted: int = 0
    error_test: int = 0
    crossing: int = 0
    entering: int = 0
    start_event: int = 0
    plant_divergence: int = 0
    plant_calls: int = 0
    phi_products: int = 0

    @property
    def attempts(self) -> int:
        rejected = self.error_test + self.crossing + self.entering + self.start_event
        return self.accepted + rejected + self.plant_divergence

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass(frozen=True, eq=False)
class SimulationResult:
    trajectory: Trajectory
    final_v: np.ndarray
    final_q: np.ndarray
    converged: bool
    final_residual: float
    violations: ViolationSummary
    stats: SolverStats


@dataclass(frozen=True, eq=False)
class FaultResult(SimulationResult):
    pre_cost: float
    post_cost: float
    cost_ratio: float
    pre_q: np.ndarray


@dataclass(frozen=True, eq=False)
class DailyResult(SimulationResult):
    hourly_final_q: np.ndarray
    hourly_final_v: np.ndarray
    uncontrolled_v: np.ndarray


# power mismatch every plant solve of the loop is taken to: far below the
# local errors the step control reads, so its estimate stays above plant noise
_PLANT_TOL = 1e-10


class _ClosedLoop:
    """One window's compiled loop: plant, packed flow and the exprb32 step.

    Built once per window from the case, plant flavor, limits and gains. It
    holds the partition, the controlled positions ``cpos`` within the load
    buses, the nominal injections, the sensitivity (from the case's cached
    admittance) with its base point, the controller's ``flow`` compiled
    from the sensitivity's controlled columns, and in nonlinear mode the
    warm-start solution reused across evaluations and the inverse Jacobian
    its chord solves step with, whose dv/dq block the flow's Jacobian uses.
    A plant solve that does not converge raises
    :class:`PlantDivergenceError`, which fails the step attempt. States are
    packed vectors whose first C entries are q and whose remaining entries
    are multipliers.
    """

    def __init__(
        self, case: NetworkCase, plant_mode: PlantMode, limits: Limits | None, gains: Gains
    ):
        self.case = case
        self.mode = plant_mode
        self.part = partition_buses(case)
        self.m, self.c = self.part.n_load, self.part.n_controlled
        self.lim = limits if limits is not None else Limits.box(self.m, self.c)
        self.inj = nominal_injections(case)
        self.cpos = self.part.controlled_in_pq()
        self.sens = voltage_sensitivity(case.topology.y, self.part)
        self.flow = PackedFlow(self.sens.x[:, self.cpos], self.lim, gains)
        self.last: PowerFlowSolution | None = None
        self.inverse: np.ndarray | None = None
        self.plant_calls = self.phi_products = 0

    def embed(self, q: np.ndarray) -> np.ndarray:
        full = np.zeros(self.m)
        full[self.cpos] = q
        return full

    def _solve(self, q: np.ndarray) -> PowerFlowSolution:
        inj = InjectionSet(
            self.inj.p_injection, self.inj.q_injection + self.embed(q)
        )
        sol = solve_power_flow(
            self.case, inj, tol=_PLANT_TOL, warm_start=self.last, inverse=self.inverse
        )
        if not sol.converged:
            raise PlantDivergenceError(
                f"power flow lost convergence (mismatch {sol.max_mismatch:.3e})"
            )
        self.last = sol
        return sol

    def rebase(self, q: np.ndarray) -> np.ndarray:
        """Re-solve at the given controller output and relinearize there.

        Returns the load-bus voltage there, which both plants measure at q.
        """
        v = self._solve(q).v[self.part.pq]
        self.sens = rebased(self.sens, base_v=v, base_q=self.embed(q))
        self.refresh_inverse()
        return v

    def refresh_inverse(self) -> None:
        """Invert the nonlinear plant's Jacobian at its last solve, made at the current state.

        Called at a window's start and at each accepted state; the step
        from there, retries included, solves the plant by chord iterations
        with this inverse and takes dv/dq at the controlled buses from its
        magnitude rows, which it hands to the flow. The linear plant's dv/dq
        is X's controlled columns, the flow's own.
        """
        if self.mode is PlantMode.NONLINEAR:
            self.inverse = jacobian_inverse(self.case, self.last)
            n_a = len(self.case.topology.non_slack)
            self.flow.set_plant_sensitivity(self.inverse[n_a:, n_a + self.cpos])

    def voltage(self, q: np.ndarray) -> np.ndarray:
        """The plant call: load-bus voltages measured at controller output q."""
        self.plant_calls += 1
        if self.mode is PlantMode.LINEAR:
            return predict_voltage(self.sens, self.embed(q))
        return self._solve(q).v[self.part.pq]

    def eval(self, y: np.ndarray, v: np.ndarray | None = None):
        """Floored state, projected rates, active rows and measured voltage at a packed state.

        ``v`` is the voltage at y's q where it is already known.
        """
        y = np.concatenate((y[: self.c], np.maximum(y[self.c :], 0.0)))
        if v is None:
            v = self.voltage(y[: self.c])
        return (y, *self.flow.rates(y, v), v)

    def attempt(self, y0: np.ndarray, f0: np.ndarray, active0: np.ndarray, h: float):
        """One exprb32 step of size h from y0, whose rates and active rows are known.

        The step holds the piece of the flow y0 lies on: rows in ``active0``
        stay active, and the others keep a zero rate. On it the stage is
        U2 = y0 + h phi1(hJ) f0, with J the piece's Jacobian (``flow.phi``).
        The linear plant's flow is affine on the piece, so U2 is exact and
        ends the step; so does the nonlinear plant's while the piece does
        not read the voltage (``flow.reads_voltage``). Otherwise the plant
        is solved at U2, and with D2 = F(U2) - f0 - J (U2 - y0), the piece's
        rates' departure from their linearization, the step ends at
        y1 = U2 + est with est = 2h phi3(hJ) D2, the embedded estimate of
        U2's local error. Returns y1 unfloored, est, and the projected
        evaluation at y1: the floored state, its rates, active rows and
        measured voltage. An end whose q is U2's reuses U2's voltage. A plant
        solve that does not converge raises :class:`PlantDivergenceError`,
        and so does a stage that is not finite, before any plant call.
        """
        c, flow = self.c, self.flow
        self.phi_products += 1
        u2 = y0 + h * flow.phi(1, h, active0, f0)
        if not np.all(np.isfinite(u2)):
            raise PlantDivergenceError("the step's stage is not finite; no plant is solved there")
        est = np.zeros_like(y0)
        v2 = None
        if self.mode is PlantMode.NONLINEAR and flow.reads_voltage(active0):
            v2 = self.voltage(u2[:c])
            f2, _ = flow.rates(u2, v2, active0[c:])
            d2 = np.where(active0, f2, 0.0) - f0 - flow.jacobian_product(active0, u2 - y0)
            self.phi_products += 1
            est = 2.0 * h * flow.phi(3, h, active0, d2)
        y1 = u2 + est
        if v2 is not None and not np.array_equal(y1[:c], u2[:c]):
            v2 = None
        return y1, est, self.eval(y1, v2)


def integrate(
    case: NetworkCase,
    limits: Limits | None = None,
    gains: Gains = Gains(),
    tol: float | None = 1e-6,
    plant_mode: PlantMode = PlantMode.NONLINEAR,
    horizon: float = 2e5,
    initial_state: ControllerState | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-8,
) -> SimulationResult:
    """Run one window from the start state at t = 0 to the horizon or equilibrium.

    Equilibrium is every rate below ``tol`` in magnitude; ``tol=None`` runs
    to the horizon. Unset limits are the default box, an unset start state
    zeros. The plant is linearized at the start state's output. Multi-window
    runs chain calls from the previous window's last state and ``_join`` them.
    ``horizon``, ``rtol``, ``atol`` and a set ``tol`` must be positive and
    finite, and the case must have a controlled bus; otherwise
    :class:`ConfigError`.
    """
    for name, value in (("horizon", horizon), ("tol", tol), ("rtol", rtol), ("atol", atol)):
        if not ((name == "tol" and value is None) or 0 < value < np.inf):
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    loop = _ClosedLoop(case, plant_mode, limits, gains)
    m, c, lim = loop.m, loop.c, loop.lim
    if c == 0:
        raise ConfigError(f"case {case.name} has no controlled bus")
    state0 = ControllerState.zeros(m, c) if initial_state is None else initial_state
    if state0.lam_hi.shape != (m,) or state0.q.shape != (c,):
        raise ConfigError(
            f"initial state has M={state0.lam_hi.size}, C={state0.q.size}; "
            f"the case needs M={m}, C={c}"
        )
    if lim.v_lo.shape != (m,) or lim.q_lo.shape != (c,):
        raise ConfigError(
            f"limits have M={lim.v_lo.size}, C={lim.q_lo.size}; "
            f"the case needs M={m}, C={c}"
        )
    y = state0.packed()
    v = loop.rebase(state0.q)
    f, active = loop.flow.rates(y, v)
    times, rows, volts, raw_mins = [0.0], [y], [v], [float(np.min(y[c:]))]
    rejected = dict.fromkeys(
        ("error_test", "crossing", "entering", "start_event", "plant_divergence"), 0
    )
    residual = float(np.max(np.abs(f)))
    t = 0.0
    h = min(0.1, horizon)
    while not (tol is not None and residual < tol) and t < horizon - 1e-9 * max(1.0, horizon):
        h_try = min(h, horizon - t)
        if h_try < 1e-13 * max(1.0, t):
            raise StepSizeUnderflowError(f"step size underflow at t={t:.6g}")
        try:
            y1, est, at_end = loop.attempt(y, f, active, h_try)
        except PlantDivergenceError:
            rejected["plant_divergence"] += 1
            h = 0.5 * h_try
            continue
        a, b = y[c:], y1[c:]
        crossing = (b < -1e-12) & (a > 0)
        # rows off the piece whose constraint is violated at the step's end
        entering = at_end[2][c:] & ~active[c:]
        viol0 = loop.flow.violation(y, v)
        viol1 = loop.flow.violation(at_end[0], at_end[3])
        # events at the step's start: a residual-level dual decaying through
        # zero is clamped there, and a row on the edge of its constraint
        # joins the piece; then the same step is retried
        clamp = crossing & (a <= 1e-9)
        join = entering & (viol0 >= -1e-9)
        if np.any(clamp | join):
            rejected["start_event"] += 1
            y = y.copy()
            y[c:][clamp] = 0.0
            f, active = loop.flow.rates(y, v, (active[c:] & ~clamp) | join)
            continue
        frac = 1.0
        if np.any(crossing | entering):
            # the fraction of the step where the first event row reaches its
            # event: a multiplier zero, or an entering row's constraint. The
            # rows' rates at the end are the piece's at the unfloored end,
            # whose q, and so whose voltage, is the evaluated one
            f1 = loop.flow.rates(y1, at_end[3], active[c:])[0]
            rate0, rate1 = loop.flow.violation_rate(f[:c]), loop.flow.violation_rate(f1[:c])
            roots = _first_root(
                np.concatenate((a[crossing], -viol0[entering])),
                np.concatenate((b[crossing], -viol1[entering])),
                h_try * np.concatenate((f[c:][crossing], -rate0[entering])),
                h_try * np.concatenate((f1[c:][crossing], -rate1[entering])),
            )
            first = int(np.argmin(roots))
            frac = float(roots[first])
        if frac < 1.0 and h_try * frac > 1e-10:
            # land on the event instead of stepping past it
            rejected["crossing" if first < np.count_nonzero(crossing) else "entering"] += 1
            h = h_try * frac
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
        err = float(np.max(np.abs(est) / scale))
        if not err <= 1.0:
            rejected["error_test"] += 1
            h = h_try * max(0.2, 0.9 * err ** (-1.0 / 3.0))
            continue
        t += h_try
        y, f, active, v = at_end
        loop.refresh_inverse()
        times.append(t)
        rows.append(y)
        volts.append(v)
        raw_mins.append(float(np.min(b)))
        residual = float(np.max(np.abs(f)))
        growth = min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0))) if err > 0 else 5.0
        h = h_try * growth

    packed = np.array(rows)
    states = trajectory_states(packed, m, c)
    v_all, q_all = np.array(volts), packed[:, :c]
    # regulated buses from the last solve, load buses as the last sample measured
    final_v = loop.last.v.copy()
    final_v[loop.part.pq] = v_all[-1]
    return SimulationResult(
        trajectory=Trajectory(
            t=np.array(times),
            states=states,
            v=v_all,
            cost=np.array([objective(s.q) for s in states]),
        ),
        final_v=final_v,
        final_q=states[-1].q.copy(),
        converged=bool(tol is not None and residual < tol),
        final_residual=residual,
        violations=ViolationSummary(
            max_v_below=max(0.0, float(np.max(lim.v_lo - v_all))),
            max_v_above=max(0.0, float(np.max(v_all - lim.v_hi))),
            max_q_below=max(0.0, float(np.max(lim.q_lo - q_all))),
            max_q_above=max(0.0, float(np.max(q_all - lim.q_hi))),
            min_multiplier=min(0.0, min(raw_mins)),
        ),
        stats=SolverStats(
            len(rows) - 1,
            **rejected,
            plant_calls=loop.plant_calls,
            phi_products=loop.phi_products,
        ),
    )


def _first_root(p0, p1, d0, d1) -> np.ndarray:
    """The smallest root in (0, 1] of each row's cubic Hermite interpolant.

    Row i's cubic p has p(0) = p0[i] > 0 >= p(1) = p1[i] and slopes d0[i]
    and d1[i] at 0 and 1. Its critical points and its inflection point cut
    [0, 1] into pieces on which p is monotone and of one convexity. The
    first cut whose value is not positive, or 1, ends the piece that holds
    the smallest root, and the last cut before it starts that piece. From
    the piece's end where p p'' >= 0, Newton's method approaches the root
    from one side without leaving the piece (Fourier's condition). An
    iterate stops where p is zero or its sign has turned by rounding, and
    all stop after at most 64 steps.
    """
    c2 = 3.0 * (p1 - p0) - 2.0 * d0 - d1
    c3 = 2.0 * (p0 - p1) + d0 + d1
    with np.errstate(divide="ignore", invalid="ignore"):
        # the roots of p' = d0 + 2 c2 x + 3 c3 x^2 by the stable quadratic
        # formula, and that of p'' = 2 c2 + 6 c3 x
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


def _join(
    windows: list[tuple[float, SimulationResult]],
) -> tuple[Trajectory, ViolationSummary, SolverStats]:
    """Chain window results, each started at the given time, into one record.

    A window's first sample that would not come after the previous window's
    last is nudged 1e-9 past it, or one float spacing where that is larger
    (past 2**24 s). Violations keep the worst of all windows, and the
    solver counts are summed.
    """
    times: list[np.ndarray] = []
    for start, res in windows:
        t = res.trajectory.t + start
        if times and t[0] <= times[-1][-1]:
            prev = times[-1][-1]
            t[0] = max(prev + 1e-9, np.nextafter(prev, np.inf))
        times.append(t)
    results = [res for _, res in windows]
    trajectory = Trajectory(
        t=np.concatenate(times),
        states=tuple(s for res in results for s in res.trajectory.states),
        v=np.vstack([res.trajectory.v for res in results]),
        cost=np.concatenate([res.trajectory.cost for res in results]),
    )
    worst = [res.violations for res in results]
    violations = ViolationSummary(
        max_v_below=max(w.max_v_below for w in worst),
        max_v_above=max(w.max_v_above for w in worst),
        max_q_below=max(w.max_q_below for w in worst),
        max_q_above=max(w.max_q_above for w in worst),
        min_multiplier=min(w.min_multiplier for w in worst),
    )
    return trajectory, violations, sum((res.stats for res in results), SolverStats())


def run_static(
    case: NetworkCase,
    limits: Limits | None = None,
    gains: Gains = Gains(),
    tol: float = 1e-6,
    plant_mode: PlantMode = PlantMode.NONLINEAR,
    horizon: float = 2e5,
    initial_state: ControllerState | None = None,
) -> SimulationResult:
    """Hold the load constant and integrate until the dynamics settle."""
    return integrate(case, limits, gains, tol, plant_mode, horizon, initial_state)


def run_fault(
    case: NetworkCase,
    limits: Limits | None = None,
    gains: Gains = Gains(),
    trip: tuple[int, int] = (4, 5),
    t_trip: float | None = None,
    tol: float = 1e-6,
    plant_mode: PlantMode = PlantMode.NONLINEAR,
    horizon: float = 2e5,
) -> FaultResult:
    """Trip a branch mid-run and settle again; report both costs.

    The intact case runs first, then the tripped case from its last state
    for up to ``horizon`` seconds. With ``t_trip`` unset the intact window
    runs to equilibrium, so the reported costs are the two equilibrium
    costs. With an explicit ``t_trip`` the line drops at that instant
    whether or not the controller has settled, and the pre cost is read off
    the last pre-trip sample.
    """
    if t_trip is not None and not 0 < t_trip < np.inf:
        raise ConfigError(f"trip time must be positive and finite, got {t_trip}")
    pre = run_static(case, limits, gains, tol, plant_mode, horizon if t_trip is None else t_trip)
    post = run_static(
        trip_branch(case, trip[0], trip[1]),
        limits,
        gains,
        tol,
        plant_mode,
        horizon,
        initial_state=pre.trajectory.states[-1],
    )
    t_at_trip = float(pre.trajectory.t[-1]) if t_trip is None else t_trip
    trajectory, violations, stats = _join([(0.0, pre), (t_at_trip, post)])
    pre_cost = float(pre.trajectory.cost[-1])
    post_cost = float(post.trajectory.cost[-1])
    return FaultResult(
        trajectory=trajectory,
        final_v=post.final_v,
        final_q=post.final_q,
        converged=post.converged and (pre.converged or t_trip is not None),
        final_residual=post.final_residual,
        violations=violations,
        stats=stats,
        pre_cost=pre_cost,
        post_cost=post_cost,
        cost_ratio=post_cost / pre_cost if pre_cost > 0 else float("inf"),
        pre_q=pre.final_q,
    )


def run_daily(
    case: NetworkCase,
    limits: Limits | None = None,
    gains: Gains = Gains(),
    profile=None,
    tol: float = 1e-6,
    plant_mode: PlantMode = PlantMode.NONLINEAR,
    hour_seconds: float = 3600.0,
    reset_multipliers: bool = False,
) -> DailyResult:
    """24 hourly load levels; the controller warm-starts hour to hour.

    Each hour scales the original case, re-solves the uncontrolled plant for
    comparison, relinearizes at the carried-over output, and integrates
    until equilibrium or the hour window ends. ``reset_multipliers`` zeroes
    the dual state at each hour boundary instead of carrying it.
    """
    if profile is None:
        profile = default_daily_profile()
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (24,):
        raise ConfigError("daily profile needs exactly 24 load factors")
    if np.any(profile < 0):
        raise ConfigError("load factors must be nonnegative")
    state = None
    windows: list[tuple[float, SimulationResult]] = []
    bare_v = []
    for hour, factor in enumerate(profile):
        hourly_case = scale_loads(case, float(factor))
        bare = solve_power_flow(hourly_case, nominal_injections(hourly_case))
        if not bare.converged:
            raise PlantDivergenceError(f"uncontrolled power flow failed at hour {hour}")
        bare_v.append(bare.v[hourly_case.topology.pq].copy())
        if reset_multipliers and state is not None:
            state = replace(ControllerState.zeros(state.lam_hi.size, state.q.size), q=state.q)
        res = run_static(
            hourly_case,
            limits,
            gains,
            tol,
            plant_mode,
            horizon=hour_seconds,
            initial_state=state,
        )
        windows.append((hour * hour_seconds, res))
        state = res.trajectory.states[-1]
    trajectory, violations, stats = _join(windows)
    results = [res for _, res in windows]
    return DailyResult(
        trajectory=trajectory,
        final_v=results[-1].final_v,
        final_q=results[-1].final_q,
        converged=all(res.converged for res in results),
        final_residual=results[-1].final_residual,
        violations=violations,
        stats=stats,
        hourly_final_q=np.array([res.final_q for res in results]),
        hourly_final_v=np.array([res.trajectory.v[-1] for res in results]),
        uncontrolled_v=np.array(bare_v),
    )


def default_daily_profile() -> np.ndarray:
    """A plausible day: night valley around 0.7, evening peak around 1.2."""
    hours = np.arange(24)
    return np.round(
        0.95 - 0.25 * np.cos(2 * np.pi * (hours - 2.0) / 24.0) ** 2
        + 0.25 * np.exp(-0.5 * ((hours - 19.0) / 3.0) ** 2),
        4,
    )


@dataclass(frozen=True)
class CalibrationResult:
    factor: float
    max_error: float
    achieved: bool


# load factors the calibration searches, and the error it must clear
_CALIBRATION_RANGE = (1.0, 4.0)
_CALIBRATION_THRESHOLD = 0.02


def calibrate_load_scale(case: NetworkCase, target_v: dict[int, float]) -> CalibrationResult:
    """Search a uniform PQ load factor matching a target voltage profile.

    Minimizes the max-abs voltage error against ``target_v`` (bus id ->
    magnitude) over load factors in [1, 4] by coarse grid plus
    golden-section refinement. ``achieved`` reports whether the best error
    is below 0.02. An empty map, or one naming a bus the case lacks, raises
    :class:`CaseDataError`.
    """
    if not target_v:
        raise CaseDataError("the target voltage map is empty")
    index = case.bus_index()
    bus_ids = sorted(target_v)
    unknown = [b for b in bus_ids if b not in index]
    if unknown:
        raise CaseDataError(f"target voltages name unknown bus ids {unknown}")
    want = np.array([target_v[b] for b in bus_ids])
    rows = [index[b] for b in bus_ids]

    def err(k: float) -> float:
        scaled = scale_loads(case, k)
        sol = solve_power_flow(scaled, nominal_injections(scaled), max_iter=30)
        if not sol.converged:
            return np.inf
        return float(np.max(np.abs(sol.v[rows] - want)))

    grid = np.linspace(*_CALIBRATION_RANGE, 61)
    errors = [err(k) for k in grid]
    best = int(np.argmin(errors))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = err(x1), err(x2)
    for _ in range(60):
        if b - a < 1e-6:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = err(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = err(x2)
    k_star = (a + b) / 2.0
    e_star = err(k_star)
    achieved = e_star < _CALIBRATION_THRESHOLD
    return CalibrationResult(factor=float(k_star), max_error=e_star, achieved=achieved)
