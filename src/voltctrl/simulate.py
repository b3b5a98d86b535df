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
its piece, makes one plant call, at its end, and its error is taken as
zero without forming the estimate; otherwise it makes two, at
U2 and at y1, and no Newton iteration. The piece ends where a multiplier
row's event function turns negative, past the same 1e-12 overshoot for
every row, a row on the piece at a zero multiplier included. A step
past an event is cut back, the one way for every event: the first root
of that row's cubic Hermite interpolant over the step (dense-output event
location; Shampine & Thompson, Comput. Math. Appl. 39, 2000), taken row
by row in Python floats, is refined by Halley's method along the
step's stage path y0 + s phi1(sJ) F0, one phi-product and no plant call
per iterate, each iterate forming only the landed row's event, slope and
bend. The landing returns the last iterate's product, which the retry at
the landed size, the next attempt only, is handed as its stage U2 - y0.
On an exact step that path is the piece's trajectory, so the retry lands
in one attempt. The next accepted step resumes at least the size the
event cut back, instead of regrowing from the landed step.
A row whose event is within 1e-9 of zero and falling where a step starts,
as a landing leaves its row, switches its place on the piece before the
step, so an event's only outcome is a landing. Each result counts its
accepted steps, its rejected attempts by reason, its plant calls and its
phi-products, each taken once, with the landing's also counted apart, in
a ``SolverStats``.

Every plant solve of the loop is taken to a power mismatch of 1e-10
(``sensitivity.PLANT_TOL``), far below the local errors the step control
reads; ``solve_power_flow`` keeps its 1e-8 default everywhere else. Those
solves are chord iterations: the power-flow Jacobian is formed and
inverted once at the window's start (``linearized``, full Newton) and at
each accepted state, and every
solve in the step from there, retries included, starts at the last
solution, with the complex power it carries, and steps with that inverse.
Its block of magnitude rows and reactive columns is the plant's dv/dq in J.
A chord solve whose step does not halve the mismatch ends unconverged; the
attempt fails with it and the step is retried at half the size, nearer the
point where the inverse was taken. A stage that is not finite (gains so
large that hJ overflows) fails the attempt the same way, before any plant
call, and so does a step's end that is not finite. Each is counted apart
from the plant's divergence. numpy's overflow warnings are silenced while
the loop steps, and nowhere else: what it forms there ends in a stage, an
error or a residual whose finiteness it tests. Where halving never makes a
step pass, the run ends in :class:`StepSizeUnderflowError`, which names the
cause of the last rejection; so does a window past 20,000 step attempts,
naming the count, t and the step size as well. Rates that are not finite
at the window's start or at an accepted state end the run the same way at
once, naming them: no step can leave such a state. Large but finite rates
step on.

``integrate`` runs one window: one case, from a start state at t = 0 to a
horizon or to equilibrium; it takes exactly ``run_static``'s parameters.
Three scenario families mirror the intended use: a static load held to
equilibrium (one window), a line trip (an intact window, then a tripped one
from its last state) and a 24-hour load profile (one window per hour, each
from the last). A run is a trajectory and one ``Window`` per window, which
``_join`` concatenates. The run's final values are the last window's, its
violations the worst, its counts the sum; it converged if every one did.

Inside a window the engine works on packed state vectors only: one loop
object per window, built already linearized at the window's start output,
holds the plant and the controller's flow, compiled once for the window
(``controller.PackedFlow``). Every evaluation is one call of
its ``rates``, which gives a state's rates, piece and every row's event
from one violation vector, and every phi-product its ``phi``: one
exponential of a stack of C 2 x 2 modes on the linear plant and of one
2C-square block on the nonlinear one (the engine knows only that the first
C entries are q and the rest multipliers, whose rows' violations
``Limits.families`` cuts for the ``ViolationSummary``). Each attempt's end
is evaluated once, on the step's piece, and each accepted state once more
by ``eval`` on the piece it settles on, whose events every attempt from
there reads. The accepted rows are the returned trajectory's ``y``, checked
once, as one array; its ``ControllerState`` views and costs are built only
when read. Every plant call is made at a new output: an accepted step hands
its end's rates, events and voltage to the next step, a step whose end has
its stage's q reuses the stage's voltage, and a window's start reads the
voltage of the power flow its relinearization solved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .controller import ControllerState, Gains, Limits, PackedFlow, objective, packed_zeros
from .errors import CaseDataError, ConfigError, PlantDivergenceError, StepSizeUnderflowError
from .netcase import NetworkCase, scale_loads, trip_branch
from .powerflow import (
    InjectionSet,
    jacobian_inverse,
    nominal_injections,
    solve_power_flow,
)
from .sensitivity import PLANT_TOL, linearized, partition_buses, predict_voltage


class PlantMode(Enum):
    NONLINEAR = "nonlinear"
    LINEAR = "linear"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted-step samples: times, packed states and load-bus voltages.

    Row i of ``y`` is sample i's packed state [q, lam_hi, lam_lo, mu_hi,
    mu_lo] over C controllers and M load buses, and row i of ``v`` its M
    load-bus voltages. The rows are checked once, as one array, when the
    trajectory is built: equal sample counts, strictly increasing times,
    rows of length 3C + 2M, finite entries and nonnegative multipliers.
    """

    t: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.y.ndim != 2 or self.v.ndim != 2:
            raise ValueError("trajectory states and voltages must be 2-D arrays")
        if not len(self.t) == len(self.y) == len(self.v):
            raise ValueError("trajectory arrays disagree on sample count")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        m, c = self._sizes
        if c < 0 or (self.y.shape[1] - 2 * m) % 3:
            raise ValueError(f"state rows of shape {self.y.shape} do not fit M={m} load buses")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("state rows contain non-finite values")
        if np.any(self.y[:, c:] < 0):
            raise ValueError("multipliers must be nonnegative")

    @property
    def _sizes(self) -> tuple[int, int]:
        """M and C: the load buses of ``v`` and the controllers the rows of ``y`` hold."""
        m = self.v.shape[1]
        return m, (self.y.shape[1] - 2 * m) // 3

    @cached_property
    def states(self) -> tuple[ControllerState, ...]:
        """A ``ControllerState`` view of each row of ``y``, built on first read."""
        return tuple(ControllerState.view(row, *self._sizes) for row in self.y)

    @property
    def final_state(self) -> ControllerState:
        """A ``ControllerState`` view of the last row, the state a chained window starts from."""
        return ControllerState.view(self.y[-1], *self._sizes)

    @cached_property
    def cost(self) -> np.ndarray:
        """The objective of each row's q."""
        return np.array([objective(q) for q in self.y[:, : self._sizes[1]]])

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

    Accepted steps, and rejected attempts by reason: an attempt fails the error
    test, is cut back to land on an event of a row on the piece (crossing) or
    off it (entering), or is retried at half the size after the plant diverged
    or its stage or end was not finite (non-finite stage).
    Plant calls are the voltages the steps measure (a window's start reads its
    relinearization's solve), and phi-products those the steps take, each
    counted once, with the Halley iterates that land every event. Those
    iterates' products are also counted apart, as landing products; the retry
    after a landing takes the last one as its stage U2 and adds no product for
    it. The plant counts its full Newton and chord steps tried
    (``PowerFlowSolution.iterations``) and its Jacobian inversions.
    """

    accepted: int = 0
    error_test: int = 0
    crossing: int = 0
    entering: int = 0
    plant_divergence: int = 0
    non_finite_stage: int = 0
    plant_calls: int = 0
    phi_products: int = 0
    landing_products: int = 0
    newton_iterations: int = 0
    chord_steps: int = 0
    jacobian_inversions: int = 0

    @property
    def attempts(self) -> int:
        rejected = self.error_test + self.crossing + self.entering + self.plant_divergence
        return self.accepted + rejected + self.non_finite_stage

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass(frozen=True, eq=False)
class Window:
    """How one window of a run ended, and its start time and first row in the run."""

    final_v: np.ndarray
    final_q: np.ndarray
    converged: bool
    final_residual: float
    violations: ViolationSummary
    stats: SolverStats
    start: float = 0.0
    first: int = 0


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A run's trajectory and its windows' records, from which its outcome is read."""

    trajectory: Trajectory
    windows: tuple[Window, ...]

    final_v = property(lambda self: self.windows[-1].final_v)
    final_q = property(lambda self: self.windows[-1].final_q)
    final_residual = property(lambda self: self.windows[-1].final_residual)
    converged = property(lambda self: all(w.converged for w in self.windows))
    stats = property(lambda self: sum((w.stats for w in self.windows), SolverStats()))

    @property
    def violations(self) -> ViolationSummary:
        # the worst of each of the four excursions is its largest, of the multiplier its smallest
        *excursions, multiplier = zip(*(astuple(w.violations) for w in self.windows))
        return ViolationSummary(*map(max, excursions), min(multiplier))


@dataclass(frozen=True, eq=False)
class FaultResult(SimulationResult):
    pre_cost: float
    post_cost: float
    cost_ratio: float
    t_trip: float | None

    pre_q = property(lambda self: self.windows[0].final_q)

    @property
    def converged(self) -> bool:
        # a timed trip ends the intact window whether or not it settled
        return self.windows[-1].converged if self.t_trip is not None else super().converged


@dataclass(frozen=True, eq=False)
class DailyResult(SimulationResult):
    uncontrolled_v: np.ndarray

    hourly_final_q = property(lambda self: np.array([w.final_q for w in self.windows]))

    @property
    def hourly_final_v(self) -> np.ndarray:
        # each hour's last row is the one before the next hour's first
        return self.trajectory.v[[w.first - 1 for w in self.windows[1:]] + [-1]]


# relative and absolute error tolerances of the step control
_RTOL, _ATOL = 1e-6, 1e-8
# the overshoot any row's event may keep, and the band above zero where a
# landing stops and ``eval`` switches a falling row
_OVERSHOOT, _NEAR = 1e-12, 1e-9
# step attempts one window may make, accepted or not: about 75 times the
# most any window of the test suite or the benchmark takes
_MAX_ATTEMPTS = 20_000


class _NonFiniteStage(ArithmeticError):
    """An attempt's stage or end is not finite; no plant is solved there."""


class _ClosedLoop:
    """One window's compiled loop: plant, packed flow and the exprb32 step.

    Built once per window, already linearized at the window's start output
    q0: it holds the nominal injections, the sensitivity ``linearized`` at
    q0 (whose partition places the controllers' outputs at their buses and
    whose ``base_v`` is the start voltage both plants read), the
    controller's ``flow`` compiled from its controlled columns ``xc`` with
    the window's limits and gains, and in nonlinear mode the last solution,
    where the next chord solve starts, and the inverse Jacobian it steps
    with, whose dv/dq block the flow's Jacobian uses; both start at the
    linearization's solve.
    A plant solve that does not converge raises
    :class:`PlantDivergenceError`, which fails the step attempt. States are
    packed vectors whose first C entries are q and whose remaining entries
    are multipliers. ``counts`` holds the window's work counts by
    ``SolverStats`` field, from the linearization's Newton iterations on.
    """

    def __init__(
        self, case: NetworkCase, plant_mode: PlantMode, lim: Limits, gains: Gains, q0: np.ndarray
    ):
        self.case, self.mode, self.lim = case, plant_mode, lim
        self.inj = nominal_injections(case)
        self.sens, self.last = linearized(case, q0)
        self.part = self.sens.partition
        self.c = self.part.n_controlled
        self.flow = PackedFlow(self.sens.xc, lim, gains)
        self.counts = Counter(newton_iterations=self.last.iterations)
        self.refresh_inverse()

    def refresh_inverse(self) -> None:
        """Invert the nonlinear plant's Jacobian at its last solve, made at the current state.

        Called at a window's start and at each accepted state; the step
        from there, retries included, solves the plant by chord iterations
        with this inverse and takes dv/dq at the controlled buses from its
        magnitude rows, which it hands to the flow. The linear plant's dv/dq
        is X's controlled columns, the flow's own.
        """
        if self.mode is PlantMode.NONLINEAR:
            self.counts["jacobian_inversions"] += 1
            self.inverse = jacobian_inverse(self.case, self.last)
            n_a = len(self.case.topology.non_slack)
            self.flow.set_plant_sensitivity(self.inverse[n_a:, n_a + self.part.controlled_in_pq()])

    def voltage(self, q: np.ndarray) -> np.ndarray:
        """The plant call: load-bus voltages at controller output q, a chord solve if nonlinear."""
        self.counts["plant_calls"] += 1
        if self.mode is PlantMode.LINEAR:
            return predict_voltage(self.sens, self.part.embed(q))
        inj = object.__new__(InjectionSet)  # unchecked: each stage is checked finite first
        vars(inj).update(vars(self.inj), q_injection=self.inj.q_injection + self.part.embed(q))
        sol = solve_power_flow(
            self.case, inj, tol=PLANT_TOL, warm_start=self.last, inverse=self.inverse
        )
        self.counts["chord_steps"] += sol.iterations
        if not sol.converged:
            raise PlantDivergenceError(f"power flow lost convergence (mismatch {sol.max_mismatch:.3e})")
        self.last = sol
        return sol.v[self.part.pq]

    def eval(self, y: np.ndarray, v: np.ndarray):
        """Floored state, projected rates, piece and events at a packed state that measures v.

        The piece is the natural one (``flow.rates``), but that a row whose
        event is within 1e-9 of zero and falling switches its place on it:
        a multiplier leaving it is set to zero, a row joining it is on it
        at a zero multiplier. The rates and events are those of the piece
        it settles on: one ``flow.rates`` call on the natural piece, and
        one more where a row switches.
        """
        c, flow = self.c, self.flow
        y = np.concatenate((y[:c], np.maximum(y[c:], 0.0)))
        f, on, g = flow.rates(y, v)
        near = g <= _NEAR
        if near.any():
            turn = near & (flow.event_rates(f, on) < 0)
            if turn.any():
                y[c:][turn] = 0.0
                f, on, g = flow.rates(y, v, on ^ turn)
        return y, f, on, g

    def attempt(self, y0: np.ndarray, f0: np.ndarray, on: np.ndarray, h: float, stage=None):
        """One exprb32 step of size h from y0, whose rates f0 on the piece ``on`` are known.

        The step holds that piece: its rows take their rates, and the
        others keep a zero rate. On it the stage is U2 = y0 + h phi1(hJ) f0,
        with J the piece's Jacobian (``flow.phi``). The linear plant's flow
        is affine on the piece, so U2 is exact and ends the step; so does
        the nonlinear plant's while the piece does not read the voltage
        (``flow.reads_voltage``). Otherwise the plant is solved at U2, and
        with D2 = F(U2) - f0 - J (U2 - y0), the piece's rates' departure
        from their linearization, the step ends at y1 = U2 + est with
        est = 2h phi3(hJ) D2, the embedded estimate of U2's local error.
        Returns y1 unfloored, est (None on an exact step, whose estimate is
        zero) and the voltage measured at y1, which reuses U2's where y1's
        q is U2's. A given ``stage``, the one ``land`` returns for the retry
        at the landed size h, is taken as U2 - y0 in place of the
        phi-product. A plant solve that does not converge raises
        :class:`PlantDivergenceError`; a U2 or y1 that is not finite raises
        ``_NonFiniteStage`` before its plant call.
        """
        c, flow = self.c, self.flow
        if stage is not None:
            u2 = y0 + stage
        else:
            self.counts["phi_products"] += 1
            u2 = y0 + h * flow.phi(1, h, on, f0)
        if not np.isfinite(u2).all():
            raise _NonFiniteStage("the step's stage is not finite")
        if self.mode is PlantMode.LINEAR or not flow.reads_voltage(on):
            return u2, None, self.voltage(u2[:c])
        v2 = self.voltage(u2[:c])
        d2 = flow.rates(u2, v2, on)[0] - f0 - flow.jacobian_product(on, u2 - y0)
        self.counts["phi_products"] += 1
        est = 2.0 * h * flow.phi(3, h, on, d2)
        y1 = u2 + est
        if not np.isfinite(y1).all():
            raise _NonFiniteStage("the step's end is not finite")
        if not np.array_equal(y1[:c], u2[:c]):
            v2 = self.voltage(y1[:c])
        return y1, est, v2

    def land(self, f0, on, h, row, g0, x):
        """Refine x, the guess of where in a step of size h multiplier row ``row``'s event falls.

        The stage path of the step from y0 is y(xh) = y0 + xh phi1(xhJ) f0,
        with rates f = f0 + J (y(xh) - y0) on the piece's linearization:
        the piece's exact trajectory where the step is exact, and the
        retry's U2 where it is not. The row's event along it is g0 plus
        ``flow.event_rates`` of y(xh) - y0, its slope and bend (first and
        second time derivatives) those of f and J f, each formed for that
        row alone (``flow.row_rates``). Halley's step
        x - 2 g slope / (h (2 slope^2 - g bend)) takes one phi-product and
        no plant call per iterate. It stops at an event the retry's test
        leaves alone, within [-1e-12, 1e-9], whose correction is below 1e-10
        of x, before a guess outside (0, 1), or after 6 iterates. Returns
        the last x evaluated and its stage U2 - y0 = xh phi1(xhJ) f0, which
        the retry at xh takes as its own. An iterate that overflows gives a
        guess that is not finite, which ends the search; the retry tests its
        stage.
        """
        flow = self.flow
        for n in range(6):
            self.counts["phi_products"] += 1
            self.counts["landing_products"] += 1
            dy = x * h * flow.phi(1, x * h, on, f0)
            change, slope, bend = flow.row_rates(row, on, f0, dy)
            g = g0 + change
            guess = x - 2.0 * g * slope / (h * (2.0 * slope * slope - g * bend))
            done = -_OVERSHOOT <= g <= _NEAR and abs(guess - x) <= 1e-10 * x
            if done or not 0.0 < guess < 1.0 or n == 5:
                return x, dy
            x = guess


def integrate(
    case: NetworkCase,
    limits: Limits | None = None,
    gains: Gains = Gains(),
    tol: float = 1e-6,
    plant_mode: PlantMode = PlantMode.NONLINEAR,
    horizon: float = 2e5,
    initial_state: ControllerState | None = None,
) -> SimulationResult:
    """Run one window from the start state at t = 0 to the horizon or equilibrium.

    Equilibrium is every rate below ``tol`` in magnitude. Unset limits are
    the default box, an unset start state zeros. The plant is linearized at
    the start state's output. Multi-window runs chain calls from the
    previous window's last state and ``_join`` them. ``horizon`` and
    ``tol`` must be positive and finite and the start state and limits
    sized for the case, all checked before any power flow, and the case
    must have a controlled bus (``linearized`` checks); otherwise
    :class:`ConfigError`.
    """
    for name, value in (("horizon", horizon), ("tol", tol)):
        if not 0 < value < np.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    part = partition_buses(case)
    m, c = part.n_load, part.n_controlled
    lim = limits if limits is not None else Limits.box(m, c)
    state0 = initial_state
    if state0 is not None and (state0.lam_hi.shape != (m,) or state0.q.shape != (c,)):
        raise ConfigError(
            f"initial state has M={state0.lam_hi.size}, C={state0.q.size}; "
            f"the case needs M={m}, C={c}"
        )
    if lim.v_lo.shape != (m,) or lim.q_lo.shape != (c,):
        raise ConfigError(
            f"limits have M={lim.v_lo.size}, C={lim.q_lo.size}; "
            f"the case needs M={m}, C={c}"
        )
    y0 = packed_zeros(m, c) if state0 is None else state0.packed()
    loop = _ClosedLoop(case, plant_mode, lim, gains, y0[:c])
    v = loop.sens.base_v
    # numpy's overflow warnings are silenced while the loop steps, where gains
    # large enough to overflow end in a stage, an error or a residual that is
    # not finite, and the loop tests each
    with np.errstate(over="ignore", invalid="ignore"):
        y, f, on, g0 = loop.eval(y0, v)
        times, rows, volts, raw_mins = [0.0], [y0], [v], [float(y0[c:].min())]
        t = 0.0
        residual = _residual(f, t)
        h = min(0.1, horizon)
        # the largest step an event cut back, until the next accepted step resumes it
        h_cut = 0.0
        # the cause of the last rejection, which an underflow names, a
        # landing's last stage, which only the retry right after it takes,
        # and the window's attempts, which its budget bounds
        cause, stage, attempts = "", None, 0
        while not residual < tol and t < horizon - 1e-9 * max(1.0, horizon):
            h_try = min(h, horizon - t)
            if h_try < 1e-13 * max(1.0, t):
                raise StepSizeUnderflowError(f"step size underflow at t={t:.6g}: {cause}")
            if attempts == _MAX_ATTEMPTS:
                raise StepSizeUnderflowError(
                    f"window ended after {attempts} attempts at t={t:.6g}, step size "
                    f"{h_try:.3g}; last rejection: {cause or 'none'}"
                )
            attempts += 1
            try:
                y1, est, v1 = loop.attempt(y, f, on, h_try, stage)
            except (PlantDivergenceError, _NonFiniteStage) as exc:
                diverged = isinstance(exc, PlantDivergenceError)
                loop.counts["plant_divergence" if diverged else "non_finite_stage"] += 1
                cause, h = str(exc), 0.5 * h_try
                continue
            finally:
                stage = None
            # the piece ends where a row's event function turns negative past
            # the overshoot, every row's from at or above zero (``eval``); a
            # multiplier's dip below zero is left to the floor. The rates and
            # events at the end are the piece's at the unfloored end, whose
            # voltage is measured
            f1, _, g1 = loop.flow.rates(y1, v1, on)
            event = g1 < -_OVERSHOOT
            if event.any():
                # land the first event on the step's stage path
                slopes = (h_try * loop.flow.event_rates(r, on)[event] for r in (f, f1))
                roots = _first_root(g0[event], g1[event], *slopes)
                first = int(np.argmin(roots))
                if roots[first] < 1.0 and h_try * roots[first] > 1e-10:
                    row = int(np.flatnonzero(event)[first])
                    kind, article = ("crossing", "a") if on[row] else ("entering", "an")
                    loop.counts[kind] += 1
                    cause = f"{article} {kind} event cut the step back"
                    x, stage = loop.land(f, on, h_try, row, float(g0[row]), float(roots[first]))
                    h_cut = max(h_cut, h_try)
                    h = h_try * x
                    continue
            err = 0.0
            if est is not None:
                scale = _ATOL + _RTOL * np.maximum(np.abs(y), np.abs(y1))
                err = float((np.abs(est) / scale).max())
            # one factor cuts a step that fails the error test and grows one that passes
            h = h_try * (5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0))))
            if not err <= 1.0:
                loop.counts["error_test"] += 1
                cause = "the step failed its error test"
                continue
            # an accepted step resumes the size an event cut back
            h, h_cut = max(h, h_cut), 0.0
            t += h_try
            y, f, on, g0 = loop.eval(y1, v1)
            loop.refresh_inverse()
            times.append(t)
            rows.append(y)
            volts.append(v1)
            raw_mins.append(float(y1[c:].min()))
            residual = _residual(f, t)

    trajectory = Trajectory(t=np.array(times), y=np.array(rows), v=np.array(volts))
    q_all = trajectory.y[:, :c]
    # the worst violation of each family in ``ROWS`` over every sample, at least 0
    families = lim.families(lim.violation(trajectory.v, q_all))
    above_v, below_v, above_q, below_q = (max(0.0, float(np.max(f))) for f in families)
    # regulated buses from the last solve, load buses as the last sample measured
    final_v = loop.last.v.copy()
    final_v[part.pq] = trajectory.v[-1]
    window = Window(
        final_v=final_v, final_q=q_all[-1].copy(),
        converged=bool(residual < tol), final_residual=residual,
        violations=ViolationSummary(max_v_above=above_v, max_v_below=below_v, max_q_above=above_q,
                                    max_q_below=below_q, min_multiplier=min(0.0, min(raw_mins))),
        stats=SolverStats(len(rows) - 1, **loop.counts),
    )
    return SimulationResult(trajectory, (window,))


def _residual(f: np.ndarray, t: float) -> float:
    """The largest rate's magnitude at the state of time t; rates not finite end the run."""
    residual = float(np.abs(f).max())
    if not np.isfinite(residual):
        raise StepSizeUnderflowError(
            f"step size underflow at t={t:.6g}: the state's rates are not finite"
        )
    return residual


def _first_root(p0, p1, d0, d1) -> np.ndarray:
    """The smallest root in (0, 1] of each row's cubic Hermite interpolant.

    Row i's cubic p has p(0) = p0[i] >= 0 >= p(1) = p1[i] and slopes d0[i]
    and d1[i] at 0 and 1. Its critical points and its inflection point cut
    [0, 1] into pieces on which p is monotone and of one convexity. The
    first cut whose value is not positive, or 1, ends the piece that holds
    the smallest root, and the last cut before it starts that piece. From
    the piece's end where p p'' >= 0, Newton's method approaches the root
    from one side without leaving the piece (Fourier's condition). Each
    row is computed on its own in Python floats, a handful of them per
    event test; its iterate stops where p is zero or its sign has turned
    by rounding, or after 64 steps. A division by zero gives a signed
    infinity and the square root of a negative number nan; a cut that is
    either becomes 1, and a Newton step divides only a p that is positive
    on its side.
    """
    roots = []
    for p0, p1, d0, d1 in zip(*(np.asarray(a, dtype=float).tolist() for a in (p0, p1, d0, d1))):
        c2 = 3.0 * (p1 - p0) - 2.0 * d0 - d1
        c3 = 2.0 * (p0 - p1) + d0 + d1
        # the roots of p' = d0 + 2 c2 x + 3 c3 x^2 by the stable quadratic
        # formula, and that of p'' = 2 c2 + 6 c3 x; a cut outside (0, 1),
        # from a division by zero or a negative discriminant, is 1
        disc = c2 * c2 - 3.0 * d0 * c3
        g = -(c2 + float(np.copysign(np.sqrt(disc), c2))) if disc >= 0.0 else np.nan
        cuts = [_divide(g, 3.0 * c3), _divide(d0, g), _divide(-c2, 3.0 * c3)]
        cuts = [x if 0.0 < x < 1.0 else 1.0 for x in cuts]
        hi = min(x if p0 + x * (d0 + x * (c2 + x * c3)) <= 0.0 else 1.0 for x in cuts)
        lo = max(x if x < hi else 0.0 for x in cuts)
        convex = c2 + 1.5 * c3 * (lo + hi) > 0.0
        x, side = (lo, 1.0) if convex else (hi, -1.0)
        c2_twice, c3_thrice = 2.0 * c2, 3.0 * c3
        for _ in range(64):
            px = p0 + x * (d0 + x * (c2 + x * c3))
            if not side * px > 0.0:
                break
            step = x - _divide(px, d0 + x * (c2_twice + x * c3_thrice))
            # clamped into [lo, hi]; a nan stays nan, as numpy's clamp keeps it
            step = hi if step > hi else lo if step < lo else step
            if step == x:
                break
            x = step
        roots.append(x)
    return np.array(roots)


def _divide(a: float, b: float) -> float:
    """a / b, or an infinity of the sign of a times that of b where b is zero."""
    return a / b if b else float(np.copysign(np.inf, a) * np.copysign(1.0, b))


def _join(windows: list[tuple[float, SimulationResult]]) -> SimulationResult:
    """Chain window results, each started at the given time, into one run's record.

    A window's first sample that would not come after the previous window's
    last is nudged 1e-9 past it, or one float spacing where that is larger
    (past 2**24 s); one whose steps are below the spacing at its start is a
    :class:`ConfigError`. Trajectories and windows are concatenated, each
    window's start and first row shifted to its place in the run.
    """
    times: list[np.ndarray] = []
    records: list[Window] = []
    for start, res in windows:
        first = sum(map(len, times))
        records += (replace(w, start=start + w.start, first=first + w.first) for w in res.windows)
        t = res.trajectory.t + start
        if times and t[0] <= times[-1][-1]:
            prev = times[-1][-1]
            t[0] = max(prev + 1e-9, np.nextafter(prev, np.inf))
        if np.any(np.diff(t) <= 0):
            raise ConfigError(f"the window at t={start:g} s steps below the float spacing there")
        times.append(t)
    trajs = [res.trajectory for _, res in windows]
    y, v = np.vstack([tr.y for tr in trajs]), np.vstack([tr.v for tr in trajs])
    return SimulationResult(Trajectory(np.concatenate(times), y, v), tuple(records))


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

    The branch is tripped first, so a trip that names no in-service branch
    or would island the network raises before any integration. The intact
    case runs first, then the tripped case from its last state for up to
    ``horizon`` seconds. With ``t_trip`` unset the intact window runs to
    equilibrium, so the reported costs are the two equilibrium costs. With
    an explicit ``t_trip`` the line drops at that instant whether or not
    the controller has settled, and the pre cost is read off the last
    pre-trip sample. The cost ratio is post over pre; where the pre cost is
    zero it is inf if the post cost is positive and 1 if both are zero.
    """
    if t_trip is not None and not 0 < t_trip < np.inf:
        raise ConfigError(f"trip time must be positive and finite, got {t_trip}")
    tripped = trip_branch(case, trip[0], trip[1])
    pre = run_static(case, limits, gains, tol, plant_mode, horizon if t_trip is None else t_trip)
    post = run_static(tripped, limits, gains, tol, plant_mode, horizon, pre.trajectory.final_state)
    t_at_trip = float(pre.trajectory.t[-1]) if t_trip is None else t_trip
    pre_cost, post_cost = objective(pre.final_q), objective(post.final_q)
    return FaultResult(
        **vars(_join([(0.0, pre), (t_at_trip, post)])), t_trip=t_trip,
        pre_cost=pre_cost, post_cost=post_cost,
        cost_ratio=post_cost / pre_cost if pre_cost > 0 else np.inf if post_cost > 0 else 1.0,
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
    the dual state at each hour boundary instead of carrying it. A profile
    that is not 24 nonnegative finite factors, or ``hour_seconds`` that is not
    positive and finite, raises :class:`ConfigError` before any power flow.
    """
    if profile is None:
        profile = default_daily_profile()
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (24,):
        raise ConfigError("daily profile needs exactly 24 load factors")
    if not np.all((profile >= 0) & (profile < np.inf)):
        raise ConfigError("load factors must be nonnegative and finite")
    if not 0 < hour_seconds < np.inf:
        raise ConfigError(f"hour_seconds must be positive and finite, got {hour_seconds}")
    pq = case.topology.pq
    state = None
    windows: list[tuple[float, SimulationResult]] = []
    bare_v = []
    for hour, factor in enumerate(profile):
        hourly_case = scale_loads(case, float(factor))
        bare = solve_power_flow(hourly_case, nominal_injections(hourly_case))
        if not bare.converged:
            raise PlantDivergenceError(f"uncontrolled power flow failed at hour {hour}")
        bare_v.append(bare.v[pq].copy())
        if windows:
            state = windows[-1][1].trajectory.final_state
            if reset_multipliers:
                multipliers = (state.lam_hi, state.lam_lo, state.mu_hi, state.mu_lo)
                state = ControllerState(state.q, *map(np.zeros_like, multipliers))
        res = run_static(hourly_case, limits, gains, tol, plant_mode, hour_seconds, state)
        windows.append((hour * hour_seconds, res))
    return DailyResult(**vars(_join(windows)), uncontrolled_v=np.array(bare_v))


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
    is below 0.02. An empty map, one naming a bus the case lacks, or a
    target magnitude that is not positive and finite raises
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
    bad = [b for b, w in zip(bus_ids, want) if not 0 < w < np.inf]
    if bad:
        raise CaseDataError(f"target magnitudes of bus ids {bad} must be positive and finite")
    rows = [index[b] for b in bus_ids]

    def err(k: float) -> float:
        scaled = scale_loads(case, k)
        sol = solve_power_flow(scaled, nominal_injections(scaled))
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
