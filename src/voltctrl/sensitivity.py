"""Linear voltage model used by the controllers.

Starting from the decoupled power flow approximation (small angle spreads,
susceptance dominating conductance), angles are eliminated under the
assumption that active injections do not change, leaving a single constant
matrix X that maps reactive-injection changes at load buses to voltage
magnitude changes there:

    delta_v = X @ delta_q,   X = -(G_LA B_AA^-1 G_AL + B_LL)^-1

with A the non-slack buses and L the PQ buses, G and B the real and
imaginary parts of the complex admittance matrix Y. X depends on the
topology only, yet the builder takes Y and a partition and builds it anew
at every call, at the flat base point (v = 1, q = 0). ``linearized`` takes
the case and a controller output alone: it builds X from the case topology
and moves its base point to the plant's full-Newton solution at the case's
nominal injections plus that output (``rebased`` just moves the point). It
is the one path there, for each closed-loop window (24 on a daily run) and
for ``oracle.solve_at``, which serves each ``plant_equilibrium`` iterate and
``voltctrl validate``; only ``voltctrl sensitivity`` reads X at the flat
point. A case with no controlled bus is refused there. Its plant is solved to
``PLANT_TOL``, the power mismatch of 1e-10 that the closed loop's chord
solves also meet, so ``voltctrl validate`` certifies the model the loop
ran; ``plant_equilibrium`` asks for 1e-12.
Bus sets come from ``partition_buses``, the case topology's one
partition; ``BusPartition`` lives in ``netcase`` and is importable from here.
X's controlled columns, its one slice, are ``SensitivityMatrix.xc``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, PlantDivergenceError, SingularModelError
from .netcase import BusPartition, NetworkCase
from .powerflow import InjectionSet, PowerFlowSolution, nominal_injections, solve_power_flow

# power mismatch the plant is solved to wherever the loop or its certificate
# reads it: far below the local errors the loop's step control reads
PLANT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SensitivityMatrix:
    """Constant M x M voltage/reactive-power sensitivity with its base point."""

    x: np.ndarray
    partition: BusPartition
    base_v: np.ndarray
    base_q: np.ndarray

    def __post_init__(self) -> None:
        m = self.partition.n_load
        if self.x.shape != (m, m) or len(self.base_v) != m or len(self.base_q) != m:
            raise ValueError("sensitivity dimensions do not match the partition")

    @cached_property
    def xc(self) -> np.ndarray:
        """X's M x C controlled columns, each source's own; built on first use."""
        return self.x[:, self.partition.controlled_in_pq()]


def partition_buses(case: NetworkCase) -> BusPartition:
    """The case's bus sets by kind; controlled = PQ buses hosting a reactive source.

    It lives on the case's topology; every call returns that object.
    """
    return case.topology.partition


def voltage_sensitivity(y: np.ndarray, part: BusPartition) -> SensitivityMatrix:
    """Build X by angle elimination over non-slack buses, at the flat base point.

    The base point is v = 1, q = 0; ``rebased`` moves it to a solved power
    flow. Raises :class:`SingularModelError` when a reduced block cannot be
    inverted, which signals a degenerate network (a case's topology has
    already refused an islanded one).
    """
    a_set = np.sort(np.concatenate([part.pv, part.pq]))
    l_set = part.pq
    g, b = y.real, y.imag
    b_aa = b[np.ix_(a_set, a_set)]
    g_al = g[np.ix_(a_set, l_set)]
    g_la = g[np.ix_(l_set, a_set)]
    b_ll = b[np.ix_(l_set, l_set)]
    try:
        core = g_la @ np.linalg.solve(b_aa, g_al) + b_ll
        x = np.linalg.inv(-core)
    except np.linalg.LinAlgError as exc:
        raise SingularModelError(f"voltage sensitivity is not defined: {exc}") from exc
    m = part.n_load
    return SensitivityMatrix(x=x, partition=part, base_v=np.ones(m), base_q=np.zeros(m))


def predict_voltage(sens: SensitivityMatrix, q: np.ndarray) -> np.ndarray:
    """Linear plant: v = base_v + X (q - base_q), q over all load buses."""
    q = np.asarray(q, dtype=float)
    if q.shape != sens.base_q.shape:
        raise ValueError(f"expected {sens.base_q.shape[0]} injections, got {q.shape}")
    return sens.base_v + sens.x @ (q - sens.base_q)


def rebased(sens: SensitivityMatrix, base_v: np.ndarray, base_q: np.ndarray) -> SensitivityMatrix:
    """Same X, new linearization point."""
    return replace(
        sens, base_v=np.asarray(base_v, dtype=float), base_q=np.asarray(base_q, dtype=float)
    )


def linearized(
    case: NetworkCase, q: np.ndarray,
    tol: float = PLANT_TOL, warm_start: PowerFlowSolution | None = None,
) -> tuple[SensitivityMatrix, PowerFlowSolution]:
    """The case's X rebased at its plant with controller output q, and that solution.

    X is ``voltage_sensitivity``'s, built from ``case.topology``. The plant,
    the nominal injections with q added at the controlled buses, is solved
    by full Newton to ``tol`` from ``warm_start``; where it does not
    converge, :class:`PlantDivergenceError`. A case with no controlled bus
    has nothing to linearize for and raises :class:`ConfigError`.
    """
    if case.topology.partition.n_controlled == 0:
        raise ConfigError(f"case {case.name} has no controlled bus")
    sens = voltage_sensitivity(case.topology.y, case.topology.partition)
    full = sens.partition.embed(q)
    inj = nominal_injections(case)
    moved = InjectionSet(inj.p_injection, inj.q_injection + full)
    sol = solve_power_flow(case, moved, tol=tol, warm_start=warm_start)
    if not sol.converged:
        raise PlantDivergenceError(f"power flow did not converge (mismatch {sol.max_mismatch:.3e})")
    return rebased(sens, base_v=sol.v[sens.partition.pq], base_q=full), sol
