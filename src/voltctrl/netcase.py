"""Network case model: parsing, admittance assembly, topology and load edits.

The supported input format is a restricted subset of the MATPOWER case text
format (see ``docs`` section of the README): a ``function mpc = name`` header,
a scalar ``mpc.baseMVA`` assignment and the ``mpc.bus``, ``mpc.gen`` and
``mpc.branch`` numeric matrices with semicolon-terminated rows. ``mpc.gencost``
and any other assignments are parsed and ignored. All quantities are converted
to per-unit on the system MVA base at parse time; MW/MVar appear only at the
file boundary.

Each network fact is stored once. A slack or PV bus's regulated magnitude is
its ``Bus.v_setpoint``; its generators carry only their active output, and a
gen row's Vg is read into, and written from, its bus. Y is one complex matrix
(``build_admittance``) and the bus sets one ``BusPartition``, the only holder
of the controllers' places among the load buses (``embed``, ``gather``); both
sit on a case's ``topology``, which its load edits share.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import CaseDataError, CaseFormatError, IslandingError


class BusKind(Enum):
    PQ = 1
    PV = 2
    SLACK = 3


@dataclass(frozen=True)
class Bus:
    """One network node.

    Loads and shunts are per-unit on the system base. ``v_setpoint`` is the
    regulated magnitude and is only meaningful for slack and PV buses.
    ``has_controller`` marks PQ buses that host a reactive-power source.
    """

    id: int
    kind: BusKind
    p_load: float = 0.0
    q_load: float = 0.0
    v_setpoint: float = 1.0
    has_controller: bool = False
    g_shunt: float = 0.0
    b_shunt: float = 0.0


@dataclass(frozen=True)
class Branch:
    """A series element (line or transformer) between two buses.

    ``b_charging`` is the total line-charging susceptance, split evenly
    between the two terminals. ``tap_ratio`` is the off-nominal turns ratio
    on the from side (1.0 for plain lines).
    """

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    tap_ratio: float = 1.0
    in_service: bool = True


@dataclass(frozen=True)
class Generator:
    """A machine at a slack or PV bus; it regulates its bus's ``v_setpoint``."""

    bus: int
    p_gen: float


@dataclass(frozen=True)
class NetworkCase:
    """A validated grid model. Immutable; edits return new instances."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    name: str = "case"

    def __post_init__(self) -> None:
        _validate(self)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def bus_index(self) -> dict[int, int]:
        """Map bus id to its row position in matrix/vector orderings."""
        return {bus.id: i for i, bus in enumerate(self.buses)}

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise CaseDataError(f"no bus with id {bus_id}")

    def indices_of(self, kind: BusKind) -> np.ndarray:
        return np.array([i for i, b in enumerate(self.buses) if b.kind is kind], dtype=int)

    @cached_property
    def topology(self) -> "Topology":
        """The per-topology constants of this case, built on first use.

        A ``scale_loads`` copy reads that of the case it was scaled from,
        since loads enter none of it; every other edit builds its own.
        """
        root = vars(self).get("_load_root", self)
        return Topology.of(self) if root is self else root.topology

    def with_controllers(self, bus_ids) -> "NetworkCase":
        """Return a copy with controllers only at the given PQ bus ids."""
        wanted = set(bus_ids)
        known = {b.id for b in self.buses}
        missing = wanted - known
        if missing:
            raise CaseDataError(f"unknown controller bus ids: {sorted(missing)}")
        buses = tuple(replace(b, has_controller=(b.id in wanted)) for b in self.buses)
        return replace(self, buses=buses)


@dataclass(frozen=True, eq=False)
class BusPartition:
    """Positional bus-index sets for one case ordering.

    ``pq`` has M entries (load buses), ``controlled`` the C <= M buses that
    host a reactive source, as indices into the case's bus sequence; ``embed``
    and ``gather`` alone place the controllers' entries among the load buses.
    """

    slack: int
    pv: np.ndarray
    pq: np.ndarray
    controlled: np.ndarray

    def __post_init__(self) -> None:
        if not set(self.controlled) <= set(self.pq):
            raise ValueError("controlled buses must be load buses")

    @property
    def n_load(self) -> int:
        return len(self.pq)

    @property
    def n_controlled(self) -> int:
        return len(self.controlled)

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The entries of a's last axis at the controlled buses: ``embed``'s inverse."""
        return a[..., self._positions]

    @cached_property
    def _positions(self) -> np.ndarray:
        where = {int(b): i for i, b in enumerate(self.pq)}
        return np.array([where[int(b)] for b in self.controlled], dtype=int)

    def embed(self, q: np.ndarray) -> np.ndarray:
        """The load-bus vector with controller outputs q at their buses and zeros elsewhere."""
        full = np.zeros(self.n_load)
        full[self._positions] = q
        return full


@dataclass(frozen=True, eq=False)
class Topology:
    """What every power-flow solve and sensitivity build of one case reuses.

    ``y`` is the complex admittance matrix G + jB and ``partition`` the bus
    index sets. ``non_slack`` and ``pq`` are the angle unknowns and the
    magnitude unknowns, in case order. ``v_start`` holds the flat-start
    magnitudes (the setpoints at slack and PV buses, 1 elsewhere). ``rows``
    are the solved equations, P at ``non_slack`` then Q at ``pq``, as
    positions in the interleaved (real, imaginary) float view of a complex
    bus vector. ``unknowns`` is built on first use.
    """

    y: np.ndarray
    partition: BusPartition
    non_slack: np.ndarray
    v_start: np.ndarray
    rows: np.ndarray

    @property
    def pq(self) -> np.ndarray:
        return self.partition.pq

    @cached_property
    def unknowns(self) -> tuple[np.ndarray, np.ndarray]:
        """The buses of the unknowns, ``non_slack`` then ``pq``, and Y's columns there as rows."""
        return (cols := np.concatenate([self.non_slack, self.pq])), self.y[:, cols].T

    @classmethod
    def of(cls, case: NetworkCase) -> "Topology":
        """The case's topology; :class:`IslandingError` where the slack cannot reach a bus."""
        part = BusPartition(
            slack=int(case.indices_of(BusKind.SLACK)[0]),
            pv=case.indices_of(BusKind.PV),
            pq=case.indices_of(BusKind.PQ),
            controlled=np.flatnonzero([b.has_controller for b in case.buses]),
        )
        slack = case.buses[part.slack].id
        cut_off = sorted({b.id for b in case.buses} - _reached(case, slack))
        if cut_off:
            raise IslandingError(
                f"the network is islanded: buses {cut_off} cannot be reached from slack bus {slack}"
            )
        non_slack, pq = np.sort(np.concatenate([part.pv, part.pq])), part.pq
        v_start = np.array(
            [b.v_setpoint if b.kind in (BusKind.SLACK, BusKind.PV) else 1.0 for b in case.buses]
        )
        return cls(
            y=build_admittance(case),
            partition=part,
            non_slack=non_slack,
            v_start=v_start,
            rows=np.concatenate([2 * non_slack, 2 * pq + 1]),
        )


def _validate(case: NetworkCase) -> None:
    if not 0 < case.base_mva < np.inf:
        raise CaseDataError(f"base MVA must be positive and finite, got {case.base_mva}")
    labelled = [(f"bus {b.id}", b) for b in case.buses]
    labelled += [(f"branch {br.from_bus}-{br.to_bus}", br) for br in case.branches]
    labelled += [(f"generator at bus {g.bus}", g) for g in case.generators]
    for label, item in labelled:
        for field, value in vars(item).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CaseDataError(f"{label}: {field} is {value}, not a finite number")
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CaseDataError(f"duplicate bus ids: {dupes}")
    slacks = [b.id for b in case.buses if b.kind is BusKind.SLACK]
    if len(slacks) != 1:
        raise CaseDataError(f"exactly one slack bus required, found {len(slacks)}")
    known = set(ids)
    for br in case.branches:
        for end in (br.from_bus, br.to_bus):
            if end not in known:
                raise CaseDataError(f"branch {br.from_bus}-{br.to_bus} references unknown bus {end}")
        if br.in_service and br.x == 0.0:
            raise CaseDataError(f"branch {br.from_bus}-{br.to_bus} has zero reactance")
        if br.tap_ratio <= 0:
            raise CaseDataError(f"branch {br.from_bus}-{br.to_bus} has nonpositive tap ratio")
        if br.in_service and not np.isfinite(1.0 / complex(br.r, br.x)):
            raise CaseDataError(f"branch {br.from_bus}-{br.to_bus}: 1/(r + jx) is not finite")
        t2 = br.tap_ratio * br.tap_ratio
        if br.in_service and not (t2 > 0 and math.isfinite(1.0 / t2)):
            raise CaseDataError(f"branch {br.from_bus}-{br.to_bus}: 1/t^2 is not finite")
    kind_by_id = {b.id: b.kind for b in case.buses}
    for gen in case.generators:
        if gen.bus not in known:
            raise CaseDataError(f"generator references unknown bus {gen.bus}")
        if kind_by_id[gen.bus] is BusKind.PQ:
            raise CaseDataError(f"generator at PQ bus {gen.bus} is not supported")
    for b in case.buses:
        if b.has_controller and b.kind is not BusKind.PQ:
            raise CaseDataError(f"controller at non-PQ bus {b.id}")
        if b.kind in (BusKind.SLACK, BusKind.PV) and b.v_setpoint <= 0:
            raise CaseDataError(f"bus {b.id} needs a positive voltage setpoint")


# ---------------------------------------------------------------------------
# Case text parsing
# ---------------------------------------------------------------------------

_ASSIGN_RE = re.compile(r"^\s*(?:mpc\.)?(\w+)\s*=\s*(.*)$")

# MATPOWER column layouts (only the leading columns we consume).
_BUS_COLS = 13  # bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
_GEN_COLS = 6  # bus Pg Qg Qmax Qmin Vg [mBase status ...]
_BRANCH_COLS = 11  # fbus tbus r x b rateA rateB rateC ratio angle status [...]


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _parse_row(text: str, lineno: int) -> list[float]:
    row = []
    for tok in text.replace(",", " ").split():
        try:
            row.append(float(tok))
        except ValueError:
            raise CaseFormatError(f"line {lineno}: not a number: {tok!r}") from None
    return row


def _integral(value: float, what: str) -> int:
    """A case number that must be a whole number (ids, types, statuses)."""
    if not value.is_integer():
        raise CaseDataError(f"{what} must be an integer, got {value}")
    return int(value)


def _collect_matrices(text: str):
    """Split the case text into scalar assignments and numeric matrices."""
    scalars: dict[str, float] = {}
    matrices: dict[str, list[list[float]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is None:
            if line.startswith("function"):
                continue
            m = _ASSIGN_RE.match(line)
            if m is None:
                raise CaseFormatError(f"line {lineno}: expected an assignment, got {raw.strip()!r}")
            key, rest = m.group(1), m.group(2).strip()
            if not rest.startswith("["):
                rest = rest.rstrip(";").strip().strip("'\"")
                try:
                    scalars[key] = float(rest)
                except ValueError:
                    if key == "baseMVA":
                        raise CaseFormatError(f"line {lineno}: baseMVA is not a number: {rest!r}")
                    scalars[key] = np.nan  # version strings and similar, ignored
                continue
            current, line = key, rest[1:]
            matrices[key] = []
        # rows of the open matrix, from its '[' line or any later line
        body, closed, _ = line.partition("]")
        for chunk in body.split(";"):
            if chunk.strip():
                matrices[current].append(_parse_row(chunk, lineno))
        if closed:
            current = None
    if current is not None:
        raise CaseFormatError(f"matrix {current!r} is not closed with ']'")
    return scalars, matrices


def parse_case(text: str, name: str = "case") -> NetworkCase:
    """Parse MATPOWER-subset case text into a validated :class:`NetworkCase`.

    Raises :class:`CaseFormatError` for malformed text (with the offending
    line number) and :class:`CaseDataError` for semantically invalid data.
    """
    scalars, matrices = _collect_matrices(text)
    if "baseMVA" not in scalars:
        raise CaseFormatError("missing baseMVA assignment")
    base = scalars["baseMVA"]
    if not 0 < base < np.inf:
        raise CaseDataError(f"base MVA must be positive and finite, got {base}")
    for required in ("bus", "branch"):
        if required not in matrices or not matrices[required]:
            raise CaseFormatError(f"missing {required} matrix")

    kind_map = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}
    gen_rows = matrices.get("gen", [])
    setpoint: dict[int, float] = {}
    generators: list[Generator] = []
    for row in gen_rows:
        if len(row) < _GEN_COLS:
            raise CaseFormatError(f"gen row has {len(row)} columns, need at least {_GEN_COLS}")
        status = _integral(row[7], "gen status") if len(row) > 7 else 1
        if status <= 0:
            continue
        bus_id, pg, vg = _integral(row[0], "gen bus"), row[1] / base, row[5]
        if bus_id in setpoint and abs(setpoint[bus_id] - vg) > 1e-12:
            raise CaseDataError(f"conflicting voltage setpoints at bus {bus_id}")
        setpoint[bus_id] = vg
        generators.append(Generator(bus=bus_id, p_gen=pg))

    buses: list[Bus] = []
    for row in matrices["bus"]:
        if len(row) < _BUS_COLS:
            raise CaseFormatError(f"bus row has {len(row)} columns, need at least {_BUS_COLS}")
        bus_id, kind_code = _integral(row[0], "bus id"), _integral(row[1], "bus type")
        if kind_code not in kind_map:
            raise CaseDataError(f"bus {bus_id}: unsupported bus type {kind_code}")
        kind = kind_map[kind_code]
        if kind in (BusKind.SLACK, BusKind.PV) and bus_id not in setpoint:
            raise CaseDataError(f"{kind.name} bus {bus_id} has no generator setpoint")
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                p_load=row[2] / base,
                q_load=row[3] / base,
                v_setpoint=setpoint.get(bus_id, 1.0),
                has_controller=(kind is BusKind.PQ),
                g_shunt=row[4] / base,
                b_shunt=row[5] / base,
            )
        )

    branches: list[Branch] = []
    for row in matrices["branch"]:
        if len(row) < _BRANCH_COLS:
            raise CaseFormatError(f"branch row has {len(row)} columns, need at least {_BRANCH_COLS}")
        ends = _integral(row[0], "branch from bus"), _integral(row[1], "branch to bus")
        if not math.isfinite(row[9]):
            raise CaseDataError(f"branch {ends[0]}-{ends[1]}: angle is {row[9]}, not a finite number")
        if row[9] != 0.0:
            raise CaseDataError(
                f"branch {ends[0]}-{ends[1]}: phase-shifting transformers are not supported"
            )
        branches.append(
            Branch(
                from_bus=ends[0],
                to_bus=ends[1],
                r=row[2],
                x=row[3],
                b_charging=row[4],
                tap_ratio=row[8] if row[8] != 0.0 else 1.0,
                in_service=_integral(row[10], f"branch {ends[0]}-{ends[1]} status") > 0,
            )
        )

    return NetworkCase(
        base_mva=base,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(generators),
        name=name,
    )


def serialize_case(case: NetworkCase) -> str:
    """Render a case back to the supported text format.

    Reparsing the result, with the same ``name``, gives back the base MVA,
    every id, kind, service status and generator bus, each bus's
    ``v_setpoint`` (written as Vg in each of its gen rows) and each branch's
    r, x, b and tap ratio exactly. Per-unit loads, shunts and ``p_gen`` are
    written in MW/MVar and come back within a few ulp (one multiply and one
    divide by the base). Controller placement is not kept: the format has no
    column for it, and the parser puts a controller at every PQ bus.
    """
    base = case.base_mva
    v_set = {b.id: b.v_setpoint for b in case.buses}
    out = [f"function mpc = {case.name}", "mpc.version = '2';", f"mpc.baseMVA = {base!r};"]
    out.append("mpc.bus = [")
    for b in case.buses:
        out.append(
            f"\t{b.id}\t{b.kind.value}\t{b.p_load * base!r}\t{b.q_load * base!r}"
            f"\t{b.g_shunt * base!r}\t{b.b_shunt * base!r}\t1\t1\t0\t0\t1\t1.1\t0.9;"
        )
    out.append("];")
    out.append("mpc.gen = [")
    for g in case.generators:
        out.append(f"\t{g.bus}\t{g.p_gen * base!r}\t0\t0\t0\t{v_set[g.bus]!r}\t{base!r}\t1\t0\t0;")
    out.append("];")
    out.append("mpc.branch = [")
    for br in case.branches:
        out.append(
            f"\t{br.from_bus}\t{br.to_bus}\t{br.r!r}\t{br.x!r}\t{br.b_charging!r}"
            f"\t0\t0\t0\t{br.tap_ratio!r}\t0\t{1 if br.in_service else 0}\t-360\t360;"
        )
    out.append("];")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Admittance assembly and edits
# ---------------------------------------------------------------------------

def build_admittance(case: NetworkCase) -> np.ndarray:
    """Assemble the complex nodal admittance matrix Y = G + jB, per-unit.

    Off-diagonal entry (k, n) is minus the series admittance y = 1/(r + jx)
    of the in-service branch(es) joining buses k and n; diagonals collect the
    series terms, half the line charging per terminal and any bus shunt, with
    tap handling on the from side. Rows and columns follow case bus order.
    """
    index = case.bus_index()
    n = case.n_buses
    y_bus = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.in_service:
            continue
        y = 1.0 / complex(br.r, br.x)
        sh = complex(0.0, br.b_charging / 2.0)
        t = br.tap_ratio
        f, to = index[br.from_bus], index[br.to_bus]
        y_bus[f, f] += (y + sh) / (t * t)
        y_bus[to, to] += y + sh
        y_bus[f, to] += -y / t
        y_bus[to, f] += -y / t
    for b in case.buses:
        k = index[b.id]
        y_bus[k, k] += complex(b.g_shunt, b.b_shunt)
    return y_bus


def _reached(case: NetworkCase, start: int) -> set[int]:
    """The ids of the buses that in-service branches join to bus ``start``, itself included."""
    adjacency: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for br in case.branches:
        if br.in_service:
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def trip_branch(case: NetworkCase, from_bus: int, to_bus: int) -> NetworkCase:
    """Take the in-service branch joining the two buses out of service.

    Raises :class:`CaseDataError` if no such branch is in service and
    :class:`IslandingError` if removing it would disconnect the network.
    """
    hit = None
    for i, br in enumerate(case.branches):
        if br.in_service and {br.from_bus, br.to_bus} == {from_bus, to_bus}:
            hit = i
            break
    if hit is None:
        raise CaseDataError(f"no in-service branch joins buses {from_bus} and {to_bus}")
    branches = tuple(
        replace(br, in_service=False) if i == hit else br for i, br in enumerate(case.branches)
    )
    tripped = replace(case, branches=branches)
    if len(_reached(tripped, from_bus)) < tripped.n_buses:
        raise IslandingError(f"tripping branch {from_bus}-{to_bus} would island part of the network")
    return tripped


def scale_loads(case: NetworkCase, factor) -> NetworkCase:
    """Scale PQ-bus loads by a common factor or a per-bus {id: factor} map.

    Slack and PV bus data are left untouched. Factors must be nonnegative
    and finite; per-bus maps may only name PQ buses. The copy shares the
    ``topology`` of the unscaled case, whichever of them builds it first.
    """
    if isinstance(factor, dict):
        for bus_id, f in factor.items():
            if not 0 <= f < math.inf:
                raise CaseDataError(f"bus {bus_id}: load factor {f} must be nonnegative and finite")
            bus = case.bus(bus_id)
            if bus.kind is not BusKind.PQ:
                raise CaseDataError(f"bus {bus_id} is {bus.kind.name}; load scaling applies to PQ buses")
        per_bus = dict(factor)
    else:
        f = float(factor)
        if not 0 <= f < math.inf:
            raise CaseDataError(f"load factor {f} must be nonnegative and finite")
        per_bus = {b.id: f for b in case.buses if b.kind is BusKind.PQ}
    buses = tuple(
        replace(b, p_load=b.p_load * per_bus[b.id], q_load=b.q_load * per_bus[b.id])
        if b.id in per_bus
        else b
        for b in case.buses
    )
    scaled = replace(case, buses=buses)
    vars(scaled)["_load_root"] = vars(case).get("_load_root", case)
    return scaled
