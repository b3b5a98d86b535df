"""Quasi-static grid simulation with distributed feedback volt/var control.

The package models a transmission network, solves its AC power flow, and
closes the loop with per-bus reactive-power controllers driven by
primal-dual gradient dynamics. A centralized quadratic-program solver is
included to certify where the distributed controller settles: a KKT point
of the measured-voltage problem, with stationarity taken through the
constant sensitivity matrix X.
"""

from __future__ import annotations

from importlib import resources

from .errors import (
    CaseDataError,
    CaseFormatError,
    ConfigError,
    InfeasibleProblemError,
    IslandingError,
    NotContractingError,
    PlantDivergenceError,
    SingularModelError,
    StepSizeUnderflowError,
    VoltCtrlError,
)
from .netcase import (
    Branch,
    Bus,
    BusKind,
    Generator,
    NetworkCase,
    build_admittance,
    parse_case,
    scale_loads,
    serialize_case,
    trip_branch,
)

__version__ = "0.1.0"

BUNDLED_CASES = ("case14", "case30")


def load_case(name: str) -> NetworkCase:
    """Load one of the bundled test networks by name ('case14' or 'case30')."""
    if name not in BUNDLED_CASES:
        raise CaseDataError(f"unknown bundled case {name!r}, have {BUNDLED_CASES}")
    text = resources.files(__name__).joinpath("data", f"{name}.m").read_text()
    return parse_case(text, name=name)


__all__ = [
    "Branch",
    "Bus",
    "BusKind",
    "BUNDLED_CASES",
    "CaseDataError",
    "CaseFormatError",
    "ConfigError",
    "Generator",
    "InfeasibleProblemError",
    "IslandingError",
    "NetworkCase",
    "NotContractingError",
    "PlantDivergenceError",
    "SingularModelError",
    "StepSizeUnderflowError",
    "VoltCtrlError",
    "build_admittance",
    "load_case",
    "parse_case",
    "scale_loads",
    "serialize_case",
    "trip_branch",
]
