"""Exception types shared across the package."""


class VoltCtrlError(Exception):
    """Base class for all errors raised by this package."""


class CaseFormatError(VoltCtrlError):
    """Case text could not be parsed; message carries the line number."""


class CaseDataError(VoltCtrlError):
    """Case parsed but violates a model invariant (duplicate bus, dangling branch, ...)."""


class IslandingError(VoltCtrlError):
    """Part of the network is cut off from the slack bus, or a topology edit would cut it off."""


class SingularModelError(VoltCtrlError):
    """A reduced network matrix is singular (islanded or degenerate data)."""


class InfeasibleProblemError(VoltCtrlError):
    """The constrained dispatch problem has no feasible point."""


class NotContractingError(VoltCtrlError):
    """A fixed-point iteration did not contract to its tolerance."""


class PlantDivergenceError(VoltCtrlError):
    """The power-flow plant failed to converge during a simulation."""


class StepSizeUnderflowError(VoltCtrlError):
    """The adaptive integrator could not make progress above its minimum step."""


class ConfigError(VoltCtrlError):
    """Run configuration is malformed or contains unknown keys."""
