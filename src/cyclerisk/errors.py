"""Exception types shared across the package.

Every error raised on a documented failure path derives from CycleRiskError so
callers (and the CLI exit-code mapping) can distinguish our failures from bugs.
"""


class CycleRiskError(Exception):
    """Base class for all documented failure modes."""


class InvalidInputError(CycleRiskError):
    """A precondition on caller-supplied data does not hold."""


class InsufficientFlowError(CycleRiskError):
    """Fewer usable flow vectors than the estimation quorum."""


class DegenerateGeometryError(CycleRiskError):
    """Flow line geometry does not pin down a point (e.g. all lines parallel)."""


class InsufficientDataError(CycleRiskError):
    """A sensor stream is too short to produce any analysis window."""


class ZeroMassError(CycleRiskError):
    """A histogram or signature with no mass was passed where mass is required."""


class DegenerateTrainingError(CycleRiskError):
    """A training set lacks the variety needed to fit a model (e.g. one class)."""


class SolverNotConvergedError(CycleRiskError):
    """An iterative solver reached its iteration cap short of its tolerance."""


class RecordParseError(CycleRiskError):
    """A record file is malformed. Carries the offending line when known."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ConfigError(CycleRiskError):
    """A configuration file or flag value is out of range or unknown."""
