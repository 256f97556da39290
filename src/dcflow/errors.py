"""Exception types shared across the simulator."""


class DcflowError(Exception):
    """Base class for all simulator errors."""


class MalformedTreeError(DcflowError):
    """Tree specification is not a rooted tree (cycle, missing/extra root)."""


class StabilityViolationError(DcflowError):
    """Offered load is outside the admissible region."""


class EnumerationLimitError(DcflowError):
    """An occupancy needs more normalizer memo entries than the budget allows."""


class UnstableRegularizerError(DcflowError):
    """Regularizer emission rate does not exceed the arrival rate it serves."""


class InternalConsistencyError(DcflowError):
    """A simulator self-check failed; indicates an implementation bug."""


class EmulationInfeasibilityError(DcflowError):
    """A sample-path invariant of the discrete-time emulation was violated."""


class ConfigError(DcflowError):
    """Experiment configuration is invalid."""
