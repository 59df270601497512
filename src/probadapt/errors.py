"""Exception types shared across the package."""


class ProbadaptError(Exception):
    """Base of every error the package raises on purpose."""


class ContractViolationError(ProbadaptError, ValueError):
    """An argument broke a documented precondition (shape, range, enum)."""


class DomainError(ProbadaptError, ValueError):
    """A numeric operation was applied outside its mathematical domain."""


class MissingClassError(ProbadaptError, ValueError):
    """A per-class computation found a class with no samples."""


class TrainingDivergedError(ProbadaptError, RuntimeError):
    """A loss or gradient became non-finite during optimisation."""


class EmptyPartialSetError(ProbadaptError, RuntimeError):
    """Every class fell below the partial-set threshold during a pda run."""


class ConfigError(ProbadaptError, ValueError):
    """An experiment configuration document failed validation."""
