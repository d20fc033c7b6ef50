"""Semantic exception hierarchy shared across the package."""


class SeqDoptError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(SeqDoptError):
    """Cholesky factorization hit a pivot at or below tolerance."""


class DomainError(SeqDoptError):
    """Design point outside the experiment space (e.g. x <= 0)."""


class DegenerateDesign(SeqDoptError):
    """Closed-form design collapsed (coincident support or bad denominator)."""


class ConstraintViolated(SeqDoptError):
    """Parameter vector violates the admissibility condition of a closed form."""


class WeightNotRational(SeqDoptError):
    """Design weights cannot be expressed over the scheduler's common denominator."""


class InsufficientData(SeqDoptError):
    """Too few (or degenerate) observations to attempt an ML fit."""


class DegenerateInformation(SeqDoptError):
    """Cumulative information determinant too small for a relative comparison."""


class ConfigMismatch(SeqDoptError):
    """Method-comparison configs differ in fields other than the method."""


class StepFailed(SeqDoptError):
    """A sequential step raised; the original error is the ``__cause__``."""

    def __init__(self, step: int, reason: str):
        super().__init__(step, reason)
        self.step = step
        self.reason = reason

    def __str__(self) -> str:
        return f"step {self.step} failed: {self.reason}"


class ConfigError(SeqDoptError, ValueError):
    """A run configuration breaks a rule; the message names the field."""
