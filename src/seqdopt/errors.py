"""Semantic exception hierarchy shared across the package."""


class SeqDoptError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDesign(SeqDoptError):
    """Closed-form design collapsed (coincident support or bad denominator)."""


class ConstraintViolated(SeqDoptError):
    """Parameter vector violates the admissibility condition of a closed form."""


class InsufficientData(SeqDoptError):
    """Too few (or degenerate) observations to attempt an ML fit."""


class DegenerateInformation(SeqDoptError):
    """Reference information whose determinant is not positive, so no
    efficiency can be measured against it."""


class StepFailed(SeqDoptError):
    """A sequential step raised; the original error is the ``__cause__``."""

    def __init__(self, step: int, reason: str):
        super().__init__(step, reason)
        self.step = step
        self.reason = reason

    def __str__(self) -> str:
        return f"step {self.step} failed: {self.reason}"


class ConfigError(SeqDoptError, ValueError):
    """A run configuration or output path breaks a rule; the message names it."""
