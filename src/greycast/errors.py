"""Exception types, and the messages that more than one module raises."""

NON_FINITE_FORECAST = "non-finite forecast"  # inf or nan that no closed-form check caught
NON_FINITE_SYSTEM = "least-squares entries must be finite"


class GreycastError(Exception):
    """Base class for all library errors."""


class InvalidInputError(GreycastError):
    """Input data violates a precondition (non-finite, negative, malformed...)."""


class InsufficientDataError(GreycastError):
    """Not enough observations for the requested operation."""


class SingularSystemError(GreycastError):
    """Least-squares system is rank deficient or too ill-conditioned to trust."""

    def __init__(self, message: str, condition: float = float("inf")):
        super().__init__(message)
        self.condition = condition


class NumericalDegeneracyError(GreycastError):
    """A closed-form evaluation hit a vanishing denominator or underflow."""


class CalibrationFailedError(GreycastError):
    """Every candidate of a frequency grid failed to produce a usable fit."""
