"""Exception hierarchy shared across the package.

Two broad families: validation errors (bad inputs, malformed configs,
violated preconditions) and numeric errors (consistency checks failing at
run time). The CLI maps them to exit codes 1 and 2.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or schema."""


class BlochVectorError(ValidationError):
    """Raised for Bloch vectors too far from unit norm to renormalize."""


class EnumerationGuardError(ValidationError):
    """Raised when an exhaustive search would exceed its size guard."""


class NumericError(ArithmeticError):
    """Raised when a numeric consistency check fails."""


class RandomnessExhaustedError(RuntimeError):
    """Raised when a finite randomness source runs out of bits.

    ``bits_consumed`` counts bits already delivered; ``rounds_completed``
    is filled in by session runners that catch and re-raise.
    """

    def __init__(self, message: str, bits_consumed: int, rounds_completed: int | None = None):
        super().__init__(message)
        self.bits_consumed = bits_consumed
        self.rounds_completed = rounds_completed
