"""Exception types shared across the package."""

from __future__ import annotations


class FockstateError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetMismatchError(FockstateError, ValueError):
    """Operands live over different alphabets."""


class LetterRangeError(FockstateError, ValueError):
    """A word letter lies outside 1..n."""


class CoefficientRangeError(FockstateError, ValueError):
    """A coefficient is not finite, or its modulus overflows."""


class ExpressionSyntaxError(FockstateError, ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HorizonError(FockstateError, ValueError):
    """A computation would need levels beyond the stored truncation depth."""


class UndeterminedError(FockstateError):
    """The truncation window is too shallow to settle the question.

    Carries the trace profile that was observed so callers can report it.
    """

    def __init__(self, message: str, trace_profile):
        super().__init__(message)
        self.trace_profile = list(trace_profile)


class InsufficientMomentsError(FockstateError, ValueError):
    """A moment window does not pin down an atomic measure."""


class SchemaError(FockstateError, ValueError):
    """A JSON document does not match the documented schema."""
