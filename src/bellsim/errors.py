"""Exception hierarchy for the bellsim package.

All package-specific failures derive from :class:`BellsimError` so callers
can catch everything from this library with a single except clause.  The
subclasses also inherit from the closest builtin (ValueError, ArithmeticError)
so existing generic handlers keep working.
"""

from __future__ import annotations

__all__ = [
    "BellsimError",
    "InvalidInputError",
    "ModelInvalidError",
    "NumericalInconsistencyError",
]


class BellsimError(Exception):
    """Base class for all errors raised by bellsim."""


class InvalidInputError(BellsimError, ValueError):
    """An argument is outside the documented domain (range, shape, or type)."""


class ModelInvalidError(BellsimError, ValueError):
    """A hidden-variable model violates its structural constraints.

    Raised when an entry is not a number, weights are negative or do not sum
    to one within 1e-12, or a response probability lies outside [0, 1].
    """


class NumericalInconsistencyError(BellsimError, ArithmeticError):
    """An internal quantity took a value that is mathematically impossible.

    This signals an implementation bug (for example a negative intensity),
    never bad user input, and should not be caught and ignored.
    """
