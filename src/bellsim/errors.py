"""Exception hierarchy for the bellsim package, and its argument checks.

All package-specific failures derive from :class:`BellsimError` so callers
can catch everything from this library with a single except clause.  The
subclasses also inherit from the closest builtin (ValueError, ArithmeticError)
so existing generic handlers keep working.

The private helpers below are the one place where arguments are checked:
every module tests a number, count, probability, choice, interval or array
through them, so a bad argument of any type, a string or None included,
raises :class:`InvalidInputError` with the same message wherever it is
passed, a hidden-variable model or a command-line flag included.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class BellsimError(Exception):
    """Base class for all errors raised by bellsim."""


class InvalidInputError(BellsimError, ValueError):
    """An argument is outside the documented domain (range, shape, or type)."""


class NumericalInconsistencyError(BellsimError, ArithmeticError):
    """An internal quantity took a value that is mathematically impossible.

    This signals an implementation bug (for example a negative intensity),
    never bad user input, and should not be caught and ignored.
    """


# math.isfinite raises TypeError on a non-number and OverflowError on an int
# beyond the float range, and a try costs nothing when it raises neither: the
# k check runs on every closed-form evaluation, where an
# isinstance(value, numbers.Real) test costs about five times as much.
# A numpy complex scalar converts to float with a ComplexWarning and loses
# its imaginary part, and a bool converts to 0 or 1, so both are turned away
# first (after a type test that lets a Python float skip the slower isinstance).
_NOT_REAL = (bool, np.bool_, np.complexfloating)

def _real(name: str, value: object) -> float:
    """``value`` as a float, for an argument that must be a finite number."""
    try:
        if (
            (type(value) is float or not isinstance(value, _NOT_REAL))
            and math.isfinite(value)
        ):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise InvalidInputError(f"{name} must be a real number, got {value!r}")


def _probability(name: str, value: object) -> float:
    """``value`` as a float, for a real number in [0, 1]."""
    p = _real(name, value)
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value!r}")
    return p


def _positive(name: str, value: object, zero: bool = False) -> float:
    """``value`` as a float, for a finite number > 0 (>= 0 with ``zero``)."""
    try:
        if (
            (type(value) is float or not isinstance(value, _NOT_REAL))
            and math.isfinite(value)
            and (value > 0.0 or zero and value == 0.0)
        ):
            return float(value)
    except (TypeError, OverflowError):
        pass
    sign = "nonnegative" if zero else "positive"
    raise InvalidInputError(f"{name} must be {sign} and finite, got {value!r}")


def _instance(name: str, value: object, cls: type) -> object:
    """``value``, for an argument that must be an instance of ``cls``."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be an instance of {cls.__name__}, got {value!r}")
    return value


#: The largest count: a count sizes an array or a draw, and numpy sizes
#: both with int64.
_MAX_COUNT = 2**63 - 1

#: The largest count of a grid that a run holds whole (the sweep's k values,
#: the samples of a period, a model's hidden states), so that no count asks
#: for an array that no address space can hold.
_MAX_GRID = 2**32


def _count(name: str, value: object, minimum: int = 1, maximum: float = _MAX_COUNT) -> int:
    """``value`` as an int, for an integer (numpy's included) from
    ``minimum`` to ``maximum``.  A bool is not a count, although Python
    counts it as an int."""
    try:
        if not isinstance(value, bool):
            index = operator.index(value)
            if minimum <= index <= maximum:
                return index
            if index > maximum:
                raise InvalidInputError(f"{name} must be an integer <= {maximum}, got {value!r}")
    except TypeError:
        pass
    raise InvalidInputError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _seed(name: str, value: object) -> int:
    """``value`` as an int, for a seed: an integer >= 0 of any size, as
    ``np.random.SeedSequence`` takes."""
    return _count(name, value, 0, math.inf)


def _sequence(name: str, value: object) -> list:
    """``value`` as a list, for an argument that must be iterable."""
    try:
        return list(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be a sequence, got {value!r}") from None


def _member(name: str, value: object, choices: tuple[str, ...]) -> str:
    """``value``, for an argument that must be one of the strings ``choices``.
    Anything but a string is turned away before it is compared, so an array
    is not taken for a choice that equals its items."""
    if not isinstance(value, str) or value not in choices:
        raise InvalidInputError(f"{name} must be one of {choices}, got {value!r}")
    return value


def _interval(name: str, value: object, positive: bool = False) -> tuple[float, float]:
    """``value`` as floats (lo, hi), for finite numbers lo < hi (0 < lo < hi
    with ``positive``) whose width hi - lo is finite too."""
    try:
        lo, hi = value
        if (
            not isinstance(lo, _NOT_REAL) and not isinstance(hi, _NOT_REAL)
            and (not positive or lo > 0.0) and lo < hi
            and math.isfinite(lo) and math.isfinite(hi)
        ):
            lo, hi = float(lo), float(hi)
            if math.isfinite(hi - lo):
                return lo, hi
    except (TypeError, ValueError, OverflowError):
        pass
    bound = "0 < " if positive else ""
    raise InvalidInputError(
        f"{name} must be finite with {bound}lo < hi and a finite width hi - lo, got {value!r}"
    )


def _as_real_array(values: object) -> np.ndarray | None:
    """``values`` as an array of real numbers, with a float dtype kept and
    integers as float64, or None when any item is not a real number.

    An integer or float array passes by its dtype, and a bool, complex or
    string one fails by it.  Anything else (a list, a scalar, an object
    array) is read item by item, because numpy parses a numeric string, and
    turns a bool mixed into a list of numbers into a number, without a
    word.  An item is a real number when ``_real`` would take it, a
    non-finite one included.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "iufO":
            return None
        if arr.dtype.kind == "O" or not isinstance(values, np.ndarray):
            for item in np.asarray(values, dtype=object).flat:
                if isinstance(item, _NOT_REAL):
                    return None
                math.isfinite(item)  # TypeError for a non-number
        return arr if arr.dtype.kind == "f" else arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        return None


def _real_array(name: str, values: object, finite: bool = False) -> np.ndarray:
    """``values`` as an array of real numbers (see :func:`_as_real_array`),
    finite ones with ``finite``; a float array is checked without a copy or
    a pass over its items in Python."""
    arr = _as_real_array(values)
    # min/max propagate NaN and see +-inf, so one pair decides finiteness.
    if arr is None or finite and arr.size and not -math.inf < arr.min() <= arr.max() < math.inf:
        raise InvalidInputError(f"{name} must be {'finite ' if finite else ''}real numbers")
    return arr


def _nonnegative_array(name: str, values: object) -> np.ndarray:
    """``values`` as a float64 array, for real numbers that must be finite
    and >= 0.  A float64 array passes without a copy or an extra pass;
    anything else is read by :func:`_as_real_array` first."""
    arr = values
    if type(arr) is not np.ndarray or arr.dtype != np.float64:
        arr = _as_real_array(values)
        if arr is not None:
            arr = arr.astype(float, copy=False)
    # min/max propagate NaN and see +-inf, so one pair decides both
    # finiteness and sign without a boolean temporary.
    if arr is not None and (not arr.size or arr.min() >= 0.0 and arr.max() < math.inf):
        return arr
    raise InvalidInputError(f"{name} must be finite and >= 0")


def _unit_array(name: str, values: object) -> np.ndarray:
    """``values`` as a float64 array, for real numbers in [0, 1]."""
    arr = _real_array(name, values).astype(float, copy=False)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise InvalidInputError(f"{name} must lie in [0, 1]")
    return arr
