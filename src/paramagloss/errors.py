"""Exception types raised by this package, and the range rule of its numbers.

All subclass ValueError so callers that do not care about the exact
failure mode can catch the builtin.  InvalidInputs is a bad argument or
value handed to a physics operation; DatabaseError a malformed species
database or emission-line file, naming the entry and field at fault.
"""

import numpy as np


class ParamagLossError(ValueError):
    """Base class for every error raised by paramagloss."""


class InvalidInputs(ParamagLossError):
    """An argument or value violates the constraints of a physics operation."""


class DatabaseError(ParamagLossError):
    """A species database or emission-line file is malformed."""


def require(what: str, value, low: float = 0.0, strict: bool = False):
    """value, if it (or every entry of an array) is a finite real >= low, or > low if strict.

    Otherwise raises InvalidInputs naming `what` and the first bad entry;
    NaN, +-inf, booleans and non-numbers all fail.
    """
    arr = np.asarray(value)
    bad = value
    if arr.dtype.kind in "iuf":
        ok = np.isfinite(arr) & (arr > low if strict else arr >= low)
        if ok.all():
            return value
        bad = arr[~ok][0].item()
    rule = f"{'>' if strict else '>='} {low:g}"
    raise InvalidInputs(f"{what} must be finite and {rule}, got {bad!r}")
