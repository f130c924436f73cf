"""Exception types raised by this package, and the range rule of its numbers.

All subclass ValueError so callers that do not care about the exact
failure mode can catch the builtin.  InvalidInputs is a bad argument or
value handed to a physics operation; DatabaseError a malformed species
database or emission-line file, naming the entry and field at fault.

require is the rule every number of the chain keeps: finite and at least
(or above) a lower bound.  A formula leaves the float range only inside
evaluate, whose caller rejects the inf or nan it gets back.  No other module
silences numpy's floating-point warnings, and only ioformat.finite_float,
which converts a JSON integer, catches OverflowError.

Record is the base of the package's records: plain __slots__ classes whose
fields are set once, in __init__.  Not dataclasses: a module with no cached
bytecode compiles on every start, and a @dataclass also compiles the
methods it writes each time its module runs (CHANGES.md, "Database
commands start without generated code or spin's matrix algebra").
"""

import math

import numpy as np


class ParamagLossError(ValueError):
    """Base class for every error raised by paramagloss."""


class InvalidInputs(ParamagLossError):
    """An argument or value violates the constraints of a physics operation."""


class DatabaseError(ParamagLossError):
    """A species database or emission-line file is malformed."""


class Record:
    """A read-only record: a subclass names its fields in __slots__ and sets them in
    __init__ through _set_fields.

    Assigning or deleting a field afterwards raises AttributeError.  Records
    compare and hash by identity; copy and pickle rebuild their fields.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set_fields(self, *values):
        """Set the fields, in __slots__ order, to values."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def is_real(value) -> bool:
    """Whether value is an int or a float, or an array of them, NaN and +-inf included.

    Booleans, complex numbers, strings, None and ints past int64 are not.
    """
    return np.asarray(value).dtype.kind in "iuf"


def evaluate(compute):
    """compute(), with a result past the float range given as inf or nan, not raised.

    numpy's overflow, division-by-zero and invalid-operation warnings are
    silenced, and a Python float operation that raises OverflowError gives
    math.inf; no other exception is caught.  Every caller checks what it
    gets back, by require or by a bound of its own.
    """
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return compute()
    except OverflowError:
        return math.inf


def require(what: str, value, low: float = 0.0, strict: bool = False):
    """value, if it (or every entry of an array) is a finite real >= low, or > low if strict.

    Otherwise raises InvalidInputs naming `what` and the first bad entry;
    NaN, +-inf, booleans and non-numbers all fail.  low = -inf asks only
    for a finite real.  A list or tuple comes back as an ndarray, so the
    caller's arithmetic works on it; a number or an ndarray comes back as given.
    """
    arr = np.asarray(value)
    bad = value
    if is_real(arr):
        ok = np.isfinite(arr) & (arr > low if strict else arr >= low)
        if ok.all():
            return arr if isinstance(value, (list, tuple)) else value
        bad = arr[~ok][0].item()
    rule = f" and {'>' if strict else '>='} {low:g}" if low > -np.inf else ""
    raise InvalidInputs(f"{what} must be finite{rule}, got {bad!r}")


def require_number(what: str, value, low: float = 0.0, strict: bool = False) -> float:
    """require() for a single number, returned as a float; an array fails too."""
    if np.ndim(value) != 0:
        raise InvalidInputs(
            f"{what} must be a single number, got an array of shape {np.shape(value)}"
        )
    return float(require(what, value, low, strict))


def broadcast_shape(**values) -> tuple:
    """The shape that the named values broadcast to; InvalidInputs naming their shapes if none."""
    shapes = {name: np.shape(value) for name, value in values.items()}
    try:
        return np.broadcast_shapes(*shapes.values())
    except ValueError:
        spelled = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        raise InvalidInputs(f"shapes do not broadcast together: {spelled}") from None
