"""Exception types raised by this package.

All subclass ValueError so callers that do not care about the exact
failure mode can catch the builtin.  InvalidInputs is a bad argument or
value handed to a physics operation; DatabaseError a malformed species
database or emission-line file, naming the entry and field at fault.
"""


class ParamagLossError(ValueError):
    """Base class for every error raised by paramagloss."""


class InvalidInputs(ParamagLossError):
    """An argument or value violates the constraints of a physics operation."""


class DatabaseError(ParamagLossError):
    """A species database or emission-line file is malformed."""
