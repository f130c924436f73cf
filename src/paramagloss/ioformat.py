"""Deterministic text formatting shared by the CLI and the file writers.

Numeric columns are lowercase scientific with 9 significant digits and
files use '\\n' line endings, so identical runs produce byte-identical
output.  JSON output encodes the same quantized values as the CSV, so the
two formats round-trip to each other exactly.  finite_float is the one
numeric read of every JSON input file.
"""

import json
import math


def sci9(x) -> str:
    """Lowercase scientific notation, 9 significant digits."""
    return f"{float(x):.8e}"


def quantize(x) -> float:
    """The float value actually encoded by sci9(x)."""
    return float(sci9(x))


def finite_float(value):
    """A decoded JSON number as a finite float, else None.

    Rejects booleans, non-numbers, NaN, +-Infinity, overflowing literals
    such as 1e999, and integers too large for a float.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def write_csv(stream, header, rows) -> None:
    """Write a CSV with '\\n' endings; cells are written as given."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(row) + "\n")


def write_json(stream, payload) -> None:
    stream.write(json.dumps(payload, indent=2) + "\n")
