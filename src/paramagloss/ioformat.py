"""Deterministic text formatting shared by the CLI and the file writers.

Numeric columns are lowercase scientific with 9 significant digits and
files use '\\n' line endings, so identical runs produce byte-identical
output.  JSON output encodes the same quantized values as the CSV, so the
two formats round-trip to each other exactly.  finite_float is the one
numeric read of every JSON input file.

Grid columns are written CHUNK rows at a time: one '%' operation formats a
whole chunk, and no writer holds more than one chunk of text.
"""

import json
import math
import re

import numpy as np

# Rows (CSV) or values (JSON) formatted per '%' operation.
CHUNK = 4096


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
    """Write a CSV with '\\n' endings.

    rows is a list of rows of string cells, written as given, or a sequence
    of equal-length 1-D float arrays, one per header column, written as sci9
    cells.
    """
    stream.write(",".join(header) + "\n")
    if not (rows and isinstance(rows[0], np.ndarray)):
        for row in rows:
            stream.write(",".join(row) + "\n")
        return
    row_format = ",".join(["%.8e"] * len(rows)) + "\n"
    chunk_format = row_format * CHUNK
    for start in range(0, len(rows[0]), CHUNK):
        block = np.column_stack([col[start : start + CHUNK] for col in rows])
        fmt = chunk_format if len(block) == CHUNK else row_format * len(block)
        stream.write(fmt % tuple(block.ravel().tolist()))


def write_json(stream, payload) -> None:
    """Write json.dumps(payload, indent=2) plus '\\n', with 1-D arrays as lists.

    An ndarray anywhere in the (string-keyed) dicts of the payload is written
    as the list of its quantized values, one chunk at a time.
    """
    _write_json_value(stream, payload, "")
    stream.write("\n")


def _write_json_value(stream, value, pad: str) -> None:
    if isinstance(value, np.ndarray):
        _write_json_array(stream, value, pad)
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n"
        for key, item in value.items():
            stream.write(f"{sep}{inner}{json.dumps(key)}: ")
            _write_json_value(stream, item, inner)
            sep = ",\n"
        stream.write(f"\n{pad}}}")
    else:
        # JSON strings escape newlines, so this only indents structure.
        stream.write(json.dumps(value, indent=2).replace("\n", "\n" + pad))


# "%.9g" cells that json.dumps(quantize(x)) spells otherwise: an integral
# value ("3", "-0"; repr adds ".0"), a positive exponent (repr keeps fixed
# notation below 1e16), nan and inf, and values at or near the subnormal
# range, where the quantized double has fewer than 9 significant digits.
_INTEGRAL = re.compile(r" -?\d+ ")
_NEAR_SUBNORMAL = re.compile(r"e-3(?:0[89]|[12])")


def _json_floats(values, sep: str) -> str:
    """json.dumps(quantize(x)) of each value, joined by sep.

    For a normal double x, "%.9g" % x has the digits of sci9(x) with
    trailing zeros stripped, and no other decimal of at most 9 digits
    rounds to quantize(x), so it is the shortest repr of quantize(x).  Where
    every cell is also spelled as repr spells it, it is used as is: it skips
    the float parse and the shortest-repr search, and costs about a quarter
    of the exact path per value.
    """
    text = (" %.9g" * len(values)) % tuple(values) + " "
    if not (
        "n" in text
        or "+" in text
        or _NEAR_SUBNORMAL.search(text)
        or _INTEGRAL.search(text)
    ):
        return text[1:-1].replace(" ", sep)
    cells = (("%.8e " * len(values)) % tuple(values)).split()
    # The compact encoder spells each float, NaN and Infinity as json.dumps does.
    return json.dumps(list(map(float, cells)), separators=(sep, ": "))[1:-1]


def _write_json_array(stream, values, pad: str) -> None:
    if len(values) == 0:
        stream.write("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    stream.write("[\n" + inner)
    for start in range(0, len(values), CHUNK):
        block = values[start : start + CHUNK].tolist()
        stream.write((sep if start else "") + _json_floats(block, sep))
    stream.write(f"\n{pad}]")
