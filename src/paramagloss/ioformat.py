"""Deterministic text formatting: the one place numbers are spelled.

write_csv spells every number as sci9, lowercase scientific with 9
significant digits, and write_json every float as json.dumps(quantize(x)),
the value of that CSV cell, so the two formats round-trip exactly.  Files
use '\\n' line endings, so identical runs produce byte-identical output.
finite_float is the one numeric read of every JSON input file.

Grid columns are written CHUNK rows at a time, and no writer holds more
than one chunk of text.  A CSV chunk of finite values that are positive or
+0.0, with decimal exponents inside [-99, 99], is spelled by sci9_block, a
numpy digit kernel; any other chunk is one '%' operation over "%.8e" cells.

sci9_block finds each cell's decimal exponent e with floor(log10(x)),
scales x to s = x * 10**(8 - e) by one correctly rounded power of ten
(multiplying for 8 - e >= 0, dividing otherwise) and rounds s to the
9-digit significand.  The scale costs at most two roundings, so s is within
2.3e-7 of the exact product; a cell whose s lies within 1e-6 of a rounding
tie (x.5) is spelled by "%.8e" % x instead.  The bytes are those of
"%.8e" % x for every cell.
"""

import functools
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


# Half the distance to a rounding tie inside which sci9_block leaves a cell
# to "%.8e": well above the 2.3e-7 error bound of the scaled significand.
TIE_BAND = 1e-6

# One CSV cell: "d." + 4 digits + 4 digits + "e+XX" + separator, 15 bytes.
# Each field holds the bytes of one lookup-table entry.
_CELL = np.dtype([("lead", "u2"), ("hi", "u4"), ("lo", "u4"), ("exp", "u4"), ("sep", "u1")])

# Entry e + _E0 of the scale tables belongs to the exponent estimate
# e = floor(log10(x)), in [-100, 100] for x in [1e-99, 1e100) as log10 rounds.
_E0 = 100


def _ascii(codes) -> np.ndarray:
    """Rows of ASCII codes as one unsigned int per row, holding those bytes."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    return codes.view(f"u{codes.shape[1]}").ravel()


@functools.cache
def _tables():
    """Scale factors and digit tables of sci9_block, built on first use.

    x * up[e + _E0] / down[e + _E0] is x * 10**(8 - e) through one correctly
    rounded float(10**abs(8 - e)): a product for 8 - e >= 0, else a quotient,
    the other factor being 1.
    """
    k = range(8 + _E0, 8 - _E0 - 1, -1)  # 8 - e for e = -_E0 .. _E0
    up = np.array([float(10**j) if j >= 0 else 1.0 for j in k])
    down = np.array([float(10**-j) if j < 0 else 1.0 for j in k])
    lead = _ascii(np.column_stack([np.arange(10) + ord("0"), np.full(10, ord("."))]))
    quad = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    e = np.arange(-99, 100)
    exp = np.column_stack([
        np.full(len(e), ord("e")),
        np.where(e < 0, ord("-"), ord("+")),
        abs(e) // 10 + ord("0"),
        abs(e) % 10 + ord("0"),
    ])
    return up, down, lead, _ascii(quad + ord("0")), _ascii(exp)


def sci9_block(block):
    """The CSV rows of a 2-D float64 array as sci9 cells, or None.

    Returns None, leaving the block to "%.8e", unless every cell is finite
    and positive or +0.0 with a decimal exponent in [-99, 99].
    """
    x = block.ravel()
    if np.signbit(x).any() or not x.max() < 1e100:  # also catches nan
        return None
    positive = np.where(x > 0, x, 1.0)
    if not positive.min() >= 1e-99:
        return None
    digits, e, near_tie = _significands(positive)
    digits[x == 0] = 0
    for i in near_tie:
        cell = "%.8e" % positive[i]
        digits[i] = int(cell[0] + cell[2:10])
        e[i] = int(cell[11:])
    e += 99  # the row of the exponent table
    if e.max() > 198 or e.min() < 0:
        return None
    _, _, lead, quad, exp = _tables()
    cells = np.empty(len(x), _CELL)
    first = digits // 100_000_000
    # Every index is in range by now; "clip" only skips take's bounds copy.
    lead.take(first, out=cells["lead"], mode="clip")
    digits -= first * 100_000_000
    hi = digits // 10_000
    quad.take(hi, out=cells["hi"], mode="clip")
    digits -= hi * 10_000
    quad.take(digits, out=cells["lo"], mode="clip")
    exp.take(e, out=cells["exp"], mode="clip")
    cells = cells.reshape(block.shape)
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")
    return str(cells.view(np.uint8).data, "ascii")


def _significands(x):
    """9-digit significands and decimal exponents of x, and the cells to redo.

    x holds normal values in [1e-99, 1e100).  Returns the int32 significands
    and int exponents of "%.8e" % x, and the indices of the cells whose
    scaled value lies within TIE_BAND of a rounding tie: their significand
    and exponent are not to be trusted.
    """
    up, down, *_ = _tables()
    e = np.log10(x)
    np.floor(e, out=e)
    e = e.astype(np.intp) + _E0
    s = up[e]
    s *= x
    s /= down[e]
    # floor(log10(x)) misses by one only within a few ulps of a power of ten
    # (float(1e-98) < 10**-98, yet log10 gives -98.0).  There s is 1e8 or 1e9
    # within 1e-6, so rint and the carry give the power of ten either way.
    d = np.rint(s)
    np.subtract(s, d, out=s)
    near_tie = np.flatnonzero(np.abs(s, out=s) >= 0.5 - TIE_BAND)
    carry = d >= 1e9
    d[carry] = 1e8
    e[carry] += 1
    e -= _E0
    return d.astype(np.int32), e, near_tie


def write_csv(stream, header, rows) -> None:
    """Write a CSV with '\\n' endings.

    rows is a list of rows, whose string cells are written as given and
    whose number cells as sci9 cells, or a sequence of equal-length 1-D
    float arrays, one per header column, written as sci9 cells.
    """
    stream.write(",".join(header) + "\n")
    if not (rows and isinstance(rows[0], np.ndarray)):
        for row in rows:
            stream.write(",".join(c if isinstance(c, str) else sci9(c) for c in row) + "\n")
        return
    row_format = ",".join(["%.8e"] * len(rows)) + "\n"
    chunk_format = row_format * CHUNK
    for start in range(0, len(rows[0]), CHUNK):
        block = np.column_stack([col[start : start + CHUNK] for col in rows])
        text = sci9_block(block)
        if text is None:
            fmt = chunk_format if len(block) == CHUNK else row_format * len(block)
            text = fmt % tuple(block.ravel().tolist())
        stream.write(text)


def write_json(stream, payload) -> None:
    """Write json.dumps(payload, indent=2) plus '\\n', with floats quantized.

    Every float in the (string-keyed) dicts, lists and tuples of the payload
    is written as json.dumps(quantize(x)), and every 1-D ndarray as the list
    of its quantized values, one chunk at a time.
    """
    _write_json_value(stream, payload, "")
    stream.write("\n")


def _write_json_value(stream, value, pad: str) -> None:
    if isinstance(value, np.ndarray):
        _write_json_array(stream, value, pad)
    elif isinstance(value, float):
        stream.write(json.dumps(quantize(value)))
    elif isinstance(value, (dict, list, tuple)) and value:
        inner = pad + "  "
        if isinstance(value, dict):
            brackets, items = "{}", [(json.dumps(key) + ": ", item) for key, item in value.items()]
        else:
            brackets, items = "[]", [("", item) for item in value]
        sep = brackets[0] + "\n"
        for prefix, item in items:
            stream.write(sep + inner + prefix)
            _write_json_value(stream, item, inner)
            sep = ",\n"
        stream.write(f"\n{pad}{brackets[1]}")
    else:
        stream.write(json.dumps(value))


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
