"""Deterministic text formatting: the one place numbers are spelled.

Both writers spell every finite float as sci9, lowercase scientific with 9
significant digits, so a number's JSON text equals its CSV text and
json.load reads back the value of the CSV cell.  JSON keeps json.dumps's
NaN and Infinity for non-finite floats, which the CLI never writes.  Files
use '\\n' line endings, so identical runs produce byte-identical output.
read_json_array is the one read of every JSON input file, number_field
and finite_float its one numeric read, and plain_name the one check of the
names and labels the writers spell; default_db_path and
default_emission_path name the two bundled input files, joined from the
package directory so that no run imports importlib.resources.

Grid columns (CSV) and arrays (JSON) go through one chunk writer,
_write_cells, CHUNK rows or values at a time, and no writer holds more than
one chunk of text.  A chunk whose values are all finite and positive or
+0.0 with a decimal exponent inside [-99, 99] is spelled by one numpy digit
kernel; any other chunk takes the exact path, one call per value of the
writer's number speller (sci9, or its JSON form).

The kernel (_sci9_cells) finds each value's decimal exponent e with
floor(log10(x)), scales x to s = x * 10**(8 - e) by one product with a
correctly rounded power of ten and rounds s to the 9-digit significand.
The scale costs at most two roundings, so s is within 2.3e-7 of the exact
product; a value whose s lies within 1e-6 of a rounding tie (x.5) takes
its digits from sci9(x) instead.  It then builds each cell, the bytes of
sci9(x), from digit tables into a record whose last field holds the
separator: ',' or '\\n' in a CSV row, the array separator in JSON.
"""

import functools
import json
import math
import os

import numpy as np

from .errors import DatabaseError

# Rows (CSV) or values (JSON) per formatted chunk.
CHUNK = 4096


def sci9(x) -> str:
    """Lowercase scientific notation, 9 significant digits."""
    return f"{float(x):.8e}"


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


def default_db_path() -> str:
    """Path of the bundled sapphire defect database."""
    return os.path.join(os.path.dirname(__file__), "data", "sapphire_defects.json")


def default_emission_path() -> str:
    """Path of the bundled emission-line table."""
    return os.path.join(os.path.dirname(__file__), "data", "rare_earth_lines.json")


def read_json_array(path, what: str) -> list:
    """The JSON array in the file at path; errors name the file as what (and path)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DatabaseError(f"cannot read {what} {path}: {exc}") from exc
    # Bad syntax or encoding, an int over 4300 digits, or nesting too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise DatabaseError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DatabaseError(f"{what} {path} must be a JSON array")
    return raw


def number_field(entry: dict, key: str, where: str, default=None) -> float:
    """entry[key] as a finite float, or default if given and the key is absent.

    An explicit null is not a number.  Errors start with where, which names
    the entry.
    """
    if key not in entry:
        if default is None:
            raise DatabaseError(f"{where}: missing field {key!r}")
        return default
    value = finite_float(entry[key])
    if value is None:
        raise DatabaseError(f"{where}: field {key!r} must be a finite number")
    return value


# The rule plain_name checks, as the errors of a rejected name spell it.
NAME_RULE = "must be non-empty printable ASCII without ',', '\"' or ';'"


def plain_name(value):
    """A name or label both writers spell as given, else None.

    Accepts a non-empty str of printable ASCII without ',' (which splits a
    CSV row), '"' (which CSV would have to quote) or ';' (which joins the
    weights cell of point), so it writes the same to any stream encoding.
    """
    plain = isinstance(value, str) and value.isascii() and value.isprintable()
    return value if plain and value and not any(c in value for c in ',";') else None


# Half the distance to a rounding tie inside which _sci9_cells takes a cell's
# digits from sci9: well above the 2.3e-7 error bound of the scaled
# significand.
TIE_BAND = 1e-6

# One cell before its separator: "d." + 4 digits + 4 digits + "e+XX", 14
# bytes.  Each field holds the bytes of one lookup-table entry.
_CELL = [("lead", "u2"), ("hi", "u4"), ("lo", "u4"), ("exp", "u4")]

# Entry e + _E0 of the scale tables belongs to the exponent estimate
# e = floor(log10(x)), in [-100, 100] for x in [1e-99, 1e100) as log10 rounds.
_E0 = 100


def _ascii(codes) -> np.ndarray:
    """Rows of ASCII codes as one unsigned int per row, holding those bytes."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    return codes.view(f"u{codes.shape[1]}").ravel()


@functools.cache
def _tables():
    """Scale factors and digit tables of _sci9_cells, built on first use.

    x * scale[e + _E0] is x * 10**(8 - e) through one product with the
    correctly rounded float(f"1e{8 - e}").
    """
    scale = np.array([float(f"1e{j}") for j in range(8 + _E0, 8 - _E0 - 1, -1)])
    lead = _ascii(np.column_stack([np.arange(10) + ord("0"), np.full(10, ord("."))]))
    # Column n of the (4, 10 000) index grid holds the four digits of n.
    quad = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    e = np.arange(-99, 100)
    exp = np.column_stack([
        np.full(len(e), ord("e")),
        np.where(e < 0, ord("-"), ord("+")),
        abs(e) // 10 + ord("0"),
        abs(e) % 10 + ord("0"),
    ])
    return scale, lead, _ascii(quad + ord("0")), _ascii(exp)


def _sci9_cells(x, width: int):
    """The sci9 cells of a 1-D float64 array, or None.

    Returns None unless every value is finite and positive or +0.0 with a
    decimal exponent in [-99, 99].  Otherwise returns one record per value:
    the _CELL fields and a "sep" field of width bytes, left unset.
    """
    if np.signbit(x).any() or not x.max() < 1e100:  # also catches nan
        return None
    positive = np.where(x > 0, x, 1.0)
    if not positive.min() >= 1e-99:
        return None
    digits, e, near_tie = _significands(positive)
    digits[x == 0] = 0
    for i in near_tie:
        cell = sci9(positive[i])
        digits[i] = int(cell[0] + cell[2:10])
        e[i] = int(cell[11:])
    e += 99  # the row of the exponent table
    if e.max() > 198 or e.min() < 0:
        return None
    _, lead, quad, exp = _tables()
    cells = np.empty(len(x), _CELL + [("sep", f"S{width}")])
    first = digits // 100_000_000
    # Every index is in range by now; "clip" only skips take's bounds copy.
    lead.take(first, out=cells["lead"], mode="clip")
    digits -= first * 100_000_000
    hi = digits // 10_000
    quad.take(hi, out=cells["hi"], mode="clip")
    digits -= hi * 10_000
    quad.take(digits, out=cells["lo"], mode="clip")
    exp.take(e, out=cells["exp"], mode="clip")
    return cells


def _significands(x):
    """9-digit significands and decimal exponents of x, and the cells to redo.

    x holds normal values in [1e-99, 1e100).  Returns the int32 significands
    and int exponents of sci9(x), and the indices of the cells whose
    scaled value lies within TIE_BAND of a rounding tie: their significand
    and exponent are not to be trusted.
    """
    scale, *_ = _tables()
    e = np.log10(x)
    np.floor(e, out=e)
    e = e.astype(np.intp) + _E0
    s = scale[e]
    s *= x
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


def _json_number(x: float) -> str:
    """A JSON float as its sci9 cell; NaN and +-Infinity as json.dumps spells them."""
    return sci9(x) if math.isfinite(x) else json.dumps(x)


def _write_cells(stream, columns, seps, number, end) -> None:
    """Write equal-length 1-D float columns row by row, CHUNK rows at a time.

    Each cell is followed by its column's separator, of seps (all of one
    length), and the last cell by end instead; empty columns write nothing.
    A chunk the digit kernel takes is spelled by it, any other by number,
    one call per value.
    """
    rows = len(columns[0])
    for start in range(0, rows, CHUNK):
        block = np.column_stack([col[start : start + CHUNK] for col in columns])
        cells = _sci9_cells(block.ravel(), len(seps[0]))
        if cells is None:
            text = "".join(number(x) + sep for row in block.tolist() for x, sep in zip(row, seps))
        else:
            cells.reshape(block.shape)["sep"] = np.array(seps, "S")
            text = str(cells.view(np.uint8).data, "ascii")
        if start + CHUNK >= rows:
            text = text[: -len(seps[-1])] + end
        stream.write(text)


def write_csv(stream, header, rows) -> None:
    """Write a CSV with '\\n' endings.

    rows is a list of rows, whose string cells are written as given, whose
    number cells as sci9 cells and whose array cells as the sci9 cells of
    their values joined by ';', or a sequence of equal-length 1-D float
    arrays, one per header column, written as sci9 cells.
    """
    stream.write(",".join(header) + "\n")
    if rows and isinstance(rows[0], np.ndarray):
        _write_cells(stream, rows, [","] * (len(rows) - 1) + ["\n"], sci9, "\n")
        return
    for row in rows:
        cells = (c if isinstance(c, str) else ";".join(map(sci9, np.ravel(c))) for c in row)
        stream.write(",".join(cells) + "\n")


def write_json(stream, payload) -> None:
    """Write json.dumps(payload, indent=2) plus '\\n', with floats as sci9 cells.

    Every finite float in the (string-keyed) dicts, lists and tuples of the
    payload is written as sci9(x), and every 1-D ndarray as the list of its
    values spelled so, one chunk at a time.
    """
    _write_json_value(stream, payload, "")
    stream.write("\n")


def _write_json_value(stream, value, pad: str) -> None:
    if isinstance(value, np.ndarray):
        _write_json_array(stream, value, pad)
    elif isinstance(value, float):
        stream.write(_json_number(value))
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


def _write_json_array(stream, values, pad: str) -> None:
    if len(values) == 0:
        stream.write("[]")
        return
    inner = pad + "  "
    stream.write("[\n" + inner)
    _write_cells(stream, [values], [",\n" + inner], _json_number, f"\n{pad}]")
