"""Deterministic text formatting: the one place numbers are spelled.

write_csv spells every number as sci9, lowercase scientific with 9
significant digits, and write_json every float as json.dumps(quantize(x)),
the value of that CSV cell, so the two formats round-trip exactly.  Files
use '\\n' line endings, so identical runs produce byte-identical output.
read_json_array is the one read of every JSON input file, number_field
and finite_float its one numeric read, and plain_name the one check of the
names and labels the writers spell.

Grid columns (CSV) and arrays (JSON) are written CHUNK rows or values at a
time, and no writer holds more than one chunk of text.  Both writers spell
a chunk with one numpy digit kernel when every value in it is finite and
positive or +0.0 with a decimal exponent inside [-99, 99]; any other chunk
takes the one exact path of its format: one '%' operation over "%.8e"
cells (CSV), or "%.8e" cells parsed by float and encoded by json.dumps
(JSON).

The kernel (_sci9_cells) finds each value's decimal exponent e with
floor(log10(x)), scales x to s = x * 10**(8 - e) by one product with a
correctly rounded power of ten and rounds s to the 9-digit significand.
The scale costs at most two roundings, so s is within 2.3e-7 of the exact
product; a value whose s lies within 1e-6 of a rounding tie (x.5) takes
its digits from "%.8e" % x instead.  It then builds each sci9 cell from
digit tables: sci9_block writes those cells as they are, the bytes of
"%.8e" % x.  _json_block gathers the cells of a chunk that holds a value
of exponent -4 to 15 into repr's fixed notation, through one row of byte
positions per exponent ("d.ddde-XX" cells keep their bytes in place), and
keeps only the bytes a mask chosen by exponent and count of significant
digits marks.  Quantized to 9 digits, a normal double's shortest repr is
its significand without trailing zeros, so the bytes are those of
json.dumps(quantize(x)).
"""

import functools
import json
import math

import numpy as np

from .errors import DatabaseError

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


def read_json_array(path, what: str) -> list:
    """The JSON array in the file at path; errors name the file as what (and path)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DatabaseError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax or encoding, or an int over 4300 digits
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
# digits from "%.8e": well above the 2.3e-7 error bound of the scaled
# significand.
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
    """Scale factors and digit tables of _sci9_cells, built on first use.

    x * scale[e + _E0] is x * 10**(8 - e) through one product with the
    correctly rounded float(f"1e{8 - e}").
    """
    scale = np.array([float(f"1e{j}") for j in range(8 + _E0, 8 - _E0 - 1, -1)])
    lead = _ascii(np.column_stack([np.arange(10) + ord("0"), np.full(10, ord("."))]))
    quad = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    e = np.arange(-99, 100)
    exp = np.column_stack([
        np.full(len(e), ord("e")),
        np.where(e < 0, ord("-"), ord("+")),
        abs(e) // 10 + ord("0"),
        abs(e) % 10 + ord("0"),
    ])
    return scale, lead, _ascii(quad + ord("0")), _ascii(exp)


def sci9_block(block):
    """The CSV rows of a 2-D float64 array as sci9 cells, or None.

    Returns None, leaving the block to "%.8e", unless every cell is in the
    kernel's class (see _sci9_cells).
    """
    found = _sci9_cells(block.ravel(), _CELL)
    if found is None:
        return None
    cells = found[0].reshape(block.shape)
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")
    return str(cells.view(np.uint8).data, "ascii")


def _sci9_cells(x, dtype):
    """The sci9 cells of a 1-D float64 array, or None.

    Returns None unless every value is finite and positive or +0.0 with a
    decimal exponent in [-99, 99].  Otherwise returns the records of dtype
    (_CELL, or _CELL with a wider "sep") with their "sep" bytes unset, each
    cell's exponent row e + 99, and the last eight digits of its significand
    as two 4-digit groups.
    """
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
    _, lead, quad, exp = _tables()
    cells = np.empty(len(x), dtype)
    first = digits // 100_000_000
    # Every index is in range by now; "clip" only skips take's bounds copy.
    lead.take(first, out=cells["lead"], mode="clip")
    digits -= first * 100_000_000
    hi = digits // 10_000
    quad.take(hi, out=cells["hi"], mode="clip")
    digits -= hi * 10_000
    quad.take(digits, out=cells["lo"], mode="clip")
    exp.take(e, out=cells["exp"], mode="clip")
    return cells, e, hi, digits


def _significands(x):
    """9-digit significands and decimal exponents of x, and the cells to redo.

    x holds normal values in [1e-99, 1e100).  Returns the int32 significands
    and int exponents of "%.8e" % x, and the indices of the cells whose
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


# A JSON cell holds a sci9 cell, "d.dddddddde+XX", then '0' (byte _ZERO),
# then from byte _FIXED on the array separator.  Where repr writes fixed
# notation (decimal exponents -4 to 15, at most _FIXED bytes, as in
# "1000000000000000.0") the cell is gathered through one row of byte
# positions per exponent; "d.ddde-XX" keeps its bytes in place.  A keep mask
# per exponent and count of significant digits then drops the bytes repr
# does not write.
_ZERO = 14
_FIXED = 18


@functools.cache
def _json_digits():
    """The separator-free tables of _json_block, built on first use.

    Row e + 99 of layout holds, for each of the first _FIXED bytes of a
    spelled cell of decimal exponent e, its position in the cell.  Row
    9 * (e + 99) + k of keep marks those of the bytes kept when the
    significand has k + 1 significant digits.  figures maps a 4-digit group
    to its significant digits, 0 for 0000.
    """
    # A group's significant digits end at its last non-zero digit: the
    # largest place k + 1 (k = 0..3 from the left) whose digit is not 0.
    places = [(np.arange(10) > 0).reshape((10,) + (1,) * (3 - k)) * (k + 1) for k in range(4)]
    figures = functools.reduce(np.maximum, places).ravel()
    e = np.arange(-99, 100)[:, None]
    p = np.arange(_FIXED)

    def digit(j):  # the cell byte of significand digit j; a padding zero past the ninth
        return np.where((0 <= j) & (j <= 8), j + (j > 0), _ZERO)

    layout = np.where(
        e < 0,
        np.where(p == 1, 1, digit(p - 1 + e)),  # "0.000ddd"
        np.where(p == e + 1, 1, digit(p - (p > e))),  # "ddd.ddd", "ddd00.0"
    )
    fixed = (-4 <= e) & (e <= 15)
    layout = np.where(fixed, layout, p)
    e, fixed = e[:, None], fixed[:, None]
    nd = np.arange(1, 10)[:, None]
    # Fixed notation keeps a prefix: the integer part and at least one
    # fractional digit.  "d.ddde-XX" keeps d, the dot and the digits after
    # it only when there are any, and the exponent.
    keep = np.where(
        fixed,
        p < np.where(e < 0, 1 - e + nd, e + 2 + np.maximum(nd - e - 1, 1)),
        (p < nd + (nd > 1)) | ((10 <= p) & (p < 14)),
    )
    return layout.astype(np.uint8), keep.reshape(-1, _FIXED), figures


@functools.cache
def _json_tables(sep: str):
    """The cell dtype for sep, the bytes that follow its sci9 part, and the
    tables of _json_digits widened to the cell, where sep's bytes stay in
    place and are kept.  A cell is at least 32 bytes wide: take copies
    32-byte rows fastest.
    """
    layout, keep, figures = _json_digits()
    width = max(32, _FIXED + len(sep))
    p = np.arange(_FIXED, width)
    layout = np.hstack([layout, np.broadcast_to(p.astype(np.uint8), (len(layout), len(p)))])
    keep = np.hstack([keep, np.broadcast_to(p < _FIXED + len(sep), (len(keep), len(p)))])
    cell = np.dtype(_CELL.descr[:-1] + [("sep", f"S{width - _ZERO}")])
    tail = b"0".ljust(_FIXED - _ZERO, b" ") + sep.encode("ascii")
    return cell, tail, layout, keep, figures


def _json_block(values, sep: str):
    """json.dumps(quantize(x)) of each value of a 1-D float64 array, joined
    by sep, or None unless every value is in the kernel's class."""
    cell, tail, layout, keep, figures = _json_tables(sep)
    found = _sci9_cells(values, cell)
    if found is None:
        return None
    cells, e, hi, lo = found
    cells["sep"] = tail
    text = cells.view(np.uint8).reshape(len(cells), cell.itemsize)
    if ((-4 + 99 <= e) & (e <= 15 + 99)).any():  # e holds exponent rows: fixed notation
        starts = np.arange(0, text.size, cell.itemsize)
        text = text.ravel().take(layout.take(e, axis=0) + starts[:, None], mode="clip")
    rows = np.where(lo > 0, figures.take(lo) + 4, figures.take(hi))  # digits after the first
    rows += 9 * e
    return str(text[keep.take(rows, axis=0)].data, "ascii")[: -len(sep)]


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


def _write_json_array(stream, values, pad: str) -> None:
    if len(values) == 0:
        stream.write("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    stream.write("[\n" + inner)
    for start in range(0, len(values), CHUNK):
        block = values[start : start + CHUNK]
        text = _json_block(block, sep)
        if text is None:
            cells = (("%.8e " * len(block)) % tuple(block.tolist())).split()
            # The compact encoder spells each float, NaN and Infinity as json.dumps does.
            text = json.dumps(list(map(float, cells)), separators=(sep, ": "))[1:-1]
        stream.write((sep if start else "") + text)
    stream.write(f"\n{pad}]")
