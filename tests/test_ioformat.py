"""Chunked writers: the bytes must not depend on where the chunks split.

The references here format one cell at a time, the way the writers did
before they worked in chunks: f"{x:.8e}" per CSV cell, and
json.dumps(indent=2) of the payload with every finite float spelled as that
cell for JSON.  The digit kernel (ioformat._sci9_cells) is held to
"%.8e" % x byte for byte on ~2e6 adversarial values through the chunk
writer both formats share (ioformat._write_cells), with a number speller
that refuses every value, so no cell can come from the per-value path.
The bundled sweep and powercurve must take the kernel, and the property
tests, like the golden cases in test_golden.py, also run with a CHUNK of 7.
Whole outputs are compared with assert_same_text, which names the first
differing line.
"""

import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_text
from paramagloss import cli, ioformat
from paramagloss.constants import ghz_to_angular
from paramagloss.ensemble import load_species_db, species_loss, sweep
from paramagloss.ioformat import default_db_path, write_csv, write_json
from paramagloss.lineshape import tanh_factor, temperature_factor

CHUNK = ioformat.CHUNK
SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)
JSON_SEP = ",\n    "  # between the values of an array held by a top-level key

# Values at the edges of the digit kernel's class and of the float range.
SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 15.0, 1e9, 999999999.7, 1e15, 9.999999999e15, 1e16,
    1e-4, 9.9999999996e-5, 1e-5, 1e-307, 3e-308, 2.2250738585072014e-308,
    1e-310, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"),
    float("-inf"), 0.1, 1.23456789e-8, -2.5e-12,
]


def _csv_reference(header, columns):
    lines = [",".join(header)]
    lines += [",".join(f"{x:.8e}" for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def _json_reference(payload):
    """json.dumps(payload, indent=2) with every float spelled f"{x:.8e}", or
    json.dumps(x) if it is not finite: each goes in as a string marked by a
    leading U+0001, and its quotes come off after encoding."""

    def marked(value):
        if isinstance(value, np.ndarray):
            return [marked(x) for x in value.tolist()]
        if isinstance(value, float):
            return "\x01" + (f"{value:.8e}" if math.isfinite(value) else json.dumps(value))
        if isinstance(value, dict):
            return {key: marked(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [marked(item) for item in value]
        return value

    return re.sub(r'"\\u0001([^"]*)"', r"\1", json.dumps(marked(payload), indent=2)) + "\n"


def _written(writer, *args):
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue()


@pytest.mark.parametrize("chunk", [1, 2, 7, CHUNK])
def test_writers_match_per_cell_reference(chunk, monkeypatch):
    monkeypatch.setattr(ioformat, "CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    columns = [
        np.array(SPECIAL_FLOATS),
        rng.standard_normal(len(SPECIAL_FLOATS)) * 1e-9,
        np.linspace(1.0, 15.0, len(SPECIAL_FLOATS)),
    ]
    header = ["a", "b", "c"]
    assert_same_text(_written(write_csv, header, columns), _csv_reference(header, columns))
    payload = {
        "command": "x",
        "a": columns[0],
        "nested": {"b": columns[1], "empty": {}, "none": None, "list": [1, 2.5]},
        "c": columns[2],
        "no_points": np.array([]),
        # Eight levels deep: a separator wider than a 32-byte JSON cell holds.
        "deep": {"a": {"b": {"c": {"d": {"e": {"f": {"g": columns[2]}}}}}}},
        "metadata": {"note": "line\nbreak", "values": [0.1, None]},
    }
    assert_same_text(_written(write_json, payload), _json_reference(payload))


def test_json_quantizes_every_float():
    payload = {
        "scalars": {"long": 0.1234567891234, "third": 1 / 3, "neg_zero": -0.0, "nan": float("nan")},
        "list": [0.1234567891234, [1 / 3, 2.0]],
        "tuple": (1 / 3, 0.5),
        "lines": [{"label": "Gd", "m_sq": 0.010812804495458454}, {"label": "Sm", "m_sq": 1 / 3}],
        "kept": [3, True, None, [], {}, "1/3"],
    }
    text = _written(write_json, payload)
    assert_same_text(text, _json_reference(payload))
    assert '"long": 1.23456789e-01,' in text
    assert '"third": 3.33333333e-01,' in text
    assert '"neg_zero": -0.00000000e+00,' in text
    assert '"nan": NaN\n' in text
    assert '"m_sq": 1.08128045e-02\n' in text
    assert '"tuple": [\n    3.33333333e-01,\n    5.00000000e-01\n  ],' in text
    assert _written(write_json, payload["kept"]) == json.dumps(payload["kept"], indent=2) + "\n"
    assert _written(write_json, 1 / 3) == "3.33333333e-01\n"
    assert _written(write_json, -math.inf) == "-Infinity\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_json_array_matches_json_dumps(values):
    payload = {"values": np.array(values, dtype=np.float64)}
    assert_same_text(_written(write_json, payload), _json_reference(payload))


def test_string_rows_written_as_given():
    rows = [["k", "none"], ["x.weights", "1.0;2.0"]]
    assert _written(write_csv, ["key", "value"], rows) == "key,value\nk,none\nx.weights,1.0;2.0\n"
    assert _written(write_csv, ["key"], []) == "key\n"


def test_number_cells_spelled_as_sci9():
    # An array cell is the sci9 cells of its values joined by ';'.
    rows = [["t", 1 / 3], ("n", 3), ["x", 0.5, -2, "s"], ["w", np.array([0.5, 1 / 3]), "s"]]
    assert _written(write_csv, ["key", "value"], rows) == (
        "key,value\nt,3.33333333e-01\nn,3.00000000e+00\nx,5.00000000e-01,-2.00000000e+00,s\n"
        "w,5.00000000e-01;3.33333333e-01,s\n"
    )


def _sweep_columns(points):
    spectrum = sweep(load_species_db(default_db_path()), 1.0, 15.0, points)
    header = ["freq_ghz", *spectrum.per_species, "total"]
    columns = [spectrum.freqs_ghz, *spectrum.per_species.values(), spectrum.total]
    return header, columns


def _tempcurve_columns(points):
    temps = np.linspace(0.01, 10.0, points)
    omega = ghz_to_angular(11.45)
    columns = [temps, temperature_factor(omega, temps), tanh_factor(omega, temps)]
    return ["temp_k", "w_factor", "tanh_factor"], columns


def _powercurve_columns(points):
    sp = next(s for s in load_species_db(default_db_path()) if s.name == "V")
    ratios = np.linspace(0.0, 100.0, points)
    columns = [
        ratios,
        species_loss(sp, float(sp.lines.centers[0]), power=ratios),
        species_loss(sp, ghz_to_angular(9.0), power=ratios),
    ]
    return ["p_over_pc", "loss_on_resonance", "loss_detuned"], columns


COMMANDS = {
    "sweep": (["sweep"], _sweep_columns),
    "tempcurve": (["tempcurve", "--freq-ghz", "11.45"], _tempcurve_columns),
    "powercurve": (["powercurve", "--freq-ghz", "9", "--species", "V"], _powercurve_columns),
}


@pytest.mark.parametrize("points", SIZES)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_chunk_boundaries_match_reference(command, points, tmp_path, monkeypatch):
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    argv, reference = COMMANDS[command]
    header, columns = reference(points)
    argv = argv + ["--points", str(points), "--output"]

    csv_path = tmp_path / "out.csv"
    assert cli.main(argv + [str(csv_path)]) == 0
    assert_same_text(csv_path.read_text(), _csv_reference(header, columns))

    json_path = tmp_path / "out.json"
    assert cli.main(argv + [str(json_path), "--format", "json"]) == 0
    text = json_path.read_text()
    payload = json.loads(text)
    # A read-back 9-digit value spells its own cell again.
    assert_same_text(text, _json_reference(payload))
    if command == "sweep":  # the JSON nests the species and names the grid freqs_ghz
        payload.update(payload.pop("species"), freq_ghz=payload.pop("freqs_ghz"))
    for name, column in zip(header, columns):
        cells = [float(f"{x:.8e}") for x in column]
        np.testing.assert_array_equal(payload[name], cells, err_msg=name)


# --- the CSV digit kernel ---------------------------------------------------

# Largest distance between the kernel's scaled significand and the exact
# one: two roundings of a value below 1e9.
SCALE_ERROR = 2.3e-7


class _PerValue(Exception):
    """A chunk left the digit kernel for the per-value path."""


def _refuse(x):
    raise _PerValue(x)


def _kernel_text(columns, seps, end="\n"):
    """_write_cells's text of columns, or None if a chunk takes the per-value path."""
    try:
        return _written(ioformat._write_cells, columns, seps, _refuse, end)
    except _PerValue:
        return None


def _assert_kernel_exact(values, cols=4):
    """The kernel spells every value as "%.8e" % x, without falling back."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.ones(-len(values) % cols)])
    row = ",".join(["%.8e"] * cols) + "\n"
    step = 16_384 * cols
    for start in range(0, len(values), step):
        part = values[start : start + step]
        text = _kernel_text(list(part.reshape(-1, cols).T), [","] * (cols - 1) + ["\n"])
        assert text is not None, "a fast-class chunk took the per-value path"
        expected = (row * (len(part) // cols)) % tuple(part.tolist())
        if text != expected:
            got = text.replace("\n", ",").split(",")
            want = expected.replace("\n", ",").split(",")
            bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail(f"{part[bad]!r}: kernel {got[bad]!r}, '%.8e' {want[bad]!r}")


def _fast_range(values):
    """The values the kernel takes: [1e-99, 1e100) and below a 1e+100 carry."""
    return values[(values >= 1e-99) & (values < 9.9e99)]


def _decimal_ties(digits, exponents):
    """The doubles nearest to (D + 0.5) * 10**k, exact for 0 <= k <= 9."""
    return np.array([float(f"{d}5e{k - 1}") for d, k in zip(digits.tolist(), exponents.tolist())])


def _neighbours(values, ulps):
    """values and their neighbours up to ulps steps away on either side."""
    out = [values]
    for direction in (-np.inf, np.inf):
        step = values
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def test_four_digit_table_spells_0000_to_9999():
    _, _, quad, _ = ioformat._tables()
    assert quad.view("S4").tolist() == [f"{n:04d}".encode() for n in range(10_000)]


def test_kernel_matches_printf_on_random_values():
    rng = np.random.default_rng(20260)
    # Random bit patterns over every binary exponent of the fast range.
    mantissa = rng.integers(0, 2**52, 1_200_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 330, 1023 + 333, len(mantissa)).astype(np.uint64)
    values = _fast_range((exponent << np.uint64(52) | mantissa).view(np.float64))
    assert len(values) > 1_100_000
    _assert_kernel_exact(values)


def test_kernel_matches_printf_at_ties():
    rng = np.random.default_rng(20261)
    digits = rng.integers(10**8, 10**9, 200_000)
    binary = np.ldexp(digits + 0.5, rng.integers(-355, 300, len(digits)))
    decimal = _decimal_ties(digits, rng.integers(-99 - 8, 99 - 8, len(digits)))
    exact = _decimal_ties(digits[:20_000], rng.integers(0, 10, 20_000))
    values = np.concatenate([binary, _neighbours(decimal, 1), exact])
    _assert_kernel_exact(_fast_range(values))


def test_kernel_matches_printf_at_powers_of_ten_and_carries():
    powers = np.array([float(f"1e{k}") for k in range(-99, 100)])
    carries = np.array([float(f"{m}e{k}") for k in range(-99, 99) for m in ("9.999999995", "9.9999999949999999")])
    values = np.concatenate([_neighbours(powers, 8), _neighbours(carries, 8)])
    _assert_kernel_exact(_fast_range(values))
    columns = [np.array([1e-99]), np.array([9.9999999949e99])]
    assert _kernel_text(columns, [",", "\n"]) == "1.00000000e-99,9.99999999e+99\n"


@pytest.mark.parametrize(
    "value", SPECIAL_FLOATS + [9.9999999995e99, np.nextafter(1e100, 0), 1e100, np.nextafter(1e-99, 0)]
)
def test_kernel_fast_class(value):
    """Finite +0.0 or positive cells with |exponent| <= 99 stay in the kernel."""
    block = np.array([[value, 1.5]])
    fast = len("%.8e" % value) == 14 and not 0 < value < 1e-99  # d.dddddddde+XX
    text = _kernel_text(list(block.T), [",", "\n"])
    json_text = _kernel_text([block.ravel()], [JSON_SEP], end="")
    if fast:
        assert text == "%.8e,1.50000000e+00\n" % value
        assert json_text == "%.8e" % value + JSON_SEP + "1.50000000e+00"
    else:
        assert text is None and json_text is None
    columns = list(block.T)
    assert_same_text(_written(write_csv, ["a", "b"], columns), _csv_reference(["a", "b"], columns))
    payload = {"a": block.ravel()}
    assert_same_text(_written(write_json, payload), _json_reference(payload))


def test_kernel_redoes_every_cell_near_a_tie():
    """A cell is spelled by the kernel only when it is farther from a
    rounding tie than the error of its scaled significand."""
    rng = np.random.default_rng(20262)
    digits = rng.integers(10**8, 10**9, 3000).tolist()
    shifts = rng.integers(-30, 31, 3000).tolist()  # tenths of a millionth off the tie
    powers = rng.integers(-99 - 8, 99 - 8, 3000).tolist()
    exact = [Fraction(2 * d + 1, 2) + Fraction(m, 10**7) for d, m in zip(digits, shifts)]
    values = np.array([float(t * Fraction(10) ** k) for t, k in zip(exact, powers)])
    _, _, near = ioformat._significands(values)
    near = set(near.tolist())
    for i, x in enumerate(values.tolist()):
        scaled = Fraction(x) * Fraction(10) ** (-powers[i])  # within 1e8..1e9
        distance = abs(scaled - int(scaled) - Fraction(1, 2))
        if i not in near:
            assert distance > ioformat.TIE_BAND - SCALE_ERROR > SCALE_ERROR, x
        elif distance > ioformat.TIE_BAND + SCALE_ERROR:
            pytest.fail(f"{x!r} is {float(distance):.3g} from a tie but was redone")
    assert 0 < len(near) < len(values)
    ties = _decimal_ties(np.array(digits), np.arange(3000) % 10)
    assert len(ioformat._significands(ties)[2]) == len(ties)


def _recorded(monkeypatch, name):
    """Replace ioformat.<name> by a wrapper; returns the list of its results."""
    results = []
    kernel = getattr(ioformat, name)

    def recording(*args):
        results.append(kernel(*args))
        return results[-1]

    monkeypatch.setattr(ioformat, name, recording)
    return results


def _assert_kernel_takes_every_chunk(monkeypatch, header, columns):
    json_chunks = _recorded(monkeypatch, "_sci9_cells")
    assert_same_text(_written(write_csv, header, columns), _csv_reference(header, columns))
    csv_chunks = json_chunks[:]
    json_chunks.clear()
    payload = dict(zip(header, columns))
    assert_same_text(_written(write_json, payload), _json_reference(payload))
    for results in (csv_chunks, json_chunks):
        assert results and all(cells is not None for cells in results)


def test_bulk_sweep_takes_the_digit_kernel(monkeypatch):
    _assert_kernel_takes_every_chunk(monkeypatch, *_sweep_columns(100_000))


def test_powercurve_from_zero_takes_the_digit_kernel(monkeypatch):
    header, columns = _powercurve_columns(2000)
    assert columns[0][0] == 0.0 and not np.signbit(columns[0][0])
    _assert_kernel_takes_every_chunk(monkeypatch, header, columns)
    assert _written(write_csv, header, [c[:1] for c in columns]).split("\n")[1].startswith(
        "0.00000000e+00,"
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e100, exclude_max=True), min_size=1, max_size=30),
    st.lists(st.floats(), max_size=3),
)
def test_csv_column_matches_per_cell_reference(fast, mixed):
    """Chunks of fast-class cells go through the kernel, the rest value by value."""
    columns = [np.array(fast + mixed, dtype=np.float64)]
    columns.append(columns[0][::-1].copy())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ioformat, "CHUNK", 7)
        written = _written(write_csv, ["a", "b"], columns)
        assert_same_text(written, _csv_reference(["a", "b"], columns))


# --- JSON arrays through the digit kernel ----------------------------------


def _assert_json_array_exact(values):
    """write_json spells the array as the reference does, kernel or not."""
    payload = {"values": np.asarray(values, dtype=np.float64)}
    assert_same_text(_written(write_json, payload), _json_reference(payload))


def test_json_chunks_mix_kernel_and_exact_path(monkeypatch):
    """A chunk holding one value outside the class takes the exact path; the
    chunks around it stay in the kernel, and the bytes match either way."""
    monkeypatch.setattr(ioformat, "CHUNK", 7)
    chunks = _recorded(monkeypatch, "_sci9_cells")
    rng = np.random.default_rng(20273)
    for odd in (-1.5, -0.0, float("nan"), float("inf"), 1e-300, 5e-324, 1e100, 9.9999999995e99):
        values = 10.0 ** rng.uniform(-6, 17, 21)
        values[10] = odd
        chunks.clear()
        _assert_json_array_exact(values)
        assert [cells is None for cells in chunks] == [False, True, False], odd


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-5, max_value=1e17), min_size=8, max_size=40),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
)
def test_json_array_across_chunks_matches_json_dumps(fixed, finite):
    """Lists longer than a chunk of 7, of kernel-class values and of any finite ones."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ioformat, "CHUNK", 7)
        _assert_json_array_exact(fixed + finite)
        _assert_json_array_exact(finite + fixed)
