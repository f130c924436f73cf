"""Chunked writers: the bytes must not depend on where the chunks split.

The references here format one cell at a time, the way the writers did
before they worked in chunks: f"{x:.8e}" per CSV cell, and
json.dumps(indent=2) of the payload with every float quantized for JSON.
The digit kernel is held to "%.8e" % x byte for byte on ~2e6 adversarial
values as CSV (ioformat.sci9_block), and to json.dumps(quantize(x)) on
~1e6 as JSON (ioformat._json_block).
"""

import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramagloss import cli, ioformat
from paramagloss.constants import ghz_to_angular
from paramagloss.ensemble import default_db_path, load_species_db, species_loss, sweep
from paramagloss.ioformat import quantize, write_csv, write_json
from paramagloss.lineshape import tanh_factor, temperature_factor

CHUNK = ioformat.CHUNK
SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)
JSON_SEP = ",\n    "  # between the values of an array held by a top-level key

# Values at the edges of the digit kernel's class and of repr's notations.
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
    def plain(value):
        if isinstance(value, np.ndarray):
            return [quantize(x) for x in value]
        if isinstance(value, float):
            return quantize(value)
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return value

    return json.dumps(plain(payload), indent=2) + "\n"


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
    assert _written(write_csv, header, columns) == _csv_reference(header, columns)
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
    assert _written(write_json, payload) == _json_reference(payload)


def test_json_quantizes_every_float():
    payload = {
        "scalars": {"long": 0.1234567891234, "third": 1 / 3, "neg_zero": -0.0, "nan": float("nan")},
        "list": [0.1234567891234, [1 / 3, 2.0]],
        "tuple": (1 / 3, 0.5),
        "lines": [{"label": "Gd", "m_sq": 0.010812804495458454}, {"label": "Sm", "m_sq": 1 / 3}],
        "kept": [3, True, None, [], {}, "1/3"],
    }
    text = _written(write_json, payload)
    assert text == _json_reference(payload)
    assert '"long": 0.123456789,' in text
    assert '"third": 0.333333333,' in text
    assert '"neg_zero": -0.0,' in text
    assert '"nan": NaN\n' in text
    assert '"m_sq": 0.0108128045\n' in text
    assert _written(write_json, payload["kept"]) == json.dumps(payload["kept"], indent=2) + "\n"
    assert _written(write_json, 1 / 3) == "0.333333333\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_json_array_matches_json_dumps(values):
    payload = {"values": np.array(values, dtype=np.float64)}
    assert _written(write_json, payload) == _json_reference(payload)


def test_string_rows_written_as_given():
    rows = [["k", "none"], ["x.weights", "1.0;2.0"]]
    assert _written(write_csv, ["key", "value"], rows) == "key,value\nk,none\nx.weights,1.0;2.0\n"
    assert _written(write_csv, ["key"], []) == "key\n"


def test_number_cells_spelled_as_sci9():
    rows = [["t", 1 / 3], ("n", 3), ["x", 0.5, -2, "s"]]
    assert _written(write_csv, ["key", "value"], rows) == (
        "key,value\nt,3.33333333e-01\nn,3.00000000e+00\nx,5.00000000e-01,-2.00000000e+00,s\n"
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
    assert csv_path.read_text() == _csv_reference(header, columns)

    json_path = tmp_path / "out.json"
    assert cli.main(argv + [str(json_path), "--format", "json"]) == 0
    text = json_path.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    if command == "sweep":  # the JSON nests the species and names the grid freqs_ghz
        payload.update(payload.pop("species"), freq_ghz=payload.pop("freqs_ghz"))
    for name, column in zip(header, columns):
        assert payload[name] == [quantize(x) for x in column]


# --- the CSV digit kernel ---------------------------------------------------

# Largest distance between the kernel's scaled significand and the exact
# one: two roundings of a value below 1e9.
SCALE_ERROR = 2.3e-7


def _assert_kernel_exact(values, cols=4):
    """sci9_block spells every value as "%.8e" % x, without falling back."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.ones(-len(values) % cols)])
    row = ",".join(["%.8e"] * cols) + "\n"
    step = 16_384 * cols
    for start in range(0, len(values), step):
        part = values[start : start + step]
        text = ioformat.sci9_block(part.reshape(-1, cols))
        assert text is not None, "a fast-class block fell back to '%'"
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
    assert ioformat.sci9_block(np.array([[1e-99, 9.9999999949e99]])) == "1.00000000e-99,9.99999999e+99\n"


@pytest.mark.parametrize(
    "value", SPECIAL_FLOATS + [9.9999999995e99, np.nextafter(1e100, 0), 1e100, np.nextafter(1e-99, 0)]
)
def test_kernel_fast_class(value):
    """Finite +0.0 or positive cells with |exponent| <= 99 stay in the kernel."""
    block = np.array([[value, 1.5]])
    fast = len("%.8e" % value) == 14 and not 0 < value < 1e-99  # d.dddddddde+XX
    text = ioformat.sci9_block(block)
    json_text = ioformat._json_block(block.ravel(), JSON_SEP)
    if fast:
        assert text == "%.8e,1.50000000e+00\n" % value
        assert json_text == json.dumps(quantize(value)) + JSON_SEP + "1.5"
    else:
        assert text is None and json_text is None
    assert _written(write_csv, ["a", "b"], list(block.T)) == _csv_reference(["a", "b"], list(block.T))
    payload = {"a": block.ravel()}
    assert _written(write_json, payload) == _json_reference(payload)


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
    csv_chunks = _recorded(monkeypatch, "sci9_block")
    json_chunks = _recorded(monkeypatch, "_json_block")
    assert _written(write_csv, header, columns).count("\n") == len(columns[0]) + 1
    payload = dict(zip(header, columns))
    assert json.loads(_written(write_json, payload)) == {
        name: [quantize(x) for x in column] for name, column in payload.items()
    }
    for results in (csv_chunks, json_chunks):
        assert results and all(text is not None for text in results)


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
    """Chunks of fast-class cells go through the kernel, the rest to '%'."""
    columns = [np.array(fast + mixed, dtype=np.float64)]
    columns.append(columns[0][::-1].copy())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ioformat, "CHUNK", 7)
        assert _written(write_csv, ["a", "b"], columns) == _csv_reference(["a", "b"], columns)


# --- the JSON spelling of the digit kernel ----------------------------------


def _assert_json_kernel_exact(values):
    """_json_block spells every value as json.dumps(quantize(x)), without falling back."""
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), 16_384):
        part = values[start : start + 16_384]
        text = ioformat._json_block(part, JSON_SEP)
        assert text is not None, "a kernel-class chunk fell back to the exact path"
        got = text.split(JSON_SEP)
        want = [json.dumps(quantize(x)) for x in part.tolist()]
        assert len(got) == len(want)
        if got != want:
            bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail(f"{part[bad]!r}: kernel {got[bad]!r}, reference {want[bad]!r}")


def _assert_json_array_exact(values):
    """write_json spells the array as the reference does, kernel or not."""
    payload = {"values": np.asarray(values, dtype=np.float64)}
    assert _written(write_json, payload) == _json_reference(payload)


def test_json_kernel_matches_repr_on_random_values():
    rng = np.random.default_rng(20270)
    mantissa = rng.integers(0, 2**52, 300_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 330, 1023 + 333, len(mantissa)).astype(np.uint64)
    bit_patterns = _fast_range((exponent << np.uint64(52) | mantissa).view(np.float64))
    fixed = 10.0 ** rng.uniform(-5, 17, 300_000)  # repr's fixed notation and its edges
    _assert_json_kernel_exact(np.concatenate([bit_patterns, fixed]))


def test_json_kernel_matches_repr_at_powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-99, 100)])
    around = _neighbours(powers, 2)
    _assert_json_kernel_exact(_fast_range(around))
    _assert_json_array_exact(around)  # nextafter(1e-99, 0) takes the exact path
    spelled = ioformat._json_block(powers[94:103], ", ")
    assert spelled == "1e-05, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0"


def test_json_kernel_matches_repr_near_ties():
    """Values up to 1e-6 off a 9-digit rounding tie, the band whose digits
    come from "%.8e", and the nearest doubles to decimal ties, with their
    neighbours."""
    rng = np.random.default_rng(20271)
    digits = rng.integers(10**8, 10**9, 4000).tolist()
    shifts = rng.integers(-10, 11, 4000).tolist()  # tenths of a millionth off the tie
    # Half in repr's fixed notation (exponents -4..15), half anywhere.
    powers = np.where(np.arange(4000) % 2, rng.integers(-12, 8, 4000), rng.integers(-107, 91, 4000))
    values = [
        float((Fraction(2 * d + 1, 2) + Fraction(m, 10**7)) * Fraction(10) ** k)
        for d, m, k in zip(digits, shifts, powers.tolist())
    ]
    many = rng.integers(10**8, 10**9, 100_000)
    fixed_or_any = rng.integers(-12, 8, len(many)), rng.integers(-107, 91, len(many))
    exponents = np.where(many % 2, *fixed_or_any)
    ties = _decimal_ties(many, exponents)
    _assert_json_kernel_exact(np.concatenate([values, _fast_range(_neighbours(ties, 1))]))


def test_json_kernel_carries_notation_edges_and_integral_values():
    values = [
        # The 1e9 carry: each rounds up to the next power of ten.
        999999999.5, 9.9999999995e-5, 9.9999999995e-6, 9.9999999995e15, 99999999.95,
        # The -5/-4 and 15/16 notation edges.
        1e-5, 1.5e-5, 9.99999999e-6, 1e-4, 1.23456789e-4, 9.99999999e-5,
        1e15, 1.23456789e15, 9.99999999e15, 1e16, 1.5e16, 9.99999999e16,
        # Integral values, which repr ends in ".0".
        0.0, 1.0, 3.0, 10.0, 120.0, 123456789.0, 1e15, 2.0**40, 2.0**53,
        # Padding zeros at exponents 9-15.
        75007999100.0, 1.2e9, 1.23456789e10, 9.87654321e14, 1.00000001e15,
    ]
    values = np.array(values)
    _assert_json_kernel_exact(np.concatenate([[0.0], _neighbours(values[values > 0], 3)]))
    spelled = ioformat._json_block(values, ",").split(",")
    assert spelled[:3] == ["1000000000.0", "0.0001", "1e-05"]
    assert spelled[17:21] == ["0.0", "1.0", "3.0", "10.0"]
    assert spelled[-5:] == [
        "75007999100.0", "1200000000.0", "12345678900.0", "987654321000000.0", "1000000010000000.0",
    ]
    for edge in (1e-5, 1e-4, 1e15, 1e16):  # one exponent per chunk, alone and beside "d.ddde-XX"
        alone = edge * np.linspace(1.0, 9.99, 50)
        _assert_json_kernel_exact(alone)
        _assert_json_kernel_exact(np.concatenate([alone, [1e-30, 1e30]]))
    rng = np.random.default_rng(20272)
    rounded = np.round(10.0 ** rng.uniform(0, 16, 50_000))
    integral = np.concatenate([np.arange(0.0, 5000.0), rounded])
    digits = rng.integers(10**8, 10**9, 20_000).tolist()
    padded = [float(f"{d}e{e - 8}") for d, e in zip(digits, (np.arange(20_000) % 7 + 9).tolist())]
    _assert_json_kernel_exact(np.concatenate([integral, padded]))


def test_json_chunks_mix_kernel_and_exact_path(monkeypatch):
    """A chunk holding one value outside the class takes the exact path; the
    chunks around it stay in the kernel, and the bytes match either way."""
    monkeypatch.setattr(ioformat, "CHUNK", 7)
    chunks = _recorded(monkeypatch, "_json_block")
    rng = np.random.default_rng(20273)
    for odd in (-1.5, -0.0, float("nan"), float("inf"), 1e-300, 5e-324, 1e100, 9.9999999995e99):
        values = 10.0 ** rng.uniform(-6, 17, 21)
        values[10] = odd
        chunks.clear()
        _assert_json_array_exact(values)
        assert [text is None for text in chunks] == [False, True, False], odd


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-5, max_value=1e17), min_size=8, max_size=40),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
)
def test_json_array_across_chunks_matches_json_dumps(fixed, finite):
    """Lists longer than a chunk of 7, in repr's fixed notation and anywhere."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ioformat, "CHUNK", 7)
        _assert_json_array_exact(fixed + finite)
        _assert_json_array_exact(finite + fixed)
