"""Chunked writers: the bytes must not depend on where the chunks split.

The references here format one cell at a time, the way the writers did
before they worked in chunks: f"{x:.8e}" per CSV cell, and
json.dumps(indent=2) of the payload with every float quantized for JSON.  The CSV digit kernel
(ioformat.sci9_block) is held to "%.8e" % x byte for byte on ~2e6
adversarial values.
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

# Every spelling the fast JSON path hands to the exact one.
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
    if fast:
        assert text == "%.8e,1.50000000e+00\n" % value
    else:
        assert text is None
    assert _written(write_csv, ["a", "b"], list(block.T)) == _csv_reference(["a", "b"], list(block.T))


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


def _assert_kernel_takes_every_chunk(monkeypatch, header, columns):
    results = []
    kernel = ioformat.sci9_block

    def recording(block):
        results.append(kernel(block))
        return results[-1]

    monkeypatch.setattr(ioformat, "sci9_block", recording)
    assert _written(write_csv, header, columns).count("\n") == len(columns[0]) + 1
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
