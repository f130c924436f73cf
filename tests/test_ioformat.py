"""Chunked writers: the bytes must not depend on where the chunks split.

The references here format one cell at a time, the way the writers did
before they worked in chunks: f"{x:.8e}" per CSV cell, and
json.dumps(indent=2) of the quantized lists for JSON.
"""

import io
import json

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
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_json_array_matches_json_dumps(values):
    payload = {"values": np.array(values, dtype=np.float64)}
    assert _written(write_json, payload) == _json_reference(payload)


def test_string_rows_written_as_given():
    rows = [["k", "none"], ["x.weights", "1.0;2.0"]]
    assert _written(write_csv, ["key", "value"], rows) == "key,value\nk,none\nx.weights,1.0;2.0\n"
    assert _written(write_csv, ["key"], []) == "key\n"


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
