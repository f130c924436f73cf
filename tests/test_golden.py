"""Byte gate: CLI outputs must match the committed golden files exactly,
and every number of a grid's JSON must be spelled as its CSV cell.

Regenerate a golden file only in a change that says why its bytes moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from conftest import assert_same_text
from paramagloss import cli, ioformat

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "sweep_101": ["sweep", "--points", "101"],
    "sweep_101_t_p_nr": [
        "sweep", "--points", "101", "--temp-k", "0.05", "--p-over-pc", "3", "--n-r", "3.1",
    ],
    "point_4p5": ["point", "--freq-ghz", "4.5"],
    "point_9p3_t_p": ["point", "--freq-ghz", "9.3", "--temp-k", "1.2", "--p-over-pc", "0.5"],
    "emission": ["emission"],
    "tempcurve_11p45": ["tempcurve", "--freq-ghz", "11.45"],
    "powercurve_9_v": ["powercurve", "--freq-ghz", "9.0", "--species", "V"],
    "powercurve_3p1_cr_2000": [
        "powercurve", "--freq-ghz", "3.1", "--species", "Cr", "--pmax-over-pc", "431",
        "--points", "2000",
    ],
    "tempcurve_0p37_t0_2000": [
        "tempcurve", "--freq-ghz", "0.37", "--tmin-k", "0", "--tmax-k", "17", "--points", "2000",
    ],
    "point_4p5_t0": ["point", "--freq-ghz", "4.5", "--temp-k", "0"],
    "sweep_2001_t_p": ["sweep", "--points", "2001", "--temp-k", "0.7", "--p-over-pc", "4"],
    # A subnormal frequency cell sends its chunks down the writers' per-value path.
    "sweep_3_subnormal": ["sweep", "--fmin-ghz", "1e-320", "--points", "3"],
    # 3 species x ~200 lines (two_s 2, 3 and 5, both linewidth conventions).
    "sweep_many_lines_t": [
        "sweep", "--db", str(GOLDEN_DIR / "many_lines_db.json"), "--fmin-ghz", "1.5",
        "--fmax-ghz", "12.5", "--points", "1201", "--temp-k", "0.4",
    ],
}
FORMATS = ("csv", "json")
GRIDS = sorted(name for name in CASES if name.startswith(("sweep", "tempcurve", "powercurve")))


def _argv(name, fmt, output):
    return CASES[name] + ["--format", fmt, "--output", str(output)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    out = tmp_path / f"{name}.{fmt}"
    assert cli.main(_argv(name, fmt, out)) == 0
    golden = GOLDEN_DIR / f"{name}.{fmt}"
    assert_same_text(out.read_bytes().decode(), golden.read_bytes().decode())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_small_chunks_match_golden(name, fmt, tmp_path, monkeypatch):
    # Every grid case then spans many chunks, most of them full.
    monkeypatch.setattr(ioformat, "CHUNK", 7)
    test_cli_output_matches_golden(name, fmt, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", GRIDS)
def test_json_numbers_are_the_csv_cells(name):
    """Each array of a grid's JSON holds, token for token, its CSV column's cells."""
    header, *rows = (GOLDEN_DIR / f"{name}.csv").read_text().splitlines()
    columns = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
    payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text(), parse_float=str)
    if name.startswith("sweep"):  # the JSON nests the species and names the grid freqs_ghz
        payload.update(payload.pop("species"), freq_ghz=payload.pop("freqs_ghz"))
    arrays = {key: value for key, value in payload.items() if isinstance(value, list)}
    assert sorted(arrays) == sorted(columns)
    for key, cells in columns.items():
        assert_same_text("\n".join(map(str, arrays[key])), "\n".join(cells))


if __name__ == "__main__":
    os.environ.pop("PARAMAG_LOSS_DB", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for fmt in FORMATS:
            assert cli.main(_argv(case, fmt, GOLDEN_DIR / f"{case}.{fmt}")) == 0
