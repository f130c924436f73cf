"""Byte gate: the CLI outputs of the cases in tests/golden_cases.py must match
the committed golden files exactly, every golden file must be a case's
output or an input a case reads, and every number of a grid's JSON must be
spelled as its CSV cell.

Regenerate a golden file only in a change that says why its bytes moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from pathlib import Path

import pytest

from conftest import assert_json_numbers_are_csv_cells, assert_same_text
from golden_cases import CASES, FORMATS, GOLDEN_DIR
from paramagloss import cli, ioformat

GRIDS = sorted(name for name in CASES if name.startswith(("sweep", "tempcurve", "powercurve")))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    out = tmp_path / f"{name}.{fmt}"
    assert cli.main([*CASES[name], "--format", fmt, "--output", str(out)]) == 0
    golden = GOLDEN_DIR / f"{name}.{fmt}"
    assert_same_text(out.read_bytes().decode(), golden.read_bytes().decode())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_small_chunks_match_golden(name, fmt, tmp_path, monkeypatch):
    # Every grid case then spans many chunks, most of them full.
    monkeypatch.setattr(ioformat, "CHUNK", 7)
    test_cli_output_matches_golden(name, fmt, tmp_path, monkeypatch)


def test_golden_files_are_case_outputs_and_inputs():
    outputs = {f"{name}.{fmt}" for name in CASES for fmt in FORMATS}
    inputs = {path.name for argv in CASES.values() for path in map(Path, argv)
              if path.parent == GOLDEN_DIR}
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()) == sorted(outputs | inputs)


@pytest.mark.parametrize("name", GRIDS)
def test_json_numbers_are_the_csv_cells(name):
    csv_text, json_text = ((GOLDEN_DIR / f"{name}.{fmt}").read_text() for fmt in FORMATS)
    assert_json_numbers_are_csv_cells(csv_text, json_text)


if __name__ == "__main__":
    os.environ.pop("PARAMAG_LOSS_DB", None)
    for case in sorted(CASES):
        for fmt in FORMATS:
            output = GOLDEN_DIR / f"{case}.{fmt}"
            assert cli.main([*CASES[case], "--format", fmt, "--output", str(output)]) == 0
