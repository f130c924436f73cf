"""Byte gate: CLI outputs must match the committed golden files exactly.

Regenerate a golden file only in a change that says why its bytes moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from pathlib import Path

import pytest

from paramagloss import cli

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
}
FORMATS = ("csv", "json")


def _argv(name, fmt, output):
    return CASES[name] + ["--format", fmt, "--output", str(output)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    out = tmp_path / f"{name}.{fmt}"
    assert cli.main(_argv(name, fmt, out)) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    os.environ.pop("PARAMAG_LOSS_DB", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        for fmt in FORMATS:
            assert cli.main(_argv(case, fmt, GOLDEN_DIR / f"{case}.{fmt}")) == 0
