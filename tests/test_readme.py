"""The README's library quickstart runs as written, and its example error
lines are what the CLI prints.

This module imports no pytest, so that CI can take quickstart_code from it
before the test extra is installed.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

from paramagloss import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_code():
    """The first python block under the README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library quickstart\n\n```python\n(.*?)^```$", text, re.M | re.S)[1]


def test_quickstart_prints_the_cr_loss_tangent():
    # A fresh interpreter imports only what the block does, with numpy's
    # floating-point warnings as errors, as the suite has them.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", quickstart_code()],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert math.isclose(float(proc.stdout), 9.0e-9, rel_tol=0.05), proc.stdout


def _exit_code(argv):
    """cli.main(argv), or the code of the SystemExit that argparse raises."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_readme_error_lines_are_what_the_cli_prints(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    db = tmp_path / "db.json"
    db.write_text(json.dumps([{
        "name": "Cr,x", "two_s": 3, "concentration_per_cm3": 1e17, "linewidth_mhz": 27.0,
        "transition": [1.5, 0.5], "lines": [{"g": 1.984, "freq_ghz": 11.45, "weight": 1.0}],
    }]))
    table = tmp_path / "table.json"
    table.write_text(json.dumps([{"label": "Gd", "lambda_nm": 1e300, "a_md_hz": 30.24}]))
    readme_lines = README.read_text(encoding="utf-8").splitlines()
    # Each argv and a part of the one error line it prints last on stderr.
    for argv, part in [
        (["point", "--freq-ghz", "0"], "argument --freq-ghz: "),
        (["sweep", "--fmin-ghz", "5", "--fmax-ghz", "3"], "need fmin < fmax"),
        (["point", "--freq-ghz", "4.5", "--db", str(db)], "field 'name'"),
        (["emission", "--table", str(table)], "field 'lambda_nm'"),
    ]:
        code = _exit_code(argv)
        captured = capsys.readouterr()
        line = captured.err.splitlines()[-1]
        assert code == 2 and captured.out == "", argv
        assert part in line and line in readme_lines, line
