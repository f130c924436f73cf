"""The README's library quickstart runs as written."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert float(proc.stdout) == pytest.approx(9.0e-9, rel=0.05)
