"""Shared helpers: independently typed constants, a CLI runner, a text
comparison that reports its first difference, a check that a grid's JSON
numbers are its CSV cells, and a read-only loader of the benchmark's modules.

The constant literals here are typed from the CODATA 2018 tables on
purpose, not imported from the package, so a typo in the package values
would show up as a test failure.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

# CODATA 2018, SI units.
C_LIGHT = 2.99792458e8
FINE_STRUCTURE = 7.2973525693e-3
BOHR_RADIUS = 5.29177210903e-11
HBAR_SI = 1.054571817e-34
KB_SI = 1.380649e-23
MUB_SI = 9.2740100783e-24


def run_cli(args, env=None, timeout=120):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "paramagloss.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def assert_same_text(got: str, want: str) -> None:
    """Fail with the first differing line and its number unless got == want.

    Whole outputs run to megabytes; pytest's own diff of two such strings
    takes minutes, and this report takes one pass.
    """
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            raise AssertionError(f"line {number} differs:\n  got  {a!r}\n  want {b!r}")
    raise AssertionError(f"got {len(got_lines)} lines, want {len(want_lines)}")


def assert_json_numbers_are_csv_cells(csv_text: str, json_text: str) -> None:
    """Each array of a grid's JSON holds, token for token, its CSV column's cells."""
    header, *rows = csv_text.splitlines()
    columns = dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))
    payload = json.loads(json_text, parse_float=str)
    if "freqs_ghz" in payload:  # a sweep nests the species and names the grid freqs_ghz
        payload.update(payload.pop("species"), freq_ghz=payload.pop("freqs_ghz"))
    arrays = {key: value for key, value in payload.items() if isinstance(value, list)}
    assert sorted(arrays) == sorted(columns)
    for key, cells in columns.items():
        assert_same_text("\n".join(map(str, arrays[key])), "\n".join(cells))


@functools.cache
def perfbench_module(name):
    """perfbench/<name>.py as a module, executed from its source (no bytecode written)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    module = ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module
