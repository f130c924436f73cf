"""The golden CLI invocations, each argv written once.

Each case writes tests/golden/<name>.<format> in both formats; any other
file there is an input a case reads.  tests/test_golden.py runs the cases
through cli.main.  This module imports neither pytest nor paramagloss, so CI
runs `python tests/golden_cases.py paramag-loss` on the installed package
alone: every case and format through that command, exiting non-zero with the
first whose exit code is not 0 or whose stdout is not its golden file.
"""

import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    # Its JSON cells take the digit kernel's structured dtype, whose last
    # field is the widened array separator, its bytes assignment and uint8 view.
    "sweep_101": ["sweep", "--points", "101"],
    "sweep_101_t_p_nr": [
        "sweep", "--points", "101", "--temp-k", "0.05", "--p-over-pc", "3", "--n-r", "3.1",
    ],
    "point_4p5": ["point", "--freq-ghz", "4.5"],
    # database_loss's temperature and drive branches; sweep_2001_t_p takes them on a grid.
    "point_9p3_t_p": ["point", "--freq-ghz", "9.3", "--temp-k", "1.2", "--p-over-pc", "0.5"],
    "emission": ["emission"],
    # Each command imports only its chain: tempcurve no database code, powercurve no emission.
    "tempcurve_11p45": ["tempcurve", "--freq-ghz", "11.45"],
    "powercurve_9_v": ["powercurve", "--freq-ghz", "9.0", "--species", "V"],
    # The mixer's per-line product amps[l] * pref over a power grid.
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
    # A database of 3 species x ~200 lines (two_s 2, 3 and 5, both linewidth conventions).
    "sweep_many_lines_t": [
        "sweep", "--db", str(GOLDEN_DIR / "many_lines_db.json"), "--fmin-ghz", "1.5",
        "--fmax-ghz", "12.5", "--points", "1201", "--temp-k", "0.4",
    ],
}
FORMATS = ("csv", "json")


if __name__ == "__main__":
    command = sys.argv[1:]
    mismatched = []
    for name in sorted(CASES):
        for fmt in FORMATS:
            proc = subprocess.run([*command, *CASES[name], "--format", fmt], stdout=subprocess.PIPE)
            if proc.returncode != 0 or proc.stdout != (GOLDEN_DIR / f"{name}.{fmt}").read_bytes():
                mismatched.append(f"{name}.{fmt}")
    print(f"{len(CASES) * len(FORMATS)} checked, {len(mismatched)} mismatched")
    if mismatched:
        sys.exit(f"first mismatch: {mismatched[0]}")
