"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every end-to-end and per-layer metric prints with its unit
(the raw end-to-end times in the text block only),
that one flipped digit in an output is counted in ``failed_ratio``, that
the trace's counts repeat exactly for one seed, and that an entry point
missing from the program is reported as an absent layer, not an error.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import random
import re
import sys

import run
import spans
import workloads

TINY = {
    "cli-small": workloads.cli_small,
    "spectrum-bulk": functools.partial(workloads.spectrum_bulk, points=40),
    "curve-scan": functools.partial(workloads.curve_scan, power_points=12, temp_points=30),
    "dense-manifold": functools.partial(workloads.dense_manifold, n_species=2, n_lines=25, points=40),
}

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_main(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    expect(code == 0, f"{workload} trace={trace}: exit code 0")
    return lines, json.loads(lines[-1])


def units_printed(lines: list[str], result: dict, units: dict[str, str], label: str, raw=None) -> None:
    """Every metric printed by name and unit; those in `units` also in the result line."""
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            printed[parts[0]] = parts[2]
    for name, unit in (raw or {}).items():
        expect(printed.get(name) == unit and name not in result["metrics"],
               f"{label}: {name} printed with unit {unit}, outside the result line")
    for name, unit in units.items():
        expect(printed.get(name) == unit, f"{label}: {name} printed with unit {unit}")
        value = result["metrics"].get(name, {})
        expect(value.get("unit") == unit and isinstance(value.get("value"), (int, float)),
               f"{label}: {name} in the result line with unit {unit}")


MANTISSA = re.compile(r"\d\.\d+(?=e[-+]\d)")


def flip_digit(rng: random.Random, data: bytes) -> bytes:
    """Change one mantissa digit of one number in a data row."""
    lines = data.decode("utf-8").split("\n")
    rows = [i for i, line in enumerate(lines) if i and line.lstrip()[:1].isdigit() and MANTISSA.search(line)]
    row = rng.choice(rows)
    line = lines[row]
    digits = [i for m in MANTISSA.finditer(line) for i in range(m.start(), m.end()) if line[i].isdigit()]
    pos = rng.choice(digits)
    lines[row] = line[:pos] + str((int(line[pos]) + rng.randint(1, 9)) % 10) + line[pos + 1:]
    return "\n".join(lines).encode("utf-8")


def doubled_bulk(seed, workdir):
    """Tiny spectrum-bulk whose script runs twice, so repeats are checked too."""
    wl = TINY["spectrum-bulk"](seed, workdir)
    wl.script = wl.script * 2
    return wl


def test_flipped_digit(seed: int) -> None:
    rng = random.Random(seed)
    workloads.WORKLOADS["spectrum-bulk"] = doubled_bulk
    args = run.parse_args(["--workload", "spectrum-bulk", "--seed", str(seed), "--seconds", "0"])
    total = 2 * len(TINY["spectrum-bulk"](seed, run.WORK).script)
    for target in range(total):  # every output of one pass, then of the repeat
        def corrupt(index, outcome, target=target):
            if index == target:
                outcome.out = flip_digit(rng, outcome.out)

        with contextlib.redirect_stdout(io.StringIO()) as out:
            correct, tally, _ = run.run(args, corrupt=corrupt)
        expect(tally.attempted == total and tally.failed == 1 and not correct,
               f"flipped digit in output {target} counted: failed={tally.failed} attempted={tally.attempted}")
        expect(f"failed_ratio {1 / total:.6g} ratio" in out.getvalue(),
               f"flipped digit in output {target} shows in failed_ratio")


def test_trace_robust(seed: int) -> None:
    counts = []
    for _ in range(2):
        _, result = run_main("dense-manifold", seed, 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if k in run.COUNT_METRICS})
    expect(counts[0] == counts[1] and counts[0]["kernels.lorentzian_mix.line_points"] > 0,
           "trace counts repeat exactly for one seed")
    missing = ("spin.line_table", "paramagloss.ensemble", "no_such_entry_point", None)
    saved = spans.ENTRY_POINTS
    spans.ENTRY_POINTS = [*saved, missing]
    try:
        lines, result = run_main("dense-manifold", seed, 1)
    finally:
        spans.ENTRY_POINTS = saved
    expect(result["correct"] and result["metrics"]["trace.layers_absent"]["value"] == 1,
           "a missing entry point is counted as an absent layer")
    expect("layer absent: paramagloss.ensemble.no_such_entry_point" in lines,
           "a missing entry point is reported by name")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    saved = dict(workloads.WORKLOADS), run.SETUP_REPEATS, run.IMPORT_REPEATS
    workloads.WORKLOADS.update(TINY)
    run.SETUP_REPEATS = run.IMPORT_REPEATS = 1
    try:
        for name in TINY:
            lines, result = run_main(name, args.seed, 0)
            expect(result["correct"] and result["failed"] == 0, f"{name}: outputs pass the check")
            units_printed(lines, result, run.END_TO_END, name, run.END_TO_END_RAW)
            for extra in ("failed_ratio", "invocation_ms.tail"):
                expect(any(line.startswith(extra + " ") for line in lines), f"{name}: {extra} printed")
            lines, result = run_main(name, args.seed, 1)
            expect(result["correct"], f"{name} traced: outputs pass the check")
            units_printed(lines, result, run.PER_LAYER, f"{name} traced")
        test_flipped_digit(args.seed)
        test_trace_robust(args.seed)
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved[0])
        run.SETUP_REPEATS, run.IMPORT_REPEATS = saved[1], saved[2]
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
