"""Command-line interface: sweeps, point evaluations, and extractions.

Subcommands
-----------
sweep       loss-tangent spectrum over a frequency range, per species + total
point       per-species and total loss at one frequency, with run metadata
emission    matrix-moment extraction from an emission-line table
tempcurve   temperature factor and its tanh comparison over a T range
powercurve  on-resonance and detuned loss versus drive power

All user input is in GHz / MHz / K / cm^-3; conversions happen here.
Each command returns a CSV table and a JSON payload of plain numbers,
arrays and strings, and main writes the one the format asks for; numbers
are spelled only by the ioformat writers, so identical invocations are
byte-identical.
Exit codes: 0 success, 2 bad usage or malformed input, 3 unwritable
output.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

import numpy as np

from .constants import angular_to_ghz, ghz_to_angular
from .ensemble import (
    MAX_RATE,
    database_loss,
    default_db_path,
    default_emission_path,
    load_species_db,
    species_loss,
    sweep,
)
from .emission import (
    EXTRACTION_COLUMNS,
    extraction_rows,
    read_emission_table,
)
from .errors import InvalidInputs, ParamagLossError
from .ioformat import sci9, write_csv, write_json
from .lineshape import tanh_factor, temperature_factor

MAX_POINTS = 10**7

MOMENT_NOTE = (
    "m_sq is the squared dimensionless moment inferred from the rate; "
    "m_abs is its square root. Published tables may quote either."
)
WEIGHT_NOTE = (
    "line weights are population fractions; equal weights across a "
    "hyperfine manifold model equal nuclear-state populations"
)


def resolve_db_path(explicit: str | None) -> str:
    """Database precedence: --db flag, PARAMAG_LOSS_DB, bundled default."""
    if explicit is not None:
        return explicit
    env = os.environ.get("PARAMAG_LOSS_DB", "").strip()
    if env:
        return env
    return default_db_path()


def _run_metadata(args: argparse.Namespace, db) -> dict:
    return {
        "n_r": args.n_r,
        "temp_k": args.temp_k,
        "p_over_pc": args.p_over_pc,
        "backend": "numpy",
        "weight_note": WEIGHT_NOTE,
        "species": [
            {
                "name": sp.name,
                "two_s": sp.two_s,
                "concentration_per_cm3": sp.n_def / 1e6,
                "gamma_rad_per_s": sp.gamma,
                "linewidth_convention": sp.linewidth_convention,
                "transition": sp.transition,
                "line_freqs_ghz": angular_to_ghz(sp.lines.centers),
                "weights": sp.lines.weights,
            }
            for sp in db
        ],
    }


def _write_output(args: argparse.Namespace, writer, *data) -> int:
    """Run writer(stream, *data) against the output file or stdout; 3 if unwritable."""
    try:
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                writer(fh, *data)
        elif sys.stdout is None:
            # Python leaves sys.stdout None when file descriptor 1 was closed.
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            writer(sys.stdout, *data)
            sys.stdout.flush()
    except OSError as exc:
        if args.output is None and sys.stdout is not None:
            # A closed pipe or a full disk: send what is still buffered to
            # devnull, so the flush at interpreter exit does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "stdout" if args.output is None else args.output
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 3
    return 0


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    """np.linspace(start, stop, points) for any finite range.

    Near the float maximum the last step of linspace overflows to inf
    before linspace overwrites that element with stop, so the grid is
    right and only the overflow warning is silenced.
    """
    with np.errstate(over="ignore"):
        return np.linspace(start, stop, points)


def cmd_sweep(args: argparse.Namespace):
    db = load_species_db(resolve_db_path(args.db_path))
    spectrum = sweep(
        db, args.fmin_ghz, args.fmax_ghz, args.points, temp_k=args.temp_k, power=args.p_over_pc
    )
    header = ["freq_ghz", *spectrum.per_species, "total"]
    columns = [spectrum.freqs_ghz, *spectrum.per_species.values(), spectrum.total]
    payload = {
        "command": "sweep",
        "freqs_ghz": spectrum.freqs_ghz,
        "species": spectrum.per_species,
        "total": spectrum.total,
        "metadata": _run_metadata(args, db),
    }
    return header, columns, payload


def cmd_point(args: argparse.Namespace):
    db = load_species_db(resolve_db_path(args.db_path))
    losses, total = database_loss(
        db, ghz_to_angular(args.freq_ghz), temp_k=args.temp_k, power=args.p_over_pc
    )
    metadata = _run_metadata(args, db)
    rows = [["freq_ghz", args.freq_ghz], *losses.items(), ["total", total]]
    for key in ("n_r", "temp_k", "p_over_pc"):
        rows.append([key, "none" if metadata[key] is None else metadata[key]])
    for sp in db:
        rows += [
            [f"{sp.name}.gamma_rad_per_s", sp.gamma],
            [f"{sp.name}.linewidth_convention", sp.linewidth_convention],
            [f"{sp.name}.weights", ";".join(sci9(w) for w in sp.lines.weights)],
        ]
    payload = {
        "command": "point",
        "freq_ghz": args.freq_ghz,
        "species": losses,
        "total": total,
        "metadata": metadata,
    }
    return ["key", "value"], rows, payload


def cmd_emission(args: argparse.Namespace):
    path = args.table_path if args.table_path is not None else default_emission_path()
    rows = extraction_rows(read_emission_table(path))
    payload = {
        "command": "emission",
        "lines": [dict(zip(EXTRACTION_COLUMNS, row)) for row in rows],
        "metadata": {"moment_note": MOMENT_NOTE},
    }
    return EXTRACTION_COLUMNS, rows, payload


def cmd_tempcurve(args: argparse.Namespace):
    if not args.tmin_k < args.tmax_k:
        raise InvalidInputs(f"need tmin < tmax, got [{args.tmin_k}, {args.tmax_k}]")
    omega_if = ghz_to_angular(args.freq_ghz)
    temps = _grid(args.tmin_k, args.tmax_k, args.points)
    header = ["temp_k", "w_factor", "tanh_factor"]
    columns = (temps, temperature_factor(omega_if, temps), tanh_factor(omega_if, temps))
    payload = {"command": "tempcurve", "freq_ghz": args.freq_ghz, **dict(zip(header, columns))}
    return header, columns, payload


def cmd_powercurve(args: argparse.Namespace):
    db = load_species_db(resolve_db_path(args.db_path))
    matches = [s for s in db if args.species in (None, s.name)]
    if not matches:
        raise InvalidInputs(f"species {args.species!r} not in database")
    sp = matches[0]
    omega_res = float(sp.lines.centers[0])
    omega_det = ghz_to_angular(args.freq_ghz)
    ratios = _grid(0.0, args.pmax_over_pc, args.points)
    header = ["p_over_pc", "loss_on_resonance", "loss_detuned"]
    columns = (
        ratios,
        species_loss(sp, omega_res, power=ratios),
        species_loss(sp, omega_det, power=ratios),
    )
    payload = {
        "command": "powercurve",
        "species": sp.name,
        "resonance_ghz": angular_to_ghz(omega_res),
        "detuned_ghz": args.freq_ghz,
        **dict(zip(header, columns)),
    }
    return header, columns, payload


def _number(kind, rule, ok):
    """argparse type: kind(text) where ok(value) holds, the whole check of a flag.

    A rejection exits 2 naming the flag; each ok also fails NaN and +-inf.
    """

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    # argparse reports a ValueError from kind(text) as "invalid <__name__> value: 'x'".
    parse.__name__ = kind.__name__
    return parse


FINITE = _number(float, "a finite number", math.isfinite)
POSITIVE = _number(float, "a finite number > 0", lambda x: 0.0 < x < math.inf)
NON_NEGATIVE = _number(float, "a finite number >= 0", lambda x: 0.0 <= x < math.inf)
# n_r cancels from the loss; it is only checked and echoed into the run metadata.
REFRACTIVE_INDEX = _number(float, "a finite number >= 1", lambda x: 1.0 <= x < math.inf)
POINTS = _number(int, f"between 2 and {MAX_POINTS}", lambda n: 2 <= n <= MAX_POINTS)
# The probe frequency bound of species_loss, checked here so that its error names the flag.
PROBE_GHZ = _number(
    float,
    f"a finite number > 0 whose angular frequency is at most {MAX_RATE:.3g} rad/s",
    lambda x: 0.0 < ghz_to_angular(x) <= MAX_RATE,
)


def build_parser() -> argparse.ArgumentParser:
    # Flags shared by several subcommands, each declared once as a parent parser.
    db = argparse.ArgumentParser(add_help=False)
    db.add_argument(
        "--db", dest="db_path", help="species database JSON (default: $PARAMAG_LOSS_DB or bundled)"
    )
    conditions = argparse.ArgumentParser(add_help=False)
    conditions.add_argument("--n-r", type=REFRACTIVE_INDEX, default=1.0)
    conditions.add_argument("--temp-k", type=NON_NEGATIVE)
    conditions.add_argument("--p-over-pc", type=NON_NEGATIVE)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="output file (default: stdout)")
    output.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )

    parser = argparse.ArgumentParser(
        prog="paramag-loss",
        description="Microwave loss from paramagnetic defect spin transitions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "sweep", parents=[db, conditions, output], help="loss-tangent spectrum over a GHz range"
    )
    sub.set_defaults(run=cmd_sweep)
    sub.add_argument("--fmin-ghz", type=POSITIVE, default=1.0)
    sub.add_argument("--fmax-ghz", type=FINITE, default=15.0)
    sub.add_argument("--points", type=POINTS, default=1401)

    sub = subs.add_parser(
        "point", parents=[db, conditions, output], help="loss at a single frequency"
    )
    sub.set_defaults(run=cmd_point)
    sub.add_argument("--freq-ghz", type=PROBE_GHZ, required=True)

    sub = subs.add_parser(
        "emission", parents=[output], help="moment extraction from emission rates"
    )
    sub.set_defaults(run=cmd_emission)
    sub.add_argument(
        "--table", dest="table_path", help="emission-line table JSON (default: bundled)"
    )

    sub = subs.add_parser("tempcurve", parents=[output], help="temperature factor over a T range")
    sub.set_defaults(run=cmd_tempcurve)
    sub.add_argument("--freq-ghz", type=POSITIVE, required=True)
    sub.add_argument("--tmin-k", type=NON_NEGATIVE, default=0.01)
    sub.add_argument("--tmax-k", type=FINITE, default=10.0)
    sub.add_argument("--points", type=POINTS, default=101)

    sub = subs.add_parser("powercurve", parents=[db, output], help="loss versus drive power")
    sub.set_defaults(run=cmd_powercurve)
    sub.add_argument("--species", help="species name (default: first in database)")
    sub.add_argument(
        "--freq-ghz",
        type=PROBE_GHZ,
        required=True,
        help="detuned probe frequency for the second loss column",
    )
    sub.add_argument("--pmax-over-pc", type=POSITIVE, default=100.0)
    sub.add_argument("--points", type=POINTS, default=20)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        header, rows, payload = args.run(args)
    except ParamagLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "csv":
        return _write_output(args, write_csv, header, rows)
    return _write_output(args, write_json, payload)


if __name__ == "__main__":
    sys.exit(main())
