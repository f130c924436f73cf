"""Command-line interface: sweeps, point evaluations, and extractions.

Subcommands
-----------
sweep       loss-tangent spectrum over a frequency range, per species + total
point       per-species and total loss at one frequency, with run metadata
emission    matrix-moment extraction from an emission-line table
tempcurve   temperature factor and its tanh comparison over a T range
powercurve  on-resonance and detuned loss versus drive power

All user input is in GHz / MHz / K / cm^-3: the flags are converted here,
the database's fields by ensemble.parse_species.
Each command returns a CSV table and a JSON payload of plain numbers,
arrays and strings, and main writes the one the format asks for; numbers,
the array cell of point's line weights included, are spelled only by the
ioformat writers, so identical invocations are byte-identical.
Exit codes: 0 success, 2 bad usage or malformed input, 3 unwritable
output.

Start-up is most of a short run, so a run imports only its command's chain:
this module needs the standard library and constants to parse the flags,
each subparser names its command's module, and main then looks up the
names _MODULE_OF places there or in errors and ioformat, which __getattr__
imports and binds.  tempcurve loads no database code, emission no
ensemble, and no command the spin matrices.  run, the program's entry,
keeps the garbage collector off over those imports and ends the process
once the output is flushed, without tearing the interpreter down.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import importlib
import math
import os
import sys

from .constants import MAX_GHZ, MAX_POINTS, MAX_RATE, TWO_PI, angular_to_ghz, ghz_to_angular

# The module of each name the commands look up in this module.  __getattr__
# binds one on its first lookup on this module, importing its module, and
# main looks up those of errors, ioformat and the parsed command's chain
# before running it; a name already bound, such as a tracer's wrapper, is
# never looked up through __getattr__ and so is kept.
_MODULE_OF = {
    "InvalidInputs": "errors", "ParamagLossError": "errors", "evaluate": "errors",
    "default_db_path": "ioformat", "default_emission_path": "ioformat",
    "write_csv": "ioformat", "write_json": "ioformat",
    "database_loss": "ensemble", "load_species_db": "ensemble",
    "species_loss": "ensemble", "sweep": "ensemble",
    "EXTRACTION_COLUMNS": "emission", "extraction_rows": "emission",
    "read_emission_table": "emission",
    "tanh_factor": "lineshape", "temperature_factor": "lineshape",
}


def __getattr__(name):
    """A chain's name not bound yet: import its module and bind it here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __package__), name)
    globals()[name] = value
    return value


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
        return _cannot_write(args.output, exc)
    return 0


def _cannot_write(path: str | None, exc: OSError) -> int:
    """Report a failed write of the file at path, or of stdout if path is None: exit code 3."""
    if path is None and sys.stdout is not None:
        # A closed pipe or a full disk: send what is still buffered to
        # devnull, so no later flush fails again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    target = "stdout" if path is None else path
    try:
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
    except OSError:
        pass  # stderr is unwritable too: the exit code is the only report
    return 3


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    """np.linspace(start, stop, points) for any finite range.

    Near the float maximum the last step of linspace overflows to inf
    before linspace overwrites that element with stop, so the grid is right.
    """
    import numpy as np  # already loaded by the command's chain

    return evaluate(lambda: np.linspace(start, stop, points))


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
    for sp in metadata["species"]:
        for key in ("gamma_rad_per_s", "linewidth_convention", "weights"):
            rows.append([f"{sp['name']}.{key}", sp[key]])
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
    omega_if = TWO_PI * 1.0e9 * args.freq_ghz  # inf past the float range: the thermal limit
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
# The probe frequency bound of database_loss, checked here so that its error names the flag.
PROBE_GHZ = _number(
    float,
    f"a finite number > 0 whose angular frequency is at most {MAX_RATE:.3g} rad/s",
    lambda x: 0.0 < x <= MAX_GHZ,
)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print_help drops an OSError of this write, so help
        # lost to an unwritable stdout would exit 0; main reports it instead.
        file = file or sys.stdout or sys.stderr
        if file is not None:
            file.write(self.format_help())


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

    parser = _Parser(
        prog="paramag-loss",
        description="Microwave loss from paramagnetic defect spin transitions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "sweep", parents=[db, conditions, output], help="loss-tangent spectrum over a GHz range"
    )
    sub.set_defaults(run=cmd_sweep, chain="ensemble")
    sub.add_argument("--fmin-ghz", type=POSITIVE, default=1.0)
    sub.add_argument("--fmax-ghz", type=FINITE, default=15.0)
    sub.add_argument("--points", type=POINTS, default=1401)

    sub = subs.add_parser(
        "point", parents=[db, conditions, output], help="loss at a single frequency"
    )
    sub.set_defaults(run=cmd_point, chain="ensemble")
    sub.add_argument("--freq-ghz", type=PROBE_GHZ, required=True)

    sub = subs.add_parser(
        "emission", parents=[output], help="moment extraction from emission rates"
    )
    sub.set_defaults(run=cmd_emission, chain="emission")
    sub.add_argument(
        "--table", dest="table_path", help="emission-line table JSON (default: bundled)"
    )

    sub = subs.add_parser("tempcurve", parents=[output], help="temperature factor over a T range")
    sub.set_defaults(run=cmd_tempcurve, chain="lineshape")
    sub.add_argument("--freq-ghz", type=POSITIVE, required=True)
    sub.add_argument("--tmin-k", type=NON_NEGATIVE, default=0.01)
    sub.add_argument("--tmax-k", type=FINITE, default=10.0)
    sub.add_argument("--points", type=POINTS, default=101)

    sub = subs.add_parser("powercurve", parents=[db, output], help="loss versus drive power")
    sub.set_defaults(run=cmd_powercurve, chain="ensemble")
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
    try:
        args = build_parser().parse_args(argv)
    except OSError as exc:  # the help text could not be written
        return _cannot_write(None, exc)
    this = sys.modules[__name__]
    for name, module in _MODULE_OF.items():
        if module in ("errors", "ioformat", args.chain):
            getattr(this, name)
    try:
        header, rows, payload = args.run(args)
    except ParamagLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "csv":
        return _write_output(args, write_csv, header, rows)
    return _write_output(args, write_json, payload)


def run() -> None:
    """Program entry, for `paramag-loss` and `python -m paramagloss.cli`: exit with main().

    The collector is off from here on, so no collection walks the objects
    that numpy's and the command's imports leave.  Once main has returned,
    or argparse has exited with an int code, shutdown would only flush the
    output and then tear down every module and object, which changes no
    output.  So run does the first part itself, running the atexit hooks
    and flushing stdout and stderr, and then ends the process with os._exit;
    a flush that fails exits 3, as a failed write in main does.  It exits
    through sys.exit, and so through the interpreter's own shutdown, when
    another thread is alive, when -i asks for the prompt after the run, or
    when the code is not an int, so each of those ends as it always has.
    main itself stays free of this, so callers in process keep their
    collector and their interpreter.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    threading = sys.modules.get("threading")
    if (
        isinstance(code, int)
        and not sys.flags.inspect
        and (threading is None or threading.active_count() == 1)
    ):
        # The hooks run first, as in shutdown, so what they write is flushed
        # too; they are then unregistered, and a fallback exit skips them.
        atexit._run_exitfuncs()
        for stream in (sys.stdout, sys.stderr):
            try:
                if stream is not None and not stream.closed:
                    stream.flush()
            except OSError as exc:
                # Only stdout's failure can still be reported, on stderr.
                code = _cannot_write(None, exc) if stream is sys.stdout else 3
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
