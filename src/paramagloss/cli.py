"""Command-line interface: sweeps, point evaluations, and extractions.

Subcommands
-----------
sweep       loss-tangent spectrum over a frequency range, per species + total
point       per-species and total loss at one frequency, with run metadata
emission    matrix-moment extraction from an emission-line table
tempcurve   temperature factor and its tanh comparison over a T range
powercurve  on-resonance and detuned loss versus drive power

All user input is in GHz / MHz / K / cm^-3; conversions happen here.
Numeric output is lowercase scientific with 9 significant digits and
files end lines with '\\n', so identical invocations are byte-identical.
Exit codes: 0 success, 2 bad usage or malformed input, 3 unwritable
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .constants import ghz_to_angular
from .ensemble import (
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
from .errors import InvalidInputs, InvalidRange, ParamagLossError
from .ioformat import finite_float, quantize, sci9, write_csv, write_json
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


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments of one CLI invocation."""

    command: str
    db_path: str | None = None
    table_path: str | None = None
    fmin_ghz: float | None = None
    fmax_ghz: float | None = None
    points: int | None = None
    freq_ghz: float | None = None
    n_r: float = 1.0
    temp_k: float | None = None
    p_over_pc: float | None = None
    tmin_k: float | None = None
    tmax_k: float | None = None
    pmax_over_pc: float | None = None
    species: str | None = None
    output: str | None = None
    fmt: str = "csv"


def resolve_db_path(explicit: str | None) -> str:
    """Database precedence: --db flag, PARAMAG_LOSS_DB, bundled default."""
    if explicit is not None:
        return explicit
    env = os.environ.get("PARAMAG_LOSS_DB", "").strip()
    if env:
        return env
    return default_db_path()


def _check_args(cfg: RunConfig) -> None:
    """Range checks shared by the subcommands; argparse made every float finite."""
    if cfg.points is not None and not 2 <= cfg.points <= MAX_POINTS:
        raise InvalidRange(f"points must be between 2 and {MAX_POINTS}, got {cfg.points}")
    if cfg.freq_ghz is not None and cfg.freq_ghz <= 0.0:
        raise InvalidInputs(f"frequency must be positive, got {cfg.freq_ghz}")
    if cfg.n_r < 1.0:
        raise InvalidInputs(f"refractive index must be >= 1, got {cfg.n_r}")
    if cfg.temp_k is not None and cfg.temp_k < 0.0:
        raise InvalidInputs(f"temperature must be >= 0, got {cfg.temp_k}")
    if cfg.p_over_pc is not None and cfg.p_over_pc < 0.0:
        raise InvalidInputs(f"power ratio must be >= 0, got {cfg.p_over_pc}")


def _species_metadata(db) -> list[dict]:
    meta = []
    for sp in db:
        meta.append(
            {
                "name": sp.name,
                "two_s": sp.two_s,
                "concentration_per_cm3": quantize(sp.n_def / 1e6),
                "gamma_rad_per_s": quantize(sp.gamma),
                "linewidth_convention": sp.linewidth_convention,
                "transition": [sp.transition[0], sp.transition[1]],
                "line_freqs_ghz": [
                    quantize(line.omega_if / ghz_to_angular(1.0)) for line in sp.lines
                ],
                "weights": [quantize(line.weight) for line in sp.lines],
            }
        )
    return meta


def _run_metadata(cfg: RunConfig, db) -> dict:
    return {
        "n_r": quantize(cfg.n_r),
        "temp_k": None if cfg.temp_k is None else quantize(cfg.temp_k),
        "p_over_pc": None if cfg.p_over_pc is None else quantize(cfg.p_over_pc),
        "backend": "numpy",
        "weight_note": WEIGHT_NOTE,
        "species": _species_metadata(db),
    }


def _write_output(cfg: RunConfig, writer) -> int:
    """Run writer(stream) against the output file or stdout; 3 if unwritable."""
    if cfg.output is None:
        writer(sys.stdout)
        return 0
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
    except OSError as exc:
        print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
        return 3
    return 0


def _csv_rows(columns):
    """One row of sci9 cells per grid point of equal-length column arrays."""
    return ([sci9(x) for x in row] for row in zip(*columns))


def _write_curve(cfg: RunConfig, header, columns, payload: dict) -> int:
    """One CSV row per grid point, or payload plus one JSON list per column."""
    if cfg.fmt == "csv":
        rows = _csv_rows(columns)
        return _write_output(cfg, lambda fh: write_csv(fh, header, rows))
    payload.update({name: [quantize(x) for x in col] for name, col in zip(header, columns)})
    return _write_output(cfg, lambda fh: write_json(fh, payload))


def cmd_sweep(cfg: RunConfig) -> int:
    db = load_species_db(resolve_db_path(cfg.db_path))
    spectrum = sweep(
        db,
        cfg.fmin_ghz,
        cfg.fmax_ghz,
        cfg.points,
        n_r=cfg.n_r,
        temp_k=cfg.temp_k,
        power=cfg.p_over_pc,
    )
    names = list(spectrum.per_species)
    if cfg.fmt == "csv":
        header = ["freq_ghz", *names, "total"]
        rows = _csv_rows([spectrum.freqs_ghz, *spectrum.per_species.values(), spectrum.total])
        return _write_output(cfg, lambda fh: write_csv(fh, header, rows))
    payload = {
        "command": "sweep",
        "freqs_ghz": [quantize(f) for f in spectrum.freqs_ghz],
        "species": {
            name: [quantize(x) for x in spectrum.per_species[name]] for name in names
        },
        "total": [quantize(x) for x in spectrum.total],
        "metadata": _run_metadata(cfg, db),
    }
    return _write_output(cfg, lambda fh: write_json(fh, payload))


def cmd_point(cfg: RunConfig) -> int:
    db = load_species_db(resolve_db_path(cfg.db_path))
    omega = ghz_to_angular(cfg.freq_ghz)
    losses = {
        sp.name: species_loss(sp, omega, n_r=cfg.n_r, temp_k=cfg.temp_k, power=cfg.p_over_pc)
        for sp in db
    }
    total = 0.0
    for value in losses.values():
        total += value
    metadata = _run_metadata(cfg, db)
    if cfg.fmt == "csv":
        rows = [["freq_ghz", sci9(cfg.freq_ghz)]]
        rows += [[name, sci9(value)] for name, value in losses.items()]
        rows += [
            ["total", sci9(total)],
            ["n_r", sci9(cfg.n_r)],
            ["temp_k", "none" if cfg.temp_k is None else sci9(cfg.temp_k)],
            ["p_over_pc", "none" if cfg.p_over_pc is None else sci9(cfg.p_over_pc)],
        ]
        for meta in metadata["species"]:
            name = meta["name"]
            rows += [
                [f"{name}.gamma_rad_per_s", sci9(meta["gamma_rad_per_s"])],
                [f"{name}.linewidth_convention", meta["linewidth_convention"]],
                [f"{name}.weights", ";".join(sci9(w) for w in meta["weights"])],
            ]
        return _write_output(cfg, lambda fh: write_csv(fh, ["key", "value"], rows))
    payload = {
        "command": "point",
        "freq_ghz": quantize(cfg.freq_ghz),
        "species": {name: quantize(value) for name, value in losses.items()},
        "total": quantize(total),
        "metadata": metadata,
    }
    return _write_output(cfg, lambda fh: write_json(fh, payload))


def cmd_emission(cfg: RunConfig) -> int:
    path = cfg.table_path if cfg.table_path is not None else default_emission_path()
    lines = read_emission_table(path)
    if cfg.fmt == "csv":
        rows = extraction_rows(lines)
        return _write_output(
            cfg, lambda fh: write_csv(fh, EXTRACTION_COLUMNS, rows)
        )
    payload = {
        "command": "emission",
        "lines": [
            {
                "label": line.label,
                "lambda_nm": quantize(line.lambda_vac * 1e9),
                "freq_thz": quantize(line.omega_if / ghz_to_angular(1000.0)),
                "a_md_hz": quantize(line.a_md),
                "m_sq": quantize(line.m_sq),
                "m_abs": quantize(line.m_abs),
            }
            for line in lines
        ],
        "metadata": {"moment_note": MOMENT_NOTE},
    }
    return _write_output(cfg, lambda fh: write_json(fh, payload))


def cmd_tempcurve(cfg: RunConfig) -> int:
    if not 0.0 <= cfg.tmin_k < cfg.tmax_k:
        raise InvalidRange(f"need 0 <= tmin < tmax, got [{cfg.tmin_k}, {cfg.tmax_k}]")
    omega_if = ghz_to_angular(cfg.freq_ghz)
    temps = np.linspace(cfg.tmin_k, cfg.tmax_k, cfg.points)
    columns = (temps, temperature_factor(omega_if, temps), tanh_factor(omega_if, temps))
    payload = {"command": "tempcurve", "freq_ghz": quantize(cfg.freq_ghz)}
    return _write_curve(cfg, ["temp_k", "w_factor", "tanh_factor"], columns, payload)


def cmd_powercurve(cfg: RunConfig) -> int:
    if cfg.pmax_over_pc <= 0.0:
        raise InvalidRange(f"pmax must be positive, got {cfg.pmax_over_pc}")
    db = load_species_db(resolve_db_path(cfg.db_path))
    matches = [s for s in db if cfg.species in (None, s.name)]
    if not matches:
        raise InvalidInputs(f"species {cfg.species!r} not in database")
    sp = matches[0]
    omega_res = sp.lines[0].omega_if
    omega_det = ghz_to_angular(cfg.freq_ghz)
    ratios = np.linspace(0.0, cfg.pmax_over_pc, cfg.points)
    columns = (
        ratios,
        species_loss(sp, omega_res, n_r=cfg.n_r, power=ratios),
        species_loss(sp, omega_det, n_r=cfg.n_r, power=ratios),
    )
    payload = {
        "command": "powercurve",
        "species": sp.name,
        "resonance_ghz": quantize(omega_res / ghz_to_angular(1.0)),
        "detuned_ghz": quantize(cfg.freq_ghz),
    }
    return _write_curve(cfg, ["p_over_pc", "loss_on_resonance", "loss_detuned"], columns, payload)


_COMMANDS = {
    "sweep": cmd_sweep,
    "point": cmd_point,
    "emission": cmd_emission,
    "tempcurve": cmd_tempcurve,
    "powercurve": cmd_powercurve,
}


def _float_arg(text: str) -> float:
    """argparse type for every float flag: NaN and +-inf exit 2 naming the flag."""
    try:
        value = finite_float(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if value is None:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_output_args(sub) -> None:
    sub.add_argument("--output", help="output file (default: stdout)")
    sub.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="csv",
        help="output format (default: csv)",
    )


def _add_db_arg(sub) -> None:
    sub.add_argument(
        "--db",
        dest="db_path",
        help="species database JSON (default: $PARAMAG_LOSS_DB or bundled)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramag-loss",
        description="Microwave loss from paramagnetic defect spin transitions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("sweep", help="loss-tangent spectrum over a GHz range")
    _add_db_arg(sub)
    sub.add_argument("--fmin-ghz", type=_float_arg, default=1.0)
    sub.add_argument("--fmax-ghz", type=_float_arg, default=15.0)
    sub.add_argument("--points", type=int, default=1401)
    sub.add_argument("--n-r", type=_float_arg, default=1.0)
    sub.add_argument("--temp-k", type=_float_arg)
    sub.add_argument("--p-over-pc", type=_float_arg)
    _add_output_args(sub)

    sub = subs.add_parser("point", help="loss at a single frequency")
    _add_db_arg(sub)
    sub.add_argument("--freq-ghz", type=_float_arg, required=True)
    sub.add_argument("--n-r", type=_float_arg, default=1.0)
    sub.add_argument("--temp-k", type=_float_arg)
    sub.add_argument("--p-over-pc", type=_float_arg)
    _add_output_args(sub)

    sub = subs.add_parser("emission", help="moment extraction from emission rates")
    sub.add_argument(
        "--table",
        dest="table_path",
        help="emission-line table JSON (default: bundled)",
    )
    _add_output_args(sub)

    sub = subs.add_parser("tempcurve", help="temperature factor over a T range")
    sub.add_argument("--freq-ghz", type=_float_arg, required=True)
    sub.add_argument("--tmin-k", type=_float_arg, default=0.01)
    sub.add_argument("--tmax-k", type=_float_arg, default=10.0)
    sub.add_argument("--points", type=int, default=101)
    _add_output_args(sub)

    sub = subs.add_parser("powercurve", help="loss versus drive power")
    _add_db_arg(sub)
    sub.add_argument("--species", help="species name (default: first in database)")
    sub.add_argument(
        "--freq-ghz",
        type=_float_arg,
        required=True,
        help="detuned probe frequency for the second loss column",
    )
    sub.add_argument("--pmax-over-pc", type=_float_arg, default=100.0)
    sub.add_argument("--points", type=int, default=20)
    sub.add_argument("--n-r", type=_float_arg, default=1.0)
    _add_output_args(sub)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {
        key: value for key, value in vars(args).items() if key in RunConfig.__dataclass_fields__
    }
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        _check_args(cfg)
        return _COMMANDS[cfg.command](cfg)
    except ParamagLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
