"""Seeded inputs for the four benchmark workloads.

Each workload is a *script*: a fixed list of CLI invocations that the
harness runs in order, repeating whole passes of it.  Everything that
varies (grid ends, probe frequencies, error cases, the synthetic line
database) comes from ``random.Random(seed)``, so one seed always yields
the same argv lists and the same input files.

An invocation carries the argv the program receives and a ``spec`` of the
values the output check needs, written out explicitly (including the
documented CLI defaults the argv leaves out), so the check never asks the
program what it was supposed to do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Documented CLI defaults; the check relies on them when an argv omits one.
DEFAULTS = {
    "sweep": {"fmin_ghz": 1.0, "fmax_ghz": 15.0, "points": 1401},
    "tempcurve": {"tmin_k": 0.01, "tmax_k": 10.0, "points": 101},
    "powercurve": {"pmax_over_pc": 100.0, "points": 20},
}

# Sizes of the heavy workloads.  They are scaled so that one pass of a
# script takes a few seconds on a 2-vCPU machine while the predicted
# dominant layer still dominates (see README.md).
BULK_POINTS = 100_000
CURVE_POWER_POINTS = 2_000
CURVE_TEMP_POINTS = 100_000
DENSE_SPECIES = 3
DENSE_LINES = 2_000
DENSE_POINTS = 40_000

ERROR_KINDS = ("unknown_species", "empty_range", "missing_db", "malformed_db", "unwritable_output")


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its argv, the exit code it must give, and what to check."""

    argv: tuple[str, ...]
    expect_exit: int
    spec: dict = field(default_factory=dict)
    output: str | None = None  # --output path, or None for stdout

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.spec.get("fmt", "csv")

    @property
    def pair_key(self) -> str:
        """Identity of the computation: argv without --format and --output.

        CSV and JSON runs with one key must carry identical values.
        """
        kept = []
        skip = False
        for arg in self.argv:
            if skip:
                skip = False
                continue
            if arg in ("--format", "--output"):
                skip = True
                continue
            kept.append(arg)
        return " ".join(kept)


@dataclass
class Workload:
    """A generated script plus the files it reads."""

    name: str
    script: list[Invocation]
    files: dict[str, str]  # path -> text, written before the first run
    warmups: list[tuple[str, ...]]  # one default-size argv per distinct subcommand

    def write_files(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="utf-8")


def _r(x: float, digits: int = 4) -> float:
    """Round a generated value so it reads back from argv unchanged."""
    return float(f"{x:.{digits}g}")


def _out(workdir: Path, tag: str, fmt: str, to_file: bool) -> str | None:
    return str(workdir / f"{tag}.{fmt}") if to_file else None


def _with_output(argv: list[str], fmt: str, output: str | None) -> tuple[str, ...]:
    argv = list(argv)
    if fmt == "json":
        argv += ["--format", "json"]
    if output is not None:
        argv += ["--output", output]
    return tuple(argv)


def _pair(argv: list[str], spec: dict, workdir: Path, tag: str, to_file: bool):
    """The same computation once as CSV and once as JSON."""
    out = []
    for fmt in ("csv", "json"):
        output = _out(workdir, tag, fmt, to_file)
        out.append(
            Invocation(
                argv=_with_output(argv, fmt, output),
                expect_exit=0,
                spec=dict(spec, fmt=fmt),
                output=output,
            )
        )
    return out


def _opt(rng: random.Random, argv: list[str], spec: dict, flag: str, key: str, value, p: float):
    """With probability p pass flag=value, else leave the documented default."""
    if rng.random() < p:
        argv += [flag, repr(value)]
        spec[key] = value


def _sweep_args(rng, db_path=None, fmin=None, fmax=None, points=None, extras=True):
    spec = dict(DEFAULTS["sweep"], command="sweep", db=db_path, n_r=1.0, temp_k=None, p_over_pc=None)
    argv = ["sweep"]
    if db_path is not None:
        argv += ["--db", db_path]
    for flag, key, value in (
        ("--fmin-ghz", "fmin_ghz", fmin),
        ("--fmax-ghz", "fmax_ghz", fmax),
        ("--points", "points", points),
    ):
        if value is not None:
            argv += [flag, repr(value)]
            spec[key] = value
    if extras:
        _opt(rng, argv, spec, "--temp-k", "temp_k", _r(rng.uniform(0.01, 2.0)), 0.5)
        _opt(rng, argv, spec, "--p-over-pc", "p_over_pc", _r(rng.uniform(0.0, 20.0)), 0.5)
        _opt(rng, argv, spec, "--n-r", "n_r", _r(rng.uniform(1.0, 3.5)), 0.3)
    return argv, spec


def _point_args(rng):
    freq = _r(rng.uniform(1.0, 15.0))
    spec = {"command": "point", "db": None, "freq_ghz": freq, "n_r": 1.0, "temp_k": None, "p_over_pc": None}
    argv = ["point", "--freq-ghz", repr(freq)]
    _opt(rng, argv, spec, "--temp-k", "temp_k", _r(rng.uniform(0.01, 2.0)), 0.5)
    _opt(rng, argv, spec, "--p-over-pc", "p_over_pc", _r(rng.uniform(0.0, 20.0)), 0.5)
    _opt(rng, argv, spec, "--n-r", "n_r", _r(rng.uniform(1.0, 3.5)), 0.3)
    return argv, spec


def _tempcurve_args(rng, points=None):
    freq = _r(rng.uniform(1.0, 15.0))
    spec = dict(DEFAULTS["tempcurve"], command="tempcurve", freq_ghz=freq)
    argv = ["tempcurve", "--freq-ghz", repr(freq)]
    if rng.random() < 0.5:
        tmin, tmax = _r(rng.uniform(0.0, 0.05)), _r(rng.uniform(1.0, 20.0))
        argv += ["--tmin-k", repr(tmin), "--tmax-k", repr(tmax)]
        spec.update(tmin_k=tmin, tmax_k=tmax)
    if points is not None:
        argv += ["--points", str(points)]
        spec["points"] = points
    return argv, spec


def _powercurve_args(rng, species=None, points=None):
    freq = _r(rng.uniform(2.0, 14.0))
    spec = dict(DEFAULTS["powercurve"], command="powercurve", db=None, species=species, freq_ghz=freq, n_r=1.0)
    argv = ["powercurve", "--freq-ghz", repr(freq)]
    if species is not None:
        argv += ["--species", species]
    _opt(rng, argv, spec, "--pmax-over-pc", "pmax_over_pc", _r(rng.uniform(1.0, 500.0)), 0.5)
    if points is not None:
        argv += ["--points", str(points)]
        spec["points"] = points
    return argv, spec


def emission_table(rng: random.Random, n_lines: int = 5) -> list[dict]:
    """A seeded emission-line table in the documented input format."""
    table = []
    for i in range(n_lines):
        entry = {
            "label": f"L{i}",
            "lambda_nm": _r(rng.uniform(300.0, 1600.0), 6),
            "a_md_hz": _r(rng.uniform(1.0, 40.0), 6),
        }
        if rng.random() < 0.4:
            entry["n_r"] = _r(rng.uniform(1.0, 2.5), 5)
        table.append(entry)
    return table


def _malformed_dbs(rng: random.Random) -> list[str]:
    """Databases the CLI must reject with exit 2, one defect each."""
    good = {
        "name": "X",
        "two_s": 3,
        "concentration_per_cm3": 1e16,
        "linewidth_mhz": 27.0,
        "transition": [1.5, 0.5],
        "lines": [{"g": 2.0, "freq_ghz": 9.0, "weight": 1.0}],
    }
    bad_weight = json.loads(json.dumps(good))
    bad_weight["lines"][0]["weight"] = 0.5
    missing = {k: v for k, v in good.items() if k != "linewidth_mhz"}
    bad_transition = dict(good, transition=[1.5, -0.5])
    texts = [
        json.dumps([good])[: -rng.randint(2, 20)],  # truncated file
        json.dumps([bad_weight]),
        json.dumps([missing]),
        json.dumps([bad_transition]),
        json.dumps({"name": "X"}),  # not an array
    ]
    return texts


def _error_case(kind: str, rng: random.Random, workdir: Path, tag: str, malformed: list[str]):
    """One invocation that breaks the README contract in a known way."""
    files = {}
    if kind == "unknown_species":
        argv = ["powercurve", "--freq-ghz", "9.0", "--species", f"Zz{rng.randint(0, 99)}"]
        code = 2
    elif kind == "empty_range":
        hi = _r(rng.uniform(1.0, 15.0))
        lo = hi if rng.random() < 0.3 else _r(hi + rng.uniform(0.1, 5.0))
        argv = ["sweep", "--fmin-ghz", repr(lo), "--fmax-ghz", repr(hi)]
        code = 2
    elif kind == "missing_db":
        argv = ["point", "--freq-ghz", "4.5", "--db", str(workdir / f"{tag}-absent.json")]
        code = 2
    elif kind == "malformed_db":
        path = str(workdir / f"{tag}-malformed.json")
        files[path] = rng.choice(malformed)
        argv = [rng.choice(["sweep", "point"]), "--db", path]
        if argv[0] == "point":
            argv += ["--freq-ghz", "4.5"]
        code = 2
    else:  # unwritable_output
        argv = ["sweep", "--output", str(workdir / f"{tag}-no-such-dir" / "out.csv")]
        code = 3
    return Invocation(argv=tuple(argv), expect_exit=code, spec={"command": "error", "kind": kind}), files


WARMUPS = {
    "sweep": ("sweep",),
    "point": ("point", "--freq-ghz", "4.5"),
    "emission": ("emission",),
    "tempcurve": ("tempcurve", "--freq-ghz", "11.45"),
    "powercurve": ("powercurve", "--freq-ghz", "11.72"),
}


def _finish(name: str, script: list[Invocation], files: dict[str, str]) -> Workload:
    commands = []
    for inv in script:
        if inv.command not in commands:
            commands.append(inv.command)
    return Workload(name, script, files, [WARMUPS[c] for c in commands])


def cli_small(seed: int, workdir: Path) -> Workload:
    """All five subcommands at default sizes, CSV and JSON, plus 3 user errors."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    script: list[Invocation] = []
    argv, spec = _sweep_args(rng, fmin=_r(rng.uniform(0.5, 3.0)), fmax=_r(rng.uniform(12.0, 18.0)))
    script += _pair(argv, spec, workdir, "sweep", rng.random() < 0.5)
    argv, spec = _point_args(rng)
    script += _pair(argv, spec, workdir, "point", rng.random() < 0.5)
    argv, spec = ["emission"], {"command": "emission", "table": None}
    if rng.random() < 0.5:
        path = str(workdir / "emission-table.json")
        files[path] = json.dumps(emission_table(rng), indent=1)
        argv, spec = ["emission", "--table", path], {"command": "emission", "table": path}
    script += _pair(argv, spec, workdir, "emission", rng.random() < 0.5)
    argv, spec = _tempcurve_args(rng)
    script += _pair(argv, spec, workdir, "tempcurve", rng.random() < 0.5)
    argv, spec = _powercurve_args(rng, species=rng.choice([None, "Cr", "Fe", "V"]))
    script += _pair(argv, spec, workdir, "powercurve", rng.random() < 0.5)
    malformed = _malformed_dbs(rng)
    for i, kind in enumerate(rng.sample(ERROR_KINDS, 3)):
        inv, extra = _error_case(kind, rng, workdir, f"err{i}", malformed)
        script.append(inv)
        files.update(extra)
    rng.shuffle(script)
    return _finish("cli-small", script, files)


def spectrum_bulk(seed: int, workdir: Path, points: int = BULK_POINTS) -> Workload:
    """The bundled database on a ~1e5-point grid as CSV and as JSON, then as CSV on a second grid.

    With two CSV sweeps to one JSON sweep the median invocation time falls
    inside the CSV cluster, not between the two formats' clusters.
    """
    rng = random.Random(seed)
    script = []
    for tag, both_formats in (("bulk-a", True), ("bulk-b", False)):
        argv, spec = _sweep_args(
            rng,
            fmin=_r(rng.uniform(0.8, 1.2), 6),
            fmax=_r(rng.uniform(14.5, 15.5), 6),
            points=points,
            extras=False,
        )
        pair = _pair(argv, spec, workdir, tag, True)
        script += pair if both_formats else pair[:1]
    return _finish("spectrum-bulk", script, {})


def curve_scan(
    seed: int,
    workdir: Path,
    power_points: int = CURVE_POWER_POINTS,
    temp_points: int = CURVE_TEMP_POINTS,
) -> Workload:
    """powercurve for the 8-line V species in both formats, and a long tempcurve.

    Two of the three invocations are powercurves of one length, so the
    median invocation time stays inside that cluster instead of falling
    between two clusters.
    """
    rng = random.Random(seed)
    argv, spec = _powercurve_args(rng, species="V", points=power_points)
    script = _pair(argv, spec, workdir, "power", True)
    argv, spec = _tempcurve_args(rng, points=temp_points)
    output = str(workdir / "temp.csv")
    script.append(Invocation(_with_output(argv, "csv", output), 0, dict(spec, fmt="csv"), output))
    return _finish("curve-scan", script, {})


def dense_database(
    rng: random.Random, n_species: int = DENSE_SPECIES, n_lines: int = DENSE_LINES
) -> list[dict]:
    """Species with thousands of sub-lines each, weights summing to 1."""
    species = []
    for k in range(n_species):
        two_s = rng.choice([1, 3, 5, 7])
        m_i = two_s / 2.0 - rng.randrange(two_s)
        centre = rng.uniform(3.0, 13.0)
        spread = rng.uniform(0.2, 1.5)
        raw = [rng.uniform(0.1, 1.0) for _ in range(n_lines)]
        total = sum(raw)
        lines = [
            {
                "g": round(rng.uniform(1.9, 2.1), 6),
                "freq_ghz": round(centre + rng.gauss(0.0, spread), 9),
                "weight": w / total,
            }
            for w in raw
        ]
        for line in lines:  # keep every line inside the positive band
            line["freq_ghz"] = max(line["freq_ghz"], 0.05)
        species.append(
            {
                "name": f"M{k}",
                "two_s": two_s,
                "concentration_per_cm3": _r(rng.uniform(1e15, 1e17), 6),
                "linewidth_mhz": _r(rng.uniform(5.0, 60.0), 6),
                "linewidth_convention": rng.choice(["cyclic_times_2pi", "angular_rate"]),
                "transition": [m_i, m_i - 1.0],
                "lines": lines,
            }
        )
    return species


def dense_manifold(
    seed: int,
    workdir: Path,
    n_species: int = DENSE_SPECIES,
    n_lines: int = DENSE_LINES,
    points: int = DENSE_POINTS,
) -> Workload:
    """A synthetic thousands-of-lines database swept twice as CSV."""
    rng = random.Random(seed)
    db_path = str(workdir / "dense.json")
    files = {db_path: json.dumps(dense_database(rng, n_species, n_lines))}
    script = []
    for tag in ("dense-a", "dense-b"):
        argv, spec = _sweep_args(
            rng,
            db_path=db_path,
            fmin=_r(rng.uniform(1.0, 2.0), 6),
            fmax=_r(rng.uniform(14.0, 15.0), 6),
            points=points,
            extras=False,
        )
        output = str(workdir / f"{tag}.csv")
        script.append(
            Invocation(_with_output(argv, "csv", output), 0, dict(spec, fmt="csv"), output)
        )
    return _finish("dense-manifold", script, files)


WORKLOADS = {
    "cli-small": cli_small,
    "spectrum-bulk": spectrum_bulk,
    "curve-scan": curve_scan,
    "dense-manifold": dense_manifold,
}
