"""End-to-end CLI behavior: formats, determinism, and exit codes.

Most cases run cli.main in process.  The process entry, cli.run, runs the
way a program is started: `python -m paramagloss.cli` and
runpy.run_module(..., run_name="__main__"), which leaves the calling
script as sys.modules["__main__"], must write the golden bytes, and
`python -m cProfile -o` must write them and a profile that pstats loads;
the console script's run() gives exit codes 0, 2 and 3.  run ends the
process with os._exit once the exit hooks have run and what they wrote is
flushed.  A full device exits 3, and so does --help on one, with a
buffered or an unbuffered stdout, and with stderr on it too.  run takes
the interpreter's own exit instead when a thread is alive, under -i, for a
non-int exit code, and under sys.settrace or sys.setprofile.  An
in-process main leaves the collector as it found it.
"""

import gc
import json
import os
import pstats
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_json_numbers_are_csv_cells, perfbench_module, run_cli
from golden_cases import CASES, GOLDEN_DIR
from paramagloss import cli, ensemble, ioformat

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

CR_45 = 8.97232140725922e-09
FE_45 = 2.1128703931021166e-08
V_45 = 1.9480116532842068e-09
FLOAT_MAX = "1.7976931348623157e308"


def _clean_env(**extra):
    env = dict(os.environ)
    env.pop("PARAMAG_LOSS_DB", None)
    env.update(extra)
    return env


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _column(header, rows, name):
    i = header.index(name)
    return np.array([float(row[i]) for row in rows])


def test_sweep_default_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["sweep", "--output", str(out)], env=_clean_env())
    assert code == 0
    header, rows = _parse_csv(out.read_text())
    assert header == ["freq_ghz", "Cr", "Fe", "V", "total"]
    assert len(rows) == 1401
    row_45 = next(row for row in rows if row[0] == "4.50000000e+00")
    assert ",".join(row_45) in (GOLDEN_DIR / "sweep_101.csv").read_text().splitlines()
    cr = _column(header, rows, "Cr")
    freqs = _column(header, rows, "freq_ghz")
    assert cr[np.argmin(np.abs(freqs - 4.5))] == pytest.approx(9.0e-9, rel=0.05)
    peak = int(np.argmax(cr))
    assert freqs[peak] == pytest.approx(11.45, abs=1e-9)
    assert cr[peak] == pytest.approx(2.4e-3, rel=0.10)


def test_sweep_rejects_single_point():
    code, _, err = run_cli(["sweep", "--points", "1"], env=_clean_env())
    assert code == 2
    assert "points" in err


def test_sweep_rejects_huge_grid():
    code, _, err = run_cli(["sweep", "--points", "10000001"], env=_clean_env())
    assert code == 2
    assert "points" in err


def test_point_values_and_metadata():
    code, out, _ = run_cli(["point", "--freq-ghz", "4.5"], env=_clean_env())
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["key", "value"]
    values = {row[0]: row[1] for row in rows}
    assert float(values["Cr"]) == pytest.approx(CR_45, rel=1e-8)
    assert float(values["Fe"]) == pytest.approx(FE_45, rel=1e-8)
    assert float(values["V"]) == pytest.approx(V_45, rel=1e-8)
    assert float(values["total"]) == pytest.approx(CR_45 + FE_45 + V_45, rel=1e-8)
    assert values["Cr.linewidth_convention"] == "cyclic_times_2pi"
    assert float(values["Cr.gamma_rad_per_s"]) == pytest.approx(2 * np.pi * 27e6, rel=1e-8)
    assert values["V.weights"].count(";") == 7
    assert float(values["n_r"]) == 1.0


def test_point_resonance_dominance():
    code, out, _ = run_cli(["point", "--freq-ghz", "11.45"], env=_clean_env())
    assert code == 0
    _, rows = _parse_csv(out)
    values = {row[0]: float(row[1]) for row in rows if row[0] in ("Cr", "total")}
    others = values["total"] - values["Cr"]
    assert values["Cr"] > 100.0 * others


def test_point_rejects_bad_frequency():
    code, _, _ = run_cli(["point", "--freq-ghz", "0"], env=_clean_env())
    assert code == 2
    code, _, _ = run_cli(["point", "--freq-ghz", "-3"], env=_clean_env())
    assert code == 2


def test_emission_default_table():
    code, out, _ = run_cli(["emission"], env=_clean_env())
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["label", "lambda_nm", "freq_thz", "a_md_hz", "m_sq", "m_abs"]
    assert [row[0] for row in rows] == ["Gd", "Sm", "Eu", "Er", "Dy"]
    published = {"Gd": 0.0108, "Sm": 0.0096, "Eu": 0.1044, "Er": 0.3135, "Dy": 0.2858}
    m_sq = _column(header, rows, "m_sq")
    for row, value in zip(rows, m_sq):
        assert value == pytest.approx(published[row[0]], rel=0.02)


def test_emission_empty_table(tmp_path):
    table = tmp_path / "empty.json"
    table.write_text("[]")
    code, out, _ = run_cli(["emission", "--table", str(table)])
    assert code == 0
    assert out == "label,lambda_nm,freq_thz,a_md_hz,m_sq,m_abs\n"


def test_emission_malformed_table(tmp_path):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps([{"label": "Xx", "lambda_nm": 500.0}]))
    code, _, err = run_cli(["emission", "--table", str(table)])
    assert code == 2
    assert "Xx" in err

    table.write_text(json.dumps([{"label": "Nn", "lambda_nm": float("nan"), "a_md_hz": 1.0}]))
    code, out, err = run_cli(["emission", "--table", str(table)])
    assert code == 2
    assert out == ""
    assert "error:" in err and "Nn" in err and "lambda_nm" in err
    assert "Traceback" not in err


def test_tempcurve_limits():
    code, out, _ = run_cli(
        ["tempcurve", "--freq-ghz", "11.45", "--tmin-k", "0.01", "--tmax-k", "10"],
        env=_clean_env(),
    )
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["temp_k", "w_factor", "tanh_factor"]
    w = _column(header, rows, "w_factor")
    th = _column(header, rows, "tanh_factor")
    assert w[0] == pytest.approx(1.0, abs=1e-9)
    assert 0.25 < w[-1] < 0.28
    assert np.all(np.diff(w) <= 0.0)
    assert th[0] == pytest.approx(1.0, abs=1e-9)
    assert th[-1] < 0.05
    assert np.all(np.diff(th) < 0.0)


def test_tempcurve_rejects_bad_range():
    code, _, _ = run_cli(
        ["tempcurve", "--freq-ghz", "11.45", "--tmin-k", "5", "--tmax-k", "1"]
    )
    assert code == 2


def test_powercurve_monotonicity():
    # 11.72 GHz sits ten (unbroadened) linewidths above the Cr resonance.
    code, out, _ = run_cli(
        ["powercurve", "--freq-ghz", "11.72", "--points", "20"], env=_clean_env()
    )
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["p_over_pc", "loss_on_resonance", "loss_detuned"]
    assert len(rows) == 20
    peak = _column(header, rows, "loss_on_resonance")
    wing = _column(header, rows, "loss_detuned")
    assert np.all(np.diff(peak) < 0.0)
    assert np.all(np.diff(wing) > 0.0)


def test_powercurve_species_selection(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(
        ["powercurve", "--freq-ghz", "12.30", "--species", "Fe", "--format", "json"],
        env=_clean_env(),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["species"] == "Fe"
    assert payload["resonance_ghz"] == pytest.approx(12.03, rel=1e-9)
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for argv, fault in [
        (["--species", "Nb"], "species 'Nb' not in database"),
        (["--species", "Nb", "--db", str(empty)], "species 'Nb' not in database"),
        (["--db", str(empty)], "database holds no species"),
    ]:
        assert cli.main(["powercurve", "--freq-ghz", "12.30", *argv]) == 2
        assert capsys.readouterr().err == f"error: {fault}\n"


def test_powercurve_takes_no_refractive_index(capsys):
    # n_r cancels from the loss and powercurve writes no metadata to echo it in.
    with pytest.raises(SystemExit) as exc:
        cli.main(["powercurve", "--freq-ghz", "11.72", "--n-r", "1.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-r 1.5" in capsys.readouterr().err


def test_repeat_runs_byte_identical(tmp_path):
    env = _clean_env()
    for args in (
        ["sweep", "--fmin-ghz", "4", "--fmax-ghz", "13", "--points", "301"],
        ["point", "--freq-ghz", "4.5"],
        ["emission"],
    ):
        first = tmp_path / "a.out"
        second = tmp_path / "b.out"
        code1, _, _ = run_cli(args + ["--output", str(first)], env=env)
        code2, _, _ = run_cli(args + ["--output", str(second)], env=env)
        assert code1 == 0 and code2 == 0
        assert first.read_bytes() == second.read_bytes()


def test_csv_and_json_encode_same_values():
    base = ["sweep", "--fmin-ghz", "4", "--fmax-ghz", "5", "--points", "51"]
    csv_text = run_cli(base, env=_clean_env())[1]
    json_text = run_cli([*base, "--format", "json"], env=_clean_env())[1]
    assert_json_numbers_are_csv_cells(csv_text, json_text)
    assert json.loads(json_text)["metadata"]["species"][2]["weights"] == [0.125] * 8


def test_unwritable_output_exit_code(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run_cli(
        ["sweep", "--points", "11", "--output", str(missing_dir)], env=_clean_env()
    )
    assert code == 3
    assert "cannot write" in err


def test_closed_stdout_exit_code():
    # Far more rows than a pipe buffers, so writing fails once the reader goes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "paramagloss.cli", "sweep", "--points", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_clean_env(),
    )
    assert proc.stdout.readline() == b"freq_ghz,Cr,Fe,V,total\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 3
    assert "Traceback" not in err and "Exception ignored" not in err
    assert "cannot write stdout" in err


def test_closed_stdout_descriptor_exit_code():
    # With file descriptor 1 closed at start-up, Python sets sys.stdout to None.
    cmd = shlex.join([sys.executable, "-m", "paramagloss.cli", "point", "--freq-ghz", "4.5"])
    proc = subprocess.run(
        cmd + " >&-", shell=True, stderr=subprocess.PIPE, text=True, env=_clean_env(), timeout=120
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "import paramagloss, paramagloss.cli\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_clean_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_malformed_database_names_species(tmp_path):
    entry = {
        "name": "Fe",
        "two_s": 5,
        "concentration_per_cm3": 1.0e17,
        "transition": [0.5, 1.5],
        "lines": [{"g": 2.02, "freq_ghz": 12.03, "weight": 1.0}],
    }
    db = tmp_path / "bad.json"
    db.write_text(json.dumps([entry]))
    code, _, err = run_cli(["point", "--db", str(db), "--freq-ghz", "4.5"])
    assert code == 2
    assert "Fe" in err and "linewidth_mhz" in err


def test_too_deeply_nested_input_exits_2(tmp_path):
    """A file nested deeper than json can decode is bad input, not a crash."""
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 1000)
    for argv, env in (
        (["point", "--freq-ghz", "4.5", "--db", str(nested)], _clean_env()),
        (["point", "--freq-ghz", "4.5"], _clean_env(PARAMAG_LOSS_DB=str(nested))),
        (["emission", "--table", str(nested)], _clean_env()),
    ):
        code, out, err = run_cli(argv, env=env)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and f"{nested} is not valid JSON" in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "name, env, output, shown",
    [
        ("Cr,x", {}, False, "'Cr,x'"),  # would print six names over five columns
        ("Cré", {"PYTHONIOENCODING": "ascii"}, False, "'Cr\\xe9'"),
        ("Cr\udc80", {}, True, "'Cr\\udc80'"),  # a lone surrogate, legal as a JSON escape
    ],
    ids=["comma", "non_ascii_stdout", "surrogate_output"],
)
def test_unwritable_species_name_exits_2(tmp_path, fmt, name, env, output, shown):
    with open(ioformat.default_db_path(), encoding="utf-8") as fh:
        db = json.load(fh)
    db[0]["name"] = name
    path = tmp_path / "names.json"
    path.write_text(json.dumps(db))
    argv = [sys.executable, "-m", "paramagloss.cli", "sweep", "--points", "2", "--db", str(path)]
    argv += ["--format", fmt] + (["--output", str(tmp_path / "o.csv")] if output else [])
    proc = subprocess.run(argv, capture_output=True, text=True, env=_clean_env(**env), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    rule = "must be non-empty printable ASCII without ',', '\"' or ';'"
    assert proc.stderr == f"error: species {shown}: field 'name' {rule}\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "command", [["point", "--freq-ghz=4.5"], ["sweep", "--points=2"]], ids=["point", "sweep"]
)
@pytest.mark.parametrize("name", ["total", "freq_ghz", "Fe.weights"])
def test_species_named_like_an_output_key_exits_2(tmp_path, capsys, command, name):
    # Such a name would print two rows with one key, or a header naming
    # 'total' twice.
    with open(ioformat.default_db_path(), encoding="utf-8") as fh:
        db = json.load(fh)
    db[0]["name"] = name
    path = tmp_path / "names.json"
    path.write_text(json.dumps(db))
    assert cli.main([*command, f"--db={path}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: species {name!r}: field 'name' must contain no '.'")
    assert err.count("\n") == 1


def test_database_env_var(tmp_path):
    entry = {
        "name": "Cr",
        "two_s": 3,
        "concentration_per_cm3": 2.0e17,
        "linewidth_mhz": 27.0,
        "linewidth_convention": "cyclic_times_2pi",
        "transition": [1.5, 0.5],
        "lines": [{"g": 1.984, "freq_ghz": 11.45, "weight": 1.0}],
    }
    db = tmp_path / "doubled.json"
    db.write_text(json.dumps([entry]))
    env = _clean_env(PARAMAG_LOSS_DB=str(db))
    code, out, _ = run_cli(["point", "--freq-ghz", "4.5"], env=env)
    assert code == 0
    _, rows = _parse_csv(out)
    values = {row[0]: row[1] for row in rows}
    assert float(values["Cr"]) == pytest.approx(2.0 * CR_45, rel=1e-8)
    assert "Fe" not in values


def test_db_flag_overrides_env(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            [
                {
                    "name": "Cr",
                    "two_s": 3,
                    "concentration_per_cm3": 1.0e17,
                    "linewidth_mhz": 27.0,
                    "transition": [1.5, 0.5],
                    "lines": [{"g": 1.984, "freq_ghz": 11.45, "weight": 1.0}],
                }
            ]
        )
    )
    env = _clean_env(PARAMAG_LOSS_DB=str(tmp_path / "missing.json"))
    code, out, _ = run_cli(
        ["point", "--db", str(good), "--freq-ghz", "4.5"], env=env
    )
    assert code == 0
    _, rows = _parse_csv(out)
    values = {row[0]: row[1] for row in rows}
    assert float(values["Cr"]) == pytest.approx(CR_45, rel=1e-8)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["point", "--freq-ghz", "nan"], "--freq-ghz"),
        (["point", "--freq-ghz", "4.5", "--temp-k", "nan"], "--temp-k"),
        (["point", "--freq-ghz", "4.5", "--p-over-pc", "nan"], "--p-over-pc"),
        (["point", "--freq-ghz", "4.5", "--n-r", "nan"], "--n-r"),
        (["sweep", "--fmax-ghz", "inf"], "--fmax-ghz"),
        (["powercurve", "--freq-ghz", "9.0", "--pmax-over-pc", "inf"], "--pmax-over-pc"),
        (["tempcurve", "--freq-ghz", "11.45", "--tmax-k", "inf"], "--tmax-k"),
        (["tempcurve", "--freq-ghz", "inf"], "--freq-ghz"),
        # Finite values outside a flag's range are rejected by the same type.
        (["point", "--freq-ghz", "0"], "--freq-ghz"),
        (["point", "--freq-ghz", "4.5", "--temp-k", "-1"], "--temp-k"),
        (["point", "--freq-ghz", "4.5", "--p-over-pc", "-1"], "--p-over-pc"),
        (["point", "--freq-ghz", "4.5", "--n-r", "0.5"], "--n-r"),
        (["sweep", "--points", "1"], "--points"),
        (["tempcurve", "--freq-ghz", "11.45", "--tmin-k", "-1"], "--tmin-k"),
        (["powercurve", "--freq-ghz", "9", "--pmax-over-pc", "0"], "--pmax-over-pc"),
        (["tempcurve", "--freq-ghz", "-3"], "--freq-ghz"),
    ],
)
def test_non_finite_flag_rejected(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and f"argument {flag}: " in captured.err


@pytest.mark.parametrize("command", ["point", "powercurve"])
def test_probe_frequency_past_rate_bound_names_flag(command, capsys):
    # 1e300 GHz is finite but its angular frequency overflows species_loss's bound.
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--freq-ghz", "1e300"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --freq-ghz: " in captured.err and "got '1e300'" in captured.err
    # tempcurve's thermal factors take their limit there instead.
    assert cli.main(["tempcurve", "--freq-ghz", "1e300", "--points", "2"]) == 0


COMMANDS = ("sweep", "point", "emission", "tempcurve", "powercurve")
# Each shared flag: its destination, its default, a value and the parsed
# value, and the subcommands that accept it.
SHARED_FLAGS = {
    "--db": ("db_path", None, "x.json", "x.json", {"sweep", "point", "powercurve"}),
    "--n-r": ("n_r", 1.0, "2.5", 2.5, {"sweep", "point"}),
    "--temp-k": ("temp_k", None, "0.5", 0.5, {"sweep", "point"}),
    "--p-over-pc": ("p_over_pc", None, "3", 3.0, {"sweep", "point"}),
    "--output": ("output", None, "out.csv", "out.csv", set(COMMANDS)),
    "--format": ("fmt", "csv", "json", "json", set(COMMANDS)),
}


@pytest.mark.parametrize("flag", SHARED_FLAGS)
@pytest.mark.parametrize("command", COMMANDS)
def test_shared_flags_accepted_where_declared(command, flag, capsys):
    dest, default, text, value, commands = SHARED_FLAGS[flag]
    argv = [command] if command in ("sweep", "emission") else [command, "--freq-ghz", "4.5"]
    parser = cli.build_parser()
    if command in commands:
        assert getattr(parser.parse_args(argv), dest) == default
        assert getattr(parser.parse_args([*argv, flag, text]), dest) == value
    else:
        assert not hasattr(parser.parse_args(argv), dest)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, flag, text])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {text}" in capsys.readouterr().err


def _huge_species_db(tmp_path, names):
    """Species whose peak losses are ~1.2e308 each: finite alone, infinite summed."""
    entries = [
        {
            "name": name,
            "two_s": 3,
            "concentration_per_cm3": 1e290,
            "linewidth_mhz": 5.35e-37,
            "transition": [1.5, 0.5],
            "lines": [{"g": 1.984, "freq_ghz": 11.45, "weight": 1.0}],
        }
        for name in names
    ]
    db = tmp_path / f"{''.join(names)}.json"
    db.write_text(json.dumps(entries))
    return str(db)


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--freq-ghz", "11.45"],
        ["point", "--freq-ghz", "11.45", "--format", "json"],
        ["sweep", "--fmin-ghz", "11.45", "--fmax-ghz", "12", "--points", "3"],
    ],
)
def test_database_total_overflow_rejected(argv, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--db", _huge_species_db(tmp_path, ["A", "B"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: species ") and captured.err.count("\n") == 1
    assert "'A'" in captured.err and "'B'" in captured.err
    for name in ("A", "B"):
        assert cli.main([*argv, "--db", _huge_species_db(tmp_path, [name])]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "inf" not in captured.out


def test_usage_errors():
    code, _, _ = run_cli([])
    assert code == 2
    code, _, _ = run_cli(["warp"])
    assert code == 2
    code, _, _ = run_cli(["sweep", "--no-such-flag"])
    assert code == 2


def test_subnormal_temperature_is_cold_limit():
    # kB T underflows to 0 for T = 1e-320 K: the T -> 0 limit, not a crash.
    argv = ["point", "--freq-ghz", "4.5", "--temp-k", "1e-320"]
    code, out, err = run_cli(argv, env=_clean_env())
    assert code == 0
    assert "Traceback" not in err
    _, rows = _parse_csv(out)
    values = {row[0]: row[1] for row in rows}
    assert float(values["Cr"]) == pytest.approx(CR_45, rel=1e-8)


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (["sweep", "--fmax-ghz", "1e308", "--points", "3"], "angular frequency"),
        (
            ["powercurve", "--freq-ghz", "9", "--pmax-over-pc", "1e308", "--points", "3"],
            "power-broadened linewidth",
        ),
    ],
)
def test_finite_overflow_rejected(argv, quantity, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and quantity in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["powercurve", "--freq-ghz", "1", "--pmax-over-pc", FLOAT_MAX, "--points", "20"], 2),
        (["tempcurve", "--freq-ghz", "4.5", "--tmax-k", FLOAT_MAX, "--points", "20"], 0),
    ],
)
def test_grid_ending_at_float_max_warns_nothing(argv, code, capsys):
    # linspace overflows on its last step here before it stores the stop value.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        assert captured.out.splitlines()[-1].startswith("1.79769313e+308,")
    else:
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_powercurve_builds_couplings_once(monkeypatch, tmp_path):
    calls = []
    coupling = ensemble.line_coupling_sq

    def counting(*args):
        calls.append(args)
        return coupling(*args)

    evaluated = []
    species_loss = cli.species_loss

    def evaluating(sp, omega, **kwargs):
        evaluated.append((sp.name, np.shape(omega), np.shape(kwargs["power"])))
        return species_loss(sp, omega, **kwargs)

    monkeypatch.setattr(ensemble, "line_coupling_sq", counting)
    monkeypatch.setattr(cli, "species_loss", evaluating)
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    argv = [
        "powercurve", "--freq-ghz", "9", "--species", "V", "--points", "2000",
        "--output", str(tmp_path / "power.csv"),
    ]
    assert cli.main(argv) == 0
    built = len(calls)
    db = ensemble.load_species_db(ioformat.default_db_path())
    assert sum(len(sp.lines) for sp in db) == 10
    # One array call per species covers all of its lines.
    assert built == len(db) == 3
    # Both loss columns come from one evaluation over the (points, 2) grid.
    assert evaluated == [("V", (2,), (2000, 1))]


def test_traced_entry_points_resolve():
    # The benchmark tracer wraps each (module, attribute) of ENTRY_POINTS and
    # records a name that no longer resolves as an absent layer; moving a
    # function must keep the name its callers look up.  A fresh interpreter
    # has bound none of cli's command chains yet.
    spans = perfbench_module("spans")
    entry_points = [(module, attr) for _, module, attr, _ in spans.ENTRY_POINTS]
    code = (
        "import importlib, sys\n"
        f"for module_name, attr in {entry_points!r}:\n"
        "    fn = getattr(importlib.import_module(module_name), attr, None)\n"
        "    assert callable(fn), (module_name, attr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_clean_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_wrapper_bound_before_a_run_is_kept(tmp_path, monkeypatch):
    # The tracer installs its wrappers before the first run binds the chain.
    calls = []
    original = cli.sweep

    def wrapper(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "sweep", wrapper)
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    assert cli.main(["sweep", "--points", "11", "--output", str(tmp_path / "s.csv")]) == 0
    assert cli.sweep is wrapper
    assert calls == [(1.0, 15.0)]


# As under cProfile and trace, sys.modules["__main__"] stays the calling
# script while cli runs under that name.
RUN_AS_MAIN = "import runpy\nrunpy.run_module('paramagloss.cli', run_name='__main__')\n"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("point_4p5.csv", ["-m", "paramagloss.cli", *CASES["point_4p5"]]),
        ("sweep_101.json", ["-m", "paramagloss.cli", *CASES["sweep_101"], "--format", "json"]),
        ("point_4p5.csv", ["-c", RUN_AS_MAIN, *CASES["point_4p5"]]),
    ],
)
def test_module_run_writes_golden_bytes(golden, argv):
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        env=_clean_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / golden).read_bytes()


# The console script that pip writes for pyproject's [project.scripts] entry.
CONSOLE_SCRIPT = "import sys\nfrom paramagloss.cli import run\nsys.exit(run())\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["point", "--freq-ghz", "4.5"], 0),
        (["point", "--freq-ghz", "nan"], 2),
        (["sweep", "--fmin-ghz", "5", "--fmax-ghz", "3"], 2),
        (["sweep", "--output", "/nonexistent-dir/x.csv"], 3),
    ],
)
def test_console_script_exit_codes(argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT, *argv],
        capture_output=True,
        text=True,
        env=_clean_env(),
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def _buffered_env():
    # Without PYTHONUNBUFFERED, stdout is block-buffered: what is written
    # reaches the descriptor only when the stream is flushed.
    env = _clean_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


# A script prefix whose __main__ holds an object that writes "teardown" when
# freed: the line shows that the run took the interpreter's own shutdown,
# which frees the modules' objects, and not run's os._exit, which frees none.
WITNESS = (
    "import os, sys\n"
    "class Witness:\n"
    "    def __del__(self, write=os.write):\n"
    "        write(2, b'teardown\\n')\n"
    "witness = Witness()\n"
)


def test_module_run_ends_after_its_exit_hooks():
    # The hook registered before the module runs writes after the output, and
    # run flushes that too; the process then ends inside run, with no
    # teardown, so no line after run_module runs.
    code = WITNESS + (
        "import atexit, runpy\n"
        "atexit.register(lambda: print('hook'))\n"
        "sys.argv = ['paramag-loss', 'point', '--freq-ghz', '4.5']\n"
        "runpy.run_module('paramagloss.cli', run_name='__main__', alter_sys=True)\n"
        "print('after run_module', file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=_buffered_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN_DIR / "point_4p5.csv").read_bytes() + b"hook\n"


def _witnessed(script, *argv):
    """Run a console script that calls cli.run, after WITNESS."""
    return subprocess.run(
        [sys.executable, "-c", WITNESS + "from paramagloss import cli\n" + script, *argv],
        capture_output=True,
        text=True,
        env=_buffered_env(),
        timeout=120,
    )


def test_live_thread_takes_the_normal_exit():
    # The thread outlives run: it waits for shutdown to stop the main thread,
    # then writes, and the interpreter joins it before exiting.
    script = (
        "import threading, time\n"
        "def late():\n"
        "    while threading.main_thread().is_alive():\n"
        "        time.sleep(0.01)\n"
        "    print('thread done', file=sys.stderr, flush=True)\n"
        "threading.Thread(target=late).start()\n"
        "sys.exit(cli.run())\n"
    )
    proc = _witnessed(script, *CASES["point_4p5"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "thread done\nteardown\n"
    assert proc.stdout == (GOLDEN_DIR / "point_4p5.csv").read_text()


@pytest.mark.parametrize("install", ["sys.settrace", "sys.setprofile"])
def test_tracer_takes_the_normal_exit(install):
    # A tracer or profiler writes its results at shutdown, after run returns.
    script = f"{install}(lambda *args: None)\nsys.exit(cli.run())\n"
    proc = _witnessed(script, *CASES["point_4p5"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "teardown\n"
    assert proc.stdout == (GOLDEN_DIR / "point_4p5.csv").read_text()


def test_profiled_module_run_writes_its_profile(tmp_path):
    profile = tmp_path / "prof.out"
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "paramagloss.cli",
         *CASES["point_4p5"]],
        capture_output=True,
        env=_clean_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "point_4p5.csv").read_bytes()
    stats = pstats.Stats(str(profile)).stats
    assert any(func[2] == "cmd_point" for func in stats)


def test_non_int_exit_code_takes_the_normal_exit():
    # The interpreter prints the message, then runs the exit hooks.
    script = (
        "import atexit\n"
        "atexit.register(lambda: print('hook', file=sys.stderr))\n"
        "def main():\n"
        "    raise SystemExit('stopped')\n"
        "cli.main = main\n"
        "sys.exit(cli.run())\n"
    )
    proc = _witnessed(script)
    assert proc.returncode == 1
    assert proc.stderr == "stopped\nhook\nteardown\n"


def test_interactive_flag_reaches_the_prompt():
    proc = subprocess.run(
        [sys.executable, "-i", "-m", "paramagloss.cli", *CASES["point_4p5"]],
        input="import sys; sys.stderr.write('at the prompt\\n')\n",
        capture_output=True,
        text=True,
        env=_buffered_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "at the prompt\n" in proc.stderr
    assert proc.stdout.startswith((GOLDEN_DIR / "point_4p5.csv").read_text())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_device_exit_code(unbuffered):
    cmd = shlex.join([sys.executable, "-m", "paramagloss.cli", "point", "--freq-ghz", "4.5"])
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        cmd + " > /dev/full", shell=True, stderr=subprocess.PIPE, text=True, env=env, timeout=120
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_to_full_device_exit_code(unbuffered):
    # Buffered, the help waits in stdout's buffer and run's flush fails;
    # unbuffered, its write fails inside argparse, which would drop the error.
    cmd = shlex.join([sys.executable, "-m", "paramagloss.cli", "--help"])
    env = _buffered_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        cmd + " > /dev/full", shell=True, stderr=subprocess.PIPE, text=True, env=env, timeout=120
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["point", "--freq-ghz", "4.5"], ["--help"]], ids=["point", "help"])
def test_full_device_on_stdout_and_stderr_exit_code(argv):
    # The report cannot be written either, so the exit code is all there is.
    cmd = shlex.join([sys.executable, "-m", "paramagloss.cli", *argv])
    proc = subprocess.run(cmd + " > /dev/full 2>&1", shell=True, env=_clean_env(), timeout=120)
    assert proc.returncode == 3


def test_main_leaves_the_heap_unfrozen(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["point", "--freq-ghz", "4.5", "--output", str(tmp_path / "p.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_pyproject_script_is_run():
    # A plain read of the [project.scripts] table; tomllib is not in Python 3.10.
    text = PYPROJECT.read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S).group(1)
    scripts = re.findall(r"^(\S+) = \"(.+)\"$", table, re.M)
    assert scripts == [("paramag-loss", "paramagloss.cli:run")]
