"""Property tests of the CLI exit-code contract over generated argv and databases.

For any argv, every subcommand exits 0, 2 or 3 without a traceback.  On
exit 0 every number it prints is finite, the JSON parses under a parser
that rejects NaN and Infinity, and the CSV and JSON carry the same values.
For a database with one field of one species or line replaced, `point` and
`sweep` exit 0 or 2 without a traceback or a RuntimeWarning, and an exit 2
prints one line naming that species and field; a species or line replaced
by a non-object exits 2.  `emission` keeps the same contract for an
emission table with one field of one line, or a whole line, replaced.  Species
names and emission labels are drawn as any text, and output goes to a UTF-8
stream, an ASCII stream (what PYTHONIOENCODING=ascii gives stdout) or an
--output file: a name that is not printable ASCII without ',', '"' or ';'
exits 2 naming the field, and so does a species name with a '.' or equal
to a fixed output key.  Every exit-0 run of each subcommand, on a random
database or emission table, matches the closed forms of perfbench/check.py
in CSV and in JSON.  Each example runs in-process through ``cli.main``.
"""

import contextlib
import io
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_module
from paramagloss import cli
from paramagloss.emission import EXTRACTION_COLUMNS
from paramagloss.ioformat import default_db_path, default_emission_path

PLAUSIBLE_FLOAT = st.floats(min_value=1.0, max_value=1e3).map(repr)
ANY_FLOAT = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.sampled_from(
        [
            "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999",
            "5e-324", "1e-310", "2.2250738585072014e-308", "1e-160",
            "1e150", "1e154", "1e300", "1e308", "1.7976931348623157e308",
            "-1e308", "0", "-0.0", "-1", "-5e-324", "1", "x",
        ]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
PLAUSIBLE_POINTS = st.integers(2, 3000).map(str)
ANY_POINTS = st.one_of(st.integers(-5, 3000), st.just(10**7 + 1)).map(str)
# Each flag of a subcommand maps to a strategy or to one of these keys of
# MODES.  Half the argv lists draw from the plausible strategies only, so
# that exit 0 is common too.
FLOAT = "float"
POINTS = "points"
MODES = [
    {FLOAT: ANY_FLOAT, POINTS: ANY_POINTS},
    {FLOAT: PLAUSIBLE_FLOAT, POINTS: PLAUSIBLE_POINTS},
]
# Drawn in every argv list: without it argparse only ever prints usage.
REQUIRED = "--freq-ghz"

FLAGS = {
    "sweep": {
        "--db": st.just(default_db_path()),
        "--fmin-ghz": FLOAT,
        "--fmax-ghz": FLOAT,
        "--points": POINTS,
        "--n-r": FLOAT,
        "--temp-k": FLOAT,
        "--p-over-pc": FLOAT,
    },
    "point": {
        "--db": st.just(default_db_path()),
        "--freq-ghz": FLOAT,
        "--n-r": FLOAT,
        "--temp-k": FLOAT,
        "--p-over-pc": FLOAT,
    },
    "emission": {"--table": st.just(default_emission_path())},
    "tempcurve": {
        "--freq-ghz": FLOAT,
        "--tmin-k": FLOAT,
        "--tmax-k": FLOAT,
        "--points": POINTS,
    },
    "powercurve": {
        "--db": st.just(default_db_path()),
        "--species": st.sampled_from(["Cr", "Fe", "V", "Nb"]),
        "--freq-ghz": FLOAT,
        "--pmax-over-pc": FLOAT,
        "--points": POINTS,
    },
}


@st.composite
def argvs(draw, command):
    mode = draw(st.sampled_from(MODES))
    argv = [command]
    for flag, values in FLAGS[command].items():
        if isinstance(values, str):
            values = mode[values]
        value = draw(values if flag == REQUIRED else st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


# Where a run writes: a str stream, an ASCII byte stream as stdout is under
# PYTHONIOENCODING=ascii (strict errors), or an --output file.
SINKS = ["text", "ascii", "file"]


def _run(argv, sink="text", output=None):
    """(exit code, stdout or output-file text, stderr) of cli.main(argv)."""
    if sink == "ascii":
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="")
    else:
        out = io.StringIO()
    if sink == "file":
        output.unlink(missing_ok=True)
        argv = [*argv, f"--output={output}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if sink == "ascii":
        out.flush()
        text = out.buffer.getvalue().decode("ascii")
    elif sink == "file" and output.exists():
        text = output.read_text(encoding="utf-8")
    else:
        text = out.getvalue()
    return code, text, err.getvalue()


def _plain(name):
    """The documented label rule: non-empty printable ASCII without , " or ;."""
    return name != "" and all(" " <= c <= "~" and c not in ',";' for c in name)


# The fixed keys of point's key,value CSV and of sweep's header.
OUTPUT_KEYS = ["freq_ghz", "total", "n_r", "temp_k", "p_over_pc"]


def _species_name(name):
    """The documented species-name rule: the label rule, no '.' and no output key."""
    return _plain(name) and "." not in name and name not in OUTPUT_KEYS


# Any text, weighted toward what the name rule turns on: printable ASCII,
# the three characters it excludes, a newline and a lone surrogate.
NAME_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.characters(min_codepoint=32, max_codepoint=126)
    | st.sampled_from(',";\n\udc80')
)
# Never a bundled species name, which would make a duplicate; often an
# output key or a name with the '.' of point's '<name>.weights' keys.
NAMES = (NAME_TEXT | st.sampled_from([*OUTPUT_KEYS, "Fe.weights", "."])).filter(
    lambda name: name not in ("Cr", "Fe", "V")
)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return None if text == "none" else text


def _csv_columns(command, text):
    lines = text.split("\n")
    assert lines[-1] == ""
    header, *rows = [line.split(",") for line in lines[:-1]]
    if command != "point":
        # An emission label is text even where it reads as a number.
        return {
            name: [row[i] if name == "label" else _cell(row[i]) for row in rows]
            for i, name in enumerate(header)
        }
    assert header == ["key", "value"]
    return {
        key: [_cell(x) for x in value.split(";")] if key.endswith(".weights") else _cell(value)
        for key, value in rows
    }


def _json_columns(command, payload):
    if command == "sweep":
        return {
            "freq_ghz": payload["freqs_ghz"],
            **payload["species"],
            "total": payload["total"],
        }
    if command == "emission":
        return {col: [line[col] for line in payload["lines"]] for col in EXTRACTION_COLUMNS}
    if command == "point":
        meta = payload["metadata"]
        columns = {"freq_ghz": payload["freq_ghz"], **payload["species"]}
        columns.update(total=payload["total"], n_r=meta["n_r"])
        columns.update(temp_k=meta["temp_k"], p_over_pc=meta["p_over_pc"])
        for sp in meta["species"]:
            for field in ("gamma_rad_per_s", "linewidth_convention", "weights"):
                columns[f"{sp['name']}.{field}"] = sp[field]
        return columns
    return {key: value for key, value in payload.items() if isinstance(value, list)}


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value


@pytest.mark.parametrize("command", list(FLAGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_argv_keeps_exit_contract(command, data):
    argv = data.draw(argvs(command))
    code, csv_text, csv_err = _run(argv + ["--format=csv"])
    json_code, json_text, json_err = _run(argv + ["--format=json"])
    assert code in (0, 2, 3)
    assert json_code == code
    for err in (csv_err, json_err):
        assert "Traceback" not in err
        assert code == 0 or err.startswith(("error:", "usage:"))
    if code != 0:
        return
    csv_columns = _csv_columns(command, csv_text)
    payload = json.loads(json_text, parse_constant=_reject_constant)
    assert all(math.isfinite(x) for x in _numbers(csv_columns))
    assert all(math.isfinite(x) for x in _numbers(payload))
    assert csv_columns == _json_columns(command, payload)


# A database field replaced by one of these, or deleted (MISSING).  The
# lists are wrong-length transitions, or the wrong type for any other field.
# A name is replaced by any text (NAMES) or by one of these.
MISSING = object()
BAD_VALUES = st.sampled_from(
    [
        True, False, "2", None, MISSING, 0, 0.0, -1, -2.5, 5e-324, 1e-310, 1e154, 1e300,
        1.7976931348623157e308, 10**400, [], [0.5], [1.5, 0.5, -0.5], {}, {"g": 1}, [[[]]],
    ]
)
# A whole species, line or emission-table entry replaced by one of these.
NON_OBJECTS = st.sampled_from(["x", 3, [], None])
SPECIES_FIELDS = [
    "name", "two_s", "concentration_per_cm3", "linewidth_mhz", "linewidth_convention",
    "transition", "lines",
]
LINE_FIELDS = ["g", "freq_ghz", "weight"]
DB_ARGV = [
    ["point", "--freq-ghz=9.0"],
    ["point", "--freq-ghz=11.45", "--temp-k=0.5", "--p-over-pc=3"],
    ["sweep", "--points=41"],
    ["sweep", "--points=41", "--temp-k=4", "--p-over-pc=3"],
]


@st.composite
def mutated_databases(draw):
    """The bundled database with one field replaced: (entries, species name, field).

    field None means the whole species was replaced by a non-object; field
    "lines" may mean that one of its lines was.
    """
    db = json.loads(Path(default_db_path()).read_text())
    index = draw(st.integers(0, len(db) - 1))
    sp = db[index]
    field = draw(st.sampled_from(SPECIES_FIELDS + LINE_FIELDS + [None]))
    if field is None:
        db[index] = draw(NON_OBJECTS)
        return db, sp["name"], None
    if field == "lines" and draw(st.booleans()):
        sp["lines"][draw(st.integers(0, len(sp["lines"]) - 1))] = draw(NON_OBJECTS)
        return db, sp["name"], field
    if field in LINE_FIELDS:
        holder, key = sp["lines"][draw(st.integers(0, len(sp["lines"]) - 1))], field
    elif field == "transition" and draw(st.booleans()):
        holder, key = sp["transition"], draw(st.integers(0, 1))
    else:
        holder, key = sp, field
    value = draw(NAMES | BAD_VALUES if field == "name" else BAD_VALUES)
    if value is MISSING:
        del holder[key]
    else:
        holder[key] = value
    return db, sp.get("name"), field


@settings(max_examples=200, deadline=None)
@given(
    case=mutated_databases(),
    argv=st.sampled_from(DB_ARGV),
    fmt=st.sampled_from(["csv", "json"]),
    sink=st.sampled_from(SINKS),
)
def test_any_database_keeps_exit_contract(tmp_path_factory, case, argv, fmt, sink):
    db, name, field = case
    base = tmp_path_factory.getbasetemp()
    path = base / "mutated_db.json"
    path.write_text(json.dumps(db))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run([*argv, f"--db={path}", f"--format={fmt}"], sink, base / "out")
    assert code in (0, 2)
    if field == "name":
        # Only the name changed: it loads exactly when it keeps the rule.
        assert code == (0 if isinstance(name, str) and _species_name(name) else 2), err
    if field is None:
        assert (code, out) == (2, "")
        assert err.startswith("error: species entry ") and err.endswith(" is not an object\n")
        return
    if code == 2:
        assert out == ""
        assert err.startswith("error: species ") and err.count("\n") == 1, err
        assert field == "name" or err.startswith(f"error: species {name!r}"), err
        assert f"'{field}'" in err
        return
    assert err == ""
    if fmt == "csv":
        numbers = _numbers(_csv_columns(argv[0], out))
    else:
        numbers = _numbers(json.loads(out, parse_constant=_reject_constant))
    assert all(math.isfinite(x) for x in numbers)


EMISSION_FIELDS = ["label", "lambda_nm", "a_md_hz", "n_r"]
# An emission-table field replaced by one of these, or deleted (MISSING).
EMISSION_VALUES = st.sampled_from(
    [
        True, "x", None, MISSING, 0, -1, -2.5, 5e-324, 1e-310, 1e-300, 1e-200, 1e103, 1e300,
        1e308, 10**400, {}, {"g": 1}, [[[]]],
    ]
)


@st.composite
def emission_mutations(draw):
    """(field, value): a label becomes any text or a bad value, another field a bad value.

    field None replaces the whole entry by a non-object.
    """
    field = draw(st.sampled_from(EMISSION_FIELDS + [None]))
    if field is None:
        return field, draw(NON_OBJECTS)
    return field, draw(NAME_TEXT | EMISSION_VALUES if field == "label" else EMISSION_VALUES)


@settings(max_examples=200, deadline=None)
@given(line=st.integers(0, 4), mutation=emission_mutations(), sink=st.sampled_from(SINKS))
def test_any_emission_table_keeps_exit_contract(tmp_path_factory, line, mutation, sink):
    field, value = mutation
    table = json.loads(Path(default_emission_path()).read_text())
    entry = table[line]
    if field is None:
        table[line] = value
    elif value is MISSING:
        entry.pop(field, None)
    else:
        entry[field] = value
    base = tmp_path_factory.getbasetemp()
    path = base / "mutated_table.json"
    path.write_text(json.dumps(table))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, csv_text, csv_err = _run(["emission", f"--table={path}"], sink, base / "out")
        json_code, json_text, json_err = _run(
            ["emission", f"--table={path}", "--format=json"], sink, base / "out"
        )
    assert code in (0, 2)
    assert json_code == code
    assert csv_err == json_err
    if field == "label":
        assert code == (0 if isinstance(value, str) and _plain(value) else 2), csv_err
    if field is None:
        assert code == 2 and csv_err == f"error: emission table entry {line} is not an object\n"
    if code == 2:
        assert csv_text == json_text == ""
        assert csv_err.startswith("error: ") and csv_err.count("\n") == 1, csv_err
        assert field is None or f"'{field}'" in csv_err
        return
    assert csv_err == ""
    payload = json.loads(json_text, parse_constant=_reject_constant)
    assert all(math.isfinite(x) for x in _numbers(payload))
    assert _csv_columns("emission", csv_text) == _json_columns("emission", payload)


def _check_closed_forms(runs, inputs, seed):
    """Run each (check, argv, spec) in CSV and JSON; check every exit-0 output.

    inputs is what the check compares with: the species of check.load_db,
    or the decoded emission table.
    """
    for check, argv, spec in runs:
        for fmt in ("csv", "json"):
            code, out, err = _run([*argv, f"--format={fmt}"])
            assert code in (0, 2), err
            assert "Traceback" not in err
            if code == 0:
                with np.errstate(all="ignore"):  # the reference's own under- and overflows
                    check({**spec, "fmt": fmt}, out, inputs, random.Random(seed))


@st.composite
def random_databases(draw):
    """1-3 species in the database format, spanning the documented input ranges."""
    db = []
    for i in range(draw(st.integers(1, 3))):
        two_s = draw(st.integers(1, 9))
        m_i = two_s / 2.0 - draw(st.integers(0, two_s - 1))
        n_lines = draw(st.integers(1, 4))
        lines = [
            {
                "g": draw(st.floats(1e-3, 1e3)),
                "freq_ghz": draw(st.floats(1e-3, 1e4)),
                "weight": 1.0 / n_lines,
            }
            for _ in range(n_lines)
        ]
        db.append(
            {
                "name": f"S{i}",
                "two_s": two_s,
                "concentration_per_cm3": draw(st.floats(1e-5, 1e25)),
                "linewidth_mhz": draw(st.floats(1e-6, 1e6)),
                "linewidth_convention": draw(
                    st.sampled_from(["cyclic_times_2pi", "angular_rate"])
                ),
                "transition": draw(st.sampled_from([[m_i, m_i - 1.0], [m_i - 1.0, m_i]])),
                "lines": lines,
            }
        )
    return db


@settings(max_examples=150, deadline=None)
@given(
    db=random_databases(),
    freq_ghz=st.floats(1e-3, 1e4),
    temp_k=st.none() | st.floats(0.0, 1e3),
    p_over_pc=st.none() | st.floats(0.0, 1e4),
    pmax_over_pc=st.floats(1e-3, 1e4),
    points=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_and_powercurve_match_closed_forms(
    tmp_path_factory, db, freq_ghz, temp_k, p_over_pc, pmax_over_pc, points, seed
):
    path = tmp_path_factory.getbasetemp() / "random_db.json"
    path.write_text(json.dumps(db))
    check_module = perfbench_module("check")
    species = db[seed % len(db)]["name"]
    runs = [
        (
            check_module.check_point,
            ["point", f"--freq-ghz={freq_ghz!r}", f"--db={path}"] + _optional(temp_k, p_over_pc),
            {"freq_ghz": freq_ghz, "temp_k": temp_k, "p_over_pc": p_over_pc},
        ),
        (
            check_module.check_powercurve,
            ["powercurve", f"--freq-ghz={freq_ghz!r}", f"--species={species}", f"--db={path}",
             f"--pmax-over-pc={pmax_over_pc!r}", f"--points={points}"],
            {"freq_ghz": freq_ghz, "species": species,
             "pmax_over_pc": pmax_over_pc, "points": points},
        ),
    ]
    _check_closed_forms(runs, check_module.load_db(str(path)), seed)


def _optional(temp_k, p_over_pc):
    """The --temp-k and --p-over-pc flags of the values that are not None."""
    return [
        f"{flag}={value!r}"
        for flag, value in (("--temp-k", temp_k), ("--p-over-pc", p_over_pc))
        if value is not None
    ]


@st.composite
def random_tables(draw):
    """1-5 emission lines at wavelengths of 1e-3 nm to 1 m, each with n_r drawn or absent."""
    table = []
    for i in range(draw(st.integers(1, 5))):
        entry = {
            "label": f"L{i}",
            "lambda_nm": draw(st.floats(1e-3, 1e9)),
            "a_md_hz": draw(st.floats(0.0, 1e12)),
        }
        n_r = draw(st.none() | st.floats(1.0, 10.0))
        if n_r is not None:
            entry["n_r"] = n_r
        table.append(entry)
    return table


@settings(max_examples=100, deadline=None)
@given(
    db=random_databases(),
    fmin_ghz=st.floats(1e-3, 1e4),
    span_ghz=st.floats(1e-3, 1e4),
    temp_k=st.none() | st.floats(0.0, 1e3),
    tmax_k=st.floats(1e-2, 1e3),
    p_over_pc=st.none() | st.floats(0.0, 1e4),
    points=st.integers(2, 60),
    table=random_tables(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_tempcurve_and_emission_match_closed_forms(
    tmp_path_factory, db, fmin_ghz, span_ghz, temp_k, tmax_k, p_over_pc, points, table, seed
):
    base = tmp_path_factory.getbasetemp()
    db_path, table_path = base / "random_db.json", base / "random_table.json"
    db_path.write_text(json.dumps(db))
    table_path.write_text(json.dumps(table))
    check_module = perfbench_module("check")
    fmax_ghz = fmin_ghz + span_ghz
    tmin_k = tmax_k * (seed % 1000) / 1000.0
    sweep = (
        check_module.check_sweep,
        ["sweep", f"--fmin-ghz={fmin_ghz!r}", f"--fmax-ghz={fmax_ghz!r}",
         f"--points={points}", f"--db={db_path}"] + _optional(temp_k, p_over_pc),
        {"fmin_ghz": fmin_ghz, "fmax_ghz": fmax_ghz, "points": points,
         "temp_k": temp_k, "p_over_pc": p_over_pc},
    )
    _check_closed_forms([sweep], check_module.load_db(str(db_path)), seed)
    tempcurve = (
        check_module.check_tempcurve,
        ["tempcurve", f"--freq-ghz={fmin_ghz!r}", f"--tmin-k={tmin_k!r}",
         f"--tmax-k={tmax_k!r}", f"--points={points}"],
        {"freq_ghz": fmin_ghz, "tmin_k": tmin_k, "tmax_k": tmax_k, "points": points},
    )
    _check_closed_forms([tempcurve], None, seed)
    emission = (check_module.check_emission, ["emission", f"--table={table_path}"], {})
    _check_closed_forms([emission], table, seed)
