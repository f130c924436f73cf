"""Property tests of the CLI exit-code contract over generated argv and databases.

For any argv, every subcommand exits 0, 2 or 3 without a traceback.  On
exit 0 every number it prints is finite, the JSON parses under a parser
that rejects NaN and Infinity, and the CSV and JSON carry the same values.
For a database with one field of one species or line replaced, `point` and
`sweep` exit 0 or 2 without a traceback or a RuntimeWarning, and an exit 2
prints one line naming that species and field; `emission` keeps the same
contract for an emission table with one field of one line replaced.  Each
example runs in-process through ``cli.main``.
"""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramagloss import cli
from paramagloss.emission import EXTRACTION_COLUMNS
from paramagloss.ensemble import default_db_path, default_emission_path

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
        "--n-r": FLOAT,
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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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
        return {name: [_cell(row[i]) for row in rows] for i, name in enumerate(header)}
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
MISSING = object()
BAD_VALUES = st.sampled_from(
    [
        True, False, "2", None, MISSING, 0, 0.0, -1, -2.5, 5e-324, 1e-310, 1e154, 1e300,
        1.7976931348623157e308, 10**400, [], [0.5], [1.5, 0.5, -0.5],
    ]
)
SPECIES_FIELDS = [
    "two_s", "concentration_per_cm3", "linewidth_mhz", "linewidth_convention",
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
    """The bundled database with one field replaced: (entries, species, field)."""
    db = json.loads(Path(default_db_path()).read_text())
    sp = db[draw(st.integers(0, len(db) - 1))]
    field = draw(st.sampled_from(SPECIES_FIELDS + LINE_FIELDS))
    if field in LINE_FIELDS:
        holder, key = sp["lines"][draw(st.integers(0, len(sp["lines"]) - 1))], field
    elif field == "transition" and draw(st.booleans()):
        holder, key = sp["transition"], draw(st.integers(0, 1))
    else:
        holder, key = sp, field
    value = draw(BAD_VALUES)
    if value is MISSING:
        del holder[key]
    else:
        holder[key] = value
    return db, sp["name"], field


@settings(max_examples=200, deadline=None)
@given(
    case=mutated_databases(),
    argv=st.sampled_from(DB_ARGV),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_any_database_keeps_exit_contract(tmp_path_factory, case, argv, fmt):
    db, name, field = case
    path = tmp_path_factory.getbasetemp() / "mutated_db.json"
    path.write_text(json.dumps(db))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run([*argv, f"--db={path}", f"--format={fmt}"])
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert err.startswith(f"error: species {name!r}") and err.count("\n") == 1, err
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
        1e308, 10**400,
    ]
)


@settings(max_examples=200, deadline=None)
@given(line=st.integers(0, 4), field=st.sampled_from(EMISSION_FIELDS), value=EMISSION_VALUES)
def test_any_emission_table_keeps_exit_contract(tmp_path_factory, line, field, value):
    table = json.loads(Path(default_emission_path()).read_text())
    entry = table[line]
    if value is MISSING:
        entry.pop(field, None)
    else:
        entry[field] = value
    path = tmp_path_factory.getbasetemp() / "mutated_table.json"
    path.write_text(json.dumps(table))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, csv_text, csv_err = _run(["emission", f"--table={path}"])
        json_code, json_text, json_err = _run(["emission", f"--table={path}", "--format=json"])
    assert code in (0, 2)
    assert json_code == code
    assert csv_err == json_err
    if code == 2:
        assert csv_text == json_text == ""
        assert csv_err.startswith("error: ") and csv_err.count("\n") == 1, csv_err
        assert f"'{field}'" in csv_err
        return
    assert csv_err == ""
    payload = json.loads(json_text, parse_constant=_reject_constant)
    assert all(math.isfinite(x) for x in _numbers(payload))
    assert _csv_columns("emission", csv_text) == _json_columns("emission", payload)
