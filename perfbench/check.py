"""Output checks for CLI invocations, computed without importing paramagloss.

Every number is compared with a closed form evaluated here from the
documented physics and the CODATA 2018 constants typed in below:

* coupling of a line: g^2 (S(S+1) - m_i m_f) / 6 for |m_i - m_f| = 1;
* loss of a species: sum over its lines of
  c pi^2 alpha^3 a0^2 n_def w_l coupling_l W_l(T) L(omega - omega_l; gamma');
* thermal factor W(T) = (1 + exp(-hbar omega / kB T))^-2 and tanh(hbar omega / 2 kB T);
* power broadening gamma' = gamma sqrt(1 + P/Pc);
* emission moment m^2 = A / (n_r^3 alpha^3 a0^2 omega^3 / c^2).

A value passes when it is within half a unit of its ninth significant
digit of the closed form, which is what the 9-digit output format keeps.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random

import numpy as np

C = 2.99792458e8
ALPHA = 7.2973525693e-3
A0 = 5.29177210903e-11
HBAR = 1.054571817e-34
KB = 1.380649e-23
TWO_PI = 2.0 * math.pi
MD_AMP = C * (math.pi**2 * ALPHA**3 * A0**2)
EMISSION_PREFACTOR = ALPHA**3 * A0**2 / C**2

SAMPLE_ROWS = 48


class CheckFailed(Exception):
    """An output broke the contract or disagreed with the closed form."""


def _fail(msg: str):
    raise CheckFailed(msg)


def ghz_to_angular(f):
    return TWO_PI * 1.0e9 * f


def within9(got, want) -> np.ndarray:
    """True where got rounds from want at 9 significant digits."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = np.maximum(np.abs(got), np.abs(want))
    exponent = np.floor(np.log10(np.where(scale > 0.0, scale, 1.0)))
    tol = 0.5 * 10.0 ** (exponent - 8) + 1e-12 * scale
    return np.abs(got - want) <= tol


def _expect9(label: str, got, want) -> None:
    ok = within9(got, want)
    if not np.all(ok):
        i = int(np.argmin(ok))
        g, w = float(np.ravel(got)[i]), float(np.ravel(want)[i])
        _fail(f"{label}: {g!r} differs from closed form {w!r}")


# ---------------------------------------------------------------- physics


def load_db(path: str) -> list[dict]:
    """Species of a database file, in the units the closed forms use."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    species = []
    for entry in raw:
        s = entry["two_s"] / 2.0
        m_i, m_f = (float(m) for m in entry["transition"])
        if entry.get("linewidth_convention", "cyclic_times_2pi") == "angular_rate":
            gamma = entry["linewidth_mhz"] * 1e6
        else:
            gamma = TWO_PI * 1.0e6 * entry["linewidth_mhz"]
        g = np.array([line["g"] for line in entry["lines"]], dtype=np.float64)
        species.append(
            {
                "name": entry["name"],
                "gamma": gamma,
                "omega": ghz_to_angular(
                    np.array([line["freq_ghz"] for line in entry["lines"]], dtype=np.float64)
                ),
                # amplitude without the thermal factor
                "amp": MD_AMP
                * (entry["concentration_per_cm3"] * 1e6)
                * np.array([line["weight"] for line in entry["lines"]], dtype=np.float64)
                * g**2
                * (s * (s + 1.0) - m_i * m_f)
                / 6.0,
                "weights": [line["weight"] for line in entry["lines"]],
            }
        )
    return species


def w_factor(omega, temp):
    omega = np.asarray(omega, dtype=np.float64)
    temp = np.asarray(temp, dtype=np.float64)
    safe = np.where(temp > 0.0, temp, 1.0)
    return np.where(temp > 0.0, (1.0 + np.exp(-HBAR * omega / (KB * safe))) ** -2, 1.0)


def tanh_factor(omega, temp):
    temp = np.asarray(temp, dtype=np.float64)
    safe = np.where(temp > 0.0, temp, 1.0)
    return np.where(temp > 0.0, np.tanh(HBAR * omega / (2.0 * KB * safe)), 1.0)


def species_loss(sp: dict, omega, temp_k=None, p_over_pc=None):
    """Closed-form loss tangent of one species at angular frequencies omega.

    p_over_pc may be an array aligned with omega.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    gamma = sp["gamma"] * np.sqrt(1.0 + (0.0 if p_over_pc is None else np.asarray(p_over_pc)))
    half = 0.5 * np.broadcast_to(gamma, omega.shape)[:, None]
    amp = sp["amp"] if temp_k is None else sp["amp"] * w_factor(sp["omega"], temp_k)
    d = omega[:, None] - sp["omega"][None, :]
    return np.sum(amp[None, :] * (half / math.pi) / (d * d + half * half), axis=1)


# ---------------------------------------------------------------- parsing


def _strict_json(text: str):
    def reject(name):
        _fail(f"non-finite JSON constant {name}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc}")


def _finite(label: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        _fail(f"{label}: non-finite value")
    return arr


def _csv_lines(text: str) -> list[str]:
    if not text.endswith("\n"):
        _fail("CSV does not end with a newline")
    return text[:-1].split("\n")


def _csv_table(text: str, header: list[str], rows: int) -> dict[str, np.ndarray]:
    lines = _csv_lines(text)
    if lines[0] != ",".join(header):
        _fail(f"CSV header {lines[0]!r}, expected {','.join(header)!r}")
    if len(lines) - 1 != rows:
        _fail(f"CSV has {len(lines) - 1} data rows, expected {rows}")
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        _fail(f"CSV cell is not a number: {exc}")
    if data.shape != (rows, len(header)):
        _fail(f"CSV shape {data.shape}, expected {(rows, len(header))}")
    _finite("CSV", data)
    return {name: data[:, j] for j, name in enumerate(header)}


def _json_column(payload: dict, key: str, rows: int) -> np.ndarray:
    values = payload.get(key)
    if not isinstance(values, list) or len(values) != rows:
        _fail(f"JSON field {key!r} is not a list of {rows} numbers")
    return _finite(f"JSON {key}", values)


# ------------------------------------------------------- per-command values


def _sweep_values(spec: dict, text: str, names: list[str]) -> dict[str, np.ndarray]:
    n = spec["points"]
    if spec["fmt"] == "csv":
        return _csv_table(text, ["freq_ghz", *names, "total"], n)
    payload = _strict_json(text)
    if payload.get("command") != "sweep" or list(payload.get("species", {})) != names:
        _fail("JSON sweep payload has the wrong command or species")
    values = {"freq_ghz": _json_column(payload, "freqs_ghz", n)}
    for name in names:
        values[name] = _json_column(payload["species"], name, n)
    values["total"] = _json_column(payload, "total", n)
    return values


def _sample(rng: random.Random, n: int) -> np.ndarray:
    if n <= SAMPLE_ROWS:
        return np.arange(n)
    return np.array(sorted({0, n - 1, *rng.sample(range(n), SAMPLE_ROWS - 2)}))


def check_sweep(spec: dict, text: str, db: list[dict], rng: random.Random) -> dict:
    names = [sp["name"] for sp in db]
    values = _sweep_values(spec, text, names)
    n = spec["points"]
    idx = _sample(rng, n)
    step = (spec["fmax_ghz"] - spec["fmin_ghz"]) / (n - 1)
    freqs = spec["fmin_ghz"] + idx * step
    _expect9("freq_ghz", values["freq_ghz"][idx], freqs)
    omega = ghz_to_angular(freqs)
    total = np.zeros(idx.shape[0])
    for sp in db:
        want = species_loss(sp, omega, spec["temp_k"], spec["p_over_pc"])
        _expect9(f"sweep {sp['name']}", values[sp["name"]][idx], want)
        total += want
    _expect9("sweep total", values["total"][idx], total)
    return values


def check_point(spec: dict, text: str, db: list[dict], rng: random.Random) -> dict:
    names = [sp["name"] for sp in db]
    if spec["fmt"] == "csv":
        lines = _csv_lines(text)
        if lines[0] != "key,value":
            _fail("point CSV header is not key,value")
        rows = dict(line.split(",", 1) for line in lines[1:])
        if len(rows) != len(lines) - 1 or len(rows) != 5 + 4 * len(names):
            _fail(f"point CSV has {len(lines) - 1} rows, expected {5 + 4 * len(names)}")
        keys = ["freq_ghz", *names, "total"] + [f"{n}.gamma_rad_per_s" for n in names]
        values = {k: _finite(k, [float(rows[k])]) for k in keys if k in rows}
        if len(values) != len(keys):
            _fail("point CSV lacks a species, total or gamma row")
        for name in names:
            values[f"{name}.weights"] = _finite("weights", [float(w) for w in rows[f"{name}.weights"].split(";")])
    else:
        payload = _strict_json(text)
        if payload.get("command") != "point" or list(payload.get("species", {})) != names:
            _fail("JSON point payload has the wrong command or species")
        values = {"freq_ghz": _finite("freq", [payload["freq_ghz"]])}
        for name in names:
            values[name] = _finite(name, [payload["species"][name]])
        values["total"] = _finite("total", [payload["total"]])
        meta = payload["metadata"]["species"]
        for name, sp_meta in zip(names, meta):
            values[f"{name}.gamma_rad_per_s"] = _finite("gamma", [sp_meta["gamma_rad_per_s"]])
            values[f"{name}.weights"] = _finite("weights", sp_meta["weights"])
    _expect9("point freq", values["freq_ghz"], spec["freq_ghz"])
    omega = ghz_to_angular(spec["freq_ghz"])
    total = 0.0
    for sp in db:
        want = species_loss(sp, omega, spec["temp_k"], spec["p_over_pc"])[0]
        _expect9(f"point {sp['name']}", values[sp["name"]], want)
        _expect9("gamma", values[f"{sp['name']}.gamma_rad_per_s"], sp["gamma"])
        _expect9("weights", values[f"{sp['name']}.weights"], sp["weights"])
        total += want
    _expect9("point total", values["total"], total)
    return values


EMISSION_COLUMNS = ["label", "lambda_nm", "freq_thz", "a_md_hz", "m_sq", "m_abs"]


def check_emission(spec: dict, text: str, table: list[dict], rng: random.Random) -> dict:
    n = len(table)
    if spec["fmt"] == "csv":
        lines = _csv_lines(text)
        if lines[0] != ",".join(EMISSION_COLUMNS) or len(lines) - 1 != n:
            _fail("emission CSV has the wrong header or row count")
        cells = [line.split(",") for line in lines[1:]]
        labels = [c[0] for c in cells]
        numbers = _finite("emission", [[float(x) for x in c[1:]] for c in cells])
    else:
        payload = _strict_json(text)
        rows = payload.get("lines")
        if payload.get("command") != "emission" or not isinstance(rows, list) or len(rows) != n:
            _fail("JSON emission payload has the wrong command or line count")
        labels = [r["label"] for r in rows]
        numbers = _finite("emission", [[r[c] for c in EMISSION_COLUMNS[1:]] for r in rows])
    if labels != [e["label"] for e in table]:
        _fail("emission labels differ from the table")
    lam = np.array([e["lambda_nm"] for e in table]) * 1e-9
    rate = np.array([e["a_md_hz"] for e in table])
    n_r = np.array([e.get("n_r", 1.0) for e in table])
    omega = TWO_PI * C / lam
    m_sq = rate / (n_r**3 * EMISSION_PREFACTOR * omega**3)
    want = np.column_stack([lam * 1e9, omega / (TWO_PI * 1e12), rate, m_sq, np.sqrt(m_sq)])
    _expect9("emission", numbers, want)
    return {"labels": labels, "numbers": numbers}


def check_tempcurve(spec: dict, text: str, _db, rng: random.Random) -> dict:
    n = spec["points"]
    cols = ["temp_k", "w_factor", "tanh_factor"]
    if spec["fmt"] == "csv":
        values = _csv_table(text, cols, n)
    else:
        payload = _strict_json(text)
        if payload.get("command") != "tempcurve":
            _fail("JSON tempcurve payload has the wrong command")
        _expect9("freq_ghz", payload.get("freq_ghz"), spec["freq_ghz"])
        values = {c: _json_column(payload, c, n) for c in cols}
    idx = _sample(rng, n)
    temps = spec["tmin_k"] + idx * ((spec["tmax_k"] - spec["tmin_k"]) / (n - 1))
    _expect9("temp_k", values["temp_k"][idx], temps)
    omega = ghz_to_angular(spec["freq_ghz"])
    _expect9("w_factor", values["w_factor"][idx], w_factor(omega, temps))
    _expect9("tanh_factor", values["tanh_factor"][idx], tanh_factor(omega, temps))
    return values


def check_powercurve(spec: dict, text: str, db: list[dict], rng: random.Random) -> dict:
    n = spec["points"]
    cols = ["p_over_pc", "loss_on_resonance", "loss_detuned"]
    matches = [sp for sp in db if spec["species"] in (None, sp["name"])]
    sp = matches[0]
    omega_res = sp["omega"][0]
    if spec["fmt"] == "csv":
        values = _csv_table(text, cols, n)
    else:
        payload = _strict_json(text)
        if payload.get("command") != "powercurve" or payload.get("species") != sp["name"]:
            _fail("JSON powercurve payload has the wrong command or species")
        _expect9("resonance_ghz", payload.get("resonance_ghz"), omega_res / (TWO_PI * 1e9))
        _expect9("detuned_ghz", payload.get("detuned_ghz"), spec["freq_ghz"])
        values = {c: _json_column(payload, c, n) for c in cols}
    idx = _sample(rng, n)
    ratios = idx * (spec["pmax_over_pc"] / (n - 1))
    _expect9("p_over_pc", values["p_over_pc"][idx], ratios)
    on = species_loss(sp, np.full(idx.shape[0], omega_res), None, ratios)
    off = species_loss(sp, np.full(idx.shape[0], ghz_to_angular(spec["freq_ghz"])), None, ratios)
    _expect9("loss_on_resonance", values["loss_on_resonance"][idx], on)
    _expect9("loss_detuned", values["loss_detuned"][idx], off)
    return values


def result_rows(spec: dict, n_inputs: int) -> int:
    """Output data rows an invocation yields: grid points, losses or lines.

    n_inputs is the species count of the database, or the line count of
    the emission table.
    """
    if spec["command"] == "point":
        return n_inputs + 1
    if spec["command"] == "emission":
        return n_inputs
    return spec["points"]


CHECKS = {
    "sweep": check_sweep,
    "point": check_point,
    "emission": check_emission,
    "tempcurve": check_tempcurve,
    "powercurve": check_powercurve,
}


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return a == b
    return np.array_equal(a, b)


class Checker:
    """Checks outputs against the contract, the closed forms and each other.

    The first output of each (computation, format) is checked in full and
    its digest kept; later outputs of the same argv must be byte-identical.
    The values of the first CSV and JSON outputs of one computation must be
    equal.
    """

    def __init__(self, bundled_db: str, bundled_table: str, seed: int):
        self._paths = {"db": bundled_db, "table": bundled_table}
        self._parsed: dict[str, list] = {}
        self._digests: dict[tuple[str, str], str] = {}
        self._values: dict[str, dict] = {}
        self._rng = random.Random(seed)

    def _inputs(self, spec: dict):
        if spec["command"] == "emission":
            path = spec.get("table") or self._paths["table"]
        else:
            path = spec.get("db") or self._paths["db"]
        if path not in self._parsed:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            self._parsed[path] = raw if spec["command"] == "emission" else load_db(path)
        return self._parsed[path]

    def check(self, inv, exit_code: int, out: bytes, err: str) -> int:
        """Return the result rows of a passing invocation; raise CheckFailed."""
        if "Traceback" in err:
            _fail("traceback on stderr")
        if exit_code != inv.expect_exit:
            _fail(f"exit code {exit_code}, expected {inv.expect_exit}: {err.strip()[-200:]}")
        spec = inv.spec
        if inv.expect_exit != 0:
            if not err.startswith("error:"):
                _fail("error exit without an 'error:' message")
            return 0
        digest = hashlib.sha256(out).hexdigest()
        key = inv.pair_key
        inputs = self._inputs(spec)
        rows = result_rows(spec, len(inputs))
        seen = self._digests.get((key, inv.fmt))
        if seen is not None:
            if seen != digest:
                _fail("output differs from an earlier run of the same argv")
            return rows
        try:
            text = out.decode("utf-8")
        except UnicodeDecodeError:
            _fail("output is not UTF-8")
        try:
            values = CHECKS[spec["command"]](spec, text, inputs, self._rng)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            _fail(f"malformed output: {exc!r}")
        other = self._values.get(key)
        if other is not None and not _same(values, other):
            _fail("CSV and JSON values differ for the same argv")
        self._values.setdefault(key, values)
        self._digests[(key, inv.fmt)] = digest
        return rows
