"""Loss-tangent spectra aggregated over a database of defect species.

Each species carries a spin, a concentration, a homogeneous linewidth,
and one or more transition lines (several for hyperfine manifolds).  The
per-line coupling comes from the spin algebra; the probe frequency and
the refractive index cancel between the cross section and the loss
tangent, so the summed spectrum reduces to a fixed-order mix of
unit-area Lorentzians with precomputed amplitudes.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

import numpy as np

from . import _kernels
from .constants import MAX_GHZ, MAX_POINTS, MAX_RATE, MD_PREFACTOR, RAD_PER_S_PER_GHZ, TWO_PI, C
from .errors import (
    DatabaseError, InvalidInputs, Record, broadcast_shape, evaluate, is_real, require,
    require_number,
)
from .ioformat import NAME_RULE, finite_float, number_field, plain_name, read_json_array
from .ladder import MAX_TWO_S, ladder_m, line_coupling_sq
from .lineshape import power_broadened_gamma, temperature_factor

# Angular FWHM [rad/s] per unit of the database linewidth_mhz field, by
# linewidth_convention: a cyclic frequency in MHz times 2*pi, or an angular
# rate in 1e6 rad/s.
LINEWIDTH_SCALES = {"cyclic_times_2pi": TWO_PI * 1.0e6, "angular_rate": 1.0e6}

WEIGHT_SUM_TOL = 1e-9

# Species names that would collide with the output: the fixed keys of
# point's key,value CSV and of sweep's header, and any name with the '.' of
# point's per-species keys such as '<name>.weights'.
OUTPUT_KEYS = ("freq_ghz", "total", "n_r", "temp_k", "p_over_pc")


class SpeciesLines(Record):
    """The transition lines of one species as read-only float64 arrays.

    centers are the line frequencies omega_if [rad/s], g the g-factors and
    weights the population weights, one entry per line; every line shares
    the species' FWHM.  The arrays are copied, so the caller's stay writable.
    """

    __slots__ = ("centers", "g", "weights")

    def __init__(self, centers: np.ndarray, g: np.ndarray, weights: np.ndarray) -> None:
        cols = []
        for name, value in zip(self.__slots__, (centers, g, weights)):
            col = np.array(value)
            if not is_real(col):
                raise InvalidInputs(f"{name} must hold real numbers, got {value!r}")
            col = col.astype(np.float64, copy=False)
            col.setflags(write=False)
            cols.append(col)
        shapes = [col.shape for col in cols]
        if not (len(shapes[0]) == 1 and shapes[0] == shapes[1] == shapes[2]):
            raise InvalidInputs(
                f"line arrays must be 1-D and of equal length, got shapes {shapes}"
            )
        self._set_fields(*cols)

    def __len__(self) -> int:
        return self.centers.shape[0]


class DefectSpecies(Record):
    """A defect population with its transition lines, checked on construction.

    The transition field names the (m_i, m_f) sublevel pair whose coupling
    is used for every line; the +-m partners are one Kramers-degenerate
    line at the same frequency, so n_def [m^-3] is the total spin
    concentration and lines are not double-counted.  gamma is the angular
    FWHM [rad/s].  A failed check raises InvalidInputs naming the species,
    the first bad line and the database field the value comes from.

    amps[l] = c * pi^2 alpha^3 a0^2 * n_def * weight_l * coupling_l folds
    together everything that cancels or is constant across a grid; times
    the thermal factor w_l(T) and the unit-area Lorentzian it gives line
    l's loss-tangent contribution.  It is computed here, once per species,
    with peak_loss = sum(amps) * 2 / (pi gamma), which bounds the species'
    loss at any probe frequency, temperature and drive power.
    linewidth_convention is how the database spelled the linewidth, kept
    for run metadata only: gamma is already angular.  n_def, gamma and the
    transition pair are kept as the floats that were checked, so a caller
    changing its own arrays or lists afterwards changes no field.
    """

    __slots__ = (
        "name", "two_s", "n_def", "gamma", "transition", "lines", "linewidth_convention",
        "amps", "peak_loss",
    )

    def __init__(
        self,
        name: str,
        two_s: int,
        n_def: float,
        gamma: float,
        transition: tuple[float, float],
        lines: SpeciesLines,
        linewidth_convention: str = "cyclic_times_2pi",
    ) -> None:
        def fail(problem, li=None):
            where = f"species {ascii(name)}" + ("" if li is None else f": line {li}")
            raise InvalidInputs(f"{where}: {problem}")

        for key, value in (("n_def", n_def), ("gamma", gamma)):
            if not (np.ndim(value) == 0 and is_real(value)):
                fail(f"{key} must be a real number, got {value!r}")
        n_def, gamma = float(n_def), float(gamma)
        if plain_name(name) is None:
            fail(f"field 'name' {NAME_RULE}")
        if name in OUTPUT_KEYS or "." in name:
            fail(f"field 'name' must contain no '.' and be none of {', '.join(OUTPUT_KEYS)}")
        if isinstance(two_s, bool) or not (isinstance(two_s, int) and 1 <= two_s <= MAX_TWO_S):
            fail(f"field 'two_s' must be an integer in [1, {MAX_TWO_S}]")
        if not 0.0 <= n_def < math.inf:
            fail(
                "field 'concentration_per_cm3' must give a finite concentration >= 0, "
                f"got {n_def:.6g} m^-3"
            )
        # The kernel divides by the squared half-width.
        half = 0.5 * gamma
        if not (0.0 < half <= MAX_RATE and half * half >= sys.float_info.min):
            fail(
                "field 'linewidth_mhz' must give a positive FWHM whose half-width squares to a "
                f"normal double, got {gamma:.6g} rad/s"
            )
        try:
            ladder_m(two_s, transition)
        except InvalidInputs as exc:
            fail(f"field 'transition' {exc}")
        transition = tuple(map(float, transition))
        if len(lines) == 0:
            fail("field 'lines' must hold at least one line")
        # Half a ladder element, sqrt(S(S+1) - m(m+1)) / 2, is at most (two_s + 1) / 4,
        # so this g bound keeps the squared moments in line_coupling_sq finite.
        g_max = MAX_RATE / (two_s + 1)
        for key, values, upper, rule in (
            ("g", lines.g, g_max, f"must be in (0, {g_max:.3g}] for two_s={two_s}"),
            ("freq_ghz", lines.centers, MAX_RATE,
             f"must give a line frequency in (0, {MAX_RATE:.3g}] rad/s"),
            ("weight", lines.weights, 1.0, "must be in (0, 1]"),
        ):
            ok = (values > 0.0) & (values <= upper)
            if not ok.all():
                li = int(np.argmin(ok))
                fail(f"field {key!r} {rule}, got {values[li]:.6g}", li)
        weight_sum = sum(lines.weights.tolist())
        if abs(weight_sum - 1.0) > WEIGHT_SUM_TOL:
            fail(f"field 'weight': line weights sum to {weight_sum}, expected 1")
        coupling = line_coupling_sq(two_s, transition, lines.g)
        amps = evaluate(lambda: C * MD_PREFACTOR * n_def * lines.weights * coupling)
        amps.setflags(write=False)
        # The loss never exceeds the on-resonance peak sum(amps) * 2 / (pi gamma):
        # power broadening and the thermal factor only lower it.
        peak_loss = sum(amps.tolist()) * 2.0 / (math.pi * gamma)
        if not math.isfinite(peak_loss):
            fail("fields 'concentration_per_cm3' and 'linewidth_mhz' give an infinite peak loss")
        self._set_fields(
            name, two_s, n_def, gamma, transition, lines, linewidth_convention, amps, peak_loss
        )


class Spectrum(Record):
    """Frequency grid with per-species and total loss tangents."""

    __slots__ = ("freqs_ghz", "per_species", "total")

    def __init__(self, freqs_ghz: np.ndarray, per_species: dict, total: np.ndarray):
        self._set_fields(freqs_ghz, per_species, total)


def check_unique_names(db, error=InvalidInputs) -> None:
    """Raise error naming, once each, every species name listed more than once."""
    repeated = [name for name, count in Counter(sp.name for sp in db).items() if count > 1]
    if repeated:
        raise error(f"species {', '.join(map(repr, repeated))}: listed more than once")


def species_loss(sp: DefectSpecies, omega, temp_k=None, power=None):
    """Loss-tangent contribution of one species: the total of database_loss([sp], ...)."""
    return database_loss([sp], omega, temp_k, power)[1]


def database_loss(db, omega, temp_k=None, power=None):
    """Loss tangent of each species in db and their total, as (per_species, total).

    omega [rad/s] is one probe frequency, which gives floats, or a grid
    array; power (P/P_c) is a scalar or an array over that grid.  They,
    temp_k and each species' width at the largest drive, its widest, are
    checked once per call before the species loop, so an empty db rejects
    what a one-species db does.  Species are added in list order and each
    sums its lines in listed order, so runs are bit-identical and a point
    equals the same point of a sweep.  Species names must be unique, since
    per_species is keyed by name.  The sum of the species' peak_loss bounds
    the total, and is checked to be finite first.
    """
    check_unique_names(db)
    if not math.isfinite(sum(sp.peak_loss for sp in db)):
        names = ", ".join(repr(sp.name) for sp in db)
        raise InvalidInputs(f"species {names}: peak losses sum to an infinite total loss")
    shape = broadcast_shape(omega=omega, power=power)
    if not is_real(omega):
        raise InvalidInputs(f"angular probe frequency must be a real number, got {omega!r}")
    omega = np.asarray(omega, dtype=np.float64)
    if omega.size == 0 or np.size(power) == 0:
        raise InvalidInputs("omega and power must not be empty arrays")
    ok = (omega > 0.0) & (omega <= MAX_RATE)
    if not ok.all():
        raise InvalidInputs(
            f"angular probe frequency must be in (0, {MAX_RATE:.3g}] rad/s,"
            f" got {omega[~ok][0].item()!r}"
        )
    if temp_k is not None:
        temp_k = require_number("temp_k", temp_k)
    if power is not None:
        power = require("p_over_pc", power)
        widest = math.sqrt(1.0 + float(np.max(power)))
        for sp in db:
            if not 0.5 * (sp.gamma * widest) <= MAX_RATE:
                raise InvalidInputs(f"species {sp.name!r}: power-broadened linewidth overflows")
    omega = np.broadcast_to(omega, shape)
    per_species = {}
    total = np.zeros(shape)
    for sp in db:
        amps, gamma = sp.amps, sp.gamma
        if temp_k is not None:
            amps = amps * temperature_factor(sp.lines.centers, temp_k)
        if power is not None:
            gamma = power_broadened_gamma(gamma, power)
        loss = _kernels.lorentzian_mix(omega, sp.lines.centers, gamma, amps)
        per_species[sp.name] = float(loss) if loss.ndim == 0 else loss
        total += loss
    return per_species, (float(total) if total.ndim == 0 else total)


def sweep(
    db,
    fmin_ghz: float,
    fmax_ghz: float,
    points: int,
    temp_k=None,
    power=None,
) -> Spectrum:
    """Loss-tangent spectrum of a species list on a uniform GHz grid.

    The losses and their total come from database_loss over the grid, so
    a sweep point equals the same point evaluated alone bit for bit.
    """
    fmin = require_number("fmin", fmin_ghz, strict=True)
    fmax = require_number("fmax", fmax_ghz, -math.inf)
    if not fmin < fmax:
        raise InvalidInputs(f"need fmin < fmax, got [{fmin_ghz}, {fmax_ghz}]")
    if isinstance(points, bool) or not (
        isinstance(points, (int, np.integer)) and 2 <= points <= MAX_POINTS
    ):
        raise InvalidInputs(
            f"points must be an integer >= 2 and at most {MAX_POINTS}, got {points!r}"
        )
    if not fmax <= MAX_GHZ:
        raise InvalidInputs(f"angular frequency of fmax {fmax_ghz} GHz overflows")
    freqs = np.linspace(fmin, fmax, points)
    if broadcast_shape(grid=freqs, power=power) != freqs.shape:
        raise InvalidInputs(f"power of shape {np.shape(power)} does not fit grid {freqs.shape}")
    # fmin > 0 and fmax <= MAX_GHZ bound the grid, so the bare product of
    # ghz_to_angular is finite and needs none of its checks.
    per_species, total = database_loss(db, RAD_PER_S_PER_GHZ * freqs, temp_k, power)
    for arr in (freqs, total, *per_species.values()):
        arr.setflags(write=False)
    return Spectrum(freqs_ghz=freqs, per_species=per_species, total=total)


def parse_species(entry: dict, index: int) -> DefectSpecies:
    """Build one DefectSpecies from a decoded database entry.

    Only the JSON types are read here; DefectSpecies checks every range and
    its message, naming the species, line and field, is re-raised as is.
    """
    if not isinstance(entry, dict):
        raise DatabaseError(f"species entry {index} is not an object")
    if "name" not in entry:
        raise DatabaseError(f"species entry {index}: missing field 'name'")
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise DatabaseError(f"species entry {index}: field 'name' must be a non-empty string")
    where = f"species {name!r}"
    n_cm3 = number_field(entry, "concentration_per_cm3", where)
    linewidth_mhz = number_field(entry, "linewidth_mhz", where)
    convention = entry.get("linewidth_convention", "cyclic_times_2pi")
    if not isinstance(convention, str) or convention not in LINEWIDTH_SCALES:
        raise DatabaseError(
            f"{where}: field 'linewidth_convention' must be one of "
            f"{tuple(LINEWIDTH_SCALES)}, got {convention!r}"
        )
    transition = entry.get("transition")
    if (
        not isinstance(transition, list)
        or len(transition) != 2
        or any(finite_float(m) is None for m in transition)
    ):
        raise DatabaseError(f"{where}: field 'transition' must be a pair of finite numbers")
    raw_lines = entry.get("lines")
    if not isinstance(raw_lines, list):
        raise DatabaseError(f"{where}: field 'lines' must be an array")
    columns = ([], [], [])
    for li, raw in enumerate(raw_lines):
        line = f"{where}: line {li}"
        if not isinstance(raw, dict):
            raise DatabaseError(f"{line}: entry of field 'lines' is not an object")
        for column, key in zip(columns, ("g", "freq_ghz", "weight")):
            column.append(number_field(raw, key, line))
    g, freq_ghz, weights = columns
    # DefectSpecies quotes a center past MAX_RATE, inf included, as is.
    centers = evaluate(lambda: RAD_PER_S_PER_GHZ * np.array(freq_ghz))
    try:
        return DefectSpecies(
            name=name,
            two_s=entry.get("two_s"),
            n_def=n_cm3 * 1e6,
            gamma=LINEWIDTH_SCALES[convention] * linewidth_mhz,
            transition=(float(transition[0]), float(transition[1])),
            lines=SpeciesLines(centers, g, weights),
            linewidth_convention=convention,
        )
    except InvalidInputs as exc:
        raise DatabaseError(str(exc)) from exc


def load_species_db(path) -> list[DefectSpecies]:
    """Load a JSON species database; errors name the offending entry."""
    raw = read_json_array(path, "database")
    db = [parse_species(entry, idx) for idx, entry in enumerate(raw)]
    check_unique_names(db, DatabaseError)
    return db
