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
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import _kernels
from .absorption import MD_PREFACTOR
from .constants import TWO_PI, C, ghz_to_angular
from .errors import DatabaseError, InvalidInputs, require
from .ioformat import NAME_RULE, finite_float, number_field, plain_name, read_json_array
from .lineshape import power_broadened_gamma, temperature_factor
from .spin import ladder_m, line_coupling_sq

# Angular FWHM [rad/s] per unit of the database linewidth_mhz field, by
# linewidth_convention: a cyclic frequency in MHz times 2*pi, or an angular
# rate in 1e6 rad/s.
LINEWIDTH_SCALES = {"cyclic_times_2pi": TWO_PI * 1.0e6, "angular_rate": 1.0e6}

WEIGHT_SUM_TOL = 1e-9

# Largest angular frequency or half-width [rad/s] whose squares still sum to
# a finite float, so no Lorentzian denominator overflows to a silent 0.
MAX_RATE = math.sqrt(sys.float_info.max / 2.0)

# Largest database 2S, far above the 2S <= 8 of real paramagnetic ions.
MAX_TWO_S = 255

# Species names that would collide with the output: the fixed keys of
# point's key,value CSV and of sweep's header, and any name with the '.' of
# point's per-species keys such as '<name>.weights'.
OUTPUT_KEYS = ("freq_ghz", "total", "n_r", "temp_k", "p_over_pc")

DEFAULT_DB_RESOURCE = "sapphire_defects.json"
DEFAULT_EMISSION_RESOURCE = "rare_earth_lines.json"


@dataclass(frozen=True)
class SpeciesLines:
    """The transition lines of one species as read-only float64 arrays.

    centers are the line frequencies omega_if [rad/s], g the g-factors and
    weights the population weights, one entry per line; every line shares
    the species' FWHM.  The arrays are copied, so the caller's stay writable.
    """

    centers: np.ndarray
    g: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        shapes = []
        for name in ("centers", "g", "weights"):
            col = np.array(getattr(self, name), dtype=np.float64)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
            shapes.append(col.shape)
        if not (len(shapes[0]) == 1 and shapes[0] == shapes[1] == shapes[2]):
            raise InvalidInputs(
                f"line arrays must be 1-D and of equal length, got shapes {shapes}"
            )

    def __len__(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True, eq=False)
class DefectSpecies:
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
    """

    name: str
    two_s: int
    n_def: float
    gamma: float
    transition: tuple[float, float]
    lines: SpeciesLines
    # How the database spelled the linewidth; kept for run metadata only,
    # gamma is already angular.
    linewidth_convention: str = "cyclic_times_2pi"
    amps: np.ndarray = field(init=False, repr=False)
    peak_loss: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        two_s, lines = self.two_s, self.lines

        def fail(problem, li=None):
            where = f"species {ascii(self.name)}" + ("" if li is None else f": line {li}")
            raise InvalidInputs(f"{where}: {problem}")

        if plain_name(self.name) is None:
            fail(f"field 'name' {NAME_RULE}")
        if self.name in OUTPUT_KEYS or "." in self.name:
            fail(f"field 'name' must contain no '.' and be none of {', '.join(OUTPUT_KEYS)}")
        if isinstance(two_s, bool) or not (isinstance(two_s, int) and 1 <= two_s <= MAX_TWO_S):
            fail(f"field 'two_s' must be an integer in [1, {MAX_TWO_S}]")
        if not 0.0 <= self.n_def < math.inf:
            fail(
                "field 'concentration_per_cm3' must give a finite concentration >= 0, "
                f"got {self.n_def:.6g} m^-3"
            )
        # The kernel divides by the squared half-width.
        half = 0.5 * self.gamma
        if not (0.0 < half <= MAX_RATE and half * half >= sys.float_info.min):
            fail(
                "field 'linewidth_mhz' must give a positive FWHM whose half-width squares to a "
                f"normal double, got {self.gamma:.6g} rad/s"
            )
        try:
            ladder_m(two_s, self.transition)
        except InvalidInputs as exc:
            fail(f"field 'transition' {exc}")
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
        coupling = line_coupling_sq(two_s, self.transition, lines.g)
        with np.errstate(over="ignore"):  # an overflowing amplitude fails the peak bound
            amps = C * MD_PREFACTOR * self.n_def * lines.weights * coupling
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        # The loss never exceeds the on-resonance peak sum(amps) * 2 / (pi gamma):
        # power broadening and the thermal factor only lower it.
        peak_loss = sum(amps.tolist()) * 2.0 / (math.pi * float(self.gamma))
        if not math.isfinite(peak_loss):
            fail("fields 'concentration_per_cm3' and 'linewidth_mhz' give an infinite peak loss")
        object.__setattr__(self, "peak_loss", peak_loss)


@dataclass(frozen=True)
class Spectrum:
    """Frequency grid with per-species and total loss tangents."""

    freqs_ghz: np.ndarray
    per_species: dict
    total: np.ndarray


def check_unique_names(db, error=InvalidInputs) -> None:
    """Raise error naming, once each, every species name listed more than once."""
    repeated = [name for name, count in Counter(sp.name for sp in db).items() if count > 1]
    if repeated:
        raise error(f"species {', '.join(map(repr, repeated))}: listed more than once")


def species_loss(
    sp: DefectSpecies,
    omega,
    temp_k=None,
    power=None,
):
    """Loss-tangent contribution of one species over a grid.

    The probe frequency omega [rad/s] and the drive `power` (P/P_c) are
    scalars or arrays over one grid; scalars alone give a float.  Every
    grid point sums the lines in listed order, so a point equals the same
    point of a sweep bit for bit.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if not (np.all(omega > 0.0) and np.max(omega) <= MAX_RATE):
        raise InvalidInputs(
            f"angular probe frequency must be in (0, {MAX_RATE:.3g}] rad/s, got {omega}"
        )
    centers, amps = sp.lines.centers, sp.amps
    if temp_k is not None:
        amps = amps * temperature_factor(centers, temp_k)
    with np.errstate(over="ignore"):  # an overflowing width is rejected just below
        gamma = sp.gamma if power is None else power_broadened_gamma(sp.gamma, power)
    if not 0.5 * np.max(gamma) <= MAX_RATE:
        raise InvalidInputs(f"species {sp.name!r}: power-broadened linewidth overflows")
    out = np.zeros(np.broadcast_shapes(omega.shape, np.shape(gamma)))
    _kernels.lorentzian_mix(np.broadcast_to(omega, out.shape), centers, gamma, amps, out)
    return float(out) if out.ndim == 0 else out


def database_loss(db, omega, temp_k=None, power=None):
    """Loss tangent of each species in db and their total, as (per_species, total).

    omega [rad/s] is one probe frequency, which gives floats, or a grid
    array; power (P/P_c) is a scalar or an array over that grid.  Species are
    added in list order, so runs are bit-identical.  Species names must be
    unique, since per_species is keyed by name.  The sum of the species'
    peak_loss bounds the total, and is checked to be finite first.
    """
    check_unique_names(db)
    if not math.isfinite(sum(sp.peak_loss for sp in db)):
        names = ", ".join(repr(sp.name) for sp in db)
        raise InvalidInputs(f"species {names}: peak losses sum to an infinite total loss")
    per_species = {}
    total = np.zeros(np.shape(omega))
    for sp in db:
        per_species[sp.name] = species_loss(sp, omega, temp_k, power)
        total += per_species[sp.name]
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
    require("fmin", fmin_ghz, strict=True)
    if not fmin_ghz < fmax_ghz:
        raise InvalidInputs(f"need fmin < fmax, got [{fmin_ghz}, {fmax_ghz}]")
    if isinstance(points, bool) or not (isinstance(points, (int, np.integer)) and points >= 2):
        raise InvalidInputs(f"points must be an integer >= 2, got {points!r}")
    if not ghz_to_angular(float(fmax_ghz)) <= MAX_RATE:
        raise InvalidInputs(f"angular frequency of fmax {fmax_ghz} GHz overflows")
    freqs = np.linspace(fmin_ghz, fmax_ghz, points)
    per_species, total = database_loss(db, ghz_to_angular(freqs), temp_k, power)
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
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise DatabaseError(f"species entry {index}: missing field 'name'")
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
    with np.errstate(over="ignore"):  # an overflowing frequency fails the species' bound
        centers = ghz_to_angular(np.array(freq_ghz))
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


def default_db_path() -> str:
    """Path of the bundled sapphire defect database."""
    return str(resources.files("paramagloss.data") / DEFAULT_DB_RESOURCE)


def default_emission_path() -> str:
    """Path of the bundled emission-line table."""
    return str(resources.files("paramagloss.data") / DEFAULT_EMISSION_RESOURCE)
