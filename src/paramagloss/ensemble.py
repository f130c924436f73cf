"""Loss-tangent spectra aggregated over a database of defect species.

Each species carries a spin, a concentration, a homogeneous linewidth,
and one or more transition lines (several for hyperfine manifolds).  The
per-line coupling comes from the spin algebra; the probe frequency and
the refractive index cancel between the cross section and the loss
tangent, so the summed spectrum reduces to a fixed-order mix of
unit-area Lorentzians with precomputed amplitudes.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import _kernels
from .absorption import MD_PREFACTOR
from .constants import C, ghz_to_angular, mhz_to_angular
from .errors import DatabaseError, InvalidInputs, InvalidRange
from .ioformat import finite_float
from .lineshape import power_broadened_gamma, temperature_factor
from .spin import basis_state, spin_operators

# Interpretation of the database linewidth_mhz field: a cyclic frequency
# to be multiplied by 2*pi, or already an angular rate in 1e6 rad/s.
LINEWIDTH_CONVENTIONS = ("cyclic_times_2pi", "angular_rate")

WEIGHT_SUM_TOL = 1e-9

# Largest angular frequency or half-width [rad/s] whose squares still sum to
# a finite float, so no Lorentzian denominator overflows to a silent 0.
MAX_RATE = math.sqrt(sys.float_info.max / 2.0)

# Largest database 2S.  The couplings build (2S+1) x (2S+1) complex spin
# matrices, 1 MiB each at this cap; real paramagnetic ions have 2S <= 8.
MAX_TWO_S = 255

DEFAULT_DB_RESOURCE = "sapphire_defects.json"
DEFAULT_EMISSION_RESOURCE = "rare_earth_lines.json"


def linewidth_to_angular(linewidth_mhz: float, convention: str) -> float:
    """Angular FWHM [rad/s] from a database linewidth entry."""
    if linewidth_mhz <= 0.0:
        raise InvalidInputs(f"linewidth must be positive, got {linewidth_mhz}")
    if convention == "cyclic_times_2pi":
        return mhz_to_angular(linewidth_mhz)
    if convention == "angular_rate":
        return linewidth_mhz * 1e6
    raise InvalidInputs(
        f"unknown linewidth convention {convention!r}, "
        f"expected one of {LINEWIDTH_CONVENTIONS}"
    )


@dataclass(frozen=True)
class DefectLine:
    """One transition line: g-factor, angular frequency, population weight."""

    g_e: float
    omega_if: float
    weight: float

    def __post_init__(self) -> None:
        if self.g_e <= 0.0:
            raise InvalidInputs(f"g-factor must be positive, got {self.g_e}")
        if not 0.0 < self.omega_if <= MAX_RATE:
            raise InvalidInputs(
                f"line frequency must be in (0, {MAX_RATE:.3g}] rad/s, got {self.omega_if}"
            )
        if not 0.0 < self.weight <= 1.0:
            raise InvalidInputs(f"line weight must be in (0, 1], got {self.weight}")


@dataclass(frozen=True)
class LineTable:
    """Per-line constants of one species, read-only, built once per species.

    centers are the line frequencies omega_if in rad/s; every line shares
    the species' FWHM gamma.  amps[l] = c * pi^2 alpha^3 a0^2 *
    n_def * weight_l * coupling_l folds together everything that cancels or
    is constant across a grid; times the thermal factor w_l(T) and the
    unit-area Lorentzian it gives the line's loss-tangent contribution.
    """

    centers: np.ndarray
    amps: np.ndarray


def _is_valid_m(two_m: int, two_s: int) -> bool:
    return abs(two_m) <= two_s and (two_m - two_s) % 2 == 0


@dataclass(frozen=True)
class DefectSpecies:
    """A defect population with its transition lines.

    The transition field names the (m_i, m_f) sublevel pair whose coupling
    is used for every line; the +-m partners are one Kramers-degenerate
    line at the same frequency, so n_def is the total spin concentration
    and lines are not double-counted.
    """

    name: str
    two_s: int
    n_def: float
    gamma: float
    transition: tuple[float, float]
    lines: tuple[DefectLine, ...]
    # How the database spelled the linewidth; kept for run metadata only,
    # gamma is already angular.
    linewidth_convention: str = "cyclic_times_2pi"

    def __post_init__(self) -> None:
        if self.two_s < 1:
            raise InvalidInputs(f"{self.name}: two_s must be >= 1, got {self.two_s}")
        if self.n_def < 0.0:
            raise InvalidInputs(f"{self.name}: concentration must be >= 0")
        if self.gamma <= 0.0:
            raise InvalidInputs(f"{self.name}: linewidth must be positive")
        if len(self.lines) == 0:
            raise InvalidInputs(f"{self.name}: species needs at least one line")
        m_i, m_f = self.transition
        two_mi = round(2.0 * m_i)
        two_mf = round(2.0 * m_f)
        if abs(2.0 * m_i - two_mi) > 1e-9 or abs(2.0 * m_f - two_mf) > 1e-9:
            raise InvalidInputs(
                f"{self.name}: transition values must be half-integers"
            )
        if not (_is_valid_m(two_mi, self.two_s) and _is_valid_m(two_mf, self.two_s)):
            raise InvalidInputs(
                f"{self.name}: transition ({m_i}, {m_f}) outside the "
                f"two_s={self.two_s} ladder"
            )
        if abs(two_mi - two_mf) != 2:
            raise InvalidInputs(
                f"{self.name}: transition ({m_i}, {m_f}) must change m by 1"
            )

    @functools.cached_property
    def table(self) -> LineTable:
        """The species' LineTable; the spin algebra runs once, on first use."""
        centers = np.array([line.omega_if for line in self.lines])
        weights = np.array([line.weight for line in self.lines])
        g = np.array([line.g_e for line in self.lines])
        coupling = line_coupling_sq(self.two_s, self.transition, g)
        amps = C * MD_PREFACTOR * self.n_def * weights * coupling
        for col in (centers, amps):
            col.setflags(write=False)
        return LineTable(centers, amps)


@dataclass(frozen=True)
class Spectrum:
    """Frequency grid with per-species and total loss tangents."""

    freqs_ghz: np.ndarray
    per_species: dict
    total: np.ndarray


@functools.lru_cache(maxsize=None)
def _cached_operators(two_s: int):
    return spin_operators(two_s)


def line_coupling_sq(two_s: int, transition: tuple[float, float], g_e):
    """Unpolarized squared coupling of a pure-spin sublevel transition.

    g_e is one g-factor, which gives a float, or a 1-D array of them, which
    gives one coupling per entry.  The spin matrix elements are computed
    once and each entry runs the operation sequence of transition_moment
    and unpolarized_coupling, so it equals
    unpolarized_coupling(transition_moment(psi_i, psi_f, ops, g)) bit for bit.
    """
    ops = _cached_operators(two_s)
    m_i, m_f = transition
    psi_i = basis_state(two_s, m_i)
    bra = basis_state(two_s, m_f).conj()
    elems = np.array([bra @ (ops.sx @ psi_i), bra @ (ops.sy @ psi_i), bra @ (ops.sz @ psi_i)])
    g = np.asarray(g_e, dtype=np.float64)
    moments = g.reshape(-1, 1) * elems
    coupling = np.sum(np.abs(moments) ** 2, axis=1) / 3.0
    return float(coupling[0]) if g.ndim == 0 else coupling


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
    table = sp.table
    amps = table.amps
    if temp_k is not None:
        amps = amps * temperature_factor(table.centers, temp_k)
    with np.errstate(over="ignore"):  # an overflowing width is rejected just below
        gamma = sp.gamma if power is None else power_broadened_gamma(sp.gamma, power)
    if not 0.5 * np.max(gamma) <= MAX_RATE:
        raise InvalidRange(f"species {sp.name!r}: power-broadened linewidth overflows")
    out = np.zeros(np.broadcast_shapes(omega.shape, np.shape(gamma)))
    _kernels.lorentzian_mix(np.broadcast_to(omega, out.shape), table.centers, gamma, amps, out)
    return float(out) if out.ndim == 0 else out


def sweep(
    db,
    fmin_ghz: float,
    fmax_ghz: float,
    points: int,
    temp_k=None,
    power=None,
) -> Spectrum:
    """Loss-tangent spectrum of a species list on a uniform GHz grid.

    Species are evaluated in list order and the total is accumulated in
    that order, so repeated runs are bit-identical and a sweep over a
    concatenated database equals the elementwise sum of partial sweeps.
    """
    if not fmin_ghz < fmax_ghz:
        raise InvalidRange(
            f"need fmin < fmax, got [{fmin_ghz}, {fmax_ghz}]"
        )
    if fmin_ghz <= 0.0:
        raise InvalidRange(f"fmin must be positive, got {fmin_ghz}")
    if points < 2:
        raise InvalidRange(f"need at least 2 grid points, got {points}")
    if not ghz_to_angular(float(fmax_ghz)) <= MAX_RATE:
        raise InvalidRange(f"angular frequency of fmax {fmax_ghz} GHz overflows")
    freqs = np.linspace(fmin_ghz, fmax_ghz, points)
    omegas = ghz_to_angular(freqs)
    per_species = {}
    total = np.zeros(points, dtype=np.float64)
    for sp in db:
        out = species_loss(sp, omegas, temp_k=temp_k, power=power)
        out.setflags(write=False)
        per_species[sp.name] = out
        total += out
    freqs.setflags(write=False)
    total.setflags(write=False)
    return Spectrum(freqs_ghz=freqs, per_species=per_species, total=total)


def _require_number(entry: dict, field: str, name: str, li=None) -> float:
    """entry[field] as a finite float; errors name the species and line li."""
    if field in entry:
        value = finite_float(entry[field])
        if value is not None:
            return value
        problem = f"field {field!r} must be a finite number"
    else:
        problem = f"missing field {field!r}"
    where = f"species {name!r}" if li is None else f"species {name!r}: line {li}"
    raise DatabaseError(f"{where}: {problem}")


def parse_species(entry: dict, index: int) -> DefectSpecies:
    """Build one DefectSpecies from a decoded database entry."""
    if not isinstance(entry, dict):
        raise DatabaseError(f"species entry {index} is not an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise DatabaseError(f"species entry {index}: missing field 'name'")
    two_s = entry.get("two_s")
    if not isinstance(two_s, int) or isinstance(two_s, bool) or not 1 <= two_s <= MAX_TWO_S:
        raise DatabaseError(
            f"species {name!r}: field 'two_s' must be an integer in [1, {MAX_TWO_S}]"
        )
    n_cm3 = _require_number(entry, "concentration_per_cm3", name)
    linewidth_mhz = _require_number(entry, "linewidth_mhz", name)
    convention = entry.get("linewidth_convention", "cyclic_times_2pi")
    if convention not in LINEWIDTH_CONVENTIONS:
        raise DatabaseError(
            f"species {name!r}: field 'linewidth_convention' must be one of "
            f"{LINEWIDTH_CONVENTIONS}, got {convention!r}"
        )
    transition = entry.get("transition")
    if (
        not isinstance(transition, list)
        or len(transition) != 2
        or any(finite_float(m) is None for m in transition)
    ):
        raise DatabaseError(
            f"species {name!r}: field 'transition' must be a pair of finite numbers"
        )
    raw_lines = entry.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise DatabaseError(f"species {name!r}: field 'lines' must be a non-empty array")
    lines = []
    for li, raw in enumerate(raw_lines):
        if not isinstance(raw, dict):
            raise DatabaseError(f"species {name!r}: line {li} is not an object")
        g = _require_number(raw, "g", name, li)
        # Every spin matrix element is below (two_s + 1) / 2, so this bound
        # keeps the squared moments in line_coupling_sq finite.
        if not g * (two_s + 1) <= MAX_RATE:
            raise DatabaseError(
                f"species {name!r}: line {li}: field 'g' must be at most "
                f"{MAX_RATE / (two_s + 1):.3g} for two_s={two_s}, got {g}"
            )
        freq_ghz = _require_number(raw, "freq_ghz", name, li)
        weight = _require_number(raw, "weight", name, li)
        try:
            lines.append(
                DefectLine(g_e=g, omega_if=ghz_to_angular(freq_ghz), weight=weight)
            )
        except InvalidInputs as exc:
            raise DatabaseError(f"species {name!r}: line {li}: {exc}") from exc
    weight_sum = sum(line.weight for line in lines)
    if abs(weight_sum - 1.0) > WEIGHT_SUM_TOL:
        raise DatabaseError(
            f"species {name!r}: line weights sum to {weight_sum}, expected 1"
        )
    n_def = n_cm3 * 1e6
    if not math.isfinite(n_def):
        raise DatabaseError(f"species {name!r}: field 'concentration_per_cm3' overflows: {n_cm3}")
    try:
        species = DefectSpecies(
            name=name,
            two_s=two_s,
            n_def=n_def,
            gamma=linewidth_to_angular(linewidth_mhz, convention),
            transition=(float(transition[0]), float(transition[1])),
            lines=tuple(lines),
            linewidth_convention=convention,
        )
    except InvalidInputs as exc:
        raise DatabaseError(f"species {name!r}: {exc}") from exc
    # The kernel divides by the squared half-width, and the loss never exceeds
    # the on-resonance peak sum(amps) * 2 / (pi gamma): power broadening and
    # the thermal factor only lower it.
    half = 0.5 * species.gamma
    if not (sys.float_info.min <= half * half and half <= MAX_RATE):
        raise DatabaseError(
            f"species {name!r}: field 'linewidth_mhz' gives a half-width of {half:.3g} rad/s, "
            "too small or too large to square in double precision"
        )
    if not math.isfinite(sum(species.table.amps.tolist()) * 2.0 / (math.pi * species.gamma)):
        raise DatabaseError(
            f"species {name!r}: fields 'concentration_per_cm3' and 'linewidth_mhz' "
            "give an infinite peak loss"
        )
    return species


def load_species_db(path) -> list[DefectSpecies]:
    """Load a JSON species database; errors name the offending entry."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DatabaseError(f"cannot read database {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax or encoding, or an int over 4300 digits
        raise DatabaseError(f"database {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DatabaseError(f"database {path} must be a JSON array of species")
    db = [parse_species(entry, idx) for idx, entry in enumerate(raw)]
    names = [sp.name for sp in db]
    if len(set(names)) != len(names):
        raise DatabaseError(f"database {path} has duplicate species names")
    return db


def default_db_path() -> str:
    """Path of the bundled sapphire defect database."""
    return str(resources.files("paramagloss.data") / DEFAULT_DB_RESOURCE)


def default_emission_path() -> str:
    """Path of the bundled emission-line table."""
    return str(resources.files("paramagloss.data") / DEFAULT_EMISSION_RESOURCE)
