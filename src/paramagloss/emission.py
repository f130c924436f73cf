"""Spontaneous magnetic-dipole emission rates and moment extraction.

The forward model turns a dimensionless squared moment and a transition
frequency into an emission rate; the inverse recovers the squared moment
from a measured rate and a vacuum wavelength.  Rates scale as the cube of
the transition frequency, which is why GHz-scale spin transitions emit at
most a few photons per year while optical lines emit in hertz.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .constants import A0, ALPHA, C, TWO_PI
from .errors import DatabaseError, InvalidInputs
from .ioformat import finite_float

# Rate prefactor: multiply by n_r^3, omega_if^3, and the squared moment.
EMISSION_PREFACTOR = ALPHA**3 * A0**2 / C**2

# Tolerance between a stored frequency and the one implied by the stored
# wavelength; tabulated frequencies are usually rounded to 0.1%.
FREQ_WAVELENGTH_RTOL = 5e-3

EXTRACTION_COLUMNS = ("label", "lambda_nm", "freq_thz", "a_md_hz", "m_sq", "m_abs")


def _check_n_r(n_r: float) -> None:
    if n_r < 1.0:
        raise InvalidInputs(f"refractive index must be >= 1, got {n_r}")


def wavelength_to_angular(lambda_vac: float) -> float:
    """Angular frequency [rad/s] of a vacuum wavelength [m]."""
    if lambda_vac <= 0.0:
        raise InvalidInputs(f"wavelength must be positive, got {lambda_vac}")
    return TWO_PI * C / lambda_vac


def photon_dos(omega: float, n_r: float = 1.0) -> float:
    """Photon density of states [s/(rad m^3)] in a medium of index n_r."""
    if omega < 0.0:
        raise InvalidInputs(f"frequency must be >= 0, got {omega}")
    _check_n_r(n_r)
    return n_r**3 * omega**2 / (C**3 * math.pi**2)


def a_md(omega_if: float, m_sq: float, n_r: float = 1.0) -> float:
    """Spontaneous emission rate [1/s] of a magnetic-dipole transition."""
    if omega_if <= 0.0:
        raise InvalidInputs(f"transition frequency must be positive, got {omega_if}")
    if m_sq < 0.0:
        raise InvalidInputs(f"squared moment must be >= 0, got {m_sq}")
    _check_n_r(n_r)
    return n_r**3 * EMISSION_PREFACTOR * omega_if**3 * m_sq


def extract_moment(a: float, lambda_vac: float, n_r: float = 1.0) -> float:
    """Squared dimensionless moment inferred from a measured rate.

    Inverse of a_md with the transition frequency taken from the vacuum
    wavelength, so extract_moment(a_md(w, m, n), 2*pi*c/w, n) round-trips.
    """
    if a < 0.0:
        raise InvalidInputs(f"emission rate must be >= 0, got {a}")
    _check_n_r(n_r)
    omega_if = wavelength_to_angular(lambda_vac)
    return a / (n_r**3 * EMISSION_PREFACTOR * omega_if**3)


def ghz_equivalent_rate(omega_if: float, m_sq: float, n_r: float = 1.0) -> float:
    """Emission rate of a microwave-frequency line; same model as a_md.

    Named separately to document the cubic suppression: a spin transition
    near 10 GHz with a moment of order one emits less than 1e-11 photons
    per second, far below any detection threshold.
    """
    return a_md(omega_if, m_sq, n_r)


@dataclass(frozen=True)
class EmissionLine:
    """One radiative line with its measured rate and extracted moment."""

    label: str
    lambda_vac: float
    omega_if: float
    a_md: float
    m_sq: float

    def __post_init__(self) -> None:
        implied = wavelength_to_angular(self.lambda_vac)
        if abs(self.omega_if - implied) > FREQ_WAVELENGTH_RTOL * implied:
            raise InvalidInputs(
                f"line {self.label!r}: frequency {self.omega_if} inconsistent "
                f"with wavelength (expected near {implied})"
            )
        if self.a_md < 0.0:
            raise InvalidInputs(f"line {self.label!r}: negative emission rate")
        if self.m_sq < 0.0:
            raise InvalidInputs(f"line {self.label!r}: negative squared moment")

    @property
    def m_abs(self) -> float:
        return math.sqrt(self.m_sq)


def line_from_rate(
    label: str, lambda_nm: float, a_md_hz: float, n_r: float = 1.0
) -> EmissionLine:
    """Build an EmissionLine from a wavelength [nm] and a rate [1/s].

    Each field is checked where it enters the extraction, in the order
    lambda_nm, n_r, a_md_hz: the rate scale EMISSION_PREFACTOR * omega^3
    must be a finite normal double, n_r >= 1 must keep n_r^3 times it
    finite, and the squared moment a_md_hz / (n_r^3 * scale) must be finite
    and >= 0.  A failed check raises InvalidInputs naming the field and its
    value.
    """
    lambda_vac = lambda_nm * 1e-9
    omega_if = wavelength_to_angular(lambda_vac) if lambda_vac > 0.0 else math.inf

    def rate_scale(n):
        """n^3 * EMISSION_PREFACTOR * omega_if^3 as extract_moment computes it, or inf."""
        try:
            return n**3 * EMISSION_PREFACTOR * omega_if**3
        except OverflowError:  # a cube past the float range
            return math.inf

    if not sys.float_info.min <= rate_scale(1.0) < math.inf:
        raise InvalidInputs(
            f"field 'lambda_nm' must be > 0 with a normal, finite rate scale, got {lambda_nm!r}"
        )
    if not (n_r >= 1.0 and rate_scale(n_r) < math.inf):
        raise InvalidInputs(f"field 'n_r' must be >= 1 with a finite rate scale, got {n_r!r}")
    m_sq = a_md_hz / rate_scale(n_r)
    if not 0.0 <= m_sq < math.inf:
        raise InvalidInputs(f"field 'a_md_hz' must give a finite moment >= 0, got {a_md_hz!r}")
    return EmissionLine(
        label=label,
        lambda_vac=lambda_vac,
        omega_if=omega_if,
        a_md=a_md_hz,
        m_sq=m_sq,
    )


def read_emission_table(path) -> list[EmissionLine]:
    """Load a JSON array of {label, lambda_nm, a_md_hz, n_r?} entries."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DatabaseError(f"cannot read emission table {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax or encoding, or an int over 4300 digits
        raise DatabaseError(f"emission table {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DatabaseError(f"emission table {path} must be a JSON array")
    lines = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise DatabaseError(f"emission table entry {idx} is not an object")
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise DatabaseError(f"emission table entry {idx}: missing field 'label'")
        numbers = []
        for field, default in (("lambda_nm", None), ("a_md_hz", None), ("n_r", 1.0)):
            if field not in entry and default is None:
                raise DatabaseError(f"line {label!r}: missing field {field!r}")
            value = finite_float(entry.get(field, default))
            if value is None:
                raise DatabaseError(
                    f"line {label!r}: field {field!r} must be a finite number"
                )
            numbers.append(value)
        try:
            lines.append(line_from_rate(label, *numbers))
        except InvalidInputs as exc:
            raise DatabaseError(f"line {label!r}: {exc}") from exc
    return lines


def extraction_rows(lines) -> list[list]:
    """One row of EXTRACTION_COLUMNS per emission line: its label and five floats."""
    return [
        [
            line.label,
            line.lambda_vac * 1e9,
            line.omega_if / (TWO_PI * 1e12),
            line.a_md,
            line.m_sq,
            line.m_abs,
        ]
        for line in lines
    ]
