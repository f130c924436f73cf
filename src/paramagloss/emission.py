"""Spontaneous magnetic-dipole emission rates and moment extraction.

The forward model turns a dimensionless squared moment and a transition
frequency into an emission rate; the inverse recovers the squared moment
from a measured rate and a vacuum wavelength.  Rates scale as the cube of
the transition frequency, which is why GHz-scale spin transitions emit at
most a few photons per year while optical lines emit in hertz.
"""

from __future__ import annotations

import math
import sys

from .constants import A0, ALPHA, C, TWO_PI
from .errors import (
    DatabaseError, InvalidInputs, Record, broadcast_shape, evaluate, require, require_number,
)
from .ioformat import NAME_RULE, number_field, plain_name, read_json_array

# Rate prefactor: multiply by n_r^3, omega_if^3, and the squared moment.
EMISSION_PREFACTOR = ALPHA**3 * A0**2 / C**2

EXTRACTION_COLUMNS = ("label", "lambda_nm", "freq_thz", "a_md_hz", "m_sq", "m_abs")


def wavelength_to_angular(lambda_vac: float) -> float:
    """Angular frequency [rad/s] of a vacuum wavelength [m]."""
    lambda_vac = require("lambda_vac", lambda_vac, strict=True)
    omega = evaluate(lambda: TWO_PI * C / lambda_vac)
    return require(f"angular frequency of lambda_vac={lambda_vac!r}", omega)


def photon_dos(omega: float, n_r: float = 1.0) -> float:
    """Photon density of states [s/(rad m^3)] in a medium of index n_r."""
    omega = require("omega", omega)
    n_r = require("n_r", n_r, 1.0)
    broadcast_shape(omega=omega, n_r=n_r)
    dos = evaluate(lambda: n_r**3 * omega**2 / (C**3 * math.pi**2))
    return require(f"photon density of states at omega={omega!r}, n_r={n_r!r}", dos)


def _rate_scale(omega_if: float, n_r: float = 1.0) -> float:
    """n_r^3 * EMISSION_PREFACTOR * omega_if^3, the rate per squared moment, or inf."""
    return evaluate(lambda: n_r**3 * EMISSION_PREFACTOR * omega_if**3)


def a_md(omega_if: float, m_sq: float, n_r: float = 1.0) -> float:
    """Spontaneous emission rate [1/s] of a magnetic-dipole transition."""
    omega_if = require("omega_if", omega_if, strict=True)
    m_sq = require("m_sq", m_sq)
    n_r = require("n_r", n_r, 1.0)
    broadcast_shape(omega_if=omega_if, m_sq=m_sq, n_r=n_r)
    rate = evaluate(lambda: _rate_scale(omega_if, n_r) * m_sq)
    return require(f"emission rate at omega_if={omega_if!r}, m_sq={m_sq!r}, n_r={n_r!r}", rate)


def _moment(a: float, lambda_vac: float, n_r: float, names, wavelength):
    """(omega_if, m_sq) of a rate a [1/s] at a vacuum wavelength [m].

    Checked in the order wavelength, n_r, rate: the rate scale
    EMISSION_PREFACTOR * omega_if^3 must be a finite normal double, n_r >= 1
    must keep n_r^3 times it finite, and the squared moment a / (n_r^3 *
    scale) must be finite and >= 0.  A failed check raises InvalidInputs
    naming the input as names spells (wavelength, n_r, rate), with its
    value; the wavelength's value shown is `wavelength`.  Each input must
    be a single finite real first.
    """
    lambda_vac, n_r, a = (
        require_number(name, value, -math.inf) for name, value in zip(names, (lambda_vac, n_r, a))
    )
    # Not wavelength_to_angular, whose errors would not name the input as names does.
    omega_if = TWO_PI * C / lambda_vac if lambda_vac > 0.0 else math.inf
    if not sys.float_info.min <= _rate_scale(omega_if) < math.inf:
        raise InvalidInputs(
            f"{names[0]} must be > 0 with a normal, finite rate scale, got {wavelength!r}"
        )
    scale = _rate_scale(omega_if, n_r)
    if not (n_r >= 1.0 and scale < math.inf):
        raise InvalidInputs(f"{names[1]} must be >= 1 with a finite rate scale, got {n_r!r}")
    m_sq = a / scale
    if not 0.0 <= m_sq < math.inf:
        raise InvalidInputs(f"{names[2]} must give a finite moment >= 0, got {a!r}")
    return omega_if, m_sq


def extract_moment(a: float, lambda_vac: float, n_r: float = 1.0) -> float:
    """Squared dimensionless moment inferred from a measured rate.

    Inverse of a_md with the transition frequency taken from the vacuum
    wavelength, so extract_moment(a_md(w, m, n), 2*pi*c/w, n) round-trips.
    A wavelength, n_r or rate that takes the extraction outside the float
    range raises InvalidInputs, as line_from_rate does.
    """
    return _moment(a, lambda_vac, n_r, ("lambda_vac", "n_r", "a"), lambda_vac)[1]


class EmissionLine(Record):
    """One radiative line with its measured rate and extracted moment."""

    __slots__ = ("label", "lambda_vac", "omega_if", "a_md", "m_sq")

    def __init__(self, label: str, lambda_vac: float, omega_if: float, a_md: float,
                 m_sq: float) -> None:
        where = f"line {label!r}"
        self._set_fields(
            label,
            require_number(f"{where}: lambda_vac", lambda_vac, strict=True),
            require_number(f"{where}: omega_if", omega_if, strict=True),
            require_number(f"{where}: a_md", a_md),
            require_number(f"{where}: m_sq", m_sq),
        )

    @property
    def m_abs(self) -> float:
        return math.sqrt(self.m_sq)


def line_from_rate(
    label: str, lambda_nm: float, a_md_hz: float, n_r: float = 1.0
) -> EmissionLine:
    """Build an EmissionLine from a wavelength [nm] and a rate [1/s].

    The fields are checked by the rule of extract_moment, in the order
    lambda_nm, n_r, a_md_hz, and a failed check raises InvalidInputs naming
    the field and its value.
    """
    lambda_vac = lambda_nm * 1e-9
    fields = ("field 'lambda_nm'", "field 'n_r'", "field 'a_md_hz'")
    omega_if, m_sq = _moment(a_md_hz, lambda_vac, n_r, fields, lambda_nm)
    return EmissionLine(
        label=label,
        lambda_vac=lambda_vac,
        omega_if=omega_if,
        a_md=a_md_hz,
        m_sq=m_sq,
    )


def read_emission_table(path) -> list[EmissionLine]:
    """Load a JSON array of {label, lambda_nm, a_md_hz, n_r?} entries."""
    lines = []
    for idx, entry in enumerate(read_json_array(path, "emission table")):
        if not isinstance(entry, dict):
            raise DatabaseError(f"emission table entry {idx} is not an object")
        label = plain_name(entry.get("label"))
        if label is None:
            raise DatabaseError(
                f"emission table entry {idx}: field 'label' {NAME_RULE}, "
                f"got {ascii(entry.get('label'))}"
            )
        where = f"line {label!r}"
        numbers = [
            number_field(entry, field, where, default)
            for field, default in (("lambda_nm", None), ("a_md_hz", None), ("n_r", 1.0))
        ]
        try:
            lines.append(line_from_rate(label, *numbers))
        except InvalidInputs as exc:
            raise DatabaseError(f"{where}: {exc}") from exc
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
