"""The Lorentzian line profile and its temperature and power modifiers.

The profile is a unit-area spectral density over angular frequency, so
its values carry units of seconds.  It is evaluated at the detuning from
line center, omega - omega_if.
"""

import numpy as np

from .constants import HBAR, KB
from .errors import (
    InvalidInputs, Record, broadcast_shape, evaluate, is_real, require, require_number,
)


class LineshapeSpec(Record):
    """Broadening model plus its width: a Lorentzian of FWHM gamma [rad/s].

    kind names the model; "lorentzian" is the only one.
    """

    __slots__ = ("kind", "gamma")

    def __init__(self, kind: str, gamma: float):
        if kind != "lorentzian":
            raise InvalidInputs(f"unknown lineshape kind {kind!r}; expected 'lorentzian'")
        self._set_fields(kind, require("gamma", gamma, strict=True))


def lorentzian(detuning, gamma):
    """Unit-area Lorentzian (1/pi)(gamma/2) / (d^2 + (gamma/2)^2).

    gamma is the full width at half maximum in rad/s.  A density past the
    float range, as at the center of a line too narrow to square, is an error.
    """
    # A numpy half makes a zero denominator give inf, not ZeroDivisionError.
    half = np.multiply(0.5, require("gamma", gamma, strict=True))
    detuning = require("detuning", detuning, -np.inf)
    broadcast_shape(detuning=detuning, gamma=gamma)
    # The density check rejects an inf, and the nan of 0 / 0 where gamma / 2 underflows to 0.
    density = evaluate(lambda: (half / np.pi) / (detuning * detuning + half * half))
    return require("Lorentzian density", density)


def _thermal_ratio(omega_if, temp, kt_scale):
    """hbar omega_if / (kt_scale kB T) over the broadcast inputs.

    The ratio is (omega_if / T) * (hbar / (kt_scale kB)), so neither hbar
    omega_if nor kB T underflows first.  At T = 0 it takes its T -> 0 limit
    +inf; where omega_if / T overflows it is +inf too, and both thermal
    factors are exactly 1.0 there, as they are for any ratio above ~745.
    """
    temp = np.asarray(require("temperature", temp), dtype=np.float64)
    # omega_if = +inf is allowed, and gives the ratio +inf as T = 0 does.
    if not is_real(omega_if):
        raise InvalidInputs(f"omega_if must be positive, got {omega_if!r}")
    omega_if = np.asarray(omega_if, dtype=np.float64)
    if not np.all(omega_if > 0.0):
        raise InvalidInputs(f"omega_if must be positive, got {np.min(omega_if)}")
    inf_filled = np.full(broadcast_shape(omega_if=omega_if, temperature=temp), np.inf)
    return evaluate(
        lambda: np.divide(omega_if, temp, out=inf_filled, where=temp > 0.0)
        * (HBAR / (kt_scale * KB))
    )


def temperature_factor(omega_if, temp):
    """Thermal occupation factor (1 + exp(-hbar omega / kB T))^-2.

    Equals 1 at T = 0 (by continuity), is monotonically decreasing in T,
    and saturates to 1/4 at high temperature.  Arguments broadcast; scalars
    give a float.
    """
    # float_power is libm pow, the same bits for arrays as for scalars.
    w = np.float_power(1.0 + np.exp(-_thermal_ratio(omega_if, temp, 1.0)), -2)
    return float(w) if np.ndim(w) == 0 else w


def tanh_factor(omega_if, temp):
    """Resonant two-level saturation factor tanh(hbar omega / 2 kB T).

    The standard fitting form for resonant absorbers: 1 at T = 0, falling
    to 0 at high temperature (unlike temperature_factor, which saturates
    at 1/4).  Arguments broadcast; scalars give a float.
    """
    th = np.tanh(_thermal_ratio(omega_if, temp, 2.0))
    return float(th) if np.ndim(th) == 0 else th


def power_broadened_gamma(gamma0: float, power):
    """Power-broadened FWHM gamma0 * sqrt(1 + P/P_c).

    `power` is the ratio P/P_c of drive to critical power, or an array of
    ratios (a power grid), which gives an array of widths.  A width past
    the float range raises InvalidInputs.
    """
    gamma0 = require_number("gamma0", gamma0, strict=True)
    ratio = np.asarray(require("p_over_pc", power), dtype=np.float64)
    width = evaluate(lambda: gamma0 * np.sqrt(1.0 + ratio))
    if not np.isfinite(width).all():
        raise InvalidInputs("power-broadened linewidth overflows")
    return float(width) if np.ndim(width) == 0 else width
