"""The Lorentzian line profile and its temperature and power modifiers.

The profile is a unit-area spectral density over angular frequency, so
its values carry units of seconds.  It is evaluated at the detuning from
line center, omega - omega_if.
"""

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, KB
from .errors import InvalidInputs, require


@dataclass(frozen=True)
class LineshapeSpec:
    """Broadening model plus its width: a Lorentzian of FWHM gamma [rad/s].

    kind names the model; "lorentzian" is the only one.
    """

    kind: str
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind != "lorentzian":
            raise InvalidInputs(f"unknown lineshape kind {self.kind!r}; expected 'lorentzian'")
        require("gamma", self.gamma, strict=True)


def lorentzian(detuning, gamma):
    """Unit-area Lorentzian (1/pi)(gamma/2) / (d^2 + (gamma/2)^2).

    gamma is the full width at half maximum in rad/s.
    """
    half = 0.5 * require("gamma", gamma, strict=True)
    return (half / np.pi) / (detuning * detuning + half * half)


def _thermal_ratio(omega_if, temp, kt_scale):
    """hbar omega_if / (kt_scale kB T) over the broadcast inputs.

    Above 1e3 both thermal factors are exactly 1.0 in double precision
    (exp(-1e3) underflows to 0, tanh saturates near 19), so there the ratio
    takes its T -> 0 limit +inf.  That covers T = 0 and a T so small that
    kB T underflows to 0, and no division overflows.
    """
    temp = np.asarray(temp, dtype=np.float64)
    if not np.all(temp >= 0.0):
        raise InvalidInputs(f"temperature must be >= 0 K, got {np.min(temp)}")
    omega_if = np.asarray(omega_if, dtype=np.float64)
    if not np.all(omega_if > 0.0):
        raise InvalidInputs(f"omega_if must be positive, got {np.min(omega_if)}")
    energy = HBAR * omega_if
    kt = kt_scale * KB * temp
    out = np.full(np.broadcast_shapes(energy.shape, kt.shape), np.inf)
    return np.divide(energy, kt, out=out, where=energy < 1e3 * kt)


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
    ratios (a power grid), which gives an array of widths.
    """
    require("gamma0", gamma0, strict=True)
    ratio = np.asarray(require("p_over_pc", power), dtype=np.float64)
    width = gamma0 * np.sqrt(1.0 + ratio)
    return float(width) if np.ndim(width) == 0 else width
