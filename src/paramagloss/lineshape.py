"""Broadening profiles and their temperature and power modifiers.

All profiles are unit-area spectral densities over angular frequency, so
their values carry units of seconds.  They are evaluated at the detuning
from line center, omega - omega_if.
"""

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, KB
from .errors import (
    DeltaKindUnsupported,
    InvalidInputs,
    NegativeTemperature,
    NonPositiveWidth,
)

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)

KINDS = ("delta", "lorentzian", "gaussian", "voigt")


@dataclass(frozen=True)
class LineshapeSpec:
    """Broadening model plus the width parameters it needs.

    gamma is a Lorentzian FWHM and sigma a Gaussian standard deviation,
    both angular (rad/s).  Only the widths the chosen kind uses are
    validated.
    """

    kind: str
    gamma: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputs(f"unknown lineshape kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in ("lorentzian", "voigt") and not self.gamma > 0.0:
            raise NonPositiveWidth(f"{self.kind} lineshape needs gamma > 0, got {self.gamma}")
        if self.kind in ("gaussian", "voigt") and not self.sigma > 0.0:
            raise NonPositiveWidth(f"{self.kind} lineshape needs sigma > 0, got {self.sigma}")


def lorentzian(detuning, gamma):
    """Unit-area Lorentzian (1/pi)(gamma/2) / (d^2 + (gamma/2)^2).

    gamma is the full width at half maximum in rad/s.
    """
    if not gamma > 0.0:
        raise NonPositiveWidth(f"gamma must be positive, got {gamma}")
    half = 0.5 * gamma
    return (half / np.pi) / (detuning * detuning + half * half)


def gaussian(detuning, sigma):
    """Unit-area Gaussian with standard deviation sigma [rad/s]."""
    if not sigma > 0.0:
        raise NonPositiveWidth(f"sigma must be positive, got {sigma}")
    return np.exp(-0.5 * (detuning / sigma) ** 2) / (sigma * _SQRT2PI)


def voigt(detuning, gamma, sigma):
    """Convolution of the Lorentzian (FWHM gamma) and Gaussian (std sigma).

    Evaluated as Re[w(z)] / (sigma sqrt(2 pi)) with
    z = (d + i gamma/2) / (sigma sqrt 2), where w is the Faddeeva function
    (scaled complementary complex error function).  Accurate to far better
    than 1e-6 relative, which direct quadrature of the convolution
    confirms.
    """
    if not gamma > 0.0:
        raise NonPositiveWidth(f"gamma must be positive, got {gamma}")
    if not sigma > 0.0:
        raise NonPositiveWidth(f"sigma must be positive, got {sigma}")
    # scipy.special costs more start-up than all else the CLI imports, and
    # only this profile needs it.
    from scipy.special import wofz  # noqa: PLC0415

    z = (detuning + 0.5j * gamma) / (sigma * _SQRT2)
    return wofz(z).real / (sigma * _SQRT2PI)


def evaluate(spec: LineshapeSpec, detuning):
    """Spectral density of `spec` at the given angular detuning.

    A delta line has no pointwise density and is rejected; integrate it
    analytically or choose a broadened kind.
    """
    if spec.kind == "lorentzian":
        return lorentzian(detuning, spec.gamma)
    if spec.kind == "gaussian":
        return gaussian(detuning, spec.sigma)
    if spec.kind == "voigt":
        return voigt(detuning, spec.gamma, spec.sigma)
    raise DeltaKindUnsupported(
        "delta lineshape has no pointwise spectral density; use lorentzian, gaussian, or voigt"
    )


def _thermal_ratio(omega_if, temp, kt_scale):
    """hbar omega_if / (kt_scale kB T) over the broadcast inputs.

    Above 1e3 both thermal factors are exactly 1.0 in double precision
    (exp(-1e3) underflows to 0, tanh saturates near 19), so there the ratio
    takes its T -> 0 limit +inf.  That covers T = 0 and a T so small that
    kB T underflows to 0, and no division overflows.
    """
    temp = np.asarray(temp, dtype=np.float64)
    if not np.all(temp >= 0.0):
        raise NegativeTemperature(f"temperature must be >= 0 K, got {np.min(temp)}")
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
    if not gamma0 > 0.0:
        raise NonPositiveWidth(f"gamma0 must be positive, got {gamma0}")
    ratio = np.asarray(power, dtype=np.float64)
    if np.any(ratio < 0.0):
        raise InvalidInputs(f"p_over_pc must be >= 0, got {np.min(ratio)}")
    width = gamma0 * np.sqrt(1.0 + ratio)
    return float(width) if np.ndim(width) == 0 else width
