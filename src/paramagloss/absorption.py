"""Magnetic-dipole cross section, attenuation, and the loss tangent.

The chain is the cross section of a magnetic-dipole transition with a
Lorentzian line, the absorption coefficient N_def * sigma, and the loss
tangent.  The cross section keeps the probe frequency omega as its linear
prefactor; the loss tangent divides it back out, so the loss depends on
frequency only through the lineshape.  The refractive index enters the
cross section linearly and the loss tangent inversely, so it cancels from
the full chain.
"""

import numpy as np

from . import lineshape as ls
from .constants import A0, ALPHA, C
from .errors import InvalidInputs

# sigma_MD = n_r * MD_PREFACTOR * coupling_sq * omega * L(omega - omega_if)
MD_PREFACTOR = np.pi**2 * ALPHA**3 * A0**2


def sigma_md(omega, omega_if, coupling_sq, shape: ls.LineshapeSpec,
             n_r: float = 1.0, temp_k=None):
    """Magnetic-dipole absorption cross section [m^2] at probe frequency omega.

    coupling_sq is the squared dimensionless matrix element (polarization
    resolved, or the unpolarized average).  The Lorentzian of `shape` is
    evaluated at omega - omega_if.  If temp_k is given, the thermal
    occupation factor multiplies the result.
    """
    if not omega > 0.0:
        raise InvalidInputs(f"omega must be positive, got {omega}")
    if not omega_if > 0.0:
        raise InvalidInputs(f"omega_if must be positive, got {omega_if}")
    if n_r < 1.0:
        raise InvalidInputs(f"n_r must be >= 1, got {n_r}")
    if coupling_sq < 0.0:
        raise InvalidInputs(f"coupling_sq must be >= 0, got {coupling_sq}")
    density = ls.lorentzian(omega - omega_if, shape.gamma)
    value = n_r * MD_PREFACTOR * coupling_sq * omega * density
    if temp_k is not None:
        value = value * ls.temperature_factor(omega_if, temp_k)
    return value


def absorption_coefficient(n_def, sigma):
    """Attenuation coefficient a = N_def * sigma [1/m]."""
    if n_def < 0.0:
        raise InvalidInputs(f"n_def must be >= 0, got {n_def}")
    if np.any(np.asarray(sigma) < 0.0):
        raise InvalidInputs("sigma must be >= 0")
    return n_def * sigma


def loss_tangent(a, omega, n_r: float = 1.0):
    """Loss tangent tan(delta) = c a(omega) / (n_r omega)."""
    if not omega > 0.0:
        raise InvalidInputs(f"omega must be positive, got {omega}")
    if n_r < 1.0:
        raise InvalidInputs(f"n_r must be >= 1, got {n_r}")
    if np.any(np.asarray(a) < 0.0):
        raise InvalidInputs("absorption coefficient must be >= 0")
    return (C / (n_r * omega)) * a
