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
from .errors import require

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
    require("omega", omega, strict=True)
    require("omega_if", omega_if, strict=True)
    require("n_r", n_r, 1.0)
    require("coupling_sq", coupling_sq)
    density = ls.lorentzian(omega - omega_if, shape.gamma)
    value = n_r * MD_PREFACTOR * coupling_sq * omega * density
    if temp_k is not None:
        value = value * ls.temperature_factor(omega_if, temp_k)
    return value


def absorption_coefficient(n_def, sigma):
    """Attenuation coefficient a = N_def * sigma [1/m]."""
    return require("n_def", n_def) * require("sigma", sigma)


def loss_tangent(a, omega, n_r: float = 1.0):
    """Loss tangent tan(delta) = c a(omega) / (n_r omega)."""
    require("omega", omega, strict=True)
    require("n_r", n_r, 1.0)
    return (C / (n_r * omega)) * require("a", a)
