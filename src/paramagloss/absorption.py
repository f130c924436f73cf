"""Magnetic-dipole cross section, attenuation, and the loss tangent.

The chain is the cross section of a magnetic-dipole transition with a
Lorentzian line, the absorption coefficient N_def * sigma, and the loss
tangent.  The cross section keeps the probe frequency omega as its linear
prefactor; the loss tangent divides it back out, so the loss depends on
frequency only through the lineshape.  The refractive index enters the
cross section linearly and the loss tangent inversely, so it cancels from
the full chain.
"""

from . import lineshape as ls
from .constants import MD_PREFACTOR, C
from .errors import broadcast_shape, evaluate, require


def sigma_md(omega, omega_if, coupling_sq, gamma, n_r: float = 1.0, temp_k=None):
    """Magnetic-dipole absorption cross section [m^2] at probe frequency omega.

    coupling_sq is the squared dimensionless matrix element (polarization
    resolved, or the unpolarized average).  The Lorentzian of FWHM gamma
    [rad/s] is evaluated at omega - omega_if.  If temp_k is given, the
    thermal occupation factor multiplies the result.  A cross section past
    the float range raises InvalidInputs.
    """
    omega = require("omega", omega, strict=True)
    omega_if = require("omega_if", omega_if, strict=True)
    n_r = require("n_r", n_r, 1.0)
    coupling_sq = require("coupling_sq", coupling_sq)
    broadcast_shape(
        omega=omega, omega_if=omega_if, coupling_sq=coupling_sq, gamma=gamma, n_r=n_r,
        temp_k=temp_k,
    )
    density = ls.lorentzian(omega - omega_if, gamma)
    factor = 1.0 if temp_k is None else ls.temperature_factor(omega_if, temp_k)
    value = evaluate(lambda: n_r * MD_PREFACTOR * coupling_sq * omega * density * factor)
    return require("cross section", value)


def absorption_coefficient(n_def, sigma):
    """Attenuation coefficient a = N_def * sigma [1/m]."""
    broadcast_shape(n_def=n_def, sigma=sigma)
    n_def = require("n_def", n_def)
    sigma = require("sigma", sigma)
    return require("absorption coefficient", evaluate(lambda: n_def * sigma))


def loss_tangent(a, omega, n_r: float = 1.0):
    """Loss tangent tan(delta) = c a(omega) / (n_r omega)."""
    omega = require("omega", omega, strict=True)
    n_r = require("n_r", n_r, 1.0)
    broadcast_shape(a=a, omega=omega, n_r=n_r)
    a = require("a", a)
    return require("loss tangent", evaluate(lambda: (C / (n_r * omega)) * a))
