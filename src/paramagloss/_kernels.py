"""Hot numeric kernel: the fixed-order Lorentzian line mixer."""

import numpy as np


def lorentzian_mix(omega, centers, gamma, amps, out):
    """Accumulate amps[l] * L(omega - centers[l]; gamma) into out.

    L is the unit-area Lorentzian (1/pi)(g/2)/(d^2 + (g/2)^2).  The FWHM
    gamma is shared by all lines; omega and gamma are scalars or arrays
    that broadcast to out, so one call covers an omega grid or a power
    grid.  Lines are added in listed order so the summation order is fixed.
    """
    half = 0.5 * gamma
    pref = half / np.pi
    half_sq = half * half
    for l in range(centers.shape[0]):
        d = omega - centers[l]
        out += amps[l] * (pref / (d * d + half_sq))
    return out
