"""Hot numeric kernel: the fixed-order Lorentzian line mixer."""

import numpy as np


def lorentzian_mix(omega, centers, gamma, amps, out):
    """Accumulate amps[l] * L(omega - centers[l]; gamma) into out.

    L is the unit-area Lorentzian (1/pi)(g/2)/(d^2 + (g/2)^2).  The FWHM
    gamma is shared by all lines; omega and gamma are scalars or arrays
    that broadcast to out, so one call covers an omega grid or a power
    grid.  Lines are added in listed order so the summation order is fixed.
    Each line runs amps[l] * (pref / (d * d + half_sq)) with d = omega -
    centers[l], in place in one scratch buffer, so no line allocates.
    """
    half = 0.5 * gamma
    pref = half / np.pi
    half_sq = half * half
    term = np.empty_like(out)
    for l in range(centers.shape[0]):
        np.subtract(omega, centers[l], out=term)
        np.multiply(term, term, out=term)
        np.add(term, half_sq, out=term)
        np.divide(pref, term, out=term)
        np.multiply(amps[l], term, out=term)
        np.add(out, term, out=out)
    return out
