"""Hot numeric kernel: the fixed-order Lorentzian line mixer."""

import numpy as np


def lorentzian_mix(omega, centers, gamma, amps):
    """Sum of amps[l] * L(omega - centers[l]; gamma) over the lines, shaped as omega.

    L is the unit-area Lorentzian (1/pi)(g/2)/(d^2 + (g/2)^2).  The FWHM
    gamma is shared by all lines; it is a scalar or an array that broadcasts
    to omega, so one call covers an omega grid or a power grid.  Lines are
    added in listed order so the summation order is fixed.  Each line runs
    (amps[l] * pref) / (d * d + half_sq) with d = omega - centers[l] in
    five in-place passes over one scratch buffer.
    """
    half = 0.5 * gamma
    pref = half / np.pi
    half_sq = half * half
    out = np.zeros(np.shape(omega))
    term = np.empty_like(out)
    for l in range(centers.shape[0]):
        np.subtract(omega, centers[l], out=term)
        np.multiply(term, term, out=term)
        np.add(term, half_sq, out=term)
        np.divide(amps[l] * pref, term, out=term)
        np.add(out, term, out=out)
    return out
