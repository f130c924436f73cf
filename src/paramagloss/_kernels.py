"""Hot numeric kernel: the fixed-order Lorentzian line mixer."""

import numpy as np


def lorentzian_mix(omega, centers, gammas, amps, out):
    """Accumulate amps[l] * L(omega - centers[l]; gammas[l]) into out.

    L is the unit-area Lorentzian (1/pi)(g/2)/(d^2 + (g/2)^2).  Lines are
    added in listed order so the summation order is fixed.
    """
    for l in range(centers.shape[0]):
        half = 0.5 * gammas[l]
        pref = half / np.pi
        d = omega - centers[l]
        out += amps[l] * (pref / (d * d + half * half))
    return out
