"""CODATA 2018 physical constants, the magnetic-dipole cross-section prefactor
they give, numeric limits and frequency-unit helpers.

Every frequency inside the library is angular (rad/s).  User-facing
interfaces quote cyclic frequencies in GHz (or linewidths in MHz) and
convert at the boundary with the helpers below.
"""

import math
import sys

TWO_PI = 2.0 * math.pi
# Angular frequency [rad/s] of 1 GHz: every GHz <-> rad/s conversion scales by it.
RAD_PER_S_PER_GHZ = TWO_PI * 1.0e9

# Fundamental constants in SI units, pinned to CODATA 2018.
C = 2.99792458e8           # speed of light [m/s]
ALPHA = 7.2973525693e-3    # fine-structure constant
A0 = 5.29177210903e-11     # Bohr radius [m]
HBAR = 1.054571817e-34     # reduced Planck constant [J s]
KB = 1.380649e-23          # Boltzmann constant [J/K]
MUB = 9.2740100783e-24     # Bohr magneton [J/T]

# sigma_MD = n_r * MD_PREFACTOR * coupling_sq * omega * L(omega - omega_if)
MD_PREFACTOR = math.pi**2 * ALPHA**3 * A0**2

# Largest angular frequency or half-width [rad/s] whose squares still sum to
# a finite float, so no Lorentzian denominator overflows to a silent 0.
MAX_RATE = math.sqrt(sys.float_info.max / 2.0)

# Largest cyclic frequency [GHz] whose angular frequency is at most MAX_RATE;
# callers compare GHz with it before converting.
MAX_GHZ = MAX_RATE / RAD_PER_S_PER_GHZ

# Most points of a sweep grid: each float64 column of it is at most 80 MB.
MAX_POINTS = 10**7


def ghz_to_angular(freq_ghz):
    """Cyclic frequency in GHz to angular frequency in rad/s.

    freq_ghz is a number or an array of them; InvalidInputs unless each is
    finite and converts to a finite angular frequency.
    """
    # Imported here: cli parses its flags with this module before numpy loads.
    from .errors import evaluate, require

    omega = evaluate(lambda: RAD_PER_S_PER_GHZ * require("freq_ghz", freq_ghz, -math.inf))
    return require("angular frequency", omega, -math.inf)


def angular_to_ghz(omega):
    """Angular frequency in rad/s to cyclic frequency in GHz."""
    return omega / RAD_PER_S_PER_GHZ
