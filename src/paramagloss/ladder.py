"""The sublevel ladder of a spin S = two_s / 2: which sublevels and transitions
exist, and the squared coupling of a Delta m = +-1 line in closed form.

A species needs only this from the spin algebra, so loading a database
builds no spin matrix, costs the same at any spin, and neither imports nor
compiles the Hamiltonian code.  Sublevels are numbered in the m-descending
basis of the spin module, 0 for m = +S.
"""

import math

import numpy as np

from .errors import InvalidInputs, evaluate, is_real, require

# Largest 2S, far above the 2S <= 8 of real paramagnetic ions; its spin
# matrices hold 256^2 entries.
MAX_TWO_S = 255


def check_two_s(two_s) -> int:
    """two_s as an int; InvalidInputs unless it is an integer 2S in [1, MAX_TWO_S]."""
    if not (np.ndim(two_s) == 0 and is_real(two_s) and 1 <= two_s <= MAX_TWO_S
            and int(two_s) == two_s):
        raise InvalidInputs(
            f"two_s must be a positive integer (2S) of at most {MAX_TWO_S}, got {two_s!r}"
        )
    return int(two_s)


def sublevel_index(two_s: int, m) -> int:
    """Position of |S, m> in the m-descending basis, 0 for m = S; InvalidInputs
    unless m is a finite half-integer (to 1e-9) on the ladder of S = two_s / 2."""
    two_s = check_two_s(two_s)
    twice = 2.0 * m if np.ndim(m) == 0 and is_real(m) else math.nan
    if not (math.isfinite(twice) and abs(twice - round(twice)) <= 1e-9):
        raise InvalidInputs(f"m = {m} is not a half-integer")
    two_m = round(twice)
    if (two_s - two_m) % 2 != 0 or not -two_s <= two_m <= two_s:
        raise InvalidInputs(f"m = {m} is not a valid projection for S = {two_s / 2}")
    return (two_s - two_m) // 2


def ladder_m(two_s: int, transition: tuple[float, float]) -> tuple[float, tuple[float, float]]:
    """Lower m of a transition (m_i, m_f) between sublevels that changes m by
    exactly 1, and the pair as read, as floats; InvalidInputs naming the pair
    otherwise.  The pair is read once, so a one-shot iterator gives it too."""
    try:
        m_i, m_f = transition
    except (TypeError, ValueError):
        raise InvalidInputs(f"transition must be a pair (m_i, m_f), got {transition!r}") from None
    try:
        k_i, k_f = sublevel_index(two_s, m_i), sublevel_index(two_s, m_f)
    except InvalidInputs as exc:
        raise InvalidInputs(f"({m_i}, {m_f}): {exc}") from None
    if abs(k_i - k_f) != 1:
        raise InvalidInputs(f"({m_i}, {m_f}) must change m by 1")
    return two_s / 2.0 - max(k_i, k_f), (float(m_i), float(m_f))


def line_coupling_sq(two_s: int, transition: tuple[float, float], g_e):
    """Unpolarized squared coupling of a transition that ladder_m accepts.

    g_e is one g-factor, which gives a float, or a 1-D array of them, which
    gives one coupling per entry; each must be finite and > 0 and give a
    finite coupling, else InvalidInputs names g.  Sx and Sy each carry
    half = sqrt(S(S+1) - m(m+1)) / 2, half the ladder element of the lower
    sublevel m, and Sz nothing, so each entry is ((g half)^2 + (g half)^2) / 3:
    the float operations, and so the bits, of
    spin.unpolarized_coupling(spin.transition_moment(psi_i, psi_f, ops, g)).
    """
    m, s = ladder_m(two_s, transition)[0], two_s / 2.0
    g = np.asarray(require("g", g_e, strict=True), dtype=np.float64)
    half = 0.5 * math.sqrt(s * (s + 1.0) - m * (m + 1.0))
    coupling = evaluate(lambda: 2.0 * np.square(g * half) / 3.0)  # (|M_x|^2 + |M_y|^2) / 3
    if not np.isfinite(coupling).all():
        raise InvalidInputs(f"g must give a finite coupling for two_s={two_s}, got {np.max(g)}")
    return float(coupling) if coupling.ndim == 0 else coupling
