"""Spin operators, zero-field-splitting Hamiltonians, and magnetic-dipole
transition matrix elements.

Conventions
-----------
* Spin is passed around as the integer ``two_s`` = 2S, so half-integer
  spins are exact.
* Basis states are ordered by m_s descending, from +S down to -S.
* Operator matrices are in units of hbar (dimensionless entries).
* Hamiltonians are expressed in angular-frequency units, rad/s.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, MUB
from .errors import InvalidInputs, require


def m_values(two_s: int) -> np.ndarray:
    """Magnetic quantum numbers S, S-1, ..., -S (descending)."""
    return (two_s - 2.0 * np.arange(two_s + 1)) / 2.0


def _check_two_s(two_s):
    if not (1 <= two_s < math.inf and int(two_s) == two_s):
        raise InvalidInputs(f"two_s must be a positive integer (2S), got {two_s!r}")
    return int(two_s)


@dataclass(frozen=True)
class SpinOperators:
    """Cartesian spin matrices for a single spin S = two_s / 2."""

    two_s: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    @property
    def dim(self) -> int:
        return self.two_s + 1


def spin_operators(two_s: int) -> SpinOperators:
    """Build Sx, Sy, Sz from the ladder operators.

    Sz is diagonal with entries S, S-1, ..., -S; the matrices satisfy
    [Sx, Sy] = i Sz and Sx^2 + Sy^2 + Sz^2 = S(S+1) I.
    """
    two_s = _check_two_s(two_s)
    s = two_s / 2.0
    m = m_values(two_s)
    dim = two_s + 1
    # Sx = (S+ + S-)/2 and Sy = -i(S+ - S-)/2 have only the two diagonals
    # next to the main one, from <m+1| S+ |m> (m descending basis).  In a
    # flat (dim, dim) array they start at 1 and dim, the main one at 0, each
    # with step dim + 1.
    half = 0.5 * np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0))
    upper, lower = slice(1, None, dim + 1), slice(dim, None, dim + 1)
    sx = np.zeros((dim, dim), dtype=np.complex128)
    sx.reshape(-1)[upper] = sx.reshape(-1)[lower] = half
    # The zeros of -0.5j * (S+ - S-) have imaginary part -0.0; LAPACK's eigh
    # can round differently on +0.0, so keep them.
    sy = np.full((dim, dim), complex(0.0, -0.0))
    sy.reshape(-1)[upper] = -1j * half
    sy.reshape(-1)[lower] = 1j * half
    sz = np.zeros((dim, dim), dtype=np.complex128)
    sz.reshape(-1)[:: dim + 1] = m
    for arr in (sx, sy, sz):
        arr.setflags(write=False)
    return SpinOperators(two_s=two_s, sx=sx, sy=sy, sz=sz)


def sublevel_index(two_s: int, m) -> int:
    """Position of |S, m> in the m-descending basis, 0 for m = S; InvalidInputs
    unless m is a finite half-integer (to 1e-9) on the ladder of S = two_s / 2."""
    two_s = _check_two_s(two_s)
    twice = 2.0 * m
    if not (math.isfinite(twice) and abs(twice - round(twice)) <= 1e-9):
        raise InvalidInputs(f"m = {m} is not a half-integer")
    two_m = round(twice)
    if (two_s - two_m) % 2 != 0 or not -two_s <= two_m <= two_s:
        raise InvalidInputs(f"m = {m} is not a valid projection for S = {two_s / 2}")
    return (two_s - two_m) // 2


def ladder_m(two_s: int, transition: tuple[float, float]) -> float:
    """Lower m of a transition (m_i, m_f) between sublevels that changes m by
    exactly 1; InvalidInputs naming the pair otherwise."""
    m_i, m_f = transition
    try:
        k_i, k_f = sublevel_index(two_s, m_i), sublevel_index(two_s, m_f)
    except InvalidInputs as exc:
        raise InvalidInputs(f"({m_i}, {m_f}): {exc}") from None
    if abs(k_i - k_f) != 1:
        raise InvalidInputs(f"({m_i}, {m_f}) must change m by 1")
    return two_s / 2.0 - max(k_i, k_f)


def basis_state(two_s: int, m) -> np.ndarray:
    """Unit vector for |S, m> in the m-descending basis."""
    vec = np.zeros(_check_two_s(two_s) + 1, dtype=np.complex128)
    vec[sublevel_index(two_s, m)] = 1.0
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class SpinHamiltonianParams:
    """Zero-field-splitting and Zeeman parameters.

    d, e are the axial and rhombic splittings in rad/s; b_field is the
    static field in tesla.  The conventional ordering |e| <= |d|/3 is
    enforced (so e must vanish when d does).
    """

    d: float
    g_e: float
    e: float = 0.0
    b_field: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        b = np.asarray(self.b_field, dtype=float)
        if b.shape != (3,):
            raise InvalidInputs(f"b_field must be a 3-vector, got shape {b.shape}")
        for name, value in (("d", self.d), ("e", self.e), ("g_e", self.g_e), ("b_field", b)):
            if not np.isfinite(value).all():
                raise InvalidInputs(f"{name} must be finite, got {value}")
        if not self.g_e > 0.0:
            raise InvalidInputs(f"g_e must be positive, got {self.g_e}")
        if abs(self.e) > abs(self.d) / 3.0:
            raise InvalidInputs(
                f"rhombicity |e| = {abs(self.e):.6g} exceeds |d|/3 = {abs(self.d) / 3.0:.6g}"
            )
        object.__setattr__(self, "b_field", (float(b[0]), float(b[1]), float(b[2])))


def build_hamiltonian(two_s: int, params: SpinHamiltonianParams) -> np.ndarray:
    """ZFS + Zeeman spin Hamiltonian in rad/s.

    H = d (Sz^2 - S(S+1)/3) + e (Sx^2 - Sy^2) + (g_e muB / hbar) B . S

    The trace of the d term vanishes, so eigenvalues are splittings about
    the multiplet center.
    """
    two_s = _check_two_s(two_s)
    ops = spin_operators(two_s)
    s = two_s / 2.0
    eye = np.eye(ops.dim, dtype=np.complex128)
    h = params.d * (ops.sz @ ops.sz - (s * (s + 1.0) / 3.0) * eye)
    if params.e != 0.0:
        h = h + params.e * (ops.sx @ ops.sx - ops.sy @ ops.sy)
    bx, by, bz = params.b_field
    if bx != 0.0 or by != 0.0 or bz != 0.0:
        h = h + (params.g_e * MUB / HBAR) * (bx * ops.sx + by * ops.sy + bz * ops.sz)
    h.setflags(write=False)
    return h


def transition_moment(psi_i, psi_f, ops: SpinOperators, g_e: float,
                      orbital_moment=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Matrix element <f| (L + g_e S)/hbar |i> as a read-only complex 3-vector.

    psi_i and psi_f are normalized states.  The orbital contribution is
    supplied by the caller as three complex numbers (zero for a pure spin
    transition with a quenched orbital moment); the spin part is
    g_e <psi_f| S_alpha |psi_i>.
    """
    psi_i = np.asarray(psi_i, dtype=np.complex128).reshape(-1)
    psi_f = np.asarray(psi_f, dtype=np.complex128).reshape(-1)
    if psi_i.shape[0] != ops.dim or psi_f.shape[0] != ops.dim:
        raise InvalidInputs(
            f"state dims {psi_i.shape[0]}, {psi_f.shape[0]} do not match operator dim {ops.dim}"
        )
    orb = np.asarray(orbital_moment, dtype=np.complex128)
    if orb.shape != (3,):
        raise InvalidInputs(f"orbital_moment must have three components, got {orb.shape}")
    bra = psi_f.conj()
    m_vec = np.array(
        [
            orb[0] + g_e * (bra @ (ops.sx @ psi_i)),
            orb[1] + g_e * (bra @ (ops.sy @ psi_i)),
            orb[2] + g_e * (bra @ (ops.sz @ psi_i)),
        ]
    )
    m_vec.setflags(write=False)
    return m_vec


def unpolarized_coupling(m_vec) -> float:
    """Orientation-averaged squared coupling (1/3) sum_alpha |M_alpha|^2 of a 3-vector."""
    return float(np.sum(np.abs(np.asarray(m_vec)) ** 2) / 3.0)


def line_coupling_sq(two_s: int, transition: tuple[float, float], g_e):
    """Unpolarized squared coupling of a transition that ladder_m accepts.

    g_e is one g-factor, which gives a float, or a 1-D array of them, which
    gives one coupling per entry; each must be finite and > 0 and give a
    finite coupling, else InvalidInputs names g.  Sx and Sy each carry half
    of the ladder element of the lower sublevel m and Sz nothing, so every
    entry equals unpolarized_coupling(transition_moment(psi_i, psi_f, ops,
    g)) bit for bit.
    """
    m, s = ladder_m(two_s, transition), two_s / 2.0
    g = np.asarray(require("g", g_e, strict=True), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing coupling is rejected just below
        gh = g * (0.5 * math.sqrt(s * (s + 1.0) - m * (m + 1.0)))
        coupling = (gh * gh + gh * gh) / 3.0
    if not np.isfinite(coupling).all():
        raise InvalidInputs(f"g must give a finite coupling for two_s={two_s}, got {np.max(g)}")
    return float(coupling) if coupling.ndim == 0 else coupling
