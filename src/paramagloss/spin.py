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

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, MUB
from .errors import InvalidInputs


def m_values(two_s: int) -> np.ndarray:
    """Magnetic quantum numbers S, S-1, ..., -S (descending)."""
    return (two_s - 2.0 * np.arange(two_s + 1)) / 2.0


def _check_two_s(two_s):
    if int(two_s) != two_s or two_s < 1:
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
    # <m+1| S+ |m> on the superdiagonal (m descending basis).
    splus = np.zeros((dim, dim), dtype=np.complex128)
    idx = np.arange(dim - 1)
    splus[idx, idx + 1] = np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0))
    sminus = splus.conj().T
    sx = 0.5 * (splus + sminus)
    sy = -0.5j * (splus - sminus)
    sz = np.diag(m).astype(np.complex128)
    for arr in (sx, sy, sz):
        arr.setflags(write=False)
    return SpinOperators(two_s=two_s, sx=sx, sy=sy, sz=sz)


def basis_state(two_s: int, m) -> np.ndarray:
    """Unit vector for |S, m> in the m-descending basis."""
    two_s = _check_two_s(two_s)
    two_m = round(2.0 * m)
    if abs(2.0 * m - two_m) > 1e-9:
        raise InvalidInputs(f"m = {m} is not a half-integer")
    if (two_s - two_m) % 2 != 0 or not -two_s <= two_m <= two_s:
        raise InvalidInputs(f"m = {m} is not a valid projection for S = {two_s / 2}")
    vec = np.zeros(two_s + 1, dtype=np.complex128)
    vec[(two_s - two_m) // 2] = 1.0
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
        if not self.g_e > 0.0:
            raise InvalidInputs(f"g_e must be positive, got {self.g_e}")
        if abs(self.e) > abs(self.d) / 3.0:
            raise InvalidInputs(
                f"rhombicity |e| = {abs(self.e):.6g} exceeds |d|/3 = {abs(self.d) / 3.0:.6g}"
            )
        b = np.asarray(self.b_field, dtype=float)
        if b.shape != (3,):
            raise InvalidInputs(f"b_field must be a 3-vector, got shape {b.shape}")
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
    """Unpolarized squared coupling of a pure-spin sublevel transition.

    g_e is one g-factor, which gives a float, or a 1-D array of them, which
    gives one coupling per entry.  The spin matrix elements are those of
    transition_moment at g_e = 1, scaled by each g, so every entry equals
    unpolarized_coupling(transition_moment(psi_i, psi_f, ops, g)) bit for bit.
    """
    m_i, m_f = transition
    psi_i, psi_f = basis_state(two_s, m_i), basis_state(two_s, m_f)
    elems = transition_moment(psi_i, psi_f, spin_operators(two_s), 1.0)
    g = np.asarray(g_e, dtype=np.float64)
    coupling = np.sum(np.abs(g.reshape(-1, 1) * elems) ** 2, axis=1) / 3.0
    return float(coupling[0]) if g.ndim == 0 else coupling
