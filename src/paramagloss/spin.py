"""Spin operators, zero-field-splitting Hamiltonians, their eigensolver, and
magnetic-dipole transition matrix elements.

Conventions
-----------
* Spin is passed around as the integer ``two_s`` = 2S, so half-integer
  spins are exact.
* Basis states are ordered by m_s descending, from +S down to -S.
* Operator matrices are in units of hbar (dimensionless entries).
* Hamiltonians are expressed in angular-frequency units, rad/s.

diagonalize is the eigensolver of these Hamiltonians: a thin wrapper over
LAPACK ``eigh`` that validates its input and returns ascending eigenvalues
with read-only arrays.  Repeated calls on the same input return identical
results.

The sublevel ladder and the closed-form line coupling, which a species
needs without any matrix, are in the ladder module.
"""

import sys

import numpy as np

from . import ladder
from .constants import HBAR, MUB
from .errors import InvalidInputs, Record, evaluate, is_real, require, require_number

HERMITIAN_RTOL = 1e-12


def complex_array(what: str, value, shape: tuple | None = None) -> np.ndarray:
    """value as a complex128 array, if every entry is an int, float or complex number
    and, when shape is given, the array has that shape.

    Otherwise raises InvalidInputs naming `what`; entries are not checked
    to be finite.
    """
    arr = np.asarray(value)
    if not (is_real(arr) or arr.dtype.kind == "c"):
        raise InvalidInputs(f"{what} must hold numbers, got {value!r}")
    if shape is not None and arr.shape != shape:
        raise InvalidInputs(f"{what} must have shape {shape}, got {arr.shape}")
    return arr.astype(np.complex128)


def m_values(two_s: int) -> np.ndarray:
    """Magnetic quantum numbers S, S-1, ..., -S (descending)."""
    return (two_s - 2.0 * np.arange(two_s + 1)) / 2.0


class SpinOperators(Record):
    """Cartesian spin matrices for a single spin S = two_s / 2."""

    __slots__ = ("two_s", "sx", "sy", "sz")

    def __init__(self, two_s: int, sx: np.ndarray, sy: np.ndarray, sz: np.ndarray):
        self._set_fields(two_s, sx, sy, sz)

    @property
    def dim(self) -> int:
        return self.two_s + 1


def spin_operators(two_s: int) -> SpinOperators:
    """Build Sx, Sy, Sz from the ladder operators.

    Sz is diagonal with entries S, S-1, ..., -S; the matrices satisfy
    [Sx, Sy] = i Sz and Sx^2 + Sy^2 + Sz^2 = S(S+1) I.
    """
    two_s = ladder.check_two_s(two_s)
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


def basis_state(two_s: int, m) -> np.ndarray:
    """Unit vector for |S, m> in the m-descending basis."""
    vec = np.zeros(ladder.check_two_s(two_s) + 1, dtype=np.complex128)
    vec[ladder.sublevel_index(two_s, m)] = 1.0
    vec.setflags(write=False)
    return vec


class SpinHamiltonianParams(Record):
    """Zero-field-splitting and Zeeman parameters.

    d, e are the axial and rhombic splittings in rad/s, kept with g_e as
    the floats that were checked; b_field is the static field in tesla,
    kept as a tuple of three floats.  The conventional ordering
    |e| <= |d|/3 is enforced (so e must vanish when d does).
    """

    __slots__ = ("d", "g_e", "e", "b_field")

    def __init__(self, d: float, g_e: float, e: float = 0.0, b_field: tuple = (0.0, 0.0, 0.0)):
        b = np.asarray(require("b_field", b_field, -np.inf), dtype=float)
        if b.shape != (3,):
            raise InvalidInputs(f"b_field must be a 3-vector, got shape {b.shape}")
        d, e, g = (
            require_number(name, value, -np.inf)
            for name, value in (("d", d), ("e", e), ("g_e", g_e))
        )
        if not g > 0.0:
            raise InvalidInputs(f"g_e must be positive, got {g_e}")
        if abs(e) > abs(d) / 3.0:
            raise InvalidInputs(
                f"rhombicity |e| = {abs(e):.6g} exceeds |d|/3 = {abs(d) / 3.0:.6g}"
            )
        self._set_fields(d, g, e, (float(b[0]), float(b[1]), float(b[2])))


def build_hamiltonian(two_s: int, params: SpinHamiltonianParams) -> np.ndarray:
    """ZFS + Zeeman spin Hamiltonian in rad/s.

    H = d (Sz^2 - S(S+1)/3) + e (Sx^2 - Sy^2) + (g_e muB / hbar) B . S

    The trace of the d term vanishes, so eigenvalues are splittings about
    the multiplet center.
    """
    two_s = ladder.check_two_s(two_s)
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


class EigenDecomposition(Record):
    """Eigenvalues in ascending order with matching orthonormal eigenvector
    columns, both read-only."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self._set_fields(eigenvalues, eigenvectors)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def require_hermitian(h) -> np.ndarray:
    """Return h as a complex array, raising InvalidInputs if it is not square,
    finite and Hermitian within HERMITIAN_RTOL (relative to the largest entry)."""
    h = complex_array("matrix", h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise InvalidInputs(f"expected a square matrix of dim >= 1, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise InvalidInputs("matrix has a non-finite entry")
    scale = evaluate(lambda: float(np.abs(h).max()))
    # Every entry of H -+ H^dag is at most 2 * scale and every eigenvalue dim * scale.
    limit = sys.float_info.max / (2 * h.shape[0])
    if not scale <= limit:
        raise InvalidInputs(
            f"matrix entries must be at most {limit:.3g} in modulus, got {scale:.3g}"
        )
    deviation = float(np.abs(h - h.conj().T).max())
    if deviation > HERMITIAN_RTOL * scale:
        raise InvalidInputs(
            f"matrix is not Hermitian: max |H - H^dag| = {deviation:.3e} "
            f"exceeds {HERMITIAN_RTOL:.1e} * max|H| = {HERMITIAN_RTOL * scale:.3e}"
        )
    return h


def diagonalize(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Raises InvalidInputs on a non-Hermitian matrix or one larger than the
    largest Hamiltonian build_hamiltonian makes, dim MAX_TWO_S + 1.  Output
    satisfies ||V^dag V - I||_max < 1e-10 and
    ||H V - V Lambda||_max < 1e-10 * max|H|.
    """
    h = require_hermitian(h)
    n, limit = h.shape[0], ladder.MAX_TWO_S + 1
    if n > limit:
        raise InvalidInputs(f"dim {n} exceeds the supported maximum {limit}")
    # Symmetrize so eigh sees an exactly Hermitian matrix; the allowed
    # input asymmetry is below everything we care about.  eigh returns the
    # eigenvalues in ascending order.
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    vals = np.ascontiguousarray(vals)
    vecs = np.ascontiguousarray(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def transition_moment(psi_i, psi_f, ops: SpinOperators, g_e: float,
                      orbital_moment=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Matrix element <f| (L + g_e S)/hbar |i> as a read-only complex 3-vector.

    psi_i and psi_f are normalized states of shape (ops.dim,).  The orbital
    contribution is supplied by the caller as three complex numbers (zero
    for a pure spin transition with a quenched orbital moment); the spin
    part is g_e <psi_f| S_alpha |psi_i>.
    """
    psi_i = complex_array("psi_i", psi_i, (ops.dim,))
    psi_f = complex_array("psi_f", psi_f, (ops.dim,))
    orb = complex_array("orbital_moment", orbital_moment, (3,))
    g_e = require_number("g_e", g_e, -np.inf)
    bra = psi_f.conj()
    m_vec = evaluate(
        lambda: orb + g_e * np.array([bra @ (op @ psi_i) for op in (ops.sx, ops.sy, ops.sz)])
    )
    if not np.isfinite(m_vec).all():
        raise InvalidInputs(f"transition moment must be finite, got {m_vec.tolist()}")
    m_vec.setflags(write=False)
    return m_vec


def unpolarized_coupling(m_vec) -> float:
    """Orientation-averaged squared coupling (1/3) sum_alpha |M_alpha|^2 of a 3-vector."""
    m_vec = complex_array("m_vec", m_vec, (3,))
    coupling = evaluate(lambda: float(np.sum(np.abs(m_vec) ** 2) / 3.0))
    return require("unpolarized coupling", coupling)
