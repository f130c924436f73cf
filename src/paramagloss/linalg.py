"""Dense complex-Hermitian eigensolver for small matrices (dim <= 32).

A thin wrapper over LAPACK ``eigh`` that validates the input and returns
ascending eigenvalues with read-only arrays.  Repeated calls on the same
input return identical results.
"""

import sys

import numpy as np

from .errors import InvalidInputs, Record, complex_array, evaluate

MAX_DIM = 32
HERMITIAN_RTOL = 1e-12


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

    Raises InvalidInputs on a non-Hermitian or oversized matrix.  Output
    satisfies ||V^dag V - I||_max < 1e-10 and
    ||H V - V Lambda||_max < 1e-10 * max|H|.
    """
    h = require_hermitian(h)
    n = h.shape[0]
    if n > MAX_DIM:
        raise InvalidInputs(f"dim {n} exceeds the supported maximum {MAX_DIM}")
    # Symmetrize so eigh sees an exactly Hermitian matrix; the allowed
    # input asymmetry is below everything we care about.  eigh returns the
    # eigenvalues in ascending order.
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    vals = np.ascontiguousarray(vals)
    vecs = np.ascontiguousarray(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)
