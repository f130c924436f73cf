"""Dense complex-Hermitian eigensolver for small matrices (dim <= 32).

A thin wrapper over LAPACK ``eigh`` that validates the input and returns
ascending eigenvalues with read-only arrays.  Repeated calls on the same
input return identical results.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, InvalidInputs, NonHermitianInput

MAX_DIM = 32
HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order with matching orthonormal eigenvector
    columns, both read-only."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def require_hermitian(h, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Return h as a complex array, raising NonHermitianInput if it is not
    square and Hermitian within rtol (relative to the largest entry)."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] == 0:
        raise InvalidInputs(f"expected a square matrix of dim >= 1, got shape {h.shape}")
    scale = float(np.abs(h).max())
    deviation = float(np.abs(h - h.conj().T).max())
    if deviation > rtol * scale:
        raise NonHermitianInput(
            f"matrix is not Hermitian: max |H - H^dag| = {deviation:.3e} "
            f"exceeds {rtol:.1e} * max|H| = {rtol * scale:.3e}"
        )
    return h


def diagonalize(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Raises NonHermitianInput or DimensionTooLarge on bad input.  Output
    satisfies ||V^dag V - I||_max < 1e-10 and
    ||H V - V Lambda||_max < 1e-10 * max|H|.
    """
    h = require_hermitian(h)
    n = h.shape[0]
    if n > MAX_DIM:
        raise DimensionTooLarge(f"dim {n} exceeds the supported maximum {MAX_DIM}")
    # Symmetrize so eigh sees an exactly Hermitian matrix; the allowed
    # input asymmetry is below everything we care about.  eigh returns the
    # eigenvalues in ascending order.
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    vals = np.ascontiguousarray(vals)
    vecs = np.ascontiguousarray(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)
