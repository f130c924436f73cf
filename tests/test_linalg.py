"""Eigensolver checks against independent oracles.

The characteristic-polynomial oracle expands det(lambda I - H) by brute
cofactor recursion with polynomial entries and takes numpy roots, so it
shares no code with the LAPACK eigensolver under test.
"""

import numpy as np
import pytest

from paramagloss.errors import InvalidInputs
from paramagloss.ladder import MAX_TWO_S
from paramagloss.spin import (
    EigenDecomposition,
    SpinHamiltonianParams,
    build_hamiltonian,
    diagonalize,
    require_hermitian,
)


def _random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def _charpoly_coeffs(h):
    """Coefficients of det(lambda I - H), highest power first."""

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        acc = np.zeros(1, dtype=np.complex128)
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = np.polymul(mat[0][j], det(minor))
            acc = np.polyadd(acc, term if j % 2 == 0 else -term)
        return acc

    n = h.shape[0]
    mat = [
        [
            np.array([1.0, -h[i, j]], dtype=np.complex128)
            if i == j
            else np.array([-h[i, j]], dtype=np.complex128)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det(mat)


def test_identity_eigenvalues():
    dec = diagonalize(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)


def test_exchange_matrix_spectrum():
    dec = diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_characteristic_polynomial_oracle():
    rng = np.random.default_rng(20240811)
    for _ in range(5):
        h = _random_hermitian(rng, 4, scale=3.0)
        roots = np.roots(_charpoly_coeffs(h))
        assert np.abs(roots.imag).max() < 1e-8
        expected = np.sort(roots.real)
        got = diagonalize(h).eigenvalues
        scale = max(np.abs(expected).max(), 1.0)
        assert np.abs(got - expected).max() < 1e-9 * scale


def test_trace_preservation():
    rng = np.random.default_rng(7)
    for n in (2, 3, 8, 17, 32):
        h = _random_hermitian(rng, n)
        dec = diagonalize(h)
        tr = float(np.trace(h).real)
        assert abs(dec.eigenvalues.sum() - tr) <= 1e-10 * max(abs(tr), 1.0)


def test_unitary_similarity_invariance():
    rng = np.random.default_rng(99)
    h = _random_hermitian(rng, 6, scale=2.0)
    base = diagonalize(h).eigenvalues
    scale = max(np.abs(base).max(), 1.0)
    for _ in range(3):
        q, _ = np.linalg.qr(
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        )
        rotated = diagonalize(q.conj().T @ h @ q).eigenvalues
        assert np.abs(rotated - base).max() < 1e-9 * scale


def test_orthonormality_and_residual_bounds():
    rng = np.random.default_rng(13)
    for n in (2, 5, 16, 32):
        h = _random_hermitian(rng, n, scale=5.0)
        dec = diagonalize(h)
        v = dec.eigenvectors
        gram = v.conj().T @ v - np.eye(n)
        assert np.abs(gram).max() < 1e-10
        residual = h @ v - v * dec.eigenvalues
        assert np.abs(residual).max() < 1e-10 * np.abs(h).max()


def test_repeat_calls_bit_identical():
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 9)
    first = diagonalize(h)
    second = diagonalize(h)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_ascending_order_with_stable_ties():
    # eigh leaves a diagonal input's basis vectors in place, so ties keep
    # their original column order.
    dec = diagonalize(np.diag([3.0, 1.0, 2.0, 1.0]))
    assert np.array_equal(dec.eigenvalues, [1.0, 1.0, 2.0, 3.0])
    assert dec.eigenvectors[1, 0] == 1.0
    assert dec.eigenvectors[3, 1] == 1.0


def test_degenerate_cluster_projector():
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    h = q @ np.diag([2.0, 2.0, 5.0]).astype(np.complex128) @ q.conj().T
    dec = diagonalize(0.5 * (h + h.conj().T))
    assert np.allclose(dec.eigenvalues, [2.0, 2.0, 5.0], atol=1e-10)
    sub = dec.eigenvectors[:, :2]
    projector = sub @ sub.conj().T
    expected = q[:, :2] @ q[:, :2].conj().T
    assert np.abs(projector - expected).max() < 1e-9


def test_dim_property():
    dec = diagonalize(np.eye(4))
    assert isinstance(dec, EigenDecomposition)
    assert dec.dim == 4


def test_non_hermitian_rejected():
    with pytest.raises(InvalidInputs, match="not Hermitian"):
        diagonalize(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_non_finite_rejected():
    # NaN would pass the Hermiticity bound, which no comparison with NaN fails.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputs, match="non-finite"):
            diagonalize(np.array([[1.0, 0.0], [0.0, bad]]))


def test_small_asymmetry_tolerated():
    h = np.array([[1.0, 0.5], [0.5 * (1.0 + 1e-14), 2.0]])
    dec = diagonalize(h)
    assert dec.dim == 2


def test_dimension_cap():
    # Every Hamiltonian build_hamiltonian makes can be diagonalized; one of
    # 2S = MAX_TWO_S takes ~1 s, so the suite checks 2S = 32.
    params = SpinHamiltonianParams(d=-3.6e10, g_e=2.0, e=1e10, b_field=(0.01, 0.02, 0.03))
    h = build_hamiltonian(32, params)
    dec = diagonalize(h)
    assert dec.dim == 33 and np.all(np.diff(dec.eigenvalues) >= 0.0)
    residual = h @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    assert np.abs(residual).max() < 1e-10 * np.abs(h).max()
    limit = MAX_TWO_S + 1
    message = f"^dim {limit + 1} exceeds the supported maximum {limit}$"
    with pytest.raises(InvalidInputs, match=message):
        diagonalize(np.eye(limit + 1))


def test_non_square_rejected():
    with pytest.raises(InvalidInputs):
        diagonalize(np.zeros((2, 3)))


def test_empty_rejected():
    with pytest.raises(InvalidInputs):
        diagonalize(np.zeros((0, 0)))


def test_require_hermitian_returns_complex():
    out = require_hermitian(np.eye(2))
    assert out.dtype == np.complex128
