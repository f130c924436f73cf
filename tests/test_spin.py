"""Spin operators, Hamiltonians, and transition moments."""

import math
import re

import numpy as np
import pytest

from paramagloss.constants import ghz_to_angular
from paramagloss.errors import InvalidInputs
from paramagloss.spin import (
    SpinHamiltonianParams,
    basis_state,
    build_hamiltonian,
    diagonalize,
    m_values,
    spin_operators,
    transition_moment,
    unpolarized_coupling,
)
from conftest import HBAR_SI, MUB_SI

SQRT3 = math.sqrt(3.0)


def test_multiplicity_and_m_values():
    assert len(m_values(3)) == spin_operators(3).dim == 4
    assert np.array_equal(m_values(3), [1.5, 0.5, -0.5, -1.5])
    assert np.array_equal(m_values(2), [1.0, 0.0, -1.0])


def test_spin_half_is_pauli_over_two():
    ops = spin_operators(1)
    assert np.allclose(ops.sx, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)
    assert np.allclose(ops.sy, 0.5 * np.array([[0, -1j], [1j, 0]]), atol=1e-15)
    assert np.allclose(ops.sz, 0.5 * np.diag([1, -1]), atol=1e-15)


def test_spin_one_sz_diagonal():
    ops = spin_operators(2)
    assert np.allclose(ops.sz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)


def test_spin_three_halves_sx_element():
    ops = spin_operators(3)
    # |<m=1/2| Sx |m=3/2>| in hbar units.
    assert abs(ops.sx[1, 0]) == pytest.approx(SQRT3 / 2.0, rel=1e-14)


@pytest.mark.parametrize("two_s", [*range(1, 20), 64, 128, 255])
def test_operators_match_ladder_arithmetic_bit_for_bit(two_s):
    """Sx and Sy, written as their two non-zero diagonals, hold the bytes of
    (S+ +- S-) arithmetic, down to the -0.0 imaginary parts of Sy's zeros:
    eigh of a Hamiltonian built on +0.0 zeros can differ in the last bit."""
    s = two_s / 2.0
    m = m_values(two_s)
    idx = np.arange(two_s)
    splus = np.zeros((two_s + 1, two_s + 1), dtype=np.complex128)
    splus[idx, idx + 1] = np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0))
    sminus = splus.conj().T
    ops = spin_operators(two_s)
    assert ops.sx.tobytes() == (0.5 * (splus + sminus)).tobytes()
    assert ops.sy.tobytes() == (-0.5j * (splus - sminus)).tobytes()
    assert ops.sz.tobytes() == np.diag(m).astype(np.complex128).tobytes()


def test_commutator_and_casimir_all_spins():
    for two_s in range(1, 8):
        ops = spin_operators(two_s)
        comm = ops.sx @ ops.sy - ops.sy @ ops.sx - 1j * ops.sz
        assert np.abs(comm).max() < 1e-12
        s = two_s / 2.0
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert np.abs(casimir - s * (s + 1.0) * np.eye(two_s + 1)).max() < 1e-12


def test_invalid_two_s_rejected():
    for two_s in (0, -3, 2.5, float("nan"), float("inf")):
        with pytest.raises(InvalidInputs, match="two_s must be a positive integer"):
            spin_operators(two_s)


def test_basis_state_ordering():
    vec = basis_state(3, 1.5)
    assert np.array_equal(vec, [1, 0, 0, 0])
    vec = basis_state(3, -1.5)
    assert np.array_equal(vec, [0, 0, 0, 1])


def test_basis_state_invalid_m():
    with pytest.raises(InvalidInputs):
        basis_state(3, 1.0)
    with pytest.raises(InvalidInputs):
        basis_state(2, 2.0)
    with pytest.raises(InvalidInputs):
        basis_state(2, 0.3)
    for m in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputs, match="not a half-integer"):
            basis_state(3, m)


def test_params_validation():
    with pytest.raises(InvalidInputs):
        SpinHamiltonianParams(d=1.0, g_e=0.0)
    with pytest.raises(InvalidInputs):
        SpinHamiltonianParams(d=1.0, g_e=-2.0)
    # |e| <= |d|/3, so nonzero e with zero d is rejected too.
    with pytest.raises(InvalidInputs):
        SpinHamiltonianParams(d=3.0, g_e=2.0, e=1.5)
    with pytest.raises(InvalidInputs):
        SpinHamiltonianParams(d=0.0, g_e=2.0, e=0.1)
    with pytest.raises(InvalidInputs):
        SpinHamiltonianParams(d=1.0, g_e=2.0, b_field=(1.0, 2.0))
    ok = SpinHamiltonianParams(d=-3.0, g_e=2.0, e=1.0)
    assert ok.e == 1.0
    # A non-finite field is named, before it can reach the eigensolver.
    nan, inf = float("nan"), float("inf")
    for field, value in (
        ("d", nan),
        ("d", -inf),
        ("e", nan),
        ("g_e", inf),
        ("g_e", nan),
        ("b_field", (nan, 0.0, 0.0)),
        ("b_field", (0.0, inf, 0.0)),
        ("b_field", (0.0, 0.0, -inf)),
    ):
        with pytest.raises(InvalidInputs, match=f"^{field} must be finite"):
            SpinHamiltonianParams(**{"d": 1.0, "g_e": 2.0, field: value})


def test_hamiltonian_is_hermitian():
    params = SpinHamiltonianParams(
        d=ghz_to_angular(1.0), g_e=2.0, e=ghz_to_angular(0.2), b_field=(0.01, 0.02, 0.03)
    )
    h = build_hamiltonian(3, params)
    assert np.abs(h - h.conj().T).max() < 1e-12 * np.abs(h).max()


def test_spin_one_zero_field_gap():
    # The m = +-1 pair sits d above m = 0.
    d = ghz_to_angular(2.88)
    h = build_hamiltonian(2, SpinHamiltonianParams(d=d, g_e=2.0))
    vals = diagonalize(h).eigenvalues
    assert vals[1] - vals[0] == pytest.approx(d, rel=1e-12)
    assert vals[2] - vals[0] == pytest.approx(d, rel=1e-12)


def test_pure_zeeman_ladder():
    bz = 0.25
    g = 2.0
    h = build_hamiltonian(2, SpinHamiltonianParams(d=0.0, g_e=g, b_field=(0, 0, bz)))
    vals = diagonalize(h).eigenvalues
    step = g * MUB_SI * bz / HBAR_SI
    gaps = np.diff(vals)
    assert np.allclose(gaps, step, rtol=1e-12)


def test_negative_d_pair_ordering():
    # d < 0 puts the +-3/2 pair below the +-1/2 pair, separated by 2|d|.
    d = -ghz_to_angular(5.723)
    h = build_hamiltonian(3, SpinHamiltonianParams(d=d, g_e=1.984))
    vals = diagonalize(h).eigenvalues
    assert np.allclose(vals[:2], vals[0], rtol=1e-12)
    gap = vals[2] - vals[0]
    assert gap == pytest.approx(2.0 * abs(d), rel=1e-12)
    assert gap == pytest.approx(ghz_to_angular(11.446), rel=1e-12)


def test_closed_form_eigenvalues_all_spins():
    for two_s in range(1, 8):
        for d in (ghz_to_angular(3.1), -ghz_to_angular(5.723)):
            h = build_hamiltonian(two_s, SpinHamiltonianParams(d=d, g_e=2.0))
            vals = diagonalize(h).eigenvalues
            s = two_s / 2.0
            expected = np.sort(
                [d * (m * m - s * (s + 1.0) / 3.0) for m in m_values(two_s)]
            )
            # For S = 1/2 the splitting vanishes identically, so scale by
            # |d| rather than the (zero) spectrum.
            scale = max(np.abs(expected).max(), abs(d))
            assert np.abs(vals - expected).max() <= 1e-9 * scale


def test_zeeman_linearity():
    # Slope of each sorted level versus |B| is constant across three fields.
    d = -ghz_to_angular(5.723)
    fields = (1e-3, 2e-3, 3e-3)
    levels = []
    for bz in fields:
        params = SpinHamiltonianParams(d=d, g_e=1.984, b_field=(0, 0, bz))
        levels.append(diagonalize(build_hamiltonian(3, params)).eigenvalues)
    first = levels[1] - levels[0]
    second = levels[2] - levels[1]
    assert np.abs(second - first).max() < 1e-9 * np.abs(first).max()


def test_transition_moment_cr_like():
    ops = spin_operators(3)
    g = 1.984
    tm = transition_moment(basis_state(3, 1.5), basis_state(3, 0.5), ops, g)
    assert abs(tm[0]) == pytest.approx(g * SQRT3 / 2.0, rel=1e-12)
    assert abs(tm[1]) == pytest.approx(g * SQRT3 / 2.0, rel=1e-12)
    assert abs(tm[2]) < 1e-14
    assert unpolarized_coupling(tm) == pytest.approx(g * g / 2.0, rel=1e-12)
    assert tm.shape == (3,) and not tm.flags.writeable


def test_transition_moment_diagonal_element():
    ops = spin_operators(1)
    state = basis_state(1, 0.5)
    tm = transition_moment(state, state, ops, 2.0)
    assert tm[2] == pytest.approx(1.0, rel=1e-14)
    assert abs(tm[0]) < 1e-14
    assert abs(tm[1]) < 1e-14


def test_orbital_moment_additive():
    ops = spin_operators(3)
    pure = transition_moment(basis_state(3, 1.5), basis_state(3, 0.5), ops, 1.984)
    shifted = transition_moment(
        basis_state(3, 1.5),
        basis_state(3, 0.5),
        ops,
        1.984,
        orbital_moment=(0.5, 0.0, 1.0j),
    )
    assert shifted[0] == pytest.approx(pure[0] + 0.5, rel=1e-12)
    assert shifted[2] == pytest.approx(pure[2] + 1.0j, rel=1e-12)


def test_moment_swap_conjugates():
    rng = np.random.default_rng(31)
    ops = spin_operators(5)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    forward = transition_moment(a, b, ops, 2.02)
    backward = transition_moment(b, a, ops, 2.02)
    assert np.allclose(backward, forward.conj(), atol=1e-12)
    assert unpolarized_coupling(backward) == pytest.approx(
        unpolarized_coupling(forward), rel=1e-12
    )


def test_coupling_phase_invariant():
    ops = spin_operators(3)
    psi_i = basis_state(3, 1.5)
    psi_f = basis_state(3, 0.5)
    base = unpolarized_coupling(transition_moment(psi_i, psi_f, ops, 1.984))
    for theta in (0.3, 1.1, 2.9):
        rotated = unpolarized_coupling(
            transition_moment(np.exp(1j * theta) * psi_i, psi_f, ops, 1.984)
        )
        assert rotated == pytest.approx(base, rel=1e-12)


def test_sqrt_coupling_table():
    ops32 = spin_operators(3)
    ops52 = spin_operators(5)
    cr = transition_moment(basis_state(3, 1.5), basis_state(3, 0.5), ops32, 1.984)
    fe = transition_moment(basis_state(5, 0.5), basis_state(5, 1.5), ops52, 2.02)
    v = transition_moment(basis_state(3, 1.5), basis_state(3, 0.5), ops32, 2.029)
    assert math.sqrt(unpolarized_coupling(cr)) == pytest.approx(1.403, abs=1e-3)
    assert math.sqrt(unpolarized_coupling(fe)) == pytest.approx(2.332, abs=1e-3)
    assert math.sqrt(unpolarized_coupling(v)) == pytest.approx(1.435, abs=1e-3)
    # Closed forms: g/sqrt(2) for the 3/2 ladder, 2g/sqrt(3) for 5/2.
    assert math.sqrt(unpolarized_coupling(fe)) == pytest.approx(
        2.0 * 2.02 / SQRT3, rel=1e-12
    )


def test_unpolarized_coupling_accepts_vector():
    assert unpolarized_coupling((1.0, 1.0, 1.0)) == pytest.approx(1.0, rel=1e-14)
    assert unpolarized_coupling((3.0, 0.0, 0.0)) == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize(
    "m_vec, shape",
    [([1.0, 2.0, 3.0, 4.0, 5.0], (5,)), (np.eye(4), (4, 4)), (1.0, ()), ([], (0,)),
     ([[1.0, 0.0, 0.0]], (1, 3))],
    ids=["5-vector", "matrix", "scalar", "empty", "row"],
)
def test_unpolarized_coupling_takes_only_a_3_vector(m_vec, shape):
    message = f"m_vec must have shape (3,), got {shape}"
    with pytest.raises(InvalidInputs, match=f"^{re.escape(message)}$"):
        unpolarized_coupling(m_vec)


def test_dimension_mismatch():
    # Each state is a vector of the operator dim: a (2, 2) array of dim 4
    # entries is no state.
    ops, state = spin_operators(3), basis_state(3, 0.5)
    for psi_i, psi_f, name, shape in (
        (basis_state(1, 0.5), state, "psi_i", (2,)),
        (state.reshape(2, 2), state, "psi_i", (2, 2)),
        (state, state.reshape(2, 2), "psi_f", (2, 2)),
        (1.0, state, "psi_i", ()),
    ):
        message = f"{name} must have shape (4,), got {shape}"
        with pytest.raises(InvalidInputs, match=f"^{re.escape(message)}$"):
            transition_moment(psi_i, psi_f, ops, 2.0)
    message = "orbital_moment must have shape (3,), got (1,)"
    with pytest.raises(InvalidInputs, match=f"^{re.escape(message)}$"):
        transition_moment(state, state, ops, 2.0, orbital_moment=(1.0,))
