"""Cross sections, attenuation, and loss tangents through the full chain."""

import math

import numpy as np
import pytest

from paramagloss.absorption import (
    MD_PREFACTOR,
    absorption_coefficient,
    loss_tangent,
    sigma_md,
)
from paramagloss.errors import InvalidInputs
from paramagloss.lineshape import temperature_factor
from conftest import BOHR_RADIUS, FINE_STRUCTURE

TWO_PI = 2.0 * math.pi

OMEGA_RES = TWO_PI * 11.45e9
GAMMA = TWO_PI * 27e6
COUPLING = 1.984**2 / 2.0
N_DEF = 1e17 * 1e6


def _chain(omega, n_r=1.0, n_def=N_DEF, coupling=COUPLING, temp_k=None):
    sigma = sigma_md(omega, OMEGA_RES, coupling, GAMMA, n_r=n_r, temp_k=temp_k)
    return loss_tangent(absorption_coefficient(n_def, sigma), omega, n_r=n_r)


def test_prefactors_from_raw_constants():
    assert MD_PREFACTOR == pytest.approx(
        math.pi**2 * FINE_STRUCTURE**3 * BOHR_RADIUS**2, rel=1e-15
    )


def test_sigma_md_on_resonance_value():
    # Independent constant-by-constant evaluation of the peak cross section.
    sigma = sigma_md(OMEGA_RES, OMEGA_RES, COUPLING, GAMMA)
    assert sigma == pytest.approx(5.706544200151563e-24, rel=1e-12)


def test_sigma_md_zero_coupling():
    assert sigma_md(OMEGA_RES, OMEGA_RES, 0.0, GAMMA) == 0.0


def test_sigma_md_linear_in_n_r():
    base = sigma_md(OMEGA_RES, OMEGA_RES, COUPLING, GAMMA, n_r=1.0)
    doubled = sigma_md(OMEGA_RES, OMEGA_RES, COUPLING, GAMMA, n_r=2.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


def test_sigma_md_temperature_multiplier():
    bare = sigma_md(OMEGA_RES, OMEGA_RES, COUPLING, GAMMA)
    warm = sigma_md(OMEGA_RES, OMEGA_RES, COUPLING, GAMMA, temp_k=0.3)
    assert warm == pytest.approx(bare * temperature_factor(OMEGA_RES, 0.3), rel=1e-14)


def test_sigma_md_rejects_bad_inputs():
    for gamma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputs, match="^gamma must be finite and > 0"):
            sigma_md(OMEGA_RES, OMEGA_RES, COUPLING, gamma)
    with pytest.raises(InvalidInputs):
        sigma_md(0.0, OMEGA_RES, COUPLING, GAMMA)
    with pytest.raises(InvalidInputs):
        sigma_md(OMEGA_RES, -1.0, COUPLING, GAMMA)
    with pytest.raises(InvalidInputs):
        sigma_md(OMEGA_RES, OMEGA_RES, -0.5, GAMMA)
    with pytest.raises(InvalidInputs):
        sigma_md(OMEGA_RES, OMEGA_RES, COUPLING, GAMMA, n_r=0.5)
    nan, inf = float("nan"), float("inf")
    for args, kwargs in (
        ((1.0, 1.0, nan, GAMMA), {}),
        ((OMEGA_RES, OMEGA_RES, inf, GAMMA), {}),
        ((inf, OMEGA_RES, COUPLING, GAMMA), {}),
        ((nan, OMEGA_RES, COUPLING, GAMMA), {}),
        ((OMEGA_RES, inf, COUPLING, GAMMA), {}),
        ((OMEGA_RES, OMEGA_RES, COUPLING, GAMMA), {"n_r": nan}),
        ((OMEGA_RES, OMEGA_RES, COUPLING, GAMMA), {"n_r": inf}),
    ):
        with pytest.raises(InvalidInputs):
            sigma_md(*args, **kwargs)


def test_absorption_coefficient_product():
    sigma = 5.706544200151563e-24
    assert absorption_coefficient(1e23, sigma) == pytest.approx(0.5706544, rel=1e-6)
    assert absorption_coefficient(0.0, sigma) == 0.0
    assert absorption_coefficient(2e23, sigma) == pytest.approx(
        2.0 * absorption_coefficient(1e23, sigma), rel=1e-14
    )
    with pytest.raises(InvalidInputs):
        absorption_coefficient(-1.0, sigma)
    with pytest.raises(InvalidInputs):
        absorption_coefficient(1e23, -sigma)
    for n_def, sig in ((float("nan"), 1.0), (float("inf"), sigma), (1e23, float("nan"))):
        with pytest.raises(InvalidInputs):
            absorption_coefficient(n_def, sig)


def test_loss_tangent_qubit_frequency():
    # Off-resonance probe at 4.5 GHz with the resonance at 11.45 GHz.
    tan = _chain(TWO_PI * 4.5e9)
    assert tan == pytest.approx(8.972321407259219e-09, rel=1e-12)
    assert tan == pytest.approx(9.0e-9, rel=0.05)


def test_loss_tangent_on_resonance():
    tan = _chain(OMEGA_RES)
    assert tan == pytest.approx(2.3779818380231274e-03, rel=1e-12)
    assert tan == pytest.approx(2.38e-3, rel=1e-2)


def test_loss_tangent_zero_absorption():
    assert loss_tangent(0.0, OMEGA_RES) == 0.0
    with pytest.raises(InvalidInputs):
        loss_tangent(1.0, 0.0)
    with pytest.raises(InvalidInputs):
        loss_tangent(-1.0, OMEGA_RES)
    with pytest.raises(InvalidInputs):
        loss_tangent(1.0, OMEGA_RES, n_r=0.9)
    nan, inf = float("nan"), float("inf")
    for a, omega, n_r in ((nan, 1.0, 1.0), (inf, 1.0, 1.0), (1.0, inf, 1.0), (1.0, 1.0, nan)):
        with pytest.raises(InvalidInputs):
            loss_tangent(a, omega, n_r=n_r)


def test_n_r_cancels_through_chain():
    base = _chain(TWO_PI * 4.5e9, n_r=1.0)
    for n_r in (1.77, 3.1):
        value = _chain(TWO_PI * 4.5e9, n_r=n_r)
        assert abs(value - base) <= 1e-12 * base


def test_chain_linear_in_density_and_coupling():
    omega = TWO_PI * 4.5e9
    base = _chain(omega)
    assert _chain(omega, n_def=2.0 * N_DEF) == pytest.approx(2.0 * base, rel=1e-12)
    assert _chain(omega, coupling=2.0 * COUPLING) == pytest.approx(
        2.0 * base, rel=1e-12
    )


def test_loss_maximum_at_resonance_on_grid():
    freqs = np.linspace(11.0, 11.9, 901)
    values = [_chain(TWO_PI * f * 1e9) for f in freqs]
    peak_freq = freqs[int(np.argmax(values))]
    step = freqs[1] - freqs[0]
    assert abs(peak_freq - 11.45) <= step + 1e-12


def test_temperature_scaled_loss_bounded():
    omega = TWO_PI * 4.5e9
    cold = _chain(omega)
    temps = np.linspace(0.0, 30.0, 16)
    values = np.array([_chain(omega, temp_k=t) for t in temps])
    assert np.all(np.diff(values) <= 0.0)
    assert np.all(values >= cold / 4.0)
    assert values[0] == cold
