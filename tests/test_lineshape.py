"""The Lorentzian profile, temperature factors, and power broadening."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from paramagloss.absorption import MD_PREFACTOR, sigma_md
from paramagloss.errors import InvalidInputs
from paramagloss.lineshape import (
    LineshapeSpec,
    lorentzian,
    power_broadened_gamma,
    tanh_factor,
    temperature_factor,
)
from conftest import HBAR_SI, KB_SI

TWO_PI = 2.0 * math.pi


def test_lorentzian_peak():
    gamma = TWO_PI * 27e6
    assert lorentzian(0.0, gamma) == pytest.approx(2.0 / (math.pi * gamma), rel=1e-14)


def test_lorentzian_detuned_value():
    # Independent direct evaluation of (1/pi)(g/2)/(d^2 + (g/2)^2) at
    # g = 2*pi*27e6, d = 2*pi*6.95e9.
    value = lorentzian(TWO_PI * 6.95e9, TWO_PI * 27e6)
    assert value == pytest.approx(1.4159006451153752e-14, rel=1e-12)


def test_lorentzian_normalization():
    gamma = 3.7
    integral, _ = quad(
        lambda x: lorentzian(x, gamma), -1e4 * gamma, 1e4 * gamma, limit=200
    )
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_profiles_nonnegative_and_even():
    grid = np.linspace(-5.0, 5.0, 41)
    values = lorentzian(grid, 1.1)
    assert np.all(values >= 0.0)
    assert np.allclose(values, values[::-1], rtol=1e-12)
    # Far enough out, d^2 overflows and the density is 0, without a warning.
    assert np.array_equal(lorentzian(np.array([1e200, -1e200]), 1.1), [0.0, 0.0])


def test_width_validation():
    for gamma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputs, match="^gamma must be finite and > 0"):
            lorentzian(0.0, gamma)


def test_spec_validation_and_dispatch():
    for kind in ("boxcar", "gaussian", "voigt"):
        with pytest.raises(InvalidInputs, match="unknown lineshape kind"):
            LineshapeSpec(kind=kind, gamma=1.0)
    for gamma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputs, match="^gamma must be finite and > 0"):
            LineshapeSpec(kind="lorentzian", gamma=gamma)
    with pytest.raises(TypeError, match="gamma"):  # the width has no default
        LineshapeSpec(kind="lorentzian")
    # sigma_md evaluates the spec's Lorentzian at the detuning.
    spec = LineshapeSpec(kind="lorentzian", gamma=2.0)
    assert sigma_md(1.3, 1.0, 1.0, spec) == MD_PREFACTOR * 1.3 * lorentzian(1.3 - 1.0, 2.0)


def test_delta_kind_has_no_density():
    # A delta line has no pointwise density, so no spec describes one.
    with pytest.raises(InvalidInputs, match="unknown lineshape kind 'delta'"):
        LineshapeSpec(kind="delta", gamma=1.0)


def test_temperature_factor_limits():
    omega = TWO_PI * 11.45e9
    assert temperature_factor(omega, 0.0) == 1.0
    assert temperature_factor(omega, 1e9) == pytest.approx(0.25, abs=1e-6)
    # At hbar*omega = kB*T the closed form is (1 + 1/e)^-2.
    t_match = HBAR_SI * omega / KB_SI
    assert temperature_factor(omega, t_match) == pytest.approx(
        (1.0 + math.exp(-1.0)) ** -2, rel=1e-12
    )
    assert temperature_factor(omega, t_match) == pytest.approx(0.53445, abs=1e-5)


def test_tanh_factor_limits():
    omega = TWO_PI * 11.45e9
    assert tanh_factor(omega, 0.0) == 1.0
    assert tanh_factor(omega, 1e9) == pytest.approx(0.0, abs=1e-6)
    t_match = HBAR_SI * omega / KB_SI
    assert tanh_factor(omega, t_match) == pytest.approx(math.tanh(0.5), rel=1e-12)
    assert tanh_factor(omega, t_match) == pytest.approx(0.46212, abs=1e-5)


def test_temperature_factors_monotone_decreasing():
    omega = TWO_PI * 11.45e9
    temps = np.linspace(0.01, 20.0, 25)
    w = np.array([temperature_factor(omega, t) for t in temps])
    th = np.array([tanh_factor(omega, t) for t in temps])
    assert np.all(np.diff(w) < 0.0)
    assert np.all(np.diff(th) < 0.0)
    assert np.all(w > 0.25)


def test_temperature_factors_subnormal_temperature():
    # omega_if / T overflows here; both factors take their T -> 0 value.
    omega = TWO_PI * 4.5e9
    assert temperature_factor(omega, 1e-320) == 1.0
    assert tanh_factor(omega, 1e-320) == 1.0


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200])
def test_temperature_factors_depend_on_omega_over_t_only(scale):
    # At 1e-300 both hbar omega_if and kB T underflow; omega_if / T does not.
    omega, temps = TWO_PI * 4.5e9, np.array([0.05, 0.2, 1.0, 30.0])
    for factor in (temperature_factor, tanh_factor):
        np.testing.assert_allclose(
            factor(omega * scale, temps * scale), factor(omega, temps), rtol=1e-12
        )


def test_temperature_factors_at_tiny_frequency_and_temperature():
    # The second row of tempcurve --freq-ghz 1e-300 --tmin-k 0 --tmax-k 1e-300 --points 3.
    omega = TWO_PI * 1e9 * 1e-300
    assert f"{temperature_factor(omega, 5e-301):.8e}" == "2.74552744e-01"
    assert f"{tanh_factor(omega, 5e-301):.8e}" == "4.79556181e-02"


def test_temperature_factors_arrays_match_scalars():
    omega = TWO_PI * 0.37e9
    temps = np.linspace(0.0, 17.0, 2000)
    for factor in (temperature_factor, tanh_factor):
        values = factor(omega, temps)
        scalars = [factor(omega, float(t)) for t in temps]
        assert all(type(x) is float for x in scalars)
        assert np.array_equal(values, scalars)
    omegas = TWO_PI * np.array([8.68e9, 9.25e9, 11.45e9])
    assert np.array_equal(
        temperature_factor(omegas, 0.7),
        [temperature_factor(float(w), 0.7) for w in omegas],
    )


def test_power_broadened_gamma_grid():
    gamma0 = TWO_PI * 27e6
    ratios = np.linspace(0.0, 431.0, 50)
    widths = power_broadened_gamma(gamma0, ratios)
    assert np.array_equal(widths, [power_broadened_gamma(gamma0, float(p)) for p in ratios])
    with pytest.raises(InvalidInputs):
        power_broadened_gamma(gamma0, np.array([1.0, -1.0]))


def test_negative_temperature_rejected():
    with pytest.raises(InvalidInputs, match="temperature"):
        temperature_factor(1.0, -0.1)
    with pytest.raises(InvalidInputs, match="temperature"):
        tanh_factor(1.0, -0.1)
    with pytest.raises(InvalidInputs):
        temperature_factor(0.0, 1.0)


def test_power_broadened_gamma_values():
    gamma0 = TWO_PI * 27e6
    assert power_broadened_gamma(gamma0, 0.0) == gamma0
    assert power_broadened_gamma(gamma0, 3.0) == pytest.approx(
        2.0 * gamma0, rel=1e-14
    )
    assert power_broadened_gamma(gamma0, 1.0) == pytest.approx(
        math.sqrt(2.0) * gamma0, rel=1e-14
    )


def test_power_model_validation():
    with pytest.raises(InvalidInputs, match="gamma0"):
        power_broadened_gamma(0.0, 1.0)
    with pytest.raises(InvalidInputs):
        power_broadened_gamma(1.0, -2.0)
    for gamma0, power in ((np.inf, 1.0), (1.0, np.nan), (1.0, np.array([1.0, np.inf]))):
        with pytest.raises(InvalidInputs):
            power_broadened_gamma(gamma0, power)


def test_power_saturation_dichotomy():
    # On resonance the peak drops with power; far off resonance the wings
    # rise, because the broadened line spills outward.
    gamma0 = 1.0
    detuning = 10.0 * gamma0
    powers = np.linspace(0.0, 100.0, 20)
    peak = np.array(
        [lorentzian(0.0, power_broadened_gamma(gamma0, p)) for p in powers]
    )
    wing = np.array(
        [lorentzian(detuning, power_broadened_gamma(gamma0, p)) for p in powers]
    )
    assert np.all(np.diff(peak) < 0.0)
    assert np.all(np.diff(wing) > 0.0)
    # The wing stays outside the broadened half-width over this range.
    assert detuning > power_broadened_gamma(gamma0, powers[-1]) / 2.0
