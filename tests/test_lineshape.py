"""Broadening profiles, temperature factors, and power broadening."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from paramagloss.errors import (
    DeltaKindUnsupported,
    InvalidInputs,
    NegativeTemperature,
    NonPositiveWidth,
)
from paramagloss.lineshape import (
    LineshapeSpec,
    evaluate,
    gaussian,
    lorentzian,
    power_broadened_gamma,
    tanh_factor,
    temperature_factor,
    voigt,
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


def test_gaussian_peak_and_one_sigma():
    sigma = 2.0 * 27e6
    peak = gaussian(0.0, sigma)
    assert peak == pytest.approx(1.0 / (sigma * math.sqrt(TWO_PI)), rel=1e-14)
    assert gaussian(sigma, sigma) == pytest.approx(peak * math.exp(-0.5), rel=1e-14)


def test_gaussian_normalization():
    sigma = 1.3
    integral, _ = quad(lambda x: gaussian(x, sigma), -8 * sigma, 8 * sigma, limit=200)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_voigt_lorentzian_limit():
    gamma = 1.0
    for d in (0.0, 0.7, 3.0):
        assert voigt(d, gamma, 1e-6 * gamma) == pytest.approx(
            lorentzian(d, gamma), rel=1e-4
        )


def test_voigt_gaussian_limit():
    sigma = 1.0
    for d in (0.0, 1.0, 2.5):
        assert voigt(d, 1e-6 * sigma, sigma) == pytest.approx(
            gaussian(d, sigma), rel=1e-4
        )


def _voigt_quadrature(d, gamma, sigma):
    integrand = lambda x: gaussian(x, sigma) * lorentzian(d - x, gamma)
    value, _ = quad(integrand, -40 * sigma, 40 * sigma, limit=400)
    return value


def test_voigt_against_quadrature():
    # Frozen convolution quadrature at gamma = sigma = 1, zero detuning.
    assert voigt(0.0, 1.0, 1.0) == pytest.approx(0.2789554703892946, rel=1e-9)
    for d, gamma, sigma in ((0.7, 1.3, 0.9), (2.0, 0.5, 1.7)):
        assert voigt(d, gamma, sigma) == pytest.approx(
            _voigt_quadrature(d, gamma, sigma), rel=1e-6
        )


def test_profiles_nonnegative_and_even():
    grid = np.linspace(-5.0, 5.0, 41)
    for values in (
        lorentzian(grid, 1.1),
        gaussian(grid, 0.8),
        np.array([voigt(d, 1.1, 0.8) for d in grid]),
    ):
        assert np.all(values >= 0.0)
        assert np.allclose(values, values[::-1], rtol=1e-12)


def test_width_validation():
    with pytest.raises(NonPositiveWidth):
        lorentzian(0.0, 0.0)
    with pytest.raises(NonPositiveWidth):
        gaussian(0.0, -1.0)
    with pytest.raises(NonPositiveWidth):
        voigt(0.0, 1.0, 0.0)
    with pytest.raises(NonPositiveWidth):
        voigt(0.0, -1.0, 1.0)


def test_spec_validation_and_dispatch():
    with pytest.raises(InvalidInputs):
        LineshapeSpec(kind="boxcar", gamma=1.0)
    with pytest.raises(NonPositiveWidth):
        LineshapeSpec(kind="lorentzian")
    with pytest.raises(NonPositiveWidth):
        LineshapeSpec(kind="voigt", gamma=1.0)
    spec = LineshapeSpec(kind="lorentzian", gamma=2.0)
    assert evaluate(spec, 0.3) == lorentzian(0.3, 2.0)
    spec = LineshapeSpec(kind="gaussian", sigma=1.5)
    assert evaluate(spec, 0.3) == gaussian(0.3, 1.5)
    spec = LineshapeSpec(kind="voigt", gamma=2.0, sigma=1.5)
    assert evaluate(spec, 0.3) == voigt(0.3, 2.0, 1.5)


def test_delta_kind_has_no_density():
    with pytest.raises(DeltaKindUnsupported):
        evaluate(LineshapeSpec(kind="delta"), 0.0)


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
    # kB T underflows to 0 here; both factors take their T -> 0 value.
    omega = TWO_PI * 4.5e9
    assert temperature_factor(omega, 1e-320) == 1.0
    assert tanh_factor(omega, 1e-320) == 1.0


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
    with pytest.raises(NegativeTemperature):
        temperature_factor(1.0, -0.1)
    with pytest.raises(NegativeTemperature):
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
    with pytest.raises(NonPositiveWidth):
        power_broadened_gamma(0.0, 1.0)
    with pytest.raises(InvalidInputs):
        power_broadened_gamma(1.0, -2.0)


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
