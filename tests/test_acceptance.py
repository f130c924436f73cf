"""Top-level checks of the published numbers the package must reproduce."""

import numpy as np
import pytest
from scipy.integrate import quad

from paramagloss import (
    a_md,
    absorption_coefficient,
    basis_state,
    build_hamiltonian,
    default_db_path,
    default_emission_path,
    diagonalize,
    extract_moment,
    line_coupling_sq,
    load_species_db,
    loss_tangent,
    photon_dos,
    read_emission_table,
    sigma_md,
    species_loss,
    spin_operators,
    sweep,
    temperature_factor,
    tanh_factor,
    wavelength_to_angular,
)
from paramagloss.constants import C, TWO_PI
from paramagloss.spin import SpinHamiltonianParams

CR_OMEGA = TWO_PI * 11.45e9
CR_GAMMA = TWO_PI * 27e6
CR_COUPLING = line_coupling_sq(3, (1.5, 0.5), 1.984)
CR_DENSITY = 1.0e17 * 1.0e6

ON_RESONANCE_ORACLE = 2.3779818380231274e-03

PUBLISHED_M_SQ = {
    "Gd": 0.0108,
    "Sm": 0.0096,
    "Eu": 0.1044,
    "Er": 0.3135,
    "Dy": 0.2858,
}


@pytest.fixture
def report(capsys):
    """One visible PASS/FAIL line per criterion, bypassing output capture."""

    def _report(number: int, description: str, passed: bool) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[criterion {number}] {description}: {verdict}", flush=True)
        assert passed, f"criterion {number} failed: {description}"

    return _report


def _chain(omega: float, n_r: float = 1.0) -> float:
    sig = sigma_md(omega, CR_OMEGA, CR_COUPLING, CR_GAMMA, n_r=n_r)
    return loss_tangent(absorption_coefficient(CR_DENSITY, sig), omega, n_r=n_r)


def test_transition_moment_magnitudes(report):
    table = [
        (3, (1.5, 0.5), 1.984, 1.403),
        (5, (0.5, 1.5), 2.02, 2.332),
        (3, (1.5, 0.5), 2.029, 1.435),
    ]
    errors = [
        abs(np.sqrt(line_coupling_sq(two_s, pair, g)) - expected)
        for two_s, pair, g, expected in table
    ]
    report(
        1,
        "unpolarized transition moments match the three tabulated values to 1e-3",
        max(errors) < 1e-3,
    )


def test_detuned_loss_tangent(report):
    value = _chain(TWO_PI * 4.5e9)
    report(
        2,
        "Cr loss tangent at 4.5 GHz equals 9.0e-9 within 5%",
        abs(value - 9.0e-9) <= 0.05 * 9.0e-9,
    )


def test_on_resonance_loss_tangent(report):
    value = _chain(CR_OMEGA)
    near_oracle = abs(value - ON_RESONANCE_ORACLE) <= 0.10 * ON_RESONANCE_ORACLE
    right_scale = 1e-3 / 3.0 <= value <= 3e-3
    report(
        3,
        "on-resonance Cr loss tangent matches the independent chain within 10% "
        "and sits within a factor of three of 1e-3",
        near_oracle and right_scale,
    )


def test_rare_earth_moment_extraction(report):
    lines = read_emission_table(default_emission_path())
    deviations = []
    for line in lines:
        m_sq = extract_moment(line.a_md, TWO_PI * C / line.omega_if)
        deviations.append(abs(m_sq / PUBLISHED_M_SQ[line.label] - 1.0))
    report(
        4,
        "extracted rare-earth moments match all five published values within 2%",
        len(lines) == 5 and max(deviations) <= 0.02,
    )


def test_refractive_index_cancellation(report):
    omega = TWO_PI * 4.5e9
    values = [_chain(omega, n_r=n) for n in (1.0, 1.77, 3.1)]
    spread = (max(values) - min(values)) / values[0]
    report(
        5,
        "loss tangent is independent of refractive index to 1e-12",
        spread <= 1e-12,
    )


def test_emission_detailed_balance(report):
    omega_if = wavelength_to_angular(1276e-9)
    m_sq = 0.3135
    gamma = TWO_PI * 5e9
    worst = 0.0
    for n_r in (1.0, 1.77):
        def integrand(omega):
            sig = sigma_md(omega, omega_if, m_sq, gamma, n_r=n_r)
            return (C / n_r) * sig * photon_dos(omega, n_r=n_r)

        rate, _ = quad(
            integrand,
            omega_if - 1000.0 * gamma,
            omega_if + 1000.0 * gamma,
            points=[omega_if],
            limit=200,
        )
        worst = max(worst, abs(rate / a_md(omega_if, m_sq, n_r=n_r) - 1.0))
    report(
        6,
        "integrated absorption against the photon density of states recovers "
        "the spontaneous emission rate within 0.1%",
        worst <= 1e-3,
    )


def test_thermal_and_power_saturation(report):
    omega_if = CR_OMEGA
    w_cold = temperature_factor(omega_if, 0.0)
    w_hot = temperature_factor(omega_if, 1e9)
    th_hot = tanh_factor(omega_if, 1e9)
    limits_ok = (
        w_cold == 1.0
        and abs(w_hot - 0.25) <= 1e-6
        and abs(th_hot) <= 1e-6
    )

    species = load_species_db(default_db_path())[0]
    detuned = CR_OMEGA + 10.0 * CR_GAMMA
    powers = np.linspace(0.0, 100.0, 20)
    peak = np.array([species_loss(species, CR_OMEGA, power=p) for p in powers])
    wing = np.array([species_loss(species, detuned, power=p) for p in powers])
    dichotomy_ok = bool(np.all(np.diff(peak) < 0.0) and np.all(np.diff(wing) > 0.0))
    report(
        7,
        "thermal occupation limits hold and saturation suppresses the peak "
        "while raising the detuned wing",
        limits_ok and dichotomy_ok,
    )


def test_spin_algebra_and_zero_field_spectra(report):
    algebra_ok = True
    spectra_ok = True
    d = TWO_PI * 3.0e9
    for two_s in range(1, 8):
        ops = spin_operators(two_s)
        s = two_s / 2.0
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        checks = [
            ops.sx @ ops.sy - ops.sy @ ops.sx - 1j * ops.sz,
            ops.sy @ ops.sz - ops.sz @ ops.sy - 1j * ops.sx,
            ops.sz @ ops.sx - ops.sx @ ops.sz - 1j * ops.sy,
            casimir - s * (s + 1.0) * np.eye(ops.dim),
        ]
        scale = max(1.0, s * (s + 1.0))
        if max(np.max(np.abs(c)) for c in checks) > 1e-12 * scale:
            algebra_ok = False

        for sign in (1.0, -1.0):
            params = SpinHamiltonianParams(d=sign * d, g_e=2.0)
            decomp = diagonalize(build_hamiltonian(two_s, params))
            m = np.arange(-s, s + 1.0)
            expected = np.sort(sign * d * (m**2 - s * (s + 1.0) / 3.0))
            if not np.allclose(
                decomp.eigenvalues, expected, rtol=1e-9, atol=1e-9 * d
            ):
                spectra_ok = False
    report(
        8,
        "spin operators satisfy the algebra and zero-field splittings match "
        "the closed form for S = 1/2 through 7/2",
        algebra_ok and spectra_ok,
    )


def test_full_spectrum_structure(report):
    db = load_species_db(default_db_path())
    spectrum = sweep(db, 1.0, 15.0, 1401)
    freqs = spectrum.freqs_ghz
    cr = spectrum.per_species["Cr"]
    fe = spectrum.per_species["Fe"]
    va = spectrum.per_species["V"]

    cr_peak_ok = abs(freqs[np.argmax(cr)] - 11.45) < 1e-9
    fe_peak_ok = abs(freqs[np.argmax(fe)] - 12.03) < 1e-9

    band = (freqs >= 8.5) & (freqs <= 10.5)
    interior = (va[1:-1] > va[:-2]) & (va[1:-1] > va[2:])
    maxima = int(np.sum(interior & band[1:-1]))

    idx = int(np.argmin(np.abs(freqs - 4.5)))
    order_ok = fe[idx] > cr[idx] > va[idx]
    report(
        9,
        "swept spectrum peaks at 11.45 GHz (Cr) and 12.03 GHz (Fe), resolves "
        "eight V lines in 8.5-10.5 GHz, and orders Fe > Cr > V at 4.5 GHz",
        cr_peak_ok and fe_peak_ok and maxima == 8 and order_ok,
    )
