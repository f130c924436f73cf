"""The Lorentzian mixer against a scalar double-loop reference."""

import numpy as np

from paramagloss import _kernels


def _mix_reference(omega, centers, gammas, amps, out):
    # Same operation sequence as the vectorised mixer, one point at a time.
    for l in range(centers.shape[0]):
        half = 0.5 * gammas[l]
        pref = half / np.pi
        for j in range(omega.shape[0]):
            d = omega[j] - centers[l]
            out[j] += amps[l] * (pref / (d * d + half * half))
    return out


def _mix_inputs(n_points=257, n_lines=9, seed=42):
    rng = np.random.default_rng(seed)
    omega = np.linspace(0.5e10, 1.5e11, n_points)
    centers = rng.uniform(1e10, 1.4e11, n_lines)
    gammas = rng.uniform(1e7, 5e8, n_lines)
    amps = rng.uniform(0.1, 2.0, n_lines)
    return omega, centers, gammas, amps


def test_numpy_and_loop_paths_identical():
    omega, centers, gammas, amps = _mix_inputs()
    a = _kernels.lorentzian_mix(omega, centers, gammas, amps, np.zeros_like(omega))
    b = _mix_reference(omega, centers, gammas, amps, np.zeros_like(omega))
    assert np.array_equal(a, b)
