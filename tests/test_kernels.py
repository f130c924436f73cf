"""The Lorentzian mixer against a scalar double-loop reference."""

import numpy as np

from paramagloss import _kernels


def _mix_reference(omega, centers, gamma, amps):
    # Same operation sequence as the vectorised mixer, one point at a time,
    # summed from zero; gamma is one shared FWHM or one FWHM per point.
    gammas = np.broadcast_to(gamma, omega.shape)
    out = np.zeros(omega.shape)
    for l in range(centers.shape[0]):
        for j in range(omega.shape[0]):
            half = 0.5 * gammas[j]
            pref = half / np.pi
            d = omega[j] - centers[l]
            out[j] += (amps[l] * pref) / (d * d + half * half)
    return out


def _mix_inputs(n_points=257, n_lines=9, seed=42):
    rng = np.random.default_rng(seed)
    omega = np.linspace(0.5e10, 1.5e11, n_points)
    centers = rng.uniform(1e10, 1.4e11, n_lines)
    amps = rng.uniform(0.1, 2.0, n_lines)
    return omega, centers, amps


def test_numpy_and_loop_paths_identical():
    omega, centers, amps = _mix_inputs()
    gamma = 2.0 * np.pi * 27e6
    a = _kernels.lorentzian_mix(omega, centers, gamma, amps)
    b = _mix_reference(omega, centers, gamma, amps)
    assert np.array_equal(a, b)


def test_power_grid_widths_match_reference():
    # One probe frequency and one power-broadened width per grid point.
    _, centers, amps = _mix_inputs()
    ratios = np.linspace(0.0, 431.0, 257)
    gamma = 2.0 * np.pi * 27e6 * np.sqrt(1.0 + ratios)
    omega = np.full(ratios.shape, centers[3])
    a = _kernels.lorentzian_mix(omega, centers, gamma, amps)
    b = _mix_reference(omega, centers, gamma, amps)
    assert np.array_equal(a, b)


def test_scalar_point_matches_reference():
    # The point path: a 0-d omega gives a 0-d sum.
    omega, centers, amps = _mix_inputs()
    gamma = 2.0 * np.pi * 27e6
    for w in (omega[0], centers[2], omega[-1]):
        out = _kernels.lorentzian_mix(np.asarray(w), centers, gamma, amps)
        assert out.shape == ()
        ref = _mix_reference(np.array([w]), centers, gamma, amps)
        assert out[()] == ref[0]


def test_many_lines_match_reference():
    omega, centers, amps = _mix_inputs(n_points=97, n_lines=600, seed=11)
    gamma = 2.0 * np.pi * 27e6
    a = _kernels.lorentzian_mix(omega, centers, gamma, amps)
    b = _mix_reference(omega, centers, gamma, amps)
    assert np.array_equal(a, b)


def test_read_only_and_broadcast_inputs_left_unchanged():
    _, centers, amps = _mix_inputs()
    ratios = np.linspace(0.0, 50.0, 129)
    gamma = 2.0 * np.pi * 27e6 * np.sqrt(1.0 + ratios)
    omega = np.broadcast_to(centers[4], ratios.shape)
    for arr in (centers, amps, gamma):
        arr.setflags(write=False)
    saved = [arr.copy() for arr in (omega, centers, amps, gamma)]
    a = _kernels.lorentzian_mix(omega, centers, gamma, amps)
    b = _mix_reference(omega, centers, gamma, amps)
    assert np.array_equal(a, b)
    for arr, before in zip((omega, centers, amps, gamma), saved):
        assert np.array_equal(arr, before)
