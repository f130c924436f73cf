"""The one range rule of the library's numbers, and the arguments it guards."""

import math

import numpy as np
import pytest

from paramagloss.absorption import absorption_coefficient, loss_tangent, sigma_md
from paramagloss.emission import (
    EmissionLine,
    a_md,
    extract_moment,
    photon_dos,
    wavelength_to_angular,
)
from paramagloss.ensemble import DefectSpecies, SpeciesLines, sweep
from paramagloss.errors import InvalidInputs, ParamagLossError, require
from paramagloss.lineshape import LineshapeSpec, lorentzian, power_broadened_gamma
from paramagloss.spin import line_coupling_sq

NAN, INF = float("nan"), float("inf")


def test_require_returns_value_unchanged():
    values = np.array([0.0, 2.5])
    assert require("x", values) is values
    assert require("x", 3) == 3 and type(require("x", 3)) is int
    assert require("x", 1.0, 1.0) == 1.0
    assert require("x", [1e-300], strict=True) == [1e-300]
    assert require("x", np.float32(2.0), strict=True) == 2.0
    assert require("x", -1e300, -INF) == -1e300  # low = -inf: finite is enough


@pytest.mark.parametrize(
    "value, low, strict, got",
    [
        (NAN, 0.0, False, "nan"),
        (-INF, 0.0, False, "-inf"),
        (0.0, 0.0, True, "0.0"),
        (0.5, 1.0, False, "0.5"),
        (np.array([1.0, -2.0, NAN]), 0.0, False, "-2.0"),
        (np.array([[1.0], [INF]]), 0.0, True, "inf"),
        (None, 0.0, False, "None"),
        ("1.0", 0.0, False, "'1.0'"),
        (True, 0.0, False, "True"),
        (1j, 0.0, False, "1j"),
    ],
)
def test_require_names_what_and_first_bad_value(value, low, strict, got):
    rule = f"{'>' if strict else '>='} {low:g}"
    with pytest.raises(InvalidInputs) as exc:
        require("x", value, low, strict)
    assert str(exc.value) == f"x must be finite and {rule}, got {got}"
    assert isinstance(exc.value, ParamagLossError)


OMEGA = 2.0 * math.pi * 11.45e9
SPECIES = DefectSpecies(
    name="Cr",
    two_s=3,
    n_def=1e23,
    gamma=2.0 * math.pi * 27e6,
    transition=(1.5, 0.5),
    lines=SpeciesLines(centers=[OMEGA], g=[1.984], weights=[1.0]),
)

# Each call with valid keyword arguments, and the numeric arguments to break.
BOUNDARY = [
    (sigma_md, dict(omega=OMEGA, omega_if=OMEGA, coupling_sq=1.0,
                    shape=LineshapeSpec("lorentzian", 1e6), n_r=1.0),
     ("omega", "omega_if", "coupling_sq", "n_r")),
    (absorption_coefficient, dict(n_def=1e23, sigma=1e-30), ("n_def", "sigma")),
    (loss_tangent, dict(a=1.0, omega=OMEGA, n_r=1.0), ("a", "omega", "n_r")),
    (LineshapeSpec, dict(kind="lorentzian", gamma=1.0), ("gamma",)),
    (lorentzian, dict(detuning=0.0, gamma=1.0), ("detuning", "gamma")),
    (power_broadened_gamma, dict(gamma0=1.0, power=1.0), ("gamma0", "power")),
    (wavelength_to_angular, dict(lambda_vac=1e-6), ("lambda_vac",)),
    (photon_dos, dict(omega=OMEGA, n_r=1.0), ("omega", "n_r")),
    (a_md, dict(omega_if=OMEGA, m_sq=1.0, n_r=1.0), ("omega_if", "m_sq", "n_r")),
    (extract_moment, dict(a=12.21, lambda_vac=1276e-9, n_r=1.0), ("a", "lambda_vac", "n_r")),
    (EmissionLine, dict(label="x", lambda_vac=1e-6, omega_if=OMEGA, a_md=1.0, m_sq=1.0),
     ("a_md", "m_sq")),
    (line_coupling_sq, dict(two_s=3, transition=(1.5, 0.5), g_e=2.0), ("g_e",)),
    (sweep, dict(db=[SPECIES], fmin_ghz=1.0, fmax_ghz=15.0, points=3), ("fmin_ghz", "fmax_ghz")),
]
# The name an error gives an argument, where it is not the argument's own.
SPOKEN = {"power": "p_over_pc", "g_e": "g", "fmin_ghz": "fmin", "fmax_ghz": "fmax"}


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call, kwargs, arg",
    [
        pytest.param(call, kwargs, arg, id=f"{call.__name__}-{arg}")
        for call, kwargs, args in BOUNDARY
        for arg in args
    ],
)
def test_non_finite_argument_raises_naming_it(call, kwargs, arg, bad):
    call(**kwargs)  # the valid call succeeds
    # The name starts the message or one of its clauses: "line 'x': a_md
    # must ...", or sweep's "need fmin < fmax" and "frequency of fmax".
    name = SPOKEN.get(arg, arg)
    with pytest.raises(InvalidInputs, match=rf"(^|: |< |of ){name}\b"):
        call(**dict(kwargs, **{arg: bad}))


@pytest.mark.parametrize(
    "call, args, message",
    [
        (lorentzian, (NAN, 1.0), "detuning must be finite, got nan"),
        # (gamma / 2)^2 underflows to 0, so the density at line center is inf.
        (lorentzian, (0.0, 1e-320), "Lorentzian density must be finite and >= 0, got inf"),
        (lorentzian, (np.array([1e200, 0.0]), np.array([1.0, 1e-320])),
         "Lorentzian density must be finite and >= 0, got inf"),
        (loss_tangent, (1e308, 1.0), "loss tangent must be finite and >= 0, got inf"),
        (loss_tangent, (np.array([1.0, 1e308]), 1.0), "loss tangent must be finite and >= 0, got inf"),
        # c / omega overflows to inf, and inf * 0 is nan.
        (loss_tangent, (0.0, 1e-320), "loss tangent must be finite and >= 0, got nan"),
        (absorption_coefficient, (1e308, 1e308),
         "absorption coefficient must be finite and >= 0, got inf"),
    ],
)
def test_results_outside_float_range_raise(call, args, message):
    with pytest.raises(InvalidInputs) as exc:
        call(*args)
    assert str(exc.value) == message
