"""Pinned constant values and unit-conversion helpers."""

import math
import warnings

import numpy as np
import pytest

from paramagloss import absorption, constants, emission, ensemble, lineshape, spin
from paramagloss.errors import InvalidInputs
from conftest import (
    BOHR_RADIUS,
    C_LIGHT,
    FINE_STRUCTURE,
    HBAR_SI,
    KB_SI,
    MUB_SI,
)


def test_codata_2018_values():
    assert constants.C == C_LIGHT
    assert constants.ALPHA == FINE_STRUCTURE
    assert constants.A0 == BOHR_RADIUS
    assert constants.HBAR == HBAR_SI
    assert constants.KB == KB_SI
    assert constants.MUB == MUB_SI


def test_aliases_match_dataclass():
    # The formula modules import the pinned constants rather than keeping
    # copies of their own, so one CODATA set feeds every formula.
    for module, names in (
        (absorption, ("C", "MD_PREFACTOR")),
        (emission, ("A0", "ALPHA", "C", "TWO_PI")),
        (ensemble, ("TWO_PI", "C", "MD_PREFACTOR")),
        (lineshape, ("HBAR", "KB")),
        (spin, ("HBAR", "MUB")),
    ):
        for name in names:
            assert getattr(module, name) is getattr(constants, name), (
                module.__name__,
                name,
            )


def test_ghz_to_angular():
    assert constants.ghz_to_angular(1.0) == 2.0 * math.pi * 1.0e9
    assert constants.ghz_to_angular(11.45) == pytest.approx(
        2.0 * math.pi * 11.45e9, rel=1e-15
    )


def test_max_ghz_is_the_largest_frequency_within_max_rate():
    # Comparing GHz with MAX_GHZ decides exactly what comparing the converted
    # angular frequency with MAX_RATE would.
    top = constants.MAX_GHZ
    assert constants.ghz_to_angular(top) <= constants.MAX_RATE
    assert 2.0 * math.pi * 1.0e9 * math.nextafter(top, math.inf) > constants.MAX_RATE


@pytest.mark.parametrize(
    "value, message",
    [
        ("x", "freq_ghz must be finite, got 'x'"),
        (None, "freq_ghz must be finite, got None"),
        (math.nan, "freq_ghz must be finite, got nan"),
        (np.array([1.0, 1e308]), "angular frequency must be finite, got inf"),
    ],
)
def test_ghz_to_angular_rejects_non_numbers_and_overflow(value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputs) as exc:
            constants.ghz_to_angular(value)
    assert str(exc.value) == message


def test_angular_to_ghz_round_trip():
    for f in (0.1, 4.5, 11.45, 977000.0):
        assert constants.angular_to_ghz(constants.ghz_to_angular(f)) == pytest.approx(
            f, rel=1e-15
        )

