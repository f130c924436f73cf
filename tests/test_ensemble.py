"""Species databases, per-species losses, and spectrum sweeps."""

import json
import math
import os
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import CASES, GOLDEN_DIR
from paramagloss import cli, ensemble, spin
from paramagloss.constants import ghz_to_angular
from paramagloss.ensemble import (
    MAX_TWO_S,
    DefectSpecies,
    SpeciesLines,
    database_loss,
    line_coupling_sq,
    load_species_db,
    species_loss,
    sweep,
)
from paramagloss.errors import DatabaseError, InvalidInputs, ParamagLossError
from paramagloss.ioformat import default_db_path, default_emission_path
from paramagloss.ladder import ladder_m
from paramagloss.lineshape import temperature_factor
from paramagloss.spin import basis_state, spin_operators, transition_moment, unpolarized_coupling

TWO_PI = 2.0 * math.pi
GAMMA = TWO_PI * 27e6


def _lines(*rows):
    """SpeciesLines from (g, freq_ghz, weight) rows."""
    g, freq_ghz, weights = zip(*rows)
    return SpeciesLines(centers=ghz_to_angular(np.array(freq_ghz)), g=g, weights=weights)


CR = DefectSpecies(
    name="Cr",
    two_s=3,
    n_def=1e23,
    gamma=GAMMA,
    transition=(1.5, 0.5),
    lines=_lines((1.984, 11.45, 1.0)),
)
FE = DefectSpecies(
    name="Fe",
    two_s=5,
    n_def=1e23,
    gamma=GAMMA,
    transition=(0.5, 1.5),
    lines=_lines((2.02, 12.03, 1.0)),
)
V_LINES = (
    (2.029, 8.68),
    (2.045, 8.83),
    (2.055, 9.02),
    (2.057, 9.25),
    (2.052, 9.49),
    (2.035, 9.78),
    (2.017, 10.08),
    (1.994, 10.40),
)
VA = DefectSpecies(
    name="V",
    two_s=3,
    n_def=1e22,
    gamma=GAMMA,
    transition=(1.5, 0.5),
    lines=_lines(*((g, f, 0.125) for g, f in V_LINES)),
)

OMEGA_45 = ghz_to_angular(4.5)
# Independent reduced-formula evaluations at a 4.5 GHz probe.
CR_45 = 8.97232140725922e-09
FE_45 = 2.1128703931021166e-08
V_45 = 1.9480116532842068e-09


def test_linewidth_conventions(tmp_path):
    # The same bits as the MHz -> rad/s conversions, for either spelling.
    for convention, gamma in (
        ("cyclic_times_2pi", TWO_PI * 1.0e6 * 27.0),
        ("angular_rate", 27.0 * 1e6),
    ):
        path = _write_db(tmp_path, [_cr_entry(linewidth_convention=convention)])
        (sp,) = load_species_db(path)
        assert sp.gamma == gamma
        assert sp.linewidth_convention == convention
    for field, value in (("linewidth_convention", "fwhm_ghz"), ("linewidth_mhz", 0.0)):
        path = _write_db(tmp_path, [_cr_entry(**{field: value})])
        with pytest.raises(DatabaseError, match=f"^species 'Cr': .*'{field}'"):
            load_species_db(path)


def _species(**overrides):
    """A one-line species built in code (its line at 1 rad/s), with overrides."""
    kwargs = dict(
        name="x",
        two_s=3,
        n_def=1.0,
        gamma=1.0,
        transition=(1.5, 0.5),
        lines=SpeciesLines(centers=[1.0], g=[2.0], weights=[1.0]),
    )
    kwargs.update(overrides)
    return DefectSpecies(**kwargs)


def _bad_lines(centers=1.0, g=2.0, weights=1.0):
    return {"lines": SpeciesLines(centers=[centers], g=[g], weights=[weights])}


INVALID_SPECIES = [
    ({"lines": SpeciesLines(centers=[], g=[], weights=[])}, "lines"),
    ({"gamma": 0.0}, "linewidth_mhz"),
    ({"gamma": float("nan")}, "linewidth_mhz"),
    ({"n_def": -1.0}, "concentration_per_cm3"),
    ({"n_def": float("nan")}, "concentration_per_cm3"),
    ({"two_s": 0}, "two_s"),
    ({"two_s": MAX_TWO_S + 1}, "two_s"),
    ({"two_s": 3.0}, "two_s"),
    ({"two_s": True}, "two_s"),
    # Transition must be a |delta m| = 1 pair inside the ladder.
    ({"transition": (1.5, -0.5)}, "transition"),
    ({"transition": (2.5, 1.5)}, "transition"),
    ({"transition": (1.0, 0.5)}, "transition"),
    ({"transition": (float("nan"), 0.5)}, "transition"),
    ({"transition": (float("inf"), 0.5)}, "transition"),
    # Database checks that species built in code once skipped: a half-width
    # whose square underflows to 0 (a division by zero on resonance), a g
    # whose squared moment overflows, an infinite loss and weights summing
    # to 0.5.
    ({"gamma": 1e-320}, "linewidth_mhz"),
    (_bad_lines(g=1e200), "g"),
    ({"n_def": float("inf")}, "concentration_per_cm3"),
    (
        {"lines": SpeciesLines(centers=[1.0, 2.0], g=[2.0, 2.0], weights=[0.25, 0.25])},
        "weight",
    ),
    # Names a writer cannot spell as given: a CSV separator or quote, the ';'
    # of point's weights cell, and text outside printable ASCII, which an
    # ASCII stream or a UTF-8 file cannot encode.
    ({"name": "Cr,x"}, "name"),
    ({"name": 'Cr"x'}, "name"),
    ({"name": "Cr;x"}, "name"),
    ({"name": "Cr\u00e9"}, "name"),
    ({"name": "Cr\udc80"}, "name"),
    ({"name": "Cr\nx"}, "name"),
    ({"name": ""}, "name"),
    # Names that would collide with a fixed key of point's key,value CSV or
    # sweep's header, or hold the '.' of point's '<name>.weights' keys.
    *(({"name": key}, "name") for key in ("freq_ghz", "total", "n_r", "temp_k", "p_over_pc")),
    ({"name": "Fe.weights"}, "name"),
    ({"name": "."}, "name"),
]


# Per-line ranges.
INVALID_LINES = [
    (_bad_lines(weights=0.0), "weight"),
    (_bad_lines(weights=1.2), "weight"),
    (_bad_lines(g=0.0), "g"),
    (_bad_lines(g=float("nan")), "g"),
    (_bad_lines(centers=-1.0), "freq_ghz"),
]


def test_defect_line_validation():
    for overrides, field in INVALID_LINES:
        with pytest.raises(InvalidInputs, match=f"^species 'x': line 0: field '{field}'"):
            _species(**overrides)


def test_defect_species_validation():
    for overrides, field in INVALID_SPECIES:
        name = re.escape(ascii(overrides.get("name", "x")))
        with pytest.raises(InvalidInputs, match=f"^species {name}: (line 0: )?field '{field}'"):
            _species(**overrides)
    # Every value in range, but the amplitude overflows: an infinite peak loss.
    lines = SpeciesLines(centers=[1.0], g=[1e150], weights=[1.0])
    with pytest.raises(InvalidInputs, match="'concentration_per_cm3' and 'linewidth_mhz'"):
        _species(n_def=1e300, lines=lines)


def test_species_lines_arrays():
    g = np.array([2.0, 2.1])
    lines = SpeciesLines(centers=[1.0, 2.0], g=g, weights=(0.5, 0.5))
    assert len(lines) == 2
    for col in (lines.centers, lines.g, lines.weights):
        assert col.dtype == np.float64 and not col.flags.writeable
    g[0] = 5.0  # the caller's array is copied, not frozen
    assert lines.g[0] == 2.0
    with pytest.raises(InvalidInputs, match="equal length"):
        SpeciesLines(centers=[1.0, 2.0], g=[2.0], weights=[0.5, 0.5])
    with pytest.raises(InvalidInputs, match="1-D"):
        SpeciesLines(centers=[[1.0]], g=[[2.0]], weights=[[1.0]])


def test_line_coupling_values():
    assert line_coupling_sq(3, (1.5, 0.5), 1.984) == pytest.approx(
        1.984**2 / 2.0, rel=1e-12
    )
    assert line_coupling_sq(5, (0.5, 1.5), 2.02) == pytest.approx(
        4.0 * 2.02**2 / 3.0, rel=1e-12
    )
    assert line_coupling_sq(3, (1.5, 0.5), 2.029) == pytest.approx(
        2.029**2 / 2.0, rel=1e-12
    )
    for g_e in (1.984, np.float64(2.02), 2):
        assert type(line_coupling_sq(3, (1.5, 0.5), g_e)) is float


@pytest.mark.parametrize("two_s", [*range(1, 10), 64, 128, MAX_TWO_S])
def test_line_coupling_array_matches_scalar_calls(two_s):
    # Every Delta m = +-1 pair of the ladder, random and 6-decimal g values;
    # each entry equals the scalar call and the spin module's own algebra.
    rng = np.random.default_rng(two_s)
    n = 12 if two_s < 10 else 1
    g = np.concatenate([rng.uniform(0.5, 4.0, n), np.round(rng.uniform(1.9, 2.1, n), 6)])
    ops = spin_operators(two_s)
    ms = [(two_s - 2 * k) / 2.0 for k in range(two_s + 1)]
    pairs = list(zip(ms, ms[1:]))
    pairs += [(b, a) for a, b in pairs]
    for m_i, m_f in pairs:
        batch = line_coupling_sq(two_s, (m_i, m_f), g)
        assert batch.shape == g.shape
        assert np.array_equal(batch, [line_coupling_sq(two_s, (m_i, m_f), x) for x in g])
        psi_i, psi_f = basis_state(two_s, m_i), basis_state(two_s, m_f)
        reference = [unpolarized_coupling(transition_moment(psi_i, psi_f, ops, x)) for x in g]
        assert np.array_equal(batch, reference)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_line_coupling_matches_reference_on_any_ladder_pair(data):
    # Any spin, either direction of any Delta m = +-1 pair, any g that a
    # species accepts for that spin.
    two_s = data.draw(st.integers(1, MAX_TWO_S))
    upper = two_s / 2.0 - data.draw(st.integers(0, two_s - 1))
    m_i, m_f = data.draw(st.permutations([upper, upper - 1.0]))
    g = data.draw(
        st.floats(min_value=0.0, max_value=ensemble.MAX_RATE / (two_s + 1), exclude_min=True)
    )
    psi_i, psi_f = basis_state(two_s, m_i), basis_state(two_s, m_f)
    reference = unpolarized_coupling(transition_moment(psi_i, psi_f, spin_operators(two_s), g))
    assert np.array_equal(line_coupling_sq(two_s, (m_i, m_f), g), reference)
    assert np.array_equal(line_coupling_sq(two_s, (m_i, m_f), np.array([g])), [reference])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "transition",
    [
        (NAN, 0.5), (1.5, INF), (-INF, -0.5),  # not finite
        (1.25, 0.25), (1.5, 0.5 + 1e-6),  # not half-integers
        (1.0, 0.0), (2.5, 1.5), (-1.5, -2.5),  # off the S = 3/2 ladder
        (0.5, 0.5), (1.5, -0.5), (-1.5, 0.5),  # Delta m = 0 and +-2
    ],
)
def test_line_coupling_rejects_what_species_reject(transition):
    pair = re.escape(f"({transition[0]}, {transition[1]})")
    with pytest.raises(InvalidInputs, match=f"^{pair}(: m = | must change m by 1$)"):
        line_coupling_sq(3, transition, 2.0)
    with pytest.raises(InvalidInputs, match=f"^species 'x': field 'transition' {pair}"):
        _species(transition=transition)


@pytest.mark.parametrize(
    "two_s, transition, m, pair",
    [
        (3, (1.5, 0.5), 0.5, (1.5, 0.5)),
        (3, [np.float32(-0.5), np.array(0.5)], -0.5, (-0.5, 0.5)),
        (3, (m for m in (-0.5, -1.5)), -1.5, (-0.5, -1.5)),  # read once
        (2, (0, 1), 0.0, (0.0, 1.0)),
    ],
    ids=["tuple", "numpy", "generator", "ints"],
)
def test_ladder_m_gives_the_lower_m_and_the_pair_as_floats(two_s, transition, m, pair):
    got = ladder_m(two_s, transition)
    assert got == (m, pair)
    assert [type(x) for x in (got[0], *got[1])] == [float] * 3


@pytest.mark.parametrize("g", [NAN, INF, -INF, 1e300, -1.0, 0.0, np.array([2.0, NAN])])
def test_line_coupling_rejects_g_that_species_reject(g):
    # 1e300 is finite but overflows the coupling; no RuntimeWarning escapes.
    with pytest.raises(InvalidInputs, match="^g must"):
        line_coupling_sq(3, (1.5, 0.5), g)
    with pytest.raises(InvalidInputs, match="^species 'x': line 0: field 'g'"):
        _species(**_bad_lines(g=np.ravel(g)[-1]))


def test_species_loss_values():
    assert species_loss(CR, OMEGA_45) == pytest.approx(CR_45, rel=1e-12)
    assert species_loss(FE, OMEGA_45) == pytest.approx(FE_45, rel=1e-12)
    assert species_loss(VA, OMEGA_45) == pytest.approx(V_45, rel=1e-12)
    assert species_loss(FE, OMEGA_45) > species_loss(CR, OMEGA_45) > species_loss(
        VA, OMEGA_45
    )


def test_species_loss_zero_concentration():
    empty = DefectSpecies(
        name="none",
        two_s=3,
        n_def=0.0,
        gamma=GAMMA,
        transition=(1.5, 0.5),
        lines=_lines((2.0, 10.0, 1.0)),
    )
    assert species_loss(empty, OMEGA_45) == 0.0


def test_species_loss_temperature_factor():
    warm = species_loss(CR, OMEGA_45, temp_k=0.5)
    cold = species_loss(CR, OMEGA_45)
    expected = temperature_factor(CR.lines.centers[0], 0.5)
    assert warm == pytest.approx(cold * expected, rel=1e-12)


def test_species_loss_power_broadening():
    # P/P_c = 3 doubles the width, same as a species built with 2 gamma.
    broadened = species_loss(CR, OMEGA_45, power=3.0)
    wide = DefectSpecies(
        name="Cr",
        two_s=3,
        n_def=1e23,
        gamma=2.0 * GAMMA,
        transition=(1.5, 0.5),
        lines=CR.lines,
    )
    assert broadened == pytest.approx(species_loss(wide, OMEGA_45), rel=1e-12)


def test_species_loss_grids_match_points():
    omegas = ghz_to_angular(np.linspace(8.0, 11.0, 301))
    grid = species_loss(VA, omegas, temp_k=0.7, power=4.0)
    points = [species_loss(VA, float(w), temp_k=0.7, power=4.0) for w in omegas]
    assert all(type(x) is float for x in points)
    assert np.array_equal(grid, points)
    ratios = np.linspace(0.0, 431.0, 200)
    curve = species_loss(VA, OMEGA_45, power=ratios)
    assert np.array_equal(curve, [species_loss(VA, OMEGA_45, power=float(p)) for p in ratios])
    # powercurve's one call: drive ratio by probe, on resonance and detuned.
    for sp in load_species_db(default_db_path()):
        probes = [float(sp.lines.centers[0]), OMEGA_45]
        both = species_loss(sp, probes, power=ratios[:, None])
        assert both.shape == (ratios.size, 2)
        for column, w in zip(both.T, probes):
            assert np.array_equal(column, species_loss(sp, w, power=ratios))


def test_line_table_built_once(monkeypatch):
    calls = []
    coupling = ensemble.line_coupling_sq

    def counting(*args):
        calls.append(args)
        return coupling(*args)

    monkeypatch.setattr(ensemble, "line_coupling_sq", counting)
    # A load makes one array call per species, covering all of its lines.
    for path in (default_db_path(), GOLDEN_DIR / "many_lines_db.json"):
        calls.clear()
        db = load_species_db(path)
        assert [len(args[2]) for args in calls] == [len(sp.lines) for sp in db]
    calls.clear()
    va = DefectSpecies(
        name="V", two_s=3, n_def=1e22, gamma=GAMMA, transition=(1.5, 0.5), lines=VA.lines
    )
    # One array call per species, at construction; evaluating reuses amps.
    assert len(calls) == 1
    assert np.array_equal(calls[0][2], VA.lines.g)
    species_loss(va, OMEGA_45, temp_k=0.5)
    sweep([va], 8.0, 11.0, 11, power=2.0)
    assert len(calls) == 1
    assert np.array_equal(va.amps, VA.amps)
    assert va.amps.shape == va.lines.centers.shape == (len(va.lines),) == (8,)
    assert not va.amps.flags.writeable
    assert np.array_equal(va.lines.centers, [ghz_to_angular(f) for _, f in V_LINES])


def _broad(gamma):
    """Cr with FWHM gamma [rad/s], named Big."""
    return DefectSpecies(name="Big", two_s=CR.two_s, n_def=CR.n_def, gamma=gamma,
                         transition=CR.transition, lines=CR.lines)


def test_overflowing_rates_rejected():
    for omega in (float("inf"), 1e200):
        with pytest.raises(InvalidInputs, match="line 0: field 'freq_ghz'"):
            _species(**_bad_lines(centers=omega))
    with pytest.raises(InvalidInputs, match="angular probe frequency"):
        species_loss(CR, float("inf"))
    with pytest.raises(InvalidInputs, match="linewidth"):
        species_loss(CR, OMEGA_45, power=1e308)
    # A broadened width past the float range itself, named by species.
    with pytest.raises(InvalidInputs, match="^species 'Big': power-broadened linewidth overflows$"):
        database_loss([_broad(1.8e154)], 7e10, power=1e308)
    with pytest.raises(InvalidInputs, match="angular frequency"):
        sweep([CR], 1.0, 1e150, 3)


def test_drive_bound_is_checked_before_any_kernel_call(monkeypatch):
    calls = []
    mix = ensemble._kernels.lorentzian_mix
    monkeypatch.setattr(ensemble._kernels, "lorentzian_mix", lambda *a: calls.append(a) or mix(*a))
    with pytest.raises(InvalidInputs, match="^species 'Big': power-broadened linewidth overflows$"):
        database_loss([CR, _broad(1.8e154)], 7e10, power=10.0)
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(min_value=1e153, max_value=2.0 * ensemble.MAX_RATE),
    steps=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    far=st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=2),
)
def test_drive_bound_rejects_exactly_an_overflowing_width(gamma, steps, far):
    # Drives a few ulps either side of the one whose broadened half-width is MAX_RATE.
    edge = (2.0 * ensemble.MAX_RATE / gamma) ** 2 - 1.0
    near = []
    for k in steps:
        p = edge
        for _ in range(abs(k)):
            p = math.nextafter(p, math.copysign(math.inf, k))
        near.append(p)
    power = np.maximum(np.array(near + far), 0.0)
    with np.errstate(over="ignore"):
        overflows = not 0.5 * np.max(gamma * np.sqrt(1.0 + power)) <= ensemble.MAX_RATE
    db = [CR, _broad(gamma)]
    if overflows:
        with pytest.raises(InvalidInputs, match="^species 'Big': power-broadened linewidth overflows$"):
            database_loss(db, 7e10, power=power)
    else:
        per_species, total = database_loss(db, 7e10, power=power)
        assert np.isfinite(total).all() and np.isfinite(per_species["Big"]).all()


# The probe, temperature and drive are checked once per call, before the
# species loop, so a database of no species rejects them as one species does.
ONE_AND_NO_SPECIES = (
    lambda *args, **kwargs: species_loss(CR, *args, **kwargs),
    lambda *args, **kwargs: database_loss([], *args, **kwargs),
)


def test_species_loss_validation():
    for loss in ONE_AND_NO_SPECIES:
        with pytest.raises(InvalidInputs):
            loss(0.0)
        for kwargs, message in [
            (dict(temp_k="x"), "temp_k must be finite and >= 0, got 'x'"),
            (dict(temp_k=float("nan")), "temp_k must be finite and >= 0, got nan"),
            (dict(power=-1.0), "p_over_pc must be finite and >= 0, got -1.0"),
        ]:
            with pytest.raises(InvalidInputs) as exc:
                loss(OMEGA_45, **kwargs)
            assert str(exc.value) == message


def test_species_loss_names_first_bad_probe_value():
    grid = np.linspace(-1.0, 1e10, 2000)
    grid[5] = float("nan")
    for loss in ONE_AND_NO_SPECIES:
        with pytest.raises(InvalidInputs) as exc:
            loss(grid)
        assert str(exc.value) == "angular probe frequency must be in (0, 9.48e+153] rad/s, got -1.0"
        with pytest.raises(InvalidInputs, match=r"got nan$"):
            loss(np.array([OMEGA_45, float("nan"), -1.0]))
        with pytest.raises(InvalidInputs, match=r"got inf$"):
            loss(np.array([[OMEGA_45], [float("inf")]]))


@pytest.mark.parametrize(
    "omega, power",
    [(np.array([]), None), (OMEGA_45, np.array([])), (np.array([]), 2.0), (np.empty((0, 3)), None)],
)
def test_species_loss_rejects_empty_grids(omega, power):
    for loss in ONE_AND_NO_SPECIES:
        with pytest.raises(InvalidInputs, match="^omega and power must not be empty arrays$"):
            loss(omega, power=power)


def test_sweep_range_validation():
    with pytest.raises(InvalidInputs):
        sweep([CR], 5.0, 5.0, 10)
    with pytest.raises(InvalidInputs):
        sweep([CR], 8.0, 5.0, 10)
    with pytest.raises(InvalidInputs):
        sweep([CR], 1.0, 15.0, 1)
    with pytest.raises(InvalidInputs):
        sweep([CR], -1.0, 15.0, 10)
    # points is an integer >= 2; np.linspace would raise a TypeError for a float.
    for points in (3.5, 10.0, True, "10", None):
        with pytest.raises(InvalidInputs, match="^points must be an integer >= 2"):
            sweep([CR], 1.0, 15.0, points)
    assert len(sweep([CR], 1.0, 15.0, np.int64(3)).freqs_ghz) == 3
    # A drive that broadcasts past the grid would give columns of another shape.
    with pytest.raises(InvalidInputs, match=r"^power of shape \(2, 1\) does not fit .* \(3,\)$"):
        sweep([CR], 1.0, 15.0, 3, power=np.ones((2, 1)))
    assert sweep([CR], 1.0, 15.0, 3, power=np.ones(3)).total.shape == (3,)


def test_sweep_grid_and_point_agreement():
    spectrum = sweep([CR, FE, VA], 1.0, 15.0, 1401)
    assert spectrum.freqs_ghz[0] == 1.0
    assert spectrum.freqs_ghz[-1] == 15.0
    i = int(np.argmin(np.abs(spectrum.freqs_ghz - 4.5)))
    assert spectrum.freqs_ghz[i] == pytest.approx(4.5, abs=1e-12)
    assert spectrum.per_species["Cr"][i] == pytest.approx(CR_45, rel=1e-12)
    assert spectrum.per_species["Fe"][i] == pytest.approx(FE_45, rel=1e-12)
    assert spectrum.per_species["V"][i] == pytest.approx(V_45, rel=1e-12)
    assert spectrum.total[i] == pytest.approx(CR_45 + FE_45 + V_45, rel=1e-12)


def test_sweep_total_is_exact_sum():
    spectrum = sweep([CR, FE, VA], 4.0, 13.0, 301)
    manual = (
        spectrum.per_species["Cr"] + spectrum.per_species["Fe"] + spectrum.per_species["V"]
    )
    assert np.array_equal(spectrum.total, manual)


def test_point_and_sweep_share_one_sum():
    per_species, total = database_loss([CR, FE, VA], OMEGA_45)
    assert list(per_species) == ["Cr", "Fe", "V"]
    assert all(isinstance(v, float) for v in [*per_species.values(), total])
    assert total == 0.0 + per_species["Cr"] + per_species["Fe"] + per_species["V"]
    spectrum = sweep([CR, FE, VA], 4.0, 5.0, 3)
    assert spectrum.freqs_ghz[1] == 4.5
    assert spectrum.total[1] == total
    for name, value in per_species.items():
        assert spectrum.per_species[name][1] == value


def _huge(name):
    """Cr with a peak loss of ~1.2e308: finite alone, infinite twice over."""
    return DefectSpecies(
        name=name,
        two_s=3,
        n_def=1e296,
        gamma=TWO_PI * 1.0e6 * 5.35e-37,
        transition=(1.5, 0.5),
        lines=CR.lines,
    )


def test_database_total_overflow_rejected():
    a, b = _huge("A"), _huge("B")
    assert a.peak_loss == sum(a.amps.tolist()) * 2.0 / (math.pi * a.gamma)
    assert math.isfinite(a.peak_loss) and not math.isfinite(a.peak_loss + b.peak_loss)
    with pytest.raises(ParamagLossError, match=r"^species 'A', 'B': .*infinite"):
        sweep([a, b], 11.45, 12.0, 3)
    with pytest.raises(ParamagLossError, match=r"^species 'A', 'B': .*infinite"):
        database_loss([a, b], ghz_to_angular(11.45))
    for sp in (a, b):
        alone = sweep([sp], 11.45, 12.0, 3)
        assert np.all(np.isfinite(alone.total)) and alone.total[0] <= sp.peak_loss


def test_repeated_species_rejected():
    # per_species is keyed by name, so a repeated species would be summed
    # into the total twice but shown once.
    for db in ([CR, CR], [CR, FE, CR, FE]):
        names = "'Cr'" if len(db) == 2 else "'Cr', 'Fe'"
        with pytest.raises(InvalidInputs, match=rf"^species {names}: listed more than once"):
            sweep(db, 4.0, 5.0, 3)
        with pytest.raises(InvalidInputs, match=rf"^species {names}: listed more than once"):
            database_loss(db, OMEGA_45)
    renamed = DefectSpecies(
        name="Cr2",
        two_s=CR.two_s,
        n_def=CR.n_def,
        gamma=CR.gamma,
        transition=CR.transition,
        lines=CR.lines,
    )
    per_species, total = database_loss([CR, renamed], OMEGA_45)
    assert total == 0.0 + per_species["Cr"] + per_species["Cr2"]


def test_repeated_names_named_once(tmp_path):
    # The loader and the species sum share one check, and name 'A' once.
    message = "^species 'A': listed more than once$"
    path = _write_db(tmp_path, [_cr_entry(name=name) for name in "ABAA"])
    with pytest.raises(DatabaseError, match=message):
        load_species_db(path)
    with pytest.raises(InvalidInputs, match=message):
        database_loss([_species(name=name) for name in "ABAA"], OMEGA_45)


def _every_spin_db(tmp_path):
    """A database with one species for each 2S from 2 to MAX_TWO_S."""
    entries = [
        _cr_entry(name=f"S{two_s}", two_s=two_s, transition=[two_s / 2.0, two_s / 2.0 - 1.0])
        for two_s in range(2, MAX_TWO_S + 1)
    ]
    return _write_db(tmp_path, entries)


def test_loading_every_spin_keeps_memory_flat(tmp_path):
    # One species for each 2S up to MAX_TWO_S loads with no per-spin memory:
    # the couplings are closed forms of m.  Spin matrices kept across
    # species once peaked near 300 MB.
    path = _every_spin_db(tmp_path)
    # A process's peak RSS carries over exec from the process that forked it,
    # so the load runs in a grandchild, started by a small Python that
    # reports the peak of its children.
    load = (
        "import sys; from paramagloss.ensemble import load_species_db; "
        "assert len(load_species_db(sys.argv[1])) == 254"
    )
    code = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-c', {load!r}, sys.argv[1]], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mb < 100


def test_species_path_builds_no_spin_matrix(tmp_path, monkeypatch, capsys):
    # The reference algebra raises if called: loading a database and a point
    # evaluation take every coupling from the closed form alone.
    def reference_algebra(*args, **kwargs):
        raise AssertionError("a spin matrix or basis vector was built")

    for name in ("spin_operators", "basis_state", "transition_moment"):
        monkeypatch.setattr(spin, name, reference_algebra)
    monkeypatch.delenv("PARAMAG_LOSS_DB", raising=False)
    assert [sp.name for sp in load_species_db(default_db_path())] == ["Cr", "Fe", "V"]
    assert len(load_species_db(_every_spin_db(tmp_path))) == 254
    assert cli.main(CASES["point_4p5"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "point_4p5.csv").read_text(encoding="utf-8")


def test_sweep_additivity():
    combined = sweep([CR, FE], 4.0, 13.0, 301)
    only_cr = sweep([CR], 4.0, 13.0, 301)
    only_fe = sweep([FE], 4.0, 13.0, 301)
    assert np.array_equal(combined.per_species["Cr"], only_cr.per_species["Cr"])
    assert np.array_equal(combined.per_species["Fe"], only_fe.per_species["Fe"])
    assert np.array_equal(combined.total, only_cr.total + only_fe.total)


def test_sweep_repeat_bit_identical():
    one = sweep([CR, VA], 8.0, 11.0, 501)
    two = sweep([CR, VA], 8.0, 11.0, 501)
    assert np.array_equal(one.total, two.total)


def test_hyperfine_manifold_maxima():
    spectrum = sweep([VA], 8.0, 11.0, 3001)
    f = spectrum.freqs_ghz
    y = spectrum.per_species["V"]
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
    band = (f[1:-1] >= 8.5) & (f[1:-1] <= 10.5)
    assert int(np.count_nonzero(interior & band)) == 8


def test_weight_concentration_scaling():
    # amps scale with n_def * weight: each line split into two half-weight
    # lines changes nothing, and a doubled concentration doubles the loss.
    split = DefectSpecies(
        name="V",
        two_s=3,
        n_def=1e22,
        gamma=GAMMA,
        transition=(1.5, 0.5),
        lines=_lines(*((g, f, 0.0625) for g, f in V_LINES for _ in range(2))),
    )
    doubled = DefectSpecies(
        name="V", two_s=3, n_def=2e22, gamma=GAMMA, transition=(1.5, 0.5), lines=VA.lines
    )
    base = sweep([VA], 8.0, 11.0, 501).total
    assert np.abs(sweep([split], 8.0, 11.0, 501).total - base).max() <= 1e-12 * base.max()
    scaled = sweep([doubled], 8.0, 11.0, 501).total
    assert np.abs(scaled - 2.0 * base).max() <= 1e-12 * base.max()


def test_sweep_argmax_at_line_center():
    spectrum = sweep([CR], 1.0, 15.0, 1401)
    peak = spectrum.freqs_ghz[int(np.argmax(spectrum.per_species["Cr"]))]
    assert peak == pytest.approx(11.45, abs=1e-9)


def test_empty_database_sweep(tmp_path):
    for db in ([], load_species_db(_write_db(tmp_path, []))):
        assert db == []
        spectrum = sweep(db, 1.0, 15.0, 11)
        assert spectrum.per_species == {}
        assert np.array_equal(spectrum.total, np.zeros(11))


def test_load_default_database():
    db = load_species_db(default_db_path())
    assert [sp.name for sp in db] == ["Cr", "Fe", "V"]
    cr, fe, va = db
    assert cr.two_s == 3 and fe.two_s == 5 and va.two_s == 3
    assert cr.n_def == pytest.approx(1e23, rel=1e-15)
    assert va.n_def == pytest.approx(1e22, rel=1e-15)
    assert cr.gamma == pytest.approx(TWO_PI * 27e6, rel=1e-15)
    assert cr.linewidth_convention == "cyclic_times_2pi"
    assert len(va.lines) == 8
    assert all(w == 0.125 for w in va.lines.weights)
    assert va.lines.g[0] == 2.029
    assert va.lines.centers[-1] == ghz_to_angular(10.40)
    assert os.path.isfile(default_emission_path())


def test_bundled_paths_are_the_package_data_files():
    # Built from the package directory, not importlib.resources, whose import
    # a bare interpreter would pay on every run; the strings are the same.
    for path, name in (
        (default_db_path(), "sapphire_defects.json"),
        (default_emission_path(), "rare_earth_lines.json"),
    ):
        assert os.path.isfile(path)
        assert path == str(resources.files("paramagloss.data") / name)


def _write_db(tmp_path, entries, name="db.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return path


def _cr_entry(**overrides):
    entry = {
        "name": "Cr",
        "two_s": 3,
        "concentration_per_cm3": 1.0e17,
        "linewidth_mhz": 27.0,
        "linewidth_convention": "cyclic_times_2pi",
        "transition": [1.5, 0.5],
        "lines": [{"g": 1.984, "freq_ghz": 11.45, "weight": 1.0}],
    }
    entry.update(overrides)
    return entry


MISSING = object()


@pytest.mark.parametrize(
    "name, problem",
    [
        (MISSING, "missing field 'name'"),
        (5, "field 'name' must be a non-empty string"),
        (None, "field 'name' must be a non-empty string"),
        ("", "field 'name' must be a non-empty string"),
    ],
)
def test_species_without_a_string_name_is_rejected(tmp_path, name, problem):
    entry = _cr_entry()
    if name is MISSING:
        del entry["name"]
    else:
        entry["name"] = name
    path = _write_db(tmp_path, [_cr_entry(name="Fe"), entry], "name.json")
    with pytest.raises(DatabaseError) as exc:
        load_species_db(path)
    assert str(exc.value) == f"species entry 1: {problem}"


def test_load_database_errors(tmp_path):
    path = _write_db(tmp_path, {"name": "Cr"}, "notarray.json")
    with pytest.raises(DatabaseError, match="array"):
        load_species_db(path)

    entry = _cr_entry()
    del entry["linewidth_mhz"]
    path = _write_db(tmp_path, [entry], "missing.json")
    with pytest.raises(DatabaseError, match="'Cr'.*linewidth_mhz"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(linewidth_convention="lifetime")], "conv.json")
    with pytest.raises(DatabaseError, match="linewidth_convention"):
        load_species_db(path)

    bad_lines = _cr_entry(
        lines=[
            {"g": 1.984, "freq_ghz": 11.45, "weight": 0.5},
            {"g": 1.984, "freq_ghz": 11.55, "weight": 0.4},
        ]
    )
    path = _write_db(tmp_path, [bad_lines], "weights.json")
    with pytest.raises(DatabaseError, match="weights sum"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(), _cr_entry()], "dup.json")
    with pytest.raises(DatabaseError, match="^species 'Cr': listed more than once$"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(two_s=1.5)], "twos.json")
    with pytest.raises(DatabaseError, match="two_s"):
        load_species_db(path)

    for two_s in (MAX_TWO_S + 1, 10**400):
        path = _write_db(tmp_path, [_cr_entry(two_s=two_s)], "huge_twos.json")
        with pytest.raises(DatabaseError, match="'Cr'.*two_s"):
            load_species_db(path)
    # Spins above the eigensolver's dimension limit still load: the couplings
    # need no diagonalisation.
    path = _write_db(tmp_path, [_cr_entry(two_s=MAX_TWO_S)], "big_twos.json")
    assert load_species_db(path)[0].two_s == MAX_TWO_S

    # The squared moment of such a g would overflow in the spin algebra, with
    # a RuntimeWarning (an error in this suite) before the species is rejected.
    huge_g = _cr_entry(lines=[{"g": 1e200, "freq_ghz": 11.45, "weight": 1.0}])
    path = _write_db(tmp_path, [huge_g], "huge_g.json")
    with pytest.raises(DatabaseError, match="'Cr': line 0: field 'g'"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(transition=[1.5])], "trans.json")
    with pytest.raises(DatabaseError, match="transition"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(transition=[float("nan"), 0.5])], "nan_m.json")
    with pytest.raises(DatabaseError, match="'Cr'.*transition"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(concentration_per_cm3=float("nan"))], "nan_n.json")
    with pytest.raises(DatabaseError, match="'Cr'.*concentration_per_cm3"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(concentration_per_cm3=10**400)], "big_n.json")
    with pytest.raises(DatabaseError, match="'Cr'.*concentration_per_cm3"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(concentration_per_cm3=1e303)], "inf_n_def.json")
    with pytest.raises(DatabaseError, match="'Cr'.*concentration_per_cm3"):
        load_species_db(path)

    # Subnormal: the squared half-width underflows to 0.
    path = _write_db(tmp_path, [_cr_entry(linewidth_mhz=1e-320)], "tiny_width.json")
    with pytest.raises(DatabaseError, match="'Cr'.*linewidth_mhz"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(linewidth_mhz=1e305)], "huge_width.json")
    with pytest.raises(DatabaseError, match="'Cr'.*linewidth_mhz"):
        load_species_db(path)

    # Each field is fine alone; together the on-resonance peak overflows.
    peaked = _cr_entry(concentration_per_cm3=1e290, linewidth_mhz=1e-150)
    path = _write_db(tmp_path, [peaked], "inf_peak.json")
    with pytest.raises(DatabaseError, match="'Cr'.*concentration_per_cm3.*linewidth_mhz"):
        load_species_db(path)

    inf_line = _cr_entry(lines=[{"g": 1.984, "freq_ghz": float("inf"), "weight": 1.0}])
    path = _write_db(tmp_path, [inf_line], "inf_f.json")
    with pytest.raises(DatabaseError, match="'Cr': line 0.*freq_ghz"):
        load_species_db(path)

    path = tmp_path / "overflow.json"
    path.write_text(json.dumps([_cr_entry(linewidth_mhz=27.0)]).replace("27.0", "1e999"))
    with pytest.raises(DatabaseError, match="'Cr'.*linewidth_mhz"):
        load_species_db(path)

    # Each range error names the species once, the first bad line and the field.
    line = {"g": 1.984, "freq_ghz": 11.45, "weight": 1.0}
    for overrides, pattern in (
        ({"concentration_per_cm3": -1.0}, "'Cr': .*'concentration_per_cm3'"),
        ({"transition": [2.5, 1.5]}, "'Cr': .*'transition'"),
        ({"transition": [1.5, -0.5]}, "'Cr': .*'transition'"),
        ({"linewidth_mhz": 0.0}, "'Cr': .*'linewidth_mhz'"),
        ({"lines": [dict(line, freq_ghz=-1.0)]}, "'Cr': line 0: .*'freq_ghz'"),
        ({"lines": [dict(line, freq_ghz=1e200)]}, "'Cr': line 0: .*'freq_ghz'"),
        ({"lines": [dict(line, weight=0.0)]}, "'Cr': line 0: .*'weight'"),
        ({"lines": [dict(line, weight=1.2)]}, "'Cr': line 0: .*'weight'"),
        ({"lines": [dict(line, g=0.0)]}, "'Cr': line 0: .*'g'"),
        (
            {"lines": [dict(line, weight=0.5), *(dict(line, g=g, weight=0.25) for g in (0, -1))]},
            "'Cr': line 1: .*'g'",
        ),
        ({"lines": []}, "'Cr': .*'lines'"),
        ({"name": "Cr,x"}, "^species 'Cr,x': field 'name'"),
        ({"name": "Cr\u00e9"}, r"^species 'Cr\\xe9': field 'name'"),
        ({"name": "Cr\udc80"}, r"^species 'Cr\\udc80': field 'name'"),
        ({"name": "Cr.weights"}, r"^species 'Cr\.weights': field 'name' must contain no '\.'"),
    ):
        path = _write_db(tmp_path, [_cr_entry(**overrides)], "fields.json")
        with pytest.raises(DatabaseError, match=pattern) as exc:
            load_species_db(path)
        assert str(exc.value).count("Cr") == 1, str(exc.value)

    path = tmp_path / "garbage.json"
    # The last is nested too deep for json to decode.
    for text in (b"[{,", b"\xff\xfe[", b"[" + b"9" * 5000 + b"]", b"[" * 1000):
        path.write_bytes(text)
        with pytest.raises(DatabaseError, match="JSON"):
            load_species_db(path)

    with pytest.raises(DatabaseError, match="cannot read"):
        load_species_db(tmp_path / "nope.json")


# (2S, transition, line count, linewidth convention) of each species of a
# mixed database.
MIXED = [
    (1, [0.5, -0.5], 1, "cyclic_times_2pi"),
    (2, [1.0, 0.0], 7, "angular_rate"),
    (3, [1.5, 0.5], 3, "cyclic_times_2pi"),
    (5, [0.5, 1.5], 5, "angular_rate"),
    (255, [-126.5, -127.5], 2, "cyclic_times_2pi"),
    (3, [-0.5, -1.5], 6, "angular_rate"),
    (2, [0.0, -1.0], 4, "cyclic_times_2pi"),
]


def test_loaded_species_equal_species_built_alone(tmp_path):
    # Each species of a mixed database is bit for bit the species built alone
    # in code from the same numbers: amps, peak_loss and losses, at a point
    # and over a grid, with and without temperature and drive power.
    rng = np.random.default_rng(21)
    entries = []
    for i, (two_s, transition, count, convention) in enumerate(MIXED):
        lines = [
            {"g": float(rng.uniform(1.9, 2.1)), "freq_ghz": float(rng.uniform(2.0, 14.0)),
             "weight": 1.0 / count}
            for _ in range(count)
        ]
        entries.append(_cr_entry(
            name=f"S{i}", two_s=two_s, transition=transition, lines=lines,
            linewidth_convention=convention, linewidth_mhz=float(rng.uniform(5.0, 50.0)),
            concentration_per_cm3=float(rng.uniform(1e16, 1e18)),
        ))
    db = load_species_db(_write_db(tmp_path, entries))
    omegas = ghz_to_angular(np.linspace(1.0, 15.0, 57))
    for sp, entry in zip(db, entries):
        alone = DefectSpecies(
            name=entry["name"],
            two_s=entry["two_s"],
            n_def=entry["concentration_per_cm3"] * 1e6,
            gamma=ensemble.LINEWIDTH_SCALES[entry["linewidth_convention"]] * entry["linewidth_mhz"],
            transition=tuple(entry["transition"]),
            lines=_lines(*((ln["g"], ln["freq_ghz"], ln["weight"]) for ln in entry["lines"])),
            linewidth_convention=entry["linewidth_convention"],
        )
        assert len(sp.lines) == len(alone.lines) == len(entry["lines"])
        for name in ("centers", "g", "weights"):
            assert np.array_equal(getattr(sp.lines, name), getattr(alone.lines, name))
        assert np.array_equal(sp.amps, alone.amps) and not sp.amps.flags.writeable
        assert sp.peak_loss == alone.peak_loss and type(sp.peak_loss) is float
        # Up to 7 lines: the amplitudes are summed in listed order by sum().
        assert sp.peak_loss == sum(sp.amps.tolist()) * 2.0 / (math.pi * sp.gamma)
        for kwargs in ({}, {"temp_k": 0.4, "power": 3.0}):
            assert species_loss(sp, OMEGA_45, **kwargs) == species_loss(alone, OMEGA_45, **kwargs)
            assert np.array_equal(
                species_loss(sp, omegas, **kwargs), species_loss(alone, omegas, **kwargs)
            )


# Each range fault, as (species overrides, line-3 overrides, field, whether the
# error names line 3).
FAULTS = [
    ({}, {"g": 0.0}, "g", True),
    ({}, {"freq_ghz": -1.0}, "freq_ghz", True),
    ({}, {"freq_ghz": 1e200}, "freq_ghz", True),
    ({}, {"weight": 1.2}, "weight", True),
    ({}, {"weight": 0.5}, "weight", False),  # the weights sum to 1.25
    ({"transition": [2.5, 1.5]}, {}, "transition", False),
    ({"two_s": 0}, {}, "two_s", False),
    ({"linewidth_mhz": 0.0}, {}, "linewidth_mhz", False),
    ({"concentration_per_cm3": -1.0}, {}, "concentration_per_cm3", False),
    ({"concentration_per_cm3": 1e290, "linewidth_mhz": 1e-150}, {}, "linewidth_mhz", False),
]


@pytest.mark.parametrize("species, line, field, at_line", FAULTS)
def test_fault_named_at_its_species_and_line(tmp_path, species, line, field, at_line):
    # The fault sits in the third species, at line 3, of a four-species
    # database; its error is the one the species gives alone, and names that
    # species, line and field once.
    names = ["Alpha", "Beta", "Gamma", "Delta"]
    lines = [{"g": 1.984, "freq_ghz": 11.0 + 0.1 * i, "weight": 0.25} for i in range(4)]
    entries = [_cr_entry(name=name, lines=[dict(ln) for ln in lines]) for name in names]
    entries[2].update(species)
    entries[2]["lines"][3].update(line)
    with pytest.raises(DatabaseError) as exc:
        load_species_db(_write_db(tmp_path, entries))
    with pytest.raises(DatabaseError) as alone:
        load_species_db(_write_db(tmp_path, [entries[2]], "alone.json"))
    message = str(exc.value)
    assert message == str(alone.value)
    assert message.startswith("species 'Gamma': " + ("line 3: " if at_line else ""))
    assert f"'{field}'" in message
    assert message.count("Gamma") == 1 and len(re.findall(r"line \d", message)) == int(at_line)
    assert not any(name in message for name in ("Alpha", "Beta", "Delta"))


def test_first_fault_in_database_order(tmp_path):
    # With several faults, the error is the first fault of the first species
    # at fault, in the order its fields are read: pinned so that a loader
    # which checks a whole database at once keeps it.
    line = {"g": 1.984, "freq_ghz": 11.45, "weight": 0.5}
    for entries, message in (
        # Within a species, line objects are read one line at a time.
        (
            [_cr_entry(lines=[dict(line, freq_ghz="x"), dict(line, g="x")])],
            "species 'Cr': line 0: field 'freq_ghz' must be a finite number",
        ),
        # A range fault of an earlier species comes before a type fault of a
        # later one.
        (
            [_cr_entry(lines=[line]), _cr_entry(name="Fe", lines=[dict(line, g=None)] * 2)],
            "species 'Cr': field 'weight': line weights sum to 0.5, expected 1",
        ),
        # The transition is checked before the lines.
        (
            [_cr_entry(transition=[2.5, 1.5], lines=[dict(line, g=0.0)] * 2)],
            "species 'Cr': field 'transition' (2.5, 1.5): m = 2.5 is not a valid "
            "projection for S = 1.5",
        ),
        # Weights are summed in listed order, one species at a time, by sum().
        (
            [_cr_entry(lines=[dict(line, weight=w) for w in (0.1, 0.2, 0.3)])],
            "species 'Cr': field 'weight': line weights sum to 0.6000000000000001, expected 1",
        ),
    ):
        with pytest.raises(DatabaseError) as exc:
            load_species_db(_write_db(tmp_path, entries))
        assert str(exc.value) == message


def test_loaded_database_matches_programmatic_species():
    db = load_species_db(default_db_path())
    for sp, reference in zip(db, (CR, FE, VA)):
        assert species_loss(sp, OMEGA_45) == pytest.approx(
            species_loss(reference, OMEGA_45), rel=1e-14
        )
