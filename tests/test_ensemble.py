"""Species databases, per-species losses, and spectrum sweeps."""

import json
import math
import os

import numpy as np
import pytest

from paramagloss.constants import ghz_to_angular
from paramagloss.ensemble import (
    DefectLine,
    DefectSpecies,
    default_db_path,
    default_emission_path,
    line_coupling_sq,
    linewidth_to_angular,
    load_species_db,
    species_loss,
    sweep,
)
from paramagloss.errors import DatabaseError, InvalidInputs, InvalidRange
from paramagloss.lineshape import PowerModel, temperature_factor

TWO_PI = 2.0 * math.pi
GAMMA = TWO_PI * 27e6

CR = DefectSpecies(
    name="Cr",
    two_s=3,
    n_def=1e23,
    gamma=GAMMA,
    transition=(1.5, 0.5),
    lines=(DefectLine(g_e=1.984, omega_if=ghz_to_angular(11.45), weight=1.0),),
)
FE = DefectSpecies(
    name="Fe",
    two_s=5,
    n_def=1e23,
    gamma=GAMMA,
    transition=(0.5, 1.5),
    lines=(DefectLine(g_e=2.02, omega_if=ghz_to_angular(12.03), weight=1.0),),
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
    lines=tuple(
        DefectLine(g_e=g, omega_if=ghz_to_angular(f), weight=0.125) for g, f in V_LINES
    ),
)

OMEGA_45 = ghz_to_angular(4.5)
# Independent reduced-formula evaluations at a 4.5 GHz probe.
CR_45 = 8.97232140725922e-09
FE_45 = 2.1128703931021166e-08
V_45 = 1.9480116532842068e-09


def test_linewidth_conventions():
    assert linewidth_to_angular(27.0, "cyclic_times_2pi") == pytest.approx(
        TWO_PI * 27e6, rel=1e-15
    )
    assert linewidth_to_angular(27.0, "angular_rate") == pytest.approx(2.7e7, rel=1e-15)
    with pytest.raises(InvalidInputs):
        linewidth_to_angular(27.0, "fwhm_ghz")
    with pytest.raises(InvalidInputs):
        linewidth_to_angular(0.0, "cyclic_times_2pi")


def test_defect_line_validation():
    with pytest.raises(InvalidInputs):
        DefectLine(g_e=2.0, omega_if=1.0, weight=0.0)
    with pytest.raises(InvalidInputs):
        DefectLine(g_e=2.0, omega_if=1.0, weight=1.2)
    with pytest.raises(InvalidInputs):
        DefectLine(g_e=0.0, omega_if=1.0, weight=0.5)
    with pytest.raises(InvalidInputs):
        DefectLine(g_e=2.0, omega_if=-1.0, weight=0.5)


def test_defect_species_validation():
    line = DefectLine(g_e=2.0, omega_if=1.0, weight=1.0)
    with pytest.raises(InvalidInputs):
        DefectSpecies(name="x", two_s=3, n_def=1.0, gamma=1.0, transition=(1.5, 0.5), lines=())
    with pytest.raises(InvalidInputs):
        DefectSpecies(
            name="x", two_s=3, n_def=1.0, gamma=0.0, transition=(1.5, 0.5), lines=(line,)
        )
    with pytest.raises(InvalidInputs):
        DefectSpecies(
            name="x", two_s=3, n_def=-1.0, gamma=1.0, transition=(1.5, 0.5), lines=(line,)
        )
    # Transition must be a |delta m| = 1 pair inside the ladder.
    with pytest.raises(InvalidInputs):
        DefectSpecies(
            name="x", two_s=3, n_def=1.0, gamma=1.0, transition=(1.5, -0.5), lines=(line,)
        )
    with pytest.raises(InvalidInputs):
        DefectSpecies(
            name="x", two_s=3, n_def=1.0, gamma=1.0, transition=(2.5, 1.5), lines=(line,)
        )
    with pytest.raises(InvalidInputs):
        DefectSpecies(
            name="x", two_s=3, n_def=1.0, gamma=1.0, transition=(1.0, 0.5), lines=(line,)
        )


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
        lines=(DefectLine(g_e=2.0, omega_if=ghz_to_angular(10.0), weight=1.0),),
    )
    assert species_loss(empty, OMEGA_45) == 0.0


def test_species_loss_temperature_factor():
    warm = species_loss(CR, OMEGA_45, temp_k=0.5)
    cold = species_loss(CR, OMEGA_45)
    expected = temperature_factor(CR.lines[0].omega_if, 0.5)
    assert warm == pytest.approx(cold * expected, rel=1e-12)


def test_species_loss_power_broadening():
    # P/P_c = 3 doubles the width, same as a species built with 2 gamma.
    broadened = species_loss(CR, OMEGA_45, power=PowerModel(3.0))
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
    grid = species_loss(VA, omegas, temp_k=0.7, power=PowerModel(4.0))
    points = [species_loss(VA, float(w), temp_k=0.7, power=PowerModel(4.0)) for w in omegas]
    assert all(type(x) is float for x in points)
    assert np.array_equal(grid, points)
    ratios = np.linspace(0.0, 431.0, 200)
    curve = species_loss(VA, OMEGA_45, power=ratios)
    assert np.array_equal(curve, [species_loss(VA, OMEGA_45, power=float(p)) for p in ratios])


def test_line_table_built_once():
    table = VA.table
    assert VA.table is table
    assert table.centers.shape == table.widths.shape == table.amps.shape == (8,)
    assert not table.amps.flags.writeable
    assert np.array_equal(table.centers, [line.omega_if for line in VA.lines])


def test_overflowing_rates_rejected():
    with pytest.raises(InvalidInputs):
        DefectLine(g_e=2.0, omega_if=float("inf"), weight=0.5)
    with pytest.raises(InvalidInputs):
        DefectLine(g_e=2.0, omega_if=1e200, weight=0.5)
    with pytest.raises(InvalidInputs, match="angular probe frequency"):
        species_loss(CR, float("inf"))
    with pytest.raises(InvalidRange, match="linewidth"):
        species_loss(CR, OMEGA_45, power=1e308)
    with pytest.raises(InvalidRange, match="angular frequency"):
        sweep([CR], 1.0, 1e150, 3)


def test_species_loss_validation():
    with pytest.raises(InvalidInputs):
        species_loss(CR, 0.0)
    with pytest.raises(InvalidInputs):
        species_loss(CR, OMEGA_45, n_r=0.99)


def test_sweep_range_validation():
    with pytest.raises(InvalidRange):
        sweep([CR], 5.0, 5.0, 10)
    with pytest.raises(InvalidRange):
        sweep([CR], 8.0, 5.0, 10)
    with pytest.raises(InvalidRange):
        sweep([CR], 1.0, 15.0, 1)
    with pytest.raises(InvalidRange):
        sweep([CR], -1.0, 15.0, 10)


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
    halved = DefectSpecies(
        name="V",
        two_s=3,
        n_def=2e22,
        gamma=GAMMA,
        transition=(1.5, 0.5),
        lines=tuple(
            DefectLine(g_e=g, omega_if=ghz_to_angular(f), weight=0.0625)
            for g, f in V_LINES
        ),
    )
    base = sweep([VA], 8.0, 11.0, 501).total
    scaled = sweep([halved], 8.0, 11.0, 501).total
    assert np.abs(scaled - base).max() <= 1e-12 * base.max()


def test_sweep_argmax_at_line_center():
    spectrum = sweep([CR], 1.0, 15.0, 1401)
    peak = spectrum.freqs_ghz[int(np.argmax(spectrum.per_species["Cr"]))]
    assert peak == pytest.approx(11.45, abs=1e-9)


def test_empty_database_sweep():
    spectrum = sweep([], 1.0, 15.0, 11)
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
    assert all(line.weight == 0.125 for line in va.lines)
    assert va.lines[0].g_e == 2.029
    assert va.lines[-1].omega_if == pytest.approx(ghz_to_angular(10.40), rel=1e-15)
    assert os.path.isfile(default_emission_path())


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
    with pytest.raises(DatabaseError, match="duplicate"):
        load_species_db(path)

    path = _write_db(tmp_path, [_cr_entry(two_s=1.5)], "twos.json")
    with pytest.raises(DatabaseError, match="two_s"):
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

    inf_line = _cr_entry(lines=[{"g": 1.984, "freq_ghz": float("inf"), "weight": 1.0}])
    path = _write_db(tmp_path, [inf_line], "inf_f.json")
    with pytest.raises(DatabaseError, match="'Cr': line 0.*freq_ghz"):
        load_species_db(path)

    path = tmp_path / "overflow.json"
    path.write_text(json.dumps([_cr_entry(linewidth_mhz=27.0)]).replace("27.0", "1e999"))
    with pytest.raises(DatabaseError, match="'Cr'.*linewidth_mhz"):
        load_species_db(path)

    path = tmp_path / "garbage.json"
    path.write_text("[{,")
    with pytest.raises(DatabaseError, match="JSON"):
        load_species_db(path)

    with pytest.raises(DatabaseError, match="cannot read"):
        load_species_db(tmp_path / "nope.json")


def test_loaded_database_matches_programmatic_species():
    db = load_species_db(default_db_path())
    for sp, reference in zip(db, (CR, FE, VA)):
        assert species_loss(sp, OMEGA_45) == pytest.approx(
            species_loss(reference, OMEGA_45), rel=1e-14
        )
