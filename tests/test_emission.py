"""Emission rates, moment extraction, and detailed balance."""

import io
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from paramagloss.emission import (
    EMISSION_PREFACTOR,
    EXTRACTION_COLUMNS,
    EmissionLine,
    a_md,
    extract_moment,
    extraction_rows,
    line_from_rate,
    photon_dos,
    read_emission_table,
    wavelength_to_angular,
)
from paramagloss.absorption import sigma_md
from paramagloss.errors import DatabaseError, InvalidInputs
from paramagloss.ioformat import default_emission_path, write_csv
from conftest import BOHR_RADIUS, C_LIGHT, FINE_STRUCTURE
from golden_cases import GOLDEN_DIR

TWO_PI = 2.0 * math.pi

# label -> (wavelength nm, measured rate 1/s, frozen extracted m_sq)
EXTRACTION_TABLE = {
    "Gd": (307.0, 30.24, 1.0812804495458454e-02),
    "Sm": (477.0, 7.14, 9.5762348061983450e-03),
    "Eu": (700.0, 24.63, 1.0439987273985533e-01),
    "Er": (1276.0, 12.21, 3.1347948491215220e-01),
    "Dy": (1550.0, 6.21, 2.8577756541130480e-01),
}
# Rounded published moments the extraction must reproduce within 2%.
PUBLISHED_M_SQ = {"Gd": 0.0108, "Sm": 0.0096, "Eu": 0.1044, "Er": 0.3135, "Dy": 0.2858}


def test_emission_prefactor():
    assert EMISSION_PREFACTOR == pytest.approx(
        FINE_STRUCTURE**3 * BOHR_RADIUS**2 / C_LIGHT**2, rel=1e-15
    )


def test_wavelength_to_angular():
    assert wavelength_to_angular(1276e-9) == pytest.approx(
        TWO_PI * C_LIGHT / 1276e-9, rel=1e-15
    )
    with pytest.raises(InvalidInputs):
        wavelength_to_angular(0.0)


def test_photon_dos_values():
    assert photon_dos(0.0) == 0.0
    omega = TWO_PI * 977e12
    assert photon_dos(omega) == pytest.approx(141705.59892534782, rel=1e-12)
    assert photon_dos(omega, n_r=2.0) == pytest.approx(8.0 * photon_dos(omega), rel=1e-14)
    with pytest.raises(InvalidInputs):
        photon_dos(-1.0)
    with pytest.raises(InvalidInputs):
        photon_dos(omega, n_r=0.5)


def test_a_md_forward_values():
    er = a_md(wavelength_to_angular(1276e-9), 0.3135)
    assert er == pytest.approx(12.210799060974258, rel=1e-12)
    assert er == pytest.approx(12.21, rel=1e-3)
    gd = a_md(wavelength_to_angular(307e-9), 0.0108)
    assert gd == pytest.approx(30.204189869258602, rel=1e-12)
    assert gd == pytest.approx(30.24, rel=5e-3)
    assert a_md(1.0e15, 0.0) == 0.0


def test_a_md_validation():
    with pytest.raises(InvalidInputs):
        a_md(0.0, 1.0)
    with pytest.raises(InvalidInputs):
        a_md(1.0e15, -1.0)
    with pytest.raises(InvalidInputs):
        a_md(1.0e15, 1.0, n_r=0.2)


@pytest.mark.parametrize(
    "call, args",
    [
        (a_md, (1e110, 1.0)),  # omega^3 overflows
        (a_md, (1e100, 1e300)),  # the rate overflows
        (extract_moment, (1.0, 1e-100)),  # omega^3 overflows
        (extract_moment, (1.0, 1e-300)),  # omega is inf, so the moment would read 0
        (photon_dos, (1e200,)),  # omega^2 overflows
        (photon_dos, (1e154, 1e100)),  # the density overflows
    ],
)
def test_helpers_reject_results_outside_float_range(call, args):
    with pytest.raises(InvalidInputs, match=r"^(emission rate|photon density of states) at .* must be finite|^lambda_vac .*finite rate scale"):
        call(*args)


def test_extract_moment_table():
    for label, (lam_nm, rate, frozen) in EXTRACTION_TABLE.items():
        m_sq = extract_moment(rate, lam_nm * 1e-9)
        assert m_sq == pytest.approx(frozen, rel=1e-12)
        assert m_sq == pytest.approx(PUBLISHED_M_SQ[label], rel=0.02)
    assert extract_moment(0.0, 500e-9) == 0.0


def test_extract_round_trip():
    for omega, m_sq, n_r in (
        (TWO_PI * 235e12, 0.3135, 1.0),
        (TWO_PI * 977e12, 0.0108, 1.77),
        (TWO_PI * 11.45e9, 1.968, 1.0),
    ):
        rate = a_md(omega, m_sq, n_r)
        back = extract_moment(rate, TWO_PI * C_LIGHT / omega, n_r)
        assert back == pytest.approx(m_sq, rel=1e-12)


def test_cubic_frequency_scaling():
    omega = TWO_PI * 235e12
    assert a_md(2.0 * omega, 0.3) == pytest.approx(8.0 * a_md(omega, 0.3), rel=1e-12)


def test_ghz_equivalent_rate():
    # a_md of a microwave spin line: a moment of order one emits less than
    # 1e-11 photons per second near 10 GHz.
    rate = a_md(TWO_PI * 11.45e9, 1.984**2 / 2.0)
    assert rate == pytest.approx(8.872913625048017e-12, rel=1e-12)
    # Cubic suppression between a 235 THz line and an 11.45 GHz line.
    ratio = a_md(TWO_PI * 235e12, 0.3) / a_md(TWO_PI * 11.45e9, 0.3)
    assert ratio == pytest.approx((235e12 / 11.45e9) ** 3, rel=1e-12)


def test_detailed_balance():
    # The emission rate equals the absorption cross section integrated
    # against the photon flux density over the line.  An optical-scale
    # transition keeps the +-1000 gamma window far from omega = 0, where
    # the Lorentzian tails carry only ~3.2e-4 of the norm.
    gamma = TWO_PI * 5e9
    omega_if = wavelength_to_angular(1276e-9)
    m_sq = 0.3135
    for n_r in (1.0, 1.77):
        integrand = lambda w: (C_LIGHT / n_r) * sigma_md(
            w, omega_if, m_sq, gamma, n_r=n_r
        ) * photon_dos(w, n_r)
        integral, _ = quad(
            integrand,
            omega_if - 1000.0 * gamma,
            omega_if + 1000.0 * gamma,
            points=[omega_if],
            limit=400,
        )
        assert integral == pytest.approx(a_md(omega_if, m_sq, n_r), rel=1e-3)


def test_emission_line_consistency():
    line = line_from_rate("Er", 1276.0, 12.21)
    assert line.omega_if == pytest.approx(wavelength_to_angular(1276e-9), rel=1e-15)
    assert line.m_sq == pytest.approx(EXTRACTION_TABLE["Er"][2], rel=1e-12)
    assert line.m_abs == pytest.approx(math.sqrt(line.m_sq), rel=1e-15)
    with pytest.raises(InvalidInputs, match=r"^line 'bad': a_md must be finite and >= 0"):
        EmissionLine(
            label="bad",
            lambda_vac=1276e-9,
            omega_if=wavelength_to_angular(1276e-9),
            a_md=-1.0,
            m_sq=1.0,
        )
    with pytest.raises(InvalidInputs):
        line_from_rate("bad", 1276.0, -1.0)


@pytest.mark.parametrize("field", ["lambda_vac", "omega_if", "a_md", "m_sq"])
@pytest.mark.parametrize("value", [[1.0], np.ones(2)], ids=["list", "array"])
def test_emission_line_takes_single_numbers(field, value):
    fields = dict(label="x", lambda_vac=1e-6, omega_if=1e15, a_md=1.0, m_sq=1.0)
    with pytest.raises(InvalidInputs, match=rf"^line 'x': {field} must be a single number"):
        EmissionLine(**dict(fields, **{field: value}))


def test_read_emission_table_default():
    lines = read_emission_table(default_emission_path())
    assert [line.label for line in lines] == ["Gd", "Sm", "Eu", "Er", "Dy"]
    for line in lines:
        assert line.m_sq == pytest.approx(EXTRACTION_TABLE[line.label][2], rel=1e-12)


def test_read_emission_table_errors(tmp_path):
    missing = tmp_path / "missing_field.json"
    missing.write_text(json.dumps([{"label": "Xx", "lambda_nm": 500.0}]))
    with pytest.raises(DatabaseError, match="Xx"):
        read_emission_table(missing)
    not_array = tmp_path / "not_array.json"
    not_array.write_text("{}")
    with pytest.raises(DatabaseError, match="array"):
        read_emission_table(not_array)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("[{")
    with pytest.raises(DatabaseError, match="JSON"):
        read_emission_table(bad_json)
    for text in (b"\xff\xfe[", b"[" + b"9" * 5000 + b"]"):  # not UTF-8; int over 4300 digits
        bad_json.write_bytes(text)
        with pytest.raises(DatabaseError, match="JSON"):
            read_emission_table(bad_json)
    with pytest.raises(DatabaseError):
        read_emission_table(tmp_path / "nonexistent.json")
    bad_type = tmp_path / "bad_type.json"
    bad_type.write_text(json.dumps([{"label": "Yy", "lambda_nm": "wide", "a_md_hz": 1.0}]))
    with pytest.raises(DatabaseError, match="Yy"):
        read_emission_table(bad_type)
    nan_field = tmp_path / "nan_field.json"
    nan_field.write_text(json.dumps([{"label": "Nn", "lambda_nm": float("nan"), "a_md_hz": 1.0}]))
    with pytest.raises(DatabaseError, match="'Nn'.*lambda_nm"):
        read_emission_table(nan_field)
    # Finite values whose frequency, rate scale or moment leave the float range.
    extreme = tmp_path / "extreme.json"
    for fields, named in [
        ({"lambda_nm": 1e300}, "'lambda_nm'.*1e\\+300"),  # omega^3 underflows to 0
        ({"lambda_nm": 1e-200}, "'lambda_nm'.*1e-200"),  # omega^3 overflows
        ({"lambda_nm": 1e-300}, "'lambda_nm'.*1e-300"),  # omega is inf
        ({"lambda_nm": 5e-324}, "'lambda_nm'.*5e-324"),  # the wavelength in m is 0
        ({"lambda_nm": -1.0}, "'lambda_nm'.*-1.0"),
        ({"n_r": 1e103}, "'n_r'.*1e\\+103"),  # n_r^3 overflows
        ({"n_r": 0.5}, "'n_r'.*0.5"),
        ({"lambda_nm": 1e6, "a_md_hz": 1e308}, "'a_md_hz'.*1e\\+308"),  # m_sq is inf
        ({"a_md_hz": -1.0}, "'a_md_hz'.*-1.0"),
    ]:
        entry = {"label": "Ex", "lambda_nm": 500.0, "a_md_hz": 1.0, **fields}
        extreme.write_text(json.dumps([entry]))
        with pytest.raises(DatabaseError, match=f"^line 'Ex': field {named}"):
            read_emission_table(extreme)
    # Labels a writer cannot spell as given, or no label at all.
    for label, named in [
        ("Gd,x\ny", r"'Gd,x\\ny'"),
        ('Gd"x', "'Gd\"x'"),
        ("Gd;x", "'Gd;x'"),
        ("Gd\u00e9", r"'Gd\\xe9'"),
        ("Gd\udc80", r"'Gd\\udc80'"),
        ("", "''"),
        (7, "7"),
        (None, "None"),
    ]:
        extreme.write_text(json.dumps([{"label": label, "lambda_nm": 500.0, "a_md_hz": 1.0}]))
        with pytest.raises(DatabaseError, match=f"^emission table entry 0: field 'label'.*{named}$"):
            read_emission_table(extreme)


def test_extraction_csv_format():
    """The row holds the label and five floats; write_csv spells the golden line."""
    rows = extraction_rows([line_from_rate("Gd", 307.0, 30.24)])
    lambda_vac = 307.0 * 1e-9
    omega_if = wavelength_to_angular(lambda_vac)
    m_sq = extract_moment(30.24, lambda_vac)
    assert rows == [
        ["Gd", lambda_vac * 1e9, omega_if / (TWO_PI * 1e12), 30.24, m_sq, math.sqrt(m_sq)]
    ]
    buf = io.StringIO()
    write_csv(buf, EXTRACTION_COLUMNS, rows)
    golden = (GOLDEN_DIR / "emission.csv").read_text().splitlines()
    assert buf.getvalue().splitlines() == golden[:2]
