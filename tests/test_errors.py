"""The one range rule of the library's numbers, and the arguments it guards."""

import ast
import copy
import inspect
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import paramagloss
from paramagloss.absorption import absorption_coefficient, loss_tangent, sigma_md
from paramagloss.constants import ghz_to_angular
from paramagloss.emission import (
    EmissionLine,
    a_md,
    extract_moment,
    photon_dos,
    wavelength_to_angular,
)
from paramagloss.ensemble import DefectSpecies, SpeciesLines, Spectrum, species_loss, sweep
from paramagloss.errors import InvalidInputs, ParamagLossError, Record, require
from paramagloss.ladder import ladder_m, line_coupling_sq
from paramagloss.lineshape import (
    lorentzian,
    power_broadened_gamma,
    tanh_factor,
    temperature_factor,
)
from paramagloss.spin import (
    EigenDecomposition,
    SpinHamiltonianParams,
    SpinOperators,
    basis_state,
    build_hamiltonian,
    diagonalize,
    spin_operators,
    transition_moment,
    unpolarized_coupling,
)

NAN, INF = float("nan"), float("inf")


def test_require_returns_value_unchanged():
    values = np.array([0.0, 2.5])
    assert require("x", values) is values
    assert require("x", 3) == 3 and type(require("x", 3)) is int
    assert require("x", 1.0, 1.0) == 1.0
    assert require("x", np.float32(2.0), strict=True) == 2.0
    assert require("x", -1e300, -INF) == -1e300  # low = -inf: finite is enough


@pytest.mark.parametrize("value", [[1e-300], (1.0, 2.0), [], [[1.0], [2.0]]], ids=repr)
def test_require_returns_a_list_or_tuple_as_an_array(value):
    got = require("x", value)
    assert type(got) is np.ndarray and np.array_equal(got, np.array(value))


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


# Where each module may set numpy's floating-point flags or catch a float
# error: evaluate is the one place a formula leaves the float range, and
# finite_float converts a JSON integer and evaluates no formula.
FLOAT_RANGE_HOMES = {
    "errstate": {("errors", "evaluate")},
    "seterr": set(),
    "OverflowError": {("errors", "evaluate"), ("ioformat", "finite_float")},
    "FloatingPointError": set(),
    "ArithmeticError": set(),
}


def float_range_sites(tree):
    """(name, enclosing top-level function) of each flag call and float-error handler in tree."""
    for top in tree.body:
        home = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                yield getattr(func, "attr", getattr(func, "id", None)), home
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for exc in caught:
                    yield getattr(exc, "id", getattr(exc, "attr", None)), home


@pytest.mark.parametrize(
    "path", sorted(Path(paramagloss.__file__).parent.glob("*.py")), ids=lambda p: p.stem
)
def test_only_evaluate_lets_a_formula_leave_the_float_range(path):
    misplaced = [
        f"{name} in {home}"
        for name, home in float_range_sites(ast.parse(path.read_text(encoding="utf-8")))
        if name in FLOAT_RANGE_HOMES and (path.stem, home) not in FLOAT_RANGE_HOMES[name]
    ]
    assert not misplaced, f"{path.name}: {', '.join(misplaced)}"


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
    (sigma_md, dict(omega=OMEGA, omega_if=OMEGA, coupling_sq=1.0, gamma=1e6, n_r=1.0),
     ("omega", "omega_if", "coupling_sq", "gamma", "n_r")),
    (absorption_coefficient, dict(n_def=1e23, sigma=1e-30), ("n_def", "sigma")),
    (loss_tangent, dict(a=1.0, omega=OMEGA, n_r=1.0), ("a", "omega", "n_r")),
    (lorentzian, dict(detuning=0.0, gamma=1.0), ("detuning", "gamma")),
    (power_broadened_gamma, dict(gamma0=1.0, power=1.0), ("gamma0", "power")),
    (wavelength_to_angular, dict(lambda_vac=1e-6), ("lambda_vac",)),
    (ghz_to_angular, dict(freq_ghz=11.45), ("freq_ghz",)),
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
        (sigma_md, (1e150, 1e150, 1e300, 1.0),
         "cross section must be finite and >= 0, got inf"),
        (power_broadened_gamma, (1e308, 1e308), "power-broadened linewidth overflows"),
        (species_loss, (SPECIES, OMEGA, None, 1e308),
         "species 'Cr': power-broadened linewidth overflows"),
        # Once drawn by the property below: the rate scale is a finite
        # 1.797693135, and that times m_sq = 1e308 is not.
        (a_md, (np.array([[5.2952471745e14]]), 1e308),
         "emission rate at omega_if=array([[5.29524717e+14]]), m_sq=1e+308, n_r=1.0 "
         "must be finite and >= 0, got inf"),
        # eigh's eigenvalues of such a matrix could pass the float range.
        (diagonalize, ([[1e308, 0.0], [0.0, 1.0]],),
         "matrix entries must be at most 4.49e+307 in modulus, got 1e+308"),
        # Sx and Sy hold 64 between m = +-1/2 of S = 255/2, and 64 * 1.7e308
        # overflows inside evaluate, so nothing warns.
        (transition_moment, (basis_state(255, 0.5), basis_state(255, -0.5), spin_operators(255),
                             1.7e308),
         "transition moment must be finite, got [(inf+0j), infj, 0j]"),
    ],
)
def test_results_outside_float_range_raise(call, args, message):
    with pytest.raises(InvalidInputs) as exc:
        call(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, args, message",
    [
        (temperature_factor, (1.0, "x"), "temperature must be finite and >= 0, got 'x'"),
        (species_loss, (SPECIES, 1e10, "x"), "temp_k must be finite and >= 0, got 'x'"),
        (line_coupling_sq, (3, (None, 0.5), 2.0), "(None, 0.5): m = None is not a half-integer"),
        (extract_moment, (1.0, None), "lambda_vac must be finite, got None"),
        (sweep, ([SPECIES], 1.0, None, 5), "fmax must be finite, got None"),
        (sweep, ([], 1.0, 2.0, 3, "x"), "temp_k must be finite and >= 0, got 'x'"),
        (line_coupling_sq, (3, (1.5,), 2.0), "transition must be a pair (m_i, m_f), got (1.5,)"),
        (ladder_m, (3, 3), "transition must be a pair (m_i, m_f), got 3"),
        (DefectSpecies, ("x", 3, 1e23, 1e8, None, SPECIES.lines),
         "species 'x': field 'transition' transition must be a pair (m_i, m_f), got None"),
    ],
)
def test_non_numbers_raise_naming_the_argument(call, args, message):
    with pytest.raises(InvalidInputs) as exc:
        call(*args)
    assert str(exc.value) == message


def test_list_arguments_give_arrays():
    # Each once raised TypeError in the arithmetic after its checks.
    assert type(ghz_to_angular(4.5)) is float
    assert np.array_equal(ghz_to_angular([1.0, 2.0]), ghz_to_angular(np.array([1.0, 2.0])))
    for call, args in [
        (wavelength_to_angular, ([1e-6],)),
        (lorentzian, ([0.0], 1.0)),
        (photon_dos, ([1e9], 1.0)),
        (a_md, ([1e-6], [1.0], 1.0)),
        (sigma_md, ([1e10], [1e10], [1.0], [1e6], [1.0])),
        (absorption_coefficient, ([1e23], [1e-30])),
        (loss_tangent, ([1.0], [OMEGA], [1.0])),
    ]:
        listed = call(*args)
        arrays = call(*(np.array(a) if isinstance(a, list) else a for a in args))
        assert type(listed) is np.ndarray and np.array_equal(listed, arrays), call.__name__


OPS = spin_operators(3)
# Every function and record of paramagloss.__all__ that takes numbers: a valid
# call, and the arguments a property below replaces with arbitrary values.
NUMERIC = [
    (sigma_md, dict(omega=OMEGA, omega_if=OMEGA, coupling_sq=1.0, gamma=1e6, n_r=1.0,
                    temp_k=0.1),
     ("omega", "omega_if", "coupling_sq", "gamma", "n_r", "temp_k")),
    (absorption_coefficient, dict(n_def=1e23, sigma=1e-30), ("n_def", "sigma")),
    (loss_tangent, dict(a=1.0, omega=OMEGA, n_r=1.0), ("a", "omega", "n_r")),
    (lorentzian, dict(detuning=0.0, gamma=1.0), ("detuning", "gamma")),
    (power_broadened_gamma, dict(gamma0=1.0, power=1.0), ("gamma0", "power")),
    (temperature_factor, dict(omega_if=OMEGA, temp=0.1), ("omega_if", "temp")),
    (tanh_factor, dict(omega_if=OMEGA, temp=0.1), ("omega_if", "temp")),
    (wavelength_to_angular, dict(lambda_vac=1e-6), ("lambda_vac",)),
    (ghz_to_angular, dict(freq_ghz=11.45), ("freq_ghz",)),
    (photon_dos, dict(omega=OMEGA, n_r=1.0), ("omega", "n_r")),
    (a_md, dict(omega_if=OMEGA, m_sq=1.0, n_r=1.0), ("omega_if", "m_sq", "n_r")),
    (extract_moment, dict(a=12.21, lambda_vac=1276e-9, n_r=1.0), ("a", "lambda_vac", "n_r")),
    (EmissionLine, dict(label="x", lambda_vac=1e-6, omega_if=OMEGA, a_md=1.0, m_sq=1.0),
     ("lambda_vac", "omega_if", "a_md", "m_sq")),
    (line_coupling_sq, dict(two_s=3, transition=(1.5, 0.5), g_e=2.0),
     ("two_s", "transition", "g_e")),
    (species_loss, dict(sp=SPECIES, omega=OMEGA, temp_k=0.1, power=1.0),
     ("omega", "temp_k", "power")),
    (sweep, dict(db=[SPECIES], fmin_ghz=1.0, fmax_ghz=15.0, points=3, temp_k=0.1, power=1.0),
     ("fmin_ghz", "fmax_ghz", "points", "temp_k", "power")),
    # A database of no species checks the temperature and drive all the same.
    (sweep, dict(db=[], fmin_ghz=1.0, fmax_ghz=15.0, points=3, temp_k=0.1, power=1.0),
     ("temp_k", "power")),
    (DefectSpecies, dict(name="Cr", two_s=3, n_def=1e23, gamma=1e8, transition=(1.5, 0.5),
                         lines=SPECIES.lines), ("two_s", "n_def", "gamma", "transition")),
    (SpeciesLines, dict(centers=[OMEGA], g=[1.984], weights=[1.0]), ("centers", "g", "weights")),
    (basis_state, dict(two_s=3, m=0.5), ("two_s", "m")),
    (spin_operators, dict(two_s=3), ("two_s",)),
    (build_hamiltonian, dict(two_s=3, params=SpinHamiltonianParams(d=1e10, g_e=2.0)),
     ("two_s",)),
    (SpinHamiltonianParams, dict(d=1e10, g_e=2.0, e=1e9, b_field=(0.0, 0.0, 0.1)),
     ("d", "g_e", "e", "b_field")),
    (transition_moment, dict(psi_i=basis_state(3, 1.5), psi_f=basis_state(3, 0.5), ops=OPS,
                             g_e=2.0, orbital_moment=(0.0, 0.0, 0.0)),
     ("psi_i", "psi_f", "g_e", "orbital_moment")),
    (unpolarized_coupling, dict(m_vec=(1.0, 1.0j, 0.0)), ("m_vec",)),
    (diagonalize, dict(h=np.eye(2)), ("h",)),
]
# The rest of __all__: the files of the two readers are fuzzed in
# test_cli_properties; the remaining names take no numbers or only hold results.
NOT_NUMERIC = {
    "load_species_db", "read_emission_table", "default_db_path",
    "default_emission_path", "ParamagLossError", "Spectrum", "SpinOperators",
    "EigenDecomposition",
}

# Each record of __all__: valid fields as keywords, in its constructor's order,
# and the defaults of its trailing fields.
RECORDS = [
    (SpeciesLines, dict(centers=[OMEGA], g=[1.984], weights=[1.0]), {}),
    (DefectSpecies, dict(name="Cr", two_s=3, n_def=1e23, gamma=1e8, transition=(1.5, 0.5),
                         lines=SPECIES.lines, linewidth_convention="angular_rate"),
     {"linewidth_convention": "cyclic_times_2pi"}),
    (Spectrum, dict(freqs_ghz=np.ones(2), per_species={"Cr": np.zeros(2)}, total=np.zeros(2)), {}),
    (EmissionLine, dict(label="x", lambda_vac=1e-6, omega_if=OMEGA, a_md=1.0, m_sq=1.0), {}),
    (SpinOperators, dict(two_s=3, sx=OPS.sx, sy=OPS.sy, sz=OPS.sz), {}),
    (SpinHamiltonianParams, dict(d=1e10, g_e=2.0, e=1e9, b_field=(0.0, 0.0, 0.1)),
     {"e": 0.0, "b_field": (0.0, 0.0, 0.0)}),
    (EigenDecomposition, dict(eigenvalues=np.ones(2), eigenvectors=np.eye(2)), {}),
]


@pytest.mark.parametrize(
    "cls, fields, defaults", [pytest.param(*row, id=row[0].__name__) for row in RECORDS]
)
def test_records_take_their_fields_in_order_and_stay_read_only(cls, fields, defaults):
    params = inspect.signature(cls).parameters
    assert list(params) == list(fields)
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == defaults
    record = cls(**fields)
    slots = type(record).__slots__
    assert slots[: len(fields)] == tuple(fields)  # DefectSpecies adds amps and peak_loss
    by_position, shallow = cls(*fields.values()), copy.copy(record)
    for name in slots:
        np.testing.assert_equal(getattr(by_position, name), getattr(record, name))
        assert getattr(shallow, name) is getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert pickle.dumps(pickle.loads(pickle.dumps(record))) == pickle.dumps(record)
    # Records compare and hash by identity.
    assert record == record and record != shallow and len({record, shallow}) == 2


def test_records_keep_the_numbers_they_checked():
    # Changing a caller's 0-d array or list after construction changes no field.
    n_def, gamma, transition = np.array(1e23), np.array(1e8), [1.5, 0.5]
    species = DefectSpecies("Cr", 3, n_def, gamma, transition, SPECIES.lines)
    loss = species_loss(species, OMEGA)
    n_def[()], gamma[()], transition[0] = 5.0, 1.0, 99.0
    assert (species.n_def, species.gamma, species.transition) == (1e23, 1e8, (1.5, 0.5))
    assert species_loss(species, OMEGA) == loss
    d, g_e, e = np.array(1e10), np.array(2.0), np.array(1e9)
    params = SpinHamiltonianParams(d=d, g_e=g_e, e=e)
    hamiltonian = build_hamiltonian(3, params)
    d[()], g_e[()], e[()] = 0.0, -1.0, 5e9
    assert (params.d, params.g_e, params.e) == (1e10, 2.0, 1e9)
    assert np.array_equal(build_hamiltonian(3, params), hamiltonian)
    # A generator's pair is read once, by the ladder check, and kept.
    once = DefectSpecies("x", 3, 1e23, 1e8, (m for m in (1.5, 0.5)), SPECIES.lines)
    assert once.transition == (1.5, 0.5)
    for value in (species.n_def, species.gamma, *species.transition, *once.transition,
                  params.d, params.g_e, params.e):
        assert type(value) is float


NOT_LISTS = (
    st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, 2.2e-308, 1e154, 1e-154]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.complex_numbers(),
    st.just(np.empty(0)),
    hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=3), elements=st.floats()
    ),
)
WILD = st.one_of(*NOT_LISTS, st.lists(st.floats(), max_size=3))
# SpeciesLines holds a species' numbers unchecked, NaN and +-inf included:
# DefectSpecies checks them, naming the species and line (tests/test_ensemble.py),
# so the lists drawn for it hold finite floats.
LINES_WILD = st.one_of(
    *NOT_LISTS, st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3)
)


def assert_finite(result):
    """Every number in result, through records (fields and properties), dicts and
    sequences, is finite."""
    if isinstance(result, Record):
        cls = type(result)
        properties = [name for name, attr in vars(cls).items() if isinstance(attr, property)]
        for name in (*cls.__slots__, *properties):
            assert_finite(getattr(result, name))
    elif isinstance(result, dict):
        for value in result.values():
            assert_finite(value)
    elif not isinstance(result, str):
        arr = np.asarray(result)
        assert arr.dtype.kind in "biufc" and np.isfinite(arr).all(), result


def test_numeric_table_covers_all():
    assert {call.__name__ for call, _, _ in NUMERIC} | NOT_NUMERIC == set(paramagloss.__all__)


def row_id(call, kwargs):
    """The test id of a NUMERIC row: its call's name, marked for an empty database."""
    return call.__name__ + ("-no_species" if kwargs.get("db") == [] else "")


def assert_finite_or_library_error(call, kwargs):
    """call(**kwargs) gives finite values or raises ParamagLossError, and warns of nothing;
    a Spectrum's total and species columns have its grid's shape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**kwargs)
        except ParamagLossError:
            return
    assert_finite(result)
    if isinstance(result, Spectrum):
        for column in (result.total, *result.per_species.values()):
            assert column.shape == result.freqs_ghz.shape, kwargs


@settings(max_examples=100, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize(
    "call, kwargs, args", [pytest.param(*row, id=row_id(*row[:2])) for row in NUMERIC]
)
def test_any_argument_gives_finite_values_or_a_library_error(call, kwargs, args, data):
    kwargs = dict(kwargs)
    base = LINES_WILD if call is SpeciesLines else WILD
    for arg in args:
        wild = st.tuples(WILD, WILD) if arg == "transition" else base
        kwargs[arg] = data.draw(st.one_of(st.just(kwargs[arg]), wild), label=arg)
    assert_finite_or_library_error(call, kwargs)


@pytest.mark.parametrize(
    "call, kwargs, arg",
    [
        pytest.param(call, kwargs, arg, id=f"{row_id(call, kwargs)}-{arg}")
        for call, kwargs, args in NUMERIC
        for arg in args
    ],
)
def test_float_maximum_array_gives_finite_values_or_a_library_error(call, kwargs, arg):
    # Near-maximal floats as a 2-D array in each argument in turn: products past
    # the float range on the array path, tried on every run rather than drawn.
    assert_finite_or_library_error(call, dict(kwargs, **{arg: np.full((2, 1), 1e308)}))
