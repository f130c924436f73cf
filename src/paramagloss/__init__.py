"""Microwave absorption and dielectric loss from paramagnetic defect spins.

The package models magnetic-dipole transitions between zero-field-split
spin sublevels: spin operators and Hamiltonians, transition moments,
broadened cross sections, loss tangents aggregated over defect
ensembles, and spontaneous-emission rates with moment extraction.
"""

from .absorption import (
    absorption_coefficient,
    intensity_profile,
    loss_tangent,
    sigma_ed,
    sigma_md,
)
from .constants import CODATA2018, PhysicalConstants, ghz_to_angular, mhz_to_angular
from .emission import (
    EmissionLine,
    a_md,
    extract_moment,
    ghz_equivalent_rate,
    photon_dos,
    read_emission_table,
    wavelength_to_angular,
)
from .ensemble import (
    DefectSpecies,
    SpeciesLines,
    Spectrum,
    default_db_path,
    default_emission_path,
    line_coupling_sq,
    load_species_db,
    species_loss,
    sweep,
)
from .errors import ParamagLossError
from .linalg import EigenDecomposition, diagonalize
from .lineshape import (
    LineshapeSpec,
    gaussian,
    lorentzian,
    power_broadened_gamma,
    tanh_factor,
    temperature_factor,
    voigt,
)
from .spin import (
    SpinHamiltonianParams,
    SpinOperators,
    TransitionMoment,
    basis_state,
    build_hamiltonian,
    spin_operators,
    transition_moment,
    unpolarized_coupling,
)

__version__ = "0.1.0"

__all__ = [
    "CODATA2018",
    "DefectSpecies",
    "EigenDecomposition",
    "EmissionLine",
    "LineshapeSpec",
    "ParamagLossError",
    "PhysicalConstants",
    "SpeciesLines",
    "SpinHamiltonianParams",
    "SpinOperators",
    "Spectrum",
    "TransitionMoment",
    "a_md",
    "absorption_coefficient",
    "basis_state",
    "build_hamiltonian",
    "default_db_path",
    "default_emission_path",
    "diagonalize",
    "extract_moment",
    "gaussian",
    "ghz_equivalent_rate",
    "ghz_to_angular",
    "intensity_profile",
    "line_coupling_sq",
    "load_species_db",
    "lorentzian",
    "loss_tangent",
    "mhz_to_angular",
    "photon_dos",
    "power_broadened_gamma",
    "read_emission_table",
    "sigma_ed",
    "sigma_md",
    "species_loss",
    "spin_operators",
    "sweep",
    "tanh_factor",
    "temperature_factor",
    "transition_moment",
    "unpolarized_coupling",
    "voigt",
    "wavelength_to_angular",
]
