"""Microwave absorption and dielectric loss from paramagnetic defect spins.

The package models magnetic-dipole transitions between zero-field-split
spin sublevels: spin operators and Hamiltonians, transition moments,
broadened cross sections, loss tangents aggregated over defect
ensembles, and spontaneous-emission rates with moment extraction.
"""

import importlib

# Each public name and the module that defines it, in __all__'s order.  A
# name's module is imported on its first lookup (PEP 562), so a program that
# uses one subcommand or one function loads only the modules that it needs.
_EXPORTS = {
    "DefectSpecies": "ensemble",
    "EigenDecomposition": "spin",
    "EmissionLine": "emission",
    "ParamagLossError": "errors",
    "SpeciesLines": "ensemble",
    "SpinHamiltonianParams": "spin",
    "SpinOperators": "spin",
    "Spectrum": "ensemble",
    "a_md": "emission",
    "absorption_coefficient": "absorption",
    "basis_state": "spin",
    "build_hamiltonian": "spin",
    "default_db_path": "ioformat",
    "default_emission_path": "ioformat",
    "diagonalize": "spin",
    "extract_moment": "emission",
    "ghz_to_angular": "constants",
    "line_coupling_sq": "ladder",
    "load_species_db": "ensemble",
    "lorentzian": "lineshape",
    "loss_tangent": "absorption",
    "photon_dos": "emission",
    "power_broadened_gamma": "lineshape",
    "read_emission_table": "emission",
    "sigma_md": "absorption",
    "species_loss": "ensemble",
    "spin_operators": "spin",
    "sweep": "ensemble",
    "tanh_factor": "lineshape",
    "temperature_factor": "lineshape",
    "transition_moment": "spin",
    "unpolarized_coupling": "spin",
    "wavelength_to_angular": "emission",
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


# The modules behind __all__ and the kernels they share, which callers reach
# as paramagloss.errors and the like without importing them first; importing
# one binds it here.
_SUBMODULES = {"_kernels", *_EXPORTS.values()}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
