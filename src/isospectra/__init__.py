"""Closed-form bound states of the isotonic oscillator.

The half-line well (1/2) M omega^2 x^2 + g/(2 x^2) solved across the
nonrelativistic, Dirac (spin- and pseudospin-aligned) and Klein-Gordon
wave equations, with independent grid/quadrature oracles and
cross-validation suites backing every closed form.
"""
from __future__ import annotations

from .errors import (
    DegenerateEnergy,
    DivergenceError,
    GridTooCoarse,
    NoConvergence,
    NonNormalizableError,
    NoRootInRange,
    SpectraError,
    ToleranceNotMet,
    UnphysicalRegime,
)
from .nonrel import (
    NON_NORMALIZABLE,
    Branch,
    DerivedNonrel,
    EnergyLevel,
    NonNormalizable,
    OscillatorParams,
    Regime,
    classify_regime,
    derive,
    energy,
    harmonic_energy,
    harmonic_wavefunction,
    oscillator3d_energy,
    oscillator3d_radial,
    parity_extend,
    wavefunction,
)
from .nu import HypergeometricForm, NUReduction, nu_eigencondition, nu_reduce
from .oracle import (
    Grid,
    OracleMethod,
    OracleReport,
    dirac_selfconsistent,
    fd_eigenvalues,
    ode_residual,
    quadrature,
    scan_roots,
)
from .rel import (
    DiracParams,
    PseudospinDerived,
    SpinDerived,
    Symmetry,
    energy_residual,
    klein_gordon_energy,
    klein_gordon_residual,
    nonrel_limit_check,
    pseudospin_derived,
    pseudospin_energy_residual,
    pseudospin_lower_spinor,
    pseudospin_map_check,
    solve_levels,
    solve_pseudospin_energy,
    solve_spin_energy,
    spin_derived,
    spin_energy_residual,
    spin_lower_spinor,
    spin_upper_spinor,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SpectraError",
    "UnphysicalRegime",
    "NonNormalizableError",
    "NoRootInRange",
    "NoConvergence",
    "DivergenceError",
    "GridTooCoarse",
    "ToleranceNotMet",
    "DegenerateEnergy",
    # nonrelativistic
    "Branch",
    "Regime",
    "OscillatorParams",
    "DerivedNonrel",
    "EnergyLevel",
    "NonNormalizable",
    "NON_NORMALIZABLE",
    "derive",
    "classify_regime",
    "energy",
    "wavefunction",
    "parity_extend",
    "harmonic_energy",
    "harmonic_wavefunction",
    "oscillator3d_energy",
    "oscillator3d_radial",
    # reduction machinery
    "HypergeometricForm",
    "NUReduction",
    "nu_reduce",
    "nu_eigencondition",
    # relativistic
    "Symmetry",
    "DiracParams",
    "SpinDerived",
    "PseudospinDerived",
    "spin_derived",
    "pseudospin_derived",
    "energy_residual",
    "spin_energy_residual",
    "pseudospin_energy_residual",
    "solve_spin_energy",
    "solve_pseudospin_energy",
    "solve_levels",
    "spin_upper_spinor",
    "spin_lower_spinor",
    "pseudospin_lower_spinor",
    "klein_gordon_energy",
    "klein_gordon_residual",
    "pseudospin_map_check",
    "nonrel_limit_check",
    # oracles
    "Grid",
    "OracleMethod",
    "OracleReport",
    "fd_eigenvalues",
    "quadrature",
    "scan_roots",
    "dirac_selfconsistent",
    "ode_residual",
]
