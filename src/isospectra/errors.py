"""Exception types shared across the package."""
from __future__ import annotations


class SpectraError(Exception):
    """Base class for every failure mode this package raises on purpose."""


class UnphysicalRegime(SpectraError):
    """Coupling or parameter set admits no bound-state ladder."""


class NonNormalizableError(SpectraError):
    """A requested state has no square-integrable representative."""


class NoRootInRange(SpectraError):
    """Energy root finder exhausted its admissible search window."""


class NoConvergence(SpectraError):
    """Iterative scheme failed to settle within its iteration budget."""


class DivergenceError(SpectraError):
    """A series or a scale left the float range, or a series failed to converge in its term budget."""


class GridTooCoarse(SpectraError):
    """Discretization error estimate exceeds what the grid can support."""


class ToleranceNotMet(SpectraError):
    """Adaptive quadrature could not reach the requested tolerance."""


class DegenerateEnergy(SpectraError):
    """Energy sits on a pole of the coupling between spinor components."""
