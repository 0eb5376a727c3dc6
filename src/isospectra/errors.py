"""Exception types shared across the package, and the one home of each argument rule.

``_check_index`` (an integer level, degree, orbital index or count),
``_check_positive`` (a scale: M, omega, hbar, c) and ``_check_finite``
raise ValueError; ``_in_float_range``, ``_square`` and ``_divisor_square``
raise DivergenceError naming a derived scale that leaves the float range.
"""
from __future__ import annotations

import math
from numbers import Integral

__all__ = [
    "SpectraError",
    "UnphysicalRegime",
    "NonNormalizableError",
    "NoRootInRange",
    "NoConvergence",
    "DivergenceError",
    "GridTooCoarse",
    "ToleranceNotMet",
    "DegenerateEnergy",
]


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


def _check_index(value, name: str = "level index", least: int = 0) -> int:
    """value as an int; ValueError unless it is an integer, not a bool, of at least ``least``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f">= {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _check_positive(name: str, value: float) -> None:
    """ValueError unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_finite(name: str, value: float) -> None:
    """ValueError unless value is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _in_float_range(value: float, scale: str) -> float:
    """value, a scale built from the parameters; DivergenceError names the scale if it is not finite."""
    if not math.isfinite(value):
        raise DivergenceError(f"the scale {scale} leaves the float range")
    return value


def _square(value: float, name: str) -> float:
    """value^2 by _in_float_range; float ** raises OverflowError where * gives inf and numpy ** warns."""
    try:
        squared = float(value) ** 2
    except OverflowError:
        squared = math.inf
    return _in_float_range(squared, f"{name}^2 = ({value})^2")


def _divisor_square(value: float, name: str) -> float:
    """_square(value, name) for a square that is divided by; DivergenceError names it if it underflows to 0."""
    squared = _square(value, name)
    if squared == 0.0:
        raise DivergenceError(f"the scale {name}^2 = ({value})^2 underflows to 0")
    return squared
