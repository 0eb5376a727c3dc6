"""Closed-form bound states of the isotonic oscillator.

The half-line well (1/2) M omega^2 x^2 + g / (2 x^2) solved across the
nonrelativistic, Dirac (spin- and pseudospin-aligned) and Klein-Gordon
wave equations, with independent grid/quadrature oracles and
cross-validation suites backing every closed form.
"""
from __future__ import annotations

from . import errors, nonrel, nu, oracle, rel
from .errors import *
from .nonrel import *
from .nu import *
from .oracle import *
from .rel import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *nonrel.__all__, *nu.__all__, *rel.__all__, *oracle.__all__]
