"""Reduction of a hypergeometric-type radial equation to polynomial form.

Every wave equation in this package, after substituting s = (scaled
coordinate)^2, takes the shape

    u''(s) + (1 / (2s)) u'(s) + (a2 s^2 + a1 s + a0) / (2s)^2 u(s) = 0.

Factoring u = phi(s) y(s) with a suitable phi turns this into an
equation whose square-integrable solutions are weight-times-polynomial,
and quantization reduces to matching a parameter ``lam`` against the
ladder value ``lam_n = -n * tau_slope``. This module performs that
reduction once, generically; the wave-equation modules feed it their
coefficients and read energies off the eigencondition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnphysicalRegime, _check_finite, _check_index, _in_float_range

__all__ = ["HypergeometricForm", "NUReduction", "nu_reduce", "nu_eigencondition"]


@dataclass(frozen=True)
class HypergeometricForm:
    """Quadratic coefficient triple (a2, a1, a0) of the reduced radial equation.

    a2 < 0 encodes confinement, a1 carries the energy and a0 the
    centrifugal-like coupling.
    """

    a2: float
    a1: float
    a0: float


@dataclass(frozen=True)
class NUReduction:
    """Outcome of the polynomial reduction.

    pi_const, pi_slope   linear factor pi(s) = pi_const + pi_slope * s
                         extracted from the square root, root branch
                         chosen so the resulting tau decreases
    k                    the shift that makes the discriminant a
                         perfect square on that branch
    tau_const, tau_slope coefficients of tau(s) = tau_const + tau_slope*s
    lam                  k + pi_slope, the quantization parameter
    weight_exponent      power of s in the polynomial weight s^w e^(-2ds)
    phi_exponent         power of s in the factored prefactor phi
    decay_rate           d in the exponential part of the weight
    """

    pi_const: float
    pi_slope: float
    k: float
    tau_const: float
    tau_slope: float
    lam: float
    weight_exponent: float
    phi_exponent: float
    decay_rate: float


def nu_reduce(form: HypergeometricForm) -> NUReduction:
    """Reduce a coefficient triple to its bound-state data.

    Requires finite coefficients and a2 < 0, else ValueError. Raises
    UnphysicalRegime when 1 - 4*a0 < 0, i.e. when the singular-point
    coupling is too attractive for a square-integrable ladder, and
    DivergenceError naming 1 - 4*a0 or k when either leaves the float
    range; every other quantity of the reduction is then finite.
    """
    for name in ("a2", "a1", "a0"):
        _check_finite(name, getattr(form, name))
    if form.a2 >= 0.0:
        raise ValueError(f"a2 must be negative for bound states, got {form.a2}")
    disc = _in_float_range(1.0 - 4.0 * form.a0, "1 - 4 a0")
    if disc < 0.0:
        raise UnphysicalRegime(f"1 - 4*a0 = {disc} < 0: coupling admits no bound-state ladder")

    b = math.sqrt(-form.a2)
    root = math.sqrt(disc)
    # Minus branch of k: the only choice that gives tau_slope < 0 and a
    # normalizable weight.
    k = _in_float_range(0.5 * (form.a1 - b * root), "k = (a1 - sqrt(-a2) sqrt(1 - 4 a0)) / 2")
    pi_const = 0.5 * (1.0 + root)
    pi_slope = -b
    tau_const = 1.0 + 2.0 * pi_const
    tau_slope = 2.0 * pi_slope
    lam = k + pi_slope
    weight_exponent = 0.5 * root
    phi_exponent = 0.25 + 0.5 * weight_exponent
    decay_rate = 0.5 * b
    return NUReduction(
        pi_const=pi_const,
        pi_slope=pi_slope,
        k=k,
        tau_const=tau_const,
        tau_slope=tau_slope,
        lam=lam,
        weight_exponent=weight_exponent,
        phi_exponent=phi_exponent,
        decay_rate=decay_rate,
    )


def nu_eigencondition(red: NUReduction, n: int) -> float:
    """Return lam - lam_n where lam_n = -n * tau_slope.

    Zero exactly at the n-th bound state; the wave-equation modules
    solve this for the energy hidden inside a1.
    """
    return red.lam + _check_index(n) * red.tau_slope
