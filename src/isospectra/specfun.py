"""Special-function kernels behind the closed-form spectra.

Associated Laguerre and Hermite polynomials are evaluated by their
three-term recurrences and the confluent hypergeometric function by
direct series summation, so the bound-state wavefunctions depend on
nothing heavier than numpy. Normalization constants elsewhere go
through ``log_gamma`` to keep factorial ratios in log space.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DivergenceError

__all__ = [
    "laguerre",
    "laguerre_derivative",
    "kummer_1f1",
    "hermite",
    "log_gamma",
]

# Relative term size below which the hypergeometric series is considered
# converged; two consecutive hits required so a single accidental zero
# term (alternating z < 0 case) cannot stop the sum early.
_SERIES_RTOL = 1e-15
_SERIES_MAX_TERMS = 1000


def _check_degree(n: int) -> int:
    if type(n) is int and n >= 0:
        return n
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"degree must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    return int(n)


def laguerre(n: int, alpha: float, z):
    """Associated Laguerre polynomial L_n^(alpha)(z).

    Evaluated by the upward three-term recurrence in the degree,

        (k+1) L_{k+1} = (2k+1+alpha-z) L_k - (k+alpha) L_{k-1},

    which is stable on the domain the wavefunctions use (z >= 0,
    alpha > -1). Accepts scalar or array z and matches the input shape.
    """
    n = _check_degree(n)
    if alpha <= -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if isinstance(z, float) or np.ndim(z) == 0:
        # scalar fast path; the quadrature oracle hits this millions of times
        z, prev = float(z), 1.0
        negative = z < 0.0
    else:
        z = np.asarray(z, dtype=float)
        prev, negative = np.ones_like(z), np.any(z < 0.0)
    if negative:
        raise ValueError("argument must be non-negative")
    if n == 0:
        return prev
    cur = 1.0 + alpha - z
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - z) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def laguerre_derivative(n: int, alpha: float, z):
    """d/dz of L_n^(alpha)(z), via d/dz L_n^(a) = -L_{n-1}^(a+1)."""
    n = _check_degree(n)
    if n == 0:
        return 0.0 * laguerre(0, alpha + 1.0, z)  # zero in the shape of z
    return -laguerre(n - 1, alpha + 1.0, z)


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function 1F1(a; b; z) by direct series.

    The sum terminates exactly when a is a non-positive integer, which
    is the polynomial regime the spectra live in; that branch is summed
    in exact rational arithmetic and rounded once at the end. A
    non-positive integer b is a pole of the series and is accepted only
    when the series terminates first (a a non-positive integer with
    |a| <= |b|).

    Raises DivergenceError if 1000 terms fail to converge to 1e-15
    relative accuracy or a partial sum leaves the float range.
    """
    a = float(a)
    b = float(b)
    z = float(z)
    a_terminates = a <= 0.0 and a == math.floor(a)
    b_is_pole = b <= 0.0 and b == math.floor(b)
    if b_is_pole and not (a_terminates and -a <= -b):
        raise ValueError(f"b={b} is a non-positive integer and the series does not terminate before its pole")

    if a_terminates:
        # Alternating terms can exceed the sum by ~1e10 for z ~ 30, so a
        # float loop keeps only ~6 good digits. Floats are dyadic
        # rationals, hence the finite sum is an exact Fraction.
        total = term = Fraction(1)
        ai, bf, zf = int(a), Fraction(b), Fraction(z)
        for k in range(-ai):
            term *= Fraction(ai + k) * zf / ((bf + k) * (k + 1))
            total += term
        try:
            return float(total)
        except OverflowError:
            raise DivergenceError(f"terminating series for 1F1({a}; {b}; {z}) exceeds the float range") from None

    total = 1.0
    term = 1.0
    small_streak = 0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        if not (math.isfinite(term) and math.isfinite(total)):
            raise DivergenceError(f"series for 1F1({a}; {b}; {z}) left the float range at term {k + 1}")
        if abs(term) <= _SERIES_RTOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise DivergenceError(f"series for 1F1({a}; {b}; {z}) did not converge in {_SERIES_MAX_TERMS} terms")


def hermite(n: int, y):
    """Physicists' Hermite polynomial H_n(y).

    Upward recurrence H_{k+1} = 2 y H_k - 2 k H_{k-1}. Scalar or array y.
    """
    n = _check_degree(n)
    if isinstance(y, float) or np.ndim(y) == 0:
        y, prev = float(y), 1.0
    else:
        y = np.asarray(y, dtype=float)
        prev = np.ones_like(y)
    if n == 0:
        return prev
    cur = 2.0 * y
    for k in range(1, n):
        prev, cur = cur, 2.0 * y * cur - 2.0 * k * prev
    return cur


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)
