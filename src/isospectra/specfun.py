"""Special-function kernels behind the closed-form spectra.

The associated Laguerre polynomial, the one special function every state
and spinor is built from, is evaluated by its three-term recurrence, so
the bound-state wavefunctions depend on nothing heavier than numpy. Its
recurrence coefficients of each (degree, order) are computed once and
kept in a bounded cache, as a quadrature samples one state thousands of
times. The confluent hypergeometric function 1F1 comes from
``scipy.special.hyp1f1``; it is the independent route that ``validate``
checks the recurrence against.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, _check_finite, _check_index

__all__ = ["laguerre", "kummer_1f1"]

# (degree, order) pairs whose Laguerre recurrence coefficients are kept. A
# quadrature integrand samples one to three states thousands of times; an
# array call samples its state once. A degree-n entry holds n - 1 float
# triples, so the bound also bounds the memory.
_LAGUERRE_CACHE_SIZE = 16


@lru_cache(maxsize=_LAGUERRE_CACHE_SIZE)
def _laguerre_steps(n: int, alpha: float) -> tuple:
    """((2k+1+alpha, k+alpha, k+1) for k = 1 .. n-1): the coefficients of laguerre's recurrence.

    alpha must be a float: np.float64 hashes and compares equal to it, so
    a numpy key would fill the entry with numpy scalars. Each coefficient
    is formed as the recurrence formed it in place, so cached and uncached
    sums agree bit for bit.
    """
    return tuple((2 * k + 1 + alpha, k + alpha, float(k + 1)) for k in range(1, n))


def laguerre(n: int, alpha: float, z):
    """Associated Laguerre polynomial L_n^(alpha)(z).

    Evaluated by the upward three-term recurrence in the degree,

        (k+1) L_{k+1} = (2k+1+alpha-z) L_k - (k+alpha) L_{k-1},

    which is stable on the domain the wavefunctions use (z >= 0,
    alpha > -1). Accepts scalar or array z and matches the input shape;
    a scalar z gives a float. alpha must be finite and a scalar z finite,
    else ValueError; a scalar result that leaves the float range raises
    DivergenceError. An array z may hold +inf where a scale such as
    beta x^2 overflowed upstream: those entries come back inf or NaN, for
    the caller to report with its column.
    """
    if type(n) is not int or n < 0:  # a valid plain int skips _check_index: a quadrature calls this ~10^5 times
        n = _check_index(n, "degree")
    alpha = float(alpha)
    if not -1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and exceed -1, got {alpha}")
    scalar = isinstance(z, float) or np.ndim(z) == 0
    if scalar:
        z = float(z)
        if not 0.0 <= z < math.inf:
            raise ValueError(f"argument must be finite and non-negative, got {z}")
        prev = 1.0
    else:
        z = np.asarray(z, dtype=float)
        if not np.all(z >= 0.0):
            raise ValueError("argument must be non-negative and not NaN")
        prev = np.ones_like(z)
    if n == 0:
        return prev
    cur = 1.0 + alpha - z
    for a, b, c in _laguerre_steps(n, alpha):
        prev, cur = cur, ((a - z) * cur - b * prev) / c
    if scalar and not -math.inf < cur < math.inf:
        raise DivergenceError(f"the Laguerre recurrence overflows the float range at n = {n}, alpha = {alpha}, z = {z}")
    return cur


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function 1F1(a; b; z), from ``scipy.special.hyp1f1``.

    The series terminates when a is a non-positive integer, the
    polynomial regime the spectra live in. A non-positive integer b is a
    pole of the series and is accepted only when the series terminates
    first (a a non-positive integer with |a| <= |b|).

    a, b and z must be finite, else ValueError. A value that is not
    finite raises DivergenceError.
    """
    from scipy.special import hyp1f1  # here, so that the sampling commands, which import this module, start without scipy

    a, b, z = float(a), float(b), float(z)
    for name, value in (("a", a), ("b", b), ("z", z)):
        _check_finite(name, value)
    a_terminates = a <= 0.0 and a == math.floor(a)
    b_is_pole = b <= 0.0 and b == math.floor(b)
    if b_is_pole and not (a_terminates and -a <= -b):
        raise ValueError(f"b={b} is a non-positive integer and the series does not terminate before its pole")
    if a == 0.0:
        return 1.0  # the empty sum, which hyp1f1 reports as inf at a pole b
    value = float(hyp1f1(a, b, z))
    if not math.isfinite(value):
        raise DivergenceError(f"1F1({a}; {b}; {z}) is not finite: hyp1f1 returned {value}")
    return value
