"""Special-function kernels against frozen values and classical identities."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospectra import specfun
from isospectra.errors import DivergenceError
from isospectra.oracle import quadrature
from isospectra.specfun import (
    hermite,
    kummer_1f1,
    laguerre,
    laguerre_derivative,
    log_gamma,
)


def test_laguerre_low_orders_closed_form():
    # L_0 = 1, L_1^a(z) = 1 + a - z, L_2^a from the explicit quadratic
    assert laguerre(0, 0.5, 3.0) == 1.0
    assert laguerre(1, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
    a, z = 1.5, 2.0
    expect = (a + 1) * (a + 2) / 2 - (a + 2) * z + z * z / 2
    assert laguerre(2, a, z) == pytest.approx(expect, abs=1e-14)


def test_laguerre_rejects_bad_arguments():
    with pytest.raises(ValueError):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, 0.5, -0.1)
    with pytest.raises(ValueError):
        laguerre(True, 0.5, 1.0)


@pytest.mark.parametrize(
    "n,message",
    [
        (True, "degree must be an integer, got True"),
        (-1, "degree must be non-negative, got -1"),
        (1.0, "degree must be an integer, got 1.0"),
    ],
)
def test_degree_check_rejects(n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        laguerre(n, 0.5, 1.0)


def test_degree_check_accepts_numpy_integers():
    assert laguerre(np.int64(3), 0.5, 1.3) == laguerre(3, 0.5, 1.3)
    assert hermite(np.int64(3), 1.3) == hermite(3, 1.3)


def test_laguerre_scalar_matches_array():
    zs = np.linspace(0.0, 30.0, 61)
    for n, a in [(0, 0.5), (3, 1.5), (7, 2.5), (12, 0.5)]:
        arr = laguerre(n, a, zs)
        one_by_one = np.array([laguerre(n, a, float(z)) for z in zs])
        assert np.array_equal(arr, one_by_one)


def test_laguerre_derivative_frozen_values():
    assert laguerre_derivative(0, 2.0, 5.0) == 0.0
    assert laguerre_derivative(1, 0.5, 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_laguerre_derivative_matches_finite_difference():
    n, a, z = 4, 1.5, 0.7
    h = 1e-6
    fd = (laguerre(n, a, z + h) - laguerre(n, a, z - h)) / (2 * h)
    assert laguerre_derivative(n, a, z) == pytest.approx(fd, abs=1e-8)


@given(
    n=st.integers(min_value=2, max_value=15),
    a=st.floats(min_value=-0.9, max_value=5.0),
    z=st.floats(min_value=0.0, max_value=40.0),
)
@settings(max_examples=60, deadline=None)
def test_laguerre_three_term_recurrence(n, a, z):
    # (n+1) L_{n+1} = (2n+1+a-z) L_n - (n+a) L_{n-1}
    lhs = (n + 1) * laguerre(n + 1, a, z)
    rhs = (2 * n + 1 + a - z) * laguerre(n, a, z) - (n + a) * laguerre(n - 1, a, z)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
def test_laguerre_weighted_orthogonality(alpha):
    """Quadrature oracle confirms the weighted orthogonality relation.

    Integrated in u = sqrt(z) so the half-integer weight has no kink at
    the origin.
    """
    n_max = 8
    for n in range(n_max + 1):
        for m in range(n, n_max + 1):
            val = quadrature(
                lambda u: 2.0
                * u ** (2 * alpha + 1)
                * math.exp(-u * u)
                * laguerre(n, alpha, u * u)
                * laguerre(m, alpha, u * u),
                0.0,
                math.inf,
                tol=1e-11,
            )
            if n == m:
                expect = math.exp(log_gamma(n + alpha + 1.0) - log_gamma(n + 1.0))
            else:
                expect = 0.0
            assert abs(val - expect) <= 1e-9 * max(1.0, abs(expect))


def test_kummer_terminating_cases():
    assert kummer_1f1(-3.0, 2.5, 0.0) == 1.0
    assert kummer_1f1(-1.0, 2.5, 1.0) == pytest.approx(0.6, abs=1e-15)
    assert kummer_1f1(0.0, 2.5, 7.0) == 1.0


def test_kummer_reduces_to_laguerre():
    # L_n^a(z) = binom(n+a, n) M(-n, a+1, z)
    n, a, z = 2, 1.5, 1.5
    binom = math.exp(log_gamma(n + a + 1.0) - log_gamma(n + 1.0) - log_gamma(a + 1.0))
    assert binom * kummer_1f1(-n, a + 1.0, z) == pytest.approx(laguerre(n, a, z), abs=1e-13)


def test_kummer_exponential_case():
    # M(a, a, z) = e^z
    assert kummer_1f1(1.5, 1.5, 2.0) == pytest.approx(math.exp(2.0), rel=1e-14)


def test_kummer_pole_in_denominator_parameter():
    with pytest.raises(ValueError):
        kummer_1f1(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        kummer_1f1(-4.0, -3.0, 1.0)
    # terminating numerator shields the pole
    assert math.isfinite(kummer_1f1(-2.0, -3.0, 1.0))


def test_kummer_overflow_raises():
    with pytest.raises(DivergenceError):
        kummer_1f1(1.0, 2.0, 1e4)


def test_hermite_frozen_values():
    assert hermite(0, 0.3) == 1.0
    assert hermite(1, 1.0) == 2.0
    assert hermite(2, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert hermite(3, 0.5) == pytest.approx(8 * 0.125 - 12 * 0.5, abs=1e-14)


def test_hermite_scalar_matches_array():
    ys = np.linspace(-3.0, 3.0, 25)
    for n in (0, 1, 4, 9):
        arr = hermite(n, ys)
        one_by_one = np.array([hermite(n, float(y)) for y in ys])
        assert np.array_equal(arr, one_by_one)


@given(n=st.integers(min_value=0, max_value=12), y=st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_hermite_parity(n, y):
    sign = -1.0 if n % 2 else 1.0
    left = hermite(n, -y)
    right = sign * hermite(n, y)
    assert abs(left - right) <= 1e-10 * max(1.0, abs(right))


def test_log_gamma_frozen_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-15)


def test_log_gamma_recurrence():
    x = 7.5
    assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(math.log(x), abs=1e-14)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)


def _reference_laguerre(n, alpha, z):
    """The recurrence as it was written before its coefficients were cached, for a bit-for-bit reference."""
    if np.ndim(z) == 0:
        z, prev = float(z), 1.0
    else:
        z = np.asarray(z, dtype=float)
        prev = np.ones_like(z)
    if n == 0:
        return prev
    cur = 1.0 + alpha - z
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - z) * cur - (k + alpha) * prev) / (k + 1)
    return cur


_REFERENCE_ZS = [0.0, 5e-324, 1e-300, 1e-8, 0.37, 1.0, 3.7, 25.0, 140.0, 1e3]


@pytest.mark.parametrize("alpha", [-0.999, 0.0, 0.5, 2.5, 7.25])
def test_laguerre_matches_the_uncached_recurrence_bit_for_bit(alpha):
    zs = np.array(_REFERENCE_ZS)
    for n in range(61):
        for z in _REFERENCE_ZS:
            got, want = laguerre(n, alpha, z), _reference_laguerre(n, alpha, z)
            assert type(got) is float and got.hex() == want.hex(), (n, z)
        assert laguerre(n, alpha, zs).tobytes() == _reference_laguerre(n, alpha, zs).tobytes(), n


def test_laguerre_derivative_matches_the_uncached_recurrence_bit_for_bit():
    zs = np.array(_REFERENCE_ZS)
    for alpha in (-0.999, 0.5, 7.25):
        assert laguerre_derivative(0, alpha, 3.7) == 0.0
        assert laguerre_derivative(0, alpha, zs).tobytes() == np.zeros_like(zs).tobytes()
        for n in range(1, 40):
            want = -_reference_laguerre(n - 1, alpha + 1.0, zs)
            assert laguerre_derivative(n, alpha, zs).tobytes() == want.tobytes()
            assert laguerre_derivative(n, alpha, 3.7).hex() == float(-_reference_laguerre(n - 1, alpha + 1.0, 3.7)).hex()


def test_laguerre_coefficient_cache_stays_at_its_bound():
    for k in range(10_000):
        laguerre(4, 0.5 + k * 1e-3, 1.3)
    info = specfun._laguerre_steps.cache_info()
    assert info.maxsize == specfun._LAGUERRE_CACHE_SIZE
    assert info.currsize == specfun._LAGUERRE_CACHE_SIZE


def test_scalar_laguerre_is_a_float_after_a_numpy_order_was_cached():
    alpha = 0.8125  # not used elsewhere, so the numpy call below makes the entry
    first = laguerre(6, np.float64(alpha), 1.5)
    assert type(first) is float
    assert type(laguerre(6, alpha, 1.5)) is float and laguerre(6, alpha, 1.5) == first
    assert type(laguerre(6, np.float64(alpha), np.float64(1.5))) is float
    assert all(type(c) is float for step in specfun._laguerre_steps(6, alpha) for c in step)


@pytest.mark.parametrize(
    "alpha,z,message",
    [
        (math.nan, 1.0, "alpha must be finite and exceed -1, got nan"),
        (math.inf, 1.0, "alpha must be finite and exceed -1, got inf"),
        (0.5, math.inf, "argument must be finite and non-negative, got inf"),
        (0.5, math.nan, "argument must be finite and non-negative, got nan"),
        (0.5, np.array([1.0, math.nan]), "argument must be non-negative and not NaN"),
    ],
)
def test_laguerre_rejects_non_finite_arguments(alpha, z, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        laguerre(3, alpha, z)


def test_laguerre_overflow_raises_for_a_scalar_and_stays_in_an_array():
    with pytest.raises(DivergenceError, match="^the Laguerre recurrence overflows the float range at n = 2000"):
        laguerre(2000, 0.5, 1600.0)
    with np.errstate(over="ignore", invalid="ignore"):
        column = laguerre(2000, 0.5, np.array([1.0, 1600.0]))
    assert math.isfinite(column[0]) and not math.isfinite(column[1])


@pytest.mark.parametrize(
    "y,message",
    [
        (math.nan, "argument must be finite, got nan"),
        (-math.inf, "argument must be finite, got -inf"),
        (np.array([0.5, math.nan]), "argument must not be NaN"),
    ],
)
def test_hermite_rejects_non_finite_arguments(y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        hermite(3, y)


def test_hermite_overflow_raises_for_a_scalar_and_stays_in_an_array():
    with pytest.raises(DivergenceError, match="^the Hermite recurrence overflows the float range at n = 400, y = 30.0$"):
        hermite(400, 30.0)
    with np.errstate(over="ignore", invalid="ignore"):
        column = hermite(200, np.array([0.5, 1e3]))
    assert math.isfinite(column[0]) and not math.isfinite(column[1])
