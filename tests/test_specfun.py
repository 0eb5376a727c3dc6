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
from isospectra.specfun import kummer_1f1, laguerre


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


def test_laguerre_scalar_matches_array():
    zs = np.linspace(0.0, 30.0, 61)
    for n, a in [(0, 0.5), (3, 1.5), (7, 2.5), (12, 0.5)]:
        arr = laguerre(n, a, zs)
        one_by_one = np.array([laguerre(n, a, float(z)) for z in zs])
        assert np.array_equal(arr, one_by_one)


def test_laguerre_derivative_frozen_values():
    # d/dz L_n^(a) = -L_(n-1)^(a+1) (DLMF 18.9.14), the identity rel.spin_lower_spinor samples
    assert -laguerre(0, 1.5, 1.0) == -1.0  # d/dz L_1^(1/2)(z) = d/dz (3/2 - z)
    a, z = 1.5, 2.0
    # d/dz L_2^(a)(z) = d/dz ((a+1)(a+2)/2 - (a+2) z + z^2/2)
    assert -laguerre(1, a + 1.0, z) == pytest.approx(z - (a + 2.0), abs=1e-15)


def test_laguerre_derivative_matches_finite_difference():
    n, a, z = 4, 1.5, 0.7
    h = 1e-6
    fd = (laguerre(n, a, z + h) - laguerre(n, a, z - h)) / (2 * h)
    assert -laguerre(n - 1, a + 1.0, z) == pytest.approx(fd, abs=1e-8)


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
                expect = math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
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
    binom = math.exp(math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0))
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


@pytest.mark.parametrize(
    "a, b, z, expect",
    [
        # references from mpmath at 50 digits; a Taylor sum cancels at these z
        (1.3, 2.1, -30.0, 0.010898633633475818),
        (0.7, 1.9, -20.0, 0.12772067468587509),
        (4.607580420766851, 0.5143619632407821, -29.220014120338078, -2.1750475003950666e-06),
    ],
)
def test_kummer_frozen_values_at_negative_argument(a, b, z, expect):
    assert kummer_1f1(a, b, z) == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_kummer_at_zero_a_is_one_even_at_a_pole_b():
    # the series is the empty sum before it reaches the pole, where hyp1f1 returns inf
    for b in (2.5, 0.0, -3.0):
        assert kummer_1f1(0.0, b, -2.0) == kummer_1f1(0.0, b, 7.0) == 1.0


def test_kummer_transformation_on_a_seeded_sample():
    # M(a, b, z) = e^z M(b - a, b, -z) (DLMF 13.2.39) relates a negative z to a positive one.
    # A fixed sample, not hypothesis: near a zero of M the relative error has no bound.
    rng = np.random.default_rng(20170821)
    worst = 0.0
    for a, b, z in zip(rng.uniform(-5.0, 5.0, 2000), rng.uniform(0.1, 6.0, 2000), rng.uniform(-30.0, 30.0, 2000)):
        left, right = kummer_1f1(a, b, z), math.exp(z) * kummer_1f1(b - a, b, -z)
        worst = max(worst, abs(left - right) / abs(left))
    assert worst <= 1e-11


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
