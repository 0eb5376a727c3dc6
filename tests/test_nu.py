"""The generic polynomial reduction: frozen cases and algebraic invariants."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospectra.errors import DivergenceError, UnphysicalRegime
from isospectra.nu import HypergeometricForm, NUReduction, nu_eigencondition, nu_reduce
from isospectra.oracle import scan_roots


def test_reduce_frozen_case():
    red = nu_reduce(HypergeometricForm(a2=-1.0, a1=3.0, a0=-2.0))
    assert red.pi_const == 2.0
    assert red.pi_slope == -1.0
    assert red.k == 0.0
    assert red.tau_const == 5.0
    assert red.tau_slope == -2.0
    assert red.lam == -1.0
    assert red.weight_exponent == 1.5
    assert red.phi_exponent == 1.0
    assert red.decay_rate == 0.5


def test_reduce_second_frozen_case():
    # steeper well, no singular coupling
    red = nu_reduce(HypergeometricForm(a2=-4.0, a1=6.0, a0=0.0))
    assert red.pi_const == 1.0
    assert red.pi_slope == -2.0
    assert red.k == 2.0
    assert red.tau_slope == -4.0
    assert red.lam == 0.0
    assert red.weight_exponent == 0.5
    assert nu_eigencondition(red, 0) == 0.0
    assert nu_eigencondition(red, 1) == -4.0


def test_reduce_rejects_non_confining():
    with pytest.raises(ValueError):
        nu_reduce(HypergeometricForm(a2=0.0, a1=1.0, a0=0.0))
    with pytest.raises(ValueError):
        nu_reduce(HypergeometricForm(a2=2.0, a1=1.0, a0=0.0))


def test_reduce_rejects_overcritical_coupling():
    with pytest.raises(UnphysicalRegime):
        nu_reduce(HypergeometricForm(a2=-1.0, a1=1.0, a0=0.2500001))


@pytest.mark.parametrize(
    "form, scale",
    [
        (HypergeometricForm(a2=-1.0, a1=1.0, a0=-1e308), r"1 - 4 a0"),
        (HypergeometricForm(a2=-1.7e308, a1=-1.7e308, a0=-1e307), r"k = \(a1 - sqrt\(-a2\) sqrt\(1 - 4 a0\)\) / 2"),
    ],
    ids=["disc", "k"],
)
def test_reduce_names_a_quantity_that_leaves_the_float_range(form, scale):
    # every coefficient is finite; 1 - 4 a0 = 4e308, or a1 - sqrt(-a2 (1 - 4 a0)), is not
    with pytest.raises(DivergenceError, match=rf"^the scale {scale} leaves the float range$"):
        nu_reduce(form)


def test_eigencondition_rejects_bad_level():
    red = nu_reduce(HypergeometricForm(-1.0, 3.0, -2.0))
    with pytest.raises(ValueError):
        nu_eigencondition(red, -1)
    with pytest.raises(ValueError):
        nu_eigencondition(red, 1.5)
    with pytest.raises(ValueError):
        nu_eigencondition(red, True)


def _pi(red: NUReduction, s: float) -> float:
    return red.pi_const + red.pi_slope * s


@given(
    a2=st.floats(min_value=-10.0, max_value=-0.01),
    a1=st.floats(min_value=-10.0, max_value=10.0),
    a0=st.floats(min_value=-10.0, max_value=0.25),
)
@settings(max_examples=100, deadline=None)
def test_square_root_substitution_identity(a2, a1, a0):
    """(pi(s) - 1/2)^2 == 1/4 - (a2 s^2 + a1 s + a0) + 2 k s on the chosen branch."""
    red = nu_reduce(HypergeometricForm(a2, a1, a0))
    for s in (0.1, 0.7, 1.0, 3.0, 10.0):
        lhs = (_pi(red, s) - 0.5) ** 2
        rhs = 0.25 - (a2 * s * s + a1 * s + a0) + 2.0 * red.k * s
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(
    a2=st.floats(min_value=-10.0, max_value=-0.01),
    a1=st.floats(min_value=-10.0, max_value=10.0),
    a0=st.floats(min_value=-10.0, max_value=0.25),
)
@settings(max_examples=100, deadline=None)
def test_reduction_invariants(a2, a1, a0):
    red = nu_reduce(HypergeometricForm(a2, a1, a0))
    assert red.tau_slope < 0.0
    assert red.decay_rate > 0.0
    assert red.weight_exponent >= 0.0
    assert red.tau_slope == 2.0 * red.pi_slope
    assert red.lam == red.k + red.pi_slope
    # ladder values strictly decrease with n, so each level is unique
    assert nu_eigencondition(red, 3) < nu_eigencondition(red, 2)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 6.0])
def test_ladder_reproduces_harmonic_plus_barrier_spectrum(alpha):
    """Root of the eigencondition in the energy matches 2n + 1 + xi.

    The triple (-1, 2E, -alpha) is the reduced oscillator-with-barrier
    equation in units hbar*omega = 1; the reduction must put its roots
    on the shifted even ladder.
    """
    xi = 0.5 * math.sqrt(1.0 + 4.0 * alpha)
    for n in range(11):
        def f(e):
            return nu_eigencondition(nu_reduce(HypergeometricForm(-1.0, 2.0 * e, -alpha)), n)

        expect = 2.0 * n + 1.0 + xi
        assert abs(f(expect)) <= 1e-12 * max(1.0, expect)
        roots = scan_roots(f, 0.1, 40.0, 400)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(expect, abs=1e-10)
