"""Half-line oscillator with inverse-square barrier: levels, regimes, states."""
from __future__ import annotations

import math

import numpy as np
import pytest

from isospectra.errors import UnphysicalRegime
from isospectra.nonrel import (
    NON_NORMALIZABLE,
    Branch,
    EnergyLevel,
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
from isospectra.oracle import quadrature


def test_energy_ladder_natural_units():
    p = OscillatorParams(g=2.0)
    assert energy(0, p).value == pytest.approx(2.5, abs=1e-14)
    assert energy(1, p).value == pytest.approx(4.5, abs=1e-14)
    assert energy(3, p).value == pytest.approx(8.5, abs=1e-14)
    assert energy(0, OscillatorParams(g=6.0)).value == pytest.approx(3.5, abs=1e-14)


def test_energy_carries_units():
    p = OscillatorParams(mass=2.0, omega=3.0, g=1.0, hbar=0.5)
    alpha = p.mass * p.g / p.hbar**2
    xi = 0.5 * math.sqrt(1.0 + 4.0 * alpha)
    assert energy(2, p).value == pytest.approx(p.hbar * p.omega * (5.0 + xi), rel=1e-15)


def test_energy_level_record():
    lvl = energy(1, OscillatorParams(g=2.0))
    assert lvl.n == 1
    assert lvl.branch is Branch.NONREL_ISOTONIC
    assert lvl.residual == 0.0


def test_energy_level_validates():
    with pytest.raises(ValueError):
        EnergyLevel(n=-1, value=1.0, branch=Branch.NONREL_ISOTONIC, residual=0.0)
    with pytest.raises(ValueError):
        EnergyLevel(n=0, value=math.inf, branch=Branch.NONREL_ISOTONIC, residual=0.0)
    with pytest.raises(ValueError):
        EnergyLevel(n=0, value=1.0, branch=Branch.NONREL_ISOTONIC, residual=-1e-3)


def test_energy_rejects_bad_level_index():
    p = OscillatorParams()
    with pytest.raises(ValueError):
        energy(-1, p)
    with pytest.raises(ValueError):
        energy(0.5, p)


def test_unphysical_coupling_raises():
    with pytest.raises(UnphysicalRegime):
        energy(0, OscillatorParams(g=-0.26))
    # the boundary itself still has a ladder (xi = 0)
    assert energy(0, OscillatorParams(g=-0.25)).value == pytest.approx(1.0, abs=1e-12)


def test_regime_classification():
    assert classify_regime(-0.26) is Regime.UNPHYSICAL
    assert classify_regime(-0.25) is Regime.SELF_ADJOINT_EXTENSION_NEEDED
    assert classify_regime(0.0) is Regime.SELF_ADJOINT_EXTENSION_NEEDED
    assert classify_regime(0.7499) is Regime.SELF_ADJOINT_EXTENSION_NEEDED
    assert classify_regime(0.75) is Regime.IMPENETRABLE_BARRIER
    assert classify_regime(6.0) is Regime.IMPENETRABLE_BARRIER
    with pytest.raises(ValueError):
        classify_regime(math.nan)


@pytest.mark.parametrize("g", [0.5, 2.0, 6.0, 12.0])
def test_barrier_strength_factorizes(g):
    m = derive(OscillatorParams(g=g)).m
    assert m * (m + 1.0) == pytest.approx(g, abs=1e-12)


def test_derived_quantities_total():
    d = derive(OscillatorParams(g=-0.3))
    assert math.isnan(d.xi)
    assert math.isnan(d.m)
    assert d.beta == 1.0


def test_params_validate():
    with pytest.raises(ValueError):
        OscillatorParams(mass=0.0)
    with pytest.raises(ValueError):
        OscillatorParams(omega=-1.0)
    with pytest.raises(ValueError):
        OscillatorParams(g=math.inf)


def test_potential_shape():
    p = OscillatorParams(mass=2.0, omega=3.0, g=4.0)
    assert p.potential(1.0) == pytest.approx(0.5 * 2 * 9 + 2.0, abs=1e-14)
    xs = np.array([0.5, 1.0, 2.0])
    assert p.potential(xs).shape == (3,)


def test_wavefunction_rejects_nonpositive_x():
    p = OscillatorParams()
    with pytest.raises(ValueError):
        wavefunction(0, p, 0.0)
    with pytest.raises(ValueError):
        wavefunction(0, p, -1.0)
    with pytest.raises(ValueError):
        wavefunction(0, p, np.array([0.5, -0.5]))


@pytest.mark.parametrize("n,g", [(0, 2.0), (3, 2.0), (1, 0.5), (2, 6.0)])
def test_wavefunction_normalized(n, g):
    p = OscillatorParams(g=g)
    val = quadrature(lambda x: wavefunction(n, p, x) ** 2 if x > 0 else 0.0, 0.0, math.inf, tol=1e-11)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_wavefunction_orthogonal():
    p = OscillatorParams(g=2.0)
    val = quadrature(
        lambda x: wavefunction(1, p, x) * wavefunction(4, p, x) if x > 0 else 0.0,
        0.0,
        math.inf,
        tol=1e-11,
    )
    assert abs(val) <= 1e-9


def test_wavefunction_node_count():
    p = OscillatorParams(g=2.0)
    vals = wavefunction(3, p, np.linspace(0.05, 6.0, 2000))
    flips = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
    assert flips == 3


def test_parity_extension_integer_barrier():
    # m = 1: even continuation; m = 2: odd
    assert parity_extend(0, 1.0, 0.37, -1.2) == 0.37
    assert parity_extend(0, 2.0, 0.37, -1.2) == -0.37
    # tolerated rounding slop on m
    assert parity_extend(0, 1.0 + 1e-12, 0.5, -0.3) == 0.5


def test_parity_extension_fractional_barrier():
    m = derive(OscillatorParams(g=0.5)).m
    out = parity_extend(0, m, 0.37, -1.2)
    assert out is NON_NORMALIZABLE


def test_parity_extension_rejects_positive_x():
    with pytest.raises(ValueError):
        parity_extend(0, 1.0, 0.37, 1.2)


def test_harmonic_reference_levels():
    p = OscillatorParams()
    assert harmonic_energy(0, p) == 0.5
    assert harmonic_energy(3, p) == 3.5
    assert harmonic_energy(2, OscillatorParams(omega=2.0, hbar=3.0)) == 15.0


def test_harmonic_ground_state_closed_form():
    p = OscillatorParams(mass=2.0, omega=1.5)
    beta = p.mass * p.omega / p.hbar
    x = 0.7
    expect = (beta / math.pi) ** 0.25 * math.exp(-0.5 * beta * x * x)
    assert harmonic_wavefunction(0, p, x) == pytest.approx(expect, rel=1e-13)


def test_harmonic_wavefunction_normalized():
    p = OscillatorParams()
    for n in (0, 1, 4):
        val = 2.0 * quadrature(lambda x: harmonic_wavefunction(n, p, x) ** 2, 0.0, math.inf, tol=1e-11)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_oscillator3d_levels():
    p = OscillatorParams()
    assert oscillator3d_energy(0, 0, p) == 1.5
    assert oscillator3d_energy(1, 2, p) == 5.5


def test_oscillator3d_radial_normalized():
    p = OscillatorParams()
    val = quadrature(lambda r: oscillator3d_radial(2, 1, p, r) ** 2 if r > 0 else 0.0, 0.0, math.inf, tol=1e-11)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_oscillator3d_matches_barrier_at_matching_coupling():
    """u_{n,l} is the half-line eigenfunction with g = l (l + 1)."""
    p = OscillatorParams()
    rs = np.linspace(0.2, 4.0, 50)
    u = oscillator3d_radial(1, 2, p, rs)
    psi = wavefunction(1, OscillatorParams(g=6.0), rs)
    assert np.max(np.abs(u - psi)) <= 1e-13


@pytest.mark.parametrize(
    "fn,args",
    [
        (wavefunction, (2, OscillatorParams(g=2.0))),
        (harmonic_wavefunction, (3, OscillatorParams())),
        (oscillator3d_radial, (1, 2, OscillatorParams())),
    ],
)
def test_scalar_matches_array(fn, args):
    xs = np.linspace(0.1, 4.0, 29)
    arr = fn(*args, xs)
    one_by_one = np.array([fn(*args, float(x)) for x in xs])
    assert np.max(np.abs(arr - one_by_one)) <= 1e-15
