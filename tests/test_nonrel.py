"""Half-line oscillator with inverse-square barrier: levels, regimes, states."""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from isospectra import nonrel, rel, specfun
from isospectra.errors import DivergenceError, UnphysicalRegime
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
from isospectra.specfun import laguerre


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


def test_potential_without_barrier_is_finite_where_x_squared_underflows():
    assert OscillatorParams(g=0.0).potential(1e-170) == 0.0
    assert OscillatorParams(g=0.0, omega=2.0).potential(np.array([0.0, 1e-170, 1.0])).tolist() == [0.0, 0.0, 2.0]


@pytest.mark.parametrize("params", [OscillatorParams, rel.DiracParams])
@pytest.mark.parametrize("g", [0.0, 2.0, -0.1])
def test_potential_names_nan_x_and_is_infinite_at_zero_without_a_warning(params, g):
    p = params(g=g)
    for x in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match=r"^x must not be NaN$"):
            p.potential(x)
    at_zero = 0.0 if g == 0.0 else math.copysign(math.inf, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert p.potential(0.0) == at_zero
        assert p.potential(np.array([0.0, 1.0])).tolist() == [at_zero, 0.5 + g / 2.0]


@pytest.mark.parametrize("params", [OscillatorParams, rel.DiracParams])
@pytest.mark.parametrize("g", [0.0, 2.0, -0.1])
def test_potential_is_infinite_where_x_squared_or_the_barrier_overflows_without_a_warning(params, g):
    p = params(g=g)
    near_zero = 0.5 * 1e-160**2 if g == 0.0 else math.copysign(math.inf, g)  # g / (2 x^2) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert p.potential(1e200) == math.inf  # x^2 overflows
        assert p.potential(1e-160) == near_zero
        assert p.potential(np.array([1e-160, 1.0, 1e200])).tolist() == [near_zero, 0.5 + g / 2.0, math.inf]


def test_scale_beyond_the_float_range_is_named():
    with pytest.raises(DivergenceError, match=r"^the scale omega\^2 = \(1e\+300\)\^2 leaves the float range$"):
        OscillatorParams(omega=1e300).potential(1.0)
    with pytest.raises(DivergenceError, match=r"^the scale hbar\^2 = \(1e\+300\)\^2 leaves the float range$"):
        energy(0, OscillatorParams(hbar=1e300))
    # the pseudospin level solves to E = 1.414e160; the map check's own coefficient a2 needs omega^2
    # a numpy float too, whose ** overflows with a RuntimeWarning where a float's raises OverflowError
    for omega in (1e160, np.float64(1e160)):
        with pytest.raises(DivergenceError, match=r"^the scale omega\^2 = \(1e\+160\)\^2 leaves the float range$"):
            rel.pseudospin_map_check(0, rel.DiracParams(omega=omega, branch=rel.Symmetry.PSEUDOSPIN))


def test_hbar_squared_that_underflows_to_zero_is_named():
    p = OscillatorParams(hbar=1e-300)
    message = r"^the scale hbar\^2 = \(1e-300\)\^2 underflows to 0$"
    for call in (lambda: derive(p), lambda: energy(0, p), lambda: wavefunction(0, p, 1.0)):
        with pytest.raises(DivergenceError, match=message):
            call()


@pytest.mark.parametrize(
    "params, fate, level",
    [({"mass": 1e-300, "omega": 1e-30}, "underflows to 0", 1.5000000000000001e-30),
     ({"mass": 1e200, "omega": 1e200}, "leaves the float range", 1.414213562373095e300)],
    ids=["underflow", "overflow"],
)
def test_beta_beyond_the_float_range_is_named(params, fate, level):
    # beta = M omega / hbar = 1e-330 rounds to 0, where ln N took math.log(0); 1e400 is inf, where a
    # sample read 0.0 or NaN and an x of 1e-300 reached specfun's bare ValueError. The ladder stands.
    p = OscillatorParams(**params)
    message = rf"^the scale beta of the envelope exp\(-beta x\^2 / 2\) {fate}$"
    for call in (
        lambda: wavefunction(0, p, 1.0),
        lambda: wavefunction(0, p, 0.5),
        lambda: wavefunction(2, p, np.array([1.0, 2.0])),
        lambda: wavefunction(0, p, np.array([0.5, 1.0])),
        lambda: wavefunction(0, p, np.array([1e-300])),
        lambda: harmonic_wavefunction(0, p, 1.0),
        lambda: harmonic_wavefunction(0, p, 0.5),
        lambda: oscillator3d_radial(0, 0, p, 1.0),
        lambda: oscillator3d_radial(0, 0, p, 0.5),
    ):
        with pytest.raises(DivergenceError, match=message):
            call()
    assert energy(0, p).value == level


@pytest.mark.parametrize("params", [{"hbar": 1e-160}, {"mass": 1e300, "g": 1e300}], ids=["subnormal-hbar2", "huge-mass-g"])
def test_alpha_beyond_the_float_range_is_named(params):
    # hbar^2 = 1e-320 is subnormal, not 0, so only alpha = M g / hbar^2 overflows
    p = OscillatorParams(**params)
    message = r"^the scale alpha = M g / hbar\^2 leaves the float range$"
    for call in (lambda: derive(p), lambda: energy(0, p), lambda: wavefunction(0, p, 1.0)):
        with pytest.raises(DivergenceError, match=message):
            call()


_HBAR_OMEGA_OVERFLOWS = OscillatorParams(omega=1e308, hbar=10.0)  # hbar omega = 1e309
_HBAR_OMEGA_UNDERFLOWS = OscillatorParams(omega=1e-200, hbar=1e-150)  # hbar omega = 1e-350 rounds to 0


@pytest.mark.parametrize(
    "call, scale",
    [
        (lambda: energy(0, _HBAR_OMEGA_OVERFLOWS), "hbar omega (2n + 1 + xi)"),
        (lambda: harmonic_energy(0, _HBAR_OMEGA_OVERFLOWS), "hbar omega (n + 1/2)"),
        (lambda: oscillator3d_energy(0, 0, _HBAR_OMEGA_OVERFLOWS), "hbar omega (2n + l + 3/2)"),
        # float(10**400) raises OverflowError
        (lambda: energy(10**400, OscillatorParams()), "hbar omega (2n + 1 + xi)"),
        (lambda: harmonic_energy(10**400, OscillatorParams()), "hbar omega (n + 1/2)"),
        (lambda: oscillator3d_energy(10**400, 0, OscillatorParams()), "hbar omega (2n + l + 3/2)"),
        (lambda: oscillator3d_energy(0, 10**400, OscillatorParams()), "hbar omega (2n + l + 3/2)"),
        (lambda: energy(2, _HBAR_OMEGA_UNDERFLOWS), "hbar omega"),
        (lambda: harmonic_energy(2, _HBAR_OMEGA_UNDERFLOWS), "hbar omega"),
        (lambda: oscillator3d_energy(2, 1, _HBAR_OMEGA_UNDERFLOWS), "hbar omega"),
    ],
    ids=["energy", "harmonic", "3d", "energy-huge-n", "harmonic-huge-n", "3d-huge-n", "3d-huge-l",
         "energy-underflow", "harmonic-underflow", "3d-underflow"],
)
def test_closed_form_level_beyond_the_float_range_is_named(call, scale):
    with pytest.raises(DivergenceError, match=f"^the scale {re.escape(scale)} leaves the float range$"):
        call()


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


# ------------------- constants of the params: the ladder and each state's ln N on p

def _samples(p):
    """Scalar and array samples of every nonrel state, as exact bit patterns."""
    xs = np.linspace(0.1, 4.0, 17)
    out = []
    for n in (0, 3, 7):
        for fn, args in ((wavefunction, (n, p)), (harmonic_wavefunction, (n, p)), (oscillator3d_radial, (n, 1, p))):
            out.append(fn(*args, 1.3).hex())
            out.append(fn(*args, xs).tobytes())
    return out


def test_unphysical_params_raise_on_every_call():
    p = OscillatorParams(g=-0.3)
    for _ in range(2):
        with pytest.raises(UnphysicalRegime, match="admits no bound spectrum"):
            wavefunction(0, p, 1.0)
        with pytest.raises(UnphysicalRegime, match="admits no bound spectrum"):
            energy(0, p)


def _written_out_psi(n, p, x):
    """Scalar psi_n(x) from the fields alone, in the closed form's order of operations."""
    beta = p.mass * p.omega / p.hbar
    xi = 0.5 * math.sqrt(1.0 + 4.0 * (p.mass * p.g / p.hbar**2))
    ln_norm = 0.5 * (math.log(2.0) + (1.0 + xi) * math.log(beta) + math.lgamma(n + 1.0) - math.lgamma(n + xi + 1.0))
    s = beta * x * x
    return math.exp(ln_norm + (0.5 + xi) * math.log(x) - 0.5 * s) * laguerre(n, xi, s)


def test_replaced_params_get_fresh_constants():
    p = OscillatorParams(mass=2.0, omega=0.7, g=2.0, hbar=1.3)
    _samples(p)
    energy(2, p)
    for changes in ({"g": 6.0}, {"mass": 0.5}, {"omega": 3.0}, {"hbar": 0.2}):
        q = replace(p, **changes)
        for n in (0, 3, 7):
            assert wavefunction(n, q, 1.3) == _written_out_psi(n, q, 1.3)
        assert energy(2, q).value == energy(2, OscillatorParams(**{**asdict(p), **changes})).value
    with pytest.raises(UnphysicalRegime):
        energy(0, replace(p, g=-0.3))


def test_equal_params_give_identical_samples():
    p, q = OscillatorParams(g=2.0, mass=1.5), OscillatorParams(g=2.0, mass=1.5)
    before = repr(p)
    assert _samples(p) == _samples(q) == _samples(p)
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) == before == "OscillatorParams(mass=1.5, omega=1.0, g=2.0, hbar=1.0)"
    assert p != replace(p, g=6.0)


def test_log_norm_caches_stay_bounded():
    p = OscillatorParams(g=2.7)
    for n in range(1000):
        wavefunction(n, p, 1.3)
        harmonic_wavefunction(n, p, 1.3)
        oscillator3d_radial(n, 1, p, 1.3)
    assert len(p._states) == nonrel._STATES_KEPT == 16
    assert list(p._states)[-3:] == [999, ~999, (999, 1)]  # the latest states are the ones kept


def test_log_norm_caches_are_invisible_on_the_params():
    p = OscillatorParams(mass=1.5, g=2.7)
    energy(0, p)  # the ladder and the scales energy reads are the constants kept on p
    before = (dict(vars(p)), repr(p), hash(p))
    _samples(p)
    assert ({k: v for k, v in vars(p).items() if k != "_states"}, repr(p), hash(p)) == before
    assert set(vars(p)) == {"mass", "omega", "g", "hbar", "_ladder", "_beta", "_quantum", "_states"}
    assert p == OscillatorParams(mass=1.5, g=2.7)


def test_log_norm_entry_made_from_numpy_params_gives_float_samples():
    fields = {"mass": 1.3, "omega": 0.7, "g": 2.7, "hbar": 1.1}
    p = OscillatorParams(**fields)
    p64 = OscillatorParams(**{k: np.float64(v) for k, v in fields.items()})
    expected = _samples(p)
    assert _samples(p64) == expected  # p64 fills its own entries from np.float64 fields
    assert _samples(p64) == expected  # and is served from them
    for q in (p, p64):
        for fn, args in ((wavefunction, (3, q)), (harmonic_wavefunction, (3, q)), (oscillator3d_radial, (3, 1, q))):
            assert type(fn(*args, 1.3)) is float


def _written_out_state(kind, p, x, n, l=0):
    """A nonrel state from the fields alone, in the kernel's order of operations (no rescaled tail)."""
    beta = p.mass * p.omega / p.hbar
    k, sign, shift = n, 1.0, 0.0
    if kind == "isotonic":
        zeta = 0.5 * math.sqrt(1.0 + 4.0 * (p.mass * p.g / p.hbar**2))
    elif kind == "radial":
        zeta = l + 0.5
    else:  # harmonic: the half-line state on |x| over sqrt 2, times (-1)^k sign(x)^n
        k, odd = divmod(n, 2)
        zeta, shift = odd - 0.5, 0.5 * math.log(2.0)
        sign = (-1.0) ** k * (np.sign(x) if odd else 1.0)
        x = abs(x) if isinstance(x, float) else np.abs(x)
    ln_norm = 0.5 * (math.log(2.0) + (1.0 + zeta) * math.log(beta) + math.lgamma(k + 1.0) - math.lgamma(k + zeta + 1.0)) - shift
    if isinstance(x, float):
        s = beta * x * x
        value = math.exp(ln_norm + (0.5 + zeta) * math.log(x) - 0.5 * s) * laguerre(k, zeta, s)
        return value * float(sign)
    s = beta * x**2
    return np.exp(ln_norm + (0.5 + zeta) * np.log(x) - 0.5 * s) * laguerre(k, zeta, s) * sign


def _bits(v):
    return v.hex() if isinstance(v, float) else np.asarray(v).tobytes()


_SAMPLERS = {"isotonic": wavefunction, "radial": oscillator3d_radial, "harmonic": harmonic_wavefunction}


def test_state_memo_is_invisible():
    p = OscillatorParams(mass=1.3, omega=0.8, g=2.7, hbar=1.1)
    twin = OscillatorParams(mass=1.3, omega=0.8, g=2.7, hbar=1.1)
    before = (repr(p), hash(p))
    xs = np.linspace(0.05, 5.0, 9)
    # interleave samplers, levels and orbital indices: wavefunction's n, the harmonic n and a
    # radial (n, l) with the same n are different states, so every call keeps or adds an entry
    calls = [("isotonic", (2,)), ("harmonic", (2,)), ("radial", (2, 1)), ("radial", (2, 0)), ("isotonic", (3,)),
             ("harmonic", (3,)), ("radial", (0, 2)), ("isotonic", (2,)), ("harmonic", (5,)), ("radial", (2, 1))]
    for kind, index in calls + calls[::-1]:
        for x in (0.7, 2.3, xs) + ((-1.7, -xs) if kind == "harmonic" else ()):
            got = _SAMPLERS[kind](*index, p, x)
            assert _bits(got) == _bits(_written_out_state(kind, p, x, *index))
            assert _bits(got) == _bits(_SAMPLERS[kind](*index, twin, x))
    assert len(p._states) == 8
    assert (repr(p), hash(p)) == before and p == twin
    assert "_states" not in repr(p)
    # replace builds from the fields alone: a new coupling at the same n is not served stale
    r = replace(p, g=3.5)
    assert r != p
    assert _bits(wavefunction(2, r, xs)) == _bits(_written_out_state("isotonic", r, xs, 2))
    assert _bits(wavefunction(2, r, xs)) != _bits(wavefunction(2, p, xs))
    assert replace(p) == p and hash(replace(p)) == hash(p)


def test_state_memo_keeps_no_failed_state():
    huge = OscillatorParams(mass=1e200, omega=1e200)  # beta = M omega / hbar overflows
    hardy = OscillatorParams(g=-0.3)  # alpha below -1/4
    for _ in range(2):
        for sample in (lambda: wavefunction(0, huge, 0.5), lambda: harmonic_wavefunction(1, huge, 0.5),
                       lambda: oscillator3d_radial(0, 1, huge, np.array([0.5, 1.0]))):
            with pytest.raises(DivergenceError, match="the scale beta of the envelope"):
                sample()
        with pytest.raises(UnphysicalRegime, match="admits no bound spectrum"):
            wavefunction(0, hardy, 0.5)
    assert huge._states == {} and hardy._states == {}
    # the harmonic state does not read g, so the same n is kept for it alone
    assert harmonic_wavefunction(0, hardy, 0.5) == harmonic_wavefunction(0, OscillatorParams(), 0.5)
    assert list(hardy._states) == [~0]
    with pytest.raises(UnphysicalRegime):
        wavefunction(0, hardy, 0.5)


def test_two_identical_sampling_passes_call_specfun_alike(monkeypatch):
    # ln N is kept on each params object; a kept state must hide no call to the
    # public special functions, so a wrapper that counts them sees every pass alike
    spin = rel.DiracParams(mass=1.3, omega=0.8, g=2.7, sym_constant=0.6, hbar=1.1, c=1.9)
    pseudo = rel.DiracParams(g=1.4, sym_constant=-0.8, branch=rel.Symmetry.PSEUDOSPIN)
    e_spin = rel.solve_spin_energy(2, spin).value
    e_pseudo = rel.solve_pseudospin_energy(1, pseudo).value
    counts = {}
    for name in specfun.__all__:
        original = getattr(specfun, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        for module in (specfun, nonrel, rel):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    def one_pass():
        counts.clear()
        p = OscillatorParams(mass=1.3, omega=0.8, g=2.7, hbar=1.1)
        q = replace(spin)
        r = replace(pseudo)
        for x in (0.4, 1.3, np.linspace(0.2, 3.0, 5)):
            wavefunction(3, p, x)
            oscillator3d_radial(2, 1, p, x)
            rel.spin_upper_spinor(2, q, e_spin, x)
            rel.spin_lower_spinor(2, q, e_spin, x)
            rel.pseudospin_lower_spinor(1, r, e_pseudo, x)
            harmonic_wavefunction(3, p, x)
            harmonic_wavefunction(300, p, x)  # past the range of H_n
        return dict(counts)

    first = one_pass()
    assert first == one_pass()
    assert first["laguerre"] > 0
    assert set(first) == {"laguerre"}  # every state and spinor, n = 300 harmonic included, is the one Laguerre kernel


# every sampler that skips _check_index for a valid plain int
@pytest.mark.parametrize(
    "sample",
    [
        lambda n: wavefunction(n, OscillatorParams(), 1.0),
        lambda n: harmonic_wavefunction(n, OscillatorParams(), 1.0),
        lambda n: oscillator3d_radial(n, 1, OscillatorParams(), 1.0),
        lambda n: rel.energy_residual(2.0, n, rel.DiracParams(), 1.0, 0.0),
        lambda n: rel.spin_upper_spinor(n, rel.DiracParams(), 2.0, 1.0),
        lambda n: rel.spin_lower_spinor(n, rel.DiracParams(), 2.0, 1.0),
        lambda n: rel.pseudospin_lower_spinor(n, rel.DiracParams(branch=rel.Symmetry.PSEUDOSPIN), 2.0, 1.0),
    ],
    ids=["wavefunction", "harmonic", "oscillator3d", "residual", "spin-upper", "spin-lower", "pseudospin-lower"],
)
@pytest.mark.parametrize(
    "n,message",
    [
        (True, "level index must be an integer, got True"),
        (np.bool_(True), f"level index must be an integer, got {np.bool_(True)!r}"),
        (-1, "level index must be non-negative, got -1"),
        (1.0, "level index must be an integer, got 1.0"),
    ],
)
def test_level_check_rejects(sample, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample(n)


def test_level_check_accepts_numpy_integers():
    p = OscillatorParams()
    n = np.int64(3)
    assert wavefunction(n, p, 1.3) == wavefunction(3, p, 1.3)
    assert energy(n, p).n == 3 and type(energy(n, p).n) is int


_NON_FINITE_X = [math.nan, math.inf, -math.inf, np.array([1.0, math.inf]), np.array([math.nan, 1.0])]


@pytest.mark.parametrize("x", _NON_FINITE_X)
def test_wavefunction_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match=r"^wavefunction is defined on finite x > 0"):
        wavefunction(3, OscillatorParams(), x)


@pytest.mark.parametrize("x", _NON_FINITE_X)
def test_radial_state_rejects_non_finite_r(x):
    with pytest.raises(ValueError, match="^radial coordinate must be finite and positive$"):
        oscillator3d_radial(3, 1, OscillatorParams(), x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.array([-1.0, math.inf]), np.array([math.nan])])
def test_harmonic_state_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match="^harmonic wavefunction is defined on finite x$"):
        harmonic_wavefunction(3, OscillatorParams(), x)


def _sampled_past_the_overflow(state):
    """state(40.0), after checking that a scalar and an array agree and that the state has unit norm on a grid."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = state(40.0)
        column = state(np.array([40.0, 1.0]))
        x = np.linspace(0.01, 100.0, 10_000)
        norm = np.sum(state(x) ** 2) * (x[1] - x[0])
    assert column[0] == scalar and np.isfinite(column).all()
    assert norm == pytest.approx(1.0, abs=1e-9)
    return scalar


def test_wavefunction_is_finite_where_the_laguerre_recurrence_overflows():
    p = OscillatorParams(g=2.0)
    with pytest.raises(DivergenceError, match="^the Laguerre recurrence overflows the float range at n = 2000"):
        laguerre(2000, 1.5, 40.0**2)  # the polynomial factor of the state at x = 40
    assert 0.1 < abs(_sampled_past_the_overflow(lambda x: wavefunction(2000, p, x))) < 1.0
    # where beta x^2 leaves the float range, exp(-beta x^2 / 2) makes the state 0
    assert wavefunction(0, p, 1e200) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wavefunction(3, p, np.array([1e200, 1.0]))[0] == 0.0


def test_radial_state_is_finite_where_the_laguerre_recurrence_overflows():
    p = OscillatorParams()
    # l = 1 has the Laguerre order and the norm of the isotonic state at g = l (l + 1), sample for sample
    expected = wavefunction(2000, OscillatorParams(g=2.0), 40.0)
    assert _sampled_past_the_overflow(lambda r: oscillator3d_radial(2000, 1, p, r)) == expected
    assert oscillator3d_radial(0, 1, p, 1e200) == 0.0
    assert oscillator3d_radial(2, 1, p, np.array([1e200]))[0] == 0.0


def test_far_tail_keeps_the_samples_the_envelope_alone_underflows():
    # exp(ln N + (1/2 + zeta) ln x - beta x^2 / 2) is below the smallest normal float here, L_n is not
    p = OscillatorParams(g=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail = wavefunction(150, p, 40.0)
        column = wavefunction(150, p, np.array([40.0, 1.0]))
        harmonic = harmonic_wavefunction(300, OscillatorParams(), 40.0)
        assert wavefunction(20, p, 40.0) == pytest.approx(3.174076195462295e-300, rel=1e-13, abs=0.0)
    assert tail == pytest.approx(1.92362259258081676e-135, rel=1e-13, abs=0.0)  # 50 digits
    assert column[0] == pytest.approx(tail, rel=1e-13, abs=0.0)
    assert column[1] == wavefunction(150, p, np.array([1.0]))[0]
    assert harmonic == pytest.approx(1.6014984664524084e-136, rel=1e-12, abs=0.0)


def test_harmonic_state_is_zero_where_beta_x2_overflows():
    p = OscillatorParams()
    assert harmonic_wavefunction(0, p, -1e200) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        column = harmonic_wavefunction(5, p, np.array([-1e200, 1.0]))
    assert column[0] == 0.0 and column[1] == pytest.approx(harmonic_wavefunction(5, p, 1.0), rel=1e-14)


@pytest.mark.parametrize("n,x", [(3, 1e154), (300, 1e152)])
def test_harmonic_state_is_zero_far_out_where_beta_x2_is_still_finite(n, x):
    # beta x^2 = 1e308 and 1e304 are finite, and exp(-beta x^2 / 2) makes the state 0 at every n
    p = OscillatorParams()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert harmonic_wavefunction(n, p, x) == 0.0
        assert harmonic_wavefunction(n, p, -x) == 0.0
        column = harmonic_wavefunction(n, p, np.array([x, -x, 1.0]))
    assert column[0] == column[1] == 0.0 and column[2] == pytest.approx(harmonic_wavefunction(n, p, 1.0), rel=1e-12)


def test_numpy_float_where_beta_x2_overflows_samples_zero_without_a_warning():
    p = OscillatorParams()
    q = rel.DiracParams(g=2.0)
    e = rel.solve_spin_energy(1, q).value
    r = rel.DiracParams(g=2.0, branch=rel.Symmetry.PSEUDOSPIN)
    e_pseudo = rel.solve_pseudospin_energy(1, r).value
    x = np.float64(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = [
            wavefunction(0, p, x),
            oscillator3d_radial(0, 1, p, x),
            harmonic_wavefunction(0, p, x),
            rel.spin_upper_spinor(1, q, e, x),
            rel.spin_lower_spinor(1, q, e, x),
            rel.pseudospin_lower_spinor(1, r, e_pseudo, x),
        ]
    assert samples == [0.0] * 6 and all(type(v) is float for v in samples)


def test_odd_harmonic_state_is_the_isotonic_state_at_g_zero():
    # H_(2k+1)(y) is a multiple of y L_k^(1/2)(y^2): the odd state is the g = 0 half-line state, halved in norm
    p = OscillatorParams(mass=1.3, omega=0.8, hbar=1.1)
    x = np.linspace(0.01, 8.0, 400)
    for k in range(12):
        half_line = (-1) ** k * wavefunction(k, replace(p, g=0.0), x) / math.sqrt(2.0)
        full_line = harmonic_wavefunction(2 * k + 1, p, x)
        assert np.max(np.abs(full_line - half_line)) <= 1e-14 * np.max(np.abs(half_line))


def test_harmonic_state_beyond_the_plain_hermite_range_has_unit_norm():
    # H_300(y) leaves the float range at every y; L_150^(-1/2), its Laguerre factor, does not
    p = OscillatorParams(mass=1.3, omega=0.8, hbar=1.1)
    val = 2.0 * quadrature(lambda x: harmonic_wavefunction(300, p, x) ** 2, 0.0, math.inf, tol=1e-8)
    assert val == pytest.approx(1.0, abs=1e-9)
    # H_400 overflows at x = 30 for a scalar x too; the state there, just past the turning point, is finite
    scalar = harmonic_wavefunction(400, p, 30.0)
    assert 0.0 < abs(scalar) < 0.1
    assert harmonic_wavefunction(400, p, np.array([30.0]))[0] == pytest.approx(scalar, rel=1e-12)


def _written_out_harmonic(n, beta, x):
    # N exp(-beta x^2 / 2) H_n(sqrt(beta) x), N = (beta / pi)^(1/4) / sqrt(2^n n!),
    # with H_n by the recurrence H_(k+1) = 2 y H_k - 2 k H_(k-1)
    ln_norm = 0.5 * (0.5 * (math.log(beta) - math.log(math.pi)) - n * math.log(2.0) - math.lgamma(n + 1.0))
    y = math.sqrt(beta) * x
    prev, cur = np.ones_like(y), 2.0 * y
    for k in range(1, n):
        prev, cur = cur, 2.0 * y * cur - 2.0 * k * prev
    return np.exp(ln_norm - 0.5 * beta * x**2) * (prev if n == 0 else cur)


def test_scaled_harmonic_recurrence_matches_the_plain_one_where_both_are_finite():
    p = OscillatorParams(mass=1.3, omega=0.8, hbar=1.1)
    beta = p.mass * p.omega / p.hbar
    x = np.linspace(-30.0, 30.0, 1201)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = _written_out_harmonic(250, beta, x)
    finite = np.isfinite(plain)  # H_250 overflows beyond |x| of about 11 here, and only there
    assert 0 < finite.sum() < len(x)
    peak = np.max(np.abs(plain[finite]))
    assert np.max(np.abs(harmonic_wavefunction(250, p, x)[finite] - plain[finite])) <= 1e-12 * peak
    for n in (0, 1, 7):
        assert np.max(np.abs(harmonic_wavefunction(n, p, x) - _written_out_harmonic(n, beta, x))) < 1e-14


def test_scalar_states_return_floats():
    p, x = OscillatorParams(), np.float64(1.3)
    for value in (wavefunction(3, p, x), oscillator3d_radial(2, np.int64(1), p, x), harmonic_wavefunction(3, p, x)):
        assert type(value) is float


def test_direct_scalar_path_matches_the_envelope_bit_for_bit():
    # a float takes the inline path of _laguerre_state, a 0-d array the scalar branch of _envelope
    p = OscillatorParams(mass=1.3, omega=0.7, g=2.7, hbar=1.1)
    for x in (1e-3, 0.37, 1.3, 4.1, 9.0):
        for n in (0, 1, 5, 12):
            for fn, args in ((wavefunction, (n, p)), (oscillator3d_radial, (n, 2, p))):
                assert fn(*args, x).hex() == fn(*args, np.array(x)).hex()
