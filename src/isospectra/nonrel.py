"""Bound states of the one-dimensional isotonic oscillator.

The potential is U(x) = (1/2) M omega^2 x^2 + g / (2 x^2) on the half
line x > 0. For g = m(m+1) with integer m its spectrum is an evenly
spaced ladder offset from the harmonic one, which is the exactly
solvable structure everything else in the package leans on. The
companion harmonic and 3d radial oscillator forms live here too since
the figures and cross-checks plot them side by side.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergenceError, UnphysicalRegime
from .errors import _check_finite, _check_index, _check_positive, _divisor_square, _in_float_range, _square
from .specfun import _laguerre_steps, laguerre

__all__ = [
    "Branch",
    "Regime",
    "OscillatorParams",
    "DerivedNonrel",
    "EnergyLevel",
    "NonNormalizable",
    "NON_NORMALIZABLE",
    "derive",
    "classify_regime",
    "energy",
    "wavefunction",
    "parity_extend",
    "harmonic_energy",
    "harmonic_wavefunction",
    "oscillator3d_energy",
    "oscillator3d_radial",
]

_WAVEFUNCTION_DOMAIN = "wavefunction is defined on finite x > 0; use parity_extend for the mirror side"
_HARMONIC_DOMAIN = "harmonic wavefunction is defined on finite x"


class Branch(enum.Enum):
    """Which wave equation an energy level belongs to."""

    NONREL_ISOTONIC = "nonrel-isotonic"
    DIRAC_SPIN = "dirac-spin"
    DIRAC_PSEUDOSPIN = "dirac-pseudospin"
    KLEIN_GORDON = "klein-gordon"


class Regime(enum.Enum):
    """Character of the inverse-square coupling strength alpha = M g / hbar^2."""

    UNPHYSICAL = "unphysical"
    SELF_ADJOINT_EXTENSION_NEEDED = "self-adjoint-extension-needed"
    IMPENETRABLE_BARRIER = "impenetrable-barrier"


class NonNormalizable:
    """Marker object: no square-integrable continuation to x < 0 exists."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "NonNormalizable"


NON_NORMALIZABLE = NonNormalizable()


@dataclass(frozen=True)
class OscillatorParams:
    """Parameters of the isotonic well. Units are carried, defaults are natural."""

    mass: float = 1.0
    omega: float = 1.0
    g: float = 2.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "omega", "hbar"):
            _check_positive(name, getattr(self, name))
        _check_finite("g", self.g)

    def potential(self, x):
        """U(x) on x > 0, for a scalar or an array x.

        At x = 0, and wherever x^2 underflows to 0 or g / (2 x^2)
        overflows, U is +inf for g > 0 and -inf for g < 0; at g = 0 it is
        the harmonic well's value there. Where x^2 overflows, U is +inf.
        None of these warns. Raises ValueError naming x when any x is NaN.
        """
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("x must not be NaN")
        with np.errstate(divide="ignore", over="ignore"):
            x2 = x**2
            well = 0.5 * self.mass * self._omega2 * x2
            if self.g == 0.0:
                return well  # no barrier: g / (2 x^2) would be 0/0 where x^2 underflows to 0
            return well + self.g / (2.0 * x2)

    # The scales, the ladder and the constants of each sampled state are
    # computed on first use and kept on the instance; not fields, so ==,
    # hash, repr and dataclasses.replace see only the four parameters above.

    @cached_property
    def _quantum(self) -> float:
        """hbar omega; DivergenceError names it below the smallest normal float, where the levels lose their digits."""
        quantum = self.hbar * self.omega
        if quantum < sys.float_info.min:
            raise DivergenceError("the scale hbar omega leaves the float range")
        return quantum

    @cached_property
    def _omega2(self) -> float:
        """omega^2; DivergenceError names it where it leaves the float range."""
        return _square(self.omega, "omega")

    @cached_property
    def _beta(self) -> float:
        """beta = M omega / hbar; ``_log_norm`` names it where it is 0 or inf."""
        return self.mass * self.omega / self.hbar

    @cached_property
    def _ladder(self) -> DerivedNonrel:
        """derive(self) once the regime is known to carry a bound ladder.

        A cached_property keeps nothing when its body raises, so
        unphysical params raise UnphysicalRegime on every access.
        """
        d = derive(self)
        if classify_regime(d.alpha) is Regime.UNPHYSICAL:
            raise UnphysicalRegime(f"alpha = {d.alpha} < -1/4 admits no bound spectrum")
        return d

    @cached_property
    def _states(self) -> dict:
        """{key: (ln N, beta, zeta)} of the latest states sampled, at most _STATES_KEPT; see _keep_state.

        The key is n for ``wavefunction``, (n, l) for ``oscillator3d_radial``
        and ~n (= -1 - n) for ``harmonic_wavefunction``. A quadrature samples
        one or two states thousands of times, and each sample reads its
        constants with this one lookup.
        """
        return {}


@dataclass(frozen=True)
class DerivedNonrel:
    """Derived combinations that every closed-form expression reuses.

    beta   M omega / hbar, inverse square of the oscillator length
    alpha  M g / hbar^2, dimensionless singular-coupling strength
    xi     (1/2) sqrt(1 + 4 alpha), Laguerre order of the ladder; NaN
           when alpha < -1/4
    m      root of m(m+1) = g closest to the physical branch,
           (-1 + sqrt(1 + 4 g)) / 2; NaN when 1 + 4 g < 0
    """

    beta: float
    alpha: float
    xi: float
    m: float


@dataclass(frozen=True)
class EnergyLevel:
    """A single bound-state energy.

    residual is the absolute value of the defining equation at the
    reported energy: zero for closed forms; for root-solved branches,
    the smaller of its values at the two adjacent floats that end the
    bisection, the reported energy being that end.
    """

    n: int
    value: float
    branch: Branch
    residual: float

    def __post_init__(self) -> None:
        _check_index(self.n)
        _check_finite("energy", self.value)
        if not (math.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError(f"residual must be non-negative, got {self.residual}")


def derive(p: OscillatorParams) -> DerivedNonrel:
    """Compute the derived combinations for a parameter set.

    Total on all finite g: quantities that do not exist (too-attractive
    coupling) come back as NaN and the regime classifier says why.
    """
    alpha = _in_float_range(p.mass * p.g / _divisor_square(p.hbar, "hbar"), "alpha = M g / hbar^2")
    xi = 0.5 * math.sqrt(1.0 + 4.0 * alpha) if 1.0 + 4.0 * alpha >= 0.0 else math.nan
    m = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * p.g)) if 1.0 + 4.0 * p.g >= 0.0 else math.nan
    return DerivedNonrel(beta=p._beta, alpha=alpha, xi=xi, m=m)


def classify_regime(alpha: float) -> Regime:
    """Classify the inverse-square coupling.

    Below -1/4 the Hamiltonian is unbounded from below; between -1/4
    (inclusive) and 3/4 every self-adjoint realization involves a
    boundary-condition choice at the origin; from 3/4 on the origin is
    an impenetrable barrier and the ladder is unambiguous.
    """
    _check_finite("alpha", alpha)
    if alpha < -0.25:
        return Regime.UNPHYSICAL
    if alpha < 0.75:
        return Regime.SELF_ADJOINT_EXTENSION_NEEDED
    return Regime.IMPENETRABLE_BARRIER


def _rung(n: int) -> float:
    """float(n), or inf for an n past the float range, where float(n) raises OverflowError."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def energy(n: int, p: OscillatorParams) -> EnergyLevel:
    """Closed-form level E_n = hbar omega (2n + 1 + (1/2) sqrt(1 + 4 alpha)).

    Equidistant with spacing 2 hbar omega; reduces to the odd harmonic
    half-line levels at g = 0. A level past the float range raises
    DivergenceError naming hbar omega (2n + 1 + xi), and an hbar omega
    below the normal floats one naming hbar omega.
    """
    n = _check_index(n)
    d = p._ladder
    value = _in_float_range(p._quantum * (2.0 * _rung(n) + 1.0 + d.xi), "hbar omega (2n + 1 + xi)")
    return EnergyLevel(n=n, value=value, branch=Branch.NONREL_ISOTONIC, residual=0.0)


def _log_norm(n: int, beta: float, zeta: float) -> float:
    """ln N for the envelope N x^(1/2 + zeta) exp(-beta x^2 / 2) of level n.

    With this N, the envelope times L_n^(zeta)(beta x^2) has unit norm
    on x > 0. N is assembled in log space so large n stays finite. The
    samplers keep it per params object (``OscillatorParams._states``,
    ``rel.DiracParams._spinor_memo``), not here. A beta (M omega / hbar,
    or a spinor's falloff) of 0 or inf has no envelope in floats:
    DivergenceError names it.
    """
    if not 0.0 < beta < math.inf:
        fate = "underflows to 0" if beta == 0.0 else "leaves the float range"
        raise DivergenceError(f"the scale beta of the envelope exp(-beta x^2 / 2) {fate}")
    return 0.5 * (math.log(2.0) + (1.0 + zeta) * math.log(beta) + math.lgamma(n + 1.0) - math.lgamma(n + zeta + 1.0))


_STATES_KEPT = 16


def _keep_state(p: OscillatorParams, key, n: int, beta: float, zeta: float, ln_shift: float = 0.0) -> tuple[float, float, float]:
    """Put (ln N + ln_shift, beta, zeta) of level n in p._states under key and return it.

    The samplers call this on a miss, after reading beta and zeta from p,
    so a ``_ladder`` or ``_log_norm`` that raises keeps nothing and raises
    again on the next call. The oldest entry makes room past _STATES_KEPT.
    """
    states = p._states
    if len(states) >= _STATES_KEPT:
        del states[next(iter(states))]
    state = states[key] = (_log_norm(n, beta, zeta) + ln_shift, beta, zeta)
    return state


def _laguerre_state(n: int, ln_norm: float, beta: float, zeta: float, x, where: str):
    """N x^(1/2 + zeta) exp(-beta x^2 / 2) L_n^(zeta)(beta x^2): every state here.

    The isotonic, 3d radial and harmonic states and all three spinor
    components are made of it; they differ only in (n, beta, zeta, ln N),
    ln N being ``_log_norm``'s, which each sampler keeps on its params
    object (``_keep_state``, ``rel._spinor_state``). x must be finite and
    > 0 elementwise, else ValueError(where); a scalar x gives a float.

    A scalar is computed with math, with s = (beta x) x; an array with
    numpy, with s = beta (x^2). The two round differently in the last bit,
    and scalar and array samples each keep their own values. Where s
    overflows the sample is 0.0: exp(-s/2) outruns every L_n there. Where
    ``laguerre`` overflows at a finite s (a scalar DivergenceError, an
    array's inf or NaN), or the envelope falls below the smallest normal
    float while s is finite, the sample comes from ``_rescaled_state``
    instead, so the state is finite at every n and keeps its digits in the
    far tail.
    """
    if type(x) is not float:  # a quadrature calls this ~10^5 times with a float
        if np.ndim(x) == 0:
            x = float(x)
        else:
            x = np.asarray(x, dtype=float)
            if not (x.min(initial=math.inf) > 0.0 and x.max(initial=0.0) < math.inf):  # a NaN fails both
                raise ValueError(where)
            with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN where s or L_n overflows, replaced below
                s = beta * x**2
                envelope = np.exp(ln_norm + (0.5 + zeta) * np.log(x) - 0.5 * s)
                values = envelope * laguerre(n, zeta, s)
            # L_0 = 1 lifts nothing, and leaves the envelope's 0.0 where s = inf
            if n == 0 or (envelope.min(initial=math.inf) >= 2.2250738585072014e-308 and np.isfinite(values).all()):
                return values
            vanished = s == math.inf
            values[vanished] = 0.0
            rescale = ~vanished & ((envelope < 2.2250738585072014e-308) | ~np.isfinite(values))
            values[rescale] = _rescaled_state(n, ln_norm, zeta, x[rescale], s[rescale])
            return values
    if not 0.0 < x < math.inf:
        raise ValueError(where)
    s = beta * x * x
    if s == math.inf:
        return 0.0
    envelope = math.exp(ln_norm + (0.5 + zeta) * math.log(x) - 0.5 * s)
    try:
        polynomial = laguerre(n, zeta, s)
    except DivergenceError:
        return _rescaled_state(n, ln_norm, zeta, x, s)
    if envelope < 2.2250738585072014e-308 and n:  # the smallest normal float
        return _rescaled_state(n, ln_norm, zeta, x, s)
    return envelope * polynomial


def _rescaled_state(n: int, ln_norm: float, zeta: float, x, s):
    """The state at x and s = beta x^2 by laguerre's recurrence, with a running power of two.

    After each step L_k is scaled into [1/2, 1), and L_(k-1) with it, by an
    exact power of two whose exponent goes into the envelope's, so neither
    factor leaves the float range and each step rounds as in ``laguerre``;
    the product is formed once, at the end. Where exp(-s/2) outruns every
    power the sample is 0.0. x and s are floats, or arrays of one shape.
    """
    xp = math if isinstance(s, float) else np
    cur, power = xp.frexp(1.0 + zeta - s)
    prev = xp.ldexp(1.0, -power)
    for a, b, c in _laguerre_steps(n, zeta):
        prev, cur = cur, ((a - s) * cur - b * prev) / c
        cur, step = xp.frexp(cur)
        prev, power = xp.ldexp(prev, -step), power + step
    return cur * xp.exp(ln_norm + (0.5 + zeta) * xp.log(x) - 0.5 * s + power * math.log(2.0))


def wavefunction(n: int, p: OscillatorParams, x):
    """Normalized n-th eigenfunction on the half line.

    psi_n(x) = N x^(1/2 + xi) exp(-beta x^2 / 2) L_n^(xi)(beta x^2)
    with N chosen so the square integrates to one; the prefactor is
    assembled in log space. x must be finite and > 0 elementwise; a
    float x gives a float. Every sample is finite, at every n
    (``_laguerre_state``), and 0.0 where beta x^2 leaves the float range.
    """
    if type(n) is not int or n < 0:  # a valid plain int skips _check_index: a quadrature calls this ~10^5 times
        n = _check_index(n)
    try:
        ln_norm, beta, xi = p._states[n]
    except KeyError:
        d = p._ladder
        ln_norm, beta, xi = _keep_state(p, n, n, d.beta, d.xi)
    return _laguerre_state(n, ln_norm, beta, xi, x, _WAVEFUNCTION_DOMAIN)


def parity_extend(n: int, m: float, psi_pos: float, x: float):
    """Continue a half-line eigenfunction to x < 0.

    For integer m the potential is mirror symmetric through the barrier
    and the unique square-integrable continuation carries a factor
    (-1)^(m+1); psi_pos is the value already computed at |x|. For
    non-integer m no normalizable continuation exists and the
    NON_NORMALIZABLE marker is returned instead of a value.
    """
    n = _check_index(n)
    _check_finite("m", m)
    _check_finite("psi_pos", psi_pos)
    if not x < 0.0:
        raise ValueError(f"parity_extend is for x < 0, got x = {x}")
    if abs(m - round(m)) > 1e-9:
        return NON_NORMALIZABLE
    sign = -1.0 if (int(round(m)) + 1) % 2 else 1.0
    return sign * psi_pos


def harmonic_energy(n: int, p: OscillatorParams) -> float:
    """Full-line harmonic level hbar omega (n + 1/2), the g = 0 reference; DivergenceError past the float range.

    An hbar omega below the normal floats raises DivergenceError naming it.
    """
    n = _check_index(n)
    return _in_float_range(p._quantum * (_rung(n) + 0.5), "hbar omega (n + 1/2)")


def harmonic_wavefunction(n: int, p: OscillatorParams, x):
    """Normalized full-line harmonic eigenfunction, for side-by-side plots.

    x must be finite elementwise; a float x gives a float. H_n(y) is a
    multiple of y^(1/2 + zeta) L_k^(zeta)(y^2), with k = n // 2 and
    zeta = n % 2 - 1/2 (DLMF 18.7.19-20), so the state is (-1)^k sign(x)^n
    times the Laguerre state (``_laguerre_state``) on |x| with the
    half-line N over sqrt 2. It is finite at every n, and 0.0 where
    beta x^2 leaves the float range.
    """
    if type(n) is not int or n < 0:
        n = _check_index(n)
    k, odd = divmod(n, 2)
    try:
        ln_norm, beta, zeta = p._states[~n]
    except KeyError:
        ln_norm, beta, zeta = _keep_state(p, ~n, k, p._beta, odd - 0.5, -0.5 * math.log(2.0))
    # The origin is sampled at the least positive float, where beta x^2 is 0: an even state is
    # N L_k^(-1/2)(0) there, and sign(x) makes an odd one 0. _laguerre_state rejects a NaN or infinite x.
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        value = _laguerre_state(k, ln_norm, beta, zeta, max(abs(x), 5e-324), _HARMONIC_DOMAIN)
        if odd:
            value *= (x > 0.0) - (x < 0.0)
    else:
        x = np.asarray(x, dtype=float)
        value = _laguerre_state(k, ln_norm, beta, zeta, np.maximum(np.abs(x), 5e-324), _HARMONIC_DOMAIN)
        if odd:
            value *= np.sign(x)
    return -value if k % 2 else value


def oscillator3d_energy(n: int, l: int, p: OscillatorParams) -> float:
    """Isotropic 3d oscillator level hbar omega (2n + l + 3/2).

    Coincides with the isotonic ladder at g = l(l+1): the half-line
    problem is the angular-momentum radial equation with l continued
    off the integers. A level past the float range raises
    DivergenceError naming hbar omega (2n + l + 3/2), and an hbar omega
    below the normal floats one naming hbar omega.
    """
    n = _check_index(n)
    l = _check_index(l, "orbital index")
    return _in_float_range(p._quantum * (2.0 * _rung(n) + _rung(l) + 1.5), "hbar omega (2n + l + 3/2)")


def oscillator3d_radial(n: int, l: int, p: OscillatorParams, r):
    """Reduced radial eigenfunction u_nl(r) = r R_nl(r), unit norm on r > 0.

    r must be finite and > 0 elementwise; a float r gives a float. Every
    sample is finite, at every n, and 0.0 where beta r^2 leaves the float
    range.
    """
    if type(n) is not int or n < 0:
        n = _check_index(n)
    if type(l) is not int or l < 0:
        l = _check_index(l, "orbital index")
    try:
        ln_norm, beta, zeta = p._states[n, l]
    except KeyError:
        ln_norm, beta, zeta = _keep_state(p, (n, l), n, p._beta, l + 0.5)
    return _laguerre_state(n, ln_norm, beta, zeta, r, "radial coordinate must be finite and positive")
