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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DivergenceError, UnphysicalRegime
from .specfun import laguerre

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
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")

    def potential(self, x):
        """U(x) on x > 0."""
        x = np.asarray(x, dtype=float)
        well = 0.5 * self.mass * _square(self.omega, "omega") * x**2
        if self.g == 0.0:
            return well  # no barrier: g / (2 x^2) would be 0/0 where x^2 underflows to 0
        return well + self.g / (2.0 * x**2)

    # The ladder is computed on first use and kept on the instance; it is
    # not a field, so ==, hash, repr and dataclasses.replace see only the
    # four parameters above. ln N is cached by value in _log_norm instead.

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
        if self.n < 0:
            raise ValueError(f"level index must be non-negative, got {self.n}")
        if not math.isfinite(self.value):
            raise ValueError(f"energy must be finite, got {self.value}")
        if not (math.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError(f"residual must be non-negative, got {self.residual}")


def _in_float_range(value: float, scale: str) -> float:
    """value, a scale built from the parameters; DivergenceError names the scale if it is not finite."""
    if not math.isfinite(value):
        raise DivergenceError(f"the scale {scale} leaves the float range")
    return value


def _square(value: float, name: str) -> float:
    """value^2 by _in_float_range; float ** raises OverflowError where * gives inf."""
    try:
        squared = value**2
    except OverflowError:
        squared = math.inf
    return _in_float_range(squared, f"{name}^2 = ({value})^2")


def _divisor_square(value: float, name: str) -> float:
    """_square(value, name) for a square that is divided by; DivergenceError names it if it underflows to 0."""
    squared = _square(value, name)
    if squared == 0.0:
        raise DivergenceError(f"the scale {name}^2 = ({value})^2 underflows to 0")
    return squared


def derive(p: OscillatorParams) -> DerivedNonrel:
    """Compute the derived combinations for a parameter set.

    Total on all finite g: quantities that do not exist (too-attractive
    coupling) come back as NaN and the regime classifier says why.
    """
    beta = p.mass * p.omega / p.hbar
    alpha = _in_float_range(p.mass * p.g / _divisor_square(p.hbar, "hbar"), "alpha = M g / hbar^2")
    xi = 0.5 * math.sqrt(1.0 + 4.0 * alpha) if 1.0 + 4.0 * alpha >= 0.0 else math.nan
    m = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * p.g)) if 1.0 + 4.0 * p.g >= 0.0 else math.nan
    return DerivedNonrel(beta=beta, alpha=alpha, xi=xi, m=m)


def classify_regime(alpha: float) -> Regime:
    """Classify the inverse-square coupling.

    Below -1/4 the Hamiltonian is unbounded from below; between -1/4
    (inclusive) and 3/4 every self-adjoint realization involves a
    boundary-condition choice at the origin; from 3/4 on the origin is
    an impenetrable barrier and the ladder is unambiguous.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha < -0.25:
        return Regime.UNPHYSICAL
    if alpha < 0.75:
        return Regime.SELF_ADJOINT_EXTENSION_NEEDED
    return Regime.IMPENETRABLE_BARRIER


def _check_level(n) -> int:
    if type(n) is int and n >= 0:
        return n
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"level index must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"level index must be non-negative, got {n}")
    return int(n)


def _check_orbital(l) -> int:
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 0:
        raise ValueError(f"orbital index must be a non-negative integer, got {l!r}")
    return int(l)


def energy(n: int, p: OscillatorParams) -> EnergyLevel:
    """Closed-form level E_n = hbar omega (2n + 1 + (1/2) sqrt(1 + 4 alpha)).

    Equidistant with spacing 2 hbar omega; reduces to the odd harmonic
    half-line levels at g = 0.
    """
    n = _check_level(n)
    d = p._ladder
    value = p.hbar * p.omega * (2.0 * n + 1.0 + d.xi)
    return EnergyLevel(n=n, value=value, branch=Branch.NONREL_ISOTONIC, residual=0.0)


@lru_cache(maxsize=16)
def _log_norm(n: int, beta: float, zeta: float) -> float:
    """ln N for the envelope N x^(1/2 + zeta) exp(-beta x^2 / 2) of level n.

    With this N, the envelope times L_n^(zeta)(beta x^2) has unit norm
    on x > 0. N is assembled in log space so large n stays finite. A
    quadrature samples one state thousands of times, so the latest
    constants are cached by value. This calls math.lgamma, not the public
    ``specfun.log_gamma``, so a cache hit skips no call that a counting
    wrapper of the public functions would see.
    """
    return 0.5 * (math.log(2.0) + (1.0 + zeta) * math.log(beta) + math.lgamma(n + 1.0) - math.lgamma(n + zeta + 1.0))


def _envelope(ln_norm: float, beta: float, zeta: float, x, where: str):
    """N x^(1/2 + zeta) exp(-beta x^2 / 2), the envelope of every Laguerre state here.

    ln_norm is ln N (``_log_norm``). Returns (x, s, envelope): x as a
    float for scalar x and as a float array otherwise, and s = beta x^2.
    Raises ValueError(where) unless x is finite and > 0 elementwise.

    A scalar is computed with math, with s = (beta x) x; an array with
    numpy, with s = beta (x^2). The two round differently in the last
    bit, and scalar and array samples each keep their own values. Where
    s overflows the envelope is 0; the caller passes s to ``_vanishing``.
    ``_laguerre_state`` repeats the scalar branch for a float x in the
    domain, so it calls this only for other x, and every domain error is
    raised here.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if not 0.0 < x < math.inf:
            raise ValueError(where)
        s = beta * x * x
        return x, s, math.exp(ln_norm + (0.5 + zeta) * math.log(x) - 0.5 * s)
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0.0) & (x < math.inf)):
        raise ValueError(where)
    with np.errstate(over="ignore"):
        s = beta * x**2
    return x, s, np.exp(ln_norm + (0.5 + zeta) * np.log(x) - 0.5 * s)


def _laguerre_state(n: int, ln_norm: float, beta: float, zeta: float, x, where: str):
    """N x^(1/2 + zeta) exp(-beta x^2 / 2) L_n^(zeta)(beta x^2): every Laguerre state here.

    The Schroedinger state, the 3d radial state and the two spinor
    components each differ only in (beta, zeta, ln N). A float x in the
    domain takes the scalar branch of ``_envelope`` inline, as a
    quadrature calls this ~10^5 times per integral; every other x, and
    every error, goes through ``_envelope``.
    """
    if isinstance(x, float) and 0.0 < x < math.inf:
        s = beta * x * x
        if s < math.inf:
            return math.exp(ln_norm + (0.5 + zeta) * math.log(x) - 0.5 * s) * laguerre(n, zeta, s)
    _, s, envelope = _envelope(ln_norm, beta, zeta, x, where)
    return envelope * _vanishing(s, laguerre, n, zeta, s)


def _vanishing(s, sample, *args):
    """sample(*args), a factor of the state at s = beta x^2, with 0.0 where s is inf: exp(-s/2) outruns it there.

    A scalar s = inf is not sampled; an array is sampled whole and masked
    after, so the polynomial sees the same calls and points either way.
    The callers on hot scalar paths pass a function, not a closure, whose
    cells would cost every call.
    """
    if isinstance(s, float):
        return 0.0 if s == math.inf else sample(*args)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN where s = inf, replaced below
        values = sample(*args)
    values[s == math.inf] = 0.0
    return values


def wavefunction(n: int, p: OscillatorParams, x):
    """Normalized n-th eigenfunction on the half line.

    psi_n(x) = N x^(1/2 + xi) exp(-beta x^2 / 2) L_n^(xi)(beta x^2)
    with N chosen so the square integrates to one; the prefactor is
    assembled in log space so large n stays finite. x must be finite
    and > 0 elementwise; a float x gives a float, and raises
    DivergenceError where the Laguerre recurrence overflows. Where
    beta x^2 leaves the float range the sample is 0.0 (``_vanishing``).
    """
    if type(n) is not int or n < 0:  # _check_level's fast path inline: a quadrature calls this ~10^5 times
        n = _check_level(n)
    d = p._ladder
    return _laguerre_state(n, _log_norm(n, d.beta, d.xi), d.beta, d.xi, x, _WAVEFUNCTION_DOMAIN)


def parity_extend(n: int, m: float, psi_pos: float, x: float):
    """Continue a half-line eigenfunction to x < 0.

    For integer m the potential is mirror symmetric through the barrier
    and the unique square-integrable continuation carries a factor
    (-1)^(m+1); psi_pos is the value already computed at |x|. For
    non-integer m no normalizable continuation exists and the
    NON_NORMALIZABLE marker is returned instead of a value.
    """
    n = _check_level(n)
    if not (math.isfinite(m) and math.isfinite(psi_pos)):
        raise ValueError("m and psi_pos must be finite")
    if not x < 0.0:
        raise ValueError(f"parity_extend is for x < 0, got x = {x}")
    if abs(m - round(m)) > 1e-9:
        return NON_NORMALIZABLE
    sign = -1.0 if (int(round(m)) + 1) % 2 else 1.0
    return sign * psi_pos


def harmonic_energy(n: int, p: OscillatorParams) -> float:
    """Full-line harmonic level hbar omega (n + 1/2), the g = 0 reference."""
    n = _check_level(n)
    return p.hbar * p.omega * (n + 0.5)


def harmonic_wavefunction(n: int, p: OscillatorParams, x):
    """Normalized full-line harmonic eigenfunction, for side-by-side plots.

    x must be finite elementwise; a float x gives a float. Where beta x^2
    leaves the float range the sample is 0.0 (``_vanishing``). Every
    sample comes from the recurrence of the normalized Hermite functions
    (``_scaled_harmonic``), which stays in the float range at every n,
    where H_n itself leaves it (every x from n = 280 on).
    """
    if type(n) is not int or n < 0:
        n = _check_level(n)
    beta = p.mass * p.omega / p.hbar
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if not -math.inf < x < math.inf:
            raise ValueError(_HARMONIC_DOMAIN)
        s = beta * x * x
    else:
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError(_HARMONIC_DOMAIN)
        with np.errstate(over="ignore"):
            s = beta * x * x
    return _vanishing(s, _scaled_harmonic, n, beta, math.sqrt(beta) * x)


# h_k and h_(k-1) are divided by this exact power of two whenever |h_k|
# reaches it, so the rescaling rounds nothing. One step multiplies
# max(|h_k|, |h_(k-1)|) by at most sqrt(2) |y| + 1, so h stays finite for
# every y whose square does.
_HERMITE_RESCALE = 2.0**500


@lru_cache(maxsize=16)
def _hermite_function_steps(n: int) -> tuple:
    """((sqrt(2 / (k+1)), sqrt(k / (k+1))) for k = 1 .. n-1): the coefficients of _scaled_harmonic."""
    return tuple((math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))) for k in range(1, n))


def _scaled_harmonic(n: int, beta: float, y):
    """The harmonic state at y = sqrt(beta) x, by the recurrence of the normalized Hermite functions.

    The state is (beta / pi)^(1/4) exp(-y^2 / 2) h_n(y), with h_0 = 1,
    h_1 = sqrt(2) y and h_(k+1) = sqrt(2 / (k+1)) y h_k - sqrt(k / (k+1)) h_(k-1).
    Where h_k outgrows 2^500 it is scaled down and the power of two goes
    into a running log scale, as ``_envelope`` carries ln N, so neither h_n
    nor the Gaussian leaves the float range on the way; the product is
    formed once, at the end. The h_k carry their own norm, so only
    ln (beta / pi)^(1/4) is added. A float y gives a float, an array an
    array.
    """
    prev, cur = 1.0 + 0.0 * y, math.sqrt(2.0) * y
    if n == 0:
        cur = prev
    steps = _hermite_function_steps(n)
    if isinstance(y, float):
        rescales = 0
        for a, b in steps:
            prev, cur = cur, a * y * cur - b * prev
            if not -_HERMITE_RESCALE < cur < _HERMITE_RESCALE:
                prev, cur, rescales = prev / _HERMITE_RESCALE, cur / _HERMITE_RESCALE, rescales + 1
        exp = math.exp
    else:
        rescales = np.zeros_like(y)
        for a, b in steps:
            prev, cur = cur, a * y * cur - b * prev
            if np.abs(cur).max(initial=0.0) >= _HERMITE_RESCALE:  # one reduction; the mask only where it is needed
                big = np.abs(cur) >= _HERMITE_RESCALE
                prev[big] /= _HERMITE_RESCALE
                cur[big] /= _HERMITE_RESCALE
                rescales[big] += 1.0
        exp = np.exp
    return cur * exp(0.25 * (math.log(beta) - math.log(math.pi)) - 0.5 * y * y + rescales * (500.0 * math.log(2.0)))


def oscillator3d_energy(n: int, l: int, p: OscillatorParams) -> float:
    """Isotropic 3d oscillator level hbar omega (2n + l + 3/2).

    Coincides with the isotonic ladder at g = l(l+1): the half-line
    problem is the angular-momentum radial equation with l continued
    off the integers.
    """
    n = _check_level(n)
    l = _check_orbital(l)
    return p.hbar * p.omega * (2.0 * n + l + 1.5)


def oscillator3d_radial(n: int, l: int, p: OscillatorParams, r):
    """Reduced radial eigenfunction u_nl(r) = r R_nl(r), unit norm on r > 0.

    r must be finite and > 0 elementwise; a float r gives a float, and
    raises DivergenceError where the Laguerre recurrence overflows. Where
    beta r^2 leaves the float range the sample is 0.0 (``_vanishing``).
    """
    if type(n) is not int or n < 0:
        n = _check_level(n)
    if type(l) is not int or l < 0:
        l = _check_orbital(l)
    zeta = l + 0.5
    beta = p.mass * p.omega / p.hbar
    return _laguerre_state(n, _log_norm(n, beta, zeta), beta, zeta, r, "radial coordinate must be finite and positive")
