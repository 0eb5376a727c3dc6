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

import numpy as np

from .errors import UnphysicalRegime
from .specfun import hermite, laguerre, log_gamma

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
        return 0.5 * self.mass * self.omega**2 * x**2 + self.g / (2.0 * x**2)


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
    reported energy: zero for closed forms, the terminal bracketing
    residual for root-solved branches.
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


def derive(p: OscillatorParams) -> DerivedNonrel:
    """Compute the derived combinations for a parameter set.

    Total on all finite g: quantities that do not exist (too-attractive
    coupling) come back as NaN and the regime classifier says why.
    """
    beta = p.mass * p.omega / p.hbar
    alpha = p.mass * p.g / p.hbar**2
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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"level index must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"level index must be non-negative, got {n}")
    return int(n)


def energy(n: int, p: OscillatorParams) -> EnergyLevel:
    """Closed-form level E_n = hbar omega (2n + 1 + (1/2) sqrt(1 + 4 alpha)).

    Equidistant with spacing 2 hbar omega; reduces to the odd harmonic
    half-line levels at g = 0.
    """
    n = _check_level(n)
    d = derive(p)
    if classify_regime(d.alpha) is Regime.UNPHYSICAL:
        raise UnphysicalRegime(f"alpha = {d.alpha} < -1/4 admits no bound spectrum")
    value = p.hbar * p.omega * (2.0 * n + 1.0 + d.xi)
    return EnergyLevel(n=n, value=value, branch=Branch.NONREL_ISOTONIC, residual=0.0)


def _sample(x, beta: float, where: str | None = None):
    """The math module and x as a float for scalar x, numpy and a float array otherwise.

    Returned with s = beta x^2, computed as (beta x) x for a float and
    beta (x^2) for an array: the two round differently in the last
    bit, and scalar and array samples each keep their own values. This
    is the one scalar/array fork of the wavefunctions; scalar
    quadrature integrands call it thousands of times per integral,
    hence the isinstance short cut. When ``where`` is given, x must be
    > 0 elementwise and ValueError(where) is raised otherwise.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if where is not None and x <= 0.0:
            raise ValueError(where)
        return math, x, beta * x * x
    x = np.asarray(x, dtype=float)
    if where is not None and np.any(x <= 0.0):
        raise ValueError(where)
    return np, x, beta * x**2


def _envelope(n: int, beta: float, zeta: float, x, where: str):
    """N x^(1/2 + zeta) exp(-beta x^2 / 2), the envelope of every Laguerre state here.

    Times L_n^(zeta)(beta x^2) it has unit norm on x > 0; N is assembled
    in log space so large n stays finite. Returns (x, s, envelope): x as
    converted by ``_sample`` and s = beta x^2. Raises ValueError(where)
    unless x > 0 elementwise.
    """
    xp, x, s = _sample(x, beta, where)
    ln_norm = 0.5 * (math.log(2.0) + (1.0 + zeta) * math.log(beta) + log_gamma(n + 1.0) - log_gamma(n + zeta + 1.0))
    return x, s, xp.exp(ln_norm + (0.5 + zeta) * xp.log(x) - 0.5 * s)


def wavefunction(n: int, p: OscillatorParams, x):
    """Normalized n-th eigenfunction on the half line.

    psi_n(x) = N x^(1/2 + xi) exp(-beta x^2 / 2) L_n^(xi)(beta x^2)
    with N chosen so the square integrates to one; the prefactor is
    assembled in log space so large n stays finite. x must be > 0
    elementwise; scalar in, scalar out.
    """
    n = _check_level(n)
    d = derive(p)
    if classify_regime(d.alpha) is Regime.UNPHYSICAL:
        raise UnphysicalRegime(f"alpha = {d.alpha} < -1/4 admits no bound spectrum")
    _, s, envelope = _envelope(
        n, d.beta, d.xi, x, "wavefunction is defined on x > 0; use parity_extend for the mirror side"
    )
    return envelope * laguerre(n, d.xi, s)


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
    """Normalized full-line harmonic eigenfunction, for side-by-side plots."""
    n = _check_level(n)
    beta = p.mass * p.omega / p.hbar
    ln_norm = 0.5 * (0.5 * (math.log(beta) - math.log(math.pi)) - n * math.log(2.0) - log_gamma(n + 1.0))
    xp, x, s = _sample(x, beta)
    return xp.exp(ln_norm - 0.5 * s) * hermite(n, math.sqrt(beta) * x)


def oscillator3d_energy(n: int, l: int, p: OscillatorParams) -> float:
    """Isotropic 3d oscillator level hbar omega (2n + l + 3/2).

    Coincides with the isotonic ladder at g = l(l+1): the half-line
    problem is the angular-momentum radial equation with l continued
    off the integers.
    """
    n = _check_level(n)
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 0:
        raise ValueError(f"orbital index must be a non-negative integer, got {l!r}")
    return p.hbar * p.omega * (2.0 * n + l + 1.5)


def oscillator3d_radial(n: int, l: int, p: OscillatorParams, r):
    """Reduced radial eigenfunction u_nl(r) = r R_nl(r), unit norm on r > 0."""
    n = _check_level(n)
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 0:
        raise ValueError(f"orbital index must be a non-negative integer, got {l!r}")
    _, s, envelope = _envelope(n, p.mass * p.omega / p.hbar, l + 0.5, r, "radial coordinate must be positive")
    return envelope * laguerre(n, l + 0.5, s)
