"""Relativistic bound states in the isotonic well.

Covers the radial Dirac problem in the two exactly solvable limits,
where the scalar and vector parts of the potential differ by a
constant (spin-aligned case) or sum to a constant (pseudospin-aligned
case), plus the Klein-Gordon problem with equal scalar and vector
wells. In each case the second-order equation for one spinor
component has the isotonic shape with an energy-dependent coupling,
so the levels are roots of a transcendental residual rather than a
plain closed form. Root solving, spinor components and the
consistency maps between the branches all live here.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateEnergy, NoRootInRange, UnphysicalRegime
from .nonrel import Branch, EnergyLevel, OscillatorParams, _check_level, _envelope, energy as nonrel_energy
from .nu import HypergeometricForm, nu_eigencondition, nu_reduce
from .specfun import laguerre, laguerre_derivative

__all__ = [
    "Symmetry",
    "DiracParams",
    "SpinDerived",
    "PseudospinDerived",
    "spin_derived",
    "pseudospin_derived",
    "spin_energy_residual",
    "pseudospin_energy_residual",
    "solve_spin_energy",
    "solve_pseudospin_energy",
    "spin_upper_spinor",
    "spin_lower_spinor",
    "pseudospin_lower_spinor",
    "klein_gordon_energy",
    "klein_gordon_residual",
    "pseudospin_map_check",
    "nonrel_limit_check",
]

# Root bracketing: geometric ladder of offsets above the admissible
# lower energy bound, then bisection plus one guarded Newton polish.
_SCAN_SEED = 1e-9
_SCAN_FACTOR = 1.05
_UPPER_FACTOR = 1e3
_BISECT_MAX = 200
_BISECT_TOL = 1e-12

_SPINOR_DOMAIN = "spinor components are defined on x > 0"


class Symmetry(enum.Enum):
    """Which relativistic symmetry limit the parameters describe."""

    SPIN = "spin"
    PSEUDOSPIN = "pseudospin"


@dataclass(frozen=True)
class DiracParams:
    """Parameters of the relativistic isotonic problem.

    sym_constant is the constant offset left over by the symmetry limit
    (additive to the energy denominator in the spin case, subtractive
    in the pseudospin case). kappa is the angular quantum number of the
    lowest partial wave for the chosen branch and is filled in
    automatically: -1 for spin, +1 for pseudospin.
    """

    mass: float = 1.0
    omega: float = 1.0
    g: float = 2.0
    sym_constant: float = 0.0
    hbar: float = 1.0
    c: float = 1.0
    branch: Symmetry = Symmetry.SPIN
    kappa: int | None = field(default=None)

    def __post_init__(self) -> None:
        for name in ("mass", "omega", "hbar", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")
        if not math.isfinite(self.sym_constant):
            raise ValueError(f"sym_constant must be finite, got {self.sym_constant}")
        if not isinstance(self.branch, Symmetry):
            raise ValueError(f"branch must be a Symmetry, got {self.branch!r}")
        expected = -1 if self.branch is Symmetry.SPIN else 1
        if self.kappa is None:
            object.__setattr__(self, "kappa", expected)
        elif self.kappa != expected:
            raise ValueError(f"kappa must be {expected} for the {self.branch.value} branch, got {self.kappa}")

    @property
    def rest_energy(self) -> float:
        return self.mass * self.c**2

    def potential(self, x):
        """The isotonic well U(x) shared by both branches."""
        x = np.asarray(x, dtype=float)
        return 0.5 * self.mass * self.omega**2 * x**2 + self.g / (2.0 * x**2)


@dataclass(frozen=True)
class SpinDerived:
    """Energy-dependent combinations in the upper-component equation.

    energy_weight    (M c^2 + E - sym_constant) / (hbar c)^2, the factor
                     multiplying the well in the reduced equation
    constant_term    energy_weight * (M c^2 - E), the x-independent part
                     of the curvature coefficient (negative when bound)
    singular_coeff   (1/2) g * energy_weight, strength of the 1/x^2 term
    falloff          sqrt(M omega^2 energy_weight / 2), Gaussian scale
    ladder_order     (1/2) sqrt(1 + 2 g * energy_weight), Laguerre order
    """

    energy_weight: float
    constant_term: float
    singular_coeff: float
    falloff: float
    ladder_order: float


@dataclass(frozen=True)
class PseudospinDerived:
    """Same combinations for the lower-component equation.

    energy_weight is (M c^2 - E + sym_constant) / (hbar c)^2 and is
    negative for bound states; falloff and ladder_order are built from
    its magnitude so the component stays manifestly real.
    """

    energy_weight: float
    constant_term: float
    singular_coeff: float
    falloff: float
    ladder_order: float


def spin_derived(p: DiracParams, e_value: float) -> SpinDerived:
    """Derived combinations of the spin-branch equation at energy e_value."""
    w = p.rest_energy + e_value - p.sym_constant
    if w <= 0.0:
        raise ValueError(f"energy denominator M c^2 + E - sym_constant = {w} must be positive")
    hc2 = (p.hbar * p.c) ** 2
    weight = w / hc2
    under = 1.0 + 2.0 * p.g * weight
    if under < 0.0:
        raise UnphysicalRegime(f"1 + 2 g energy_weight = {under} < 0: no bound ladder at this energy")
    return SpinDerived(
        energy_weight=weight,
        constant_term=weight * (p.rest_energy - e_value),
        singular_coeff=0.5 * p.g * weight,
        falloff=math.sqrt(0.5 * p.mass * p.omega**2 * weight),
        ladder_order=0.5 * math.sqrt(under),
    )


def pseudospin_derived(p: DiracParams, e_value: float) -> PseudospinDerived:
    """Derived combinations of the pseudospin-branch equation at energy e_value."""
    u = e_value - p.rest_energy - p.sym_constant
    if u <= 0.0:
        raise ValueError(f"energy gap E - M c^2 - sym_constant = {u} must be positive")
    hc2 = (p.hbar * p.c) ** 2
    weight = -u / hc2  # negative for bound states by construction
    under = 1.0 + 2.0 * p.g * (-weight)
    if under < 0.0:
        raise UnphysicalRegime(f"1 + 2 g |energy_weight| = {under} < 0: no bound ladder at this energy")
    return PseudospinDerived(
        energy_weight=weight,
        constant_term=weight * (p.rest_energy + e_value),
        singular_coeff=0.5 * p.g * weight,
        falloff=math.sqrt(0.5 * p.mass * p.omega**2 * (-weight)),
        ladder_order=0.5 * math.sqrt(under),
    )


def spin_energy_residual(e_value: float, n: int, p: DiracParams) -> float:
    """Quantization residual of the spin branch; zero at the n-th level.

    In the form (E - M c^2) sqrt(w) - hbar c omega sqrt(2 M) (2n + 1 + order)
    with w = M c^2 + E - sym_constant. Strictly increasing in E on the
    admissible side, which the root scan relies on.
    """
    n = _check_level(n)
    w = p.rest_energy + e_value - p.sym_constant
    if w < 0.0:
        raise ValueError(f"energy denominator M c^2 + E - sym_constant = {w} must be non-negative")
    hc2 = (p.hbar * p.c) ** 2
    order = 0.5 * math.sqrt(1.0 + 2.0 * p.g * w / hc2)
    return (e_value - p.rest_energy) * math.sqrt(w) - p.hbar * p.c * p.omega * math.sqrt(2.0 * p.mass) * (
        2.0 * n + 1.0 + order
    )


def _spin_residual_derivative(e_value: float, n: int, p: DiracParams) -> float:
    w = p.rest_energy + e_value - p.sym_constant
    hc2 = (p.hbar * p.c) ** 2
    order = 0.5 * math.sqrt(1.0 + 2.0 * p.g * w / hc2)
    d_order = p.g / (4.0 * order * hc2)
    return math.sqrt(w) + (e_value - p.rest_energy) / (2.0 * math.sqrt(w)) - p.hbar * p.c * p.omega * math.sqrt(
        2.0 * p.mass
    ) * d_order


def pseudospin_energy_residual(e_value: float, n: int, p: DiracParams) -> float:
    """Quantization residual of the pseudospin branch; zero at the n-th level."""
    n = _check_level(n)
    u = e_value - p.rest_energy - p.sym_constant
    if u < 0.0:
        raise ValueError(f"energy gap E - M c^2 - sym_constant = {u} must be non-negative")
    hc2 = (p.hbar * p.c) ** 2
    order = 0.5 * math.sqrt(1.0 + 2.0 * p.g * u / hc2)
    return (e_value + p.rest_energy) * math.sqrt(u) - p.hbar * p.c * p.omega * math.sqrt(2.0 * p.mass) * (
        2.0 * n + 1.0 + order
    )


def _pseudospin_residual_derivative(e_value: float, n: int, p: DiracParams) -> float:
    u = e_value - p.rest_energy - p.sym_constant
    hc2 = (p.hbar * p.c) ** 2
    order = 0.5 * math.sqrt(1.0 + 2.0 * p.g * u / hc2)
    d_order = p.g / (4.0 * order * hc2)
    return math.sqrt(u) + (e_value + p.rest_energy) / (2.0 * math.sqrt(u)) - p.hbar * p.c * p.omega * math.sqrt(
        2.0 * p.mass
    ) * d_order


def _find_root(f, df, lower: float, upper: float) -> tuple[float, float]:
    """Bracket the first sign change above ``lower`` and refine it.

    Scans E = lower + offset with the offset growing geometrically from
    a tiny seed (the bound itself is usually a domain edge), bisects to
    absolute width 1e-12, then attempts a single Newton polish kept
    only if it stays inside the bracket and reduces the residual.
    Raises NoRootInRange if no sign change is found below ``upper``.
    """
    if not lower < upper:
        raise NoRootInRange(f"empty search window [{lower}, {upper}]")
    offset = _SCAN_SEED
    e_prev = lower + offset
    f_prev = f(e_prev)
    if f_prev == 0.0:
        return e_prev, 0.0
    while True:
        offset *= _SCAN_FACTOR
        e_cur = lower + offset
        if e_cur > upper:
            raise NoRootInRange(f"no sign change of the residual in ({lower}, {upper}]")
        f_cur = f(e_cur)
        if f_cur == 0.0:
            return e_cur, 0.0
        if f_prev * f_cur < 0.0:
            break
        e_prev, f_prev = e_cur, f_cur

    a, b, fa = e_prev, e_cur, f_prev
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break  # spacing exhausted, interval is one ulp wide
        fm = f(mid)
        if fm == 0.0:
            return mid, 0.0
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a <= _BISECT_TOL:
            break

    best = 0.5 * (a + b)
    f_best = f(best)
    slope = df(best)
    if slope != 0.0 and math.isfinite(slope):
        polished = best - f_best / slope
        if a < polished < b:
            f_pol = f(polished)
            if abs(f_pol) < abs(f_best):
                best, f_best = polished, f_pol
    return best, abs(f_best)


def solve_spin_energy(n: int, p: DiracParams) -> EnergyLevel:
    """Energy of the n-th spin-branch level by bracketed root solving.

    The admissible window opens at max(M c^2, sym_constant - M c^2),
    below which the reduced equation loses its bound character, and is
    capped at 1e3 M c^2.
    """
    n = _check_level(n)
    if p.branch is not Symmetry.SPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    lower = max(p.rest_energy, p.sym_constant - p.rest_energy)
    upper = _UPPER_FACTOR * p.rest_energy
    e_value, res = _find_root(
        lambda e: spin_energy_residual(e, n, p),
        lambda e: _spin_residual_derivative(e, n, p),
        lower,
        upper,
    )
    return EnergyLevel(n=n, value=e_value, branch=Branch.DIRAC_SPIN, residual=res)


def solve_pseudospin_energy(n: int, p: DiracParams) -> EnergyLevel:
    """Energy of the n-th pseudospin-branch level by bracketed root solving.

    The window opens at M c^2 + sym_constant (which may be deeply
    negative) and is capped at 1e3 M c^2.
    """
    n = _check_level(n)
    if p.branch is not Symmetry.PSEUDOSPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    lower = p.rest_energy + p.sym_constant
    upper = _UPPER_FACTOR * p.rest_energy
    e_value, res = _find_root(
        lambda e: pseudospin_energy_residual(e, n, p),
        lambda e: _pseudospin_residual_derivative(e, n, p),
        lower,
        upper,
    )
    return EnergyLevel(n=n, value=e_value, branch=Branch.DIRAC_PSEUDOSPIN, residual=res)


def spin_upper_spinor(n: int, p: DiracParams, e_value: float, x):
    """Normalized upper spinor component of the spin branch at energy e_value.

    Same polynomial-times-Gaussian shape as the nonrelativistic
    eigenfunction, with the energy-dependent falloff and order. x > 0
    elementwise; scalar in, scalar out.
    """
    n = _check_level(n)
    d = spin_derived(p, e_value)
    _, s, envelope = _envelope(n, d.falloff, d.ladder_order, x, _SPINOR_DOMAIN)
    return envelope * laguerre(n, d.ladder_order, s)


def spin_lower_spinor(n: int, p: DiracParams, e_value: float, x):
    """Lower spinor component of the spin branch.

    Obtained from the upper component through the first-order coupling,
    so it inherits the upper component's normalization divided by the
    energy denominator M c^2 + E - sym_constant. Raises DegenerateEnergy
    when that denominator vanishes (the coupling has a pole there).
    """
    n = _check_level(n)
    denom = p.rest_energy + e_value - p.sym_constant
    if abs(denom) < 1e-12:
        raise DegenerateEnergy(f"energy denominator {denom} is on the coupling pole")
    d = spin_derived(p, e_value)
    nu = d.falloff
    zeta = d.ladder_order
    x, s, envelope = _envelope(n, nu, zeta, x, _SPINOR_DOMAIN)
    bracket = ((2.0 * zeta - 1.0) / (2.0 * x) - nu * x) * laguerre(n, zeta, s)
    bracket += laguerre_derivative(n, zeta, s) * 2.0 * nu * x
    return envelope * bracket / denom


def pseudospin_lower_spinor(n: int, p: DiracParams, e_value: float, x):
    """Normalized lower spinor component of the pseudospin branch.

    Written in the manifestly real form built from the magnitude of the
    (negative) energy weight, with the closed-form normalization from
    the polynomial weight integral. x > 0 elementwise.
    """
    n = _check_level(n)
    d = pseudospin_derived(p, e_value)
    _, s, envelope = _envelope(n, d.falloff, d.ladder_order, x, _SPINOR_DOMAIN)
    return envelope * laguerre(n, d.ladder_order, s)


def klein_gordon_residual(e_value: float, n: int, p: DiracParams) -> float:
    """Quantization residual of the Klein-Gordon branch with equal wells.

    Identical in form to the spin residual with zero symmetry constant:
    the energy weight is (M c^2 + E) / (hbar c)^2.
    """
    n = _check_level(n)
    w = p.rest_energy + e_value
    if w < 0.0:
        raise ValueError(f"M c^2 + E = {w} must be non-negative")
    hc2 = (p.hbar * p.c) ** 2
    order = 0.5 * math.sqrt(1.0 + 2.0 * p.g * w / hc2)
    return (e_value - p.rest_energy) * math.sqrt(w) - p.hbar * p.c * p.omega * math.sqrt(2.0 * p.mass) * (
        2.0 * n + 1.0 + order
    )


def _kg_residual_derivative(e_value: float, n: int, p: DiracParams) -> float:
    w = p.rest_energy + e_value
    hc2 = (p.hbar * p.c) ** 2
    order = 0.5 * math.sqrt(1.0 + 2.0 * p.g * w / hc2)
    d_order = p.g / (4.0 * order * hc2)
    return math.sqrt(w) + (e_value - p.rest_energy) / (2.0 * math.sqrt(w)) - p.hbar * p.c * p.omega * math.sqrt(
        2.0 * p.mass
    ) * d_order


def klein_gordon_energy(n: int, p: DiracParams) -> EnergyLevel:
    """Energy of the n-th Klein-Gordon level (equal scalar and vector wells).

    Requires sym_constant == 0: the second-order equation this branch
    reduces to has no room for a symmetry offset.
    """
    n = _check_level(n)
    if p.sym_constant != 0.0:
        raise ValueError("Klein-Gordon branch has no symmetry constant; set sym_constant = 0")
    lower = p.rest_energy
    upper = _UPPER_FACTOR * p.rest_energy
    e_value, res = _find_root(
        lambda e: klein_gordon_residual(e, n, p),
        lambda e: _kg_residual_derivative(e, n, p),
        lower,
        upper,
    )
    return EnergyLevel(n=n, value=e_value, branch=Branch.KLEIN_GORDON, residual=res)


def pseudospin_map_check(n: int, p: DiracParams) -> float:
    """Cross-check the pseudospin residual against the generic reduction.

    Feeds the pseudospin problem's coefficient triple through the
    generic hypergeometric reduction of ``nu`` (this check is its only
    caller; the spin and Klein-Gordon residuals are written out
    directly) and compares the resulting eigencondition,
    rescaled to residual units, against pseudospin_energy_residual on a
    100-point energy grid spanning the bound region around the n-th
    level. Returns the maximum absolute difference; nonzero values mean
    the two derivation routes disagree.
    """
    n = _check_level(n)
    if p.branch is not Symmetry.PSEUDOSPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    level = solve_pseudospin_energy(n, p)
    lower = p.rest_energy + p.sym_constant
    span = level.value - lower
    energies = np.linspace(lower + 0.01 * span, level.value + 0.5 * span, 100)

    hc2 = (p.hbar * p.c) ** 2
    worst = 0.0
    for e_value in energies:
        u = float(e_value) - p.rest_energy - p.sym_constant
        weight_mag = u / hc2
        form = HypergeometricForm(
            a2=-0.5 * p.mass * p.omega**2 * weight_mag,
            a1=weight_mag * (p.rest_energy + float(e_value)),
            a0=-0.5 * p.g * weight_mag,
        )
        red = nu_reduce(form)
        mapped = 2.0 * nu_eigencondition(red, n) * p.hbar * p.c / math.sqrt(weight_mag)
        direct = pseudospin_energy_residual(float(e_value), n, p)
        worst = max(worst, abs(mapped - direct))
    return worst


def nonrel_limit_check(n: int, p: DiracParams, c_values) -> list[float]:
    """Deviation of the spin branch from the nonrelativistic ladder vs c.

    For each speed of light in c_values (strictly increasing), solves
    the spin level, subtracts the rest energy and compares with the
    nonrelativistic closed form at the same mass, frequency and
    coupling. Returns the list of absolute deviations, which should
    fall off as 1/c^2.
    """
    n = _check_level(n)
    if p.branch is not Symmetry.SPIN:
        raise ValueError("the nonrelativistic limit check runs on the spin branch")
    if p.sym_constant != 0.0:
        raise ValueError("the nonrelativistic limit is taken at zero symmetry constant")
    cs = [float(v) for v in c_values]
    if len(cs) < 2 or any(b <= a for a, b in zip(cs, cs[1:])) or cs[0] <= 0.0:
        raise ValueError("c_values must be at least two strictly increasing positive speeds")
    target = nonrel_energy(n, OscillatorParams(mass=p.mass, omega=p.omega, g=p.g, hbar=p.hbar)).value
    deviations = []
    for c_val in cs:
        pc = replace(p, c=c_val)
        level = solve_spin_energy(n, pc)
        deviations.append(abs(level.value - pc.rest_energy - target))
    return deviations
