"""Relativistic bound states in the isotonic well.

Covers the radial Dirac problem in the two exactly solvable limits,
where the scalar and vector parts of the potential differ by a
constant (spin-aligned case) or sum to a constant (pseudospin-aligned
case), plus the Klein-Gordon problem with equal scalar and vector
wells. In each case the second-order equation for one spinor
component has the isotonic shape with an energy-dependent coupling,
so the levels are roots of a residual with two square roots rather
than a plain closed form. The condition is algebraic: squaring twice
gives a degree-6 polynomial in E - s M c^2 (s = +1 for spin and
Klein-Gordon, -1 for pseudospin). Root solving, spinor components and
the consistency maps between the branches all live here.

The levels of one branch are solved from one shared scan: a walk up a
geometric ladder of energies above the window edge calls the residual
of the lowest level not yet bracketed, bisects that level where its
residual changes sign, and calls the next level at the same ladder
point. It relies on the residual decreasing in n at fixed E, so a
ladder of levels 0..n_max (``solve_levels``) costs about one scan plus
one bisection per level instead of one scan per level. Each bisection
runs until its ends are adjacent floats, so a level keeps every digit
the float spacing of E allows, whatever the units.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateEnergy, DivergenceError, NoRootInRange, UnphysicalRegime
from .errors import _check_finite, _check_index, _check_positive, _divisor_square, _in_float_range, _square
from .nonrel import Branch, EnergyLevel, OscillatorParams, _laguerre_state, _log_norm, energy as nonrel_energy
from .nu import HypergeometricForm, nu_eigencondition, nu_reduce
from .specfun import laguerre  # unused here; bench/test_bench.py checks that its tracer restores rel.laguerre

__all__ = [
    "Symmetry",
    "DiracParams",
    "SpinDerived",
    "PseudospinDerived",
    "spin_derived",
    "pseudospin_derived",
    "energy_residual",
    "spin_energy_residual",
    "pseudospin_energy_residual",
    "solve_spin_energy",
    "solve_pseudospin_energy",
    "solve_levels",
    "spin_upper_spinor",
    "spin_lower_spinor",
    "pseudospin_lower_spinor",
    "klein_gordon_energy",
    "klein_gordon_residual",
    "pseudospin_map_check",
    "nonrel_limit_check",
]

# Root bracketing: one geometric ladder of offsets above the admissible
# lower energy bound, shared by the levels of a solve, then bisection of
# each level to adjacent floats.
_SCAN_SEED = 1e-9
_SCAN_FACTOR = 1.05

_SPINOR_DOMAIN = "spinor components are defined on finite x > 0"


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
    automatically: -1 for spin, +1 for pseudospin. ``_well``, not a field,
    is the OscillatorParams of mass, omega, g and hbar, whose scales p reads.
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
        object.__setattr__(self, "_well", OscillatorParams(mass=self.mass, omega=self.omega, g=self.g, hbar=self.hbar))
        _check_positive("c", self.c)
        _check_finite("sym_constant", self.sym_constant)
        if not isinstance(self.branch, Symmetry):
            raise ValueError(f"branch must be a Symmetry, got {self.branch!r}")
        expected = -1 if self.branch is Symmetry.SPIN else 1
        if self.kappa is None:
            object.__setattr__(self, "kappa", expected)
        elif self.kappa != expected:
            raise ValueError(f"kappa must be {expected} for the {self.branch.value} branch, got {self.kappa}")

    # Constants of the parameter set, computed on first use and kept on the
    # instance; not fields, so ==, hash, repr and dataclasses.replace see
    # only the parameters above.

    @cached_property
    def rest_energy(self) -> float:
        return _in_float_range(self.mass * _square(self.c, "c"), "M c^2")

    @cached_property
    def _hc2(self) -> float:
        """(hbar c)^2, the denominator of every energy weight."""
        return _divisor_square(self.hbar * self.c, "(hbar c)")

    @cached_property
    def _level_scale(self) -> float:
        """hbar c omega sqrt(2 M), the factor of (2n + 1 + order) in each residual."""
        scale = self.hbar * self.c * self.omega * math.sqrt(2.0 * self.mass)
        return _in_float_range(scale, "hbar c omega sqrt(2 M)")

    @cached_property
    def _window(self) -> tuple[Branch, float]:
        """(branch, lower edge of the admissible window), where the levels and the self-consistent sweep start."""
        if self.branch is Symmetry.SPIN:
            return Branch.DIRAC_SPIN, max(self.rest_energy, self.sym_constant - self.rest_energy)
        return Branch.DIRAC_PSEUDOSPIN, _in_float_range(self.rest_energy + self.sym_constant, "M c^2 + sym_constant")

    @cached_property
    def _spinor_memo(self) -> list:
        """[((sign, E, n), derived, ln N)] of the latest spinor state sampled; see _spinor_state.

        It stays on p, not in an lru_cache: the state it keeps is the
        energy-dependent ``_derived`` of p, and a cache keyed by a
        DiracParams would hash its eight fields on every sample, which
        costs more than the sample.
        """
        return [(None, None, 0.0)]

    def potential(self, x):
        """The isotonic well U(x) shared by both branches (``OscillatorParams.potential``: +-inf at x = 0, ValueError for NaN x)."""
        return self._well.potential(x)


@dataclass(frozen=True)
class SpinDerived:
    """Energy-dependent combinations in the reduced equation of one branch.

    For the spin branch (upper component):

    energy_weight    (M c^2 + E - sym_constant) / (hbar c)^2, the factor
                     multiplying the well in the reduced equation
    constant_term    energy_weight * (M c^2 - E), the x-independent part
                     of the curvature coefficient (negative when bound)
    singular_coeff   (1/2) g * energy_weight, strength of the 1/x^2 term
    falloff          sqrt(M omega^2 |energy_weight| / 2), Gaussian scale
    ladder_order     (1/2) sqrt(1 + 2 g |energy_weight|), Laguerre order
    """

    energy_weight: float
    constant_term: float
    singular_coeff: float
    falloff: float
    ladder_order: float


class PseudospinDerived(SpinDerived):
    """Same combinations for the lower-component equation.

    energy_weight is (M c^2 - E + sym_constant) / (hbar c)^2 and is
    negative for bound states; constant_term is energy_weight *
    (M c^2 + E). falloff and ladder_order are built from its magnitude
    so the component stays manifestly real.
    """


def _derived(p: DiracParams, e_value: float, sign: float) -> SpinDerived:
    """Derived combinations at e_value of the spin (sign +1) or pseudospin (sign -1) equation.

    The magnitude of the energy weight is (E + sign M c^2 - sym_constant)
    / (hbar c)^2 and must be positive; the weight itself carries the sign.
    DivergenceError names 1 + 2 g |energy_weight| or constant_term where
    either leaves the float range.
    """
    _check_finite("energy", e_value)
    w = e_value + sign * p.rest_energy - p.sym_constant
    if w <= 0.0:
        raise ValueError(f"E {'+' if sign > 0.0 else '-'} M c^2 - sym_constant = {w} must be positive")
    magnitude = w / p._hc2
    weight = sign * magnitude
    under = 1.0 + 2.0 * p.g * magnitude
    if under < 0.0:
        raise UnphysicalRegime(f"1 + 2 g |energy_weight| = {under} < 0: no bound ladder at this energy")
    _in_float_range(under, "1 + 2 g |energy_weight|")
    return (SpinDerived if sign > 0.0 else PseudospinDerived)(
        energy_weight=weight,
        constant_term=_in_float_range(weight * (p.rest_energy - sign * e_value), "constant_term"),
        singular_coeff=0.5 * p.g * weight,
        falloff=math.sqrt(0.5 * p.mass * p._well._omega2 * magnitude),
        ladder_order=0.5 * math.sqrt(under),
    )


def spin_derived(p: DiracParams, e_value: float) -> SpinDerived:
    """Derived combinations of the spin-branch equation at energy e_value."""
    return _derived(p, e_value, 1.0)


def pseudospin_derived(p: DiracParams, e_value: float) -> PseudospinDerived:
    """Derived combinations of the pseudospin-branch equation at energy e_value."""
    return _derived(p, e_value, -1.0)


def energy_residual(e_value: float, n: int, p: DiracParams, sign: float, offset: float) -> float:
    """Quantization residual of every relativistic branch; zero at the n-th level.

    In the form (E - s M c^2) sqrt(w) - hbar c omega sqrt(2 M) (2n + 1 + order)
    with w = E + s M c^2 - C and order = (1/2) sqrt(1 + 2 g w / (hbar c)^2).
    (s, C) = (sign, offset) is (+1, sym_constant) for spin, (-1,
    sym_constant) for pseudospin and (+1, 0) for Klein-Gordon. Strictly
    increasing in E on the admissible side w >= 0, and decreasing in n at
    fixed E; the shared root scan relies on both. A NaN or infinite
    energy raises ValueError.
    """
    if type(n) is not int or n < 0:  # a valid plain int skips _check_index: a level solve calls this ~500 times
        n = _check_index(n)
    mc2 = sign * p.rest_energy
    w = e_value + mc2 - offset
    # one branch for w < 0 and for a NaN or +inf w; a finite E whose w overflows goes on as before
    if not 0.0 <= w <= 1.7976931348623157e308:
        _check_finite("energy", e_value)
        if w < 0.0:
            raise ValueError(f"E {'+' if sign > 0.0 else '-'} M c^2 - {offset} = {w} must be non-negative")
    under = 1.0 + 2.0 * p.g * w / p._hc2
    if under < 0.0:
        raise UnphysicalRegime(f"1 + 2 g |energy_weight| = {under} < 0: no bound ladder at this energy")
    return (e_value - mc2) * math.sqrt(w) - p._level_scale * (2.0 * n + 1.0 + 0.5 * math.sqrt(under))


def spin_energy_residual(e_value: float, n: int, p: DiracParams) -> float:
    """Quantization residual of the spin branch: energy_residual with w = M c^2 + E - sym_constant."""
    return energy_residual(e_value, n, p, 1.0, p.sym_constant)


def pseudospin_energy_residual(e_value: float, n: int, p: DiracParams) -> float:
    """Quantization residual of the pseudospin branch: energy_residual with w = E - M c^2 - sym_constant."""
    return energy_residual(e_value, n, p, -1.0, p.sym_constant)


def klein_gordon_residual(e_value: float, n: int, p: DiracParams) -> float:
    """Quantization residual of the Klein-Gordon branch with equal wells: w = M c^2 + E."""
    return energy_residual(e_value, n, p, 1.0, 0.0)


def _solve_levels(first: int, last: int, p: DiracParams, branch: Branch, lower: float) -> list[EnergyLevel]:
    """Levels first..last of energy_residual above ``lower``, from one shared scan.

    Walks the ladder E = lower + rise, the rise growing geometrically from
    a tiny seed (the bound itself is usually a domain edge), and calls the
    residual of the lowest level not yet bracketed. Where that residual
    goes from negative to non-negative, the level's root lies between the
    previous ladder point (or ``lower``) and this one: it is bisected
    until the two ends are adjacent floats, and the end with the smaller
    |residual| is the level (see ``_refine``). The next level is then
    called at the same ladder point.

    At fixed E the residual decreases in n, in floats too (only the term
    2n + 1 + order changes, and rounding keeps its order), so each level
    is negative at every ladder point below the one where the level under
    it changed sign. Each level thus gets the bracket, value and residual
    of a scan of its own, and a one-level range makes exactly the calls of
    one. Only where a bracket's lower end was called for a lower level and
    stays an end to the close is the level's own residual there called
    too, as its own scan would have. The branch fixes (s, C) once. Raises
    at the lowest failing level, as a loop over single levels would:
    NoRootInRange when E leaves the float range before the sign changes,
    or when the end chosen is the window edge, where w = 0 or the binding
    E - s M c^2 rounds to 0 (the binding gap is then below the float
    spacing of E, which happens when M c^2 dwarfs hbar omega);
    DivergenceError when 2 g w / (hbar c)^2 leaves the float range first.
    That point of the ladder is the same for every level, and no level
    lies above it. DivergenceError too when the ladder term
    hbar c omega sqrt(2 M) (2n + 1 + order) of the level is inf at a
    ladder point with g >= 0, where order only grows with E, or when
    hbar c omega sqrt(2 M) (2n + 1) alone is inf. Also
    DivergenceError when the bisection ends on a non-finite residual: the
    level condition then holds only where both of its sides, (E - s M c^2)
    sqrt(w) and the ladder term, are beyond the float range (at g < 0 the
    ladder term comes back from inf as E grows, after (E - s M c^2) sqrt(w)
    has left the range). The residual is called by its module name at
    each evaluation, so a wrapper bound there sees every one.
    """
    sign = -1.0 if branch is Branch.DIRAC_PSEUDOSPIN else 1.0
    offset = 0.0 if branch is Branch.KLEIN_GORDON else p.sym_constant
    levels = []
    n = first
    rise = _SCAN_SEED
    # The residual at ``lower`` itself is strictly negative: there either
    # E - s M c^2 = 0 or w = 0, which leaves only the ladder term
    # -hbar c omega sqrt(2M) (2n + 1 + order) < 0. So a level that is
    # already non-negative at the first point sits in [lower, lower + seed].
    # -inf stands for that sign only, not for an evaluated residual, so
    # the edge never wins _refine's choice of end.
    e_prev, f_prev = lower, -math.inf
    e_cur = lower + rise
    while True:
        f_cur = energy_residual(e_cur, n, p, sign, offset)
        if 0.0 <= f_cur and (f_prev is None or f_prev < 0.0):
            e_value, res = _refine(n, p, sign, offset, e_prev, e_cur, f_prev, f_cur)
            if e_value - sign * p.rest_energy == 0.0 or e_value + sign * p.rest_energy - offset <= 0.0:
                raise NoRootInRange(
                    f"level {n} sits on the window edge E = {e_value}: the binding gap is below "
                    f"the float resolution {math.ulp(e_value)} of E at M c^2 = {p.rest_energy}"
                )
            if not res < math.inf:
                mp = "-" if sign > 0.0 else "+"
                raise DivergenceError(
                    f"level {n} has residual {res} at E = {e_value}, bisected in ({e_prev}, {e_cur}]: "
                    f"both sides of its condition, (E {mp} M c^2) sqrt(w) and the ladder term "
                    f"hbar c omega sqrt(2 M) (2n + 1 + order), leave the float range across the bracket"
                )
            levels.append(EnergyLevel(n=n, value=e_value, branch=branch, residual=res))
            if n == last:
                return levels
            n += 1
            if f_prev != -math.inf:
                # level n is below level n - 1 at e_prev, so negative there too, but its own residual
                # there is not known: None has _refine call it if e_prev is still an end at the close
                f_prev = None
            continue
        if not f_cur > -math.inf:
            coupling = 2.0 * p.g * (e_cur + sign * p.rest_energy - offset) / p._hc2
            if coupling == math.inf:
                # g > 0, so the coupling only grows with E: the residual stays -inf or NaN from here on
                raise DivergenceError(
                    f"the scale 2 g w / (hbar c)^2 leaves the float range at E = {e_cur}, before level {n} changes sign"
                )
            order = 0.5 * math.sqrt(1.0 + coupling)
            if p._level_scale * (2.0 * n + 1.0 + order) == math.inf and (
                p.g >= 0.0 or p._level_scale * (2.0 * n + 1.0) == math.inf
            ):
                # the order grows with E for g >= 0 and is never below 0: the term stays inf from here on
                raise DivergenceError(
                    f"the ladder term hbar c omega sqrt(2 M) (2n + 1 + order) = {p._level_scale} * "
                    f"({2 * n + 1} + {order}) leaves the float range at E = {e_cur}, before level {n} changes sign"
                )
        e_prev, f_prev = e_cur, f_cur
        rise *= _SCAN_FACTOR
        e_cur = lower + rise
        if not math.isfinite(e_cur):
            raise NoRootInRange(f"no sign change of the residual in ({lower}, {e_prev}]: E leaves the float range")


def _refine(
    n: int, p: DiracParams, sign: float, offset: float, a: float, b: float, fa: float | None, fb: float
) -> tuple[float, float]:
    """(E, |residual|) of level n in [a, b], where its residual goes from fa < 0 to fb >= 0.

    Bisects until a and b are adjacent floats and returns the end with the
    smaller |residual|, so the level is as close as the float spacing of E
    allows, whatever the units. fa = -inf never wins that choice; the scan
    passes it for the window edge, where the residual is negative but not
    evaluated. fa = None is a residual at a not evaluated yet; it is
    evaluated only if a is still an end at the close.
    """
    while fb != 0.0:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # a and b are adjacent floats
            if fa is None:
                fa = energy_residual(a, n, p, sign, offset)
            return (a, abs(fa)) if abs(fa) < fb else (b, fb)
        fm = energy_residual(mid, n, p, sign, offset)
        if fm >= 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return b, 0.0


def solve_spin_energy(n: int, p: DiracParams) -> EnergyLevel:
    """Energy of the n-th spin-branch level by bracketed root solving.

    The admissible window opens at max(M c^2, sym_constant - M c^2),
    below which the reduced equation loses its bound character.
    """
    n = _check_index(n)
    if p.branch is not Symmetry.SPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    return _solve_levels(n, n, p, *p._window)[0]


def solve_pseudospin_energy(n: int, p: DiracParams) -> EnergyLevel:
    """Energy of the n-th pseudospin-branch level by bracketed root solving.

    The window opens at M c^2 + sym_constant (which may be deeply
    negative); DivergenceError names it where it leaves the float range.
    """
    n = _check_index(n)
    if p.branch is not Symmetry.PSEUDOSPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    return _solve_levels(n, n, p, *p._window)[0]


def solve_levels(n_max: int, p: DiracParams) -> list[EnergyLevel]:
    """Levels 0..n_max of p's branch (p.branch), solved from one shared scan.

    Equal, level for level and bit for bit, to solve_spin_energy or
    solve_pseudospin_energy at each n: the scan that brackets level n
    goes on from there for level n + 1, since at fixed E the residual
    decreases in n. Raises what the first failing level would raise on
    its own. Each level is bisected to adjacent floats.
    """
    n_max = _check_index(n_max)
    return _solve_levels(0, n_max, p, *p._window)


def klein_gordon_energy(n: int, p: DiracParams) -> EnergyLevel:
    """Energy of the n-th Klein-Gordon level (equal scalar and vector wells).

    Requires sym_constant == 0: the second-order equation this branch
    reduces to has no room for a symmetry offset.
    """
    n = _check_index(n)
    if p.sym_constant != 0.0:
        raise ValueError("Klein-Gordon branch has no symmetry constant; set sym_constant = 0")
    return _solve_levels(n, n, p, Branch.KLEIN_GORDON, p.rest_energy)[0]


def _spinor_state(n: int, p: DiracParams, e_value: float, sign: float) -> tuple[SpinDerived, float]:
    """(derived, ln N) of level n at e_value in the spin (sign +1) or pseudospin (sign -1) equation.

    A quadrature integrand samples one (n, E) thousands of times, so the
    latest state is kept on p (``DiracParams._spinor_memo`` says why
    there) and rebuilt only when (sign, E, n) changes. One slot bounds
    the memory; it is replaced as a whole, so derived and ln N always
    belong to the same key. A rebuilt ln N comes from the cache of
    ``nonrel._log_norm``.
    """
    key = (sign, e_value, n)
    entry = p._spinor_memo[0]
    if entry[0] != key:
        d = _derived(p, e_value, sign)
        entry = (key, d, _log_norm(n, d.falloff, d.ladder_order))
        p._spinor_memo[0] = entry
    return entry[1], entry[2]


def spin_upper_spinor(n: int, p: DiracParams, e_value: float, x):
    """Normalized upper spinor component of the spin branch at energy e_value.

    Same polynomial-times-Gaussian shape as the nonrelativistic
    eigenfunction, with the energy-dependent falloff and order. x must
    be finite and > 0 elementwise; a float x gives a float. Every sample
    is finite, at every n (``nonrel._laguerre_state``), and 0.0 where the
    falloff times x^2 leaves the float range.
    """
    if type(n) is not int or n < 0:
        n = _check_index(n)
    d, ln_norm = _spinor_state(n, p, e_value, 1.0)
    return _laguerre_state(n, ln_norm, d.falloff, d.ladder_order, x, _SPINOR_DOMAIN)


def spin_lower_spinor(n: int, p: DiracParams, e_value: float, x):
    """Lower spinor component of the spin branch.

    Obtained from the upper component F = u_n^(zeta) through the
    first-order coupling (F' - F / x) / (M c^2 + E - sym_constant), so it
    inherits the upper component's normalization divided by that energy
    denominator. With d/dz L_n^(zeta) = -L_(n-1)^(zeta+1) (DLMF 18.9.14)
    the derivative is a second state of the same kernel, and

        lower = [((zeta - 1/2) / x - nu x) u_n^(zeta) - 2 sqrt(n nu) u_(n-1)^(zeta+1)] / denominator,

    nu being the falloff and u the unit-norm states of
    ``nonrel._laguerre_state``; the second term is absent at n = 0. Raises
    DegenerateEnergy when the denominator vanishes (the coupling has a
    pole there), that is, when it is below 1e-12 of M c^2 + |E| +
    |sym_constant|, so the test does not depend on the units. x as in
    ``spin_upper_spinor``: every sample is finite, at every n, and 0.0
    where nu x^2 leaves the float range.
    """
    if type(n) is not int or n < 0:
        n = _check_index(n)
    denom = p.rest_energy + e_value - p.sym_constant
    # each term scaled first, so the bound stays finite where the sum would overflow; strict, so
    # that E = inf (bound inf) still reaches _derived's "energy must be finite"
    if abs(denom) < 1e-12 * p.rest_energy + 1e-12 * abs(e_value) + 1e-12 * abs(p.sym_constant):
        raise DegenerateEnergy(f"energy denominator {denom} is on the coupling pole")
    d, ln_norm = _spinor_state(n, p, e_value, 1.0)
    nu, zeta = d.falloff, d.ladder_order
    upper = _laguerre_state(n, ln_norm, nu, zeta, x, _SPINOR_DOMAIN)
    if type(x) is not float:
        x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    # u / x and x u, not ((zeta - 1/2) / x - nu x) u: that factor leaves the float range near x = 0
    # and near the float maximum, where u / x and x u stay finite
    lower = (zeta - 0.5) * (upper / x) - nu * (x * upper)
    if n:
        ln_norm_below = ln_norm - 0.5 * math.log(n / nu)  # N_n^(zeta) / N_(n-1)^(zeta+1) = sqrt(n / nu)
        lower -= 2.0 * math.sqrt(n * nu) * _laguerre_state(n - 1, ln_norm_below, nu, zeta + 1.0, x, _SPINOR_DOMAIN)
    return lower / denom


def pseudospin_lower_spinor(n: int, p: DiracParams, e_value: float, x):
    """Normalized lower spinor component of the pseudospin branch.

    Written in the manifestly real form built from the magnitude of the
    (negative) energy weight, with the closed-form normalization from
    the polynomial weight integral. x as in ``spin_upper_spinor``.
    """
    if type(n) is not int or n < 0:
        n = _check_index(n)
    d, ln_norm = _spinor_state(n, p, e_value, -1.0)
    return _laguerre_state(n, ln_norm, d.falloff, d.ladder_order, x, _SPINOR_DOMAIN)


def pseudospin_map_check(n: int, p: DiracParams) -> float:
    """Cross-check the pseudospin residual against the generic reduction.

    Feeds the pseudospin problem's coefficient triple through the
    generic hypergeometric reduction of ``nu`` (which the residuals here
    do not use; ``validate.kg_spin_deviation`` feeds it the Klein-Gordon
    triple) and compares the resulting eigencondition, rescaled to
    residual units, against pseudospin_energy_residual on a 100-point
    energy grid spanning the bound region around the n-th level. Returns the maximum absolute difference; nonzero values mean
    the two derivation routes disagree. Raises NoRootInRange, as the
    level scan does, when a grid energy rounds onto the window edge
    M c^2 + sym_constant, where the reduction has no bound state.
    """
    n = _check_index(n)
    if p.branch is not Symmetry.PSEUDOSPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    level = solve_pseudospin_energy(n, p)
    _, lower = p._window
    span = level.value - lower
    energies = np.linspace(lower + 0.01 * span, level.value + 0.5 * span, 100)

    worst = 0.0
    for e_value in energies:
        u = float(e_value) - p.rest_energy - p.sym_constant
        if u <= 0.0:
            raise NoRootInRange(
                f"the map check's energy E = {e_value} sits on the window edge M c^2 + sym_constant = {lower}: "
                f"the binding gap is below the float resolution {math.ulp(e_value)} of E"
            )
        weight_mag = u / p._hc2
        form = HypergeometricForm(
            a2=-0.5 * p.mass * p._well._omega2 * weight_mag,
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
    n = _check_index(n)
    if p.branch is not Symmetry.SPIN:
        raise ValueError("the nonrelativistic limit check runs on the spin branch")
    if p.sym_constant != 0.0:
        raise ValueError("the nonrelativistic limit is taken at zero symmetry constant")
    cs = [float(v) for v in c_values]
    if len(cs) < 2 or any(b <= a for a, b in zip(cs, cs[1:])) or cs[0] <= 0.0:
        raise ValueError("c_values must be at least two strictly increasing positive speeds")
    target = nonrel_energy(n, p._well).value
    deviations = []
    for c_val in cs:
        pc = replace(p, c=c_val)
        level = solve_spin_energy(n, pc)
        deviations.append(abs(level.value - pc.rest_energy - target))
    return deviations
