"""Cross-validation suites tying the analytic and numerical routes together.

Each suite returns a list of CheckResult rows (name, measured value,
bound, pass flag). The helpers underneath are plain functions so the
test suite and the command line can share one implementation and one
set of bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import golden, nonrel, nu, oracle, rel
from .specfun import kummer_1f1, laguerre

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suites",
    "suite_identities",
    "suite_orthonormality",
    "suite_ode",
    "suite_oracle",
    "suite_tables",
    "suite_duality",
    "suite_limits",
]

_ODE_GRID = oracle.Grid(x_min=0.3, x_max=3.0, n_points=2001)


@dataclass(frozen=True)
class CheckResult:
    """One validation row: the check's name, its measured value, its bound and whether it passed."""

    check: str
    value: float
    bound: float
    passed: bool

    def as_dict(self) -> dict:
        return {"check": self.check, "value": self.value, "bound": self.bound, "pass": self.passed}


def _at_most(check: str, value: float, bound: float) -> CheckResult:
    return CheckResult(check=check, value=float(value), bound=float(bound), passed=bool(value <= bound))


def _at_least(check: str, value: float, bound: float) -> CheckResult:
    return CheckResult(check=check, value=float(value), bound=float(bound), passed=bool(value >= bound))


# ---------------------------------------------------------------- identities

def kummer_laguerre_deviation() -> float:
    """Worst mismatch between the Laguerre recurrence and the 1F1 route.

    L_n^(a)(z) equals binom(n+a, n) 1F1(-n; a+1; z); one side is the Python
    recurrence, the other scipy's compiled ``hyp1f1``. Normalized by max(1, |L|).
    """
    worst = 0.0
    zs = np.linspace(0.0, 30.0, 100)
    for alpha in (0.5, 1.5, 2.5):
        for n in range(21):
            ln_binom = math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0) - math.lgamma(alpha + 1.0)
            binom = math.exp(ln_binom)
            lag = laguerre(n, alpha, zs)
            for z, lv in zip(zs, lag):
                series = binom * kummer_1f1(-float(n), alpha + 1.0, float(z))
                worst = max(worst, abs(lv - series) / max(1.0, abs(lv)))
    return worst


def laguerre_recurrence_deviation() -> float:
    """Defect of the three-term recurrence evaluated from scratch at each order."""
    worst = 0.0
    zs = np.linspace(0.0, 30.0, 50)
    for alpha in (0.5, 1.5, 2.5):
        for n in range(1, 20):
            lo = laguerre(n - 1, alpha, zs)
            mid = laguerre(n, alpha, zs)
            hi = laguerre(n + 1, alpha, zs)
            resid = (n + 1) * hi - (2 * n + 1 + alpha - zs) * mid + (n + alpha) * lo
            scale = np.maximum(1.0, np.abs(hi))
            worst = max(worst, float(np.max(np.abs(resid) / scale)))
    return worst


def hermite_parity_deviation() -> float:
    """Harmonic states on both signs of x against N exp(-beta x^2 / 2) H_n(sqrt(beta) x).

    ``harmonic_wavefunction`` maps H_n onto a Laguerre state of |x|
    (DLMF 18.7.19-20) and restores the sign (-1)^k sign(x)^n; numpy's
    Clenshaw sum of the Hermite series is the independent route, and its
    H_n carries the parity. Normalized by max(1, |psi|).
    """
    from numpy.polynomial.hermite import hermval  # here, so that the CLI, which imports this module, starts without it

    p = nonrel.OscillatorParams(mass=1.3, omega=0.8, hbar=1.1)
    beta = p.mass * p.omega / p.hbar
    ys = np.linspace(-4.0, 4.0, 81)
    xs = ys / math.sqrt(beta)
    worst = 0.0
    for n in range(13):
        ln_norm = 0.5 * (0.5 * math.log(beta / math.pi) - n * math.log(2.0) - math.lgamma(n + 1.0))
        written_out = math.exp(ln_norm) * np.exp(-0.5 * ys**2) * hermval(ys, [0.0] * n + [1.0])
        state = nonrel.harmonic_wavefunction(n, p, xs)
        worst = max(worst, float(np.max(np.abs(state - written_out) / np.maximum(1.0, np.abs(written_out)))))
    return worst


def log_gamma_recurrence_deviation() -> float:
    """Step of the normalization, ln N_n - ln N_(n-1) = (1/2) ln(n / (n + zeta)), of ``nonrel._log_norm``.

    Gamma(n + 1) / Gamma(n + zeta + 1) gains n / (n + zeta) per step; the
    orders are those of the harmonic, radial and isotonic states.
    """
    worst = 0.0
    beta = 1.3 * 0.8 / 1.1
    for zeta in (-0.5, 0.5, 1.5, 2.5):
        for n in range(1, 13):
            step = nonrel._log_norm(n, beta, zeta) - nonrel._log_norm(n - 1, beta, zeta)
            worst = max(worst, abs(step - 0.5 * math.log(n / (n + zeta))))
    return worst


def laguerre_derivative_fd_deviation() -> float:
    """Spin lower spinor against (F' - F / x) / (M c^2 + E - sym_constant), F' a central difference of F.

    F is the upper spinor. ``spin_lower_spinor`` leaves the factor hbar c
    out of the coupling (ROADMAP item 9), so the check runs at hbar c = 1.
    Normalized by the peak of the lower spinor.
    """
    p = rel.DiracParams(mass=1.3, omega=0.8, g=2.7, sym_constant=0.6)
    xs = np.linspace(0.2, 4.0, 39)
    h = 1e-6
    worst = 0.0
    for level in rel.solve_levels(3, p):
        n, e = level.n, level.value
        upper = rel.spin_upper_spinor(n, p, e, xs)
        slope = (rel.spin_upper_spinor(n, p, e, xs + h) - rel.spin_upper_spinor(n, p, e, xs - h)) / (2.0 * h)
        coupled = (slope - upper / xs) / (p.rest_energy + e - p.sym_constant)
        lower = rel.spin_lower_spinor(n, p, e, xs)
        worst = max(worst, float(np.max(np.abs(lower - coupled)) / np.max(np.abs(lower))))
    return worst


def suite_identities() -> list[CheckResult]:
    return [
        _at_most("laguerre-kummer-agreement", kummer_laguerre_deviation(), 1e-12),
        _at_most("laguerre-recurrence", laguerre_recurrence_deviation(), 1e-12),
        _at_most("hermite-parity", hermite_parity_deviation(), 1e-13),
        _at_most("log-gamma-recurrence", log_gamma_recurrence_deviation(), 1e-13),
        _at_most("laguerre-derivative-fd", laguerre_derivative_fd_deviation(), 1e-8),
    ]


# ------------------------------------------------------------ orthonormality

def _on_half_line(fa, fb=None) -> float:
    """Integral of fa fb over x > 0, or of fa^2 when fb is None; the integrand is 0 at x <= 0, where no state is defined."""
    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return float(fa(x)) ** 2 if fb is None else float(fa(x)) * float(fb(x))

    return oracle.quadrature(integrand, 0.0, math.inf, tol=1e-11)


def nonrel_orthonormality_deviation(g: float) -> float:
    p = nonrel.OscillatorParams(g=g)
    funcs = [lambda x, n=n: nonrel.wavefunction(n, p, x) for n in range(7)]
    worst = 0.0
    for i in range(7):
        for j in range(i, 7):
            worst = max(worst, abs(_on_half_line(funcs[i], funcs[j]) - float(i == j)))
    return worst


def harmonic_normalization_deviation() -> float:
    p = nonrel.OscillatorParams()
    worst = 0.0
    for n in range(7):
        # |psi|^2 is even, so the full-line norm is twice the half-line one
        half = oracle.quadrature(lambda x, n=n: float(nonrel.harmonic_wavefunction(n, p, x)) ** 2, 0.0, math.inf, tol=1e-11)
        worst = max(worst, abs(2.0 * half - 1.0))
    return worst


def radial3d_normalization_deviation() -> float:
    p = nonrel.OscillatorParams()
    worst = 0.0
    for l in range(4):
        for n in range(4):
            worst = max(worst, abs(_on_half_line(lambda r, n=n, l=l: nonrel.oscillator3d_radial(n, l, p, r)) - 1.0))
    return worst


def spin_upper_normalization_deviation() -> float:
    p = rel.DiracParams(g=2.0, sym_constant=0.0, branch=rel.Symmetry.SPIN)
    worst = 0.0
    for level in rel.solve_levels(4, p):
        worst = max(worst, abs(_on_half_line(lambda x: rel.spin_upper_spinor(level.n, p, level.value, x)) - 1.0))
    return worst


def pseudospin_lower_normalization_deviation() -> float:
    worst = 0.0
    for g, sym_constant, n_max in ((2.0, 0.0, 3), (6.0, -13.0, 2)):
        p = rel.DiracParams(g=g, sym_constant=sym_constant, branch=rel.Symmetry.PSEUDOSPIN)
        for level in rel.solve_levels(n_max, p):
            worst = max(worst, abs(_on_half_line(lambda x: rel.pseudospin_lower_spinor(level.n, p, level.value, x)) - 1.0))
    return worst


def suite_orthonormality() -> list[CheckResult]:
    rows = [
        _at_most(f"nonrel-orthonormality-g{g:g}", nonrel_orthonormality_deviation(g), 1e-9)
        for g in (0.5, 2.0, 6.0)
    ]
    rows.append(_at_most("harmonic-normalization", harmonic_normalization_deviation(), 1e-9))
    rows.append(_at_most("radial3d-normalization", radial3d_normalization_deviation(), 1e-9))
    rows.append(_at_most("spin-upper-normalization", spin_upper_normalization_deviation(), 1e-9))
    rows.append(_at_most("pseudospin-lower-normalization", pseudospin_lower_normalization_deviation(), 1e-9))
    return rows


# ------------------------------------------------------------------ ode

def nonrel_ode_residual(n: int, detune: float = 0.0) -> float:
    """Grid defect of the half-line eigenfunction at g = 2, optionally detuned."""
    p = nonrel.OscillatorParams(g=2.0)
    d = nonrel.derive(p)
    e_val = nonrel.energy(n, p).value + detune
    eps = 2.0 * p.mass * e_val / p.hbar**2
    samples = nonrel.wavefunction(n, p, _ODE_GRID.points())

    def coefficient(x):
        return d.beta**2 * x**2 + d.alpha / x**2 - eps

    return oracle.ode_residual(samples, coefficient, _ODE_GRID)


def _spinor_ode_residual(branch: rel.Symmetry, n: int, derived, spinor) -> float:
    """Grid defect of level n's spinor at g = 2 in f'' = (constant_term + |energy_weight| U) f; the pseudospin weight is negative."""
    p = rel.DiracParams(g=2.0, sym_constant=0.0, branch=branch)
    e_val = rel.solve_levels(n, p)[n].value
    d = derived(p, e_val)
    samples = spinor(n, p, e_val, _ODE_GRID.points())

    def coefficient(x):
        return d.constant_term + abs(d.energy_weight) * p.potential(x)

    return oracle.ode_residual(samples, coefficient, _ODE_GRID)


def spin_ode_residual() -> float:
    return _spinor_ode_residual(rel.Symmetry.SPIN, 0, rel.spin_derived, rel.spin_upper_spinor)


def pseudospin_ode_residual() -> float:
    return _spinor_ode_residual(rel.Symmetry.PSEUDOSPIN, 1, rel.pseudospin_derived, rel.pseudospin_lower_spinor)


def suite_ode() -> list[CheckResult]:
    return [
        _at_most("nonrel-ode-residual-n0", nonrel_ode_residual(0), 1e-6),
        _at_most("nonrel-ode-residual-n3", nonrel_ode_residual(3), 1e-6),
        _at_least("nonrel-ode-detuned-at-least", nonrel_ode_residual(0, detune=0.1), 1e-2),
        _at_most("spin-ode-residual", spin_ode_residual(), 1e-6),
        _at_most("pseudospin-ode-residual", pseudospin_ode_residual(), 1e-6),
    ]


# --------------------------------------------------------------- oracle

def fd_oracle_stats() -> dict[str, float]:
    """Agreement of the grid eigensolver with the closed-form ladder, levels 0-5 at g = 0.5, 2 and 6.

    Returns the worst |difference| / estimate ratio, the worst error
    estimate, and the worst deviation of the measured convergence order
    from 2 on a spacing ladder.
    """
    gs = (0.5, 2.0, 6.0)
    worst_ratio = 0.0
    worst_estimate = 0.0
    for g in gs:
        p = nonrel.OscillatorParams(g=g)
        report = oracle.fd_eigenvalues(p.potential, count=6)
        for n in range(6):
            exact = nonrel.energy(n, p).value
            diff = abs(report.eigenvalues[n] - exact)
            worst_ratio = max(worst_ratio, diff / report.richardson_error[n])
            worst_estimate = max(worst_estimate, report.richardson_error[n])

    worst_order_dev = 0.0
    # coarse enough that the h^2 term dominates the h-independent inner
    # wall contribution, which for the softest barrier reaches ~1e-7
    sizes = (4000, 8000, 16000)
    for g in gs:
        p = nonrel.OscillatorParams(g=g)
        exact = nonrel.energy(0, p).value
        errs = []
        spacings = []
        for m in sizes:
            grid = oracle.Grid(n_points=m)
            rep = oracle.fd_eigenvalues(p.potential, count=1, grid=grid)
            errs.append(abs(rep.eigenvalues[0] - exact))
            spacings.append(grid.spacing)
        slope = float(np.polyfit(np.log(spacings), np.log(errs), 1)[0])
        worst_order_dev = max(worst_order_dev, abs(slope - 2.0))
    return {"ratio": worst_ratio, "estimate": worst_estimate, "order_dev": worst_order_dev}


def selfconsistent_ratio() -> float:
    """Worst |self-consistent - root-solved| / max(1e-6, estimate) over levels 0-3 of the spin table."""
    worst = 0.0
    for col in golden.TABLE1_COLUMNS:
        p = golden.spin_params(col)
        for level in rel.solve_levels(3, p):
            rep = oracle.dirac_selfconsistent(level.n, p)
            bound = max(1e-6, rep.richardson_error[0])
            worst = max(worst, abs(rep.eigenvalues[0] - level.value) / bound)
    return worst


def root_uniqueness_defect() -> float:
    """How far any table cell is from having exactly one residual root.

    Scans each cell's admissible window with 400 uniform cells; the
    defect is |number of roots - 1|, so anything nonzero is a failure.
    """
    worst = 0
    for columns, params, residual in (
        (golden.TABLE1_COLUMNS, golden.spin_params, rel.spin_energy_residual),
        (golden.TABLE2_COLUMNS, golden.pseudospin_params, rel.pseudospin_energy_residual),
    ):
        for col in columns:
            p = params(col)
            _, lo = rel._dirac_window(p)
            for n in range(golden.N_LEVELS):
                roots = oracle.scan_roots(lambda e: residual(e, n, p), lo, 50.0, 400)
                worst = max(worst, abs(len(roots) - 1))
    return float(worst)


def xmin_sensitivity_ratio() -> float:
    """Inner-wall sensitivity against the reported error estimate.

    For x_min = 1e-3 and 1e-4, the eigenvalue shift from pushing the
    wall in by a decade must stay inside the coarser run's estimate.
    """
    worst = 0.0
    for g in (0.5, 2.0, 6.0):
        p = nonrel.OscillatorParams(g=g)
        reports = {
            xm: oracle.fd_eigenvalues(p.potential, count=2, grid=oracle.Grid(x_min=xm))
            for xm in (1e-3, 1e-4, 1e-5)
        }
        for coarse, fine in ((1e-3, 1e-4), (1e-4, 1e-5)):
            for n in range(2):
                shift = abs(reports[coarse].eigenvalues[n] - reports[fine].eigenvalues[n])
                worst = max(worst, shift / reports[coarse].richardson_error[n])
    return worst


def quadrature_gamma_deviation() -> float:
    val = oracle.quadrature(lambda z: z**1.5 * math.exp(-z) if z > 0.0 else 0.0, 0.0, math.inf, tol=1e-12)
    return abs(val - math.gamma(2.5))


def suite_oracle() -> list[CheckResult]:
    stats = fd_oracle_stats()
    return [
        _at_most("fd-agreement-ratio", stats["ratio"], 1.0),
        _at_most("fd-error-estimate", stats["estimate"], 1e-5),
        _at_most("fd-convergence-order-dev", stats["order_dev"], 0.2),
        _at_most("selfconsistent-agreement-ratio", selfconsistent_ratio(), 1.0),
        _at_most("root-uniqueness-defect", root_uniqueness_defect(), 0.5),
        _at_most("xmin-sensitivity-ratio", xmin_sensitivity_ratio(), 1.0),
        _at_most("quadrature-gamma", quadrature_gamma_deviation(), 1e-10),
    ]


# --------------------------------------------------------------- tables

def suite_tables() -> list[CheckResult]:
    dev1, dev2 = golden.table_deviations(*golden.compute_tables())
    return [
        _at_most("table1-deviation", dev1, golden.TABLE_TOLERANCE),
        _at_most("table2-deviation", dev2, golden.TABLE_TOLERANCE),
    ]


# --------------------------------------------------------------- duality

def duality_deviation() -> float:
    """Spin/pseudospin ladder correspondence, levels 0-10 at g = 2 and 6.

    A spin problem with symmetry constant C maps onto the pseudospin
    problem with constant C - 4 M c^2, its levels shifted down by
    exactly twice the rest energy.
    """
    worst = 0.0
    for g in (2.0, 6.0):
        spin = rel.DiracParams(g=g, sym_constant=2.0, branch=rel.Symmetry.SPIN)
        pseudo = rel.DiracParams(g=g, sym_constant=spin.sym_constant - 4.0 * spin.rest_energy, branch=rel.Symmetry.PSEUDOSPIN)
        for e_spin, e_pseudo in zip(rel.solve_levels(10, spin), rel.solve_levels(10, pseudo)):
            worst = max(worst, abs(e_spin.value - e_pseudo.value - 2.0 * spin.rest_energy))
    return worst


def nu_klein_gordon_level(n: int, p: rel.DiracParams) -> float:
    """The n-th Klein-Gordon level as a root of the NU eigencondition.

    With equal scalar and vector wells the Klein-Gordon equation takes
    the hypergeometric form of ``nu`` with a2 = -M omega^2 w / 2,
    a1 = w (E - M c^2) and a0 = -g w / 2, where w = (M c^2 + E) / (hbar c)^2.
    The eigencondition is negative at E = M c^2 and grows with E, so the
    bracket opens there and its width doubles from hbar omega until the
    sign changes; brentq refines it. No residual of ``rel`` is used.
    """
    from scipy.optimize import brentq  # here, not at the top: it adds ~0.2 s to every CLI start

    mc2 = p.mass * p.c**2

    def eigencondition(e_value: float) -> float:
        w = (mc2 + e_value) / (p.hbar * p.c) ** 2
        form = nu.HypergeometricForm(a2=-0.5 * p.mass * p.omega**2 * w, a1=w * (e_value - mc2), a0=-0.5 * p.g * w)
        return nu.nu_eigencondition(nu.nu_reduce(form), n)

    width = p.hbar * p.omega
    while eigencondition(mc2 + width) <= 0.0:
        width *= 2.0
    return brentq(eigencondition, mc2, mc2 + width, xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def kg_spin_deviation() -> float:
    """Klein-Gordon levels 0-10 at g = 0.5, 2 and 6 from the NU reduction against the spin and Klein-Gordon solvers.

    At zero symmetry constant the spin branch and the Klein-Gordon
    equation share their levels; the reference level comes from
    ``nu_klein_gordon_level``, so both solvers are checked against a
    route that does not share their residual.
    """
    worst = 0.0
    for g in (0.5, 2.0, 6.0):
        p = rel.DiracParams(g=g, sym_constant=0.0, branch=rel.Symmetry.SPIN)
        for spin in rel.solve_levels(10, p):
            e_nu = nu_klein_gordon_level(spin.n, p)
            for level in (rel.klein_gordon_energy(spin.n, p), spin):
                worst = max(worst, abs(level.value - e_nu))
    return worst


def map_check_worst() -> float:
    worst = 0.0
    for g, sym_constant, n in ((2.0, 0.0, 0), (6.0, -2.0, 3), (0.5, 0.0, 1)):
        p = rel.DiracParams(g=g, sym_constant=sym_constant, branch=rel.Symmetry.PSEUDOSPIN)
        worst = max(worst, rel.pseudospin_map_check(n, p))
    return worst


def suite_duality() -> list[CheckResult]:
    return [
        _at_most("duality-shift", duality_deviation(), 1e-9),
        _at_most("kg-spin-equality", kg_spin_deviation(), 1e-10),
        _at_most("pseudospin-map-agreement", map_check_worst(), 1e-10),
    ]


# --------------------------------------------------------------- limits

_LIMIT_CS = (10.0, 100.0, 1000.0)


def _limit_deviations() -> list[list[float]]:
    """``rel.nonrel_limit_check`` of spin levels 0-2 at g = 2 over c in _LIMIT_CS: one list of deviations per level."""
    p = rel.DiracParams(g=2.0, branch=rel.Symmetry.SPIN)
    return [rel.nonrel_limit_check(n, p, _LIMIT_CS) for n in range(3)]


def _slope_devs(level_deviations) -> list[float]:
    return [abs(float(np.polyfit(np.log(_LIMIT_CS), np.log(d), 1)[0]) + 2.0) for d in level_deviations]


def limit_slope_devs() -> list[float]:
    """|slope + 2| of log-deviation vs log-c for each level of ``_limit_deviations``."""
    return _slope_devs(_limit_deviations())


def limit_monotone_defect(level_deviations) -> float:
    """1 if the deviation of some level does not fall strictly as c grows, else 0."""
    return float(any(b >= a for d in level_deviations for a, b in zip(d, d[1:])))


def level_spacing_deviation() -> float:
    worst = 0.0
    for g in (0.0, 0.5, 2.0, 6.0):
        p = nonrel.OscillatorParams(g=g)
        for n in range(10):
            diff = nonrel.energy(n + 1, p).value - nonrel.energy(n, p).value
            worst = max(worst, abs(diff - 2.0 * p.hbar * p.omega))
    return worst


def harmonic_reduction_deviation() -> float:
    """g -> 0 reduces levels 0-10 of the ladder to the odd half-line harmonic levels."""
    p = nonrel.OscillatorParams(g=0.0)
    worst = 0.0
    for n in range(11):
        worst = max(worst, abs(nonrel.energy(n, p).value - (2.0 * n + 1.5)))
    return worst


def suite_limits() -> list[CheckResult]:
    level_deviations = _limit_deviations()  # both limit rows read the same 9 solves
    return [
        _at_most("nonrel-limit-slope-dev", max(_slope_devs(level_deviations)), 0.2),
        _at_most("nonrel-limit-monotone-defect", limit_monotone_defect(level_deviations), 0.5),
        _at_most("level-spacing", level_spacing_deviation(), 1e-14),
        _at_most("harmonic-reduction-g0", harmonic_reduction_deviation(), 0.0),
    ]


_SUITES = {
    "identities": suite_identities,
    "orthonormality": suite_orthonormality,
    "ode": suite_ode,
    "oracle": suite_oracle,
    "tables": suite_tables,
    "duality": suite_duality,
    "limits": suite_limits,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(names) -> list[CheckResult]:
    """Run the named suites (or all of them for the name "all") in order."""
    if isinstance(names, str):
        names = [names]
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITE_NAMES)
        elif name in _SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    rows: list[CheckResult] = []
    for name in expanded:
        rows.extend(_SUITES[name]())
    return rows
