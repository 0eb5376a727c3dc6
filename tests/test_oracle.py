"""Grid eigensolver, quadrature, root scan and self-consistent iteration."""
from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isospectra import oracle
from isospectra.errors import DivergenceError, GridTooCoarse, NoConvergence, ToleranceNotMet, UnphysicalRegime
from isospectra.nonrel import OscillatorParams, energy, wavefunction
from isospectra.oracle import (
    Grid,
    OracleMethod,
    OracleReport,
    dirac_selfconsistent,
    fd_eigenvalues,
    ode_residual,
    quadrature,
    scan_roots,
)
from isospectra.rel import (
    DiracParams,
    Symmetry,
    pseudospin_energy_residual,
    solve_spin_energy,
    spin_energy_residual,
)

FAST_GRID = Grid(1e-4, 20.0, 8000)


def spin_params(g, cs):
    return DiracParams(g=g, sym_constant=cs, branch=Symmetry.SPIN)


# ---------------------------------------------------------------- grid


def test_grid_geometry():
    g = Grid(0.5, 2.5, 201)
    assert g.spacing == pytest.approx(0.01, abs=1e-15)
    pts = g.points()
    assert pts[0] == 0.5 and pts[-1] == 2.5 and pts.size == 201
    g2 = g.doubled_spacing()
    assert (g2.x_min, g2.x_max, g2.n_points) == (0.5, 2.5, 101)
    assert g2.spacing == pytest.approx(2.0 * g.spacing, rel=1e-15)
    np.testing.assert_array_equal(g2.points(), pts[::2])  # every other point of g
    # an even count cannot halve exactly: 100 points, spacing 2/99 against 2/199
    even = Grid(0.5, 2.5, 200).doubled_spacing()
    assert even.n_points == 100
    assert even.spacing / Grid(0.5, 2.5, 200).spacing == pytest.approx(199.0 / 99.0, rel=1e-15)
    gc = g.doubled_cutoff()
    assert gc.x_min == 1.0 and gc.n_points == 201


def test_grid_validates():
    with pytest.raises(ValueError):
        Grid(x_min=0.0)
    with pytest.raises(ValueError):
        Grid(x_min=2.0, x_max=1.0)
    with pytest.raises(ValueError):
        Grid(n_points=99)
    with pytest.raises(ValueError):
        Grid(n_points=100.5)


def test_report_validates():
    with pytest.raises(ValueError):
        OracleReport((), Grid(), (), OracleMethod.FINITE_DIFFERENCE)
    with pytest.raises(ValueError):
        OracleReport((1.0, 2.0), Grid(), (1e-6,), OracleMethod.FINITE_DIFFERENCE)
    with pytest.raises(ValueError):
        OracleReport((2.0, 1.0), Grid(), (1e-6, 1e-6), OracleMethod.FINITE_DIFFERENCE)
    with pytest.raises(ValueError):
        OracleReport((1.0,), Grid(), (0.0,), OracleMethod.FINITE_DIFFERENCE)


# ------------------------------------------------- finite differences


def test_fd_matches_closed_form_ladder():
    p = OscillatorParams(g=2.0)
    rep = fd_eigenvalues(p.potential, 4, FAST_GRID)
    assert rep.method is OracleMethod.FINITE_DIFFERENCE
    for n, e in enumerate(rep.eigenvalues):
        assert abs(e - energy(n, p).value) <= rep.richardson_error[n]
    assert rep.eigenvalues == pytest.approx((2.5, 4.5, 6.5, 8.5), abs=1e-4)


@pytest.mark.parametrize("n_points", [4000, 16000, 40000])
@pytest.mark.parametrize("g", [0.5, 2.0, 6.0])
def test_fd_estimate_bounds_error_per_regime(g, n_points):
    # the worst |fd - E_n| / estimate here is 0.78, at 4,000 points, g = 0.5, n = 0
    p = OscillatorParams(g=g)
    rep = fd_eigenvalues(p.potential, 6, Grid(n_points=n_points))
    for n, (e, estimate) in enumerate(zip(rep.eigenvalues, rep.richardson_error)):
        assert abs(e - energy(n, p).value) <= estimate


@pytest.mark.xfail(
    raises=AssertionError,
    reason="below xi = 1/2 (g < 0) the doubled-cutoff re-solve under-reads the inner wall's error (ROADMAP item 4)",
)
def test_fd_estimate_bounds_error_at_negative_coupling():
    # every level is off by 1.42 times its estimate on the default grid;
    # from 5 levels on, the estimate exceeds the coarse-grid limit
    p = OscillatorParams(g=-0.1)
    rep = fd_eigenvalues(p.potential, 4)
    for n, (e, estimate) in enumerate(zip(rep.eigenvalues, rep.richardson_error)):
        assert abs(e - energy(n, p).value) <= estimate


def test_fd_harmonic_half_line_gives_odd_ladder():
    # Dirichlet wall at the origin keeps only the odd full-line states
    rep = fd_eigenvalues(lambda x: 0.5 * x**2, 3, FAST_GRID)
    for k, e in enumerate(rep.eigenvalues):
        assert abs(e - (2.0 * k + 1.5)) <= rep.richardson_error[k]


def test_fd_stronger_barrier():
    p = OscillatorParams(g=6.0)
    rep = fd_eigenvalues(p.potential, 3, FAST_GRID)
    assert rep.eigenvalues == pytest.approx((3.5, 5.5, 7.5), abs=1e-4)


def test_fd_rejects_bad_input():
    p = OscillatorParams()
    with pytest.raises(ValueError):
        fd_eigenvalues(p.potential, 0, FAST_GRID)
    with pytest.raises(ValueError):
        fd_eigenvalues(p.potential, 900, FAST_GRID)
    with pytest.raises(ValueError):
        fd_eigenvalues(p.potential, 2, FAST_GRID, mass=-1.0)
    with pytest.raises(ValueError):
        fd_eigenvalues(lambda x: np.where(x < 1.0, np.inf, 0.0), 2, FAST_GRID)


@pytest.mark.parametrize("mass,hbar", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
def test_fd_rejects_nonfinite_mass_and_hbar(mass, hbar):
    with pytest.raises(ValueError, match="positive and finite"):
        fd_eigenvalues(OscillatorParams().potential, 2, FAST_GRID, mass=mass, hbar=hbar)


def test_fd_coarse_grid_detected():
    p = OscillatorParams(g=2.0)
    with pytest.raises(GridTooCoarse):
        fd_eigenvalues(p.potential, 2, Grid(1e-4, 20.0, 500))


def test_fd_accepts_scalar_only_potential():
    rep = fd_eigenvalues(lambda x: 0.5 * float(x) ** 2 + 1.0 / float(x) ** 2, 1, FAST_GRID)
    assert rep.eigenvalues[0] == pytest.approx(2.5, abs=1e-4)


# ----------------------------------------------------------- quadrature


def test_quadrature_exact_on_cubics():
    assert quadrature(lambda x: x * x, 0.0, 1.0, tol=1e-12) == 1.0 / 3.0
    assert quadrature(lambda x: x**3 - 2.0 * x, -1.0, 2.0, tol=1e-12) == pytest.approx(0.75, abs=1e-14)


def test_quadrature_ground_state_norm():
    p = OscillatorParams(g=2.0)
    val = quadrature(lambda x: wavefunction(0, p, x) ** 2 if x > 0 else 0.0, 0.0, math.inf)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_quadrature_gamma_integral():
    val = quadrature(lambda z: z**1.5 * math.exp(-z), 0.0, math.inf, tol=1e-11)
    assert val == pytest.approx(math.gamma(2.5), abs=1e-10)


def test_quadrature_semi_infinite_gaussian():
    val = quadrature(lambda x: math.exp(-x * x), 0.0, math.inf, tol=1e-12)
    assert val == pytest.approx(0.5 * math.sqrt(math.pi), abs=1e-12)


def test_quadrature_unreachable_tolerance():
    with pytest.raises(ToleranceNotMet):
        quadrature(lambda x: 1.0 / x, 1e-300, 1.0, tol=1e-10)


def test_quadrature_needs_decay_for_infinite_limit():
    with pytest.raises(ToleranceNotMet):
        quadrature(lambda x: 1.0, 0.0, math.inf)


def test_quadrature_rejects_bad_window():
    with pytest.raises(ValueError):
        quadrature(lambda x: x, math.inf, 1.0)
    with pytest.raises(ValueError):
        quadrature(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        quadrature(lambda x: x, 0.0, 1.0, tol=0.0)


def test_quadrature_rejects_minus_infinity_upper_limit():
    # only +inf is truncated; [0, -inf) is an empty window, not [0, +inf)
    with pytest.raises(ValueError, match="need a < b"):
        quadrature(lambda x: math.exp(-x), 0.0, -math.inf)


@pytest.mark.parametrize(
    "f, b, where",
    [
        (lambda x: math.inf, 1.0, "at the initial nodes"),
        # no node of the 16 panels of [0, 1] falls in (0.29, 0.3); the first refinement of [0.25, 0.3125] does
        (lambda x: math.inf if 0.29 < x < 0.3 else 0.0, 1.0, "inside [0.25, 0.3125]"),
        # the tail search samples 0.25 * 1.5^k and passes 5 at k = 8
        (lambda x: math.nan if x > 5.0 else math.exp(-x), math.inf, "at x = 6.4072265625"),
    ],
    ids=["initial-nodes", "refinement", "tail"],
)
def test_quadrature_names_where_the_integrand_is_not_finite(f, b, where):
    with pytest.raises(ToleranceNotMet, match=f"^integrand is not finite {re.escape(where)}$"):
        quadrature(f, 0.0, b)


# ------------------------------------------------------------ root scan


def test_scan_finds_lowest_spin_level():
    p = spin_params(0.5, 0.0)
    roots = scan_roots(lambda e: spin_energy_residual(e, 0, p), 1e-9, 50.0, 400)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2.5509859806747426, abs=1e-9)


def test_scan_finds_lowest_pseudospin_level():
    p = DiracParams(g=2.0, sym_constant=0.0, branch=Symmetry.PSEUDOSPIN)
    roots = scan_roots(lambda e: pseudospin_energy_residual(e, 1, p), 1.0 + 1e-9, 50.0, 400)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(3.2918405183876533, abs=1e-9)


def test_scan_rootless_window():
    assert scan_roots(lambda x: x * x + 1.0, -5.0, 5.0, 100) == []


def test_scan_exact_grid_hit():
    assert scan_roots(lambda x: x * x - 4.0, 0.0, 5.0, 5) == [2.0]


@pytest.mark.parametrize(
    "f, lo, hi, roots",
    [
        # the float spacing near 1.4e6 is 2.3e-10: the bisection stops at adjacent floats, not at width 1e-12
        (lambda x: x * x - 2e12, 1.4e6, 1.5e6, [1414213.5623730952]),
        (lambda x: x - 0.375, 0.0, 1.0, [0.375]),  # the second midpoint is the root itself
        (lambda x: x - 1.0, 0.0, 1.0, [1.0]),  # the root is the last grid point, hi
    ],
    ids=["adjacent-floats", "midpoint-zero", "root-at-hi"],
)
def test_scan_closes_each_bracket_exactly(f, lo, hi, roots):
    assert scan_roots(f, lo, hi, 2) == roots


def test_scan_multiple_roots():
    roots = scan_roots(math.sin, 0.5, 7.0, 50)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(math.pi, abs=1e-9)
    assert roots[1] == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan_roots(math.sin, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        scan_roots(math.sin, 0.0, 1.0, 1)


# -------------------------------------------------- self-consistency


@pytest.mark.parametrize(
    "n,g,cs,target",
    [
        (0, 2.0, 0.0, 3.1503636),
        (2, 6.0, 2.0, 6.4867680),
        (0, 0.5, 0.0, 2.5509860),
    ],
)
def test_selfconsistent_matches_tabulated(n, g, cs, target):
    rep = dirac_selfconsistent(n, spin_params(g, cs))
    assert rep.method is OracleMethod.SELF_CONSISTENT
    assert abs(rep.eigenvalues[0] - target) <= max(1e-6, rep.richardson_error[0])


@pytest.mark.parametrize("n", [0, 1])
def test_selfconsistent_sweep_starts_inside_the_window_above_twice_the_rest_energy(n):
    # at C = 10 the window opens at C - M c^2 = 9, and a sweep from M c^2 + hbar omega (2n + 1.5) had weight -6.5
    p = spin_params(2.0, 10.0)
    rep = dirac_selfconsistent(n, p, FAST_GRID)
    assert abs(rep.eigenvalues[0] - solve_spin_energy(n, p).value) <= rep.richardson_error[0]


def test_selfconsistent_rejects_bad_input():
    with pytest.raises(ValueError):
        dirac_selfconsistent(0, DiracParams(branch=Symmetry.PSEUDOSPIN))
    with pytest.raises(ValueError):
        dirac_selfconsistent(-1, spin_params(2.0, 0.0))
    with pytest.raises(ValueError):
        dirac_selfconsistent(50, spin_params(2.0, 0.0), Grid(1e-4, 20.0, 400))


_HC2_UNDERFLOWS = r"^the scale \(hbar c\)\^2 = \(1e-170\)\^2 underflows to 0$"


@pytest.mark.parametrize(
    "solve,kwargs,message",
    [
        pytest.param("selfconsistent", {"hbar": 1e-170}, _HC2_UNDERFLOWS, id="selfconsistent-hbar"),
        pytest.param("selfconsistent", {"c": 1e-170}, _HC2_UNDERFLOWS, id="selfconsistent-c"),
        pytest.param(
            "selfconsistent", {"omega": 1e200}, r"^the scale omega\^2 = \(1e\+200\)\^2 leaves the float range$",
            id="selfconsistent-omega",
        ),
        pytest.param(
            # omega^2 is finite, M omega^2 / 2 = 5e309 is not
            "selfconsistent", {"mass": 1e300, "omega": 1e5},
            r"^the well M omega\^2 x\^2 / 2 \+ g / \(2 x\^2\) leaves the float range at x = 0\.00060001\d* on the grid, "
            r"at M = 1e\+300, omega = 100000\.0, g = 2\.0$",
            id="selfconsistent-well",
        ),
        pytest.param(
            # the well is finite at every interior point; the least weight a level can have,
            # (2 M c^2 - C + min U) / (hbar c)^2 = 1.25e298, times the well next to the inner wall is not
            "selfconsistent", {"g": 1e301},
            r"^the weighted well 1\.25006\d*e\+298 U\(x\) leaves the float range at x = 0\.00060001\d* on the grid, "
            r"at M = 1\.0, omega = 1\.0, g = 1e\+301$",
            id="selfconsistent-weighted-well",
        ),
        pytest.param(
            # 2 M c^2 - C = 2e306 is finite, its square in the dispersion quadratic is not
            "selfconsistent", {"c": 1e153}, r"^the scale \(2 M c\^2 - C\)\^2 = \(2e\+306\)\^2 leaves the float range$",
            id="selfconsistent-c-large",
        ),
        pytest.param(
            "selfconsistent", {"sym_constant": -1e300},
            r"^the scale \(2 M c\^2 - C\)\^2 = \(1e\+300\)\^2 leaves the float range$",
            id="selfconsistent-sym-constant",
        ),
        pytest.param("fd", {"hbar": 1e200}, r"^the scale hbar\^2 = \(1e\+200\)\^2 leaves the float range$", id="fd-hbar-large"),
        pytest.param(
            "fd", {"hbar": 1e-170}, r"^the scale hbar\^2 / \(2 M\) = \(1e-170\)\^2 / \(2 \* 1.0\) underflows to 0$",
            id="fd-hbar-small",
        ),
        pytest.param(
            "fd", {"hbar": 1e10, "mass": 1e-300}, r"^the scale hbar\^2 / \(2 M\) leaves the float range$", id="fd-mass-small"
        ),
        pytest.param(
            # hbar^2 / (2 M) is finite; the off-diagonal k = hbar^2 / (2 M h^2), which stebz squares, is 5.5e154
            "fd", {"mass": 1.45e-150},
            r"^the scale \(hbar\^2 / \(2 M h\^2\)\)\^2 = \(5\.5\d*e\+154\)\^2 leaves the float range$",
            id="fd-kinetic-scale",
        ),
    ],
)
def test_oracle_scale_outside_the_float_range_is_named_before_any_eigensolve(monkeypatch, solve, kwargs, message):
    selects = _record_selects(monkeypatch)
    with warnings.catch_warnings(), pytest.raises(DivergenceError, match=message):
        warnings.simplefilter("error", RuntimeWarning)
        if solve == "fd":
            fd_eigenvalues(OscillatorParams().potential, 2, FAST_GRID, **kwargs)
        else:
            dirac_selfconsistent(0, DiracParams(**kwargs))
    assert selects == []


@pytest.mark.parametrize("g", [0.0, 2.0])
def test_fd_names_a_spacing_whose_square_underflows_before_any_eigensolve(monkeypatch, g):
    # h = 1e-163: k = hbar^2 / (2 M h^2) would divide by zero
    selects = _record_selects(monkeypatch)
    with pytest.raises(DivergenceError, match=r"^the scale h\^2 = \(1\.001\d*e-163\)\^2 underflows to 0$"):
        fd_eigenvalues(OscillatorParams(g=g).potential, 2, Grid(1e-300, 1e-160, 1000))
    assert selects == []


@pytest.mark.parametrize(
    "grid,message",
    [
        # h = 1e-81: the off-diagonal k = 1 / h^2 = 1e162 is finite, its square, which stebz forms, is not
        (Grid(1e-90, 1e-78, 1000), r"^the scale \(1 / h\^2\)\^2 = \(9\.98\d*e\+161\)\^2 leaves the float range$"),
        # h = 1e-163: k = 1 / h^2 would divide by zero
        (Grid(1e-300, 1e-160, 1000), r"^the scale h\^2 = \(1\.001\d*e-163\)\^2 underflows to 0$"),
    ],
    ids=["square-overflows", "spacing-underflows"],
)
def test_selfconsistent_names_its_kinetic_scale_before_any_eigensolve(monkeypatch, grid, message):
    selects = _record_selects(monkeypatch)
    with warnings.catch_warnings(), pytest.raises(DivergenceError, match=message):
        warnings.simplefilter("error", RuntimeWarning)
        dirac_selfconsistent(0, DiracParams(g=0.0), grid)
    assert selects == []


# --------------------------------------------------------- ode residual


def test_ode_residual_gaussian():
    grid = Grid(0.3, 3.0, 2001)
    f = np.exp(-0.5 * grid.points() ** 2)
    assert ode_residual(f, lambda x: x * x - 1.0, grid) <= 1e-6


def test_ode_residual_detects_wrong_coefficient():
    grid = Grid(0.3, 3.0, 2001)
    f = np.exp(-0.5 * grid.points() ** 2)
    assert ode_residual(f, lambda x: x * x - 1.1, grid) >= 1e-2


def test_ode_residual_zero_function():
    grid = Grid(0.3, 3.0, 2001)
    assert ode_residual(np.zeros(grid.n_points), lambda x: x, grid) == 0.0


def test_ode_residual_rejects_bad_samples():
    grid = Grid(0.3, 3.0, 2001)
    with pytest.raises(ValueError):
        ode_residual(np.zeros(5), lambda x: x, grid)
    bad = np.zeros(grid.n_points)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ode_residual(bad, lambda x: x, grid)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_ode_residual_rejects_nonfinite_coefficient(bad):
    grid = Grid(0.3, 3.0, 2001)
    f = np.exp(-0.5 * grid.points() ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"coefficient is not finite at x = 2\.001"):
            ode_residual(f, lambda x: np.where(x > 2.0, bad, x * x - 1.0), grid)


def test_selfconsistent_below_hardy_bound_is_unphysical():
    # the closed-form solver refuses this coupling too; the oracle must not return a level
    with pytest.raises(UnphysicalRegime, match=r"1 \+ 2 g \|energy_weight\| = .* < 0"):
        dirac_selfconsistent(0, spin_params(-0.2, 0.0))
    # here the level itself keeps 1 + 2 g weight > 0 and only the
    # harmonic-ladder start is past the edge: the sweeps must start
    # inside it, and the coarse grid is what fails
    assert 1.0 + 2.0 * -0.15 * (1.0 + 2.5) < 0.0
    with pytest.raises(GridTooCoarse):
        dirac_selfconsistent(0, spin_params(-0.15, 0.0), FAST_GRID)


def test_selfconsistent_coarse_grid_detected():
    with pytest.raises(GridTooCoarse, match="exceeds 1e-03"):
        dirac_selfconsistent(3, spin_params(2.0, 0.0), Grid(n_points=400))


# ------------------------------------------------ enclosure-bounded solves


def _weighted_well(weight, g=2.0, grid=FAST_GRID):
    x = grid.points()
    return weight * (0.5 * x**2 + g / (2.0 * x**2))


def _record_selects(monkeypatch):
    selects = []
    real = oracle.eigh_tridiagonal

    def recording(*args, **kwargs):
        selects.append(kwargs["select"])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
    return selects


def _sweep_solves(monkeypatch, move=None):
    """("v", eigenvalues found) or ("i",) of each solve on FAST_GRID, the sweep's grid (the check grids have other spacings).

    ``move(sturm, bottom, top)``, if given, replaces each sweep window before it is bisected.
    """
    solves = []
    values, index = oracle._Sturm.values, oracle._Sturm.index
    declared = 1.0 / FAST_GRID.spacing**2

    def recording_values(self, bottom, top, tol=oracle._EIG_TOL):
        if self.k != declared:
            return values(self, bottom, top, tol)
        if move is not None:
            bottom, top = move(self, bottom, top)
        found = values(self, bottom, top, tol)
        solves.append(("v", found.size))
        return found

    def recording_index(self, lo, hi, tol=oracle._EIG_TOL):
        if self.k == declared:
            solves.append(("i",))
        return index(self, lo, hi, tol)

    monkeypatch.setattr(oracle._Sturm, "values", recording_values)
    monkeypatch.setattr(oracle._Sturm, "index", recording_index)
    return solves


def _empty_window(sturm, bottom, top):
    # the spectrum lies above min v less the pad: K + diag(v) with K positive definite
    return sturm.least - sturm.pad - 2.0, sturm.least - sturm.pad - 1.0


@pytest.mark.parametrize("n", [0, 3])
def test_windowed_solve_equals_index_solve(monkeypatch, n):
    # the Courant-Fischer window of a weight step holds eigenvalue n alone: one value solve finds it
    h = FAST_GRID.spacing
    w0, w1 = 3.2, 3.35
    lam0 = float(oracle._Sturm(_weighted_well(w0), h, 1.0).index(n, n)[0])
    sturm = oracle._Sturm(_weighted_well(w1), h, 1.0)
    expected = float(sturm.index(n, n)[0])
    selects = _record_selects(monkeypatch)
    got = sturm.values(lam0 - sturm.pad, w1 / w0 * lam0 + sturm.pad)
    assert selects == ["v"]
    assert got.shape == (1,)
    assert abs(float(got[0]) - expected) <= 1e-12


@pytest.mark.parametrize("case", ["empty", "two"])
def test_windowed_solve_falls_back_to_index_solve(monkeypatch, case):
    # every sweep window after the first sweep misses its eigenvalue, or also holds the ones above it
    p = spin_params(2.0, 1.0)
    windowed = dirac_selfconsistent(1, p, FAST_GRID)
    runs = {}
    for name, move in (("empty", _empty_window), ("two", lambda sturm, bottom, top: (bottom, top + 100.0))):
        solves = _sweep_solves(monkeypatch, move)
        runs[name] = dirac_selfconsistent(1, p, FAST_GRID)
        monkeypatch.undo()
        if name == case:
            # after the first sweep's index solve, each window is bisected and then solved by index
            sweeps = (len(solves) - 1) // 2
            assert solves[0] == ("i",) and solves[2::2] == [("i",)] * sweeps
            found = [size for _, size in solves[1::2]]
            assert len(found) == sweeps and all(size == 0 if case == "empty" else size >= 2 for size in found)
    # the same index solves either way, so the same report; within the tolerances of the windowed one
    assert runs["empty"] == runs["two"]
    assert runs[case].eigenvalues[0] == pytest.approx(windowed.eigenvalues[0], abs=1e-10)
    assert runs[case].richardson_error[0] == pytest.approx(windowed.richardson_error[0], rel=1e-4)


def test_negative_coupling_never_takes_the_window(monkeypatch):
    solves = _record_rows(monkeypatch)
    dirac_selfconsistent(0, spin_params(-0.05, 0.0), FAST_GRID)
    # the declared grid's solves keep every row; the doubled-cutoff grid's
    # value windows are cut, and the doubled-spacing grid has about half the rows
    declared = [select for select, rows in solves if rows == FAST_GRID.n_points - 2]
    assert len(declared) >= 2
    assert set(declared) == {"i"}


@pytest.mark.parametrize("n,g,cs", [(0, 0.5, 0.0), (1, 2.0, 1.0), (3, 6.0, 2.0), (2, 0.0, 0.5)])
def test_selfconsistent_window_keeps_solve_count_and_level(monkeypatch, n, g, cs):
    p = spin_params(g, cs)
    selects = _record_selects(monkeypatch)
    solves = _sweep_solves(monkeypatch)
    windowed = dirac_selfconsistent(n, p, FAST_GRID)
    monkeypatch.undo()
    # the reference solves every sweep by index, to 1e-12
    monkeypatch.setattr(oracle, "_SWEEP_TOL_FRACTION", 0.0)
    reference_solves = _sweep_solves(monkeypatch, _empty_window)
    reference = dirac_selfconsistent(n, p, FAST_GRID)
    # as many sweeps: each one after the first a single value solve that
    # finds one eigenvalue, where the reference's window finds none
    sweeps = len(solves) - 1
    assert solves == [("i",)] + [("v", 1)] * sweeps
    assert reference_solves == [("i",)] + [("v", 0), ("i",)] * sweeps
    # every solve after the first on the declared grid is windowed, and
    # so is each check grid's solve (``_tridiag_near``)
    assert selects.count("i") == 1
    assert windowed.eigenvalues[0] == pytest.approx(reference.eigenvalues[0], abs=1e-10)
    assert windowed.richardson_error[0] == pytest.approx(reference.richardson_error[0], rel=1e-4)


def _record_bisections(monkeypatch):
    # (select, rows, select_range, tol) of each eigensolve
    solves = []
    real = oracle.eigh_tridiagonal

    def recording(diag, off, **kwargs):
        solves.append((kwargs["select"], diag.size, kwargs["select_range"], kwargs["tol"]))
        return real(diag, off, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
    return solves


@pytest.mark.parametrize(
    "n,g,cs,grid",
    [
        (0, 0.5, 0.0, FAST_GRID),
        (1, 2.0, 1.0, FAST_GRID),
        (3, 6.0, 2.0, FAST_GRID),
        (2, 0.0, 0.5, FAST_GRID),
        pytest.param(0, 2.0, 0.0, Grid(), id="pinned-level"),
    ],
)
def test_sweep_tolerance_keeps_level_estimate_and_solve_count(monkeypatch, n, g, cs, grid):
    p = spin_params(g, cs)
    solves = _record_bisections(monkeypatch)
    scaled = dirac_selfconsistent(n, p, grid)
    scaled_solves = list(solves)
    solves.clear()
    monkeypatch.setattr(oracle, "_SWEEP_TOL_FRACTION", 0.0)
    full = dirac_selfconsistent(n, p, grid)
    assert len(scaled_solves) == len(solves)
    for run in (scaled_solves, solves):
        assert [select for select, *_ in run].count("i") == 1 and run[0][0] == "i"  # the first sweep's
    # the fraction is what widens the sweeps' tolerance
    assert any(a[3] > b[3] for a, b in zip(scaled_solves, solves))
    assert scaled.eigenvalues[0] == pytest.approx(full.eigenvalues[0], abs=1e-10)
    assert scaled.richardson_error[0] == pytest.approx(full.richardson_error[0], rel=1e-4)


def test_enclosure_padded_by_the_previous_tolerance_holds_its_eigenvalue(monkeypatch):
    # a sweep bisected to 1e-6, then a weight that moves the eigenvalue by
    # far less than that: the unpadded window misses the eigenvalue
    h = FAST_GRID.spacing
    w0, w1, tol = 3.2, 3.2 * (1.0 + 1e-10), 1e-6
    lam0 = float(oracle._Sturm(_weighted_well(w0), h, 1.0).index(0, 0, tol)[0])
    sturm = oracle._Sturm(_weighted_well(w1), h, 1.0)
    expected = float(sturm.index(0, 0)[0])
    r = w1 / w0
    bare = (lam0, r * lam0)
    assert not bare[0] - 1e-9 <= expected <= bare[1] + 1e-9
    selects = _record_selects(monkeypatch)
    # as dirac_selfconsistent pads it: by max(1, r) times the previous tolerance, then by the _Sturm pad
    got = sturm.values(bare[0] - tol - sturm.pad, bare[1] + r * tol + sturm.pad)
    assert selects == ["v"]
    assert got.shape == (1,)
    assert abs(float(got[0]) - expected) <= 1e-12
    # without the tolerance the window is empty, and the sweep would take the index solve
    assert sturm.values(bare[0] - sturm.pad, bare[1] + sturm.pad).size == 0


def test_fast_converging_sweeps_keep_their_padded_windows(monkeypatch):
    # at c = 100 a sweep moves the level by far less than the previous
    # sweep's tolerance; without the pad its window would miss the
    # eigenvalue and take a second index solve
    p = DiracParams(g=2.0, c=100.0)
    selects = _record_selects(monkeypatch)
    rep = dirac_selfconsistent(0, p, FAST_GRID)
    assert selects.count("i") == 1 and selects[0] == "i"
    monkeypatch.setattr(oracle, "_SWEEP_TOL_FRACTION", 0.0)
    assert rep.eigenvalues[0] == pytest.approx(dirac_selfconsistent(0, p, FAST_GRID).eigenvalues[0], abs=1e-10)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="below g = 0 the inner wall dominates and the doubled-cutoff re-solve does not bound it (ROADMAP item 4)",
)
def test_selfconsistent_estimate_bounds_error_at_negative_coupling():
    # error 1.65e-3 against an estimate of 8.14e-4 on the default grid
    p = spin_params(-0.1, 0.0)
    rep = dirac_selfconsistent(0, p)
    assert abs(rep.eigenvalues[0] - solve_spin_energy(0, p).value) <= rep.richardson_error[0]


# ------------------------------------------------ FD check-grid windows


def _index_only_near(monkeypatch):
    def index_only(v, spacing, kinetic, guesses, lo=0):
        return oracle._Sturm(v, spacing, kinetic).index(lo, lo + len(guesses) - 1)

    monkeypatch.setattr(oracle, "_tridiag_near", index_only)


@pytest.mark.parametrize("g", [-0.1, 0.5, 2.0, 6.0])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6])
def test_check_grid_windows_equal_index_solve(monkeypatch, g, count):
    potential = OscillatorParams(g=g).potential
    guesses = oracle._Sturm(potential(FAST_GRID.points()), FAST_GRID.spacing, 0.5).index(0, count - 1)
    for check in (FAST_GRID.doubled_spacing(), FAST_GRID.doubled_cutoff()):
        v = potential(check.points())
        expected = oracle._Sturm(v, check.spacing, 0.5).index(0, count - 1)
        selects = _record_selects(monkeypatch)
        got = oracle._tridiag_near(v, check.spacing, 0.5, guesses)
        monkeypatch.undo()
        # the windows were certified: value solves only, the last one the Sturm count
        assert set(selects) == {"v"} and len(selects) >= count + 1
        assert got.shape == (count,)
        assert float(np.max(np.abs(got - expected))) <= 1e-12


@pytest.mark.parametrize("case", ["shifted", "far", "overlapping", "crowded"])
def test_check_grid_windows_reject_wrong_guesses(monkeypatch, case):
    potential = OscillatorParams(g=2.0).potential
    check = FAST_GRID.doubled_spacing()
    v = potential(check.points())
    # a heavy particle crowds the levels to a spacing of about 6e-4
    kinetic = 5e-8 if case == "crowded" else 0.5
    lams = oracle._Sturm(v, check.spacing, kinetic).index(0, 4)
    guesses = {
        "shifted": lams[1:4],  # one window per eigenvalue, but eigenvalue 0 lies below them all
        "far": lams[:3] + 0.9,  # between levels: every window stays empty up to the coarse limit
        "overlapping": np.array([lams[0], lams[0] + 1e-9, lams[2]]),
        "crowded": np.array([0.5 * (lams[0] + lams[1]), lams[3], lams[4]]),  # the first window that fills holds several
    }[case]
    expected = oracle._Sturm(v, check.spacing, kinetic).index(0, 2)
    selects = _record_selects(monkeypatch)
    got = oracle._tridiag_near(v, check.spacing, kinetic, guesses)
    assert selects[-1] == "i" and selects.count("i") == 1
    if case == "shifted":
        assert selects[:-1] == ["v"] * 4  # three windows, then the count that rejects them
    if case in ("far", "crowded"):
        # 1e-7 widened tenfold to 1e-3: all empty, or the last one rejected at once
        assert selects[:-1] == ["v"] * 5
    assert got.tobytes() == expected.tobytes()


def _index_only(monkeypatch):
    # the declared grid and both check grids by index, as before the bracket and the windows
    _index_only_near(monkeypatch)

    def index_only(v, spacing, kinetic, count):
        return oracle._Sturm(v, spacing, kinetic).index(0, count - 1)

    monkeypatch.setattr(oracle, "_tridiag_bracketed", index_only)


@pytest.mark.parametrize("g,count", [(0.5, 1), (2.0, 4), (6.0, 6), (-0.05, 2)])
def test_fd_solves_every_grid_by_value_within_the_tolerance_of_the_index_solve(monkeypatch, g, count):
    potential = OscillatorParams(g=g).potential
    selects = _record_selects(monkeypatch)
    bracketed = fd_eigenvalues(potential, count, FAST_GRID)
    assert "i" not in selects
    monkeypatch.undo()
    _index_only(monkeypatch)
    reference = fd_eigenvalues(potential, count, FAST_GRID)
    assert np.max(np.abs(np.subtract(bracketed.eigenvalues, reference.eigenvalues))) <= 2.0 * oracle._EIG_TOL
    assert bracketed.richardson_error == pytest.approx(reference.richardson_error, rel=1e-4)


@pytest.mark.parametrize(
    "g,count,grid",
    [pytest.param(g, count, FAST_GRID, id=f"{count}-{g}") for count in range(1, 7) for g in (-0.05, 0.5, 2.0, 6.0)]
    + [pytest.param(2.0, 6, Grid(), id="default-grid")],
)
def test_fd_bisects_its_one_wide_window_on_the_coarse_grid(monkeypatch, g, count, grid):
    solves = _record_bisections(monkeypatch)
    _outcome(lambda: fd_eigenvalues(OscillatorParams(g=g).potential, count, grid))
    # every grid is solved by value, on no more rows than the declared grid has
    assert {select for select, *_ in solves} == {"v"}
    assert max(rows for _, rows, _, _ in solves) <= grid.n_points - 2
    # a Sturm count's tolerance is wider than its window (it makes only its
    # endpoint counts), and a window around a guess stops growing below a
    # half-width of 10 times the coarse-grid limit
    wide = [
        rows
        for select, rows, (a, b), tol in solves
        if select == "v" and tol == oracle._EIG_TOL and b - a > 2.0 * oracle._WINDOW_GROWTH * oracle._COARSE_LIMIT
    ]
    assert len(wide) == 1
    assert wide[0] <= grid.doubled_spacing().n_points - 2


def test_fd_coarse_grid_message_unchanged(monkeypatch):
    potential = OscillatorParams(g=2.0).potential
    message = "worst error estimate 1.945e-03 exceeds 1e-03"
    with pytest.raises(GridTooCoarse) as windowed:
        fd_eigenvalues(potential, 2, Grid(1e-4, 20.0, 500))
    _index_only_near(monkeypatch)
    with pytest.raises(GridTooCoarse) as reference:
        fd_eigenvalues(potential, 2, Grid(1e-4, 20.0, 500))
    assert str(windowed.value) == str(reference.value) == message


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_check_grid_window_at_level_n_equals_index_solve(monkeypatch, n):
    weight = 3.2
    guess = oracle._Sturm(_weighted_well(weight), FAST_GRID.spacing, 1.0).index(n, n)
    for check in (FAST_GRID.doubled_spacing(), FAST_GRID.doubled_cutoff()):
        v = _weighted_well(weight, grid=check)
        expected = oracle._Sturm(v, check.spacing, 1.0).index(n, n)
        selects = _record_selects(monkeypatch)
        got = oracle._tridiag_near(v, check.spacing, 1.0, guess, lo=n)
        monkeypatch.undo()
        assert set(selects) == {"v"}
        assert got.shape == (1,)
        assert abs(float(got[0] - expected[0])) <= 1e-12


@pytest.mark.parametrize("n", [0, 2])
def test_check_grid_window_at_level_n_rejects_the_next_eigenvalue(monkeypatch, n):
    check = FAST_GRID.doubled_spacing()
    v = _weighted_well(3.2, grid=check)
    above = oracle._Sturm(v, check.spacing, 1.0).index(n + 1, n + 1)
    expected = oracle._Sturm(v, check.spacing, 1.0).index(n, n)
    selects = _record_selects(monkeypatch)
    # the window finds eigenvalue n + 1; the Sturm count then finds n + 2, not n + 1
    got = oracle._tridiag_near(v, check.spacing, 1.0, above, lo=n)
    assert selects.count("i") == 1 and selects[-1] == "i"
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n,g,cs", [(0, 0.5, 0.0), (1, 2.0, 1.0), (3, 6.0, 2.0), (2, 0.0, 0.5), (0, -0.05, 0.0)])
def test_selfconsistent_check_grid_windows_keep_the_report(monkeypatch, n, g, cs):
    p = spin_params(g, cs)
    windowed = dirac_selfconsistent(n, p, FAST_GRID)
    _index_only_near(monkeypatch)
    reference = dirac_selfconsistent(n, p, FAST_GRID)
    assert windowed.eigenvalues == reference.eigenvalues
    assert windowed.richardson_error == pytest.approx(reference.richardson_error, rel=1e-4)


def test_fd_cut_grid_windows_open_at_the_measured_shift(monkeypatch):
    potential = OscillatorParams(g=2.0).potential
    cut = FAST_GRID.doubled_cutoff()
    v = potential(cut.points())
    e_h = oracle._Sturm(potential(FAST_GRID.points()), FAST_GRID.spacing, 0.5).index(0, 5)
    expected = oracle._Sturm(v, cut.spacing, 0.5).index(0, 5)
    near = oracle._tridiag_near
    calls = []

    def recording_near(v, spacing, kinetic, guesses, lo=0):
        calls.append([])
        got = near(v, spacing, kinetic, guesses, lo)
        calls[-1].append(got)
        return got

    real = oracle.eigh_tridiagonal

    def recording(*args, **kwargs):
        if calls:
            calls[-1].append(kwargs["select_range"])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "_tridiag_near", recording_near)
    monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
    fd_eigenvalues(potential, 6, FAST_GRID)
    *windows, count, got = calls[1]  # the doubled-cutoff grid, solved second
    assert count[0] < float(np.min(v[1:-1]))  # the Sturm count, from below the spectrum
    assert float(np.max(np.abs(got - expected))) <= 1e-12
    opening = {}
    for a, b in windows:  # each guess's first window is the one it opens with
        i = int(np.argmin(np.abs(e_h - 0.5 * (a + b))))
        opening.setdefault(i, 0.5 * (b - a))
    assert sorted(opening) == list(range(6))
    for i in range(1, 6):
        assert opening[i] < 1e-7 * abs(e_h[i])


@pytest.mark.parametrize("n,g,cs", [(0, 2.0, 2.0), (1, 6.0, 2.0)])
def test_selfconsistent_estimate_bounds_error_with_feedback(n, g, cs):
    # the grid error of lambda_n is fed back through the energy-dependent
    # weight; before the 1/weight factor these read 3.87e-8 > 3.44e-8 and
    # 1.39e-7 > 1.28e-7
    p = spin_params(g, cs)
    rep = dirac_selfconsistent(n, p)
    assert abs(rep.eigenvalues[0] - solve_spin_energy(n, p).value) <= rep.richardson_error[0]


@pytest.mark.parametrize(
    "run",
    [
        lambda grid: fd_eigenvalues(OscillatorParams().potential, 2, grid),
        lambda grid: dirac_selfconsistent(0, DiracParams(), grid),
    ],
    ids=["fd", "selfconsistent"],
)
@pytest.mark.parametrize("x_min", [1.0, 1.5])
def test_oracles_reject_a_grid_without_a_doubled_cutoff(monkeypatch, run, x_min):
    selects = _record_selects(monkeypatch)
    with pytest.raises(ValueError, match=r"doubled-cutoff check grid needs 2 x_min < x_max, got x_min = 1\.[05], x_max = 2\.0"):
        run(Grid(x_min, 2.0, 4000))
    assert selects == []  # raised before any solve


@pytest.mark.parametrize(
    "run",
    [
        lambda grid: fd_eigenvalues(OscillatorParams().potential, 2, grid),
        lambda grid: dirac_selfconsistent(0, DiracParams(), grid),
    ],
    ids=["fd", "selfconsistent"],
)
@pytest.mark.parametrize("n_points", [150, 198])
def test_oracles_reject_a_grid_without_a_doubled_spacing(monkeypatch, run, n_points):
    # (n_points + 1) // 2 must reach the 100 points a Grid needs
    selects = _record_selects(monkeypatch)
    with pytest.raises(ValueError, match=rf"^the doubled-spacing check grid needs at least 199 grid points, got {n_points}$"):
        run(Grid(n_points=n_points))
    assert selects == []  # raised before any solve


@pytest.mark.parametrize(
    "run",
    [
        lambda grid: fd_eigenvalues(OscillatorParams(g=2.0).potential, 6, grid),
        lambda grid: fd_eigenvalues(OscillatorParams(g=-0.05).potential, 2, grid),
        lambda grid: dirac_selfconsistent(1, spin_params(2.0, 1.0), grid),
        lambda grid: dirac_selfconsistent(0, spin_params(-0.05, 0.0), grid),
    ],
    ids=["fd", "fd-negative-g", "selfconsistent", "selfconsistent-negative-g"],
)
def test_oracles_never_solve_more_rows_than_the_declared_grid(monkeypatch, run):
    # the spacing check grid is coarser than the declared one, not finer
    solves = _record_rows(monkeypatch)
    run(FAST_GRID)
    assert solves
    assert max(rows for _, rows in solves) <= FAST_GRID.n_points - 2


def test_every_tridiagonal_solve_goes_through_the_module_binding(monkeypatch):
    # the bench tracer counts eigensolves at oracle.eigh_tridiagonal, so a solve
    # that reached scipy past that binding would go uncounted
    import scipy.linalg

    counts = {"scipy": 0, "oracle": 0}

    def counting(module, name):
        real = module.eigh_tridiagonal

        def solve(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "eigh_tridiagonal", solve)

    counting(scipy.linalg, "scipy")
    counting(oracle, "oracle")
    fd_eigenvalues(OscillatorParams(g=2.0).potential, 3, FAST_GRID)
    dirac_selfconsistent(1, spin_params(2.0, 0.0), FAST_GRID)
    assert counts["scipy"] == counts["oracle"] > 0


# ------------------------------------------- forbidden-tail row cut


def _every_row(monkeypatch):
    """Keep every row in each solve; return (rows solved, interior rows of its grid) of each solve that follows."""
    monkeypatch.setattr(oracle._Sturm, "live_rows", lambda self, top: self.diag.size)
    solves = []
    grids = []
    build = oracle._Sturm.__init__

    def building(self, v, spacing, kinetic):
        grids.append(v.size - 2)
        build(self, v, spacing, kinetic)

    real = oracle.eigh_tridiagonal

    def recording(diag, off, **kwargs):
        solves.append((diag.size, grids[-1]))
        return real(diag, off, **kwargs)

    monkeypatch.setattr(oracle._Sturm, "__init__", building)
    monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
    return solves


def _record_rows(monkeypatch):
    solves = []
    real = oracle.eigh_tridiagonal

    def recording(diag, off, **kwargs):
        solves.append((kwargs["select"], diag.size))
        return real(diag, off, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
    return solves


def _outcome(run):
    try:
        return run()
    except GridTooCoarse as exc:  # the error's message holds the worst estimate
        return str(exc)


@pytest.mark.parametrize("g", [-0.1, 0.5, 2.0, 6.0])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6])
def test_row_cut_keeps_fd_report_bit_for_bit(monkeypatch, g, count):
    # at g = -0.1 this grid is too coarse from count 2 on
    def run():
        return fd_eigenvalues(OscillatorParams(g=g).potential, count, FAST_GRID)

    cut = _outcome(run)
    solves = _every_row(monkeypatch)
    assert cut == _outcome(run)
    assert solves and all(rows == interior for rows, interior in solves)


# in the last case one window starts below where LAPACK would start the cut matrix
@pytest.mark.parametrize("n,g,cs", [(0, 0.5, 0.0), (1, 2.0, 1.0), (3, 6.0, 2.0), (2, 0.0, 0.5), (0, 6.0, 2.0)])
def test_row_cut_keeps_selfconsistent_report_bit_for_bit(monkeypatch, n, g, cs):
    p = spin_params(g, cs)
    cut = dirac_selfconsistent(n, p, FAST_GRID)
    solves = _every_row(monkeypatch)
    assert cut == dirac_selfconsistent(n, p, FAST_GRID)
    assert solves and all(rows == interior for rows, interior in solves)


@pytest.mark.parametrize(
    "run",
    [
        lambda: fd_eigenvalues(OscillatorParams(g=2.0).potential, 3),
        lambda: dirac_selfconsistent(1, spin_params(2.0, 1.0)),
        lambda: fd_eigenvalues(OscillatorParams(g=2.0).potential, 6),
        lambda: dirac_selfconsistent(0, spin_params(2.0, 0.0)),
    ],
    ids=["fd", "selfconsistent", "fd-six-levels", "selfconsistent-ground-level"],
)
def test_row_cut_shortens_every_value_solve_on_default_grid(monkeypatch, run):
    solves = _record_rows(monkeypatch)
    report = run()
    cut = list(solves)
    solves.clear()
    _every_row(monkeypatch)
    assert run() == report  # bit for bit
    assert [select for select, _ in cut] == [select for select, _ in solves]
    assert "v" in {select for select, _ in cut}
    for (select, rows), (_, every) in zip(cut, solves):
        assert rows < every if select == "v" else rows == every


@pytest.mark.parametrize("depth", [60.0, 120.0])
def test_row_cut_keeps_levels_of_a_second_well_past_the_first(monkeypatch, depth):
    # depth 60: the forbidden tail dips again near x = 15; depth 120: that
    # dip holds levels of its own, below the top of the windows
    isotonic = OscillatorParams(g=2.0).potential

    def potential(x):
        return isotonic(x) - depth * np.exp(-((x - 15.0) ** 2))

    cut = fd_eigenvalues(potential, 6, FAST_GRID)
    _every_row(monkeypatch)
    assert cut == fd_eigenvalues(potential, 6, FAST_GRID)


def test_live_rows_keeps_every_row_when_the_last_row_is_allowed():
    x = FAST_GRID.points()
    v = 0.5 * x**2 + 1.0 / x**2
    h = FAST_GRID.spacing
    sturm = oracle._Sturm(v, h, 0.5)
    assert sturm.live_rows(float(v[-2])) == x.size - 2
    assert sturm.live_rows(1e3) == x.size - 2
    assert sturm.live_rows(10.0) < x.size - 2


def test_row_cut_of_a_walled_well_keeps_its_levels_without_a_warning(monkeypatch):
    # past the wall the forbidden tail reaches 1e200 / k, where c^2 overflows
    isotonic = OscillatorParams(g=2.0).potential

    def potential(x):
        return np.where(x < 10.0, isotonic(x), 1e200)

    grid = Grid(1e-4, 20.0, 4000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cut = fd_eigenvalues(potential, 3, grid)
    assert len(cut.eigenvalues) == 3
    _every_row(monkeypatch)
    assert cut == fd_eigenvalues(potential, 3, grid)


def _live_rows_per_row(sturm, top):
    """``_Sturm.live_rows``'s decay bound taken at every row instead of at each block's last row."""
    a = (sturm.v[1:-1] - top) / sturm.k
    allowed = np.flatnonzero(a <= 0.0)
    s = int(allowed[-1]) + 1 if allowed.size else 0
    if s + 1 >= a.size:
        return a.size
    tail = np.minimum.accumulate(a[s:][::-1])[::-1]
    root = np.sqrt(tail + 0.25 * tail * tail)
    rho = 1.0 / (1.0 + 0.5 * tail + root)
    spread = 1.0 + abs(top - sturm.least)
    log_bound = 2.0 * np.cumsum(np.log(rho)) + np.log((sturm.k + spread / (2.0 * root)) / rho)
    past = np.flatnonzero(log_bound[1:] <= math.log(oracle._TAIL_BOUND * max(1.0, abs(top))))
    return s + 1 + int(past[0]) if past.size else a.size


@st.composite
def _forbidden_tails(draw):
    """An isotonic well on FAST_GRID whose tail rises, dips again, levels off or meets a wall, and a top."""
    x = FAST_GRID.points()
    v = 0.5 * draw(st.floats(0.01, 100.0)) * x**2 + draw(st.floats(0.0, 10.0)) / (2.0 * x**2)
    kind = draw(st.sampled_from(["monotone", "dip", "floor", "plateau", "wall"]))
    if kind == "dip":
        centre = draw(st.floats(3.0, 19.0))
        depth = draw(st.floats(0.0, 1.5)) * 0.5 * centre**2
        v = v - depth * np.exp(-(((x - centre) / draw(st.floats(0.1, 2.0))) ** 2))
    elif kind in ("floor", "plateau"):
        level = float(np.min(v)) + 10.0 ** draw(st.floats(-2.0, 3.0))
        v = np.maximum(v, level) if kind == "floor" else np.minimum(v, level)
    elif kind == "wall":
        v = np.where(x < draw(st.floats(1.0, 19.0)), v, 10.0 ** draw(st.floats(0.0, 300.0)))
    sturm = oracle._Sturm(v, FAST_GRID.spacing, draw(st.sampled_from([1e-3, 0.5, 50.0])))
    return sturm, sturm.least + 10.0 ** draw(st.floats(-3.0, 4.0))


@given(_forbidden_tails(), st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_live_rows_decide_every_sturm_count_up_to_the_top(well, fractions):
    sturm, top = well
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        live = sturm.live_rows(top)
    bottom = sturm.least - 1.0
    for fraction in fractions:
        shift = bottom + fraction * (top - bottom)
        counts = [sturm._solve(rows, "v", (bottom, shift), 2.0 * (shift - bottom)).size for rows in (live, sturm.diag.size)]
        assert counts[0] == counts[1]
    if np.max(sturm.v[1:-1]) < 1e150 * sturm.k:  # the per-row bound squares the tail
        per_row = _live_rows_per_row(sturm, top)
        assert per_row <= live <= per_row + 128


@pytest.mark.parametrize(
    "run",
    [
        lambda: fd_eigenvalues(OscillatorParams(g=2).potential, 6),
        lambda: dirac_selfconsistent(1, DiracParams(g=2, sym_constant=1)),
    ],
    ids=["fd", "selfconsistent"],
)
def test_every_sturm_solve_keeps_the_rows_of_its_own_top(monkeypatch, run):
    # index solves and value solves that start below clip keep every row; every
    # other value solve and every count (its tolerance is twice its window) keeps
    # live_rows of its own top
    kept = []
    solve = oracle._Sturm._solve

    def recording(self, rows, select, select_range, tol):
        bottom, top = select_range
        if select == "i" or (tol != 2.0 * (top - bottom) and bottom < self.clip):
            kept.append((rows, self.diag.size))
        else:
            kept.append((rows, self.live_rows(top)))
        return solve(self, rows, select, select_range, tol)

    monkeypatch.setattr(oracle._Sturm, "_solve", recording)
    run()
    assert kept and all(rows == rule for rows, rule in kept), kept


def test_window_below_bisection_start_keeps_every_row(monkeypatch):
    v = _weighted_well(3.0)
    sturm = oracle._Sturm(v, FAST_GRID.spacing, 1.0)
    lam = sturm.index(0, 0)
    solves = _record_rows(monkeypatch)
    got = sturm.values(float(np.min(v[1:-1])) - 1.0, float(lam[0]) + 0.5)  # starts below every row's Gershgorin bound
    assert solves == [("v", FAST_GRID.n_points - 2)]
    assert got.shape == (1,)
    assert abs(float(got[0] - lam[0])) <= 1e-12


def test_check_grid_window_below_bisection_start_keeps_every_row(monkeypatch):
    # a flat floor and a light particle: the ground level sits 4.7e-5 above
    # min v, so the window that first holds it reaches below min v
    x = FAST_GRID.points()
    v = np.where(x < 10.0, 0.0, (x - 10.0) ** 2)
    h = FAST_GRID.spacing
    solves = _record_rows(monkeypatch)
    got = oracle._tridiag_near(v, h, 5e-4, np.array([0.0]))
    assert [rows for _, rows in solves[:-1]] == [FAST_GRID.n_points - 2] * 4
    assert solves[-1][1] < FAST_GRID.n_points - 2  # the count needs only its size
    monkeypatch.undo()
    _every_row(monkeypatch)
    assert got.tobytes() == oracle._tridiag_near(v, h, 5e-4, np.array([0.0])).tobytes()


def test_bracket_falls_back_to_the_index_solve_for_a_pair_below_the_float_spacing(monkeypatch):
    # mirror-symmetric rows and a barrier of 625: the lowest pair is split by about e^-200
    x = FAST_GRID.points()
    well = ((x - 10.0) ** 2 - 25.0) ** 2
    v = np.minimum(well, well[::-1])
    h = FAST_GRID.spacing
    expected = oracle._Sturm(v, h, 0.5).index(0, 0)
    selects = _record_selects(monkeypatch)
    got = oracle._tridiag_bracketed(v, h, 0.5, 1)
    assert selects.count("i") == 1 and selects[-1] == "i"
    assert got.tobytes() == expected.tobytes()
    selects.clear()
    pair = oracle._tridiag_bracketed(v, h, 0.5, 2)  # the pair together is isolated by value
    assert "i" not in selects
    assert float(np.max(np.abs(pair - oracle._Sturm(v, h, 0.5).index(0, 1)))) <= 2.0 * oracle._EIG_TOL


@pytest.mark.parametrize("count", [1, 3])
def test_bracket_with_the_well_minimum_on_the_outer_wall_keeps_every_row(monkeypatch, count):
    def potential(x):
        return (x - 20.0) ** 2

    v = np.full(FAST_GRID.n_points, math.nan)
    v[1:-1] = potential(FAST_GRID.points()[1:-1])
    h = FAST_GRID.spacing
    solves = _record_rows(monkeypatch)
    got = oracle._tridiag_bracketed(v, h, 0.5, count)
    assert solves and solves == [("v", FAST_GRID.n_points - 2)] * len(solves)
    assert float(np.max(np.abs(got - oracle._Sturm(v, h, 0.5).index(0, count - 1)))) <= 2.0 * oracle._EIG_TOL
    monkeypatch.undo()

    def run():
        return fd_eigenvalues(potential, count, FAST_GRID)

    cut = _outcome(run)
    _every_row(monkeypatch)
    assert cut == _outcome(run)


@pytest.mark.parametrize("count", [1, 6])
def test_bracket_opens_at_a_width_set_by_the_grid_not_by_the_well(monkeypatch, count):
    v = OscillatorParams(g=2.0).potential(FAST_GRID.points())
    h = FAST_GRID.spacing
    solves = []
    for shift in (0.0, 1e6):
        selects = _record_selects(monkeypatch)
        got = oracle._tridiag_bracketed(v + shift, h, 0.5, count)
        monkeypatch.undo()
        assert set(selects) == {"v"}
        solves.append((len(selects), got - shift))
    (counts, values), (shifted_counts, shifted_values) = solves
    assert counts == shifted_counts
    # adding 1e6 rounds each row by up to 6e-11
    assert float(np.max(np.abs(values - shifted_values))) <= 1e-9


# ------------------------------------------------ samples and walls


def test_fd_never_samples_the_walls():
    def array_potential(x):
        return 0.5 * x**2 + 1.0 / x**2 + 1.0 / (20.0 - x)

    def scalar_potential(x):
        x = float(x)
        return 0.5 * x**2 + 1.0 / x**2 + 1.0 / (20.0 - x)

    grid = Grid(1e-4, 20.0, 4000)
    with np.errstate(divide="raise", invalid="raise"):
        rep = fd_eigenvalues(array_potential, 3, grid)
    assert rep == fd_eigenvalues(scalar_potential, 3, grid)
    # g = 2 isotonic ladder 2.5, 4.5, 6.5 plus about 1/20 from the outer wall term
    assert rep.eigenvalues == pytest.approx((2.554, 4.556, 6.557), abs=1e-3)


def test_scan_rejects_nonfinite_sample_in_the_scan():
    with pytest.raises(ValueError, match=r"not finite at x = 0\.5"):
        scan_roots(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 10)


def test_scan_rejects_nonfinite_sample_in_a_bisection():
    # no grid point of the 9-step scan falls in (0.49, 0.51); the first midpoint does
    with pytest.raises(ValueError, match=r"not finite at x = 0\.5"):
        scan_roots(lambda x: math.inf if 0.49 < x < 0.51 else x - 0.5, 0.0, 1.0, 9)
