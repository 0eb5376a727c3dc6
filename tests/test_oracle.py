"""Grid eigensolver, quadrature, root scan and self-consistent iteration."""
from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

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
    g = Grid(0.5, 2.5, 101)
    assert g.spacing == pytest.approx(0.02, abs=1e-15)
    pts = g.points()
    assert pts[0] == 0.5 and pts[-1] == 2.5 and pts.size == 101
    gh = g.halved_spacing()
    assert gh.n_points == 201
    assert gh.spacing == pytest.approx(0.5 * g.spacing, rel=1e-15)
    gc = g.doubled_cutoff()
    assert gc.x_min == 1.0 and gc.n_points == 101


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
        pytest.param("fd", {"hbar": 1e200}, r"^the scale hbar\^2 = \(1e\+200\)\^2 leaves the float range$", id="fd-hbar-large"),
        pytest.param(
            "fd", {"hbar": 1e-170}, r"^the scale hbar\^2 / \(2 M\) = \(1e-170\)\^2 / \(2 \* 1.0\) underflows to 0$",
            id="fd-hbar-small",
        ),
        pytest.param(
            "fd", {"hbar": 1e10, "mass": 1e-300}, r"^the scale hbar\^2 / \(2 M\) leaves the float range$", id="fd-mass-small"
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


@pytest.mark.parametrize("n", [0, 3])
def test_windowed_solve_equals_index_solve(monkeypatch, n):
    h = FAST_GRID.spacing
    w0, w1 = 3.2, 3.35
    lam0 = float(oracle._tridiag_lowest(_weighted_well(w0), h, 1.0, n, n)[0])
    expected = float(oracle._tridiag_lowest(_weighted_well(w1), h, 1.0, n, n)[0])
    selects = _record_selects(monkeypatch)
    window = (lam0, w1 / w0 * lam0)
    got = oracle._tridiag_lowest(_weighted_well(w1), h, 1.0, n, n, window)
    assert selects == ["v"]
    assert got.shape == (1,)
    assert abs(float(got[0]) - expected) <= 1e-12


@pytest.mark.parametrize("case", ["empty", "two"])
def test_windowed_solve_falls_back_to_index_solve(monkeypatch, case):
    h = FAST_GRID.spacing
    v = _weighted_well(3.0)
    lams = oracle._tridiag_lowest(v, h, 1.0, 0, 3)
    # eigenvalue 1, but the window misses it or also holds eigenvalue 2
    window = {"empty": (lams[3] + 1.0, lams[3] + 2.0), "two": (lams[1], lams[2])}[case]
    expected = oracle._tridiag_lowest(v, h, 1.0, 1, 1)
    selects = _record_selects(monkeypatch)
    got = oracle._tridiag_lowest(v, h, 1.0, 1, 1, window)
    assert selects == ["v", "i"]
    assert float(got[0]) == float(expected[0])


def test_enclosure_needs_a_single_index():
    with pytest.raises(ValueError, match="one eigenvalue"):
        oracle._tridiag_lowest(_weighted_well(3.0), FAST_GRID.spacing, 1.0, 0, 1, (1.0, 2.0))


def test_negative_coupling_never_takes_the_window(monkeypatch):
    solves = _record_rows(monkeypatch)
    dirac_selfconsistent(0, spin_params(-0.05, 0.0), FAST_GRID)
    # the declared grid's solves keep every row; the check grids' value
    # windows are cut, and the halved grid has about twice the rows
    declared = [select for select, rows in solves if rows == FAST_GRID.n_points - 2]
    assert len(declared) >= 2
    assert set(declared) == {"i"}


@pytest.mark.parametrize("n,g,cs", [(0, 0.5, 0.0), (1, 2.0, 1.0), (3, 6.0, 2.0), (2, 0.0, 0.5)])
def test_selfconsistent_window_keeps_solve_count_and_level(monkeypatch, n, g, cs):
    p = spin_params(g, cs)
    selects = _record_selects(monkeypatch)
    windowed = dirac_selfconsistent(n, p, FAST_GRID)
    window_selects = list(selects)
    selects.clear()

    bounded = oracle._tridiag_lowest

    def index_only(v, spacing, kinetic, lo, hi, enclosure=None):
        return bounded(v, spacing, kinetic, lo, hi)

    monkeypatch.setattr(oracle, "_tridiag_lowest", index_only)
    reference = dirac_selfconsistent(n, p, FAST_GRID)
    assert len(window_selects) == len(selects)
    # every solve after the first on the declared grid is windowed, and
    # so is each check grid's solve (``_tridiag_near``)
    assert window_selects.count("i") == 1
    assert windowed.eigenvalues[0] == pytest.approx(reference.eigenvalues[0], abs=1e-10)
    assert windowed.richardson_error[0] == pytest.approx(reference.richardson_error[0], rel=1e-4)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="below g = 0 the inner wall dominates and the doubled-cutoff re-solve does not bound it (ROADMAP item 4)",
)
def test_selfconsistent_estimate_bounds_error_at_negative_coupling():
    # error 1.65e-3 against an estimate of 8.46e-4 on the default grid
    p = spin_params(-0.1, 0.0)
    rep = dirac_selfconsistent(0, p)
    assert abs(rep.eigenvalues[0] - solve_spin_energy(0, p).value) <= rep.richardson_error[0]


# ------------------------------------------------ FD check-grid windows


def _index_only_near(monkeypatch):
    lowest = oracle._tridiag_lowest

    def index_only(v, spacing, kinetic, guesses, lo=0):
        return lowest(v, spacing, kinetic, lo, lo + len(guesses) - 1)

    monkeypatch.setattr(oracle, "_tridiag_near", index_only)


@pytest.mark.parametrize("g", [-0.1, 0.5, 2.0, 6.0])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6])
def test_check_grid_windows_equal_index_solve(monkeypatch, g, count):
    potential = OscillatorParams(g=g).potential
    guesses = oracle._tridiag_lowest(potential(FAST_GRID.points()), FAST_GRID.spacing, 0.5, 0, count - 1)
    for check in (FAST_GRID.halved_spacing(), FAST_GRID.doubled_cutoff()):
        v = potential(check.points())
        expected = oracle._tridiag_lowest(v, check.spacing, 0.5, 0, count - 1)
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
    check = FAST_GRID.halved_spacing()
    v = potential(check.points())
    # a heavy particle crowds the levels to a spacing of about 6e-4
    kinetic = 5e-8 if case == "crowded" else 0.5
    lams = oracle._tridiag_lowest(v, check.spacing, kinetic, 0, 4)
    guesses = {
        "shifted": lams[1:4],  # one window per eigenvalue, but eigenvalue 0 lies below them all
        "far": lams[:3] + 0.9,  # between levels: every window stays empty up to the coarse limit
        "overlapping": np.array([lams[0], lams[0] + 1e-9, lams[2]]),
        "crowded": np.array([0.5 * (lams[0] + lams[1]), lams[3], lams[4]]),  # the first window that fills holds several
    }[case]
    expected = oracle._tridiag_lowest(v, check.spacing, kinetic, 0, 2)
    selects = _record_selects(monkeypatch)
    got = oracle._tridiag_near(v, check.spacing, kinetic, guesses)
    assert selects[-1] == "i" and selects.count("i") == 1
    if case == "shifted":
        assert selects[:-1] == ["v"] * 4  # three windows, then the count that rejects them
    if case in ("far", "crowded"):
        # 1e-7 widened tenfold to 1e-3: all empty, or the last one rejected at once
        assert selects[:-1] == ["v"] * 5
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("g,count", [(0.5, 1), (2.0, 4), (6.0, 6), (-0.05, 2)])
def test_fd_reports_index_solve_eigenvalues_bit_for_bit(monkeypatch, g, count):
    potential = OscillatorParams(g=g).potential
    selects = _record_selects(monkeypatch)
    windowed = fd_eigenvalues(potential, count, FAST_GRID)
    assert selects.count("i") == 1  # only the declared grid is solved by index
    monkeypatch.undo()
    _index_only_near(monkeypatch)
    reference = fd_eigenvalues(potential, count, FAST_GRID)
    assert windowed.eigenvalues == reference.eigenvalues
    assert windowed.richardson_error == pytest.approx(reference.richardson_error, rel=1e-4)


def test_fd_coarse_grid_message_unchanged(monkeypatch):
    potential = OscillatorParams(g=2.0).potential
    message = "worst error estimate 1.943e-03 exceeds 1e-03"
    with pytest.raises(GridTooCoarse) as windowed:
        fd_eigenvalues(potential, 2, Grid(1e-4, 20.0, 500))
    _index_only_near(monkeypatch)
    with pytest.raises(GridTooCoarse) as reference:
        fd_eigenvalues(potential, 2, Grid(1e-4, 20.0, 500))
    assert str(windowed.value) == str(reference.value) == message


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_check_grid_window_at_level_n_equals_index_solve(monkeypatch, n):
    weight = 3.2
    guess = oracle._tridiag_lowest(_weighted_well(weight), FAST_GRID.spacing, 1.0, n, n)
    for check in (FAST_GRID.halved_spacing(), FAST_GRID.doubled_cutoff()):
        v = _weighted_well(weight, grid=check)
        expected = oracle._tridiag_lowest(v, check.spacing, 1.0, n, n)
        selects = _record_selects(monkeypatch)
        got = oracle._tridiag_near(v, check.spacing, 1.0, guess, lo=n)
        monkeypatch.undo()
        assert set(selects) == {"v"}
        assert got.shape == (1,)
        assert abs(float(got[0] - expected[0])) <= 1e-12


@pytest.mark.parametrize("n", [0, 2])
def test_check_grid_window_at_level_n_rejects_the_next_eigenvalue(monkeypatch, n):
    check = FAST_GRID.halved_spacing()
    v = _weighted_well(3.2, grid=check)
    above = oracle._tridiag_lowest(v, check.spacing, 1.0, n + 1, n + 1)
    expected = oracle._tridiag_lowest(v, check.spacing, 1.0, n, n)
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
    e_h = oracle._tridiag_lowest(potential(FAST_GRID.points()), FAST_GRID.spacing, 0.5, 0, 5)
    expected = oracle._tridiag_lowest(v, cut.spacing, 0.5, 0, 5)
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


# ------------------------------------------- forbidden-tail row cut


def _every_row(monkeypatch):
    monkeypatch.setattr(oracle, "_live_rows", lambda v, kinetic, spacing, top: v.size - 2)


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
    _every_row(monkeypatch)
    assert cut == _outcome(run)


# in the last case one window starts below where LAPACK would start the cut matrix
@pytest.mark.parametrize("n,g,cs", [(0, 0.5, 0.0), (1, 2.0, 1.0), (3, 6.0, 2.0), (2, 0.0, 0.5), (0, 6.0, 2.0)])
def test_row_cut_keeps_selfconsistent_report_bit_for_bit(monkeypatch, n, g, cs):
    p = spin_params(g, cs)
    cut = dirac_selfconsistent(n, p, FAST_GRID)
    _every_row(monkeypatch)
    assert cut == dirac_selfconsistent(n, p, FAST_GRID)


@pytest.mark.parametrize(
    "run",
    [
        lambda: fd_eigenvalues(OscillatorParams(g=2.0).potential, 3),
        lambda: dirac_selfconsistent(1, spin_params(2.0, 1.0)),
    ],
    ids=["fd", "selfconsistent"],
)
def test_row_cut_shortens_every_value_solve_on_default_grid(monkeypatch, run):
    solves = _record_rows(monkeypatch)
    run()
    cut = list(solves)
    solves.clear()
    _every_row(monkeypatch)
    run()
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
    assert oracle._live_rows(v, 0.5, h, float(v[-2])) == x.size - 2
    assert oracle._live_rows(v, 0.5, h, 1e3) == x.size - 2
    assert oracle._live_rows(v, 0.5, h, 10.0) < x.size - 2


def test_window_below_bisection_start_keeps_every_row(monkeypatch):
    v = _weighted_well(3.0)
    h = FAST_GRID.spacing
    lam = oracle._tridiag_lowest(v, h, 1.0, 0, 0)
    window = (float(np.min(v[1:-1])) - 1.0, float(lam[0]) + 0.5)  # starts below every row's Gershgorin bound
    solves = _record_rows(monkeypatch)
    got = oracle._tridiag_lowest(v, h, 1.0, 0, 0, window)
    assert solves == [("v", FAST_GRID.n_points - 2)]
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
