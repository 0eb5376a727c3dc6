"""Relativistic branches: root-solved levels, spinor components, cross-maps."""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isospectra import golden, rel
from isospectra.errors import DegenerateEnergy, DivergenceError, NoRootInRange, UnphysicalRegime
from isospectra.golden import TABLE1_REFERENCE, TABLE2_REFERENCE
from isospectra.nonrel import Branch, OscillatorParams, wavefunction
from isospectra.oracle import quadrature
from isospectra.rel import (
    DiracParams,
    PseudospinDerived,
    SpinDerived,
    Symmetry,
    energy_residual,
    klein_gordon_energy,
    klein_gordon_residual,
    nonrel_limit_check,
    pseudospin_derived,
    pseudospin_energy_residual,
    pseudospin_lower_spinor,
    pseudospin_map_check,
    solve_pseudospin_energy,
    solve_spin_energy,
    spin_derived,
    spin_energy_residual,
    spin_lower_spinor,
    spin_upper_spinor,
)
from isospectra.specfun import laguerre
from isospectra.validate import nu_klein_gordon_level


def spin_params(g, cs):
    return DiracParams(g=g, sym_constant=cs, branch=Symmetry.SPIN)


def pseudo_params(g, cps):
    return DiracParams(g=g, sym_constant=cps, branch=Symmetry.PSEUDOSPIN)


_SOLVERS = {Symmetry.SPIN: solve_spin_energy, Symmetry.PSEUDOSPIN: solve_pseudospin_energy}


def _outcome(call):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome compared
        return type(exc), str(exc)


def _residual_calls(monkeypatch, call):
    """(_outcome(call), the arguments of every energy_residual call it made)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return energy_residual(*args)

    monkeypatch.setattr(rel, "energy_residual", counted)
    outcome = _outcome(call)
    monkeypatch.undo()
    return outcome, calls


def test_params_fill_kappa_by_branch():
    assert spin_params(2.0, 0.0).kappa == -1
    assert pseudo_params(2.0, 0.0).kappa == 1
    assert DiracParams(branch=Symmetry.SPIN, kappa=-1).kappa == -1
    with pytest.raises(ValueError):
        DiracParams(branch=Symmetry.SPIN, kappa=1)
    with pytest.raises(ValueError):
        DiracParams(branch=Symmetry.PSEUDOSPIN, kappa=-1)


def test_params_validate():
    with pytest.raises(ValueError):
        DiracParams(c=0.0)
    with pytest.raises(ValueError):
        DiracParams(sym_constant=math.nan)
    with pytest.raises(ValueError):
        DiracParams(branch="spin")


def test_rest_energy_and_potential():
    p = DiracParams(mass=2.0, c=3.0)
    assert p.rest_energy == 18.0
    assert p.potential(1.0) == pytest.approx(0.5 * 2.0 + 1.0, abs=1e-14)


def test_potential_without_barrier_is_finite_where_x_squared_underflows():
    assert DiracParams(g=0.0).potential(1e-170) == 0.0
    assert DiracParams(g=0.0, omega=2.0).potential(np.array([0.0, 1e-170, 1.0])).tolist() == [0.0, 0.0, 2.0]


@pytest.mark.parametrize(
    "params, scale",
    [({"hbar": 1e300}, r"\(hbar c\)\^2"), ({"c": 1e200}, r"c\^2"), ({"mass": 1e300, "c": 1e10}, r"M c\^2"),
     ({"mass": 1e300, "omega": 1e300}, r"hbar c omega sqrt\(2 M\)")],
    ids=["hbar-c", "c", "rest-energy", "level-scale"],
)
def test_scale_beyond_the_float_range_is_named(params, scale):
    with pytest.raises(DivergenceError, match=f"the scale {scale}.* leaves the float range"):
        solve_spin_energy(0, DiracParams(**params))


@pytest.mark.parametrize(
    "params, scale",
    [({"hbar": 1e-170}, "1e-170"), ({"c": 1e-300}, "1e-300"), ({"hbar": 1e-200, "c": 1e-10}, "1e-210")],
    ids=["hbar", "c", "product"],
)
def test_hbar_c_squared_that_underflows_to_zero_is_named(params, scale):
    message = rf"^the scale \(hbar c\)\^2 = \({scale}\)\^2 underflows to 0$"
    for solve, branch in ((solve_spin_energy, Symmetry.SPIN), (solve_pseudospin_energy, Symmetry.PSEUDOSPIN)):
        with pytest.raises(DivergenceError, match=message):
            solve(0, DiracParams(branch=branch, **params))


@pytest.mark.parametrize("g", [2.0, 0.0, -1e-300])
def test_pseudospin_window_edge_beyond_the_float_range_is_named(g):
    # M c^2 + sym_constant = 5e307 + 1.5e308 is inf: a scan from there would blame the coupling
    # scale (g = 2), find no sign change in (inf, inf] (g = 0) or call the regime unphysical (g < 0)
    p = DiracParams(mass=5e307, sym_constant=1.5e308, g=g, branch=Symmetry.PSEUDOSPIN)
    for solve in (rel.solve_levels, solve_pseudospin_energy):
        with pytest.raises(DivergenceError, match=r"^the scale M c\^2 \+ sym_constant leaves the float range$"):
            solve(0, p)


def test_solved_levels_frozen():
    assert solve_spin_energy(10, spin_params(6.0, 2.0)).value == pytest.approx(12.29516582288588, abs=1e-12)
    assert solve_spin_energy(3, spin_params(2.0, 0.0)).value == pytest.approx(6.142812911615233, abs=1e-12)
    assert solve_spin_energy(0, spin_params(2.0, 2.0)).value == pytest.approx(3.3991120086964575, abs=1e-12)
    assert solve_pseudospin_energy(0, pseudo_params(0.5, 0.0)).value == pytest.approx(1.7353829203866664, abs=1e-12)
    assert solve_pseudospin_energy(10, pseudo_params(6.0, -2.0)).value == pytest.approx(10.29516582288588, abs=1e-12)
    assert solve_pseudospin_energy(5, pseudo_params(6.0, -13.0)).value == pytest.approx(5.2057558426786175, abs=1e-12)


def test_solved_level_record():
    lvl = solve_spin_energy(2, spin_params(2.0, 0.0))
    assert lvl.branch is Branch.DIRAC_SPIN
    assert lvl.residual <= 1e-9
    assert abs(spin_energy_residual(lvl.value, 2, spin_params(2.0, 0.0))) == lvl.residual


def test_solver_rejects_wrong_branch():
    with pytest.raises(ValueError):
        solve_spin_energy(0, pseudo_params(2.0, 0.0))
    with pytest.raises(ValueError):
        solve_pseudospin_energy(0, spin_params(2.0, 0.0))


def test_levels_far_above_the_rest_energy_match_the_nu_route():
    """The scan has no cap at 1e3 M c^2: these levels lie at 1e3 to 1e6 M c^2."""
    for params in ({"g": 1e12}, {"g": 1e6}, {"omega": 1e4}):
        p = DiracParams(branch=Symmetry.SPIN, **params)
        for n in (0, 3):
            assert solve_spin_energy(n, p).value == pytest.approx(nu_klein_gordon_level(n, p), rel=1e-12)


@pytest.mark.parametrize(
    "params",
    [
        # 2 g w / (hbar c)^2 overflows long before the level near E = 1e150, so the residual never turns positive
        {"g": 1e300},
        # (hbar c)^2 = 1e-320 is subnormal, so the coupling overflows at the scan's first point
        {"hbar": 1e-160},
    ],
    ids=["huge-g", "subnormal-hbar-c-squared"],
)
def test_scan_whose_coupling_overflows_names_the_scale(params, monkeypatch):
    message = r"the scale 2 g w / \(hbar c\)\^2 leaves the float range at E = .*, before level 0 changes sign"
    for branch, solve in _SOLVERS.items():
        p = DiracParams(branch=branch, **params)
        for call in (lambda: solve(0, p), lambda: rel.solve_levels(5, p)):
            (error, text), calls = _residual_calls(monkeypatch, call)
            assert error is DivergenceError and re.fullmatch(message, text)
            # the scan stops at the first point where the residual is -inf, some 15,000 points
            # before E leaves the float range
            assert energy_residual(*calls[-1]) == -math.inf
            assert all(energy_residual(*args) > -math.inf for args in calls[:-1])
            assert len(calls) < 1000


def test_level_whose_residual_overflows_across_its_bracket_is_named(decimal_level, monkeypatch):
    """A bracket across which the residual overflows ends in a level, or in an error naming both sides.

    C = -1e300 puts the window edge at E = -1e300, and level 0's bracket
    runs from E = -4e298 to 8e297, across which (E + M c^2) sqrt(w) goes
    from -inf to +inf. Bisected to adjacent floats, level 0 is sqrt(2) - 1,
    within 2 ulps of the decimal root: near it w = E - M c^2 - C rounds to
    1e300, and the residual is formed from terms of 1e150, whose rounding
    is that noise. Only a condition whose two sides both leave
    the float range is named: at omega = 1e308 and g < 0 the ladder term
    is inf until w nears -(hbar c)^2 / (2 g) and finite after, while
    (E - M c^2) sqrt(w) has overflowed before it comes back.
    """
    p = pseudo_params(2.0, -1e300)
    level = solve_pseudospin_energy(0, p)
    assert rel.solve_levels(3, p)[0] == level
    expected = decimal_level(0, p, -1.0, -1e300, 1.0)
    assert abs(level.value - expected) <= 2.0 * math.ulp(expected)
    assert level.value == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)

    p = DiracParams(omega=1e308, g=-1.1e-206)
    message = (r"level 0 has residual inf at E = .*, bisected in \(.*, .*\]: both sides of its condition, "
               r"\(E - M c\^2\) sqrt\(w\) and the ladder term hbar c omega sqrt\(2 M\) \(2n \+ 1 \+ order\), "
               r"leave the float range across the bracket")
    for call in (lambda: solve_spin_energy(0, p), lambda: klein_gordon_energy(0, p), lambda: rel.solve_levels(3, p)):
        (error, text), calls = _residual_calls(monkeypatch, call)
        assert error is DivergenceError and re.fullmatch(message, text), text
        assert not abs(energy_residual(*calls[-1])) < math.inf


@pytest.mark.parametrize(
    "n, g, term",
    [
        # hbar c omega sqrt(2 M) = 1.4e308 is finite, (2n + 1 + order) times it is not; for g >= 0 it only grows
        (0, 0.0, r"1 \+ 0\.5"),
        (0, 2.0, r"1 \+ 1\.50*\d*"),
        # (2n + 1) times the scale alone overflows: the term stays inf whatever g does to the order
        (1, -0.1, r"3 \+ 0\.\d+"),
    ],
    ids=["g0", "g2", "g-negative-n1"],
)
def test_scan_whose_ladder_term_overflows_names_the_scale(n, g, term, monkeypatch):
    p = DiracParams(omega=1e308, g=g)
    message = (r"the ladder term hbar c omega sqrt\(2 M\) \(2n \+ 1 \+ order\) = 1\.4142135623730951e\+308 \* "
               rf"\({term}\) leaves the float range at E = 1\.000000001, before level {n} changes sign")
    solves = [lambda: solve_spin_energy(n, p), lambda: klein_gordon_energy(n, p)]
    if n == 0:
        solves.append(lambda: rel.solve_levels(2, p))  # a ladder raises at its lowest level, as that level alone does
    for solve in solves:
        (error, text), calls = _residual_calls(monkeypatch, solve)
        assert error is DivergenceError and re.fullmatch(message, text), text
        assert len(calls) <= 3  # not the ~15,000 points of a scan to the end of the float range


@pytest.mark.parametrize("solve", [solve_spin_energy, klein_gordon_energy], ids=["spin", "klein-gordon"])
def test_level_whose_binding_rounds_to_zero_sits_on_the_window_edge(solve):
    # M c^2 = 1e300 has a float spacing of 1.5e284, far above the binding (about 1e150): the bisection
    # closes on E = M c^2 itself, where the residual is -hbar c omega sqrt(2M) (1 + order) = -2e300
    message = (r"level 0 sits on the window edge E = 1e\+300: the binding gap is below the float resolution "
               r"1\.487016908477783e\+284 of E at M c\^2 = 1e\+300")
    with pytest.raises(NoRootInRange, match=f"^{message}$"):
        solve(0, DiracParams(mass=1e300))


@pytest.mark.parametrize(
    "params, error, message",
    [
        # hbar c omega sqrt(2 M) = 1.4e308 and (2n + 1) times it are finite, (2n + 1 + order) times it is not;
        # at g < 0 the order can shrink back, so the scan goes on until 1 + 2 g |energy_weight| turns negative
        ({"omega": 1e308, "g": -1e-300}, UnphysicalRegime, r"1 \+ 2 g \|energy_weight\| = .* < 0"),
    ],
    ids=["negative-coupling"],
)
def test_residual_that_is_minus_inf_below_a_finite_coupling_does_not_stop_the_scan(params, error, message):
    p = DiracParams(**params)
    assert spin_energy_residual(1.5, 0, p) == -math.inf
    with pytest.raises(error, match=message):
        solve_spin_energy(0, p)


@pytest.mark.parametrize(
    "solve, params",
    [
        # two decades requests of the CLI benchmark: the level lies one or two ulps above M c^2 ~ 2.4e6
        (solve_pseudospin_energy, {"mass": 0.05864278126393717, "omega": 0.04290499066231338,
                                   "c": 6405.940596764526, "g": 83866.52633884647}),
        (solve_pseudospin_energy, {"mass": 0.05266314337292571, "omega": 0.04326613896866815,
                                   "c": 7243.793894198538, "g": 117300.62850529575}),
        (solve_spin_energy, {"mass": 1e-300}),
    ],
)
def test_level_closer_to_the_window_edge_than_the_first_step_is_bisected(solve, params, decimal_level, monkeypatch):
    """The residual is positive at the scan's first point, so the level lies between the edge and it."""
    branch = Symmetry.SPIN if solve is solve_spin_energy else Symmetry.PSEUDOSPIN
    p = DiracParams(branch=branch, **params)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return energy_residual(*args)

    monkeypatch.setattr(rel, "energy_residual", counted)
    e_value = solve(0, p).value
    monkeypatch.undo()
    # one scan point, then a bisection of the first step (1e-9) down to the float spacing of E: 355 calls
    # at mass=1e-300, where the level is near 1.7e-100, and 2 where the first step is an ulp or two
    assert 0 < len(calls) <= math.ceil(math.log2(1e-9 / math.ulp(e_value))) + 2
    sign = 1.0 if branch is Symmetry.SPIN else -1.0
    assert e_value == decimal_level(0, p, sign, 0.0, p.rest_energy + 1e-9)
    below, above = math.nextafter(e_value, -math.inf), math.nextafter(e_value, math.inf)
    assert energy_residual(below, 0, p, sign, 0.0) <= 0.0 <= energy_residual(above, 0, p, sign, 0.0)


@pytest.mark.parametrize("params", [{"c": 1e4}, {"mass": 1e8}])
def test_level_below_float_resolution_raises_no_root(params, decimal_level):
    """At M c^2 = 1e8 the pseudospin gaps (about 1e-8) are a few float spacings of E.

    Levels 0 and 1 are 1 and 4 ulps above the window edge E = M c^2: each
    is the float nearest its decimal root, and no NoRootInRange is raised.
    """
    p = DiracParams(branch=Symmetry.PSEUDOSPIN, **params)
    levels = rel.solve_levels(1, p)
    assert levels == [solve_pseudospin_energy(n, p) for n in range(2)]
    assert [level.value for level in levels] == [decimal_level(n, p, -1.0, 0.0, 1e8 + 1.0) for n in range(2)]
    assert [level.value for level in levels] == [1e8 + math.ulp(1e8), 1e8 + 4.0 * math.ulp(1e8)]


def test_ladder_level_whose_bracket_opens_on_the_level_below_calls_its_own_residual_there(decimal_level):
    """Levels 4 and 5 change sign between the same two adjacent floats, M c^2 + 1 ulp and + 2 ulps.

    Level 4 takes the lower end. Level 5's bracket opens where the scan
    called only level 4's residual (-17.3), and that would take the lower
    end too; its own residual there (-79.4) is called, and it takes the
    upper end (35.6), as its own solve does and the decimal root says.
    """
    p = DiracParams(mass=262.6683597389267, omega=0.010290859136117379, c=131.57186717382575,
                    g=934925.3794215241, branch=Symmetry.PSEUDOSPIN)
    ulp = math.ulp(p.rest_energy)
    levels = rel.solve_levels(5, p)
    assert levels == [solve_pseudospin_energy(n, p) for n in range(6)]
    assert [levels[4].value, levels[5].value] == [p.rest_energy + ulp, p.rest_energy + 2.0 * ulp]
    for n in (4, 5):
        assert levels[n].value == decimal_level(n, p, -1.0, 0.0, p.rest_energy + 1.0)
    assert abs(pseudospin_energy_residual(levels[4].value, 4, p)) < levels[5].residual


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the scan hands the window edge to the bisection as a sign only, so a level nearest the edge "
    "comes back one float spacing above it (ROADMAP item 3)",
)
def test_levels_nearest_the_window_edge_raise_and_the_rest_are_the_decimal_roots(decimal_level):
    """The decimal roots of levels 0-2 round to M c^2 itself, those of levels 3-5 to + 1, 1 and 2 ulps."""
    p = DiracParams(mass=262.6683597389267, omega=0.010290859136117379, c=131.57186717382575,
                    g=934925.3794215241, branch=Symmetry.PSEUDOSPIN)
    outcomes = [_outcome(lambda: solve_pseudospin_energy(n, p).value) for n in range(6)]
    for n, outcome in enumerate(outcomes[:3]):
        assert isinstance(outcome, tuple) and outcome[0] is NoRootInRange, (n, outcome)
        assert outcome[1].startswith(f"level {n} sits on the window edge"), outcome
    assert outcomes[3:] == [decimal_level(n, p, -1.0, 0.0, p.rest_energy + 1.0) for n in range(3, 6)]


def test_negative_coupling_beyond_ladder_is_unphysical():
    message = r"1 \+ 2 g \|energy_weight\| = .* < 0: no bound ladder at this energy"
    with pytest.raises(UnphysicalRegime, match=message):
        solve_spin_energy(0, DiracParams(g=-0.2))
    p = spin_params(-1.0, 0.0)
    for res in (spin_energy_residual, klein_gordon_residual):
        with pytest.raises(UnphysicalRegime, match=message):
            res(3.0, 0, p)
    with pytest.raises(UnphysicalRegime, match=message):
        pseudospin_energy_residual(3.0, 0, pseudo_params(-1.0, 0.0))


def test_residual_small_at_tabulated_energies():
    """The seven-decimal reference energies must nearly zero the residuals."""
    cases = [
        (4, TABLE1_REFERENCE[4][1], spin_params(2.0, 0.0), spin_energy_residual),
        (9, TABLE1_REFERENCE[9][4], spin_params(6.0, 2.0), spin_energy_residual),
        (2, TABLE2_REFERENCE[2][2], pseudo_params(6.0, 0.0), pseudospin_energy_residual),
        (7, TABLE2_REFERENCE[7][7], pseudo_params(6.0, -13.0), pseudospin_energy_residual),
    ]
    for n, e_ref, p, res in cases:
        assert abs(res(e_ref, n, p)) <= 1e-6


def test_residual_monotone_in_energy():
    p = spin_params(2.0, 0.0)
    es = np.linspace(1.5, 20.0, 50)
    vals = [spin_energy_residual(float(e), 0, p) for e in es]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_residual_rejects_energy_outside_window():
    with pytest.raises(ValueError):
        spin_energy_residual(-1.5, 0, spin_params(2.0, 0.0))
    with pytest.raises(ValueError):
        pseudospin_energy_residual(0.9, 0, pseudo_params(2.0, 0.0))


def test_derived_guards():
    with pytest.raises(ValueError):
        spin_derived(spin_params(2.0, 5.0), 3.0)
    with pytest.raises(UnphysicalRegime):
        spin_derived(spin_params(-1.0, 0.0), 1.5)
    with pytest.raises(ValueError):
        pseudospin_derived(pseudo_params(2.0, 0.0), 0.9)
    with pytest.raises(UnphysicalRegime):
        pseudospin_derived(pseudo_params(-1.0, -10.0), 3.0)


def test_derived_signs():
    p = spin_params(2.0, 0.0)
    e = solve_spin_energy(0, p).value
    d = spin_derived(p, e)
    assert d.energy_weight > 0.0
    assert d.constant_term < 0.0  # bound state
    assert d.falloff > 0.0
    assert d.ladder_order > 0.5
    dp = pseudospin_derived(pseudo_params(2.0, 0.0), solve_pseudospin_energy(0, pseudo_params(2.0, 0.0)).value)
    assert dp.energy_weight < 0.0
    assert dp.falloff > 0.0


def test_spin_upper_spinor_normalized():
    p = spin_params(6.0, 2.0)
    e = solve_spin_energy(1, p).value
    val = quadrature(lambda x: spin_upper_spinor(1, p, e, x) ** 2 if x > 0 else 0.0, 0.0, math.inf, tol=1e-11)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_pseudospin_lower_spinor_normalized():
    for g, cps, n in [(2.0, 0.0, 3), (6.0, -13.0, 2)]:
        p = pseudo_params(g, cps)
        e = solve_pseudospin_energy(n, p).value
        val = quadrature(
            lambda x: pseudospin_lower_spinor(n, p, e, x) ** 2 if x > 0 else 0.0, 0.0, math.inf, tol=1e-11
        )
        assert val == pytest.approx(1.0, abs=1e-9)


def test_spinors_reject_nonpositive_x():
    p = spin_params(2.0, 0.0)
    e = solve_spin_energy(0, p).value
    for fn in (spin_upper_spinor, spin_lower_spinor):
        with pytest.raises(ValueError):
            fn(0, p, e, 0.0)
        with pytest.raises(ValueError):
            fn(0, p, e, np.array([1.0, -2.0]))


def _first_order_coupling_defect(p):
    """Largest gap between spin_lower_spinor and hbar c (F' + kappa F / x) / (M c^2 + E - C) at level 1."""
    e = solve_spin_energy(1, p).value
    denom = p.rest_energy + e - p.sym_constant
    h = 2e-3
    worst = 0.0
    for x in np.linspace(0.3, 3.0, 28):
        def f(t):
            return spin_upper_spinor(1, p, e, t)

        d1 = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        expect = (d1 + p.kappa * f(x) / x) * p.hbar * p.c / denom
        worst = max(worst, abs(spin_lower_spinor(1, p, e, x) - expect))
    return worst


def test_lower_spinor_solves_first_order_coupling():
    """lower = hbar c (F' + kappa F / x) / (M c^2 + E - sym_constant)."""
    assert _first_order_coupling_defect(spin_params(2.0, 2.0)) <= 1e-8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="spin_lower_spinor lacks the factor hbar c of the first-order coupling (ROADMAP item 9)",
)
@pytest.mark.parametrize("params", [{"c": 3.0}, {"hbar": 1.7}], ids=["c3", "hbar1.7"])
def test_lower_spinor_solves_first_order_coupling_beyond_unit_hbar_c(params):
    # the closed form is hbar c times too small: off by a factor 3.000 at c = 3 and 1.700 at hbar = 1.7
    assert _first_order_coupling_defect(DiracParams(g=2.0, sym_constant=2.0, **params)) <= 1e-8


def test_lower_spinor_pole_detected():
    p = spin_params(2.0, 2.0)
    with pytest.raises(DegenerateEnergy):
        spin_lower_spinor(0, p, p.sym_constant - p.rest_energy, 1.0)


def test_spinor_scalar_matches_array():
    p = spin_params(6.0, 2.0)
    e = solve_spin_energy(1, p).value
    xs = np.linspace(0.1, 4.0, 23)
    for fn in (spin_upper_spinor, spin_lower_spinor):
        arr = fn(1, p, e, xs)
        one_by_one = np.array([fn(1, p, e, float(x)) for x in xs])
        assert np.max(np.abs(arr - one_by_one)) <= 1e-14
    pp = pseudo_params(6.0, -13.0)
    ep = solve_pseudospin_energy(2, pp).value
    arr = pseudospin_lower_spinor(2, pp, ep, xs)
    one_by_one = np.array([pseudospin_lower_spinor(2, pp, ep, float(x)) for x in xs])
    assert np.max(np.abs(arr - one_by_one)) <= 1e-14


def test_klein_gordon_frozen_levels():
    p = DiracParams(g=2.0, sym_constant=0.0, branch=Symmetry.SPIN)
    assert klein_gordon_energy(0, p).value == pytest.approx(3.1503635670606664, abs=1e-12)
    assert klein_gordon_energy(0, p).branch is Branch.KLEIN_GORDON
    p6 = DiracParams(g=6.0, sym_constant=0.0, branch=Symmetry.SPIN)
    assert klein_gordon_energy(2, p6).value == pytest.approx(6.114762926055625, abs=1e-12)


def test_klein_gordon_requires_zero_offset():
    with pytest.raises(ValueError):
        klein_gordon_energy(0, spin_params(2.0, 1.0))


def test_klein_gordon_residual_equals_offsetless_spin_residual():
    p = spin_params(2.0, 0.0)
    for e in (1.7, 3.0, 8.5):
        for n in (0, 2):
            assert klein_gordon_residual(e, n, p) == spin_energy_residual(e, n, p)


def test_spin_pseudospin_offset_duality():
    """Shifting the symmetry constant by -4 M c^2 swaps the branches.

    The two residual equations coincide under E -> E - 2 M c^2, so the
    levels differ by exactly twice the rest energy.
    """
    for g in (2.0, 6.0):
        ps = spin_params(g, 2.0)
        pp = pseudo_params(g, 2.0 - 4.0 * ps.rest_energy)
        for n in (0, 4, 9):
            diff = solve_spin_energy(n, ps).value - solve_pseudospin_energy(n, pp).value
            assert diff == pytest.approx(2.0 * ps.rest_energy, abs=1e-12)


@pytest.mark.parametrize("g,cps,n", [(2.0, 0.0, 0), (6.0, -2.0, 3), (0.5, 0.0, 1)])
def test_pseudospin_reduction_map(g, cps, n):
    assert pseudospin_map_check(n, pseudo_params(g, cps)) <= 1e-10


@pytest.mark.parametrize("c", [1e2, 1e3])
def test_map_check_holds_where_the_binding_is_resolved(c):
    assert pseudospin_map_check(0, DiracParams(c=c, branch=Symmetry.PSEUDOSPIN)) <= 1e-10


def test_map_check_names_an_energy_on_the_window_edge():
    # the level is M c^2 + C + 1 ulp, so the grid's first energies round onto the edge
    with pytest.raises(
        NoRootInRange,
        match=r"^the map check's energy E = 100000000\.0 sits on the window edge M c\^2 \+ sym_constant = 100000000\.0: "
        r"the binding gap is below the float resolution 1\.49\d*e-08 of E$",
    ):
        pseudospin_map_check(0, DiracParams(c=1e4, branch=Symmetry.PSEUDOSPIN))


def test_map_check_rejects_spin_branch():
    with pytest.raises(ValueError):
        pseudospin_map_check(0, spin_params(2.0, 0.0))


def test_nonrelativistic_limit():
    p = spin_params(2.0, 0.0)
    devs = nonrel_limit_check(1, p, [10.0, 100.0, 1000.0])
    assert devs[0] > devs[1] > devs[2] > 0.0
    slope = (math.log(devs[2]) - math.log(devs[0])) / (math.log(1000.0) - math.log(10.0))
    assert slope == pytest.approx(-2.0, abs=0.2)


def test_limit_check_rejects_bad_input():
    p = spin_params(2.0, 0.0)
    with pytest.raises(ValueError):
        nonrel_limit_check(0, p, [10.0])
    with pytest.raises(ValueError):
        nonrel_limit_check(0, p, [10.0, 5.0])
    with pytest.raises(ValueError):
        nonrel_limit_check(0, pseudo_params(2.0, 0.0), [10.0, 100.0])
    with pytest.raises(ValueError):
        nonrel_limit_check(0, spin_params(2.0, 1.0), [10.0, 100.0])


def test_upper_spinor_approaches_nonrel_state_at_large_c():
    p = replace(spin_params(2.0, 0.0), c=1000.0)
    e = solve_spin_energy(0, p).value
    xs = np.linspace(0.2, 3.0, 40)
    f = spin_upper_spinor(0, p, e, xs)
    psi = wavefunction(0, OscillatorParams(g=2.0), xs)
    assert np.max(np.abs(f - psi)) <= 1e-4


# ------------------------------------------- constants kept on the params

def _written_out_residuals(p, e, n):
    """The three quantization residuals, spelled out from the fields alone."""
    mc2 = p.mass * p.c**2
    hc2 = (p.hbar * p.c) ** 2
    scale = p.hbar * p.c * p.omega * math.sqrt(2.0 * p.mass)
    w = mc2 + e - p.sym_constant
    spin = (e - mc2) * math.sqrt(w) - scale * (2.0 * n + 1.0 + 0.5 * math.sqrt(1.0 + 2.0 * p.g * w / hc2))
    u = e - mc2 - p.sym_constant
    pseudo = (e + mc2) * math.sqrt(u) - scale * (2.0 * n + 1.0 + 0.5 * math.sqrt(1.0 + 2.0 * p.g * u / hc2))
    w = mc2 + e
    kg = (e - mc2) * math.sqrt(w) - scale * (2.0 * n + 1.0 + 0.5 * math.sqrt(1.0 + 2.0 * p.g * w / hc2))
    return spin, pseudo, kg


@pytest.mark.parametrize("c", [1.0, 2.9, 137.0])
def test_residuals_equal_their_written_out_form(c):
    spin_p = DiracParams(mass=1.7, omega=0.9, g=3.1, sym_constant=-0.4, hbar=1.3, c=c)
    pseudo_p = replace(spin_p, branch=Symmetry.PSEUDOSPIN, kappa=None)
    kg_p = replace(spin_p, sym_constant=0.0)
    for e in spin_p.rest_energy * np.array([1.01, 1.3, 2.0, 7.5]):
        e = float(e)
        for n in (0, 2, 9):
            assert spin_energy_residual(e, n, spin_p) == _written_out_residuals(spin_p, e, n)[0]
            assert pseudospin_energy_residual(e, n, pseudo_p) == _written_out_residuals(pseudo_p, e, n)[1]
            assert klein_gordon_residual(e, n, kg_p) == _written_out_residuals(kg_p, e, n)[2]


def _written_out_derived(p, e, branch):
    """The five derived combinations of one branch, spelled out from the fields alone."""
    mc2 = p.mass * p.c**2
    hc2 = (p.hbar * p.c) ** 2
    if branch is Symmetry.SPIN:
        weight = (mc2 + e - p.sym_constant) / hc2
        magnitude, constant = weight, weight * (mc2 - e)
    else:
        weight = -(e - mc2 - p.sym_constant) / hc2
        magnitude, constant = -weight, weight * (mc2 + e)
    return (
        weight,
        constant,
        0.5 * p.g * weight,
        math.sqrt(0.5 * p.mass * p.omega**2 * magnitude),
        0.5 * math.sqrt(1.0 + 2.0 * p.g * magnitude),
    )


@pytest.mark.parametrize("c", [1.0, 2.9, 137.0])
def test_derived_equal_their_written_out_form(c):
    spin_p = DiracParams(mass=1.7, omega=0.9, g=3.1, sym_constant=-0.4, hbar=1.3, c=c)
    pseudo_p = replace(spin_p, branch=Symmetry.PSEUDOSPIN, kappa=None)
    for e in spin_p.rest_energy * np.array([1.01, 1.3, 2.0, 7.5]):
        e = float(e)
        for p, derived in ((spin_p, spin_derived), (pseudo_p, pseudospin_derived)):
            d = derived(p, e)
            assert type(d) is (SpinDerived if p.branch is Symmetry.SPIN else PseudospinDerived)
            fields = (d.energy_weight, d.constant_term, d.singular_coeff, d.falloff, d.ladder_order)
            assert fields == _written_out_derived(p, e, p.branch)


def test_replaced_dirac_params_get_fresh_constants():
    p = spin_params(6.0, 2.0)
    solve_spin_energy(1, p)
    assert p.rest_energy == 1.0
    q = replace(p, c=3.0, mass=2.0)
    assert q.rest_energy == 18.0
    e = 1.2 * q.rest_energy
    assert spin_energy_residual(e, 1, q) == _written_out_residuals(q, e, 1)[0]
    fresh = DiracParams(g=6.0, sym_constant=2.0, c=3.0, mass=2.0)
    assert solve_spin_energy(1, q).value == solve_spin_energy(1, fresh).value


def test_equal_dirac_params_give_identical_results():
    p, q = spin_params(6.0, 2.0), spin_params(6.0, 2.0)
    before = repr(p)
    e = solve_spin_energy(2, p).value
    assert solve_spin_energy(2, q).value == e
    xs = np.linspace(0.1, 4.0, 13)
    for fn in (spin_upper_spinor, spin_lower_spinor):
        assert fn(2, p, e, xs).tobytes() == fn(2, q, e, xs).tobytes()
        assert fn(2, p, e, 1.3).hex() == fn(2, q, e, 1.3).hex()
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) == before
    assert "rest_energy" not in before and p != replace(p, c=2.0)


# ------------------------------------------------------- spinor state memo


def _written_out_spinor(kind, n, p, e, x):
    """The spinor from spin_derived/pseudospin_derived and the normalization, rebuilt on every call."""
    d = (pseudospin_derived if kind == "pseudo" else spin_derived)(p, e)
    nu, zeta = d.falloff, d.ladder_order
    ln_norm = 0.5 * (math.log(2.0) + (1.0 + zeta) * math.log(nu) + math.lgamma(n + 1.0) - math.lgamma(n + zeta + 1.0))
    if isinstance(x, float):
        xp, s = math, nu * x * x
    else:
        xp, s = np, nu * x**2
    state = xp.exp(ln_norm + (0.5 + zeta) * xp.log(x) - 0.5 * s) * laguerre(n, zeta, s)
    if kind != "lower":
        return state
    # d/dz L_n^(zeta) = -L_(n-1)^(zeta+1), and N_n^(zeta) / N_(n-1)^(zeta+1) = sqrt(n / nu)
    lower = (zeta - 0.5) * (state / x) - nu * (x * state)
    if n:
        ln_below = ln_norm - 0.5 * math.log(n / nu)
        below = xp.exp(ln_below + (0.5 + (zeta + 1.0)) * xp.log(x) - 0.5 * s) * laguerre(n - 1, zeta + 1.0, s)
        lower -= 2.0 * math.sqrt(n * nu) * below
    return lower / (p.rest_energy + e - p.sym_constant)


_SPINORS = {"upper": spin_upper_spinor, "lower": spin_lower_spinor, "pseudo": pseudospin_lower_spinor}


def _bits(v):
    return v.hex() if isinstance(v, float) else np.asarray(v).tobytes()


def test_spinor_memo_is_invisible():
    p = DiracParams(mass=1.3, omega=0.8, g=2.7, sym_constant=0.6, hbar=1.1, c=1.9)
    q = pseudo_params(1.4, -0.8)
    twin = DiracParams(mass=1.3, omega=0.8, g=2.7, sym_constant=0.6, hbar=1.1, c=1.9)
    before = (repr(p), hash(p))
    e2, e1 = solve_spin_energy(2, p).value, solve_spin_energy(1, p).value
    eq = solve_pseudospin_energy(2, q).value
    xs = np.linspace(0.05, 5.0, 9)
    # interleave levels, energies, components and branches (one params object serves both
    # equations at one (n, E)) so every call changes or keeps the state
    calls = [("upper", 2, p, e2), ("lower", 2, p, e2), ("upper", 1, p, e1), ("upper", 2, p, e1),
             ("lower", 1, p, e1), ("upper", 2, p, e2), ("pseudo", 2, p, e2), ("upper", 2, p, e2),
             ("pseudo", 2, q, eq), ("pseudo", 0, q, eq)]
    for kind, n, params, e in calls + calls[::-1]:
        for x in (0.7, 2.3, xs):
            got = _SPINORS[kind](n, params, e, x)
            assert _bits(got) == _bits(_written_out_spinor(kind, n, params, e, x))
            if params is p:
                assert _bits(got) == _bits(_SPINORS[kind](n, twin, e, x))
    assert len(p._spinor_memo) == 1
    assert (repr(p), hash(p)) == before and p == twin
    assert "_spinor_memo" not in repr(p)
    # replace builds from the fields alone: a new coupling at the same (n, E) is not served stale
    r = replace(p, g=3.5)
    assert r != p
    assert _bits(spin_upper_spinor(2, r, e2, xs)) == _bits(_written_out_spinor("upper", 2, r, e2, xs))
    assert _bits(spin_upper_spinor(2, r, e2, xs)) != _bits(spin_upper_spinor(2, p, e2, xs))
    assert replace(p) == p and hash(replace(p)) == hash(p)


def test_spinor_memo_keeps_no_failed_state():
    p = spin_params(2.0, 0.0)
    e = solve_spin_energy(1, p).value
    good = spin_upper_spinor(1, p, e, 1.1)
    for _ in range(2):  # outside the window E + M c^2 - C > 0 each call raises again
        with pytest.raises(ValueError):
            spin_upper_spinor(1, p, -5.0, 1.1)
    assert spin_upper_spinor(1, p, e, 1.1).hex() == good.hex()
    with pytest.raises(ValueError):
        spin_upper_spinor(-1, p, e, 1.1)
    assert spin_lower_spinor(1, p, e, 1.1).hex() == _written_out_spinor("lower", 1, p, e, 1.1).hex()


_SPINOR_BRANCHES = [(spin_upper_spinor, Symmetry.SPIN), (spin_lower_spinor, Symmetry.SPIN), (pseudospin_lower_spinor, Symmetry.PSEUDOSPIN)]


def _level(n, symmetry):
    p = DiracParams(g=2.0, branch=symmetry)
    solve = solve_spin_energy if symmetry is Symmetry.SPIN else solve_pseudospin_energy
    return p, solve(n, p).value


@pytest.mark.parametrize("spinor,symmetry", _SPINOR_BRANCHES)
@pytest.mark.parametrize("x", [math.nan, math.inf, np.array([1.0, math.inf]), np.array([math.nan])])
def test_spinors_reject_non_finite_x(spinor, symmetry, x):
    p, e = _level(1, symmetry)
    with pytest.raises(ValueError, match="^spinor components are defined on finite x > 0$"):
        spinor(1, p, e, x)


@pytest.mark.parametrize("spinor,symmetry", _SPINOR_BRANCHES)
def test_spinor_is_finite_where_the_laguerre_recurrence_overflows(spinor, symmetry):
    # L_2000 overflows from about x = 10.6 on; the turning point is near x = 25
    p, e = _level(2000, symmetry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (24.0, 40.0):
            column = spinor(2000, p, e, np.array([x, 1.0]))
            assert column[0] == spinor(2000, p, e, x) and np.isfinite(column).all()
        if spinor is spin_lower_spinor:
            # lower = (F' - F / x) / (M c^2 + E - C) at hbar c = 1, F' by finite differences of the upper spinor
            def f(t):
                return spin_upper_spinor(2000, p, e, t)

            h = 3e-5
            for x in (10.0, 24.0):
                d1 = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
                expect = (d1 - f(x) / x) / (p.rest_energy + e - p.sym_constant)
                assert spinor(2000, p, e, x) == pytest.approx(expect, abs=1e-9)
            return
        assert abs(spinor(2000, p, e, 24.0)) > 0.01
        x = np.linspace(0.005, 40.0, 8000)
        norm = np.sum(spinor(2000, p, e, x) ** 2) * (x[1] - x[0])
    assert norm == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spinor,symmetry", _SPINOR_BRANCHES)
def test_spinor_is_zero_where_the_falloff_times_x2_overflows(spinor, symmetry):
    # exp(-falloff x^2 / 2) vanishes faster than the Laguerre factor grows
    p, e = _level(2, symmetry)
    assert spinor(2, p, e, 1e200) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        column = spinor(2, p, e, np.array([1e200, 1.0]))
    assert column[0] == 0.0 and column[1] == pytest.approx(spinor(2, p, e, 1.0), rel=1e-14)


@pytest.mark.parametrize("g", [2.0, -0.1])
def test_spin_lower_spinor_is_finite_at_the_least_positive_x(g):
    # (zeta - 1/2) / x overflows there; at g < 0, zeta < 1/2 and the component grows like x^(zeta - 1/2)
    p = DiracParams(g=g)
    e = solve_spin_energy(1, p).value
    x = np.array([5e-324, 1e-310, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        column = spin_lower_spinor(1, p, e, x)
        assert [spin_lower_spinor(1, p, e, float(t)) for t in x] == column.tolist()
    assert np.isfinite(column).all()
    assert (column == 0.0).all() if g > 0.0 else (np.abs(column) > 1e80).all()


@pytest.mark.parametrize("spinor,symmetry", _SPINOR_BRANCHES)
@pytest.mark.parametrize("e_value", [math.nan, math.inf])
def test_spinors_reject_a_non_finite_energy(spinor, symmetry, e_value):
    p = DiracParams(g=2.0, branch=symmetry)
    with pytest.raises(ValueError, match=f"^energy must be finite, got {e_value}$"):
        spinor(1, p, e_value, 1.0)


def test_direct_scalar_path_matches_the_envelope_bit_for_bit():
    # a float takes nonrel._laguerre_state's scalar branch directly, a 0-d array after its conversion to a float
    for spinor, symmetry in _SPINOR_BRANCHES:
        for n in (0, 3):
            p, e = _level(n, symmetry)
            for x in (1e-3, 0.37, 1.3, 4.1):
                assert spinor(n, p, e, x).hex() == spinor(n, p, e, np.array(x)).hex()


# ------------------------------------------------------- one scan per ladder

def _per_level(n_max, p):
    return _outcome(lambda: [_SOLVERS[p.branch](n, p) for n in range(n_max + 1)])


@pytest.mark.parametrize("c", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("g", [-0.1, 0.5, 2.0, 6.0, 50.0])
@pytest.mark.parametrize(
    "branch, sym_constant",
    [(Symmetry.SPIN, 0.0), (Symmetry.SPIN, 2.0),
     (Symmetry.PSEUDOSPIN, 0.0), (Symmetry.PSEUDOSPIN, -2.0), (Symmetry.PSEUDOSPIN, -13.0)],
)
def test_ladder_equals_the_per_level_solves(branch, sym_constant, g, c):
    # EnergyLevel equality compares value and residual bit for bit; a failing ladder must fail alike
    p = DiracParams(g=g, sym_constant=sym_constant, c=c, branch=branch)
    expected = _per_level(40, p)
    assert _outcome(lambda: rel.solve_levels(40, p)) == expected
    for n_max in (0, 1, 7):
        assert _outcome(lambda: rel.solve_levels(n_max, p)) == _per_level(n_max, p)


@pytest.mark.parametrize(
    "params, n_max, error, message",
    [
        # a decades request of the CLI benchmark (seed 1): level 0 closes on the window edge
        ({"branch": Symmetry.PSEUDOSPIN, "mass": 1376.864025586473, "omega": 0.14903781914789113,
          "c": 748.269756662249, "g": 6255.1267599406565}, 29, NoRootInRange, "level 0 sits on the window edge "),
        ({"branch": Symmetry.SPIN, "g": -0.2}, 40, UnphysicalRegime, "1 + 2 g |energy_weight| = "),
    ],
    ids=["window-edge", "unphysical"],
)
def test_ladder_raises_what_the_per_level_loop_raises(params, n_max, error, message):
    p = DiracParams(**params)
    expected = _per_level(n_max, p)
    assert expected[0] is error and expected[1].startswith(message)
    assert _outcome(lambda: rel.solve_levels(n_max, p)) == expected


def test_ladder_takes_the_branch_from_the_params_and_checks_n_max():
    for branch, solve in _SOLVERS.items():
        assert rel.solve_levels(2, DiracParams(branch=branch))[2] == solve(2, DiracParams(branch=branch))
    for n_max in (-1, 1.5):
        with pytest.raises(ValueError):
            rel.solve_levels(n_max, DiracParams())


@pytest.mark.parametrize(
    "branch, params",
    [(Symmetry.SPIN, {}), (Symmetry.SPIN, {"g": 6.0, "sym_constant": 2.0, "c": 10.0}),
     (Symmetry.PSEUDOSPIN, {}), (Symmetry.PSEUDOSPIN, {"g": 6.0, "sym_constant": -2.0, "c": 10.0}),
     (Symmetry.PSEUDOSPIN, {"g": 0.5, "c": 100.0})],
)
def test_one_level_ladder_makes_the_calls_of_one_solve(branch, params, monkeypatch):
    p = DiracParams(branch=branch, **params)
    single = _residual_calls(monkeypatch, lambda: _SOLVERS[branch](0, p))
    ladder = _residual_calls(monkeypatch, lambda: rel.solve_levels(0, p))
    assert ladder[0] == [single[0]] and ladder[1] == single[1]


def test_tables_from_one_ladder_per_column_equal_the_per_cell_solves():
    table1, table2 = golden.compute_tables()
    assert table1 == golden.compute_table1()
    assert table2 == golden.compute_table2()


def test_ladder_of_twenty_levels_makes_a_fifth_of_the_per_level_calls(monkeypatch):
    p = DiracParams()
    shared = _residual_calls(monkeypatch, lambda: rel.solve_levels(20, p))[1]
    looped = _residual_calls(monkeypatch, lambda: [solve_spin_energy(n, p) for n in range(21)])[1]
    assert 5 * len(shared) <= len(looped)
