"""Independent numerical checks for the closed-form results.

Everything in this module recomputes physics from first principles on
a grid (finite differences, adaptive quadrature, sign-change root
scanning, self-consistent eigensolves) without touching the analytic
formulas it is meant to check, so agreement between the two routes is
evidence rather than tautology. The only shared vocabulary is the
parameter containers.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, GridTooCoarse, NoConvergence, ToleranceNotMet, UnphysicalRegime
from .errors import _check_index, _check_positive, _divisor_square, _in_float_range, _square
from .rel import DiracParams, Symmetry

__all__ = [
    "Grid",
    "OracleMethod",
    "OracleReport",
    "fd_eigenvalues",
    "quadrature",
    "scan_roots",
    "dirac_selfconsistent",
    "ode_residual",
]

# Error-estimate safety: a check grid r times coarser bounds the spacing
# error of a clean second-order scheme by |difference| / (r^2 - 1)
# (Roache, J. Fluids Eng. 116, 405 (1994)); the 1.5 absorbs the slightly
# sub-quadratic component the singular boundary induces. The
# doubled-inner-cutoff re-solve adds the spacing independent wall error
# that the pair cannot see. That error goes like x_min^(2 xi), with
# xi = (1/2) sqrt(1 + 4 M g / hbar^2), so the re-solve reads it times
# 2^(2 xi) - 1: the estimate bounds the error only for xi >= 1/2, and
# under-reads it below (ROADMAP item 4).
_RICHARDSON_SAFETY = 1.5
_RICHARDSON_FLOOR = 1e-10
_COARSE_LIMIT = 1e-3

_EIG_TOL = 1e-12  # absolute eigenvalue tolerance for the Sturm bisection;
# the LAPACK default scales with the matrix norm, which the 1/x^2
# diagonal inflates past any useful accuracy
_EPS = float(np.finfo(float).eps)
# a grid's first value window around a known eigenvalue opens at this
# fraction of max(1, |lambda|); every window grows by the factor until
# it reaches _COARSE_LIMIT
_WINDOW_SEED = 1e-7
_WINDOW_GROWTH = 10.0
# each later window opens at this multiple of the shift just measured,
# and no narrower than the floor (the bisection's own spread)
_SHIFT_MARGIN = 4.0
_SHIFT_FLOOR = 8.0 * _EIG_TOL
# each windowed self-consistent sweep bisects its eigenvalue to this
# fraction of its enclosure's width: the next sweep moves the eigenvalue
# by about that width, so more digits would be thrown away
_SWEEP_TOL_FRACTION = 1e-3
# a value solve drops the rows past the point where the eigenvectors it
# can find have decayed so far that no eigenvalue moves by more than
# this times max(1, |top of the interval|)
_TAIL_BOUND = 1e-30

# fractional-power kinks at an endpoint (x^p, 0<p<1) need ~70 levels
# before the halved tolerance catches up with the h^(p+1) error decay
_QUAD_MAX_DEPTH = 80
_QUAD_PANELS = 16  # pre-split before adapting: three nodes on the full
# interval can miss a localized integrand entirely and accept zero
_TAIL_RTOL = 1e-18


class OracleMethod(enum.Enum):
    FINITE_DIFFERENCE = "finite-difference"
    QUADRATURE = "quadrature"
    ROOT_SCAN = "root-scan"
    SELF_CONSISTENT = "self-consistent"


@dataclass(frozen=True)
class Grid:
    """Uniform half-line grid with hard walls at both ends."""

    x_min: float = 1e-4
    x_max: float = 20.0
    n_points: int = 40000

    def __post_init__(self) -> None:
        _check_positive("x_min", self.x_min)
        if not (math.isfinite(self.x_max) and self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max < inf, got [{self.x_min}, {self.x_max}]")
        _check_index(self.n_points, "n_points", 100)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def doubled_spacing(self) -> "Grid":
        """Same interval with (n_points + 1) // 2 points: twice the spacing for odd n_points, slightly more for even."""
        return Grid(self.x_min, self.x_max, (self.n_points + 1) // 2)

    def doubled_cutoff(self) -> "Grid":
        """Same point count with the inner wall pushed out to 2 x_min."""
        return Grid(2.0 * self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class OracleReport:
    """Numerical eigenvalues plus an honest per-value error estimate."""

    eigenvalues: tuple[float, ...]
    grid: Grid
    richardson_error: tuple[float, ...]
    method: OracleMethod

    def __post_init__(self) -> None:
        if not self.eigenvalues:
            raise ValueError("report must carry at least one eigenvalue")
        if len(self.richardson_error) != len(self.eigenvalues):
            raise ValueError("one error estimate per eigenvalue required")
        if any(b < a for a, b in zip(self.eigenvalues, self.eigenvalues[1:])):
            raise ValueError("eigenvalues must be sorted ascending")
        if any(not (math.isfinite(r) and r > 0.0) for r in self.richardson_error):
            raise ValueError("error estimates must be positive and finite")


def _evaluate_on(func, x: np.ndarray) -> np.ndarray:
    """Call a possibly scalar-only function on a grid."""
    try:
        vals = np.asarray(func(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(func(xi)) for xi in x])


def eigh_tridiagonal(*args, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on the first call.

    Importing scipy.linalg takes longer than a whole level solve, and of
    the package only the grid oracles need it.
    """
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(*args, **kwargs)


class _Sturm:
    """Sturm bisection (LAPACK ``stebz``) of -kinetic f'' + v f with Dirichlet walls.

    v is sampled on the full grid; the first and last points are the
    walls themselves (f = 0 there), so the matrix T acts on the interior:
    diagonal 2 k + v[1:-1] and off-diagonal -k, k = kinetic / spacing^2.
    ``pad`` is the bisection tolerance plus the rounding of that
    diagonal. Every LAPACK call is made by ``_solve``.

    Row cut. A value solve or a count over (bottom, top] bisects only
    the leading ``live_rows(top)`` rows, cut at its own top: past them
    every eigenvector below the top has decayed beyond any effect on a
    Sturm count at or below it (``live_rows`` bounds it block by block).

    Clip rule. ``stebz`` clips a value window to the Gershgorin interval
    of the matrix, widened by a term proportional to its row count.
    Every leading block that keeps the row of min v[2:-2] (a row with two
    neighbours, whose Gershgorin bound is that v up to ``pad``) has its
    lower Gershgorin end below ``clip`` = min v[2:-2] + pad, and
    ``live_rows`` keeps that row whenever the top lies above it. So a
    window whose bottom is at or above ``clip`` starts at that bottom
    whatever the row count, and ``values`` cuts rows only then: its
    midpoints, counts and result are bit-identical to a solve over every
    row. A window that starts lower keeps every row. The upper end never
    binds: the last row kept is forbidden at the top, so its Gershgorin
    bound lies above the top by more than 2 k. ``count`` uses only the
    number found, which the proof covers from any start, so it always
    cuts.

    Index solves keep every row: no top is known before them, and
    ``stebz`` starts them from the Gershgorin interval, widened by a term
    proportional to the row count, so a cut would move their results
    within the tolerance.
    """

    def __init__(self, v: np.ndarray, spacing: float, kinetic: float) -> None:
        self.v = v
        self.k = kinetic / spacing**2
        self.diag = 2.0 * self.k + v[1:-1]
        self.off = np.full(v.size - 3, -self.k)
        self.least = float(np.min(v[1:-1]))
        self.pad = _EIG_TOL + 8.0 * _EPS * float(np.max(np.abs(self.diag)))
        self.clip = float(np.min(v[2:-2])) + self.pad

    def _solve(self, rows: int, select: str, select_range, tol: float) -> np.ndarray:
        return eigh_tridiagonal(
            self.diag[:rows],
            self.off[: rows - 1],
            eigvals_only=True,
            select=select,
            select_range=select_range,
            lapack_driver="stebz",
            tol=tol,
        )

    def live_rows(self, top: float) -> int:
        """Number m of leading rows that decide every Sturm count at or below ``top``.

        T_m is the leading m x m submatrix of T and a_i = (v_i - top) / k.
        Row s follows the last row with v_i <= top, so every row from s on
        is forbidden at ``top``. There c_i = min a over rows i.. (it never
        decreases), rho_i = exp(-2 asinh(sqrt(c_i) / 2)) is the decaying
        root of rho + 1/rho = 2 + c_i, and Q_i = rho_s ... rho_i. With

            B_m = Q_m^2 (k / rho_m + (1 + |top - min v|) / (1 - rho_m^2)),

        the result is the last row m of the first block of 64 rows from s on
        with B_m <= 1e-30 max(1, |top|) once each rho_i is raised to the rho
        of its block's first row, or every row when there is none (also when
        the last row is allowed). As rho falls when c grows, the raise only
        grows Q_m^2 / rho_m = Q_(m-1)^2 rho_m and Q_m^2 / (1 - rho_m^2).

        Proof that the counts agree. Let T u = lambda u with ||u|| = 1,
        lambda <= top, n rows and q_i = u_(i+1) / u_i. Row i reads
        1/q_(i-1) = 2 + (v_i - lambda)/k - q_i, and (v_i - lambda)/k >= c_i
        for i >= s. The wall gives q_(n-1) = 0. If 0 <= q_i <= rho_(i+1)
        <= rho_i, then 1/q_(i-1) >= 2 + c_i - rho_i = 1/rho_i, so induction
        down to row s gives |u_i| <= rho_i |u_(i-1)| and |u_i| <= Q_i. The
        step needs rho_(i+1) <= rho_i, which is why c is a suffix minimum:
        a tail that dips again still gets a valid bound. The weight past
        the cut is then tau^2 <= Q_m^2 / (1 - rho_m^2) <= B_m.

        Cauchy interlacing gives lambda_j(T) <= lambda_j(T_m). For the other
        side, cut the eigenvectors of lambda_0..lambda_j (all <= top) to rows
        [0, m). T_m maps each cut vector to lambda_b times itself plus
        k u_m e_(m-1), the dropped coupling, with |k u_(m-1) u_m| <=
        k Q_m^2 / rho_m. Their overlaps differ from the identity by at most
        tau^2 each, weighted in the Rayleigh quotient by lambda_j - lambda_b
        <= top - min v. On their span the quotient therefore bounds

            lambda_j(T_m) <= lambda_j(T) + (j + 1) B_m / (1 - (j + 1) B_m).

        So a Sturm count of T_m at any shift up to ``top`` equals the count
        of T, unless the shift lies within about 1e-29 max(1, |top|) of an
        eigenvalue, far below the float spacing there. The same holds for
        LAPACK's float counts: the pivots of rows [0, m) are the same
        operations in both, and the rounding of a and of the diagonal moves
        each bound by a relative amount near eps, far inside the margin.
        """
        allowed = np.flatnonzero(self.v[1:-1] <= top)
        s = int(allowed[-1]) + 1 if allowed.size else 0
        if s + 1 >= self.diag.size:
            return self.diag.size
        edges = np.append(np.arange(s, self.diag.size, 64), self.diag.size)  # 64-row blocks: keeps < 128 rows extra
        floor = np.minimum.accumulate(np.minimum.reduceat(self.v[1:-1], edges[:-1])[::-1])[::-1]
        t = np.arcsinh(np.sqrt(floor - top) / (2.0 * math.sqrt(self.k)))  # rho = exp(-2 t), without overflow or log(0)
        spread = 1.0 + abs(top - self.least)
        log_bound = np.logaddexp(math.log(self.k) + 2.0 * t, math.log(spread) - np.log(-np.expm1(-4.0 * t)))
        log_bound -= 4.0 * np.cumsum(t * np.diff(edges))  # log Q_m^2
        past = np.flatnonzero(log_bound <= math.log(_TAIL_BOUND * max(1.0, abs(top))))
        return int(edges[past[0] + 1]) - 1 if past.size else self.diag.size

    def values(self, bottom: float, top: float, tol: float = _EIG_TOL) -> np.ndarray:
        """Eigenvalues in (bottom, top], each within tol.

        They are bisected on ``live_rows(top)`` rows when bottom is at or
        above ``clip``, else on every row.
        """
        rows = self.diag.size if bottom < self.clip else self.live_rows(top)
        return self._solve(rows, "v", (bottom, top), tol)

    def count(self, bottom: float, top: float) -> int:
        """Number of eigenvalues in (bottom, top], on ``live_rows(top)`` rows.

        The tolerance is wider than the interval, so only the two endpoint
        counts are made.
        """
        return self._solve(self.live_rows(top), "v", (bottom, top), 2.0 * (top - bottom)).size

    def index(self, lo: int, hi: int, tol: float = _EIG_TOL) -> np.ndarray:
        """Eigenvalues lo..hi, each within tol, over every row."""
        return self._solve(self.diag.size, "i", (lo, hi), tol)


def _tridiag_lowest(
    v: np.ndarray,
    spacing: float,
    kinetic: float,
    lo: int,
    hi: int,
    enclosure: tuple[float, float] | None = None,
    tol: float = _EIG_TOL,
) -> np.ndarray:
    """Eigenvalues lo..hi of the ``_Sturm`` operator, each within ``tol``.

    ``enclosure`` = (a, b), for a single index lo == hi, is an interval
    known to hold that eigenvalue. It is widened by the ``_Sturm`` pad
    and solved by value, which bisects only the window instead of the
    whole Gershgorin interval. The result is kept only when the window
    holds exactly one eigenvalue; otherwise the index solve runs as
    without an enclosure. ``tol`` applies to the value solve and its
    fallback alike; the window, its padding and the acceptance are the
    same for every tol.

    The index solves left are the first sweep of each
    ``dirac_selfconsistent`` level and the fallbacks: of an enclosure
    here, of ``_tridiag_near``'s windows and of ``_tridiag_bracketed``'s
    bracket. ``fd_eigenvalues`` solves every grid by value.
    """
    sturm = _Sturm(v, spacing, kinetic)
    if enclosure is not None:
        if lo != hi:
            raise ValueError(f"an enclosure bounds one eigenvalue, got indices {lo}..{hi}")
        found = sturm.values(enclosure[0] - sturm.pad, enclosure[1] + sturm.pad, tol)
        if found.size == 1:
            return found
    return sturm.index(lo, hi, tol)


def _tridiag_near(v: np.ndarray, spacing: float, kinetic: float, guesses: np.ndarray, lo: int = 0) -> np.ndarray:
    """Eigenvalues lo..lo+len(guesses)-1 of the ``_Sturm`` operator, each bisected near its guess.

    Guess e_i (ascending) gets the value window (e_i - d, e_i + d], d
    growing tenfold while the window is empty, up to the 1e-3 coarse-grid
    limit. The first window opens at 1e-7 max(1, |e_0|). Each later one
    opens at the shift just measured: once eigenvalue i is found at
    |found - e_i|, the window for i + 1 opens at four times that shift,
    but no narrower than 8 times the bisection tolerance (a zero shift
    would never grow) and no wider than the coarse-grid limit. The
    guesses are the same levels on a related grid (``fd_eigenvalues``
    solves its declared grid around the doubled-spacing grid's values,
    and each check grid around the declared grid's), and a change of
    grid shifts neighbouring eigenvalues by similar amounts, so that
    window usually holds its eigenvalue at once.

    The located values are certified to be eigenvalues lo..lo+count-1
    when the windows are disjoint, each holds exactly one eigenvalue,
    and a count finds exactly lo + count eigenvalues in (floor, top of
    the last window]. floor is min v less the pad, a lower bound of the
    spectrum: the matrix is K + diag(v) with the Dirichlet second
    difference K positive definite. The openings only decide how many
    windows are bisected, never what is accepted. When any condition
    fails, the index solve runs instead. Each window and the count keep
    the rows that ``_Sturm`` keeps at their own top.
    """
    sturm = _Sturm(v, spacing, kinetic)
    located = []
    top = -math.inf
    half = _WINDOW_SEED * max(1.0, abs(float(guesses[0])))
    for guess in guesses:
        guess = float(guess)
        found = sturm.values(guess - half, guess + half)
        while found.size == 0 and half < _COARSE_LIMIT:
            half *= _WINDOW_GROWTH
            found = sturm.values(guess - half, guess + half)
        if found.size != 1 or guess - half < top:
            break
        located.append(float(found[0]))
        top = guess + half
        half = min(max(_SHIFT_MARGIN * abs(located[-1] - guess), _SHIFT_FLOOR), _COARSE_LIMIT)
    else:
        if sturm.count(sturm.least - sturm.pad, top) == lo + len(guesses):
            return np.array(located)
    return sturm.index(lo, lo + len(guesses) - 1)


def _tridiag_bracketed(v: np.ndarray, spacing: float, kinetic: float, count: int) -> np.ndarray:
    """Eigenvalues 0..count-1 of the ``_Sturm`` operator, bisected in one value window that counts isolate.

    The matrix is K + diag(v), K the Dirichlet second difference, whose
    least eigenvalue is 4 k sin^2(pi / (2 (m + 1))) (m rows). By Weyl,
    floor = min v plus that value, less the pad, bounds the spectrum from
    below. The top opens 8 times that value above the floor, a width set
    by the grid and not by |v|, and grows until a count finds at least
    ``count`` eigenvalues in (floor, top]: fourfold while it finds none,
    and by (count + 1) / found once it finds ``found`` (one step on an
    evenly spaced ladder). The top is then bisected between the last two
    tops until the count is exactly ``count``. The counts alone decide
    what is accepted. When the top passes the Gershgorin end, or the
    bracket narrows to the pad (a pair closer than the float spacing),
    the index solve runs instead.
    """
    sturm = _Sturm(v, spacing, kinetic)
    box = 4.0 * sturm.k * math.sin(0.5 * math.pi / (sturm.diag.size + 1)) ** 2
    floor = sturm.least + box - sturm.pad
    end = float(np.max(sturm.diag)) + 2.0 * sturm.k
    # the pad keeps the first top a float above the floor
    width = max(8.0 * box, sturm.pad)
    low, top = floor, floor + width
    found = sturm.count(floor, top)
    while found < count and top < end:
        width *= (count + 1.0) / found if found else 4.0
        low, top = top, floor + width
        found = sturm.count(floor, top)
    while found > count and top - low > sturm.pad:
        middle = 0.5 * (low + top)
        inside = sturm.count(floor, middle)
        if inside < count:
            low = middle
        else:
            top, found = middle, inside
    if found == count:
        values = sturm.values(floor, top)
        if values.size == count:
            return values
    return sturm.index(0, count - 1)


def _check_grids(grid: Grid, levels: int, kinetic: float, name: str) -> tuple[Grid, Grid]:
    """The doubled-spacing and doubled-cutoff check grids of ``grid``, checked before any eigensolve.

    ValueError when ``grid`` has under 10 points per level of ``levels``
    or under 199 points (no doubled-spacing grid of 100), or when
    2 x_min >= x_max (no doubled-cutoff grid). DivergenceError when the
    finest grid, the doubled-cutoff one, has an h^2 that underflows to 0
    or an off-diagonal k = kinetic / h^2 (spelt ``name``) whose square,
    which LAPACK forms, leaves the float range.
    """
    if levels > grid.n_points // 10:
        raise ValueError(f"levels 0..{levels - 1} need at least {10 * levels} grid points, got {grid.n_points}")
    if grid.n_points < 199:
        raise ValueError(f"the doubled-spacing check grid needs at least 199 grid points, got {grid.n_points}")
    if not 2.0 * grid.x_min < grid.x_max:
        raise ValueError(
            f"the doubled-cutoff check grid needs 2 x_min < x_max, got x_min = {grid.x_min}, x_max = {grid.x_max}"
        )
    cut = grid.doubled_cutoff()
    _square(kinetic / _divisor_square(cut.spacing, "h"), f"({name})")
    return grid.doubled_spacing(), cut


def _check_grid_error(grid: Grid, values: np.ndarray, e_coarse: np.ndarray, e_cut: np.ndarray) -> np.ndarray:
    """Error estimate of eigenvalues ``values`` found on ``grid``, from the same levels on its two check grids.

    ``e_coarse`` and ``e_cut`` are those levels on the doubled-spacing and
    doubled-cutoff grids of ``_check_grids``. The estimate is
    1.5 |e - e_coarse| / (r^2 - 1) + |e - e_cut| + 1e-10, r the spacing
    ratio of the doubled-spacing grid to ``grid``: the coarse pair's
    two-grid Richardson bound with safety, plus the wall sensitivity. It
    bounds the error only for xi >= 1/2 (see ``_RICHARDSON_SAFETY``).
    """
    factor = _RICHARDSON_SAFETY / ((grid.doubled_spacing().spacing / grid.spacing) ** 2 - 1.0)
    return factor * np.abs(values - e_coarse) + np.abs(values - e_cut) + _RICHARDSON_FLOOR


def fd_eigenvalues(potential, count: int, grid: Grid | None = None, mass: float = 1.0, hbar: float = 1.0) -> OracleReport:
    """Lowest ``count`` eigenvalues of -(hbar^2/2M) f'' + V f on the grid.

    Three Sturm-bisection solves back each value: the declared grid,
    one at twice the spacing ((n_points + 1) // 2 points on the same
    interval) and one with the inner wall pushed to 2 x_min. The
    reported eigenvalues come from the declared grid. The error estimate
    is ``_check_grid_error``, which ``dirac_selfconsistent`` shares:
    1.5 |e - e_coarse| / (r^2 - 1), the coarse pair's two-grid
    Richardson bound with safety (r the spacing ratio: 2 for odd
    n_points, slightly more for even), plus the wall sensitivity
    |e - e_cut|. For a wall g / (2 x^2) it bounds the error only for
    xi = (1/2) sqrt(1 + 4 M g / hbar^2) >= 1/2, that is g >= 0: below,
    the inner wall's error is under-read (ROADMAP item 4). Raises
    GridTooCoarse when any estimate exceeds 1e-3.

    Every grid is solved by value, coarsest first, so the one wide
    window is bisected on the fewest rows: the doubled-spacing grid in
    one window that counts isolate (``_tridiag_bracketed``), then the
    declared grid in small windows around the doubled-spacing grid's
    values, and the doubled-cutoff grid in small windows around the
    declared grid's (``_tridiag_near``). A grid whose values those
    strategies cannot certify takes the index solve; near the 1e-3
    limit a declared level can lie farther than any window from its
    coarse value. Every value is bisected to 1e-12, on the rows that
    ``_Sturm``'s row cut and clip rule keep, so each is bit-identical
    to a solve over every row.

    Raises DivergenceError naming the scale when hbar^2 / (2M) leaves the
    float range or underflows to 0 (the matrix would lose its kinetic
    term and return the well's minimum), then ``_check_grids``' errors
    before any solve, with k = hbar^2 / (2 M h^2).

    V is sampled on the interior points only: the walls are the
    Dirichlet boundary, so V may be infinite or undefined there.
    """
    grid = grid if grid is not None else Grid()
    _check_index(count, "count", 1)
    _check_positive("mass", mass)
    _check_positive("hbar", hbar)
    kinetic = _in_float_range(_square(hbar, "hbar") / (2.0 * mass), "hbar^2 / (2 M)")
    if kinetic == 0.0:
        raise DivergenceError(f"the scale hbar^2 / (2 M) = ({hbar})^2 / (2 * {mass}) underflows to 0")

    def sample(g: Grid) -> np.ndarray:
        # only the interior enters the matrix (see _Sturm): a potential
        # may be infinite, or undefined, at the walls themselves
        v = np.full(g.n_points, math.nan)
        v[1:-1] = _evaluate_on(potential, g.points()[1:-1])
        if not np.all(np.isfinite(v[1:-1])):
            raise ValueError("potential must be finite on the grid interior")
        return v

    coarse, cut = _check_grids(grid, count, kinetic, "hbar^2 / (2 M h^2)")
    e_coarse = _tridiag_bracketed(sample(coarse), coarse.spacing, kinetic, count)
    e_h = _tridiag_near(sample(grid), grid.spacing, kinetic, e_coarse)
    e_cut = _tridiag_near(sample(cut), cut.spacing, kinetic, e_h)
    estimate = _check_grid_error(grid, e_h, e_coarse, e_cut)
    if np.any(estimate > _COARSE_LIMIT):
        raise GridTooCoarse(f"worst error estimate {float(np.max(estimate)):.3e} exceeds {_COARSE_LIMIT:.0e}")
    return OracleReport(
        eigenvalues=tuple(float(v) for v in e_h),
        grid=grid,
        richardson_error=tuple(float(r) for r in estimate),
        method=OracleMethod.FINITE_DIFFERENCE,
    )


def _tail_cutoff(f, a: float) -> float:
    """Truncation point for an integrand that decays towards +inf."""
    peak = 0.0
    consecutive = 0
    for k in range(200):
        t = a + 0.25 * 1.5**k
        v = abs(f(t))
        if not math.isfinite(v):
            raise ToleranceNotMet(f"integrand is not finite at x = {t}")
        peak = max(peak, v)
        if v <= _TAIL_RTOL * peak:
            consecutive += 1
            if consecutive >= 3:
                return t
        else:
            consecutive = 0
    raise ToleranceNotMet("integrand shows no decay towards infinity")


def _adaptive_simpson(f, a: float, b: float, fa: float, fm: float, fb: float, whole: float, tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise ToleranceNotMet(f"integrand is not finite inside [{a}, {b}]")
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise ToleranceNotMet(f"refinement depth exhausted near [{a}, {b}]")
    half_tol = 0.5 * tol
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, half_tol, depth - 1) + _adaptive_simpson(
        f, m, b, fm, frm, fb, right, half_tol, depth - 1
    )


def quadrature(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integral of f over [a, b], b = inf allowed.

    Exact on cubics by construction. An infinite upper limit is
    truncated where the integrand has decayed to 1e-18 of its observed
    peak. Raises ToleranceNotMet when the local refinement budget
    cannot reach the requested absolute tolerance.
    """
    if not (math.isfinite(a) and tol > 0.0):
        raise ValueError("need finite a and positive tol")
    if b == math.inf:
        b = _tail_cutoff(f, a)
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = np.linspace(a, b, _QUAD_PANELS + 1)
    panel_tol = tol / _QUAD_PANELS
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        lo = float(lo)
        hi = float(hi)
        f_lo = f(lo)
        f_hi = f(hi)
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if not (math.isfinite(f_lo) and math.isfinite(f_mid) and math.isfinite(f_hi)):
            raise ToleranceNotMet("integrand is not finite at the initial nodes")
        whole = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
        parts.append(_adaptive_simpson(f, lo, hi, f_lo, f_mid, f_hi, whole, panel_tol, _QUAD_MAX_DEPTH))
    return math.fsum(parts)


def scan_roots(f, lo: float, hi: float, steps: int) -> list[float]:
    """All roots of f on [lo, hi] found by uniform sign-change scanning.

    Bisects each bracketing cell to absolute width 1e-12. Roots the
    scan cannot see (even-order touches, pairs inside one cell) are
    missed by design; callers choose ``steps`` accordingly. Raises
    ValueError at the first sample, in the scan or in a bisection,
    where f is not finite: a sign change could hide behind it.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    _check_index(steps, "steps", 2)

    def sample(x: float) -> float:
        value = float(f(x))
        if not math.isfinite(value):
            raise ValueError(f"f is not finite at x = {x!r}: {value}")
        return value

    xs = np.linspace(lo, hi, steps + 1)
    fs = [sample(float(x)) for x in xs]
    roots: list[float] = []
    for i in range(steps):
        f0, f1 = fs[i], fs[i + 1]
        if f0 == 0.0:
            roots.append(float(xs[i]))
            continue
        if f0 * f1 < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = f0
            for _ in range(200):
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    break
                fmid = sample(mid)
                if fmid == 0.0:
                    a = b = mid
                    break
                if fa * fmid < 0.0:
                    b = mid
                else:
                    a, fa = mid, fmid
                if b - a <= 1e-12:
                    break
            roots.append(0.5 * (a + b))
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def dirac_selfconsistent(n: int, p: DiracParams, grid: Grid | None = None) -> OracleReport:
    """Spin-branch level from a self-consistent grid eigensolve.

    The second-order equation for the upper component has an
    energy-dependent coefficient in front of the well. Starting from
    the harmonic-ladder scale above the spin window's edge,
    max(M c^2, C - M c^2), each sweep freezes that coefficient,
    solves the resulting tridiagonal eigenproblem for the n-th
    eigenvalue and maps it back to a new energy through the dispersion
    quadratic; steps are damped by half whenever they change sign.
    Stops when the energy moves by no more than 1e-9, raises
    NoConvergence after 200 sweeps.

    The sweeps run on the declared grid only. Each solve after the first
    is bounded by the one before: the matrix is K + w D, with K the FD form of -d^2/dx^2 (K >= 0)
    and D = diag(U), so when every interior U > 0 Courant-Fischer puts
    eigenvalue n at weight w' inside [min(1, r), max(1, r)] times its
    value at w, r = w'/w. The eigensolve bisects only that window and
    falls back to the index solve when the window does not hold exactly
    one eigenvalue; a well with U <= 0 anywhere (g < 0) always takes the
    index solve. Each windowed sweep bisects its eigenvalue only to
    1e-3 of its window's width (and to no less than 1e-12): the next
    sweep moves the eigenvalue by about that width, and an inexact
    fixed-point step needs a tolerance only in proportion to its step
    (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 400 (1982)).
    That value is then known only to within its tolerance, so the next
    window is widened by the tolerance (times r when r > 1), and the
    Courant-Fischer enclosure still holds. The first sweep, the solve at
    the converged weight that the estimate starts from, and every
    check-grid solve are bisected to 1e-12. Raises UnphysicalRegime when
    a sweep's weight puts the 1/x^2 term below the Hardy bound,
    1 + 2 g weight < 0, and GridTooCoarse when the error estimate
    exceeds 1e-3.

    Every solve keeps only the rows that ``_Sturm``'s row cut and clip
    rule keep, so the levels and estimates are bit-identical to solves
    over every row.

    The error estimate re-solves eigenvalue n at the converged weight on
    the doubled-spacing and doubled-cutoff grids (``_check_grid_error``,
    shared with ``fd_eigenvalues``): 1.5 |lambda - lambda_coarse| /
    (r^2 - 1), r the spacing ratio (2 for odd n_points), plus
    |lambda - lambda_cut|. Each is bisected in a window around the
    declared grid's lambda_n (``_tridiag_near``). Before any solve it
    raises ``_check_grids``' errors, with k = 1 / h^2, and
    DivergenceError naming the scale when (hbar c)^2 or omega^2 leaves
    the float range or (hbar c)^2 underflows to 0, or naming the well
    when it, or the weighted well w U on any grid solved, leaves the
    float range at an interior grid point; at the least weight a level
    can have, that is checked before any eigensolve, and so is
    (2 M c^2 - C)^2 in the dispersion quadratic.

    The eigenvalue's grid error d_lambda feeds back through the weight:
    the converged level solves E = F(lambda(w(E))), so its error is
    (dE/dlambda) d_lambda / (1 - s), with dE/dlambda = (hbar c)^2 /
    (2E - C) and s = lambda_w / (2E - C), lambda_w = d lambda / d w.
    When every interior U > 0, lambda(w) is concave with lambda(0) >= 0
    (Courant-Fischer), so 0 <= lambda_w <= lambda / w, and the
    dispersion gives lambda / w = E - M c^2. The error is therefore at
    most d_lambda / w, and that is the factor the estimate uses. A well
    with U <= 0 somewhere keeps (hbar c)^2 / |2E - C|.

    The estimate bounds the error only where the weighted wall has
    xi >= 1/2, which holds for every g >= 0. For g < 0 it can understate
    the error: near the Hardy edge the inner wall dominates, and the
    doubled-cutoff re-solve does not bound it (at g = -0.1, n = 0 the
    error is 1.65e-3 against an estimate of 8.14e-4 on the default grid;
    ROADMAP item 4).
    """
    n = _check_index(n)
    if p.branch is not Symmetry.SPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    grid = grid if grid is not None else Grid()
    coarse, cut = _check_grids(grid, n + 1, 1.0, "1 / h^2")

    mc2 = p.rest_energy
    offset = p.sym_constant
    hc2 = p._hc2
    b_coef = 2.0 * mc2 - offset
    x = grid.points()

    def in_float_range(v: np.ndarray, g: Grid, well: str) -> np.ndarray:
        finite = np.isfinite(v[1:-1])
        if not finite.all():
            raise DivergenceError(
                f"the {well} leaves the float range at x = {g.points()[1:-1][~finite][0]} "
                f"on the grid, at M = {p.mass}, omega = {p.omega}, g = {p.g}"
            )
        return v

    def weighted_well(weight: float, g: Grid, well: np.ndarray) -> np.ndarray:
        # a finite well times a weight can overflow (g = 1e301), as can the well at a check grid's points
        with np.errstate(over="ignore"):
            return in_float_range(weight * well, g, f"weighted well {weight} U(x)")

    with np.errstate(over="ignore"):  # an overflow is raised by name
        u = in_float_range(p.potential(x), grid, "well M omega^2 x^2 / 2 + g / (2 x^2)")
    positive = bool(np.all(u[1:-1] > 0.0))
    last: tuple[float, float, float] | None = None  # (weight, eigenvalue, tolerance) of the latest solve
    # eigenvalue n is at least w min U (Courant-Fischer), and a level has lambda / w = E - M c^2,
    # so no level has a weight below (2 M c^2 - C + min U) / (hbar c)^2
    weighted_well(max((b_coef + float(np.min(u[1:-1]))) / hc2, 0.0), grid, u)
    b_sq = _square(b_coef, "(2 M c^2 - C)")

    def nth_curvature(weight: float, fraction: float) -> float:
        # -f'' + weight * U(x) f, eigenvalue number n, bisected to fraction times its enclosure's width
        nonlocal last
        under = 1.0 + 2.0 * p.g * weight
        if under < 0.0:
            raise UnphysicalRegime(f"1 + 2 g |energy_weight| = {under} < 0: no bound ladder at this energy")
        enclosure, tol = None, _EIG_TOL
        if positive and last is not None:
            w_prev, lam_prev, tol_prev = last
            ratio = weight / w_prev
            # lam_prev is within tol_prev of its eigenvalue, so the scaled end is within ratio times that
            slack = max(1.0, ratio) * tol_prev
            enclosure = (min(lam_prev, ratio * lam_prev) - slack, max(lam_prev, ratio * lam_prev) + slack)
            tol = max(_EIG_TOL, fraction * (enclosure[1] - enclosure[0]))
        lam = float(_tridiag_lowest(weighted_well(weight, grid, u), grid.spacing, 1.0, n, n, enclosure, tol)[0])
        last = (weight, lam, tol)
        return lam

    # the spin window opens at max(M c^2, C - M c^2)
    e_value = max(mc2, offset - mc2) + p.hbar * p.omega * (2.0 * n + 1.5)
    if p.g < 0.0:
        # A bound level has 1 + 2 g weight >= 0, so start just inside
        # that edge rather than past it.
        e_value = min(e_value, offset - mc2 - (1.0 - 1e-6) * hc2 / (2.0 * p.g))
    prev_step = 0.0
    converged = False
    for _ in range(200):
        weight = (mc2 + e_value - offset) / hc2
        if weight <= 0.0:
            raise NoConvergence(f"iteration left the admissible region (weight = {weight})")
        lam = nth_curvature(weight, _SWEEP_TOL_FRACTION)
        disc = b_sq + 4.0 * lam * hc2
        if disc < 0.0:
            raise NoConvergence("dispersion quadratic has no real branch for the grid eigenvalue")
        e_next = mc2 + 0.5 * (-b_coef + math.sqrt(disc))
        step = e_next - e_value
        if prev_step * step < 0.0:
            step *= 0.5  # oscillation, damp
        e_value += step
        prev_step = step
        if abs(step) <= 1e-9:
            converged = True
            break
    if not converged:
        raise NoConvergence("self-consistent sweep budget (200) exhausted")

    # Error estimate at the converged coefficient: grid sensitivity of
    # the eigenvalue, propagated through the self-consistent map.
    weight = (mc2 + e_value - offset) / hc2
    lam_h = np.array([nth_curvature(weight, 0.0)])
    with np.errstate(over="ignore"):  # weighted_well names an overflow on a check grid
        e_coarse, e_cut = (
            _tridiag_near(weighted_well(weight, g, p.potential(g.points())), g.spacing, 1.0, lam_h, n)
            for g in (coarse, cut)
        )
    lam_err = float(_check_grid_error(grid, lam_h, e_coarse, e_cut)[0])
    # with every U > 0 the feedback bounds the level's error by lam_err / weight
    factor = 1.0 / weight if positive else abs(hc2 / (2.0 * e_value - offset))
    estimate = lam_err * factor + _RICHARDSON_FLOOR
    if estimate > _COARSE_LIMIT:
        raise GridTooCoarse(f"error estimate {estimate:.3e} exceeds {_COARSE_LIMIT:.0e}")
    return OracleReport(
        eigenvalues=(float(e_value),),
        grid=grid,
        richardson_error=(float(estimate),),
        method=OracleMethod.SELF_CONSISTENT,
    )


def ode_residual(f_samples, coefficient, grid: Grid) -> float:
    """Worst relative defect of f'' = coefficient(x) * f on the grid.

    The second derivative comes from the five-point stencil, so the
    discretization floor is O(h^4). The defect at each interior point
    is normalized by the local magnitude of both sides plus a small
    fraction of their grid-wide peak; the floor keeps isolated points
    where both sides cross zero (classical turning points) from
    amplifying roundoff into the maximum. Raises ValueError at the first
    stencil centre where the coefficient is not finite.
    """
    f = np.asarray(f_samples, dtype=float)
    if f.ndim != 1 or f.size != grid.n_points:
        raise ValueError(f"expected {grid.n_points} samples on the grid, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("samples must be finite")
    x = grid.points()
    c = _evaluate_on(coefficient, x)
    bad = np.flatnonzero(~np.isfinite(c[2:-2]))
    if bad.size:
        first = int(bad[0]) + 2
        raise ValueError(f"coefficient is not finite at x = {float(x[first])!r}: {float(c[first])}")
    h = grid.spacing
    second = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h**2)
    target = c[2:-2] * f[2:-2]
    scale = float(np.max(np.abs(second) + np.abs(target)))
    if scale == 0.0:
        return 0.0
    denom = np.abs(second) + np.abs(target) + 1e-3 * scale
    return float(np.max(np.abs(second - target) / denom))
