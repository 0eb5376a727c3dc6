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
from .errors import _check_index, _check_positive, _in_float_range, _square
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

# Error-estimate safety: the half-spacing pair bounds the spacing error
# of a clean second-order scheme by (4/3)|difference|; an extra 1.5
# absorbs the slightly sub-quadratic component the singular boundary
# induces. The doubled-inner-cutoff re-solve bounds the spacing
# independent wall error that the pair cannot see.
_RICHARDSON_SAFETY = 2.0  # 1.5 * (4/3)
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

    def halved_spacing(self) -> "Grid":
        """Same interval, exactly half the spacing (shared endpoints)."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points - 1)

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


def _assemble(v: np.ndarray, spacing: float, kinetic: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of -kinetic f'' + v f with Dirichlet walls.

    v is sampled on the full grid; the first and last points are the
    walls themselves (f = 0 there), so the matrix acts on the interior.
    """
    k = kinetic / spacing**2
    return 2.0 * k + v[1:-1], np.full(v.size - 3, -k)


def eigh_tridiagonal(*args, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on the first call.

    Importing scipy.linalg takes longer than a whole level solve, and of
    the package only the grid oracles need it.
    """
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(*args, **kwargs)


def _rounding_pad(diag: np.ndarray) -> float:
    """Bisection tolerance plus the rounding of the assembled diagonal."""
    return _EIG_TOL + 8.0 * _EPS * float(np.max(np.abs(diag)))


def _bisect(diag: np.ndarray, off: np.ndarray, select: str, select_range, tol: float = _EIG_TOL) -> np.ndarray:
    """Sturm bisection of the tridiagonal matrix: by index (``"i"``) or over the value interval (a, b] (``"v"``)."""
    return eigh_tridiagonal(
        diag,
        off,
        eigvals_only=True,
        select=select,
        select_range=select_range,
        lapack_driver="stebz",
        tol=tol,
    )


def _start_clip(v: np.ndarray, pad: float) -> float:
    """A value above where ``stebz`` may start a value solve of the matrix or of a leading block.

    ``stebz`` clips a value window to the Gershgorin interval of the
    matrix, widened by a term proportional to its row count. Every
    leading block that keeps the row of min v[2:-2] (a row with two
    neighbours, whose Gershgorin bound is that v up to the rounding
    ``pad`` from ``_rounding_pad``) has its lower Gershgorin end below
    this value. So a window whose bottom is at or above it starts at
    that bottom whatever the row count; ``_live_rows`` keeps that row
    whenever the window's top lies above it. The upper end never binds:
    the last row that ``_live_rows`` keeps is forbidden at the top, so
    its Gershgorin bound lies above the top by more than
    2 kinetic / spacing^2.
    """
    return float(np.min(v[2:-2])) + pad


def _live_rows(v: np.ndarray, kinetic: float, spacing: float, top: float) -> int:
    """Number m of leading interior rows that decide every Sturm count at or below ``top``.

    T is the ``_assemble`` matrix of v (walls excluded), T_m its leading
    m x m block, k = kinetic / spacing^2 and a_i = (v_i - top) / k. Row
    s is the first after the last row with a_i <= 0, so every row from
    s on is classically forbidden at ``top``. From s on, c_i is the
    minimum of a over rows i.. (non-decreasing by construction),
    rho_i = 1 / (1 + c_i/2 + sqrt(c_i + c_i^2/4)) is the decaying root
    of rho + 1/rho = 2 + c_i, and Q_i = rho_s rho_(s+1) ... rho_i. The
    result is the first m > s with

        B_m = Q_m^2 (k / rho_m + (1 + |top - min v|) / (1 - rho_m^2))
            <= 1e-30 max(1, |top|),

    or every row when there is none (also when the last row is allowed).

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
    k = kinetic / spacing**2
    a = (v[1:-1] - top) / k
    allowed = np.flatnonzero(a <= 0.0)
    s = int(allowed[-1]) + 1 if allowed.size else 0
    if s + 1 >= a.size:
        return a.size
    tail = np.minimum.accumulate(a[s:][::-1])[::-1]
    root = np.sqrt(tail + 0.25 * tail * tail)
    rho = 1.0 / (1.0 + 0.5 * tail + root)
    spread = 1.0 + abs(top - float(np.min(v[1:-1])))
    # k / rho + spread / (1 - rho^2), with 1 - rho^2 = 2 rho root
    log_bound = 2.0 * np.cumsum(np.log(rho)) + np.log((k + spread / (2.0 * root)) / rho)
    past = np.flatnonzero(log_bound[1:] <= math.log(_TAIL_BOUND * max(1.0, abs(top))))
    return s + 1 + int(past[0]) if past.size else a.size


def _tridiag_lowest(
    v: np.ndarray, spacing: float, kinetic: float, lo: int, hi: int, enclosure: tuple[float, float] | None = None
) -> np.ndarray:
    """Eigenvalues lo..hi of -kinetic f'' + v f with Dirichlet walls (see ``_assemble``).

    ``enclosure`` = (a, b), for a single index lo == hi, is an interval
    known to hold that eigenvalue. It is padded by the bisection
    tolerance plus the rounding of the assembled diagonal and solved by
    value, which bisects only the window instead of the whole Gershgorin
    interval. The result is kept only when the window holds exactly one
    eigenvalue; otherwise the index solve runs as without an enclosure.

    The value solve also drops the rows past ``_live_rows`` at the
    window's top: every eigenvector below that top has decayed there
    beyond any effect on a Sturm count (the proof is there). When the
    window starts at or above ``_start_clip``, LAPACK bisects from the
    window itself whatever the row count, so its midpoints, counts and
    result are bit-identical to a solve over every row; a window that
    starts lower keeps every row. The index solve keeps every row too:
    no top is known before it, and ``stebz`` starts it from the
    Gershgorin interval, widened by a term proportional to the row
    count, so a cut would move its results within the tolerance.
    """
    diag, off = _assemble(v, spacing, kinetic)
    if enclosure is not None:
        if lo != hi:
            raise ValueError(f"an enclosure bounds one eigenvalue, got indices {lo}..{hi}")
        pad = _rounding_pad(diag)
        bottom, top = enclosure[0] - pad, enclosure[1] + pad
        live = _live_rows(v, kinetic, spacing, top) if bottom >= _start_clip(v, pad) else diag.size
        found = _bisect(diag[:live], off[: live - 1], "v", (bottom, top))
        if found.size == 1:
            return found
    return _bisect(diag, off, "i", (lo, hi))


def _tridiag_near(v: np.ndarray, spacing: float, kinetic: float, guesses: np.ndarray, lo: int = 0) -> np.ndarray:
    """Eigenvalues lo..lo+len(guesses)-1 of the ``_tridiag_lowest`` operator, each bisected near its guess.

    Guess e_i (ascending) gets the value window (e_i - d, e_i + d], d
    growing tenfold while the window is empty, up to the 1e-3 coarse-grid
    limit. The first window opens at 1e-7 max(1, |e_0|). Each later one
    opens at the shift just measured: once eigenvalue i is found at
    |found - e_i|, the window for i + 1 opens at four times that shift,
    but no narrower than 8 times the bisection tolerance (a zero shift
    would never grow) and no wider than the coarse-grid limit (so no
    window passes the top the row cut below is proved for). A check grid shifts neighbouring eigenvalues
    by similar amounts, so that window usually holds its eigenvalue at
    once; when it does not, it grows like any other. The located values
    are certified to be eigenvalues lo..lo+count-1 when the windows are
    disjoint, each holds exactly one eigenvalue, and a Sturm count finds
    exactly lo + count eigenvalues in (floor, top of the last window].
    The count runs with a tolerance wider than that interval, so only
    its endpoint counts are made. floor is min(v) less the rounding pad,
    a lower bound of the spectrum: the matrix is K + diag(v) with the
    Dirichlet second difference K positive definite. The openings only
    decide how many windows are bisected, never what is accepted. When
    any condition fails, the index solve (lo, lo+count-1) of
    ``_tridiag_lowest`` runs instead, over every row.

    The windows and the count bisect only the rows before ``_live_rows``
    at the highest top a window can reach: max(guesses) plus 10 times
    the coarse-grid limit scaled by max(1, |max guess|). Past those rows
    every eigenvector below that top has decayed beyond any effect on a
    Sturm count. A window that starts at or above ``_start_clip`` is
    bisected from itself whatever the row count, so its value is
    bit-identical to a solve over every row; a window that starts lower
    keeps every row. The count uses only its size, which the proof
    covers from any start.
    """
    diag, off = _assemble(v, spacing, kinetic)
    highest = float(np.max(guesses))
    live = _live_rows(v, kinetic, spacing, highest + _WINDOW_GROWTH * _COARSE_LIMIT * max(1.0, abs(highest)))
    pad = _rounding_pad(diag)
    clip = _start_clip(v, pad)

    def window(guess: float, half: float) -> np.ndarray:
        rows = live if guess - half >= clip else diag.size
        return _bisect(diag[:rows], off[: rows - 1], "v", (guess - half, guess + half))

    located = []
    top = -math.inf
    half = _WINDOW_SEED * max(1.0, abs(float(guesses[0])))
    for guess in guesses:
        guess = float(guess)
        found = window(guess, half)
        while found.size == 0 and half < _COARSE_LIMIT:
            half *= _WINDOW_GROWTH
            found = window(guess, half)
        if found.size != 1 or guess - half < top:
            break
        located.append(float(found[0]))
        top = guess + half
        half = min(max(_SHIFT_MARGIN * abs(located[-1] - guess), _SHIFT_FLOOR), _COARSE_LIMIT)
    else:
        floor = float(np.min(v[1:-1])) - pad
        if _bisect(diag[:live], off[: live - 1], "v", (floor, top), tol=2.0 * (top - floor)).size == lo + len(guesses):
            return np.array(located)
    return _bisect(diag, off, "i", (lo, lo + len(guesses) - 1))


def _check_grids(grid: Grid) -> tuple[Grid, Grid]:
    """The halved-spacing and doubled-cutoff check grids of ``grid``."""
    if not 2.0 * grid.x_min < grid.x_max:
        raise ValueError(
            f"the doubled-cutoff check grid needs 2 x_min < x_max, got x_min = {grid.x_min}, x_max = {grid.x_max}"
        )
    return grid.halved_spacing(), grid.doubled_cutoff()


def _check_grid_error(sample, checks: tuple[Grid, Grid], kinetic: float, values: np.ndarray, lo: int = 0) -> np.ndarray:
    """Error estimate of eigenvalues lo..lo+len(values)-1, found on the declared grid, from its two check grids.

    ``sample(g)`` is the potential on grid g and ``checks`` comes from
    ``_check_grids``. Each check grid is solved by ``_tridiag_near``
    around ``values``; the estimate is 2 |e - e_half| + |e - e_cut|
    + 1e-10, the half-spacing pair scaled for a second-order scheme with
    safety plus the wall sensitivity.
    """
    half, cut = (_tridiag_near(sample(g), g.spacing, kinetic, values, lo) for g in checks)
    return _RICHARDSON_SAFETY * np.abs(values - half) + np.abs(values - cut) + _RICHARDSON_FLOOR


def fd_eigenvalues(potential, count: int, grid: Grid | None = None, mass: float = 1.0, hbar: float = 1.0) -> OracleReport:
    """Lowest ``count`` eigenvalues of -(hbar^2/2M) f'' + V f on the grid.

    Three Sturm-bisection solves back each value: the declared grid,
    one at half the spacing and one with the inner wall pushed to
    2 x_min. The reported eigenvalues come from the declared grid; the
    error estimate combines the half-spacing pair (scaled for a
    second-order scheme, with safety) with the wall sensitivity.
    Raises GridTooCoarse when any estimate exceeds 1e-3.

    The declared grid is solved by index. The two check grids are
    solved by value (``_check_grid_error``, which ``dirac_selfconsistent``
    shares): each of their eigenvalues is bisected in a small window
    around the declared grid's value, which locates it to within the
    1e-3 limit whenever the grid is fine enough to pass. After a grid's
    first eigenvalue, each window opens at four times the shift just
    measured on that grid (about 1e-10 relative on the doubled-cutoff
    grid) rather than at 1e-7 of the value, and grows tenfold while it
    is empty. The set is kept only when the windows are disjoint, each
    holds exactly one eigenvalue, and a Sturm count above a proven lower
    bound of the spectrum finds exactly ``count`` eigenvalues up to the
    last window; otherwise that grid takes the index solve. Raises
    ValueError before any solve when 2 x_min >= x_max, which leaves no
    doubled-cutoff grid, and DivergenceError naming the scale when
    hbar^2 / (2M) leaves the float range or underflows to 0 (the matrix
    would lose its kinetic term and return the well's minimum).

    Those value solves bisect only the leading rows that an eigenvector
    below the highest window can reach (``_live_rows``). Past the last
    classically allowed row such an eigenvector decays at least as fast
    as a product of the decaying roots of rho + 1/rho = 2 + a, with a the
    suffix minimum of (V - top) / (hbar^2 / 2M h^2). Cauchy interlacing
    and the cut eigenvectors then pin every eigenvalue up to the top
    within about 1e-29 max(1, |top|) of the whole grid's, so every Sturm
    count, and so every reported value and estimate, is bit-identical.
    The index solves, here and in every fallback, keep every row: no
    top is known before them, and LAPACK starts them from an interval
    that widens with the row count.

    V is sampled on the interior points only: the walls are the
    Dirichlet boundary, so V may be infinite or undefined there.
    """
    grid = grid if grid is not None else Grid()
    _check_index(count, "count", 1)
    if count > grid.n_points // 10:
        raise ValueError(f"count = {count} too large for {grid.n_points} grid points")
    _check_positive("mass", mass)
    _check_positive("hbar", hbar)
    kinetic = _in_float_range(_square(hbar, "hbar") / (2.0 * mass), "hbar^2 / (2 M)")
    if kinetic == 0.0:
        raise DivergenceError(f"the scale hbar^2 / (2 M) = ({hbar})^2 / (2 * {mass}) underflows to 0")

    def sample(g: Grid) -> np.ndarray:
        # only the interior enters the matrix (see _assemble): a potential
        # may be infinite, or undefined, at the walls themselves
        v = np.full(g.n_points, math.nan)
        v[1:-1] = _evaluate_on(potential, g.points()[1:-1])
        if not np.all(np.isfinite(v[1:-1])):
            raise ValueError("potential must be finite on the grid interior")
        return v

    checks = _check_grids(grid)
    e_h = _tridiag_lowest(sample(grid), grid.spacing, kinetic, 0, count - 1)
    estimate = _check_grid_error(sample, checks, kinetic, e_h)
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
    the harmonic-ladder scale, each sweep freezes that coefficient,
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
    index solve. Raises UnphysicalRegime when a sweep's weight puts the
    1/x^2 term below the Hardy bound, 1 + 2 g weight < 0, and
    GridTooCoarse when the error estimate exceeds 1e-3.

    Each windowed solve also bisects only the leading rows that an
    eigenvector below the window's top can reach (``_live_rows``, which
    holds the proof: the eigenvector decays past the last classically
    allowed row at least as a product of decaying roots, and Cauchy
    interlacing plus the cut eigenvectors pin each eigenvalue to within
    about 1e-29 max(1, |top|)). The levels and estimates are therefore
    bit-identical to solves over every row. A window that starts below
    where LAPACK would start a solve of the cut matrix keeps every row
    (``_start_clip``), and so does the first solve, the one index solve
    of a level: no top is known before it, and LAPACK starts it from an
    interval that widens with the row count.

    The error estimate re-solves eigenvalue n at the converged weight on
    the halved-spacing and doubled-cutoff grids (``_check_grid_error``,
    shared with ``fd_eigenvalues``). Each is bisected in a window around
    the declared grid's lambda_n and certified by a Sturm count that
    finds exactly n + 1 eigenvalues up to the window's top; otherwise
    that grid takes the index solve. Raises ValueError before any solve
    when 2 x_min >= x_max, which leaves no doubled-cutoff grid, and
    DivergenceError naming the scale when (hbar c)^2 or omega^2 leaves
    the float range or (hbar c)^2 underflows to 0, or naming the well
    when it, or the weighted well w U on any grid solved, leaves the
    float range at an interior grid point; at the least weight a level
    can have, that is checked before any eigensolve.

    The eigenvalue's grid error d_lambda feeds back through the weight:
    the converged level solves E = F(lambda(w(E))), so its error is
    (dE/dlambda) d_lambda / (1 - s), with dE/dlambda = (hbar c)^2 /
    (2E - C) and s = lambda_w / (2E - C), lambda_w = d lambda / d w.
    When every interior U > 0, lambda(w) is concave with lambda(0) >= 0
    (Courant-Fischer), so 0 <= lambda_w <= lambda / w, and the
    dispersion gives lambda / w = E - M c^2. The error is therefore at
    most d_lambda / w, and that is the factor the estimate uses. A well
    with U <= 0 somewhere keeps (hbar c)^2 / |2E - C|.

    For g < 0 the estimate can understate the error: near the Hardy
    edge the inner wall dominates, and the doubled-cutoff re-solve does
    not bound it (at g = -0.1, n = 0 the error is 1.65e-3 against an
    estimate of 8.46e-4 on the default grid).
    """
    n = _check_index(n)
    if p.branch is not Symmetry.SPIN:
        raise ValueError(f"params are for the {p.branch.value} branch")
    grid = grid if grid is not None else Grid()
    if n + 1 > grid.n_points // 10:
        raise ValueError(f"level {n} too high for {grid.n_points} grid points")

    mc2 = p.rest_energy
    offset = p.sym_constant
    hc2 = p._hc2
    b_coef = 2.0 * mc2 - offset
    checks = _check_grids(grid)
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
        # a finite well times a weight can overflow (g = 1e301), as can the well on the halved grid
        with np.errstate(over="ignore"):
            return in_float_range(weight * well, g, f"weighted well {weight} U(x)")

    with np.errstate(over="ignore"):  # an overflow is raised by name
        u = in_float_range(p.potential(x), grid, "well M omega^2 x^2 / 2 + g / (2 x^2)")
    positive = bool(np.all(u[1:-1] > 0.0))
    last: tuple[float, float] | None = None  # (weight, eigenvalue) of the latest solve
    # eigenvalue n is at least w min U (Courant-Fischer), and a level has lambda / w = E - M c^2,
    # so no level has a weight below (2 M c^2 - C + min U) / (hbar c)^2
    weighted_well(max((b_coef + float(np.min(u[1:-1]))) / hc2, 0.0), grid, u)

    def nth_curvature(weight: float) -> float:
        # -f'' + weight * U(x) f, eigenvalue number n
        nonlocal last
        under = 1.0 + 2.0 * p.g * weight
        if under < 0.0:
            raise UnphysicalRegime(f"1 + 2 g |energy_weight| = {under} < 0: no bound ladder at this energy")
        enclosure = None
        if positive and last is not None:
            w_prev, lam_prev = last
            scaled = weight / w_prev * lam_prev
            enclosure = (min(lam_prev, scaled), max(lam_prev, scaled))
        lam = float(_tridiag_lowest(weighted_well(weight, grid, u), grid.spacing, 1.0, n, n, enclosure)[0])
        last = (weight, lam)
        return lam

    e_value = mc2 + p.hbar * p.omega * (2.0 * n + 1.5)
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
        lam = nth_curvature(weight)
        disc = b_coef**2 + 4.0 * lam * hc2
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
    lam_h = nth_curvature(weight)
    with np.errstate(over="ignore"):  # weighted_well names an overflow on a check grid
        errors = _check_grid_error(
            lambda g: weighted_well(weight, g, p.potential(g.points())), checks, 1.0, np.array([lam_h]), n
        )
    lam_err = float(errors[0])
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
