"""Independent checks of every operation's output.

Nothing here calls the package: energies are checked against the
quantization condition written out again from the physics (evaluated in
60-digit decimal arithmetic), samples against the closed forms evaluated
with ``scipy.special``, integrals and oracle reports against their
documented bounds, and the reproduced tables against stored digests.

``check(op, output)`` returns None when the output is correct and a short
failure kind (``check:<what>``) otherwise.
"""
from __future__ import annotations

import hashlib
import json
import math
from decimal import Decimal, localcontext

import numpy as np
from scipy import optimize, special

from workloads import Op

SAMPLE_RTOL = 1e-9  # samples against scipy.special, relative
SAMPLE_FLOOR = 1e-2  # ... or to this share of the column peak, near nodes and in the tails
INTEGRAL_TOL = 1e-9  # the orthonormality suite's bound
ODE_BOUND = 1e-6  # the ode suite's bound
ORACLE_RATIO = 1.0  # |oracle - closed form| / error estimate, the oracle suite's bound
SELFCONSISTENT_FLOOR = 1e-6  # the oracle suite's floor under the self-consistent estimate
HALF_DIGIT = Decimal("5e-8")  # half a unit in the 7th decimal

# sha256 of the reproduce-tables CSVs, byte for byte.
TABLE_DIGESTS = {
    "table1.csv": "f213ccd4c6abba434c8bef774454b0421ddabede4792ad8cab421cca302fa009",
    "table2.csv": "acdb282a73b4d0a1f489de5f78d1846e1e75d1a89b6e3086eb1cf30cad662e3e",
}

_DEFAULTS = {"g": None, "m": None, "mass": 1.0, "omega": 1.0, "hbar": 1.0, "c": 1.0, "cs": 0.0, "cps": 0.0}


class CheckFailed(Exception):
    """An output disagrees with its independent check."""


def check(op: Op, output) -> str | None:
    """None when the output passes its check, else ``check:<what>``."""
    try:
        if op.kind in _CLI_CHECKS:
            if output.exit_code != 0:
                raise CheckFailed("exit")
            _CLI_CHECKS[op.kind](op.spec["argv"], output)
        else:
            _ORACLE_CHECKS[op.kind](op.spec, output)
    except CheckFailed as exc:
        return f"check:{exc}"
    except (ValueError, KeyError, IndexError, TypeError):
        return "check:malformed"
    return None


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ------------------------------------------------------------------ argv

def _flags(argv: list[str]) -> dict:
    """The options of one request, with the CLI's documented defaults."""
    out: dict = {"command": argv[0]}
    i = 1
    while i < len(argv):
        name = argv[i][2:].replace("-", "_")
        if name == "compare_harmonic":
            out[name] = True
            i += 1
        else:
            out[name] = argv[i + 1]
            i += 2
    prm = dict(_DEFAULTS)
    for key in prm:
        if key in out:
            prm[key] = float(out[key])
    if prm["m"] is not None:
        prm["g"] = prm["m"] * (prm["m"] + 1.0)
    elif prm["g"] is None:
        prm["g"] = 2.0
    out["prm"] = prm
    return out


# ------------------------------------------------- quantization conditions

def _sqrt(v):
    return v.sqrt() if isinstance(v, Decimal) else math.sqrt(v)


def _isotonic_gap(lam, a, b, n: int):
    """lam - lam_n for -u'' + (a^2 x^2 + b / x^2) u = lam u.

    The ladder lam_n = 2a (2n + 1 + sqrt(1 + 4b) / 2) is the isotonic
    spectrum; both relativistic branches reduce to it with an
    energy-dependent a and b. Works on floats and on Decimals.
    """
    return lam - 2 * a * (2 * n + 1 + _sqrt(1 + 4 * b) / 2)


def _condition(branch: str, eps, n: int, prm: dict):
    """Quantization condition of a relativistic branch; increasing in eps.

    eps = E - M c^2 is the binding energy, so no digits are lost to the
    rest energy. Spin: the upper component obeys -f'' + k U f = k eps f
    with k = (2 M c^2 + eps - C_s) / (hbar c)^2. Pseudospin: the lower
    component obeys -f'' + k U f = k (2 M c^2 + eps) f with
    k = (eps - C_ps) / (hbar c)^2. U is the isotonic well, so
    a^2 = k M omega^2 / 2 and b = k g / 2. Works on floats and on
    Decimals; returns None outside the branch's domain (k <= 0).
    """
    conv = Decimal if isinstance(eps, Decimal) else float
    mass, omega, g, hbar, c = (conv(prm[k]) for k in ("mass", "omega", "g", "hbar", "c"))
    mc2 = mass * c * c
    hc2 = (hbar * c) ** 2
    if branch == "spin":
        k = (2 * mc2 + eps - conv(prm["cs"])) / hc2
        lam = k * eps
    else:
        k = (eps - conv(prm["cps"])) / hc2
        lam = k * (2 * mc2 + eps)
    if k <= 0:
        return None
    return _isotonic_gap(lam, _sqrt(k * mass * omega * omega / 2), k * g / 2, n)


def _brackets_root(branch: str, e_text: str, n: int, prm: dict) -> bool:
    """True when the printed 7-decimal energy is within rounding of a root.

    The window is half a unit in the 7th decimal plus two units in the
    last place of the float, since no float output can do better. The
    rest energy is taken exactly from the parameters.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        eps = Decimal(e_text) - Decimal(prm["mass"]) * Decimal(prm["c"]) ** 2
        half = HALF_DIGIT + 2 * Decimal(math.ulp(float(e_text)))
        lo = _condition(branch, eps - half, n, prm)
        hi = _condition(branch, eps + half, n, prm)
    return lo is not None and hi is not None and lo <= 0 <= hi


def _nonrel_level(n: int, prm: dict) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        mass, omega, g, hbar = (Decimal(prm[k]) for k in ("mass", "omega", "g", "hbar"))
        alpha = mass * g / hbar**2
        return hbar * omega * (2 * n + 1 + (1 + 4 * alpha).sqrt() / 2)


def solve_binding(branch: str, n: int, prm: dict) -> float:
    """Binding energy eps = E - M c^2 of the n-th level, by brentq.

    The condition is negative just above the domain edge (k -> 0) and
    increasing, so the bracket is found by halving an offset above the
    edge until the condition is negative, then doubling until positive.
    """
    mc2 = prm["mass"] * prm["c"] ** 2
    edge = max(0.0, prm["cs"] - 2.0 * mc2) if branch == "spin" else prm["cps"]
    f = lambda eps: _condition(branch, eps, n, prm)  # noqa: E731
    offset = prm["hbar"] * prm["omega"]
    while True:
        f_lo = f(edge + offset)
        if f_lo is not None and f_lo < 0.0:
            break
        if f_lo is None or edge + offset == edge:
            raise CheckFailed("solve")
        offset *= 0.5
    lo, step = edge + offset, offset
    while f(lo + step) <= 0.0:
        step *= 2.0
    return optimize.brentq(f, lo, lo + step, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


# --------------------------------------------------------- closed forms

def _prefactor(n: int, falloff: float, order: float, x: np.ndarray) -> np.ndarray:
    """N x^(1/2+order) exp(-falloff x^2 / 2) with N^2 = 2 falloff^(1+order) n! / Gamma(n + order + 1).

    N makes the envelope times L_n^(order)(falloff x^2) unit-norm on x > 0,
    by the Laguerre weight integral.
    """
    ln_norm = 0.5 * (math.log(2.0) + (1.0 + order) * math.log(falloff) + special.gammaln(n + 1.0) - special.gammaln(n + order + 1.0))
    return np.exp(ln_norm + (0.5 + order) * np.log(x) - 0.5 * falloff * x**2)


def _envelope(n: int, falloff: float, order: float, x: np.ndarray) -> np.ndarray:
    return _prefactor(n, falloff, order, x) * special.eval_genlaguerre(n, order, falloff * x**2)


def _nonrel_state(n: int, prm: dict, x: np.ndarray) -> np.ndarray:
    beta = prm["mass"] * prm["omega"] / prm["hbar"]
    order = 0.5 * math.sqrt(1.0 + 4.0 * prm["mass"] * prm["g"] / prm["hbar"] ** 2)
    return _envelope(n, beta, order, x)


def _harmonic_state(n: int, prm: dict, x: np.ndarray) -> np.ndarray:
    beta = prm["mass"] * prm["omega"] / prm["hbar"]
    ln_norm = 0.25 * math.log(beta / math.pi) - 0.5 * (n * math.log(2.0) + special.gammaln(n + 1.0))
    return np.exp(ln_norm - 0.5 * beta * x**2) * special.eval_hermite(n, math.sqrt(beta) * x)


def _spinor_columns(branch: str, n: int, prm: dict, eps: float, x: np.ndarray) -> dict:
    """Spinor components as rel documents them, at the benchmark's own binding energy eps."""
    mc2 = prm["mass"] * prm["c"] ** 2
    hc2 = (prm["hbar"] * prm["c"]) ** 2
    if branch == "spin":
        denom = 2.0 * mc2 + eps - prm["cs"]  # M c^2 + E - C_s
        k = denom / hc2
    else:
        k = (eps - prm["cps"]) / hc2
    falloff = math.sqrt(0.5 * prm["mass"] * prm["omega"] ** 2 * k)
    order = 0.5 * math.sqrt(1.0 + 2.0 * prm["g"] * k)
    if branch == "pseudospin":
        return {"lower": _envelope(n, falloff, order, x)}
    # lower = (d/dx + kappa / x) upper / (M c^2 + E - C_s) with kappa = -1,
    # using d/dz L_n^(a)(z) = -L_{n-1}^(a+1)(z)
    s = falloff * x**2
    lag = special.eval_genlaguerre(n, order, s)
    dlag = -special.eval_genlaguerre(n - 1, order + 1.0, s) if n > 0 else np.zeros_like(x)
    pre = _prefactor(n, falloff, order, x)
    bracket = ((order - 0.5) / x - falloff * x) * lag + 2.0 * falloff * x * dlag
    return {"upper": pre * lag, "lower": pre * bracket / denom}


def _close(got: np.ndarray, want: np.ndarray, slack: np.ndarray | float = 0.0) -> bool:
    """got matches want to SAMPLE_RTOL, relative to |want| floored at SAMPLE_FLOOR of the peak, plus slack."""
    if not (np.all(np.isfinite(got)) and np.all(np.isfinite(want))):
        return False
    peak = float(np.max(np.abs(want))) if want.size else 0.0
    scale = np.maximum(np.abs(want), SAMPLE_FLOOR * peak)
    return bool(np.all(np.abs(got - want) <= SAMPLE_RTOL * scale + slack + 1e-300))


# ---------------------------------------------------------------- outputs

def _csv_columns(output) -> dict:
    lines = output.stdout.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _check_spectrum(argv: list[str], output) -> None:
    f = _flags(argv)
    prm, branch = f["prm"], f.get("branch", "nonrel")
    n_max = int(f.get("n_max", 10))
    if f.get("format", "csv") == "csv":
        cols = _csv_columns(output)
        _require(list(cols) == ["n", "energy", "residual"], "header")
        levels = [(int(n), e, float(r)) for n, e, r in zip(cols["n"], cols["energy"], cols["residual"])]
    else:
        payload = json.loads(output.stdout)
        levels = [(lv["n"], repr(float(lv["energy"])), float(lv["residual"])) for lv in payload["levels"]]
    _require([lv[0] for lv in levels] == list(range(n_max + 1)), "levels")
    for n, e_text, residual in levels:
        _require(math.isfinite(float(e_text)) and math.isfinite(residual) and residual >= 0.0, "nonfinite")
        if branch == "nonrel":
            exact = _nonrel_level(n, prm)
            tol = HALF_DIGIT + 2 * Decimal(math.ulp(float(e_text)))
            _require(abs(Decimal(e_text) - exact) <= tol, "energy")
        else:
            _require(_brackets_root(branch, e_text, n, prm), "bracket")


def _check_wavefunction(argv: list[str], output) -> None:
    f = _flags(argv)
    prm, branch = f["prm"], f.get("branch", "nonrel")
    n = int(f.get("n", 0))
    x = np.linspace(float(f.get("x_min", 0.0)), float(f.get("x_max", 5.0)), int(f.get("points", 501)))
    if f.get("format", "csv") == "csv":
        got = {name: np.array(v, dtype=float) for name, v in _csv_columns(output).items()}
        e_text = None
    else:
        payload = json.loads(output.stdout)
        got = {name: np.asarray(v, dtype=float) for name, v in payload["samples"].items()}
        e_text = repr(float(payload["energy"]))
    _require(_close(got["x"], x), "x")

    pos = x > 0.0
    want: dict[str, np.ndarray] = {}
    slack: dict[str, np.ndarray] = {}
    if branch == "nonrel":
        if e_text is not None:
            tol = HALF_DIGIT + 2 * Decimal(math.ulp(float(e_text)))
            _require(abs(Decimal(e_text) - _nonrel_level(n, prm)) <= tol, "energy")
        iso = np.zeros_like(x)
        iso[pos] = _nonrel_state(n, prm, x[pos])
        neg = x < 0.0
        if np.any(neg):
            # mirror through the barrier: psi(-x) = (-1)^(m+1) psi(x), integer m
            sign = -1.0 if (int(round(prm["m"])) + 1) % 2 else 1.0
            iso[neg] = sign * _nonrel_state(n, prm, -x[neg])
        want["isotonic"] = iso
        if f.get("compare_harmonic"):
            want["harmonic"] = _harmonic_state(n, prm, x)
    else:
        if e_text is not None:
            _require(_brackets_root(branch, e_text, n, prm), "bracket")
        # The spinor functions take the total energy E, so their samples
        # cannot be closer than the change two float ulps of E make.
        eps = solve_binding(branch, n, prm)
        ulps = 2.0 * math.ulp(eps + prm["mass"] * prm["c"] ** 2)
        cols = _spinor_columns(branch, n, prm, eps, x[pos])
        nudged = _spinor_columns(branch, n, prm, eps + ulps, x[pos])
        for name, vals in cols.items():
            want[name] = np.zeros_like(x)
            want[name][pos] = vals
            slack[name] = np.zeros_like(x)
            slack[name][pos] = np.abs(nudged[name] - vals)
    _require(sorted(got) == sorted(["x"] + list(want)), "columns")
    for name, vals in want.items():
        _require(_close(got[name], vals, slack.get(name, 0.0)), "samples")


def _check_potential(argv: list[str], output) -> None:
    f = _flags(argv)
    prm = f["prm"]
    x = np.linspace(float(f.get("x_min", 0.05)), float(f.get("x_max", 5.0)), int(f.get("points", 500)))
    if f.get("format", "csv") == "csv":
        got = {name: np.array(v, dtype=float) for name, v in _csv_columns(output).items()}
    else:
        got = {k: np.asarray(v, dtype=float) for k, v in json.loads(output.stdout)["samples"].items()}
    harmonic = 0.5 * prm["mass"] * prm["omega"] ** 2 * x**2
    want = {"x": x, "isotonic": harmonic + prm["g"] / (2.0 * x**2), "harmonic": harmonic}
    _require(sorted(got) == sorted(want), "columns")
    for name, vals in want.items():
        _require(_close(got[name], vals), "samples")


def _check_tables(argv: list[str], output) -> None:
    _require(output.stdout.rstrip().endswith("RESULT PASS"), "tables")
    digests = {path.replace("\\", "/").rsplit("/", 1)[-1]: hashlib.sha256(text.encode()).hexdigest() for path, text in output.files.items()}
    _require(digests == TABLE_DIGESTS, "digest")


_CLI_CHECKS = {
    "spectrum": _check_spectrum,
    "wavefunction": _check_wavefunction,
    "potential": _check_potential,
    "reproduce-tables": _check_tables,
}


# ---------------------------------------------------------------- oracles

def _check_integral(value: float, target: float) -> None:
    _require(math.isfinite(value), "nonfinite")
    _require(abs(value - target) <= INTEGRAL_TOL, "integral")


def _natural(**kw) -> dict:
    prm = {"mass": 1.0, "omega": 1.0, "hbar": 1.0, "c": 1.0, "cs": 0.0, "cps": 0.0, "g": 2.0}
    prm.update(kw)
    return prm


def _check_fd(spec: dict, report) -> None:
    prm = _natural(g=spec["g"])
    _require(len(report.eigenvalues) == spec["count"], "count")
    for n, (value, estimate) in enumerate(zip(report.eigenvalues, report.richardson_error)):
        exact = float(_nonrel_level(n, prm))
        _require(math.isfinite(value) and estimate > 0.0, "nonfinite")
        _require(abs(value - exact) / estimate <= ORACLE_RATIO, "fd-ratio")


def _check_selfconsistent(spec: dict, report) -> None:
    exact = 1.0 + solve_binding("spin", spec["n"], _natural(g=spec["g"], cs=spec["sym"]))  # M c^2 = 1
    value, estimate = report.eigenvalues[0], report.richardson_error[0]
    _require(math.isfinite(value), "nonfinite")
    _require(abs(value - exact) / max(SELFCONSISTENT_FLOOR, estimate) <= ORACLE_RATIO, "selfconsistent-ratio")


def _check_ode(spec: dict, value: float) -> None:
    _require(math.isfinite(value) and value <= ODE_BOUND, "ode")


def _check_scan(spec: dict, roots: list) -> None:
    _require(len(roots) == 1, "root-count")
    key = "cs" if spec["branch"] == "spin" else "cps"
    prm = _natural(g=spec["g"], **{key: spec["sym"]})
    with localcontext() as ctx:
        ctx.prec = 60
        eps, h = Decimal(roots[0]) - 1, Decimal("1e-9")  # M c^2 = 1
        lo = _condition(spec["branch"], eps - h, spec["n"], prm)
        hi = _condition(spec["branch"], eps + h, spec["n"], prm)
    _require(lo is not None and hi is not None and lo <= 0 <= hi, "bracket")


_ORACLE_CHECKS = {
    "quad-nonrel": lambda s, v: _check_integral(v, 1.0 if s["i"] == s["j"] else 0.0),
    "quad-harmonic": lambda s, v: _check_integral(2.0 * v, 1.0),  # |psi|^2 is even
    "quad-radial3d": lambda s, v: _check_integral(v, 1.0 if s["i"] == s["j"] else 0.0),
    "quad-spin-upper": lambda s, v: _check_integral(v, 1.0),
    "quad-pseudospin-lower": lambda s, v: _check_integral(v, 1.0),
    "fd-default": _check_fd,
    "fd-ladder": _check_fd,
    "dirac-selfconsistent": _check_selfconsistent,
    "ode-residual": _check_ode,
    "scan-roots": _check_scan,
}
