"""Seeded operation lists for the three benchmark workloads, and how to run one operation.

Every list is a pure function of (workload, seed). Each list has a fixed
size and a fixed number of operations per class; the seed draws the
parameters inside each class (see ``_Design``) and the order of the list.
That keeps the cost of a list, and so the end-to-end figures, close
across seeds while every seed still sends different inputs.

The program sees only the generated inputs: argv lists for the CLI, and
parameter sets turned into calls of the public API for the oracle
workloads.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from isospectra import cli, nonrel, oracle, rel

WORKLOADS = ("cli-requests", "quadrature-norms", "grid-oracles")
# Workloads whose time goes to the interpreter, so their latencies are
# reported at the reference speed of an interpreter-bound kernel (see
# harness.calibrate). grid-oracles spends its time in LAPACK, whose speed
# the measured drift of the shared cores leaves alone: over ten seeds its
# raw spreads were 4-5% and the kernel's 21%.
INTERPRETER_BOUND = ("cli-requests", "quadrature-norms")

QUAD_TOL = 1e-11  # the orthonormality suite's quadrature tolerance
FD_LADDER = (4000, 8000, 16000)  # the oracle suite's convergence-order ladder
ODE_GRID = (0.3, 3.0, 2001)  # the ode suite's grid: x_min, x_max, points
SCAN_TOP, SCAN_STEPS = 50.0, 400  # the oracle suite's root-uniqueness window

# Decades slice of cli-requests: the parameter domain ROADMAP item 4
# targets. Ranges as (low, high), drawn log-uniform.
DECADES = {"mass": (1e-2, 1e4), "omega": (1e-2, 1e4), "c": (1.0, 1e4), "g": (1e-2, 1e6)}


@dataclass(frozen=True)
class Op:
    """One operation: its class, whether it is in the decades slice, its input."""

    kind: str
    spec: dict
    decades: bool = False

    def as_json(self) -> dict:
        return {"kind": self.kind, "decades": self.decades, "spec": self.spec}


def ops_digest(ops: list[Op]) -> str:
    text = json.dumps([op.as_json() for op in ops], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class _Design:
    """Stratified draws for one operation class.

    Each parameter takes one value in each of k equal slices of its range.
    Which slice goes to which operation is fixed by the class and parameter
    name, not by the seed, so the joint design of a class (which size goes
    with which level index, format and coupling) is the same for every
    seed. Integers sit at the centre of their slices; the seed draws each
    continuous value inside the middle half of its slice. That keeps a
    list's cost distribution, and so its latency percentiles, steady
    across seeds.
    """

    def __init__(self, rng: random.Random, name: str, k: int) -> None:
        self.rng, self.name, self.k = rng, name, k

    def _slots(self, param: str) -> list[int]:
        order = list(range(self.k))
        random.Random(f"{self.name}:{param}").shuffle(order)
        return order

    def fractions(self, param: str) -> list[float]:
        return [(slot + 0.25 + 0.5 * self.rng.random()) / self.k for slot in self._slots(param)]

    def uniform(self, param, lo, hi):
        return [lo + (hi - lo) * u for u in self.fractions(param)]

    def log_uniform(self, param, lo, hi):
        return [lo * (hi / lo) ** u for u in self.fractions(param)]

    def integers(self, param, lo, hi):
        return [lo + int((slot + 0.5) / self.k * (hi - lo + 1)) for slot in self._slots(param)]

    def cycled(self, param, choices):
        """Every choice equally often, in an order fixed by the name."""
        vals = [choices[i % len(choices)] for i in range(self.k)]
        random.Random(f"{self.name}:{param}").shuffle(vals)
        return vals


def _num(x: float) -> str:
    return repr(float(x))


def _sym_flag(branch: str) -> str:
    return "--cs" if branch == "spin" else "--cps"


# ------------------------------------------------------------ cli-requests

def _cli_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    k = 14  # per branch and command
    for branch in ("nonrel", "spin", "pseudospin"):
        d = _Design(rng, f"spectrum:{branch}", k)
        n_maxes, gs = d.integers("n_max", 0, 40), d.log_uniform("g", 0.5, 50.0)
        cs, syms, fmts = d.log_uniform("c", 1.0, 100.0), d.log_uniform("sym", 1.0, 100.0), d.cycled("format", ("csv", "json"))
        for i in range(k):
            argv = ["spectrum", "--branch", branch, "--n-max", str(n_maxes[i]), "--g", _num(gs[i]), "--format", fmts[i]]
            if branch != "nonrel":
                argv += ["--c", _num(cs[i]), _sym_flag(branch), _num(syms[i])]
            ops.append(Op("spectrum", {"argv": argv}))

    for branch in ("nonrel", "spin", "pseudospin"):
        d = _Design(rng, f"wavefunction:{branch}", k)
        ns, points = d.integers("n", 0, 20), d.log_uniform("points", 200, 5000)
        gs, cs, syms = d.log_uniform("g", 0.5, 50.0), d.log_uniform("c", 1.0, 100.0), d.log_uniform("sym", 1.0, 100.0)
        x_maxes, fmts = d.uniform("x_max", 3.0, 8.0), d.cycled("format", ("csv", "json"))
        # nonrel only: a third sample x < 0 at an integer barrier index m,
        # half add the harmonic column
        mirrored, harmonic = d.cycled("mirrored", (True, False, False)), d.cycled("harmonic", (True, False))
        ms = d.integers("m", 1, 6)
        for i in range(k):
            argv = ["wavefunction", "--branch", branch, "--n", str(ns[i]), "--points", str(round(points[i])),
                    "--x-max", _num(x_maxes[i]), "--format", fmts[i]]
            if branch != "nonrel":
                argv += ["--g", _num(gs[i]), "--c", _num(cs[i]), _sym_flag(branch), _num(syms[i])]
            elif mirrored[i]:
                argv += ["--m", str(ms[i]), "--x-min", _num(-x_maxes[i])]
            else:
                argv += ["--g", _num(gs[i])]
            if branch == "nonrel" and harmonic[i]:
                argv.append("--compare-harmonic")
            ops.append(Op("wavefunction", {"argv": argv}))

    d = _Design(rng, "potential", 20)
    points, gs = d.log_uniform("points", 200, 5000), d.log_uniform("g", 0.5, 50.0)
    x_mins, x_maxes, fmts = d.uniform("x_min", 0.05, 0.5), d.uniform("x_max", 3.0, 8.0), d.cycled("format", ("csv", "json"))
    for i in range(d.k):
        argv = ["potential", "--g", _num(gs[i]), "--x-min", _num(x_mins[i]), "--x-max", _num(x_maxes[i]),
                "--points", str(round(points[i])), "--format", fmts[i]]
        ops.append(Op("potential", {"argv": argv}))

    # 8 of the 124 requests: enough that the p91 latency falls among them
    for _ in range(8):
        ops.append(Op("reproduce-tables", {"argv": ["reproduce-tables", "--out", "tables"]}))

    # Decades slice, 12 of the 124 requests: spectra and wavefunctions with
    # mass, omega, c and g each drawn over several decades.
    d = _Design(rng, "decades", 12)
    kinds, branches = d.cycled("kind", ("spectrum", "spectrum", "wavefunction")), d.cycled("branch", ("nonrel", "spin", "pseudospin"))
    draws = {name: d.log_uniform(name, lo, hi) for name, (lo, hi) in DECADES.items()}
    n_maxes, ns, points = d.integers("n_max", 0, 40), d.integers("n", 0, 20), d.log_uniform("points", 200, 5000)
    for i in range(d.k):
        physical = ["--mass", _num(draws["mass"][i]), "--omega", _num(draws["omega"][i]),
                    "--c", _num(draws["c"][i]), "--g", _num(draws["g"][i])]
        if kinds[i] == "spectrum":
            argv = ["spectrum", "--branch", branches[i], "--n-max", str(n_maxes[i])] + physical
        else:
            # the oscillator length sqrt(hbar / (M omega)) sets the window
            x_max = 6.0 / math.sqrt(draws["mass"][i] * draws["omega"][i])
            argv = ["wavefunction", "--branch", branches[i], "--n", str(ns[i]), "--points", str(round(points[i])),
                    "--x-max", _num(x_max)] + physical
        ops.append(Op(kinds[i], {"argv": argv}, decades=True))

    rng.shuffle(ops)
    return ops


# -------------------------------------------------------- quadrature-norms

def _quadrature_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    # One nonrel pair i <= j <= 8 per degree sum i + j = 0..16; the pair
    # for each sum is fixed, the seed draws the coupling.
    d = _Design(rng, "quad-nonrel", 17)
    for s, g in zip(range(17), d.log_uniform("g", 0.5, 6.0)):
        pairs = [(i, s - i) for i in range(s // 2 + 1) if s - i <= 8]
        i, j = random.Random(f"quad-nonrel:pair:{s}").choice(pairs)
        ops.append(Op("quad-nonrel", {"i": i, "j": j, "g": g}))
    d = _Design(rng, "quad-harmonic", 4)
    for n in d.integers("n", 0, 8):
        ops.append(Op("quad-harmonic", {"n": n}))
    d = _Design(rng, "quad-radial3d", 4)
    for a, b, l in zip(d.integers("i", 0, 3), d.integers("j", 0, 3), d.integers("l", 0, 3)):
        ops.append(Op("quad-radial3d", {"i": min(a, b), "j": max(a, b), "l": l}))
    d = _Design(rng, "quad-spin-upper", 4)
    for n, g, cs in zip(d.integers("n", 0, 4), d.log_uniform("g", 0.5, 6.0), d.uniform("sym", 0.0, 2.0)):
        ops.append(Op("quad-spin-upper", {"n": n, "g": g, "sym": cs}))
    d = _Design(rng, "quad-pseudospin-lower", 4)
    for n, g, cps in zip(d.integers("n", 0, 3), d.log_uniform("g", 0.5, 6.0), d.uniform("sym", -13.0, 0.0)):
        ops.append(Op("quad-pseudospin-lower", {"n": n, "g": g, "sym": cps}))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------ grid-oracles

def _grid_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    d = _Design(rng, "fd-default", 12)
    for count, g in zip(2 * list(range(1, 7)), d.log_uniform("g", 0.5, 6.0)):
        ops.append(Op("fd-default", {"g": g, "count": count}))
    ladder = [(m, c) for m in FD_LADDER for c in range(1, 7)]
    d = _Design(rng, "fd-ladder", len(ladder))
    for (m, count), g in zip(ladder, d.log_uniform("g", 0.5, 6.0)):
        ops.append(Op("fd-ladder", {"g": g, "count": count, "n_points": m}))
    d = _Design(rng, "dirac-selfconsistent", 4)
    for n, g, cs in zip(range(4), d.log_uniform("g", 0.5, 6.0), d.uniform("sym", 0.0, 2.0)):
        ops.append(Op("dirac-selfconsistent", {"n": n, "g": g, "sym": cs}))
    d = _Design(rng, "ode-residual", 6)
    for branch, n, g, u in zip(d.cycled("branch", ("nonrel", "spin", "pseudospin")), d.integers("n", 0, 3),
                               d.log_uniform("g", 0.5, 6.0), d.fractions("sym")):
        sym = {"nonrel": 0.0, "spin": 2.0 * u, "pseudospin": -13.0 * u}[branch]
        ops.append(Op("ode-residual", {"branch": branch, "n": n, "g": g, "sym": sym}))
    d = _Design(rng, "scan-roots", 6)
    for branch, n, g, u in zip(d.cycled("branch", ("spin", "pseudospin")), d.integers("n", 0, 10),
                               d.log_uniform("g", 0.5, 6.0), d.fractions("sym")):
        sym = 2.0 * u if branch == "spin" else -13.0 * u
        ops.append(Op("scan-roots", {"branch": branch, "n": n, "g": g, "sym": sym}))
    rng.shuffle(ops)
    return ops


_GENERATORS = {"cli-requests": _cli_ops, "quadrature-norms": _quadrature_ops, "grid-oracles": _grid_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operation list of a workload for a seed."""
    try:
        generate = _GENERATORS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}") from None
    return generate(random.Random(f"{workload}:{seed}"))


# ------------------------------------------------------------- execution
# Calls go through module attributes (``oracle.quadrature``, not a bound
# name), so the traced run's wrappers see every call.

def execute(op: Op):
    """Run one operation against the package and return its raw output."""
    kind, s = op.kind, op.spec
    if kind in ("spectrum", "wavefunction", "potential", "reproduce-tables"):
        parser = cli.build_parser()
        args = parser.parse_args(s["argv"])
        return cli.run_manifest(cli.manifest_from_args(parser, args))

    if kind.startswith("quad-"):
        return oracle.quadrature(_integrand(op), 0.0, math.inf, tol=QUAD_TOL)

    if kind == "fd-default":
        p = nonrel.OscillatorParams(g=s["g"])
        return oracle.fd_eigenvalues(p.potential, count=s["count"])
    if kind == "fd-ladder":
        p = nonrel.OscillatorParams(g=s["g"])
        return oracle.fd_eigenvalues(p.potential, count=s["count"], grid=oracle.Grid(n_points=s["n_points"]))
    if kind == "dirac-selfconsistent":
        p = rel.DiracParams(g=s["g"], sym_constant=s["sym"], branch=rel.Symmetry.SPIN)
        return oracle.dirac_selfconsistent(s["n"], p)
    if kind == "ode-residual":
        return _ode_residual(s)
    if kind == "scan-roots":
        branch = rel.Symmetry.SPIN if s["branch"] == "spin" else rel.Symmetry.PSEUDOSPIN
        p = rel.DiracParams(g=s["g"], sym_constant=s["sym"], branch=branch)
        n = s["n"]
        if branch is rel.Symmetry.SPIN:
            lo = max(p.rest_energy, p.sym_constant - p.rest_energy)
            return oracle.scan_roots(lambda e: rel.spin_energy_residual(e, n, p), lo, SCAN_TOP, SCAN_STEPS)
        lo = p.rest_energy + p.sym_constant
        return oracle.scan_roots(lambda e: rel.pseudospin_energy_residual(e, n, p), lo, SCAN_TOP, SCAN_STEPS)
    raise ValueError(f"unknown operation kind {kind!r}")


def _integrand(op: Op):
    """Scalar integrand on x > 0 built from the package's closed forms, as validate builds it."""
    kind, s = op.kind, op.spec
    if kind == "quad-nonrel":
        p = nonrel.OscillatorParams(g=s["g"])
        i, j = s["i"], s["j"]
        return lambda x: 0.0 if x <= 0.0 else float(nonrel.wavefunction(i, p, x)) * float(nonrel.wavefunction(j, p, x))
    if kind == "quad-harmonic":
        p = nonrel.OscillatorParams()
        n = s["n"]
        return lambda x: float(nonrel.harmonic_wavefunction(n, p, x)) ** 2
    if kind == "quad-radial3d":
        p = nonrel.OscillatorParams()
        i, j, l = s["i"], s["j"], s["l"]
        return lambda r: 0.0 if r <= 0.0 else float(nonrel.oscillator3d_radial(i, l, p, r)) * float(
            nonrel.oscillator3d_radial(j, l, p, r)
        )
    n = s["n"]
    if kind == "quad-spin-upper":
        p = rel.DiracParams(g=s["g"], sym_constant=s["sym"], branch=rel.Symmetry.SPIN)
        e = rel.solve_spin_energy(n, p).value
        return lambda x: 0.0 if x <= 0.0 else float(rel.spin_upper_spinor(n, p, e, x)) ** 2
    if kind == "quad-pseudospin-lower":
        p = rel.DiracParams(g=s["g"], sym_constant=s["sym"], branch=rel.Symmetry.PSEUDOSPIN)
        e = rel.solve_pseudospin_energy(n, p).value
        return lambda x: 0.0 if x <= 0.0 else float(rel.pseudospin_lower_spinor(n, p, e, x)) ** 2
    raise ValueError(f"unknown quadrature kind {kind!r}")


def _ode_residual(s: dict) -> float:
    """Grid defect of a closed-form state against its own ODE.

    The ODE coefficient is written out here from the physics, not taken
    from the package, so the check does not reuse the code it checks.
    """
    grid = oracle.Grid(*ODE_GRID)
    x = grid.points()
    n, g = s["n"], s["g"]
    if s["branch"] == "nonrel":
        p = nonrel.OscillatorParams(g=g)
        e = nonrel.energy(n, p).value
        samples = nonrel.wavefunction(n, p, x)
        coeff = lambda x: x**2 + g / x**2 - 2.0 * e  # noqa: E731  (M = omega = hbar = 1)
    elif s["branch"] == "spin":
        p = rel.DiracParams(g=g, sym_constant=s["sym"], branch=rel.Symmetry.SPIN)
        e = rel.solve_spin_energy(n, p).value
        samples = rel.spin_upper_spinor(n, p, e, x)
        w = 1.0 + e - s["sym"]  # (M c^2 + E - C_s) / (hbar c)^2 at natural units
        coeff = lambda x: w * (0.5 * x**2 + 0.5 * g / x**2) - w * (e - 1.0)  # noqa: E731
    else:
        p = rel.DiracParams(g=g, sym_constant=s["sym"], branch=rel.Symmetry.PSEUDOSPIN)
        e = rel.solve_pseudospin_energy(n, p).value
        samples = rel.pseudospin_lower_spinor(n, p, e, x)
        w = e - 1.0 - s["sym"]  # (E - M c^2 - C_ps) / (hbar c)^2 at natural units
        coeff = lambda x: w * (0.5 * x**2 + 0.5 * g / x**2) - w * (e + 1.0)  # noqa: E731
    return oracle.ode_residual(np.asarray(samples), coeff, grid)
