"""Command line front end.

Every run is described by a RunManifest (command, resolved parameters,
output format); ``run_manifest`` is a pure function from that manifest
to output text, so identical invocations produce identical bytes and
the manifest can be logged or replayed. ``main`` only parses flags,
runs the manifest and touches the filesystem.

The argument parser is built on the first ``build_parser()`` call and
shared by every later request of the process; parsing never changes it,
so no state carries from one request to the next. Callers must not add
arguments to it.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import golden, nonrel, rel, validate
from .errors import DivergenceError, NonNormalizableError, SpectraError

__all__ = ["RunManifest", "RunResult", "build_parser", "run_manifest", "main"]

OUTPUT_FORMATS = ("csv", "json")

_ENERGY_FMT = "{:.7f}"  # fixed 7 decimals for energies
_SAMPLE_FMT = "%.12g"  # 12 significant digits for coordinates and samples
_RESIDUAL_FMT = "{:.3e}"


@dataclass(frozen=True)
class RunManifest:
    """Complete, replayable description of one CLI run.

    Every computation here is deterministic, so the manifest carries no
    seed; its JSON says so with ``"seedless": true``.
    """

    command: str
    parameters: dict
    output_format: str

    def __post_init__(self) -> None:
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}")

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "output_format": self.output_format,
            "seedless": True,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        if data.get("seedless") is not True:
            raise ValueError(f"runs are deterministic; seedless must be true, got {data.get('seedless')!r}")
        return cls(
            command=data["command"],
            parameters=data["parameters"],
            output_format=data["output_format"],
        )

    def as_dict(self) -> dict:
        return json.loads(self.to_json())


@dataclass(frozen=True)
class RunResult:
    """What a run wants written where; purely data."""

    exit_code: int
    stdout: str
    files: dict = field(default_factory=dict)


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite number, else exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of the scale flags --mass, --omega, --hbar and --c."""
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and shared for the life of the process.

    Parsing reads the parser and never modifies it, and argparse reads the
    terminal width when it formats help, so one parser serves every
    request. Callers must not add arguments or subparsers to it.
    """
    parser = argparse.ArgumentParser(
        prog="isospectra",
        description="Bound-state ladders and wavefunctions of the isotonic oscillator "
        "across nonrelativistic and relativistic wave equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_physical(sp: argparse.ArgumentParser, with_sym: bool = True) -> None:
        sp.add_argument("--g", type=_finite, default=None, help="inverse-square coupling strength (default 2)")
        sp.add_argument("--m", type=_finite, default=None, help="barrier index; sets g = m (m + 1)")
        sp.add_argument("--mass", type=_positive, default=1.0, help="particle mass (default 1)")
        sp.add_argument("--omega", type=_positive, default=1.0, help="oscillator frequency (default 1)")
        sp.add_argument("--hbar", type=_positive, default=1.0, help="reduced Planck constant (default 1)")
        sp.add_argument("--c", type=_positive, default=1.0, help="speed of light (default 1)")
        if with_sym:
            sp.add_argument("--cs", type=_finite, default=0.0, help="spin-branch symmetry constant (default 0)")
            sp.add_argument("--cps", type=_finite, default=0.0, help="pseudospin-branch symmetry constant (default 0)")

    def add_output(sp: argparse.ArgumentParser, default_format: str = "csv") -> None:
        sp.add_argument("--format", choices=OUTPUT_FORMATS, default=default_format, help="output format")
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")

    spectrum = sub.add_parser("spectrum", help="energy ladder of one branch")
    spectrum.add_argument("--branch", choices=("nonrel", "spin", "pseudospin"), default="nonrel")
    spectrum.add_argument("--n-max", type=int, default=10, dest="n_max", help="highest level index (default 10)")
    add_physical(spectrum)
    add_output(spectrum)

    wavefunction = sub.add_parser("wavefunction", help="sampled bound-state wavefunction or spinor components")
    wavefunction.add_argument("--branch", choices=("nonrel", "spin", "pseudospin"), default="nonrel")
    wavefunction.add_argument("--n", type=int, default=0, help="level index (default 0)")
    wavefunction.add_argument("--x-min", type=_finite, default=0.0, dest="x_min")
    wavefunction.add_argument("--x-max", type=_finite, default=5.0, dest="x_max")
    wavefunction.add_argument("--points", type=int, default=501)
    wavefunction.add_argument(
        "--compare-harmonic",
        action="store_true",
        help="add the harmonic eigenfunction column (nonrel branch only)",
    )
    add_physical(wavefunction)
    add_output(wavefunction)

    potential = sub.add_parser("potential", help="sampled isotonic well with its harmonic companion")
    potential.add_argument("--x-min", type=_finite, default=0.05, dest="x_min")
    potential.add_argument("--x-max", type=_finite, default=5.0, dest="x_max")
    potential.add_argument("--points", type=int, default=500)
    add_physical(potential, with_sym=False)
    add_output(potential)

    tables = sub.add_parser("reproduce-tables", help="recompute the reference ladders and compare")
    tables.add_argument("--out", default=".", help="directory for table1.csv and table2.csv (default .)")

    val = sub.add_parser("validate", help="run cross-validation suites")
    val.add_argument("--suite", choices=("all",) + validate.SUITE_NAMES, default="all")
    add_output(val, default_format="json")

    return parser


def _resolve_g(parser: argparse.ArgumentParser, args: argparse.Namespace) -> float:
    if args.g is not None and args.m is not None:
        parser.error("give either --g or --m, not both")
    if args.m is None:
        return args.g if args.g is not None else 2.0
    g = args.m * (args.m + 1.0)
    if not math.isfinite(g):
        parser.error(f"--m {args.m} gives g = m (m + 1) beyond the float range")
    return g


def _check_sample_range(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """--points and the interval [--x-min, --x-max] of a sampling command."""
    if args.points < 2:
        parser.error("--points must be at least 2")
    if not args.x_min < args.x_max:
        parser.error("--x-min must be below --x-max")
    if not math.isfinite(args.x_max - args.x_min):
        parser.error("--x-max - --x-min must stay inside the float range")


def manifest_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunManifest:
    """Validate parsed flags and freeze them into a manifest: every flag but --format, with --g and --m as g."""
    command = args.command
    params = {key: value for key, value in vars(args).items() if key not in ("command", "format", "m")}
    if "g" in params:
        params["g"] = _resolve_g(parser, args)

    if command == "spectrum" and args.n_max < 0:
        parser.error("--n-max must be non-negative")

    if command == "wavefunction":
        if args.n < 0:
            parser.error("--n must be non-negative")
        _check_sample_range(parser, args)
        if args.branch != "nonrel":
            if args.x_min < 0.0:
                parser.error("spinor components live on x >= 0")
            if args.compare_harmonic:
                parser.error("--compare-harmonic applies to the nonrel branch only")
        elif args.x_min < 0.0:
            m = nonrel.derive(_nonrel_params(params)).m
            # m is NaN where g < -1/4 leaves no ladder at all; the run reports that with exit 1
            if math.isfinite(m):
                continued = nonrel.parity_extend(args.n, m, 1.0, args.x_min)
                if isinstance(continued, nonrel.NonNormalizable):
                    parser.error(
                        f"x < 0 requires an integer barrier index for a normalizable continuation (m = {m:.6f})"
                    )

    if command == "potential":
        _check_sample_range(parser, args)
        if args.x_min <= 0.0:
            parser.error("--x-min must be positive (the well diverges at the origin)")

    return RunManifest(command=command, parameters=params, output_format=getattr(args, "format", "csv"))


def _csv(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _nonrel_params(prm: dict) -> nonrel.OscillatorParams:
    return nonrel.OscillatorParams(mass=prm["mass"], omega=prm["omega"], g=prm["g"], hbar=prm["hbar"])


def _resolve_branch(prm: dict):
    """(params, level solver, {column: spinor sampler}) of the manifest's branch; nonrel has no spinors.

    Looked up on their modules at each call, so a wrapper bound there sees every call.
    """
    if prm["branch"] == "nonrel":
        return _nonrel_params(prm), nonrel.energy, {}
    if prm["branch"] == "spin":
        symmetry, sym, solve = rel.Symmetry.SPIN, prm["cs"], rel.solve_spin_energy
        spinors = {"upper": rel.spin_upper_spinor, "lower": rel.spin_lower_spinor}
    else:
        symmetry, sym, solve = rel.Symmetry.PSEUDOSPIN, prm["cps"], rel.solve_pseudospin_energy
        spinors = {"lower": rel.pseudospin_lower_spinor}
    params = rel.DiracParams(
        mass=prm["mass"],
        omega=prm["omega"],
        g=prm["g"],
        sym_constant=sym,
        hbar=prm["hbar"],
        c=prm["c"],
        branch=symmetry,
    )
    return params, solve, spinors


def _run_spectrum(manifest: RunManifest) -> RunResult:
    prm = manifest.parameters
    p, solve, _ = _resolve_branch(prm)
    if prm["branch"] == "nonrel":
        levels = [solve(n, p) for n in range(prm["n_max"] + 1)]
    else:
        levels = rel.solve_levels(prm["n_max"], p)  # one scan for the whole ladder

    if manifest.output_format == "csv":
        lines = ["n,energy,residual"]
        for lv in levels:
            lines.append(f"{lv.n},{_ENERGY_FMT.format(lv.value)},{_RESIDUAL_FMT.format(lv.residual)}")
        payload = _csv(lines)
    else:
        payload = _json_text(
            {
                "manifest": manifest.as_dict(),
                "levels": [
                    {
                        "n": lv.n,
                        "energy": float(_ENERGY_FMT.format(lv.value)),
                        "residual": lv.residual,
                        "branch": lv.branch.value,
                    }
                    for lv in levels
                ],
            }
        )
    return _deliver(manifest, payload, 0)


def _off_origin(sample, xs: np.ndarray) -> np.ndarray:
    """sample(xs) as one array call over the points x != 0, with 0 at the origin."""
    values = np.zeros_like(xs)
    away = xs != 0.0
    values[away] = sample(xs[away])
    return values


def _samples(manifest: RunManifest, xs: np.ndarray, columns: dict, overflow, head: dict) -> str:
    """x and the named columns as CSV rows, or as one JSON document: manifest, head keys, samples.

    A column with a non-finite sample raises DivergenceError(overflow(name)). The CSV
    body is one %-format of a row template over all values.
    """
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            raise DivergenceError(overflow(name))
    names = ["x", *columns]
    arrays = [xs, *columns.values()]
    if manifest.output_format == "csv":
        row = ",".join([_SAMPLE_FMT] * len(arrays)) + "\n"
        body = (row * len(xs)) % tuple(np.column_stack(arrays).ravel().tolist())
        return ",".join(names) + "\n" + body
    document = _json_text({"manifest": manifest.as_dict(), **head})
    return document[: -len("\n}\n")] + _json_samples(names, arrays) + "\n}\n"


def _json_number(token: str) -> str:
    """repr(float(token)), the JSON number json.dumps writes, for a %.12g token spelled otherwise."""
    return repr(float(token)) if "e" in token else token + ".0"


def _respellable(values: np.ndarray) -> np.ndarray:
    """Mask of the values whose %.12g token json can spell otherwise: a superset, see _json_samples."""
    size = np.abs(values)
    return (np.abs(values - np.rint(values)) <= 1e-11 * size) | (size < 1.1e-307)


def _json_samples(names: list, arrays: list) -> str:
    """The ``"samples"`` member of a sample document, as json.dumps(indent=2) writes it.

    Each value is rounded to 12 significant digits, by one %-format per column,
    and json writes the rounded float by float.__repr__, the shortest decimal
    that reads back as the same double. A decimal of at most DBL_DIG = 15
    significant digits names exactly one normal double, and no shorter decimal
    names that double too, so repr gives the digits of the %.12g token itself;
    the tokens go into the document as they are. Only the spelling can differ,
    and those tokens go through ``_json_number``: a positional integer (no "."
    and no "e") lacks repr's ".0", so -0 becomes -0.0; an exponent e+12 to
    e+15 is positional in repr, which uses exponents from 1e16 on; and an
    exponent of -308 and below may be subnormal, which keeps fewer than 12
    digits, so its repr can be shorter.

    Only the tokens of the values ``_respellable`` selects are tested for
    these three kinds, and the mask holds every value whose token is of one
    of them. %.12g rounds v correctly at the 12th digit of its own decade
    10^e <= |v| < 10^(e+1), so the token's decimal value r is within
    0.5 * 10^(e-11) <= 5e-12 |v| of v. Then:

    - An integer token: r is an integer, so |v - rint(v)| <= |v - r| <=
      5e-12 |v|. For v = ±0 both sides of the test are 0. Otherwise
      |v| > 0.99, where rint(v) is within a factor 2 of v, so the subtraction
      is exact (Sterbenz), and fl(1e-11) |v| rounds to at least
      (1 - 2^-52) 1e-11 |v|: twice the bound.
    - An exponent e+12 to e+15: |r| >= 1e12, so |v| >= 999999999999.5 and
      1e-11 |v| >= 9.99, above |v - rint(v)| <= 1/2. The integer term takes
      these, as it takes every value from 5e10 up.
    - An exponent of -308 and below: |r| <= 9.99999999999e-308, so
      |v| < 9.999999999995e-308. The bound 1.1e-307 is a normal double within
      2^-53 of 1.1e-307, so it is 10% above, and the comparison is exact.
    """
    members = []
    for name, values in zip(names, arrays):
        if len(values):
            tokens = (((_SAMPLE_FMT + " ") * len(values)) % tuple(values.tolist())).split()
            for i in np.flatnonzero(_respellable(values)).tolist():
                t = tokens[i]
                if (
                    ("." not in t and "e" not in t)
                    or (t[-4:-1] == "e+1" and t[-1] in "2345")
                    or (t[-5:-2] == "e-3" and t[-2:] >= "08")
                ):
                    tokens[i] = _json_number(t)
            items = "[\n      " + ",\n      ".join(tokens) + "\n    ]"
        else:
            items = "[]"
        members.append(f"    {json.dumps(name)}: {items}")
    return ',\n  "samples": {\n' + ",\n".join(members) + "\n  }"


def _run_wavefunction(manifest: RunManifest) -> RunResult:
    prm = manifest.parameters
    xs = np.linspace(prm["x_min"], prm["x_max"], prm["points"])
    n = prm["n"]
    p, solve, spinors = _resolve_branch(prm)
    energy = solve(n, p).value

    if prm["branch"] == "nonrel":
        isotonic = _off_origin(lambda x: nonrel.wavefunction(n, p, x), np.abs(xs))
        mirror = xs < 0.0
        if np.any(mirror):
            m, x_neg = nonrel.derive(p).m, float(xs[mirror][0])
            sign = nonrel.parity_extend(n, m, 1.0, x_neg)
            if isinstance(sign, nonrel.NonNormalizable):
                raise NonNormalizableError(f"no normalizable continuation to x = {x_neg} for m = {m}")
            isotonic[mirror] *= sign
        columns = {"isotonic": isotonic}
        if prm["compare_harmonic"]:
            columns["harmonic"] = nonrel.harmonic_wavefunction(n, p, xs)
    else:
        columns = {name: _off_origin(lambda x: spinor(n, p, energy, x), xs) for name, spinor in spinors.items()}

    def overflow(name: str) -> str:
        return (
            f"{name} column of level n = {n} has non-finite samples: "
            "a sample leaves the float range at this degree and x"
        )

    head = {"energy": float(_ENERGY_FMT.format(energy))}
    return _deliver(manifest, _samples(manifest, xs, columns, overflow, head), 0)


def _run_potential(manifest: RunManifest) -> RunResult:
    prm = manifest.parameters
    xs = np.linspace(prm["x_min"], prm["x_max"], prm["points"])
    p = _nonrel_params(prm)
    # At the ends of the float range x^2 overflows, or underflows to 0 and
    # g / x^2 is inf or NaN; the sample writer reports the non-finite column.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        columns = {"isotonic": p.potential(xs), "harmonic": 0.5 * p.mass * p.omega**2 * xs**2}

    def overflow(name: str) -> str:
        return (
            f"{name} column has non-finite samples: the well leaves the float range "
            f"on [{prm['x_min']}, {prm['x_max']}]"
        )

    return _deliver(manifest, _samples(manifest, xs, columns, overflow, {}), 0)


def _table_csv(columns, reference_rows) -> str:
    lines = ["n," + ",".join(col.label for col in columns)]
    for n, row in enumerate(reference_rows):
        lines.append(f"{n}," + ",".join(_ENERGY_FMT.format(v) for v in row))
    return _csv(lines)


def _run_reproduce_tables(manifest: RunManifest) -> RunResult:
    out_dir = manifest.parameters["out"]
    computed1, computed2 = golden.compute_tables()
    dev1, dev2 = golden.table_deviations(computed1, computed2)
    bound = golden.TABLE_TOLERANCE
    ok = dev1 <= bound and dev2 <= bound

    files = {
        os.path.join(out_dir, "table1.csv"): _table_csv(golden.TABLE1_COLUMNS, computed1),
        os.path.join(out_dir, "table2.csv"): _table_csv(golden.TABLE2_COLUMNS, computed2),
    }
    lines = [
        f"table1: max deviation {dev1:.3e} (bound {bound:.1e}) {'PASS' if dev1 <= bound else 'FAIL'}",
        f"table2: max deviation {dev2:.3e} (bound {bound:.1e}) {'PASS' if dev2 <= bound else 'FAIL'}",
        f"RESULT {'PASS' if ok else 'FAIL'}",
    ]
    return RunResult(exit_code=0 if ok else 1, stdout="\n".join(lines) + "\n", files=files)


def _run_validate(manifest: RunManifest) -> RunResult:
    rows = validate.run_suites(manifest.parameters["suite"])
    ok = all(r.passed for r in rows)
    if manifest.output_format == "json":
        payload = _json_text([r.as_dict() for r in rows])
    else:
        lines = ["check,value,bound,pass"]
        for r in rows:
            lines.append(f"{r.check},{r.value:.6e},{r.bound:.6e},{'true' if r.passed else 'false'}")
        payload = _csv(lines)
    return _deliver(manifest, payload, 0 if ok else 1)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "wavefunction": _run_wavefunction,
    "potential": _run_potential,
    "reproduce-tables": _run_reproduce_tables,
    "validate": _run_validate,
}


def _deliver(manifest: RunManifest, payload: str, exit_code: int) -> RunResult:
    """The payload on stdout, or in the --out file with a one-line note on stdout."""
    out = manifest.parameters.get("out")
    if out:
        return RunResult(exit_code=exit_code, stdout=f"wrote {out}\n", files={out: payload})
    return RunResult(exit_code=exit_code, stdout=payload)


def run_manifest(manifest: RunManifest) -> RunResult:
    """Execute a manifest; pure except for the cost of computing."""
    try:
        runner = _RUNNERS[manifest.command]
    except KeyError:
        raise ValueError(f"unknown command {manifest.command!r}") from None
    return runner(manifest)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = run_manifest(manifest_from_args(parser, args))
    except (SpectraError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path, content in result.files.items():
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(content)
    if result.stdout:
        sys.stdout.write(result.stdout)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
