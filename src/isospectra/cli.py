"""Command line front end.

Every run is described by a RunManifest (command, resolved parameters,
output format); ``run_manifest`` is a pure function from that manifest
to output text, so identical invocations produce identical bytes and
the manifest can be logged or replayed. ``main`` only parses flags,
runs the manifest and touches the filesystem.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import golden, nonrel, rel, validate
from .errors import NonNormalizableError, SpectraError

__all__ = ["RunManifest", "RunResult", "build_parser", "run_manifest", "main"]

OUTPUT_FORMATS = ("csv", "json")

_ENERGY_FMT = "{:.7f}"  # fixed 7 decimals for energies
_SAMPLE_FMT = "{:.12g}"  # 12 significant digits for coordinates and samples
_RESIDUAL_FMT = "{:.3e}"


@dataclass(frozen=True)
class RunManifest:
    """Complete, replayable description of one CLI run.

    Every computation here is deterministic, so the manifest carries no
    seed; ``seedless`` stays True as an explicit statement of that.
    """

    command: str
    parameters: dict
    output_format: str
    seedless: bool = True

    def __post_init__(self) -> None:
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}")
        if not self.seedless:
            raise ValueError("runs are deterministic; seedless must stay True")

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "output_format": self.output_format,
            "seedless": self.seedless,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(
            command=data["command"],
            parameters=data["parameters"],
            output_format=data["output_format"],
            seedless=data["seedless"],
        )

    def as_dict(self) -> dict:
        return json.loads(self.to_json())


@dataclass(frozen=True)
class RunResult:
    """What a run wants written where; purely data."""

    exit_code: int
    stdout: str
    files: dict = field(default_factory=dict)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isospectra",
        description="Bound-state ladders and wavefunctions of the isotonic oscillator "
        "across nonrelativistic and relativistic wave equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_physical(sp: argparse.ArgumentParser, with_sym: bool = True) -> None:
        sp.add_argument("--g", type=float, default=None, help="inverse-square coupling strength (default 2)")
        sp.add_argument("--m", type=float, default=None, help="barrier index; sets g = m (m + 1)")
        sp.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
        sp.add_argument("--omega", type=float, default=1.0, help="oscillator frequency (default 1)")
        sp.add_argument("--hbar", type=float, default=1.0, help="reduced Planck constant (default 1)")
        sp.add_argument("--c", type=float, default=1.0, help="speed of light (default 1)")
        if with_sym:
            sp.add_argument("--cs", type=float, default=0.0, help="spin-branch symmetry constant (default 0)")
            sp.add_argument("--cps", type=float, default=0.0, help="pseudospin-branch symmetry constant (default 0)")

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
    wavefunction.add_argument("--x-min", type=float, default=0.0, dest="x_min")
    wavefunction.add_argument("--x-max", type=float, default=5.0, dest="x_max")
    wavefunction.add_argument("--points", type=int, default=501)
    wavefunction.add_argument(
        "--compare-harmonic",
        action="store_true",
        help="add the harmonic eigenfunction column (nonrel branch only)",
    )
    add_physical(wavefunction)
    add_output(wavefunction)

    potential = sub.add_parser("potential", help="sampled isotonic well with its harmonic companion")
    potential.add_argument("--x-min", type=float, default=0.05, dest="x_min")
    potential.add_argument("--x-max", type=float, default=5.0, dest="x_max")
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
    if args.m is not None:
        return args.m * (args.m + 1.0)
    return args.g if args.g is not None else 2.0


def manifest_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunManifest:
    """Validate parsed flags and freeze them into a manifest."""
    command = args.command
    if command == "reproduce-tables":
        return RunManifest(command=command, parameters={"out": args.out}, output_format="csv")

    if command == "validate":
        return RunManifest(
            command=command,
            parameters={"suite": args.suite, "out": args.out},
            output_format=args.format,
        )

    g = _resolve_g(parser, args)
    for name in ("mass", "omega", "hbar", "c"):
        if getattr(args, name) <= 0.0:
            parser.error(f"--{name} must be positive")
    base = {
        "g": g,
        "mass": args.mass,
        "omega": args.omega,
        "hbar": args.hbar,
        "c": args.c,
        "out": args.out,
    }

    if command == "spectrum":
        if args.n_max < 0:
            parser.error("--n-max must be non-negative")
        params = dict(base, branch=args.branch, n_max=args.n_max, cs=args.cs, cps=args.cps)
        return RunManifest(command=command, parameters=params, output_format=args.format)

    if command == "wavefunction":
        if args.n < 0:
            parser.error("--n must be non-negative")
        if args.points < 2:
            parser.error("--points must be at least 2")
        if not args.x_min < args.x_max:
            parser.error("--x-min must be below --x-max")
        if args.branch != "nonrel":
            if args.x_min < 0.0:
                parser.error("spinor components live on x >= 0")
            if args.compare_harmonic:
                parser.error("--compare-harmonic applies to the nonrel branch only")
        elif args.x_min < 0.0:
            d = nonrel.derive(nonrel.OscillatorParams(mass=args.mass, omega=args.omega, g=g, hbar=args.hbar))
            if not (abs(d.m - round(d.m)) <= 1e-9):
                parser.error(
                    f"x < 0 requires an integer barrier index for a normalizable continuation (m = {d.m:.6f})"
                )
        params = dict(
            base,
            branch=args.branch,
            n=args.n,
            x_min=args.x_min,
            x_max=args.x_max,
            points=args.points,
            compare_harmonic=bool(args.compare_harmonic),
            cs=args.cs,
            cps=args.cps,
        )
        return RunManifest(command=command, parameters=params, output_format=args.format)

    if command == "potential":
        if args.points < 2:
            parser.error("--points must be at least 2")
        if args.x_min <= 0.0:
            parser.error("--x-min must be positive (the well diverges at the origin)")
        if not args.x_min < args.x_max:
            parser.error("--x-min must be below --x-max")
        params = dict(base, x_min=args.x_min, x_max=args.x_max, points=args.points)
        return RunManifest(command=command, parameters=params, output_format=args.format)

    parser.error(f"unknown command {command!r}")
    raise AssertionError("unreachable")


def _csv(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _nonrel_params(prm: dict) -> nonrel.OscillatorParams:
    return nonrel.OscillatorParams(mass=prm["mass"], omega=prm["omega"], g=prm["g"], hbar=prm["hbar"])


def _dirac_params(prm: dict, branch: rel.Symmetry) -> rel.DiracParams:
    sym = prm["cs"] if branch is rel.Symmetry.SPIN else prm["cps"]
    return rel.DiracParams(
        mass=prm["mass"],
        omega=prm["omega"],
        g=prm["g"],
        sym_constant=sym,
        hbar=prm["hbar"],
        c=prm["c"],
        branch=branch,
    )


def _run_spectrum(manifest: RunManifest) -> RunResult:
    prm = manifest.parameters
    branch = prm["branch"]
    if branch == "nonrel":
        p = _nonrel_params(prm)
        levels = [nonrel.energy(n, p) for n in range(prm["n_max"] + 1)]
    elif branch == "spin":
        dp = _dirac_params(prm, rel.Symmetry.SPIN)
        levels = [rel.solve_spin_energy(n, dp) for n in range(prm["n_max"] + 1)]
    else:
        dp = _dirac_params(prm, rel.Symmetry.PSEUDOSPIN)
        levels = [rel.solve_pseudospin_energy(n, dp) for n in range(prm["n_max"] + 1)]

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
    return _deliver(manifest, payload)


def _off_origin(sample, xs: np.ndarray) -> np.ndarray:
    """sample(xs) as one array call over the points x != 0, with 0 at the origin."""
    values = np.zeros_like(xs)
    away = xs != 0.0
    values[away] = sample(xs[away])
    return values


def _run_wavefunction(manifest: RunManifest) -> RunResult:
    prm = manifest.parameters
    xs = np.linspace(prm["x_min"], prm["x_max"], prm["points"])
    n = prm["n"]
    branch = prm["branch"]
    energy_out: float | None = None

    if branch == "nonrel":
        p = _nonrel_params(prm)
        energy_out = nonrel.energy(n, p).value
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
    elif branch == "spin":
        dp = _dirac_params(prm, rel.Symmetry.SPIN)
        energy_out = rel.solve_spin_energy(n, dp).value
        columns = {
            "upper": _off_origin(lambda x: rel.spin_upper_spinor(n, dp, energy_out, x), xs),
            "lower": _off_origin(lambda x: rel.spin_lower_spinor(n, dp, energy_out, x), xs),
        }
    else:
        dp = _dirac_params(prm, rel.Symmetry.PSEUDOSPIN)
        energy_out = rel.solve_pseudospin_energy(n, dp).value
        columns = {"lower": _off_origin(lambda x: rel.pseudospin_lower_spinor(n, dp, energy_out, x), xs)}

    names = ["x"] + list(columns)
    if manifest.output_format == "csv":
        lines = [",".join(names)]
        for i, x in enumerate(xs):
            row = [_SAMPLE_FMT.format(float(x))] + [_SAMPLE_FMT.format(columns[c][i]) for c in columns]
            lines.append(",".join(row))
        payload = _csv(lines)
    else:
        payload = _json_text(
            {
                "manifest": manifest.as_dict(),
                "energy": float(_ENERGY_FMT.format(energy_out)),
                "samples": {
                    "x": [float(_SAMPLE_FMT.format(float(x))) for x in xs],
                    **{
                        c: [float(_SAMPLE_FMT.format(v)) for v in vals]
                        for c, vals in columns.items()
                    },
                },
            }
        )
    return _deliver(manifest, payload)


def _run_potential(manifest: RunManifest) -> RunResult:
    prm = manifest.parameters
    xs = np.linspace(prm["x_min"], prm["x_max"], prm["points"])
    p = _nonrel_params(prm)
    iso = p.potential(xs)
    harm = 0.5 * p.mass * p.omega**2 * xs**2

    if manifest.output_format == "csv":
        lines = ["x,isotonic,harmonic"]
        for x, vi, vh in zip(xs, iso, harm):
            lines.append(
                f"{_SAMPLE_FMT.format(float(x))},{_SAMPLE_FMT.format(float(vi))},{_SAMPLE_FMT.format(float(vh))}"
            )
        payload = _csv(lines)
    else:
        payload = _json_text(
            {
                "manifest": manifest.as_dict(),
                "samples": {
                    "x": [float(_SAMPLE_FMT.format(float(v))) for v in xs],
                    "isotonic": [float(_SAMPLE_FMT.format(float(v))) for v in iso],
                    "harmonic": [float(_SAMPLE_FMT.format(float(v))) for v in harm],
                },
            }
        )
    return _deliver(manifest, payload)


def _table_csv(columns, reference_rows) -> str:
    lines = ["n," + ",".join(col.label for col in columns)]
    for n, row in enumerate(reference_rows):
        lines.append(f"{n}," + ",".join(_ENERGY_FMT.format(v) for v in row))
    return _csv(lines)


def _run_reproduce_tables(manifest: RunManifest) -> RunResult:
    out_dir = manifest.parameters["out"]
    computed1 = golden.compute_table1()
    computed2 = golden.compute_table2()
    dev1 = golden.max_deviation(computed1, golden.TABLE1_REFERENCE)
    dev2 = golden.max_deviation(computed2, golden.TABLE2_REFERENCE)
    bound = 5e-7
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
    out = manifest.parameters.get("out")
    if out:
        return RunResult(exit_code=0 if ok else 1, stdout=f"wrote {out}\n", files={out: payload})
    return RunResult(exit_code=0 if ok else 1, stdout=payload)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "wavefunction": _run_wavefunction,
    "potential": _run_potential,
    "reproduce-tables": _run_reproduce_tables,
    "validate": _run_validate,
}


def _deliver(manifest: RunManifest, payload: str) -> RunResult:
    out = manifest.parameters.get("out")
    if out:
        return RunResult(exit_code=0, stdout=f"wrote {out}\n", files={out: payload})
    return RunResult(exit_code=0, stdout=payload)


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
    manifest = manifest_from_args(parser, args)
    try:
        result = run_manifest(manifest)
    except (SpectraError, ValueError) as exc:
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
