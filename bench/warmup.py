"""One call per entry point the workloads use, on tiny inputs.

Run as a script it is the set-up the benchmark times: a fresh interpreter
that imports the package (which pulls in ``scipy.linalg``) and warms every
entry point once. The harness also calls ``warm_up()`` in process before
it times anything, so lazy imports and first-call costs stay out of the
measured passes.
"""
from __future__ import annotations


def warm_up() -> None:
    from isospectra import cli, nonrel, oracle, rel

    parser = cli.build_parser()
    for argv in (
        ["spectrum", "--branch", "spin", "--n-max", "1", "--format", "json"],
        ["wavefunction", "--branch", "spin", "--points", "20"],
        ["potential", "--points", "20"],
    ):
        cli.run_manifest(cli.manifest_from_args(parser, parser.parse_args(argv)))
    p = nonrel.OscillatorParams()
    oracle.quadrature(lambda x: float(nonrel.wavefunction(0, p, x)) ** 2 if x > 0.0 else 0.0, 0.0, 4.0, tol=1e-6)
    small = oracle.Grid(n_points=2000)
    oracle.fd_eigenvalues(p.potential, count=1, grid=small)
    dp = rel.DiracParams()
    oracle.dirac_selfconsistent(0, dp, grid=small)
    oracle.scan_roots(lambda e: rel.spin_energy_residual(e, 0, dp), 1.0, 10.0, 20)
    x = small.points()
    oracle.ode_residual(nonrel.wavefunction(0, p, x), lambda x: x**2 + 2.0 / x**2 - 5.0, small)


if __name__ == "__main__":
    warm_up()
