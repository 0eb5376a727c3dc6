"""Tests of the benchmark itself: seeding, tracing, checks and summaries.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""
from __future__ import annotations

import dataclasses
import math

import pytest

import checks
import harness
import workloads
from isospectra import nonrel, oracle, rel, specfun
from tracer import Tracer
from workloads import WORKLOADS, Op, make_ops, ops_digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_operation_list(workload):
    assert ops_digest(make_ops(workload, 7)) == ops_digest(make_ops(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_list_same_shape(workload):
    a, b = make_ops(workload, 7), make_ops(workload, 8)
    assert ops_digest(a) != ops_digest(b)
    assert len(a) == len(b)
    assert sorted(op.kind for op in a) == sorted(op.kind for op in b)
    assert sum(op.decades for op in a) == sum(op.decades for op in b)


def test_decades_slice_is_a_tenth_of_cli_requests():
    ops = make_ops("cli-requests", 3)
    assert len(ops) == 124 and sum(op.decades for op in ops) == 12


def _small_ops():
    """A cheap cut through all three workloads."""
    cli = [op for op in make_ops("cli-requests", 5) if not op.decades]
    picked = [op for op in cli if op.kind == "spectrum"][:3] + [op for op in cli if op.kind == "wavefunction"][:2]
    picked += [op for op in make_ops("quadrature-norms", 5) if op.kind == "quad-nonrel" and op.spec["i"] + op.spec["j"] <= 1]
    picked += [op for op in make_ops("grid-oracles", 5) if op.kind in ("scan-roots", "ode-residual")
               or (op.kind == "fd-ladder" and op.spec["n_points"] == 4000 and op.spec["count"] <= 2)]
    return picked


def _traced_counts(ops):
    outcomes = harness.Outcomes(ops)
    tracer = Tracer()
    with tracer:
        harness.run_pass(ops, outcomes, tracer)
    return tracer.counts(), outcomes.failure


def test_two_traced_runs_give_identical_counts():
    ops = _small_ops()
    first, failures = _traced_counts(ops)
    second, _ = _traced_counts(ops)
    assert first == second
    assert failures == [None] * len(ops)
    assert first["oracle.quadrature.evals"] > 0 and first["rel.residual.calls"] > 0
    assert first["specfun.laguerre.scalar_calls"] > 0 and first["specfun.laguerre.array_calls"] > 0


def test_tracer_restores_every_binding():
    before = (nonrel.laguerre, rel.laguerre, oracle.eigh_tridiagonal, oracle.quadrature, specfun.laguerre)
    with Tracer():
        assert nonrel.laguerre is not before[0] and nonrel.laguerre is rel.laguerre is specfun.laguerre
        assert oracle.eigh_tridiagonal is not before[2]
    assert (nonrel.laguerre, rel.laguerre, oracle.eigh_tridiagonal, oracle.quadrature, specfun.laguerre) == before


def test_spans_nest_inside_operations():
    ops = [op for op in make_ops("cli-requests", 2) if op.kind == "spectrum" and "spin" in op.spec["argv"]][:1]
    outcomes = harness.Outcomes(ops)
    tracer = Tracer()
    with tracer:
        harness.run_pass(ops, outcomes, tracer)
    spans = {s[0]: s for s in tracer.spans}
    names = [s[1] for s in tracer.spans]
    assert names.count("op") == 1 and "cli.run_manifest" in names and "rel.solve" in names
    for span_id, name, start, end, parent, op_index in tracer.spans:
        assert end >= start and op_index == 0
        if parent is not None:
            assert spans[parent][2] <= start and end <= spans[parent][3]
    solve = tracer.stat("rel.solve")
    assert 0.0 <= solve.self_seconds <= solve.seconds


# ------------------------------------------------- ROADMAP baseline counts

def _trace(fn):
    tracer = Tracer()
    with tracer:
        fn()
    return tracer


def test_spin_solve_takes_roadmap_residual_count():
    from isospectra import golden

    tracer = _trace(lambda: golden.compute_table1())
    metrics = tracer.metrics()
    assert metrics["rel.solve.calls"][0] == 55
    assert 480 <= metrics["rel.residual.evals_per_solve"][0] <= 515


def test_selfconsistent_level_takes_roadmap_eigensolve_count():
    p = rel.DiracParams(g=2.0, sym_constant=0.0, branch=rel.Symmetry.SPIN)
    tracer = _trace(lambda: oracle.dirac_selfconsistent(0, p))
    assert 16 <= tracer.metrics()["oracle.dirac_selfconsistent.eigensolves_per_level"][0] <= 24


def test_psi3_norm_takes_roadmap_integrand_count():
    p = nonrel.OscillatorParams(g=2.0)
    tracer = _trace(lambda: oracle.quadrature(lambda x: float(nonrel.wavefunction(3, p, x)) ** 2 if x > 0 else 0.0,
                                              0.0, math.inf, tol=workloads.QUAD_TOL))
    assert tracer.metrics()["oracle.quadrature.integrand_evals"][0] == 7964


# ----------------------------------------------------------------- checks

def _first(workload, kind, pred=lambda op: True):
    return next(op for op in make_ops(workload, 1) if op.kind == kind and pred(op))


@pytest.mark.parametrize("branch", ["nonrel", "spin", "pseudospin"])
def test_checks_accept_good_and_catch_shifted_energies(branch):
    op = _first("cli-requests", "spectrum", lambda op: branch in op.spec["argv"] and "csv" in op.spec["argv"] and not op.decades)
    out = workloads.execute(op)
    assert checks.check(op, out) is None
    lines = out.stdout.splitlines()
    n, e, res = lines[1].split(",")
    lines[1] = f"{n},{float(e) + 2e-7:.7f},{res}"
    bad = dataclasses.replace(out, stdout="\n".join(lines) + "\n")
    assert checks.check(op, bad) in ("check:energy", "check:bracket")


def test_checks_catch_a_wrong_sample():
    op = _first("cli-requests", "wavefunction", lambda op: "spin" in op.spec["argv"] and "csv" in op.spec["argv"])
    out = workloads.execute(op)
    assert checks.check(op, out) is None
    lines = out.stdout.splitlines()
    cells = lines[len(lines) // 3].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-7) + 1e-9)
    lines[len(lines) // 3] = ",".join(cells)
    assert checks.check(op, dataclasses.replace(out, stdout="\n".join(lines) + "\n")) == "check:samples"


def test_checks_catch_changed_table_bytes():
    op = Op("reproduce-tables", {"argv": ["reproduce-tables", "--out", "tables"]})
    out = workloads.execute(op)
    assert checks.check(op, out) is None
    files = dict(out.files)
    key = next(iter(files))
    files[key] = files[key].replace("\n", "\r\n")
    assert checks.check(op, dataclasses.replace(out, files=files)) == "check:digest"


def test_checks_hold_oracle_bounds():
    op = Op("quad-nonrel", {"i": 0, "j": 1, "g": 2.0})
    assert checks.check(op, 0.0) is None
    assert checks.check(op, 1e-8) == "check:integral"
    fd = Op("fd-ladder", {"g": 2.0, "count": 2, "n_points": 4000})
    report = workloads.execute(fd)
    assert checks.check(fd, report) is None
    shifted = dataclasses.replace(report, eigenvalues=tuple(v + 2 * e for v, e in zip(report.eigenvalues, report.richardson_error)))
    assert checks.check(fd, shifted) == "check:fd-ratio"


# -------------------------------------------------------------- summaries

def test_tail_percentile_leaves_ten_operations_beyond():
    s = harness.latency_summary([[i / 1000 for i in range(124)]])
    assert s["tail_percentile"] == 91 and s["tail_beyond"] == 11
    assert s["op_tail_ms"] == pytest.approx(112.0)
    s = harness.latency_summary([[i / 1000 for i in range(46)]])
    assert s["tail_percentile"] == 78 and s["tail_beyond"] == 10


def test_reference_speed_scales_by_the_local_kernel_time():
    latencies = [0.010] * 30
    assert harness.at_reference_speed(latencies, [harness.KERNEL_REF_S] * 30) == pytest.approx(latencies)
    kernels = [harness.KERNEL_REF_S] * 15 + [2 * harness.KERNEL_REF_S] * 15
    scaled = harness.at_reference_speed(latencies, kernels)
    assert scaled[0] == pytest.approx(0.010) and scaled[-1] == pytest.approx(0.005)
