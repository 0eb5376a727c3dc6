"""Passes over an operation list, the metrics they give, and the run record.

A run times passes over its workload's operation list, one operation at a
time (a closed loop with one client), until the next pass would end after
``--seconds``; there is always at least one pass. Each operation is timed
on its own; the benchmark's checks run between operations, outside the
timed regions. The first pass checks every output; later passes must
reproduce the first pass's outputs exactly.

End-to-end metrics come from untraced passes. On the interpreter-bound
workloads operation times are taken at a reference machine speed (see
``calibrate``); the raw times are kept in the record.

  setup_s      median over fresh interpreters of import plus one warm-up
               call per entry point (``warmup.py``)
  wall_s       median over passes of the time to run the whole list
  op_p50_ms    median over operations of each operation's median latency
  op_tail_ms   the highest whole percentile that leaves at least ten
               operations beyond it (nearest rank), same latencies
  fail_frac    failed / attempted; a failure is an exception, a non-finite
               output or a failed check, timed until it happened
  peak_rss_mb  peak resident set of the benchmark process

The traced run adds one pass under the tracer for the per-layer metrics.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import checks
from tracer import Tracer
from warmup import warm_up
from workloads import INTERPRETER_BOUND, execute, make_ops, ops_digest

SETUP_REPEATS = 5
TAIL_BEYOND = 10
KERNEL_REF_S = 1e-3  # calibration kernel time at the reference speed
KERNEL_WINDOW = 5  # operations on each side whose kernel times set the local speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}
# fail_frac is 0 on the oracle workloads by design, so BENCHMARK.json
# lists it per layer; the report prints it with the others.


# ------------------------------------------------------------------ passes

def _fingerprint(output) -> str:
    if hasattr(output, "stdout"):
        text = repr((output.exit_code, output.stdout, sorted(output.files.items())))
    else:
        text = repr(output)
    return hashlib.sha256(text.encode()).hexdigest()


class Outcomes:
    """Checks each operation's first output; later outputs must match it."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.first: list[str | None] = [None] * len(ops)
        self.failure: list[str | None] = [None] * len(ops)

    def record(self, i: int, output, error: str | None) -> None:
        if error is None:
            finite = _finite(output)
            mark = _fingerprint(output) if finite else "nonfinite"
        else:
            mark = error
        if self.first[i] is None:
            self.first[i] = mark
            if error is not None:
                self.failure[i] = error
            elif mark == "nonfinite":
                self.failure[i] = "nonfinite"
            else:
                self.failure[i] = checks.check(self.ops[i], output)
        elif mark != self.first[i]:
            self.failure[i] = "check:unstable"

    def counts(self) -> tuple[Counter, Counter]:
        """Failures by kind: (gated operations, decades slice)."""
        gated, decades = Counter(), Counter()
        for op, kind in zip(self.ops, self.failure):
            if kind is not None:
                (decades if op.decades else gated)[kind] += 1
        return gated, decades


def _finite(output) -> bool:
    if hasattr(output, "stdout"):
        return True  # the checks parse the text
    values = getattr(output, "eigenvalues", output)
    try:
        return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))
    except (TypeError, ValueError):
        return False


def calibrate() -> float:
    """Seconds for a fixed piece of scalar interpreter work, about 1 ms.

    The shared cores this benchmark runs on change the interpreter's speed
    by up to 1.7x for seconds to minutes at a time (neighbours, not this
    process), which moves every interpreter-bound timing together. The
    harness times this kernel, scalar float arithmetic and ``math`` calls
    like the package's per-point loops, before each operation and, on the
    INTERPRETER_BOUND workloads, scales the operation's latency by
    KERNEL_REF_S over the kernel's local median: each timing is reported
    at a fixed reference speed. The raw timings stay in the run record.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(5000):
        x = i * 1e-3
        acc += math.exp(-x) * math.sqrt(x + 1.0) / (1.0 + x * x)
    return time.perf_counter() - start


def run_pass(ops, outcomes: Outcomes, tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
    """Time every operation once; returns (latencies, kernel times) in seconds."""
    latencies, kernels = [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        gc.collect()  # each operation starts with empty young generations
        kernels.append(calibrate())
        if tracer is not None:
            tracer.begin_op(i)
        error = None
        output = None
        start = clock()
        try:
            output = execute(op)
        except Exception as exc:  # every failure is counted, by type
            error = type(exc).__name__
        except SystemExit:  # argparse's way of rejecting a request
            error = "SystemExit"
        elapsed = clock() - start
        if tracer is not None:
            tracer.end_op()
        latencies.append(elapsed)
        outcomes.record(i, output, error)
    return latencies, kernels


def at_reference_speed(latencies: list[float], kernels: list[float]) -> list[float]:
    """Latencies scaled by KERNEL_REF_S / the median kernel time of the surrounding operations."""
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(kernels[max(0, i - KERNEL_WINDOW): i + KERNEL_WINDOW + 1])
        out.append(latency * KERNEL_REF_S / local)
    return out


def measure(ops, seconds: float, outcomes: Outcomes) -> list[tuple[list[float], list[float]]]:
    """Untraced passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, outcomes))
        elapsed = time.perf_counter() - start
        if elapsed + sum(passes[-1][0]) > seconds:
            return passes


def latency_summary(passes: list[list[float]]) -> dict:
    per_op = sorted(statistics.median(vals) for vals in zip(*passes))
    n = len(per_op)
    pct = max(0, math.floor(100 * (n - TAIL_BEYOND) / n)) if n > TAIL_BEYOND else 0
    rank = max(1, math.ceil(pct / 100 * n))
    return {
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": per_op[rank - 1] * 1e3,
        "tail_percentile": pct,
        "tail_beyond": n - rank,
        "samples": n,
    }


# ------------------------------------------------------------------ set-up

def setup_seconds(root: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that import the package and warm it up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script = str(Path(__file__).with_name("warmup.py"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, script], cwd=root, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ------------------------------------------------------------- environment

def environment(root: Path) -> dict:
    git_sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
            git_sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "isospectra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "loadavg_before": list(os.getloadavg()),
    }


# --------------------------------------------------------------------- run

def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the full record (the last stdout line is derived from it)."""
    env = environment(root)
    ops = make_ops(workload, seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "ops": len(ops), "ops_digest": ops_digest(ops), "env": env}
    outcomes = Outcomes(ops)
    warm_up()
    # A one-shot CLI run never collects the heap that imports leave
    # behind (about 50k objects, some 30 ms a sweep); in a loop of many
    # requests such a sweep would land on a random one. Freeze that heap.
    gc.collect()
    gc.freeze()

    if not trace:
        setups = setup_seconds(root)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        raw = measure(ops, seconds, outcomes)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if workload in INTERPRETER_BOUND:
            passes = [at_reference_speed(lat, ker) for lat, ker in raw]
        else:
            passes = [lat for lat, _ in raw]
        summary = latency_summary(passes)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(p) for p in passes),
            "op_p50_ms": summary["op_p50_ms"],
            "op_tail_ms": summary["op_tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(
            setup_runs=setups,
            latency=summary,
            raw_wall_s=statistics.median(sum(lat) for lat, _ in raw),
            kernel_ms=statistics.median(k for _, ker in raw for k in ker) * 1e3,
            pass_walls=[sum(p) for p in passes],
            raw_pass_walls=[sum(lat) for lat, _ in raw],
            process={"cpu_s": cpu, "wait_s": wall - cpu},
        )
    else:
        raw = measure(ops, seconds / 2.0, outcomes)
        untraced_wall = statistics.median(sum(lat) for lat, _ in raw)
        tracer = Tracer()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        with tracer:
            traced, traced_kernels = run_pass(ops, outcomes, tracer)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        metrics = {name: value for name, (value, _unit) in tracer.metrics().items()}
        metrics["process.cpu_s"] = cpu
        metrics["process.wait_s"] = wall - cpu
        metrics["trace.overhead_s"] = sum(traced) - untraced_wall
        record.update(counts=tracer.counts(), spans=tracer.spans, untraced_wall_s=untraced_wall,
                      traced_wall_s=sum(traced))
        raw = raw + [(traced, traced_kernels)]
        passes = [lat for lat, _ in raw]

    gated, decades = outcomes.counts()
    n_fail = sum(gated.values()) + sum(decades.values())
    metrics["fail_frac"] = n_fail / len(ops)
    env["loadavg_after"] = list(os.getloadavg())
    record.update(
        metrics=metrics,
        passes=len(passes),
        attempted=len(ops) * len(passes),
        failed=sum(gated.values()) * len(passes),
        correct=not gated,
        failures={"gated": dict(gated), "decades": dict(decades)},
        decades_ops=sum(op.decades for op in ops),
        per_op=[
            {"i": i, "kind": op.kind, "decades": op.decades, "failure": f,
             "ms": [t * 1e3 for t in v], "raw_ms": [t * 1e3 for t in r], "kernel_ms": [t * 1e3 for t in k]}
            for i, (op, f, v, r, k) in enumerate(zip(ops, outcomes.failure, zip(*passes), zip(*(lat for lat, _ in raw)),
                                                     zip(*(ker for _, ker in raw))))
        ],
    )
    return record


def report_lines(record: dict) -> list[str]:
    """The human-readable report printed above the result line."""
    m = record["metrics"]
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
             f"{record['ops']} ops x {record['passes']} passes  ops sha256 {record['ops_digest'][:16]}"]
    if record["trace"]:
        for name, (_, unit) in Tracer().metrics().items():
            lines.append(f"  {name:48s} {m[name]:.6g} {unit}")
        for name, unit in (("process.cpu_s", "s"), ("process.wait_s", "s"), ("trace.overhead_s", "s"), ("fail_frac", "ratio")):
            lines.append(f"  {name:48s} {m[name]:.6g} {unit}")
    else:
        lat = record["latency"]
        notes = {
            "setup_s": f"median of {len(record['setup_runs'])} fresh interpreters",
            "wall_s": f"median of {record['passes']} passes; raw {record['raw_wall_s']:.4g} s, kernel {record['kernel_ms']:.3f} ms",
            "op_p50_ms": f"median of {lat['samples']} per-op medians",
            "op_tail_ms": f"p{lat['tail_percentile']} of {lat['samples']} ops, {lat['tail_beyond']} beyond",
            "fail_frac": f"{record['failures']}, decades slice {record['decades_ops']} ops",
            "peak_rss_mb": "ru_maxrss",
        }
        for name, unit in END_TO_END_UNITS.items():
            lines.append(f"  {name:12s} {m[name]:.6g} {unit:6s} {notes[name]}")
    env = record["env"]
    lines.append("  env " + json.dumps({k: env[k] for k in ("git_sha", "python", "numpy", "scipy", "nproc",
                                                             "loadavg_before", "loadavg_after")}))
    return lines


def result_line(record: dict, metrics: list[dict]) -> str:
    """The last stdout line: the named metrics of ``BENCHMARK.json`` with their units."""
    m = record["metrics"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {spec["name"]: {"value": m[spec["name"]], "unit": spec["unit"]} for spec in metrics},
    })
