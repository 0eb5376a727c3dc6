"""Benchmark entry point.

    python3 bench/run.py --workload cli-requests --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It imports the package from ``src/`` of
that checkout, runs one seeded workload single process and single
thread, checks every output, prints a report and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The full record (environment,
per-operation latencies and failures, counts and spans) is written to
``bench/out/``. See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-requests", "quadrature-norms", "grid-oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "isospectra" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not package.is_file():
        print(f"error: no package source at {package.relative_to(ROOT)}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    # Pin every thread pool before numpy loads, so two shared cores measure one thread.
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import isospectra

    if Path(isospectra.__file__).resolve() != package.resolve():
        print(f"error: imported isospectra from {isospectra.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for line in harness.report_lines(record):
        print(line)
    print(f"  record {out_file.relative_to(ROOT)}")
    print(harness.result_line(record, spec["per_layer" if args.trace else "end_to_end"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
