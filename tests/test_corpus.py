"""The CLI's outputs, byte for byte, over a fixed corpus of requests.

``tests/data/cli_corpus.json`` holds about fifty argv lists, each with the
exit code, the stderr text and the sha256 of stdout and of every file the
request writes, and the platform and library versions that recorded them.
Each request runs in process through ``cli.main`` in an empty directory
and must give the recorded bytes again. The corpus holds every command
(only the ``tables``, ``limits`` and ``ode`` suites of ``validate``, the
fast ones), the README examples, the edge requests of the CI workflow, a
negative coupling, ``--c 1e4`` and ``--c 3``, and JSON ``wavefunction``
and ``potential`` requests that reach each token the JSON sample writer
respells: integers and ±0 (an x grid through 0 and the integers, a
spinor's 0 at the origin), exponents e+12 to e+15, and exponents of -308
and below (the ``--n 20 --x-max 40`` tails, subnormal wells).

The bytes must hold on every supported build of Python, numpy and scipy,
so the fields whose last digits are rounding noise of one build are not
compared as bytes (``NOISE``, ``MESSAGE_FLOAT``): a level's residual, a
``validate`` or ``reproduce-tables`` verdict's value (the ODE residuals of
``validate --suite ode`` move by a third when numpy takes another SIMD
path), and the floats of an error message. Each is replaced by ``~``
before the output is compared and is checked on its parsed value instead:
a residual against the rounding of its level's energy, a verdict's value
by the bound and pass flag that stay in the hashed bytes, an error
message's floats within 1e-9 of the recorded ones. What is hashed as it
stands, the 12-digit samples, the 7-decimal energies and the table CSVs,
gave the same bytes with numpy's AVX-512 and AVX2 paths switched off
(``NPY_DISABLE_CPU_FEATURES``). A request that differs names the versions
that differ from the recorded ones. An output that changes on purpose is
recorded again with ``PYTHONPATH=src python tests/test_corpus.py``, and
the change is stated in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import platform
import re
import tempfile

import numpy as np
import pytest
import scipy

from isospectra import cli

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# The requests of the corpus; ``python tests/test_corpus.py`` records their outputs.
REQUESTS = [
    ["spectrum", "--branch", "nonrel", "--g", "2", "--n-max", "3"],
    ["spectrum", "--m", "1", "--n-max", "4", "--format", "json"],
    ["spectrum", "--branch", "spin", "--g", "6", "--cs", "2", "--n-max", "5"],
    ["spectrum", "--branch", "spin", "--g", "6", "--cs", "2", "--n-max", "5", "--format", "json"],
    ["spectrum", "--branch", "pseudospin", "--g", "0.5", "--cps", "0", "--n-max", "10", "--out", "ladder.csv"],
    ["spectrum", "--g", "-0.1", "--n-max", "3"],
    ["spectrum", "--branch", "spin", "--g", "-0.1", "--n-max", "3", "--format", "json"],
    ["spectrum", "--branch", "pseudospin", "--g", "2", "--cps", "-5", "--n-max", "5"],
    ["spectrum", "--format", "json"],
    ["spectrum", "--format", "json", "--branch", "pseudospin"],
    ["spectrum", "--branch", "spin", "--format", "json", "--n-max", "20"],
    ["spectrum", "--branch", "spin", "--c", "1e4", "--n-max", "2"],
    ["spectrum", "--branch", "pseudospin", "--cps=-1e300", "--n-max", "0"],
    ["spectrum", "--branch", "spin", "--mass", "1e300", "--n-max", "0"],
    ["spectrum", "--branch", "pseudospin", "--mass", "5e307", "--cps", "1.5e308", "--n-max", "0"],
    ["spectrum", "--branch", "pseudospin", "--n-max", "29", "--mass", "1376.864025586473",
     "--omega", "0.14903781914789113", "--c", "748.269756662249", "--g", "6255.1267599406565"],
    ["wavefunction"],
    ["wavefunction", "--n", "0", "--m", "1", "--compare-harmonic"],
    ["wavefunction", "--branch", "spin", "--g", "2", "--x-max", "6", "--points", "1200"],
    ["wavefunction", "--format", "json"],
    ["wavefunction", "--format", "json", "--m", "1", "--x-min", "-2", "--compare-harmonic"],
    ["wavefunction", "--format", "json", "--branch", "spin"],
    ["wavefunction", "--format", "json", "--x-max", "10", "--points", "11", "--g", "0"],
    ["wavefunction", "--format", "json", "--m", "1", "--x-min", "-4", "--x-max", "4", "--points", "9",
     "--compare-harmonic"],
    ["wavefunction", "--format", "json", "--n", "20", "--x-max", "40", "--points", "81"],
    ["wavefunction", "--branch", "spin", "--format", "json", "--n", "20", "--x-max", "40", "--points", "41"],
    ["wavefunction", "--branch", "spin", "--format", "json", "--n", "20", "--x-max", "40", "--points", "401"],
    ["wavefunction", "--branch", "spin", "--n", "20", "--x-max", "40", "--points", "401"],
    ["wavefunction", "--branch", "pseudospin", "--format", "json", "--n", "20", "--x-max", "40", "--points", "81"],
    ["wavefunction", "--branch", "pseudospin", "--format", "json", "--n", "3", "--cps", "-5", "--points", "21"],
    ["wavefunction", "--branch", "spin", "--format", "json", "--c", "3", "--n", "2", "--points", "50"],
    ["wavefunction", "--branch", "spin", "--g", "6", "--cs", "2", "--x-max", "3", "--points", "6"],
    ["wavefunction", "--branch", "spin", "--n", "2000", "--x-max", "40", "--points", "5"],
    ["wavefunction", "--branch", "spin", "--n", "2000", "--x-max", "40", "--points", "5", "--format", "json"],
    ["wavefunction", "--format", "json", "--out", "psi.json", "--n", "2", "--points", "30"],
    ["potential"],
    ["potential", "--g", "2", "--x-min", "0.05", "--x-max", "5"],
    ["potential", "--format", "json"],
    ["potential", "--format", "json", "--g", "2", "--x-min", "0.5", "--x-max", "10", "--points", "20"],
    ["potential", "--format", "json", "--x-min", "1e-6", "--x-max", "3", "--points", "4"],
    ["potential", "--format", "json", "--x-min", "1e-7", "--x-max", "1", "--points", "3"],
    ["potential", "--format", "json", "--x-min", "1", "--x-max", "1000000", "--points", "3"],
    ["potential", "--format", "json", "--g", "0", "--mass", "1e-300", "--omega", "1e-5", "--x-min", "1",
     "--x-max", "10", "--points", "10"],
    ["potential", "--format", "json", "--x-min", "1e150", "--x-max", "1e153", "--points", "3"],
    ["potential", "--format", "json", "--x-min", "1e-160", "--x-max", "1e-150", "--points", "3"],
    ["reproduce-tables", "--out", "tables"],
    ["validate", "--suite", "tables"],
    ["validate", "--suite", "limits", "--format", "csv"],
    ["validate", "--suite", "ode"],
]


# Per command, the fields whose last digits can differ between builds: a
# pattern whose last matched group is such a field, and the check that its
# parsed groups pass instead of the bytes. A field printed with a fixed format
# matches only in that format, so a changed format still changes the hash. A
# level's residual is the rounding of terms of size |E| (2|E|)^(1/2), so
# 2**-40 |E|^(3/2) leaves room for about 3,000 roundings. A verdict's value
# keeps its bound and pass flag in the hashed bytes, so only its being a
# number is checked here.
_E3 = r"\d\.\d{3}e[-+]\d\d"  # the .3e format of residuals and table deviations
NOISE = {
    "spectrum": (
        re.compile(rf'^\d+,(\S+),({_E3})$|"energy": (\S+),\n +"residual": ([^,\n]+)', re.M),
        lambda energy, residual: 0.0 <= residual <= 2.0**-40 * max(1.0, abs(energy)) ** 1.5,
    ),
    "validate": (re.compile(r'"value": ([^,\n]+)|^[a-z][\w-]*,(-?\d\.\d{6}e[-+]\d\d),', re.M), math.isfinite),
    "reproduce-tables": (re.compile(rf"max deviation ({_E3}) "), math.isfinite),
}
# The floats of an error message, compared within 1e-9 of the recorded ones.
MESSAGE_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _versions() -> dict:
    """What the digests depend on besides the package: the platform and the numerical libraries."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _masked(command: str, text: str, failed: list[str]) -> str:
    """text with each NOISE field of command replaced by "~"; the fields that fail their check go to failed."""
    if command not in NOISE:
        return text
    pattern, check = NOISE[command]

    def mask(match: re.Match) -> str:
        groups = [i for i, group in enumerate(match.groups(), 1) if group is not None]
        if not check(*(float(match.group(i)) for i in groups)):
            failed.append(match.group(0))
        start, end = (pos - match.start() for pos in match.span(groups[-1]))
        return match.group(0)[:start] + "~" + match.group(0)[end:]

    return pattern.sub(mask, text)


def run_request(argv: list[str], directory: pathlib.Path) -> tuple[dict, list[str]]:
    """Run one request through cli.main in directory: its exit code, stderr and digests, and the failed NOISE fields."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    failed: list[str] = []
    files = {
        path.relative_to(directory).as_posix(): _sha256(_masked(argv[0], path.read_text(), failed).encode())
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }
    entry = {
        "argv": argv,
        "exit_code": code,
        "stdout_sha256": _sha256(_masked(argv[0], stdout.getvalue(), failed).encode()),
        "stderr": stderr.getvalue(),
        "files": files,
    }
    return entry, failed


def _corpus() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_holds_the_listed_requests():
    assert [entry["argv"] for entry in _corpus()["requests"]] == REQUESTS


@pytest.mark.parametrize("index", range(len(REQUESTS)), ids=[" ".join(argv) for argv in REQUESTS])
def test_request_gives_its_recorded_bytes(index, tmp_path):
    corpus = _corpus()
    recorded = corpus["requests"][index]
    versions = {key: (value, corpus["recorded_with"][key])
                for key, value in _versions().items() if value != corpus["recorded_with"][key]}
    entry, failed = run_request(recorded["argv"], tmp_path)
    assert not failed, f"fields outside their bounds: {failed}"
    floats = [float(token) for token in MESSAGE_FLOAT.findall(entry["stderr"])]
    recorded_floats = [float(token) for token in MESSAGE_FLOAT.findall(recorded["stderr"])]
    assert floats == pytest.approx(recorded_floats, rel=1e-9, abs=0.0)
    entry["stderr"] = MESSAGE_FLOAT.sub("~", entry["stderr"])
    recorded = {**recorded, "stderr": MESSAGE_FLOAT.sub("~", recorded["stderr"])}
    assert entry == recorded, f"versions that differ (here, recorded): {versions or 'none'}"


def test_noise_fields_are_masked_and_checked():
    failed: list[str] = []
    csv = _masked("spectrum", "n,energy,residual\n0,2.5000000,1.776e-15\n1,4.5000000,1.000e-06\n2,6.5,1.8e-15\n", failed)
    assert csv == "n,energy,residual\n0,2.5000000,~\n1,4.5000000,~\n2,6.5,1.8e-15\n"
    assert failed == ["1,4.5000000,1.000e-06"]
    text = '"energy": 3.1503636,\n      "residual": 1.7763568394002505e-15,\n'
    assert _masked("spectrum", text, failed) == '"energy": 3.1503636,\n      "residual": ~,\n'
    verdicts = 'check,value,bound,pass\nlevel-spacing,1.776357e-15,1.000000e-14,true\n  "value": 3.7e-08,\n'
    assert _masked("validate", verdicts, failed) == 'check,value,bound,pass\nlevel-spacing,~,1.000000e-14,true\n  "value": ~,\n'
    assert _masked("reproduce-tables", "table1: max deviation 3.338e-07 (bound 5.0e-07) PASS", failed) == (
        "table1: max deviation ~ (bound 5.0e-07) PASS")
    assert _masked("wavefunction", "x,upper,lower\n0,0,0\n1,2.5,0.1\n", failed) == "x,upper,lower\n0,0,0\n1,2.5,0.1\n"
    assert failed == ["1,4.5000000,1.000e-06"]


def test_bench_table_digests_are_the_corpus_tables(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    checks = importlib.import_module("checks")
    (tables,) = [entry for entry in _corpus()["requests"] if entry["argv"][0] == "reproduce-tables"]
    assert {path.rsplit("/", 1)[-1]: digest for path, digest in tables["files"].items()} == checks.TABLE_DIGESTS


if __name__ == "__main__":
    recorded = []
    for argv in REQUESTS:
        with tempfile.TemporaryDirectory() as directory:
            entry, failed = run_request(argv, pathlib.Path(directory))
        assert not failed, (argv, failed)
        recorded.append(entry)
    CORPUS.write_text(json.dumps({"recorded_with": _versions(), "requests": recorded}, indent=1) + "\n")
