"""End-to-end checks of the command line front end.

Everything goes through cli.main(argv) so the tests exercise the same
path a shell invocation would, including argparse exits and file
writing, without paying subprocess startup per case. The one exception
runs ``python -m isospectra`` to see the stderr a shell would see.
"""
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isospectra
from isospectra import cli, golden, nonrel, rel, validate
from isospectra.errors import NonNormalizableError


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- spectrum

def test_spectrum_nonrel_ladder(capsys):
    code, out, err = run_cli(["spectrum", "--branch", "nonrel", "--g", "2", "--n-max", "3"], capsys)
    assert code == 0
    assert err == ""
    header, rows = csv_rows(out)
    assert header == ["n", "energy", "residual"]
    assert [r[1] for r in rows] == ["2.5000000", "4.5000000", "6.5000000", "8.5000000"]
    assert all(float(r[2]) == 0.0 for r in rows)


def test_spectrum_spin_ladder(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--branch", "spin", "--g", "6", "--cs", "2", "--n-max", "1"], capsys
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert [r[1] for r in rows] == ["4.2634174", "5.4772542"]
    assert all(float(r[2]) <= 1e-9 for r in rows)


def test_spectrum_pseudospin_ground_level(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--branch", "pseudospin", "--g", "0.5", "--cps", "0", "--n-max", "0"], capsys
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == "1.7353829"


def test_spectrum_barrier_index_sets_coupling(capsys):
    # m = 1 means g = 2, so both spellings must emit identical bytes
    _, via_m, _ = run_cli(["spectrum", "--m", "1", "--n-max", "2"], capsys)
    _, via_g, _ = run_cli(["spectrum", "--g", "2", "--n-max", "2"], capsys)
    assert via_m == via_g


def test_spectrum_csv_shape(capsys):
    _, out, _ = run_cli(["spectrum", "--g", "2", "--n-max", "4"], capsys)
    assert out.endswith("\n")
    assert "\r" not in out
    for line in out.splitlines()[1:]:
        assert re.fullmatch(r"\d+,\d+\.\d{7},\d\.\d{3}e[+-]\d{2}", line), line


def test_spectrum_json_payload(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--branch", "nonrel", "--g", "2", "--n-max", "1", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "spectrum"
    assert doc["manifest"]["seedless"] is True
    assert doc["levels"][0] == {"n": 0, "energy": 2.5, "residual": 0.0, "branch": "nonrel-isotonic"}
    assert doc["levels"][1]["energy"] == 4.5


def test_spectrum_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "ladder.csv"
    code, out, _ = run_cli(["spectrum", "--g", "6", "--n-max", "2", "--out", str(target)], capsys)
    assert code == 0
    assert out == f"wrote {target}\n"
    _, direct, _ = run_cli(["spectrum", "--g", "6", "--n-max", "2"], capsys)
    assert target.read_text() == direct


def test_spectrum_runs_are_deterministic(capsys):
    argv = ["spectrum", "--branch", "spin", "--g", "2", "--cs", "2", "--n-max", "5"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--g", "2", "--m", "1"],
        ["spectrum", "--mass", "-1"],
        ["spectrum", "--n-max", "-3"],
        ["spectrum", "--branch", "bogus"],
    ],
)
def test_spectrum_bad_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--mass", "nan"], "argument --mass: must be finite, got 'nan'"),
        (["spectrum", "--g", "inf"], "argument --g: must be finite, got 'inf'"),
        (["spectrum", "--branch", "spin", "--cs", "nan"], "argument --cs: must be finite, got 'nan'"),
        (["spectrum", "--branch", "pseudospin", "--cps=-inf"], "argument --cps: must be finite, got '-inf'"),
        (["spectrum", "--c", "inf"], "argument --c: must be finite, got 'inf'"),
        (["spectrum", "--hbar", "0"], "argument --hbar: must be positive, got '0'"),
        (["potential", "--x-max", "inf"], "argument --x-max: must be finite, got 'inf'"),
        (["wavefunction", "--x-max", "inf"], "argument --x-max: must be finite, got 'inf'"),
        (["wavefunction", "--x-min=-1e308", "--x-max", "1e308"], "--x-max - --x-min must stay inside the float range"),
        (["wavefunction", "--m", "1e200", "--x-min", "-1"], "--m 1e+200 gives g = m (m + 1) beyond the float range"),
    ],
)
def test_nonfinite_flags_exit_two(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_spectrum_unphysical_coupling_exits_one(capsys):
    code, out, err = run_cli(["spectrum", "--g", "-0.3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_spectrum_negative_coupling_names_the_missing_ladder(capsys):
    code, out, err = run_cli(["spectrum", "--branch", "spin", "--g", "-0.2"], capsys)
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: 1 \+ 2 g \|energy_weight\| = \S+ < 0: no bound ladder at this energy\n", err)


def test_spectrum_gap_below_float_resolution_exits_one(decimal_level, capsys):
    # the pseudospin gaps at M c^2 = 1e8 (about 1e-8) are 1 and 4 float spacings of E: both levels are
    # printed as the floats nearest their decimal roots, and the request exits 0
    code, out, err = run_cli(["spectrum", "--branch", "pseudospin", "--n-max", "1", "--c", "1e4"], capsys)
    assert code == 0 and err == ""
    p = rel.DiracParams(c=1e4, branch=rel.Symmetry.PSEUDOSPIN)
    levels = [decimal_level(n, p, -1.0, 0.0, 1e8 + 1.0) for n in range(2)]
    assert [row[:2] for row in csv_rows(out)[1]] == [[str(n), f"{e:.7f}"] for n, e in enumerate(levels)]
    assert csv_rows(out)[1][1][1] == "100000000.0000001"


def test_spin_spectrum_whose_binding_rounds_to_zero_exits_one(capsys):
    # the binding (about 1e150) is below the float spacing of M c^2 = 1e300: E - M c^2 rounds to 0
    code, out, err = run_cli(["spectrum", "--branch", "spin", "--mass", "1e300"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: level 0 sits on the window edge E = 1e+300") and "below the float resolution" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--branch", "spin", "--n-max", "40"],
        ["spectrum", "--branch", "pseudospin", "--n-max", "40"],
        ["spectrum", "--branch", "spin", "--g", "6", "--cs", "2", "--c", "10", "--n-max", "40"],
        ["spectrum", "--branch", "pseudospin", "--g", "50", "--cps", "-13", "--c", "100", "--n-max", "40"],
    ],
    ids=["spin", "pseudospin", "spin-g6-cs2-c10", "pseudospin-g50-cps13-c100"],
)
def test_spectrum_from_one_scan_equals_the_per_level_solves(argv, fmt, monkeypatch, capsys):
    argv = [*argv, "--format", fmt]
    shared = run_cli(argv, capsys)
    solve = {rel.Symmetry.SPIN: rel.solve_spin_energy, rel.Symmetry.PSEUDOSPIN: rel.solve_pseudospin_energy}
    monkeypatch.setattr(rel, "solve_levels", lambda n_max, p: [solve[p.branch](n, p) for n in range(n_max + 1)])
    assert run_cli(argv, capsys) == shared
    assert shared[0] == 0 and len(shared[1].splitlines()) > 41


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--hbar", "1e-160"], "the scale alpha = M g / hbar^2 leaves the float range"),
        (["wavefunction", "--hbar", "1e-160"], "the scale alpha = M g / hbar^2 leaves the float range"),
        (["spectrum", "--mass", "1e300", "--g", "1e300"], "the scale alpha = M g / hbar^2 leaves the float range"),
        (["spectrum", "--branch", "spin", "--hbar", "1e-160"],
         "the scale 2 g w / (hbar c)^2 leaves the float range at E = 1.000000001, before level 0 changes sign"),
        (["spectrum", "--branch", "pseudospin", "--hbar", "1e-160", "--n-max", "3"],
         "the scale 2 g w / (hbar c)^2 leaves the float range at E = 1.000000001, before level 0 changes sign"),
        (["spectrum", "--branch", "pseudospin", "--g", "1e300"],
         "the scale 2 g w / (hbar c)^2 leaves the float range at E = 93891993.41707033, before level 0 changes sign"),
        (["wavefunction", "--branch", "spin", "--g", "1e300"],
         "the scale 2 g w / (hbar c)^2 leaves the float range at E = 93891993.41707033, before level 0 changes sign"),
        (["spectrum", "--branch", "spin", "--omega", "1e308", "--g", "0", "--n-max", "0"],
         "the ladder term hbar c omega sqrt(2 M) (2n + 1 + order) = 1.4142135623730951e+308 * (1 + 0.5) "
         "leaves the float range at E = 1.000000001, before level 0 changes sign"),
        (["spectrum", "--branch", "spin", "--omega", "1e308", "--g", "2", "--n-max", "0"],
         "the ladder term hbar c omega sqrt(2 M) (2n + 1 + order) = 1.4142135623730951e+308 * (1 + 1.5000000003333334) "
         "leaves the float range at E = 1.000000001, before level 0 changes sign"),
        (["spectrum", "--branch", "pseudospin", "--mass", "5e307", "--cps", "1.5e308", "--n-max", "0"],
         "the scale M c^2 + sym_constant leaves the float range"),
        (["spectrum", "--omega", "1e308", "--hbar", "10", "--n-max", "0"],
         "the scale hbar omega (2n + 1 + xi) leaves the float range"),
        (["spectrum", "--hbar", "1e-150", "--omega", "1e-200", "--n-max", "2"], "the scale hbar omega leaves the float range"),
    ],
    ids=["nonrel-spectrum-hbar", "nonrel-wavefunction-hbar", "nonrel-mass-g",
         "spin-hbar", "pseudospin-hbar", "pseudospin-g", "spin-wavefunction-g", "spin-ladder-term-g0", "spin-ladder-term-g2",
         "pseudospin-window-edge", "nonrel-ladder", "nonrel-ladder-underflow"],
)
def test_overflowing_coupling_scale_exits_one_and_is_named(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_level_whose_residual_overflows_exits_one_and_is_named(decimal_level, capsys):
    # (E + M c^2) sqrt(w) overflows across the bracket of C = -1e300, yet level 0 is sqrt(2) - 1 and exits 0
    code, out, err = run_cli(["spectrum", "--branch", "pseudospin", "--cps=-1e300", "--n-max", "0"], capsys)
    assert code == 0 and err == ""
    p = rel.DiracParams(sym_constant=-1e300, branch=rel.Symmetry.PSEUDOSPIN)
    assert csv_rows(out)[1][0][1] == f"{decimal_level(0, p, -1.0, -1e300, 1.0):.7f}" == "0.4142136"
    # a condition whose two sides both leave the float range exits 1 and names them
    code, out, err = run_cli(["spectrum", "--branch", "spin", "--omega", "1e308", "--g=-1.1e-206", "--n-max", "0"],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: level 0 has residual inf at E = ") and err.count("\n") == 1
    assert "both sides of its condition, (E - M c^2) sqrt(w) and the ladder term" in err


def test_arithmetic_error_exits_one_without_traceback(monkeypatch, capsys):
    def divide_by_zero(manifest):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "run_manifest", divide_by_zero)
    code, out, err = run_cli(["spectrum", "--branch", "pseudospin", "--n-max", "1", "--c", "1e4"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: float division by zero\n"


# ------------------------------------------------------------ wavefunction

def test_wavefunction_with_harmonic_companion(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--n", "0", "--m", "1", "--compare-harmonic",
         "--x-min", "0", "--x-max", "4", "--points", "9"],
        capsys,
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["x", "isotonic", "harmonic"]
    assert len(rows) == 9
    # hard zero at the origin from the barrier, while the harmonic peak sits there
    assert rows[0][0] == "0" and rows[0][1] == "0"
    assert float(rows[0][2]) > 0.5
    assert all(float(r[1]) > 0.0 for r in rows[1:])
    p = nonrel.OscillatorParams(g=2.0)
    assert float(rows[4][1]) == pytest.approx(nonrel.wavefunction(0, p, 2.0), abs=1e-12)


def test_wavefunction_samples_use_twelve_significant_digits(capsys):
    _, out, _ = run_cli(
        ["wavefunction", "--g", "2", "--x-min", "0", "--x-max", "1", "--points", "4"], capsys
    )
    _, rows = csv_rows(out)
    assert rows[1][0] == "0.333333333333"
    assert rows[2][0] == "0.666666666667"


def test_wavefunction_harmonic_column_beyond_the_plain_hermite_range(capsys):
    # H_300 leaves the float range at every x; L_150^(-1/2), its Laguerre factor, does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["wavefunction", "--compare-harmonic", "--n", "300", "--m", "1", "--points", "5"], capsys)
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    assert header == ["x", "isotonic", "harmonic"] and len(rows) == 5
    harmonic = [float(r[2]) for r in rows]
    expected = nonrel.harmonic_wavefunction(300, nonrel.OscillatorParams(), np.linspace(0.0, 5.0, 5))
    assert harmonic == [float(f"{v:.12g}") for v in expected]
    assert 0.1 < max(map(abs, harmonic)) < 1.0


def test_wavefunction_even_barrier_extends_to_negative_axis(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--m", "1", "--x-min", "-2", "--x-max", "2", "--points", "5"], capsys
    )
    assert code == 0
    _, rows = csv_rows(out)
    # m = 1 continues with even parity, so mirrored samples agree bytewise
    assert rows[0][1] == rows[4][1]
    assert rows[1][1] == rows[3][1]


def test_wavefunction_odd_barrier_flips_sign_and_vanishes_at_origin(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--m", "2", "--x-min", "-2", "--x-max", "2", "--points", "5"], capsys
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[2][1] == "0"
    # m = 2 continues with odd parity; the ground state is positive on x > 0
    assert rows[0][1] == "-" + rows[4][1]
    assert rows[1][1] == "-" + rows[3][1]


def test_wavefunction_fractional_barrier_blocks_negative_axis(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["wavefunction", "--g", "0.5", "--x-min", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_wavefunction_negative_axis_below_the_hardy_bound_exits_one(capsys):
    # g = -0.3 has no barrier index at all; the run, not the parser, says why
    code, out, err = run_cli(["wavefunction", "--g", "-0.3", "--x-min", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: alpha = -0.3 < -1/4 admits no bound spectrum\n"


def test_wavefunction_spin_spinor_columns(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--branch", "spin", "--g", "2", "--cs", "0",
         "--x-min", "0", "--x-max", "3", "--points", "7"],
        capsys,
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["x", "upper", "lower"]
    assert rows[0][1] == "0" and rows[0][2] == "0"
    assert any(float(r[1]) != 0.0 for r in rows[1:])


def test_wavefunction_spin_lower_column_at_a_tiny_mass(capsys):
    # M c^2 + E - C is E itself here, 1.8e-13: small in absolute terms, yet nowhere near the pole
    code, out, err = run_cli(
        ["wavefunction", "--branch", "spin", "--mass", "1e-40", "--points", "4", "--x-max", "1e12"], capsys
    )
    assert (code, err) == (0, "")
    header, rows = csv_rows(out)
    assert header == ["x", "upper", "lower"]
    lower = [float(r[2]) for r in rows]
    assert np.all(np.isfinite(lower)) and any(v != 0.0 for v in lower)


def test_wavefunction_pseudospin_lower_column(capsys):
    code, out, _ = run_cli(
        ["wavefunction", "--branch", "pseudospin", "--g", "2",
         "--x-min", "0", "--x-max", "3", "--points", "5"],
        capsys,
    )
    assert code == 0
    header, _ = csv_rows(out)
    assert header == ["x", "lower"]


def test_wavefunction_harmonic_column_is_nonrel_only(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["wavefunction", "--branch", "spin", "--compare-harmonic"])
    assert exc.value.code == 2
    capsys.readouterr()


# every column samples the one Laguerre kernel, which stays finite where L_2000 overflows (from x = 10.6 on)
OVERFLOW_ARGV = ["wavefunction", "--branch", "spin", "--n", "2000", "--x-min", "0", "--x-max", "40", "--points", "5"]


def test_wavefunction_exits_zero_where_the_laguerre_recurrence_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        code, out, err = run_cli(OVERFLOW_ARGV, capsys)
        assert (code, err) == (0, "")
        header, rows = csv_rows(out)
        assert header == ["x", "upper", "lower"] and len(rows) == 5
        assert np.isfinite([float(v) for row in rows for v in row[1:]]).all()
        assert float(rows[3][2]) != 0.0  # x = 30, past the turning point near 25
        code, out, err = run_cli([*OVERFLOW_ARGV, "--format", "json"], capsys)
        assert (code, err) == (0, "")
        samples = json.loads(out)["samples"]
        assert np.isfinite(samples["upper"] + samples["lower"]).all()
        # the isotonic and harmonic states of that degree are finite there too
        nonrel_argv = ["wavefunction", "--n", "2000", "--m", "1", "--x-min", "-80", "--x-max", "80", "--points", "5"]
        code, out, err = run_cli([*nonrel_argv, "--compare-harmonic"], capsys)
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    assert header == ["x", "isotonic", "harmonic"] and len(rows) == 5
    assert float(rows[3][1]) == float(f"{nonrel.wavefunction(2000, nonrel.OscillatorParams(), 40.0):.12g}")


@pytest.mark.parametrize("extra", [[], ["--format", "json"]])
def test_wavefunction_writes_no_stderr_where_the_laguerre_recurrence_overflows(extra):
    # a real process: in-process, pytest records warnings instead of printing them
    src = str(pathlib.Path(isospectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "isospectra", *OVERFLOW_ARGV, *extra],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    if extra:
        samples = json.loads(done.stdout)["samples"]
        values = samples["upper"] + samples["lower"]
    else:
        _, rows = csv_rows(done.stdout)
        values = [float(v) for row in rows for v in row[1:]]
    assert len(values) == 10 and np.isfinite(values).all()


# --------------------------------------------------------------- potential

def test_potential_diverges_then_merges(capsys):
    code, out, _ = run_cli(
        ["potential", "--g", "2", "--x-min", "0.1", "--x-max", "5", "--points", "50"], capsys
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["x", "isotonic", "harmonic"]
    first_iso, first_harm = float(rows[0][1]), float(rows[0][2])
    last_iso, last_harm = float(rows[-1][1]), float(rows[-1][2])
    assert first_iso > 50.0 and first_harm < 0.1
    assert last_iso == pytest.approx(last_harm, rel=1e-2)
    # the gap is exactly the inverse-square term, monotonically shrinking
    gaps = [float(r[1]) - float(r[2]) for r in rows]
    assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize(
    "bounds", [["--x-max", "1e160"], ["--x-min", "1e-170", "--x-max", "1"]], ids=["overflow", "underflow"]
)
def test_potential_beyond_the_float_range_writes_only_the_error_line(bounds):
    # a real process: in-process, pytest records warnings instead of printing them
    src = str(pathlib.Path(isospectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "isospectra", "potential", *bounds, "--points", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: isotonic column has non-finite samples")
    assert "the well leaves the float range" in lines[0]


def test_potential_scale_beyond_the_float_range_exits_one(capsys):
    code, out, err = run_cli(["potential", "--mass", "1e300", "--omega", "1e300", "--points", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: the scale omega^2 = (1e+300)^2 leaves the float range\n"


def test_scale_beyond_the_float_range_in_the_parser_checks_exits_one(capsys):
    # the x < 0 check derives the barrier index from the parameters before the run starts
    code, out, err = run_cli(["wavefunction", "--hbar", "1e300", "--x-min", "-1", "--points", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: the scale hbar^2 = (1e+300)^2 leaves the float range\n"


@pytest.mark.parametrize(
    "argv, scale",
    [
        (["spectrum", "--branch", "spin", "--c", "1e-300"], "(hbar c)^2 = (1e-300)^2"),
        (["spectrum", "--branch", "pseudospin", "--hbar", "1e-170"], "(hbar c)^2 = (1e-170)^2"),
        (["spectrum", "--hbar", "1e-300"], "hbar^2 = (1e-300)^2"),
        (["wavefunction", "--hbar", "1e-300", "--points", "3"], "hbar^2 = (1e-300)^2"),
        (["wavefunction", "--hbar", "1e-300", "--x-min", "-1", "--points", "3"], "hbar^2 = (1e-300)^2"),
    ],
    ids=["spin-c", "pseudospin-hbar", "nonrel-spectrum", "nonrel-wavefunction", "parser-checks"],
)
def test_divisor_scale_that_underflows_to_zero_exits_one(argv, scale, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: the scale {scale} underflows to 0\n"


def test_well_scale_that_underflows_still_samples(capsys):
    # omega^2 only multiplies, so its underflow to 0 leaves a finite well
    code, out, err = run_cli(["potential", "--omega", "1e-200", "--points", "3"], capsys)
    assert code == 0 and err == ""
    assert out == "x,isotonic,harmonic\n0.05,400,0\n2.525,0.156847367905,0\n5,0.04,0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["wavefunction", "--points", "100000000000000"],
        ["wavefunction", "--branch", "spin", "--points", "100000000000000"],
        ["potential", "--points", "100000000000000"],
    ],
    ids=["wavefunction", "wavefunction-spin", "potential"],
)
def test_sample_request_beyond_memory_exits_one(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_potential_without_barrier_samples_where_x_squared_underflows(capsys):
    code, out, err = run_cli(["potential", "--g", "0", "--x-min", "1e-170", "--x-max", "1", "--points", "3"], capsys)
    assert code == 0 and err == ""
    assert out == "x,isotonic,harmonic\n1e-170,0,0\n0.5,0.125,0.125\n1,0.5,0.5\n"


def test_potential_rejects_origin(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["potential", "--x-min", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------- sample json

@pytest.mark.parametrize(
    "argv, head",
    [
        (["wavefunction", "--m", "1", "--compare-harmonic", "--x-min", "-2", "--x-max", "3", "--points", "6"],
         ["manifest", "energy", "samples"]),
        (["wavefunction", "--branch", "spin", "--g", "6", "--cs", "2", "--x-max", "3", "--points", "6"],
         ["manifest", "energy", "samples"]),
        (["potential", "--g", "2", "--x-min", "0.1", "--x-max", "3", "--points", "6"], ["manifest", "samples"]),
    ],
)
def test_sample_json_matches_csv(argv, head, capsys):
    code, csv_out, _ = run_cli(argv, capsys)
    assert code == 0
    code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(json_out)
    assert list(doc) == head
    assert doc["manifest"]["command"] == argv[0]
    header, rows = csv_rows(csv_out)
    assert list(doc["samples"]) == header
    for i, name in enumerate(header):
        assert doc["samples"][name] == [float(r[i]) for r in rows]


def _old_samples(manifest, xs, columns, head):
    """The sample writer as first written, one format call per value: the reference for _samples."""
    names = ["x", *columns]
    table = [xs.tolist()] + [values.tolist() for values in columns.values()]
    if manifest.output_format == "csv":
        lines = [",".join(names)]
        for row in zip(*table):
            lines.append(",".join("{:.12g}".format(v) for v in row))
        return "\n".join(lines) + "\n"
    samples = {name: [float("{:.12g}".format(v)) for v in values] for name, values in zip(names, table)}
    return json.dumps({"manifest": manifest.as_dict(), **head, "samples": samples}, indent=2, sort_keys=False) + "\n"


EDGE_SAMPLES = [
    -0.0, 5e-324, 1e-5, 1e16, 1e300, 100.0, 1234567890123.0,
    # on or next to a rounding boundary at 12 significant digits
    123456789012.5, 123456789013.5, 999999999999.5, 0.1234567890125, 9.9999999999995, 1.0000000000005e-7,
    -2.5000000000005, 1e15 + 0.5, 0.5, -1.7976931348623157e308, 2.2250738585072014e-308, 1.0, -123.456,
    # tokens that repr would spell otherwise: 1e+12 (rounded up), e+12 to e+15, a subnormal
    999999999999.7, 2.5e12, 9.9999999999999e15, -5.026051367e-315, 1e-4, 123456789012.4,
    # next to the bounds of cli._respellable: integer tokens from 1e-13 above and 4e-14 below,
    # 1e+12 from below, an e-307 token next to the e-308 ones, and 2**52 + 1
    2.0000000000001, 0.99999999999996, 999999999999.6, 1.00000000000004e-307, 4503599627370497.0,
]


def _random_samples(count, seed):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], count)
    return signs * rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-300, 300, count)


@pytest.mark.parametrize("output_format", cli.OUTPUT_FORMATS)
@pytest.mark.parametrize(
    "names, head",
    [(["isotonic"], {}), (["upper", "lower"], {"energy": 1.5}), (["isotonic", "harmonic"], {})],
    ids=["two-columns", "three-columns-energy", "three-columns"],
)
@pytest.mark.parametrize("length", [0, 1, 20, 500, 5000])  # 500 holds every edge sample, of both signs
def test_sample_writer_matches_one_format_per_value(output_format, names, head, length):
    manifest = cli.RunManifest(command="potential", parameters={"points": length}, output_format=output_format)
    pool = np.concatenate([EDGE_SAMPLES, -np.array(EDGE_SAMPLES), _random_samples(max(1500, length), 7)])
    columns = {name: np.roll(pool, 17 * k)[:length] for k, name in enumerate(names, start=1)}
    xs = pool[:length]
    expected = _old_samples(manifest, xs, columns, head)
    assert cli._samples(manifest, xs, columns, lambda name: name, head) == expected


def _signed(values):
    return st.builds(lambda sign, v: sign * v, st.sampled_from([1.0, -1.0]), values)


_SAMPLE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e12, 1e16]),
    _signed(st.floats(min_value=0.0, max_value=2.3e-308)),  # subnormals
    _signed(st.integers(min_value=0, max_value=10**17).map(float)),  # whole numbers
    _signed(st.floats(min_value=9.999e11, max_value=1.00001e12)),  # just below and at 1e12
    _signed(st.floats(min_value=9.999e15, max_value=1.00001e16)),  # just below and at 1e16
)


@given(st.lists(_SAMPLE_VALUES, max_size=40), st.lists(_SAMPLE_VALUES, max_size=40))
@settings(max_examples=300, deadline=None)
def test_json_samples_write_the_rounded_floats_as_json_dumps_does(first, second):
    names = ["x", "isotonic"]
    rounded = [[float(cli._SAMPLE_FMT % v) for v in column] for column in (first, second)]
    reference = json.dumps({"energy": 0, "samples": dict(zip(names, rounded))}, indent=2)
    head, tail = '{\n  "energy": 0', "\n}"
    assert reference.startswith(head) and reference.endswith(tail)
    assert cli._json_samples(names, [np.array(first), np.array(second)]) == reference[len(head):-len(tail)]


def _respelled_by_the_token_rule(token):
    """The sample writer's test of a %.12g token: a positional integer, an exponent e+12 to e+15, or -308 and below."""
    return (
        ("." not in token and "e" not in token)
        or (token[-4:-1] == "e+1" and token[-1] in "2345")
        or (token[-5:-2] == "e-3" and token[-2:] >= "08")
    )


def _relative_neighbours(centres, offsets=(1e-12, 4e-12, 4.9e-12, 6e-12)):
    """Each centre times 1 + k and 1 - k, for every relative offset k."""
    centres = np.asarray(centres, dtype=float)
    return np.concatenate([centres * (1.0 + sign * k) for k in offsets for sign in (1.0, -1.0)])


def _mask_probes():
    """Values on both sides of every bound of cli._respellable, of both signs."""
    integers = np.concatenate([np.arange(1.0, 101.0), 10.0 ** np.arange(2, 17), [123456789012.0, 999999999999.0]])
    subnormals = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, -1021)),
        np.nextafter(np.ldexp(1.0, np.arange(-1073, -1021)), 0.0),
        np.random.default_rng(5).uniform(0.0, 2.2250738585072014e-308, 2000),
    ])
    above_2_52 = np.concatenate([2.0**52 + np.arange(-3.0, 8.0), 2.0 ** np.arange(53, 64), 2.0**53 + 2.0 * np.arange(5)])
    probes = np.concatenate([
        EDGE_SAMPLES,
        _relative_neighbours(integers),
        _relative_neighbours([1e12, 1e16, 1e-307]),
        subnormals,
        above_2_52,
    ])
    return np.concatenate([probes, -probes])


def test_respellable_holds_every_value_whose_token_is_respelled():
    probes = _mask_probes()
    tokens = [cli._SAMPLE_FMT % v for v in probes.tolist()]
    needed = np.array([_respelled_by_the_token_rule(t) or repr(float(t)) != t for t in tokens])
    kinds = {kind: [t for t, need in zip(tokens, needed) if need and test(t)] for kind, test in [
        ("integer", lambda t: "." not in t and "e" not in t),
        ("e+12 to e+15", lambda t: re.search(r"e\+1[2-5]$", t)),
        ("e-308 and below", lambda t: re.search(r"e-3(0[89]|[12][0-9])$", t)),
    ]}
    assert all(kinds.values()), kinds  # the probes reach each kind
    missed = probes[needed & ~cli._respellable(probes)]
    assert missed.size == 0, [(v, cli._SAMPLE_FMT % v) for v in missed.tolist()]


def test_respellable_leaves_a_sample_grid_to_its_integers():
    xs = np.linspace(0.0, 8.0, 5000)
    assert np.flatnonzero(cli._respellable(xs)).tolist() == [0, 4999]
    assert np.flatnonzero(cli._respellable(np.exp(-xs))).tolist() == [0]


# ---------------------------------------------------------- reproduce-tables

def test_reproduce_tables_writes_reference_ladders(tmp_path, capsys):
    code, out, _ = run_cli(["reproduce-tables", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "RESULT PASS" in out

    table1 = (tmp_path / "table1.csv").read_text().splitlines()
    assert table1[0] == "n,g0.5_cs0,g2_cs0,g6_cs0,g2_cs2,g6_cs2"
    assert len(table1) == 12
    assert table1[8].split(",")[2] == "9.1048960"

    table2 = (tmp_path / "table2.csv").read_text().splitlines()
    assert table2[0].startswith("n,g0.5_cps0,")
    assert table2[10].split(",")[8] == "7.5342431"


def test_reproduce_tables_is_bytewise_deterministic(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_cli(["reproduce-tables", "--out", str(first)], capsys)
    run_cli(["reproduce-tables", "--out", str(second)], capsys)
    for name in ("table1.csv", "table2.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_reproduce_tables_makes_a_fifth_of_the_per_cell_residual_calls(tmp_path, monkeypatch, capsys):
    energy_residual = rel.energy_residual
    calls = []

    def counted(*args):
        calls.append(args)
        return energy_residual(*args)

    monkeypatch.setattr(rel, "energy_residual", counted)
    code, _, _ = run_cli(["reproduce-tables", "--out", str(tmp_path)], capsys)
    request = len(calls)
    calls.clear()
    golden.compute_table1()
    golden.compute_table2()
    assert code == 0
    assert 5 * request <= len(calls)


# ----------------------------------------------------------------- validate

def test_validate_identities_json(capsys):
    code, out, _ = run_cli(["validate", "--suite", "identities"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and rows
    for row in rows:
        assert set(row) == {"check", "value", "bound", "pass"}
        assert row["pass"] is True
        assert row["value"] <= row["bound"]


def test_validate_csv_format(capsys):
    code, out, _ = run_cli(["validate", "--suite", "identities", "--format", "csv"], capsys)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["check", "value", "bound", "pass"]
    assert all(r[3] == "true" for r in rows)


def test_validate_failing_row_exits_one_and_still_writes_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(validate, "run_suites", lambda names: [validate.CheckResult("forced", 2.0, 1.0, False)])
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["validate", "--suite", "identities", "--out", str(target)], capsys)
    assert code == 1
    assert out == f"wrote {target}\n"
    assert json.loads(target.read_text()) == [{"check": "forced", "value": 2.0, "bound": 1.0, "pass": False}]


def test_validate_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


# ----------------------------------------------------------------- manifest

def test_manifest_json_round_trip_replays_identically(capsys):
    parser = cli.build_parser()
    args = parser.parse_args(["spectrum", "--branch", "spin", "--g", "6", "--cs", "2", "--n-max", "3"])
    manifest = cli.manifest_from_args(parser, args)
    replayed = cli.RunManifest.from_json(manifest.to_json())
    assert replayed == manifest
    assert cli.run_manifest(replayed).stdout == cli.run_manifest(manifest).stdout


def test_replayed_manifest_blocks_negative_axis_at_fractional_barrier():
    # skips the parser's barrier-index check: g = 1 gives m = 0.618
    params = dict(g=1.0, mass=1.0, omega=1.0, hbar=1.0, c=1.0, out=None, branch="nonrel", n=0,
                  x_min=-1.0, x_max=1.0, points=5, compare_harmonic=False, cs=0.0, cps=0.0)
    manifest = cli.RunManifest(command="wavefunction", parameters=params, output_format="csv")
    with pytest.raises(NonNormalizableError, match=r"x = -1\.0 for m = 0\.618"):
        cli.run_manifest(manifest)


def test_manifest_rejects_bad_fields():
    with pytest.raises(ValueError):
        cli.RunManifest(command="spectrum", parameters={}, output_format="xml")
    good = cli.RunManifest(command="spectrum", parameters={}, output_format="csv").as_dict()
    for seedless in (False, None):
        with pytest.raises(ValueError, match="seedless must be true"):
            cli.RunManifest.from_json(json.dumps({**good, "seedless": seedless}))


def test_run_manifest_rejects_unknown_command():
    bogus = cli.RunManifest(command="frobnicate", parameters={}, output_format="csv")
    with pytest.raises(ValueError, match="unknown command"):
        cli.run_manifest(bogus)


# ------------------------------------------------------------ shared parser

def _help(parser, command):
    """What ``isospectra [command] --help`` prints through parser."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit) as exc:
        parser.parse_args([*command, "--help"])
    assert exc.value.code == 0
    return buffer.getvalue()


def test_parser_is_built_once_and_shared():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_flag_between_requests(capsys):
    assert run_cli(["spectrum", "--branch", "spin", "--g", "6", "--cs", "2", "--n-max", "1"], capsys)[0] == 0
    args = cli.build_parser().parse_args(["spectrum"])
    assert args.g is None and args.cs == 0.0 and args.branch == "nonrel" and args.n_max == 10


def test_shared_parser_gives_the_same_output_around_a_rejected_request(capsys):
    argv = ["wavefunction", "--branch", "spin", "--g", "6", "--cs", "2", "--points", "7", "--format", "json"]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["wavefunction", "--g", "2", "--m", "1", "--points", "9", "--x-min", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(argv, capsys) == (0, first, "")


@pytest.mark.parametrize("command", [[], ["spectrum"], ["wavefunction"], ["potential"], ["reproduce-tables"], ["validate"]])
@pytest.mark.parametrize("columns", [None, "60"])
def test_shared_parser_help_matches_a_fresh_parser(command, columns, monkeypatch):
    shared = cli.build_parser()
    # the width is read when help is formatted, not when the parser was built
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    text = _help(shared, command)
    assert text.startswith("usage: isospectra")
    assert text == _help(cli.build_parser.__wrapped__(), command)


def test_importing_the_cli_builds_no_parser():
    # a fresh interpreter: this one has built the parser already
    src = str(pathlib.Path(isospectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import isospectra.cli as cli
print(len(built))
cli.build_parser()
cli.build_parser()
print(len(built))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0", "6"]


# ------------------------------------------------------------- cold start

def test_sampling_and_level_commands_never_import_scipy(tmp_path):
    # a fresh interpreter: this one has imported scipy for other tests
    src = str(pathlib.Path(isospectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = """
import sys
import isospectra
import isospectra.cli as cli
for argv in (
    ["spectrum", "--branch", "spin", "--n-max", "2"],
    ["spectrum", "--branch", "pseudospin", "--n-max", "2", "--format", "json"],
    ["wavefunction", "--branch", "nonrel", "--m", "1", "--x-min", "-2", "--compare-harmonic", "--points", "9"],
    ["wavefunction", "--branch", "spin", "--points", "9", "--format", "json"],
    ["potential", "--points", "9"],
    ["reproduce-tables", "--out", sys.argv[1]],
):
    assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
