"""End-to-end checks of the command line front end.

Everything goes through cli.main(argv) so the tests exercise the same
path a shell invocation would, including argparse exits and file
writing, without paying subprocess startup per case.
"""
import json
import re

import pytest

from isospectra import cli, nonrel
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


def test_spectrum_unphysical_coupling_exits_one(capsys):
    code, out, err = run_cli(["spectrum", "--g", "-0.3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


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


def test_potential_rejects_origin(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["potential", "--x-min", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


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
    with pytest.raises(ValueError):
        cli.RunManifest(command="spectrum", parameters={}, output_format="csv", seedless=False)


def test_run_manifest_rejects_unknown_command():
    bogus = cli.RunManifest(command="frobnicate", parameters={}, output_format="csv")
    with pytest.raises(ValueError, match="unknown command"):
        cli.run_manifest(bogus)
