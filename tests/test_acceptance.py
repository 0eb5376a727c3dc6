"""Release gate: one test per acceptance criterion.

Each test exercises one shipping requirement at its stated tolerance
and prints a single PASS/FAIL summary line (visible with -s, or in the
captured output of a failure). Criteria with runtime expectations also
assert the wall-clock budget.
"""
import time

import pytest

from isospectra import cli, golden, validate


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_spin_reference_ladder():
    t0 = time.perf_counter()
    dev = golden.max_deviation(golden.compute_table1(), golden.TABLE1_REFERENCE)
    elapsed = time.perf_counter() - t0
    ok = dev <= 5e-7 and elapsed < 1.0
    _line(1, ok, f"spin ladder worst deviation {dev:.3e} (bound 5e-7) in {elapsed:.2f}s (bound 1s)")
    assert dev <= 5e-7
    assert elapsed < 1.0


def test_criterion_02_pseudospin_reference_ladder():
    t0 = time.perf_counter()
    dev = golden.max_deviation(golden.compute_table2(), golden.TABLE2_REFERENCE)
    elapsed = time.perf_counter() - t0
    ok = dev <= 5e-7 and elapsed < 1.0
    _line(2, ok, f"pseudospin ladder worst deviation {dev:.3e} (bound 5e-7) in {elapsed:.2f}s (bound 1s)")
    assert dev <= 5e-7
    assert elapsed < 1.0


def test_criterion_03_finite_difference_oracle():
    t0 = time.perf_counter()
    stats = validate.fd_oracle_stats()
    elapsed = time.perf_counter() - t0
    ok = stats["ratio"] <= 1.0 and stats["estimate"] <= 1e-5 and stats["order_dev"] <= 0.2 and elapsed < 10.0
    _line(
        3,
        ok,
        f"fd agreement ratio {stats['ratio']:.3f} (<=1), error estimate {stats['estimate']:.2e} (<=1e-5), "
        f"order dev {stats['order_dev']:.3f} (<=0.2) in {elapsed:.1f}s (bound 10s)",
    )
    assert stats["ratio"] <= 1.0
    assert stats["estimate"] <= 1e-5
    assert stats["order_dev"] <= 0.2
    assert elapsed < 10.0


def test_criterion_04_selfconsistent_dirac_oracle():
    t0 = time.perf_counter()
    ratio = validate.selfconsistent_ratio()
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.0 and elapsed < 60.0
    _line(4, ok, f"selfconsistent agreement ratio {ratio:.3f} (<=1) in {elapsed:.1f}s (bound 60s)")
    assert ratio <= 1.0
    assert elapsed < 60.0


def test_criterion_05_equidistant_spacing():
    # closed form gives consecutive gaps of exactly twice the harmonic
    # quantum; in float arithmetic the barrier shift rounds per level,
    # so "exactly" is read as agreement at the last representable digit
    dev = validate.level_spacing_deviation()
    ok = dev <= 1e-14
    _line(5, ok, f"level spacing deviation from 2*hbar*omega {dev:.3e} (bound 1e-14)")
    assert dev <= 1e-14


def test_criterion_06_harmonic_reduction_at_zero_coupling():
    dev = validate.harmonic_reduction_deviation()
    ok = dev == 0.0
    _line(6, ok, f"zero-coupling ladder vs odd harmonic levels, deviation {dev:.3e} (bound exact)")
    assert dev == 0.0


def test_criterion_07_klein_gordon_matches_spin_branch():
    dev = validate.kg_spin_deviation()
    ok = dev <= 1e-10
    _line(7, ok, f"klein-gordon vs spin branch worst deviation {dev:.3e} (bound 1e-10)")
    assert dev <= 1e-10


def test_criterion_08_duality_shift():
    dev = validate.duality_deviation()
    ref_dev = 0.0
    for row1, row2 in zip(golden.TABLE1_REFERENCE, golden.TABLE2_REFERENCE):
        for i1, i2 in ((3, 4), (4, 5)):  # cs=2 columns against cps=-2, same g
            ref_dev = max(ref_dev, abs((row1[i1] - row2[i2]) - 2.0))
    ok = dev <= 1e-9 and ref_dev <= 2e-7
    _line(
        8,
        ok,
        f"spin minus pseudospin shift vs 2Mc^2: computed {dev:.3e} (bound 1e-9), "
        f"reference columns {ref_dev:.3e} (7-decimal quantization)",
    )
    assert dev <= 1e-9
    assert ref_dev <= 2e-7


def test_criterion_09_nonrelativistic_limit_slope():
    devs = validate.limit_slope_devs()
    ok = max(devs) <= 0.2
    _line(9, ok, f"limit deviation log-log slope within {max(devs):.3f} of -2 (bound 0.2)")
    assert max(devs) <= 0.2


def test_criterion_10_function_space_properties():
    ortho = max(validate.nonrel_orthonormality_deviation(g) for g in (0.5, 2.0, 6.0))
    ode = max(
        validate.nonrel_ode_residual(0),
        validate.nonrel_ode_residual(3),
        validate.spin_ode_residual(),
        validate.pseudospin_ode_residual(),
    )
    series = validate.kummer_laguerre_deviation()
    ok = ortho <= 1e-9 and ode <= 1e-6 and series <= 1e-12
    _line(
        10,
        ok,
        f"orthonormality {ortho:.2e} (<=1e-9), ode residuals {ode:.2e} (<=1e-6), "
        f"laguerre-series identity {series:.2e} (<=1e-12)",
    )
    assert ortho <= 1e-9
    assert ode <= 1e-6
    assert series <= 1e-12


def test_criterion_11_bytewise_deterministic_tables(tmp_path, capsys):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert cli.main(["reproduce-tables", "--out", str(first)]) == 0
    assert cli.main(["reproduce-tables", "--out", str(second)]) == 0
    capsys.readouterr()  # swallow the CLI's own summary lines
    same = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("table1.csv", "table2.csv")
    )
    _line(11, same, "consecutive table reproductions are byte-identical")
    assert same


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
