"""Reference energy ladders for regression and reproduction runs.

The two tables below are the published reference values this package
is expected to reproduce: relativistic levels at natural units
(mass = omega = hbar = c = 1) for a grid of couplings and symmetry
constants, eleven levels each, quoted to seven decimals. They are
frozen here as data so every reproduction run compares against the
same bytes.

``compute_tables`` recomputes both tables for reproduction runs: each
column is one ladder of levels 0..10 from a single shared scan of the
residual (``rel.solve_levels``), 13 scans in all. A ``reproduce-tables``
request makes 13,096 residual evaluations that way, against 73,407 for
the 143 single-level solves of ``compute_table1`` and ``compute_table2``,
and writes the same bytes: the shared scan gives each level the value
of its own solve, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

from .rel import DiracParams, Symmetry, solve_levels, solve_pseudospin_energy, solve_spin_energy

__all__ = [
    "TableColumn",
    "TABLE1_COLUMNS",
    "TABLE2_COLUMNS",
    "TABLE1_REFERENCE",
    "TABLE2_REFERENCE",
    "N_LEVELS",
    "spin_params",
    "pseudospin_params",
    "compute_table1",
    "compute_table2",
    "compute_tables",
    "max_deviation",
    "TABLE_TOLERANCE",
    "table_deviations",
]

N_LEVELS = 11  # rows n = 0..10
TABLE_TOLERANCE = 5e-7  # half a unit of the seventh decimal that the references quote


@dataclass(frozen=True)
class TableColumn:
    """One (coupling, symmetry constant) column of a reference table."""

    g: float
    sym_constant: float
    label: str


TABLE1_COLUMNS: tuple[TableColumn, ...] = (
    TableColumn(0.5, 0.0, "g0.5_cs0"),
    TableColumn(2.0, 0.0, "g2_cs0"),
    TableColumn(6.0, 0.0, "g6_cs0"),
    TableColumn(2.0, 2.0, "g2_cs2"),
    TableColumn(6.0, 2.0, "g6_cs2"),
)

TABLE2_COLUMNS: tuple[TableColumn, ...] = (
    TableColumn(0.5, 0.0, "g0.5_cps0"),
    TableColumn(2.0, 0.0, "g2_cps0"),
    TableColumn(6.0, 0.0, "g6_cps0"),
    TableColumn(0.5, -2.0, "g0.5_cps-2"),
    TableColumn(2.0, -2.0, "g2_cps-2"),
    TableColumn(6.0, -2.0, "g6_cps-2"),
    TableColumn(2.0, -13.0, "g2_cps-13"),
    TableColumn(6.0, -13.0, "g6_cps-13"),
)

# Spin-branch levels E_n, rows n = 0..10, columns as in TABLE1_COLUMNS.
TABLE1_REFERENCE: tuple[tuple[float, ...], ...] = (
    (2.5509860, 3.1503636, 4.0959121, 3.3991120, 4.2634174),
    (3.7292142, 4.2915849, 5.1735045, 4.6747397, 5.4772542),
    (4.7223578, 5.2667833, 6.1147629, 5.7095838, 6.4867680),
    (5.6093599, 6.1428129, 6.9690531, 6.6208542, 7.3835758),
    (6.4244044, 6.9503157, 7.7611866, 7.4521361, 8.2052891),
    (7.1861562, 7.7065008, 8.5058073, 8.2256717, 8.9719327),
    (7.9061955, 8.4222280, 9.2124501, 8.9547327, 9.6957461),
    (8.5923225, 9.1048960, 9.8877527, 9.6480343, 10.3848919),
    (9.2501029, 9.7598277, 10.5365663, 10.3116853, 11.0451537),
    (9.8836823, 10.3910117, 11.1625702, 10.9501754, 11.6808166),
    (10.4962522, 11.0015335, 11.7686371, 11.5669263, 12.2951658),
)

# Pseudospin-branch levels, rows n = 0..10, columns as in TABLE2_COLUMNS.
TABLE2_REFERENCE: tuple[tuple[float, ...], ...] = (
    (1.7353829, 1.9975105, 2.6220370, 0.8996794, 1.3991120, 2.2634174, 0.8228652, 1.8370383),
    (2.9274128, 3.2918405, 3.9528022, 2.1870188, 2.6747397, 3.4772541, 1.5785297, 2.5680523),
    (3.9414440, 4.3370543, 5.0071893, 3.2260195, 3.7095838, 4.4867680, 2.2966386, 3.2659358),
    (4.8433785, 5.2545579, 5.9290480, 4.1395244, 4.6208542, 5.3835758, 2.9834157, 3.9357442),
    (5.6693464, 6.0900511, 6.7671403, 4.9722337, 5.4521361, 6.2052891, 3.6435022, 4.5813401),
    (6.4394382, 6.8666546, 7.5454937, 5.7467734, 6.2256717, 6.9719327, 4.2804724, 5.2057558),
    (7.1660777, 7.5980685, 8.2781774, 6.4765859, 6.9547326, 7.6957461, 4.8971501, 5.8114252),
    (7.8575782, 8.2932428, 8.9743213, 7.1704749, 7.6480344, 8.3848919, 5.4958138, 6.4003383),
    (8.5198335, 8.9584266, 9.6402732, 7.8345997, 8.3116853, 9.0451537, 6.0783346, 6.9741474),
    (9.1572079, 9.5981991, 10.2806717, 8.4734818, 8.9501754, 9.6808166, 6.6462725, 7.5342431),
    (9.7730448, 10.2160418, 10.8990360, 9.0905633, 9.5669262, 10.2951658, 7.2009446, 8.0818094),
)


def spin_params(col: TableColumn) -> DiracParams:
    """Natural-unit spin-branch parameters for a table column."""
    return DiracParams(g=col.g, sym_constant=col.sym_constant, branch=Symmetry.SPIN)


def pseudospin_params(col: TableColumn) -> DiracParams:
    """Natural-unit pseudospin-branch parameters for a table column."""
    return DiracParams(g=col.g, sym_constant=col.sym_constant, branch=Symmetry.PSEUDOSPIN)


def compute_table1() -> list[list[float]]:
    """Recompute the spin-branch table, rows n = 0..10, with one level solve per cell.

    The per-cell reference that ``compute_tables`` is tested against and
    that the solve-cost counts are pinned on (55 solves); it can become a
    wrapper of ``compute_tables`` once those pins are ceilings (ROADMAP
    item 1).
    """
    return [
        [solve_spin_energy(n, spin_params(col)).value for col in TABLE1_COLUMNS]
        for n in range(N_LEVELS)
    ]


def compute_table2() -> list[list[float]]:
    """Recompute the pseudospin-branch table, rows n = 0..10, with one level solve per cell.

    The per-cell reference of ``compute_tables``; like ``compute_table1``,
    it can become a wrapper once the solve-count pins are ceilings.
    """
    return [
        [solve_pseudospin_energy(n, pseudospin_params(col)).value for col in TABLE2_COLUMNS]
        for n in range(N_LEVELS)
    ]


def compute_tables() -> tuple[list[list[float]], list[list[float]]]:
    """(table 1, table 2) as compute_table1 and compute_table2 give them, rows n = 0..10.

    Each column is one ladder ``solve_levels(N_LEVELS - 1, params)``,
    so both tables cost 13 scans instead of 143 level solves.
    """
    columns1 = [solve_levels(N_LEVELS - 1, spin_params(col)) for col in TABLE1_COLUMNS]
    columns2 = [solve_levels(N_LEVELS - 1, pseudospin_params(col)) for col in TABLE2_COLUMNS]
    return (
        [[ladder[n].value for ladder in columns1] for n in range(N_LEVELS)],
        [[ladder[n].value for ladder in columns2] for n in range(N_LEVELS)],
    )


def max_deviation(computed, reference) -> float:
    """Largest absolute cell difference between two tables."""
    worst = 0.0
    for row_c, row_r in zip(computed, reference, strict=True):
        for vc, vr in zip(row_c, row_r, strict=True):
            worst = max(worst, abs(vc - vr))
    return worst


def table_deviations(table1, table2) -> tuple[float, float]:
    """(max_deviation of table1 from TABLE1_REFERENCE, and of table2 from TABLE2_REFERENCE)."""
    return max_deviation(table1, TABLE1_REFERENCE), max_deviation(table2, TABLE2_REFERENCE)
