"""Fixtures shared by the test modules."""
from __future__ import annotations

from decimal import Decimal, localcontext

import pytest


def _decimal_level(n, p, sign, offset, above):
    """The float nearest the n-th root of the relativistic level condition, bisected in 60-digit decimals.

    The condition is that of ``rel.energy_residual``:
    (E - s M c^2) sqrt(w) = hbar c omega sqrt(2 M) (2n + 1 + (1/2) sqrt(1 + 2 g w / (hbar c)^2))
    with w = E + s M c^2 - C and (s, C) = (sign, offset). M c^2 is the
    float ``p.rest_energy``, so the window edge is the solver's own (its
    rounding alone moves a level next to the edge by up to an ulp); every
    other scale is formed from the exact decimal values of the float
    parameters. The bracket runs from the window edge (w = 0, and for
    s = +1 also E = M c^2) to ``above``, an energy above the level, and is
    halved until its midpoint rounds to an end; the two ends then agree to
    60 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        s, c_sym, g = Decimal(int(sign)), Decimal(offset), Decimal(p.g)
        mc2 = Decimal(p.rest_energy)
        hc2 = (Decimal(p.hbar) * Decimal(p.c)) ** 2
        scale = Decimal(p.hbar) * Decimal(p.c) * Decimal(p.omega) * (2 * Decimal(p.mass)).sqrt()

        def residual(e):
            w = e + s * mc2 - c_sym
            return (e - s * mc2) * w.sqrt() - scale * (2 * n + 1 + (1 + 2 * g * w / hc2).sqrt() / 2)

        lo = max(mc2, c_sym - mc2) if sign > 0 else mc2 + c_sym
        hi = Decimal(above)
        assert residual(lo) < 0 < residual(hi)
        while lo < (mid := (lo + hi) / 2) < hi:
            if residual(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


@pytest.fixture
def decimal_level():
    """``_decimal_level(n, p, sign, offset, above)``: a reference for the levels the float solver returns."""
    return _decimal_level
