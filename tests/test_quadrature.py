"""The integer quadrature cells against a Fraction reference built cell by cell."""

import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest

import eweyl as E
from eweyl import efunc
from eweyl.efunc import orbit_sums, scaled_orbit_sums
from eweyl.grids import domain_blocks
from eweyl.lie_data import UsageError
from eweyl.transform import quadrature_cells

RESOLUTIONS = range(1, 7)


def _factor_cells(factor, n):
    """Midpoints of A1 intervals, centroids of the rank-2 subdivision."""
    if factor.rank == 1:
        return [((Q(2 * i + 1, 2 * n),), Q(1, n)) for i in range(n)]
    m1, m2 = factor.marks
    w = Q(1, 2 * n * n) / (m1 * m2)
    cells = [
        ((Q(3 * i + 1, 3 * n) / m1, Q(3 * j + 1, 3 * n) / m2), w)
        for i in range(n) for j in range(n - i)
    ]
    cells += [
        ((Q(3 * i + 2, 3 * n) / m1, Q(3 * j + 2, 3 * n) / m2), w)
        for i in range(n) for j in range(n - i - 1)
    ]
    return cells


def _reference_cells(system, kind, n):
    """Per-factor Fraction cells, products, and one reflection per interior cell."""
    blocks = []
    for block in domain_blocks(system, kind):
        per_factor = [
            [(c, (float(w),)) for c, w in _factor_cells(system.factors[i], n)]
            for i in block.factors
        ]
        if block.circle:
            (cells,) = per_factor
            blocks.append(cells + [(tuple(-v for v in c), t) for c, t in cells])
            continue
        closed = [
            (tuple(v for c, _ in combo for v in c), tuple(t for _, ts in combo for t in ts))
            for combo in itertools.product(*per_factor)
        ]
        interior = [(block.reflection.apply_point(c), t) for c, t in closed]
        blocks.append(closed + interior)
    return [
        (tuple(v for c, _ in combo for v in c), math.prod(t for _, ts in combo for t in ts))
        for combo in itertools.product(*blocks)
    ]


@pytest.mark.parametrize("kind", ["e", "ee"])
@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
def test_cells_match_fraction_reference(sel, kind):
    system = E.system_from_selector(sel)
    spectrum = E.enumerate_dominant(system, kind, 2)
    for n in RESOLUTIONS:
        cells = quadrature_cells(system, kind, n)
        ref = _reference_cells(system, kind, n)
        assert len(cells) == len(ref)
        assert repr(list(cells)) == repr(ref), (sel, kind, n)
        got = scaled_orbit_sums(system, kind, spectrum, cells.numerators, cells.denominator)
        want = orbit_sums(system, kind, spectrum, [p for p, _ in ref])
        assert np.array_equal(got, want), (sel, kind, n)


def test_phasor_table_and_residue_lookup_agree(monkeypatch):
    system = E.system_from_selector("a1xg2")
    cells = quadrature_cells(system, "e", 5)
    spectrum = E.enumerate_dominant(system, "e", 2)
    tabled = scaled_orbit_sums(system, "e", spectrum, cells.numerators, cells.denominator)
    monkeypatch.setattr(efunc, "_TABLE_MAX", 0)
    looked_up = scaled_orbit_sums(system, "e", spectrum, cells.numerators, cells.denominator)
    assert np.array_equal(tabled, looked_up)


@pytest.mark.parametrize("resolution", [0, 2.5, -2])
def test_bad_resolution_is_refused(resolution):
    a1 = E.assemble_system(("a1",))
    with pytest.raises(UsageError):
        quadrature_cells(a1, "e", resolution)
    with pytest.raises(UsageError):
        E.continuous_coefficients(lambda p: 1.0, a1, "e", weight_bound=1, resolution=resolution)
