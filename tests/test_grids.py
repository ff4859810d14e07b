import dataclasses
import itertools
from fractions import Fraction as Q

import numpy as np
import pytest

import eweyl as E
from eweyl import grids
from eweyl.efunc import scaled_orbit_sums
from eweyl.grids import PointGrid, WeightGrid, _gluing_reflection, _stabiliser_orders, domain_blocks
from eweyl.transform import quadrature_cells
from eweyl.weyl import even_subgroup, simple_reflection
from conftest import SELECTORS, traced_peak
from reference import (
    canonical_torus_point,
    oracle_point_grid,
    torus_congruent,
    weight_congruent_mod_mq,
)


def test_point_grid_counts():
    aa = E.system_from_selector("a1xa1")
    # 9 closed-branch points plus the single interior reflected one
    assert len(E.build_point_grid(aa, "e", 2)) == 10
    a1a2 = E.system_from_selector("a1xa2")
    assert len(E.build_point_grid(a1a2, "ee", (1, 1))) == 6
    aaa = E.system_from_selector("a1xa1xa1")
    assert len(E.build_point_grid(aaa, "e", 1)) == 8


def test_weight_grid_counts():
    aa = E.system_from_selector("a1xa1")
    assert len(E.build_weight_grid(aa, "e", 2)) == 10
    a1g2 = E.system_from_selector("a1xg2")
    # dual constraint 3 t2 + 2 t3 <= 1 kills everything but (0, 0)
    grid = E.build_weight_grid(a1g2, "e", 1)
    assert len(grid) == 2
    assert {sp.weight for sp in grid} == {(0, 0, 0), (1, 0, 0)}


def test_grid_sizes_match_weight_sizes():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        k = len(system.factors)
        for m in range(1, 5):
            assert len(E.build_point_grid(system, "e", m)) == len(
                E.build_weight_grid(system, "e", m)
            )
        for ms in itertools.product((1, 2, 3, 4), repeat=k):
            assert len(E.build_point_grid(system, "ee", ms)) == len(
                E.build_weight_grid(system, "ee", ms)
            )


def test_label_constraints():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        k = len(system.factors)
        cases = [("e", (3,)), ("ee", (2,) * (k - 1) + (3,))]
        for kind, ms in cases:
            per_factor = ms * k if kind == "e" else ms
            for gp in E.build_point_grid(system, kind, ms):
                pos = 0
                for f, m in zip(system.factors, per_factor):
                    block = gp.label[pos: pos + 1 + f.rank]
                    assert block[0] + sum(
                        mk * s for mk, s in zip(f.marks, block[1:])
                    ) == m
                    pos += 1 + f.rank
            for sp in E.build_weight_grid(system, kind, ms):
                pos = 0
                for f, m in zip(system.factors, per_factor):
                    block = sp.label[pos: pos + 1 + f.rank]
                    assert block[0] + sum(
                        mk * s for mk, s in zip(f.dual_marks, block[1:])
                    ) == m
                    pos += 1 + f.rank


def test_grid_coefficients_match_group_computation():
    for sel in ("a1xa2", "a1xa1xa1"):
        system = E.system_from_selector(sel)
        k = len(system.factors)
        for kind, ms in [("e", (2,)), ("ee", (2,) * k)]:
            group = even_subgroup(system, kind)
            for gp in E.build_point_grid(system, kind, ms):
                x = gp.point
                fixing = sum(torus_congruent(system, w.apply_point(x), x) for w in group)
                assert gp.epsilon == group.order // fixing
            per_factor = ms * k if kind == "e" else ms
            for sp in E.build_weight_grid(system, kind, ms):
                lam = sp.weight
                assert sp.h == sum(
                    weight_congruent_mod_mq(system, w.apply_weight(lam), lam, per_factor)
                    for w in group
                )


def test_bad_moduli_rejected():
    system = E.system_from_selector("a1xa2")
    with pytest.raises(E.UsageError):
        E.build_point_grid(system, "e", 0)
    with pytest.raises(E.UsageError):
        E.build_point_grid(system, "e", (2, 2))
    with pytest.raises(E.UsageError):
        E.build_point_grid(system, "ee", (2,))


def test_oracle_equivalence_samples():
    for sel, kind, ms in [("a1xa2", "e", 3), ("a1xc2", "ee", (2, 3))]:
        system = E.system_from_selector(sel)
        grid = E.build_point_grid(system, kind, ms)
        got = {canonical_torus_point(system, gp.point) for gp in grid}
        assert got == oracle_point_grid(system, kind, ms)


def test_oracle_m1_closed_branch_only():
    aa = E.system_from_selector("a1xa1")
    oracle = oracle_point_grid(aa, "e", 1)
    assert len(oracle) == 4  # {0,1}^2, the open branch needs 0 < s < 1
    assert oracle == {canonical_torus_point(aa, gp.point) for gp in E.build_point_grid(aa, "e", 1)}


def test_enumerate_dominant_examples():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        assert E.enumerate_dominant(system, "e", 0) == [(0,) * system.n]
    aa = E.system_from_selector("a1xa1")
    got = E.enumerate_dominant(aa, "e", 1)
    assert set(got) == {(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)}


def test_enumerate_dominant_orbit_disjoint():
    # enumerate_dominant keeps every glued weight: only a correct domain
    # gives one weight per even orbit
    for sel, kind, bound in itertools.product(SELECTORS, ("e", "ee"), range(5)):
        system = E.system_from_selector(sel)
        group = even_subgroup(system, kind)
        weights = E.enumerate_dominant(system, kind, bound)
        reps = [E.orbit(group, w)[0] for w in weights]
        assert len(set(reps)) == len(weights), (sel, kind, bound)


def test_enumerate_dominant_counts_before_enumerating(monkeypatch):
    # with the limit one below the true size, the refusal names the exact count
    for sel, kind, bound in itertools.product(SELECTORS, ("e", "ee"), range(7)):
        system = E.system_from_selector(sel)
        size = len(E.enumerate_dominant(system, kind, bound))
        monkeypatch.setattr(grids, "MAX_GRID_CELLS", size - 1)
        with pytest.raises(E.UsageError, match=f"bound {bound} gives {size} weights"):
            E.enumerate_dominant(system, kind, bound)
        monkeypatch.undo()


def test_enumerate_dominant_refusals():
    a1xc2 = E.system_from_selector("a1xc2")
    # about 2e12 weights: refused from the count alone
    with pytest.raises(E.UsageError, match="the limit is"):
        E.enumerate_dominant(a1xc2, "e", 10**4)
    with pytest.raises(E.UsageError, match="the limit is"):
        E.continuous_coefficients(lambda p: 1.0, a1xc2, "ee", weight_bound=10**4, resolution=2)
    for bound in (2.5, 2.0, "2", None):
        with pytest.raises(E.UsageError, match="bound must be an integer"):
            E.enumerate_dominant(a1xc2, "e", bound)
    with pytest.raises(E.UsageError, match="bound must be >= 0"):
        E.enumerate_dominant(a1xc2, "e", -1)
    assert E.enumerate_dominant(a1xc2, "e", np.int64(1)) == E.enumerate_dominant(a1xc2, "e", 1)


def test_size_refused_before_any_piece_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a piece was built")

    monkeypatch.setattr(grids, "_kac_labels", refuse)
    monkeypatch.setattr(grids, "_circle_labels", refuse)
    a1xa2, a1xc2 = (E.system_from_selector(sel) for sel in ("a1xa2", "a1xc2"))
    with pytest.raises(E.UsageError, match=r"moduli \[100000\] give a grid of about \d+ cells"):
        E.build_point_grid(a1xa2, "e", 10**5)
    with pytest.raises(E.UsageError, match=r"moduli \[10000, 10000\] give a grid"):
        E.build_weight_grid(a1xc2, "ee", (10**4, 10**4))
    with pytest.raises(E.UsageError, match=f"the limit is {grids.MAX_GRID_CELLS}"):
        quadrature_cells(a1xa2, "e", 10**3)


def test_gluing_reflection_moves_only_its_factor():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        first = next((i for i, f in enumerate(system.factors) if f.rank >= 2), 0)
        assert [b.reflected for b in domain_blocks(system, "e")] == [first]
        assert [b.reflected for b in domain_blocks(system, "ee")] == [*range(len(system.factors))]
        for block in domain_blocks(system, "e") + domain_blocks(system, "ee"):
            assert block.reflected in block.factors
            lo, hi = system.factor_slices()[block.reflected]
            r = simple_reflection(system, lo)
            kind = system.factors[block.reflected].kind
            for matrix, dual in ((r.weight_matrix, True), (r.coweight_matrix, False)):
                outside = np.array(matrix)
                assert (outside[lo:hi, lo:hi] == _gluing_reflection(kind, dual)).all()
                outside[lo:hi, lo:hi] = np.eye(hi - lo, dtype=int)
                assert (outside == np.eye(system.n, dtype=int)).all()


def test_grid_is_deterministic():
    system = E.system_from_selector("a1xg2")
    first = E.build_point_grid(system, "e", 3)
    second = E.build_point_grid(system, "e", 3)
    assert first == second and first is second  # cached, canonical order


def test_reflected_branch_coordinates():
    # the reflected branch of the a1xa2 grid stores x w1 - y w2 + (y+z) w3
    system = E.system_from_selector("a1xa2")
    grid = E.build_point_grid(system, "e", 3)
    reflected = [gp for gp in grid if any(c < 0 for c in gp.point)]
    assert reflected, "M=3 has interior points to reflect"
    for gp in reflected:
        # drop the derived s0 entry of each factor's label
        s1, s2, s3 = gp.label[1:2] + gp.label[3:]
        assert gp.point == (Q(s1, 3), Q(-s2, 3), Q(s2 + s3, 3))


def test_duplicate_keys_are_caught():
    # at M = 2 an A1 point s / 2 is s mod 4: (5, 2) / 2 is congruent to (1, 2) / 2
    group = even_subgroup(E.system_from_selector("a1xa1"), "ee")
    rows = [(1, 2), (0, 1), (5, 2)]
    with pytest.raises(AssertionError, match="duplicate"):
        _stabiliser_orders(group, rows, (2, 2), False, "point")
    _stabiliser_orders(group, rows[:2], (2, 2), False, "point")


def test_grid_records_are_read_only_arrays_of_their_tuples():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for kind, ms in (("e", (3,)), ("ee", (2,) * len(system.factors))):
            points = E.build_point_grid(system, kind, ms)
            weights = E.build_weight_grid(system, kind, ms)
            # one cache entry per side; its items are built when read, never kept
            assert points is E.build_point_grid(system, kind, list(ms))
            assert weights is E.build_weight_grid(system, kind, list(ms))
            items, spectral = tuple(points), tuple(weights)
            assert points[0] == items[0] and points[0] is not points[0]
            # a point is stored once, as numerators over one denominator; no keys
            assert [*vars(points)] == [f.name for f in dataclasses.fields(points)] == [
                "numerators", "denominator", "labels", "eps"]
            assert [*vars(weights)] == [f.name for f in dataclasses.fields(weights)]
            for a in (points.numerators, points.labels, points.eps,
                      weights.weights, weights.labels, weights.h, weights.norms):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0
            assert points.labels.tolist() == [list(gp.label) for gp in items]
            assert points.eps.tolist() == [gp.epsilon for gp in items]
            assert [tuple(Q(v, points.denominator) for v in row)
                    for row in points.numerators.tolist()] == [gp.point for gp in items]
            assert weights.weights.tolist() == [list(sp.weight) for sp in spectral]
            assert weights.labels.tolist() == [list(sp.label) for sp in spectral]
            assert weights.h.tolist() == [sp.h for sp in spectral]


def _kept_bytes(record):
    return sum(getattr(record, f.name).nbytes for f in dataclasses.fields(record)
               if isinstance(getattr(record, f.name), np.ndarray))


def test_grid_building_peaks_within_twice_its_record():
    # |G| = 12 and N = 18 576: a stack of the 12 (N, 3) images would need 7x the record
    system = E.system_from_selector("a1xg2")
    even_subgroup(system, "e")  # fill the group cache
    points, peak = traced_peak(lambda: grids.point_grid_arrays(system, "e", 48))
    assert len(points) >= 10**4 and peak <= 2 * _kept_bytes(points)
    weights, peak = traced_peak(lambda: grids._weight_grid_cached.__wrapped__(system, "e", (48,)))
    assert len(weights) >= 10**4 and peak <= 2 * _kept_bytes(weights)


def test_in_even_domain_refuses_malformed_points():
    a1xa2 = E.system_from_selector("a1xa2")
    for x in (
        (0, 0, 0, Q(1, 2), 0, 0),  # was True: read as the two points of a batch
        (0, Q(1, 2)),  # was a ValueError from the reshape
        (0.5, 0, 0),  # was accepted, while xi refuses floats
        (float("nan"), 0, 0),
    ):
        with pytest.raises(E.UsageError):
            E.in_even_domain(a1xa2, "e", x)
    assert E.in_even_domain(a1xa2, "e", (0, 0, 0))
    assert E.in_even_domain(a1xa2, "e", (Q(1, 4), np.int64(0), Q(1, 3)))


def test_domain_mask_of_int64_rows_equals_fractions():
    # np.abs(-2**63) is -2**63, which must not pass for a small bound
    edges = (-(2**63), -1, 0, 1, 3, 2**63 - 1)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        rows = list(itertools.product(edges, repeat=system.n))
        for kind in ("e", "ee"):
            for lcm in (4, 2**64):
                want = [E.in_even_domain(system, kind, [Q(v, lcm) for v in row]) for row in rows]
                got = grids.domain_mask(system, kind, np.array(rows, dtype=np.int64), lcm)
                assert got.tolist() == want, (sel, kind, lcm)


def test_domain_mask_refuses_what_orbit_sums_refuse():
    a1xg2 = E.system_from_selector("a1xg2")
    for rows in ([[0.5, 0.25, 0]], np.array([[0.5, 0.25, 0]]), [[1, 2]], [[1, 2, 3], [4]]):
        with pytest.raises(E.UsageError):
            grids.domain_mask(a1xg2, "e", rows, 4)
        with pytest.raises(E.UsageError):
            scaled_orbit_sums(a1xg2, "e", [(1, 0, 0)], rows, 4)


def test_domain_mask_of_object_rows_equals_int64():
    # numpy integers among objects are read as Python ints: 2**63 - 1 + 1 must not wrap
    a1xa2 = E.system_from_selector("a1xa2")
    rows = [(0, 2**63 - 1, 1), (0, 1, 1), (1, 0, 3), (-1, 1, 1)]
    want = grids.domain_mask(a1xa2, "e", np.array(rows, dtype=np.int64), 4)
    assert want.tolist() == [False, True, True, False]
    for form in (rows, np.array(rows, dtype=object),
                 np.array([[np.int64(v) for v in row] for row in rows], dtype=object)):
        assert grids.domain_mask(a1xa2, "e", form, 4).tolist() == want.tolist()


def test_one_modulus_power():
    from eweyl import grids, transform

    assert transform.modulus_power is grids.modulus_power
    a1xc2 = E.system_from_selector("a1xc2")
    assert grids.modulus_power(a1xc2, "e", 3) == 3**3
    assert grids.modulus_power(a1xc2, "ee", (2, 5)) == 2 * 5**2


def _items_from_arrays(record):
    """The items of a point, weight or cubature record, built straight from its arrays."""
    if isinstance(record, WeightGrid):
        return tuple(E.SpectralPoint(tuple(w), tuple(label), h) for w, label, h in
                     zip(record.weights.tolist(), record.labels.tolist(), record.h.tolist()))
    points = [tuple(Q(v, record.denominator) for v in row) for row in record.numerators.tolist()]
    if isinstance(record, PointGrid):
        return tuple(E.GridPoint(p, tuple(label), e) for p, label, e in
                     zip(points, record.labels.tolist(), record.eps.tolist()))
    return tuple(zip(points, record.weights.tolist()))


def test_grid_records_read_as_their_tuples():
    system = E.system_from_selector("a1xc2")
    for grid in (E.build_point_grid(system, "ee", (3, 2)), E.build_weight_grid(system, "e", 3),
                 quadrature_cells(system, "ee", 3)):
        items = _items_from_arrays(grid)
        assert len(grid) == len(items) > 7
        assert grid[0] == items[0] and grid[-1] == items[-1] and grid[-3] == items[-3]
        assert grid[np.int64(5)] == items[5] and grid[len(items) - 1] == items[-1]
        assert grid[2:7] == items[2:7] and grid[::-2] == items[::-2]
        assert grid[5:1:-3] == items[5:1:-3]
        assert grid[len(items):] == () and type(grid[1:3]) is tuple
        assert list(grid) == list(items) and list(reversed(grid)) == list(reversed(items))
        assert items[4] in grid and tuple(grid) == items
        for k in (len(items), -len(items) - 1):
            with pytest.raises(IndexError):
                grid[k]


def _fraction_rows_by_entry(numerators, denominator):
    return [tuple(Q(int(v), denominator) for v in row) for row in numerators]


@pytest.mark.parametrize("numerators, unique", [
    (np.array([[0, 3], [3, -2], [1, 0]]), False),  # a span of 5 values over 6 entries
    (np.array([[0, 10**12], [5, 5]]), True),
    (np.array([[2**70 + 1, 2**70], [2**70 + 3, 2**70]], dtype=object), False),
    (np.array([[2**70, -(2**70)], [7, 2**70]], dtype=object), True),
    (np.array([[-(2**63), -(2**63) + 2]]), False),
    (np.zeros((0, 3), dtype=np.int64), False),
])
def test_fraction_rows_share_one_fraction_per_numerator(monkeypatch, numerators, unique):
    calls, np_unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or np_unique(*a, **k))
    rows = grids.fraction_rows(numerators, 6)
    assert bool(calls) == unique
    assert rows == _fraction_rows_by_entry(numerators, 6)
    assert all(isinstance(v, Q) for row in rows for v in row)
    entries = [(v, q) for row, qs in zip(numerators.tolist(), rows) for v, q in zip(row, qs)]
    for (v, q), (w, r) in itertools.combinations(entries, 2):
        assert (q is r) == (v == w)


def test_fraction_rows_of_every_grid_are_its_points():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for kind, ms in (("e", 3), ("ee", (2,) * len(system.factors))):
            grid = E.build_point_grid(system, kind, ms)
            rows = grids.fraction_rows(grid.numerators, grid.denominator)
            assert rows == _fraction_rows_by_entry(grid.numerators, grid.denominator)
    cells = quadrature_cells(E.system_from_selector("a1xa2"), "e", 8)
    rows = grids.fraction_rows(cells.numerators, cells.denominator)
    assert rows == _fraction_rows_by_entry(cells.numerators, cells.denominator)
