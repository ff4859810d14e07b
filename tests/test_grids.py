import itertools

import numpy as np
import pytest

import eweyl as E
from eweyl.grids import _require_distinct
from eweyl.weyl import even_subgroup
from conftest import SELECTORS
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
    for sel, kind in [("a1xa2", "e"), ("a1xc2", "ee"), ("a1xa1xa1", "e")]:
        system = E.system_from_selector(sel)
        group = even_subgroup(system, kind)
        weights = E.enumerate_dominant(system, kind, 2)
        reps = [E.orbit(group, w)[0] for w in weights]
        assert len(set(reps)) == len(weights)


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
        from fractions import Fraction as Q

        assert gp.point == (Q(s1, 3), Q(-s2, 3), Q(s2 + s3, 3))


def test_duplicate_keys_are_caught():
    keys = np.array([[1, 2, 0], [0, 1, 2], [2, 0, 1], [0, 1, 2]], dtype=np.int64)
    with pytest.raises(AssertionError, match="duplicate"):
        _require_distinct(keys, "point")
    _require_distinct(keys[:3], "point")
