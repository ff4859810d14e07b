import random
from fractions import Fraction as Q

import pytest

import eweyl as E
from eweyl.lie_data import identity_matrix
from eweyl.weyl import simple_reflection, torus_keys, torus_orbit_sizes, weight_stabs_mod_mq
from conftest import SELECTORS, rational_point
from reference import canonical_torus_point, torus_congruent, weight_congruent_mod_mq


def test_full_weyl_orders():
    assert E.generate_weyl(E.system_from_selector("a1xa1")).order == 4
    assert E.generate_weyl(E.system_from_selector("a1xa2")).order == 12
    assert E.generate_weyl(E.system_from_selector("a1xg2")).order == 24
    assert E.generate_weyl(E.system_from_selector("a1xc2")).order == 16
    assert E.generate_weyl(E.system_from_selector("a1xa1xa1")).order == 8


def test_identity_present_and_dets_split():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        full = E.generate_weyl(system)
        idm = identity_matrix(system.n)
        assert any(w.weight_matrix == idm for w in full)
        evens = [w for w in full if w.det == 1]
        odds = [w for w in full if w.det == -1]
        assert len(evens) == len(odds) == full.order // 2


def test_even_subgroup_orders():
    for sel, (oe, oee) in E.REFERENCE_GROUP_ORDERS.items():
        system = E.system_from_selector(sel)
        assert E.even_subgroup(system, "e").order == oe
        assert E.even_subgroup(system, "ee").order == oee


def test_product_even_inside_full_even():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        full_even = set(w.weight_matrix for w in E.even_subgroup(system, "e"))
        for w in E.even_subgroup(system, "ee"):
            assert w.det == 1
            assert w.weight_matrix in full_even


def test_generator_relations():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        idm = identity_matrix(system.n)
        for i in range(system.n):
            r = simple_reflection(system, i)
            assert r.det == -1
            assert r.compose(r).weight_matrix == idm
            # differs from the identity only in column i: a_j -> a_j - a_i c_ij
            for j in range(system.n):
                for k in range(system.n):
                    want = (1 if j == k else 0) - (
                        system.cartan[i][j] if k == i else 0
                    )
                    assert r.weight_matrix[j][k] == want


def test_pairing_preserved_on_basis():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        n = system.n
        for w in E.generate_weyl(system):
            for i in range(n):
                lam = tuple(1 if t == i else 0 for t in range(n))
                for j in range(n):
                    x = tuple(Q(1 if t == j else 0) for t in range(n))
                    assert E.pairing(system, lam, x) == E.pairing(
                        system, w.apply_weight(lam), w.apply_point(x)
                    )


def test_orbit_examples():
    aa = E.system_from_selector("a1xa1")
    assert set(E.orbit(E.even_subgroup(aa, "e"), (2, 3))) == {(2, 3), (-2, -3)}
    assert E.orbit(E.even_subgroup(aa, "e"), (0, 0)) == ((0, 0),)

    a1a2 = E.system_from_selector("a1xa2")
    got = set(E.orbit(E.even_subgroup(a1a2, "ee"), (1, 2, 3)))
    assert got == {(1, 2, 3), (1, 3, -5), (1, -5, 2)}
    got_e = set(E.orbit(E.even_subgroup(a1a2, "e"), (1, 2, 3)))
    assert got_e == {
        (1, 2, 3), (1, 3, -5), (1, -5, 2),
        (-1, -2, 5), (-1, 5, -3), (-1, -3, -2),
    }


def test_a1xg2_orbit_resolves_misprint():
    # generic full-even orbit of a1xg2; the sixth pair comes out as
    # (-a, +/-(2b+c), -/+(3b+2c)), not the mixed-coordinate variant
    system = E.system_from_selector("a1xg2")
    a, b, c = 1, 2, 3
    got = set(E.orbit(E.even_subgroup(system, "e"), (a, b, c)))
    assert len(got) == 12
    assert (-a, 2 * b + c, -(3 * b + 2 * c)) in got
    assert (-a, -(2 * b + c), 3 * b + 2 * c) in got
    assert (-a, 2 * b + c, -(3 * a + 2 * b)) not in got


def test_orbit_times_stabilizer():
    rng = random.Random(3)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for kind in ("e", "ee"):
            group = E.even_subgroup(system, kind)
            for _ in range(12):
                lam = tuple(rng.randrange(-3, 4) for _ in range(system.n))
                assert len(E.orbit(group, lam)) * E.stab_order(group, lam) == group.order


def test_stab_order_examples():
    a1g2 = E.system_from_selector("a1xg2")
    assert E.stab_order(E.even_subgroup(a1g2, "e"), (2, 0, 0)) == 6
    a1c2 = E.system_from_selector("a1xc2")
    assert E.stab_order(E.even_subgroup(a1c2, "e"), (0, 0, 5)) == 2
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        group = E.even_subgroup(system, "e")
        assert E.stab_order(group, (0,) * system.n) == group.order


def test_torus_orbit_size_examples():
    a1a2 = E.system_from_selector("a1xa2")
    group = E.even_subgroup(a1a2, "e")
    m = 5
    # label [s0,s1,s0',s2,0], all displayed entries nonzero
    x = (Q(1, m), Q(2, m), Q(0))
    assert torus_orbit_sizes(group, *torus_keys(a1a2, [x, (Q(0), Q(0), Q(0))])) == (6, 1)

    aa = E.system_from_selector("a1xa1")
    # label [s0,0,s0',0] is the origin cell; a generic point has the full even orbit
    points = [(Q(0), Q(0)), (Q(1, 5), Q(2, 5))]
    assert torus_orbit_sizes(E.even_subgroup(aa, "e"), *torus_keys(aa, points)) == (1, 2)


def test_weight_stab_mod_mq_examples():
    a1c2 = E.system_from_selector("a1xc2")
    group = E.even_subgroup(a1c2, "e")
    m = 6
    # label [t0,0,0,0,t3]: t1 = 0, dual-mark constraint forces 2 t3 = M
    lam = (0, 0, m // 2)
    # then a generic interior label, and the zero weight, fixed by everything
    weights = [lam, (1, 2, 1), (0, 0, 0)]
    assert weight_stabs_mod_mq(group, weights, (m, m)) == (4, 1, group.order)


def test_weight_stab_errors():
    a1c2 = E.system_from_selector("a1xc2")
    group = E.even_subgroup(a1c2, "e")
    with pytest.raises(E.UsageError):
        weight_stabs_mod_mq(group, [(0, 0, 0)], (5,))
    with pytest.raises(E.UsageError):
        weight_stabs_mod_mq(group, [(0, 0, 0)], (5, 0))


def test_torus_congruence():
    rng = random.Random(4)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for _ in range(10):
            x = rational_point(rng, system.n)
            # shifting by any coroot (a column of C) stays congruent
            j = rng.randrange(system.n)
            shift = tuple(Q(system.cartan[i][j]) for i in range(system.n))
            y = tuple(a + b for a, b in zip(x, shift))
            assert torus_congruent(system, x, y)
            assert canonical_torus_point(system, x) == canonical_torus_point(system, y)
            # a generic small perturbation is not congruent
            z = tuple(a + Q(1, 97) for a in x)
            assert not torus_congruent(system, x, z)


def test_weight_congruence_blockwise():
    system = E.system_from_selector("a1xc2")
    m1, m2 = 2, 3
    lam = (1, 2, 1)
    # shift the C2 block by m2 * alpha_2 (row 2 of the Cartan matrix)
    shift = tuple(m2 * v for v in system.cartan[1])
    mu = tuple(a + s for a, s in zip(lam, shift))
    assert weight_congruent_mod_mq(system, lam, mu, (m1, m2))
    # the same shift scaled by m1 instead is not a C2-block congruence
    bad = tuple(a + m1 * v for a, v in zip(lam, system.cartan[1]))
    assert not weight_congruent_mod_mq(system, lam, bad, (m1, m2))
