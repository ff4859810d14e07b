import cmath
import math
import random
from fractions import Fraction as Q

import pytest

import eweyl as E
from eweyl.lie_data import (
    _FACTORS,
    coroot_gram,
    mat_det,
    mat_mul,
)
from conftest import SELECTORS, rational_point


FACTOR_DETS = {"a1": 2, "a2": 3, "c2": 2, "g2": 1}
FACTOR_ORDERS = {"a1": 2, "a2": 6, "c2": 8, "g2": 12}
SYSTEM_DETS = {"a1xa1": 4, "a1xa2": 6, "a1xc2": 4, "a1xg2": 2, "a1xa1xa1": 8}


def test_factor_invariants():
    for kind, f in _FACTORS.items():
        for i in range(f.rank):
            assert f.cartan[i][i] == 2
            for j in range(f.rank):
                if i != j:
                    assert f.cartan[i][j] <= 0
        assert mat_det(f.cartan) == FACTOR_DETS[kind]
        assert f.weyl_order == FACTOR_ORDERS[kind]


def test_factor_symmetrizability():
    # the root Gram matrix C . diag(d) must be symmetric and match the
    # long-root normalisation <alpha, alpha> = 2
    for f in _FACTORS.values():
        gram = tuple(
            tuple(Q(f.cartan[i][j]) * f.half_lengths[j] for j in range(f.rank))
            for i in range(f.rank)
        )
        assert gram == tuple(zip(*gram))
        assert max(gram[i][i] for i in range(f.rank)) == 2


def test_make_system_fields():
    for sel, det in SYSTEM_DETS.items():
        system = E.system_from_selector(sel)
        assert system.det_cartan == det
        n = system.n
        prod = mat_mul(system.cartan, system.inv_cartan)
        assert prod == tuple(
            tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n)
        )


def test_systems_hash_by_value():
    # a fresh (uncached) assembly equals the cached one and hashes the same
    for kinds in (("a1", "g2"), ("a1", "a1", "a1"), ("g2",), ("c2", "a1")):
        cached = E.assemble_system(kinds)
        fresh = E.assemble_system.__wrapped__(kinds)
        assert fresh is not cached
        assert fresh == cached and hash(fresh) == hash(cached)
    assert E.assemble_system(("a1", "a2")) != E.assemble_system(("a2", "a1"))


def test_assembly_past_rank_three_is_refused():
    for kinds in (("a2", "a2"), ("c2", "a2"), ("a1", "a1", "a1", "a1"), ("g2", "a1", "a1")):
        with pytest.raises(E.ConfigurationError, match="has rank 4; the limit is 3"):
            E.assemble_system(kinds)
    assert E.assemble_system(("a2", "a1")).n == 3


def test_make_system_rejects_unsupported():
    with pytest.raises(E.ConfigurationError):
        E.make_system(["a2", "a1"])
    with pytest.raises(E.ConfigurationError):
        E.make_system(["a1"])
    with pytest.raises(E.ConfigurationError):
        E.make_system(["a1", "b7"])


def test_a1xa1_block_structure():
    system = E.system_from_selector("a1xa1")
    assert system.cartan == ((2, 0), (0, 2))
    assert system.inv_cartan == ((Q(1, 2), Q(0)), (Q(0), Q(1, 2)))


def test_pairing_examples():
    a1 = E.assemble_system(("a1",))
    assert E.pairing(a1, (1,), (Q(1),)) == Q(1, 2)

    system = E.system_from_selector("a1xa2")
    assert E.pairing(system, (0, 0, 0), rational_point(random.Random(0), 3)) == 0
    # hand inversion of [[2,-1],[-1,2]] gives (C^-1)_11 = 2/3
    assert E.pairing(system, (0, 1, 0), (Q(0), Q(1), Q(0))) == Q(2, 3)


def test_pairing_bilinear():
    rng = random.Random(1)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for _ in range(10):
            lam = tuple(rng.randrange(-5, 6) for _ in range(system.n))
            mu = tuple(rng.randrange(-5, 6) for _ in range(system.n))
            x = rational_point(rng, system.n)
            lhs = E.pairing(system, tuple(a + b for a, b in zip(lam, mu)), x)
            assert lhs == E.pairing(system, lam, x) + E.pairing(system, mu, x)


def test_pairing_dimension_mismatch():
    system = E.system_from_selector("a1xa2")
    with pytest.raises(E.UsageError):
        E.pairing(system, (1, 2), (Q(0), Q(0), Q(0)))


def test_exp_phase_values():
    a1 = E.assemble_system(("a1",))
    # phase 1/2 -> -1
    assert abs(E.exp_phase(a1, (1,), (Q(1),)) - (-1 + 0j)) < 1e-15
    # phase 0 -> 1
    assert E.exp_phase(a1, (0,), (Q(1),)) == 1 + 0j


def test_exp_phase_reduces_mod_one_exactly():
    # phase 1000000 + 1/3 must hit exp(2 pi i / 3) dead on
    a1 = E.assemble_system(("a1",))
    x = (Q(2) * (1000000 + Q(1, 3)),)  # pairing halves the coordinate
    got = E.exp_phase(a1, (1,), x)
    assert abs(got - cmath.exp(2j * math.pi / 3)) < 1e-15


def test_exp_phase_unit_modulus_and_conjugation():
    rng = random.Random(2)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for _ in range(20):
            lam = tuple(rng.randrange(-6, 7) for _ in range(system.n))
            x = rational_point(rng, system.n)
            z = E.exp_phase(system, lam, x)
            assert abs(abs(z) - 1) < 1e-15
            neg = tuple(-a for a in lam)
            assert abs(z * E.exp_phase(system, neg, x) - 1) < 1e-14


def test_coweight_gram():
    a1 = E.assemble_system(("a1",))
    assert E.coweight_gram(a1) == ((Q(1, 2),),)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        gram = E.coweight_gram(system)
        assert gram == tuple(zip(*gram))  # symmetric
        # off-block entries vanish
        for (a, b) in system.factor_slices():
            for i in range(a, b):
                for j in range(system.n):
                    if not a <= j < b:
                        assert gram[i][j] == 0
        # positive definite via leading principal minors
        for k in range(1, system.n + 1):
            minor = tuple(row[:k] for row in gram[:k])
            assert mat_det(minor) > 0


def test_gram_volume_consistency():
    # sqrt(det coroot gram)/|W| per factor reproduces the a1xa2 volumes
    system = E.system_from_selector("a1xa2")
    vol = 1.0
    for f in system.factors:
        vol *= math.sqrt(float(mat_det(coroot_gram(f)))) / f.weyl_order
    assert abs(4 * vol - 2 / math.sqrt(6)) < 1e-14  # |F^ee| = 2/sqrt(6)
    assert abs(E.volume(system, "w") - vol) < 1e-15
    assert abs(E.volume(E.assemble_system(("a1",)), "w") - 1 / math.sqrt(2)) < 1e-14


def test_volume_of_an_unknown_kind_is_refused():
    system = E.system_from_selector("a1xa2")
    for kind in ("x", "E", None):
        with pytest.raises(E.UsageError, match="unknown group kind"):
            E.volume(system, kind)


def test_coroot_and_coweight_grams_consistent():
    # Gram(coroots) = C^T Gram(coweights) C, exactly
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        lhs = []
        for (a, b), f in zip(system.factor_slices(), system.factors):
            lhs.append(coroot_gram(f))
        from eweyl.lie_data import block_diagonal, mat_transpose

        full = tuple(tuple(Q(v) for v in row) for row in block_diagonal(lhs))
        rhs = mat_mul(
            mat_mul(mat_transpose(system.cartan), E.coweight_gram(system)),
            system.cartan,
        )
        assert full == rhs
