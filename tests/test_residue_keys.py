"""The integer residue keys of ``eweyl.weyl`` against the Fraction congruences."""

from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eweyl as E
from eweyl.weyl import _point_key, torus_keys, torus_orbit_sizes, weight_stabs_mod_mq
from reference import canonical_torus_point, torus_congruent, weight_congruent_mod_mq

CASES = [(sel, kind) for sel in E.SUPPORTED_SELECTORS for kind in ("e", "ee")]

#: two primes whose lcm exceeds int64, forcing exact Python-int keys
HUGE_DENOMINATORS = (2**61 - 1, 10**18 + 9)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 97)


def _points(n):
    """A batch of points; half of the batches hold both huge denominators."""
    coord = st.builds(Q, st.integers(-(10**6), 10**6), st.sampled_from(DENOMINATORS))
    huge = (Q(1, HUGE_DENOMINATORS[0]), Q(-1, HUGE_DENOMINATORS[1])) + (Q(1, 3),) * (n - 2)
    points = st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4)
    return st.tuples(points, st.booleans()).map(lambda pb: pb[0] + [huge] * pb[1])


def _coordinate():
    """An int, a numpy int or a Fraction; numerators reach past int64."""
    big = st.integers(-(2**70), 2**70)
    return st.one_of(
        big,
        st.integers(-(2**62), 2**62).map(np.int64),
        st.builds(Q, big, st.sampled_from(DENOMINATORS + HUGE_DENOMINATORS)),
    )


def _weights(n):
    """A batch of weights; half of the batches hold an entry past int64."""
    weights = st.lists(st.tuples(*[st.integers(-60, 60)] * n), min_size=1, max_size=4)
    huge = (10**19 + 3,) + (-1,) * (n - 1)
    return st.tuples(weights, st.booleans()).map(lambda wb: wb[0] + [huge] * wb[1])


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_torus_orbit_sizes_match_congruence(sel, kind, data):
    system = E.system_from_selector(sel)
    group = E.even_subgroup(system, kind)
    points = data.draw(_points(system.n))
    want = [
        group.order // sum(torus_congruent(system, w.apply_point(x), x) for w in group)
        for x in points
    ]
    assert list(torus_orbit_sizes(group, *torus_keys(system, points))) == want


@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_point_key_equals_batch_key(sel, data):
    system = E.system_from_selector(sel)
    x = data.draw(st.tuples(*[_coordinate()] * system.n))
    keys, n = torus_keys(system, [x])
    assert _point_key(system, x) == (keys[0].tolist(), n)


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_weight_stabs_match_congruence(sel, kind, data):
    system = E.system_from_selector(sel)
    group = E.even_subgroup(system, kind)
    weights = data.draw(_weights(system.n))
    ms = data.draw(st.tuples(*[st.integers(1, 12)] * len(system.factors)))
    want = [
        sum(weight_congruent_mod_mq(system, w.apply_weight(lam), lam, ms) for w in group)
        for lam in weights
    ]
    assert list(weight_stabs_mod_mq(group, weights, ms)) == want


@pytest.mark.parametrize("sel", E.SUPPORTED_SELECTORS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_canonical_torus_point(sel, data):
    system = E.system_from_selector(sel)
    x = data.draw(_points(system.n))[-1]
    z = data.draw(st.tuples(*[st.integers(-5, 5)] * system.n))
    shifted = tuple(a + sum(c * b for c, b in zip(row, z)) for a, row in zip(x, system.cartan))
    canon = canonical_torus_point(system, x)
    assert torus_congruent(system, canon, x)
    assert canonical_torus_point(system, shifted) == canon
