"""The batched orbit-sum kernel against the Fraction oracle ``xi``."""

from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eweyl as E
from eweyl.efunc import orbit_sums, xi

CASES = [(sel, kind) for sel in E.SUPPORTED_SELECTORS for kind in ("e", "ee")]

#: two primes whose lcm exceeds int64, forcing exact Python-int residues
HUGE_DENOMINATORS = (2**61 - 1, 10**18 + 9)


def _rational(denominators):
    return st.builds(
        lambda num, den: Q(num, den),
        st.integers(-(10**6), 10**6),
        st.sampled_from(denominators),
    )


def _batches(n, denominators):
    weights = st.lists(st.tuples(*[st.integers(-60, 60)] * n), min_size=1, max_size=4)
    points = st.lists(st.tuples(*[_rational(denominators)] * n), min_size=1, max_size=4)
    return st.tuples(weights, points)


def _oracle(system, kind, weights, points):
    return np.array([[xi(system, kind, lam, x) for x in points] for lam in weights])


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_orbit_sums_equal_xi(sel, kind, data):
    system = E.system_from_selector(sel)
    dens = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 97, 10**9 + 7)
    weights, points = data.draw(_batches(system.n, dens))
    got = orbit_sums(system, kind, weights, points)
    assert np.array_equal(got, _oracle(system, kind, weights, points))


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_orbit_sums_equal_xi_beyond_int64(sel, kind, data):
    system = E.system_from_selector(sel)
    weights, points = data.draw(_batches(system.n, HUGE_DENOMINATORS))
    # both denominators present: the common denominator exceeds int64
    points[0] = (Q(1, HUGE_DENOMINATORS[0]), Q(1, HUGE_DENOMINATORS[1])) + points[0][2:]
    got = orbit_sums(system, kind, weights, points)
    assert np.array_equal(got, _oracle(system, kind, weights, points))


def test_orbit_sums_shapes_and_lengths():
    system = E.system_from_selector("a1xa2")
    assert orbit_sums(system, "e", [(1, 0, 0)], []).shape == (1, 0)
    assert orbit_sums(system, "e", [], [(0, 0, 0)]).shape == (0, 1)
    with pytest.raises(E.UsageError):
        orbit_sums(system, "e", [(1, 0)], [(0, 0, 0)])
    with pytest.raises(E.UsageError):
        orbit_sums(system, "e", [(1, 0, 0)], [(Q(1, 2),)])
