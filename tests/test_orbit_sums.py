"""``xi`` and the batched ``orbit_sums`` against the ``Fraction`` reference."""

import cmath
import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eweyl as E
from eweyl.efunc import orbit_sums, scaled_orbit_sums, xi
from eweyl.lie_data import exp_phase, residue_phasor

from reference import fraction_xi

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


def _assert_all_equal_oracle(system, kind, weights, points):
    want = np.array([[fraction_xi(system, kind, lam, x) for x in points] for lam in weights])
    got = np.array([[xi(system, kind, lam, x) for x in points] for lam in weights])
    assert want.tobytes() == got.tobytes()
    assert want.tobytes() == orbit_sums(system, kind, weights, points).tobytes()


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_orbit_sums_equal_xi(sel, kind, data):
    system = E.system_from_selector(sel)
    dens = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 97, 10**9 + 7)
    weights, points = data.draw(_batches(system.n, dens))
    _assert_all_equal_oracle(system, kind, weights, points)


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_orbit_sums_equal_xi_beyond_int64(sel, kind, data):
    system = E.system_from_selector(sel)
    weights, points = data.draw(_batches(system.n, HUGE_DENOMINATORS))
    # both denominators present: the common denominator exceeds int64
    points[0] = (Q(1, HUGE_DENOMINATORS[0]), Q(1, HUGE_DENOMINATORS[1])) + points[0][2:]
    # and one weight entry past int64
    weights[0] = (-(2**64) - 3,) + weights[0][1:]
    _assert_all_equal_oracle(system, kind, weights, points)


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_xi_equals_oracle_on_int_coordinates(sel, kind, data):
    system = E.system_from_selector(sel)
    lam = data.draw(st.tuples(*[st.integers(-60, 60)] * system.n))
    x = data.draw(st.tuples(*[st.integers(-(10**6), 10**6)] * system.n))
    want = fraction_xi(system, kind, lam, x)
    assert xi(system, kind, lam, x) == want
    assert xi(system, kind, lam, tuple(Q(v) for v in x)) == want


def test_xi_rejects_wrong_lengths():
    system = E.system_from_selector("a1xa2")
    with pytest.raises(E.UsageError):
        xi(system, "e", (1, 0), (Q(1, 3), 0, 0))
    with pytest.raises(E.UsageError):
        xi(system, "e", (1, 0, 0, 2), (Q(1, 3), 0, 0))
    with pytest.raises(E.UsageError):
        xi(system, "e", (1, 0, 0), (Q(1, 3), 0))
    with pytest.raises(E.UsageError):
        xi(system, "e", (1, 0, 0), (Q(1, 3), 0, 0, 0))


def test_residue_phasor_matches_exp_phase():
    # on A1, the weight (2,) pairs with the point (t,) to exactly t turns
    a1 = E.assemble_system(("a1",))
    big = 2**63 + 25
    for k, n in [(-1, 3), (-7, 12), (-(2**70) - 1, 5), (0, big), (-1, big), (big + 4, big),
                 (3 * big - 2, big), (-(10**30), 2**64 - 59), (5, 1), (-5, 1)]:
        # the Fraction rule of exp_phase before it took (k, n)
        want = cmath.exp(2j * math.pi * float(Q(k, n) % 1))
        assert residue_phasor(k, n) == exp_phase(a1, (2,), (Q(k, n),)) == want
    assert exp_phase(a1, (2,), (3,)) == residue_phasor(3, 1) == 1 + 0j
    assert exp_phase(a1, (2,), (Q(-1, 4),)) == residue_phasor(3, 4)


def test_orbit_sums_shapes_and_lengths():
    system = E.system_from_selector("a1xa2")
    assert orbit_sums(system, "e", [(1, 0, 0)], []).shape == (1, 0)
    assert orbit_sums(system, "e", [], [(0, 0, 0)]).shape == (0, 1)
    with pytest.raises(E.UsageError):
        orbit_sums(system, "e", [(1, 0)], [(0, 0, 0)])
    with pytest.raises(E.UsageError):
        orbit_sums(system, "e", [(1, 0, 0)], [(Q(1, 2),)])


def test_orbit_sums_reject_non_integer_weights():
    # a Fraction or float entry used to be truncated to an integer weight
    system = E.system_from_selector("a1xa1")
    numerators = np.array([[2, 3]], dtype=np.int64)
    for weight in [(Q(1, 2), 0), (1.5, 0), (0, 1.0)]:
        with pytest.raises(E.UsageError):
            orbit_sums(system, "e", [weight], [(Q(1, 3), Q(1, 5))])
        with pytest.raises(E.UsageError):
            scaled_orbit_sums(system, "e", [(1, 1), weight], numerators, 6)
    # integer-valued entries of any integer type are accepted
    want = orbit_sums(system, "e", [(1, 2)], [(Q(1, 3), Q(1, 2))])
    got = scaled_orbit_sums(system, "e", np.array([[1, 2]]), numerators, 6)
    assert want.tobytes() == got.tobytes()
