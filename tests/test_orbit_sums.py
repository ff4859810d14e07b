"""``xi`` and the batched ``orbit_sums`` against the ``Fraction`` reference."""

import cmath
import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eweyl as E
from eweyl.efunc import _orbit_sum_kernel, orbit_sums, scaled_orbit_sums, xi
from eweyl.lie_data import exp_phase, residue_phasor

from conftest import traced_peak
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


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_scaled_orbit_sums_take_nested_ints_past_int64(sel, kind, data):
    # numpy guessed float64 for [[-1, 2**63]] and the call was refused
    system = E.system_from_selector(sel)
    entry = st.one_of(st.integers(2**63, 2**64 - 1), st.integers(-(2**64), -1))
    rows = data.draw(st.lists(st.lists(entry, min_size=system.n, max_size=system.n),
                              min_size=1, max_size=3))
    weights = data.draw(st.lists(st.tuples(*[st.integers(-20, 20)] * system.n),
                                 min_size=1, max_size=3))
    lcm = data.draw(st.sampled_from((1, 6, 2**64 + 13)))
    want = np.array([[fraction_xi(system, kind, lam, [Q(v, lcm) for v in row]) for row in rows]
                     for lam in weights])
    assert want.tobytes() == scaled_orbit_sums(system, kind, weights, rows, lcm).tobytes()
    assert want.tobytes() == orbit_sums(system, kind, weights,
                                        [[Q(v, lcm) for v in row] for row in rows]).tobytes()


def test_int64_minimum_numerator_is_exact():
    # np.abs(-2**63) is -2**63, which once let the keys be computed in int64
    system = E.system_from_selector("a1xa2")
    row = (-(2**63), 1, 5)
    want = fraction_xi(system, "e", (1, 1, 1), [Q(v, 7) for v in row])
    assert scaled_orbit_sums(system, "e", [(1, 1, 1)], np.array([row]), 7)[0, 0] == want


def test_scaled_orbit_sums_refuse_ragged_numerators():
    # numpy's own "inhomogeneous shape" ValueError used to escape
    a1xa1 = E.system_from_selector("a1xa1")
    for numerators in ([[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1, 2], 3], [1, 2]):
        with pytest.raises(E.UsageError, match="need length 2"):
            scaled_orbit_sums(a1xa1, "e", [(1, 1)], numerators, 5)


def test_scaled_orbit_sums_refuse_non_integer_numerators():
    # a float numerator used to be truncated: this gave -1+0j, the value at
    # (0, 1/3), instead of xi at (1/6, 1/3) = -1.732...
    a1xa1 = E.system_from_selector("a1xa1")
    with pytest.raises(E.UsageError, match="numerators must be integers"):
        scaled_orbit_sums(a1xa1, "e", [(1, 2)], np.array([[0.5, 1.0]]), 3)
    for numerators in (
        np.array([[1.0, 2.0]]),
        np.array([[1 + 0j, 2]]),
        np.array([[Q(1, 2), 1]], dtype=object),
        np.array([[None, 1]], dtype=object),
        [[0.5, 1]],
        [[-1, 2.0**63]],
    ):
        with pytest.raises(E.UsageError):
            scaled_orbit_sums(a1xa1, "e", [(1, 2)], numerators, 6)
    # integers of any integer type, also as objects beyond int64, are accepted
    want = xi(a1xa1, "e", (1, 2), (Q(1, 6), Q(1, 3)))
    for numerators in (
        np.array([[1, 2]], dtype=np.int32),
        np.array([[1, 2]], dtype=np.uint8),
        np.array([[1, 2]], dtype=object),
        [[1, 2]],
        [(np.int64(1), 2)],
    ):
        assert scaled_orbit_sums(a1xa1, "e", [(1, 2)], numerators, 6)[0, 0] == want
    big = 2**70
    numerators = np.array([[big + 1, 2 * big + 2]], dtype=object)
    assert scaled_orbit_sums(a1xa1, "e", [(1, 2)], numerators, 6 * big + 6)[0, 0] == want


@pytest.mark.parametrize("sel,kind", CASES)
def test_numpy_integer_numerators_past_int64_stay_exact(sel, kind):
    # np.int64 entries among objects were kept, and reducing their products
    # modulo a denominator past int64 raised OverflowError
    system = E.system_from_selector(sel)
    lcm = 2**70 + 1
    row = [np.int64(3), np.int32(-2), np.uint8(5)][:system.n]
    weights = [tuple(range(1, system.n + 1)), (0,) * system.n]
    want = np.array([[fraction_xi(system, kind, lam, [Q(int(v), lcm) for v in row])]
                     for lam in weights])
    for rows in ([row], np.array([row], dtype=object)):
        assert want.tobytes() == scaled_orbit_sums(system, kind, weights, rows, lcm).tobytes()
    a1xa1 = E.system_from_selector("a1xa1")
    numerators = np.array([[np.int64(3), 2]], dtype=object)
    want = fraction_xi(a1xa1, "e", (1, 2), (Q(3, lcm), Q(2, lcm)))
    assert scaled_orbit_sums(a1xa1, "e", [(1, 2)], numerators, lcm)[0, 0] == want


def test_kernel_set_up_keeps_an_int64_weight_array_as_it_is():
    # the set-up once made Python tuples and object images: 644 B per weight
    system, kind, ms = E.system_from_selector("a1xa2"), "e", (12,)
    weights = E.build_weight_grid(system, kind, ms).weights
    grid = E.build_point_grid(system, kind, ms)
    _orbit_sum_kernel(system, kind, weights, grid.denominator)  # the Smith form is cached
    sums, peak = traced_peak(lambda: _orbit_sum_kernel(system, kind, weights, grid.denominator))
    assert len(weights) == 1788 and peak <= 100 * len(weights)
    rows = grid.numerators[::50]
    from_tuples = _orbit_sum_kernel(system, kind, weights.tolist(), grid.denominator)(rows)
    assert sums(rows).tobytes() == from_tuples.tobytes()


@pytest.mark.parametrize("sel,kind", CASES)
def test_int64_weight_arrays_past_the_bound_stay_exact(sel, kind):
    system = E.system_from_selector(sel)
    weights = np.array([[-(2**63), 2**62 + 1, 3][:system.n], [1, 0, -2][:system.n]])
    assert weights.dtype == np.int64
    rows, lcm = np.array([[1, -2, 5][:system.n], [7, 3, 0][:system.n]]), 97
    want = np.array([[fraction_xi(system, kind, lam, [Q(v, lcm) for v in row])
                      for row in rows.tolist()] for lam in weights.tolist()])
    assert want.tobytes() == scaled_orbit_sums(system, kind, weights, rows, lcm).tobytes()
    with pytest.raises(E.UsageError, match=f"need length {system.n}"):
        scaled_orbit_sums(system, kind, weights[:, :1], rows, lcm)
