import cmath
import math
import random
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest

import eweyl as E
from eweyl import efunc
from eweyl.efunc import TRUSTED_CLOSED_FORMS, scaled_orbit_sums
from eweyl.weyl import even_subgroup, stab_order
from conftest import SELECTORS, int_weight, rational_point
from reference import fraction_xi, xi_orbit


def test_xi_at_zero_weight_is_group_order():
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        rng = random.Random(10)
        for kind in ("e", "ee"):
            order = even_subgroup(system, kind).order
            x = rational_point(rng, system.n)
            assert abs(E.xi(system, kind, (0,) * system.n, x) - order) < 1e-12


def test_single_a1_is_plain_exponential():
    a1 = E.assemble_system(("a1",))
    rng = random.Random(11)
    for _ in range(20):
        a = rng.randrange(-6, 7)
        x = rational_point(rng, 1)
        want = cmath.exp(1j * math.pi * a * float(x[0]))
        assert abs(E.xi(a1, "e", (a,), x) - want) < 1e-12


def test_a1xa1_full_even_is_cosine():
    system = E.system_from_selector("a1xa1")
    rng = random.Random(12)
    for _ in range(20):
        a, b = int_weight(rng, 2)
        x = rational_point(rng, 2)
        want = 2 * math.cos(math.pi * (a * float(x[0]) + b * float(x[1])))
        assert abs(E.xi(system, "e", (a, b), x) - want) < 1e-12


def test_xi_equals_stab_times_orbit_sum():
    rng = random.Random(13)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for kind in ("e", "ee"):
            for lam in [(0,) * system.n, int_weight(rng, system.n), (2,) + (0,) * (system.n - 1)]:
                x = rational_point(rng, system.n)
                d = stab_order(even_subgroup(system, kind), lam)
                lhs = E.xi(system, kind, lam, x)
                rhs = d * xi_orbit(system, kind, lam, x)
                assert abs(lhs - rhs) < 1e-12


def test_xi_orbit_on_stabilised_weight():
    # (a, 0, 0) in a1xg2 has the full rank-2 even stabiliser of order 6
    system = E.system_from_selector("a1xg2")
    rng = random.Random(30)
    lam = (2, 0, 0)
    assert stab_order(even_subgroup(system, "e"), lam) == 6
    for _ in range(5):
        x = rational_point(rng, 3)
        assert abs(xi_orbit(system, "e", lam, x) - E.xi(system, "e", lam, x) / 6) < 1e-12


def test_group_invariance():
    rng = random.Random(14)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for kind in ("e", "ee"):
            group = even_subgroup(system, kind)
            lam = int_weight(rng, system.n)
            x = rational_point(rng, system.n)
            base = E.xi(system, kind, lam, x)
            for w in group:
                assert abs(E.xi(system, kind, lam, w.apply_point(x)) - base) < 1e-12
                # label invariance: summing over the whole group
                assert abs(E.xi(system, kind, w.apply_weight(lam), x) - base) < 1e-12


def test_lattice_periodicity():
    rng = random.Random(15)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        lam = int_weight(rng, system.n)
        x = rational_point(rng, system.n)
        base = E.xi(system, "e", lam, x)
        for j in range(system.n):
            shift = tuple(Q(system.cartan[i][j]) for i in range(system.n))
            y = tuple(a + b for a, b in zip(x, shift))
            assert abs(E.xi(system, "e", lam, y) - base) < 1e-12


def test_conjugation():
    rng = random.Random(16)
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        for kind in ("e", "ee"):
            lam = int_weight(rng, system.n)
            x = rational_point(rng, system.n)
            lhs = E.xi(system, kind, lam, x).conjugate()
            rhs = E.xi(system, kind, tuple(-a for a in lam), x)
            assert abs(lhs - rhs) < 1e-12


def test_trusted_closed_forms_match_generic_sum():
    rng = random.Random(17)
    for sel, kind in sorted(TRUSTED_CLOSED_FORMS):
        system = E.system_from_selector(sel)
        for _ in range(30):
            lam = int_weight(rng, system.n)
            x = rational_point(rng, system.n)
            assert abs(E.xi_closed(system, kind, lam, x) - E.xi(system, kind, lam, x)) < 1e-10


def test_a1xg2_closed_forms_misprinted():
    system = E.system_from_selector("a1xg2")
    rng = random.Random(18)
    for kind in ("e", "ee"):
        worst = 0.0
        for _ in range(30):
            lam = int_weight(rng, 3)
            x = rational_point(rng, 3)
            worst = max(worst, abs(E.xi_closed(system, kind, lam, x) - E.xi(system, kind, lam, x)))
        assert worst > 1e-3


def test_closed_form_at_zero_weight():
    # the two misprinted a1xg2 forms deviate even at the zero weight
    for sel, kind in sorted(TRUSTED_CLOSED_FORMS):
        system = E.system_from_selector(sel)
        order = even_subgroup(system, kind).order
        x = (Q(1, 7),) * system.n
        assert abs(E.xi_closed(system, kind, (0,) * system.n, x) - order) < 1e-12


def test_unsupported_closed_form():
    a1 = E.assemble_system(("a1",))
    with pytest.raises(E.UnsupportedFormulaError):
        E.xi_closed(a1, "e", (1,), (Q(1, 2),))


#: a Fraction of numpy integers past 2**53, where dividing the rounded parts is off by an ulp
NUMPY_FRACTION = Q(np.int64(2**62 + 129), np.int64(3))

#: coordinates that xi_closed converts: ints, big and numpy Fractions, floats, numpy ints
CLOSED_FORM_COORDINATES = [0, -3, Q(10**30 + 7, 3 * 10**29 + 1), Q(-(10**30) - 1, 7),
                           NUMPY_FRACTION, 0.3, np.int64(5), Q(1, 10**400)]


def test_xi_closed_converts_like_float():
    assert type(NUMPY_FRACTION.numerator) is np.int64
    parts = NUMPY_FRACTION.numerator / NUMPY_FRACTION.denominator
    assert float(NUMPY_FRACTION) != parts  # the case the exact conversion exists for
    rng = random.Random(29)
    for (sel, kind), fn in efunc._CLOSED_FORMS.items():
        system = E.system_from_selector(sel)
        for _ in range(8):
            lam = tuple(rng.choice([rng.randrange(-5, 6), np.int64(rng.randrange(-5, 6))])
                        for _ in range(system.n))
            x = tuple(rng.choice(CLOSED_FORM_COORDINATES) for _ in range(system.n))
            want = complex(fn(*map(float, (*lam, *x))))
            assert np.array([E.xi_closed(system, kind, lam, x)]).tobytes() == \
                np.array([want]).tobytes()
        huge = (Q(10**400, 3),) + (0,) * (system.n - 1)
        with pytest.raises(OverflowError) as got:
            E.xi_closed(system, kind, (0,) * system.n, huge)
        with pytest.raises(OverflowError) as want:
            fn(*map(float, ((0,) * system.n + huge)))
        assert str(got.value) == str(want.value)


def test_xi_closed_kind_errors():
    system = E.system_from_selector("a1xa2")
    for kind in ("x", ["e"], None):
        with pytest.raises(E.UsageError, match="unknown group kind"):
            E.xi_closed(system, kind, (0, 0, 0), (0, 0, 0))
    with pytest.raises(E.UnsupportedFormulaError):
        E.xi_closed(system, "w", (0, 0, 0), (0, 0, 0))


def test_xi_closed_checks_the_weight_as_xi_does():
    system = E.system_from_selector("a1xa2")
    for make, match in (
        (lambda: (Q(1, 2), 0, 0), "weight entries must be integers"),
        (lambda: iter((Q(1, 2), 0, 0)), "weight entries must be integers"),
        (lambda: (0.5, 0, 0), "weight entries must be integers"),
        (lambda: 5, "weight entries must be integers"),
        (lambda: (1, 2), "need length 3"),
        (lambda: iter((1, 2)), "need length 3"),
    ):
        for fn in (E.xi, E.xi_closed):
            with pytest.raises(E.UsageError, match=match):
                fn(system, "e", make(), (0, Q(1, 3), 0))  # a new point: xi keys it afresh
    # an iterator of ints is a weight to both
    x = (Q(1, 5), Q(1, 3), Q(2, 7))
    assert E.xi_closed(system, "e", iter((1, 0, 2)), x) == E.xi_closed(system, "e", (1, 0, 2), x)
    assert E.xi(system, "e", iter((1, 0, 2)), x) == E.xi(system, "e", (1, 0, 2), x)


def test_xi_closed_keeps_only_a_weight_no_call_can_change():
    a1xa2, a1xc2 = E.system_from_selector("a1xa2"), E.system_from_selector("a1xc2")
    x = (Q(1, 5), Q(1, 3), Q(2, 7))

    def want(system, kind, lam):
        fn = efunc._CLOSED_FORMS[system.selector, kind]
        return complex(fn(*map(float, (*lam, *x))))

    lam = (1, 2, 0)
    for system, kind in ((a1xa2, "e"), (a1xa2, "e"), (a1xa2, "ee"), (a1xc2, "ee"), (a1xc2, "e")):
        assert E.xi_closed(system, kind, lam, x) == want(system, kind, lam)
    # a list and a tuple holding a 0-d array change in place; the value follows them
    listed = [1, 2, 0]
    for _ in range(2):
        assert E.xi_closed(a1xa2, "e", listed, x) == want(a1xa2, "e", listed)
        listed[1] += 1
    held = np.array(2)
    boxed = (1, held, 0)
    for _ in range(2):
        assert E.xi_closed(a1xa2, "e", boxed, x) == want(a1xa2, "e", (1, int(held), 0))
        held += 1


def test_a1xa1xa1_closed_form_identity():
    system = E.system_from_selector("a1xa1xa1")
    rng = random.Random(19)
    for _ in range(20):
        a, b, c = int_weight(rng, 3)
        pt = rational_point(rng, 3)
        x, y, z = (float(v) for v in pt)
        want = 2 * cmath.exp(1j * math.pi * a * x) * math.cos(
            math.pi * (b * y + c * z)
        ) + 2 * cmath.exp(-1j * math.pi * a * x) * math.cos(math.pi * (b * y - c * z))
        assert abs(E.xi(system, "e", (a, b, c), pt) - want) < 1e-10


#: points whose numpy-integer parts used to wrap around in int64 arithmetic
NUMPY_INTEGER_POINTS = [
    ("a1xa2", (1, 2, 1), np.array([2**62, 1, 2**61 + 5])),
    ("a1xa1", (1, 2), (np.int64(2**40), Q(1, 3**20))),
    ("a1xg2", (1, 2, 1), (Q(np.int64(7), np.int64(2**40 + 1)), Q(1, 2**61 - 1), Q(-1, 10**18 + 9))),
]


@pytest.mark.parametrize("sel,lam,x", NUMPY_INTEGER_POINTS)
@pytest.mark.parametrize("kind", ["e", "ee"])
def test_numpy_integer_coordinates_are_exact(sel, lam, x, kind):
    system = E.system_from_selector(sel)
    exact = tuple(Q(int(v.numerator), int(v.denominator)) for v in x)
    want = fraction_xi(system, kind, lam, exact)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert E.xi(system, kind, lam, x) == want
        assert E.orbit_sums(system, kind, [lam], [x])[0, 0] == want


def test_numpy_integer_denominator_is_exact():
    system = E.system_from_selector("a1xa1")
    lcm = 2**62 + 1
    want = fraction_xi(system, "e", (1, 2), (Q(1, lcm), Q(2, lcm)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = scaled_orbit_sums(system, "e", [(1, 2)], np.array([[1, 2]]), np.int64(lcm))
    assert got[0, 0] == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, 0.5, np.float64(0.25), "1/2"])
def test_non_rational_coordinates_are_usage_errors(bad):
    system = E.system_from_selector("a1xa1")
    with pytest.raises(E.UsageError, match="integers or fractions"):
        E.xi(system, "e", (1, 2), (bad, Q(1, 3)))
    with pytest.raises(E.UsageError, match="integers or fractions"):
        E.orbit_sums(system, "e", [(1, 2)], [(Q(1, 3), 0), (Q(1, 5), bad)])


def test_xi_and_interpolate_key_one_point_without_the_batch_product(monkeypatch):
    system = E.system_from_selector("a1xa1")
    values = [complex(k, -k) for k in range(len(E.build_point_grid(system, "e", (3,))))]
    samples = E.make_samples(system, "e", (3,), values)
    coeffs = E.forward_discrete(samples)

    def batch_product(*args):
        raise AssertionError("a single point went through the batch product")

    monkeypatch.setattr(efunc, "smith_keys", batch_product)
    for sel in SELECTORS:
        s = E.system_from_selector(sel)
        x = (Q(1, 7),) * s.n
        for kind in ("e", "ee"):
            assert E.xi(s, kind, (1,) * s.n, x) == fraction_xi(s, kind, (1,) * s.n, x)
    for gp, want in zip(samples.grid, values):
        assert abs(E.interpolate(coeffs, gp.point) - want) < 1e-9
