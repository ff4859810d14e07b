import cmath
import math
import random
from fractions import Fraction as Q

import pytest

import eweyl as E
from eweyl.efunc import TRUSTED_CLOSED_FORMS
from eweyl.weyl import even_subgroup, stab_order
from conftest import SELECTORS, int_weight, rational_point
from reference import xi_orbit


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
