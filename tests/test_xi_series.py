"""``xi`` along a series: one point keyed once, checked against the ``Fraction`` reference.

``interpolate`` calls ``xi`` once per weight at one point tuple; ``xi``
keeps the last point's key and reuses it while the same tuple object,
system object and kind come back.  Every value must still equal
``fraction_xi`` bit for bit.
"""

import gc
import random
import sys
import threading
import tracemalloc
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import eweyl as E
from eweyl import efunc, transform
from eweyl.efunc import xi
from eweyl.transform import interpolate

from reference import fraction_xi

CASES = [(sel, kind) for sel in E.SUPPORTED_SELECTORS for kind in ("e", "ee")]

#: denominators of the drawn coordinates, the last one past 2**64
DENOMINATORS = (1, 2, 3, 7, 12, 97, 10**9 + 7, 10**20 + 39)


def _rational():
    return st.builds(Q, st.integers(-(10**6), 10**6), st.sampled_from(DENOMINATORS))


@lru_cache(maxsize=None)
def _coefficients(sel, kind):
    """Coefficients of seeded random samples on a small grid of ``(sel, kind)``."""
    system = E.system_from_selector(sel)
    ms = (3,) if kind == "e" else (2,) * len(system.factors)
    rng = random.Random(f"{sel}-{kind}")
    values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for _ in E.build_point_grid(system, kind, ms)]
    return E.forward_discrete(E.make_samples(system, kind, ms, values))


def _sequential_oracle(coeffs, x):
    """``sum c * fraction_xi`` in spectrum order, as one sequential complex sum."""
    total = 0j
    for sp, c in zip(coeffs.spectrum, coeffs.values.tolist()):
        total += c * fraction_xi(coeffs.system, coeffs.kind, sp.weight, x)
    return total


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_xi_along_drawn_call_sequences_equals_the_oracle(data):
    # one pool of tuple objects for every group and kind: a length-2 point
    # meets the 3-coordinate systems, a float coordinate is never valid
    pool = data.draw(st.lists(st.tuples(*[_rational()] * 3), min_size=2, max_size=3))
    pool += [data.draw(st.tuples(_rational(), _rational())), (0.5, Q(1, 3), Q(2, 5))]
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(CASES),
        st.integers(0, len(pool) - 1),
        st.lists(st.tuples(*[st.integers(-60, 60)] * 3), min_size=1, max_size=4),
    ), min_size=1, max_size=12))
    last = None
    for (sel, kind), j, weights in steps:
        system, x = E.system_from_selector(sel), pool[j]
        for lam in weights:
            lam = lam[:system.n]
            if len(x) != system.n or any(isinstance(v, float) for v in x):
                with pytest.raises(E.UsageError):
                    xi(system, kind, lam, x)
                if last is not None:
                    # the refused call left the previous point usable
                    assert xi(*last) == fraction_xi(*last)
                continue
            assert xi(system, kind, lam, x) == fraction_xi(system, kind, lam, x)
            last = (system, kind, lam, x)


#: assembled systems of rank 1, 2 and 3 beside the rank 2 and 3 selectors
ASSEMBLED = [E.assemble_system(f) for f in (("a1",), ("g2",), ("a2", "a1"))]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_xi_along_call_sequences_on_assembled_ranks_equals_the_oracle(data):
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(ASSEMBLED),
        st.sampled_from(("e", "ee")),
        st.lists(st.tuples(*[st.integers(-60, 60)] * 4), min_size=2, max_size=4),
    ), min_size=1, max_size=8))
    for system, kind, weights in steps:
        x = data.draw(st.tuples(*[_rational()] * system.n))
        for lam in weights:
            lam = lam[:system.n]
            assert xi(system, kind, lam, x) == fraction_xi(system, kind, lam, x)


@pytest.mark.parametrize("system", [E.system_from_selector(s) for s in E.SUPPORTED_SELECTORS]
                         + ASSEMBLED, ids=lambda s: s.selector)
def test_bad_weights_on_a_kept_point_raise_and_keep_it(system, monkeypatch):
    calls = []
    smith_key = efunc._smith_key
    monkeypatch.setattr(efunc, "_smith_key", lambda *args: calls.append(1) or smith_key(*args))
    n = system.n
    x = tuple(Q(k, 7 + k) for k in range(n))
    lam = tuple(range(1, n + 1))
    bad = [
        ((0.5,) + lam[1:], "must be integers"),  # on the first hit, before the fold
        (lam + (0,), "need length"),
        (lam[:-1], "need length"),
        (iter(lam + (1, 2)), "need length"),
        ([Q(1, 2)] * n, "must be integers"),
    ]
    assert xi(system, "e", lam, x) == fraction_xi(system, "e", lam, x)
    for weight, message in bad:
        with pytest.raises(E.UsageError, match=message):
            xi(system, "e", weight, x)
        assert xi(system, "e", lam[::-1], x) == fraction_xi(system, "e", lam[::-1], x)
    assert len(calls) == 1


@pytest.mark.parametrize("sel,kind", CASES)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_interpolate_equals_the_sequential_fraction_sum(sel, kind, data):
    coeffs = _coefficients(sel, kind)
    x = data.draw(st.tuples(*[_rational()] * coeffs.system.n))
    x = (Q(1, 10**20 + 39),) + x[1:] if data.draw(st.booleans()) else x
    assert interpolate(coeffs, x) == _sequential_oracle(coeffs, x)
    assert interpolate(coeffs, list(x)) == _sequential_oracle(coeffs, x)


def test_interpolate_in_threads_equals_serial_results():
    # more threads than cores, each at its own points, two per coefficient set
    coeffs = [_coefficients(sel, "e") for sel in ("a1xa2", "a1xg2")] * 2
    rng = random.Random(5)
    points = [[tuple(Q(rng.randrange(-99, 99), rng.choice((7, 97, 10**20 + 39)))
                     for _ in range(3)) for _ in range(12)] for _ in coeffs]
    serial = [[interpolate(c, x) for x in xs] for c, xs in zip(coeffs, points)]
    start, got = threading.Barrier(len(coeffs)), [None] * len(coeffs)

    def run(i):
        start.wait(timeout=60)
        got[i] = [interpolate(coeffs[i], x) for x in points[i] for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(coeffs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[v for v in values for _ in range(20)] for values in serial]


def test_interpolate_keys_its_point_once(monkeypatch):
    coeffs = transform.forward_discrete(transform.make_samples(
        E.system_from_selector("a1xa2"), "e", (6,), lambda p: complex(p[0], p[2])))
    calls = {"key": 0, "xi": 0}
    smith_key, xi_traced = efunc._smith_key, transform.xi

    def counted_key(*args):
        calls["key"] += 1
        return smith_key(*args)

    def counted_xi(*args):
        calls["xi"] += 1
        return xi_traced(*args)

    monkeypatch.setattr(efunc, "_smith_key", counted_key)
    monkeypatch.setattr(transform, "xi", counted_xi)
    x = (Q(1, 3), Q(-2, 7), Q(5, 11))
    value = interpolate(coeffs, x)
    assert calls == {"key": 1, "xi": len(coeffs.spectrum)} and len(coeffs.spectrum) > 2
    assert value == _sequential_oracle(coeffs, x)


def test_xi_keeps_one_point():
    system = E.system_from_selector("a1xa1")
    xi(system, "e", (1, 2), (Q(1, 2), 0))  # the group and its Smith form are cached
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(5000):
            x = (Q(i, 7), Q(-1, 3))
            xi(system, "e", (1, 2), x)
            xi(system, "e", (0, 1), x)  # and its covectors
        gc.collect()  # garbage left in cycles by the test run is not retained
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096
