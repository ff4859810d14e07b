import contextlib
import random
import tracemalloc
from fractions import Fraction

import pytest

import eweyl as E
from eweyl import grids
from eweyl.weyl import orbit_indices

SELECTORS = E.SUPPORTED_SELECTORS


@contextlib.contextmanager
def no_grid_items():
    """Fail on any call of ``GridPoint`` or ``SpectralPoint`` inside the block.

    Code that reads only the grid records' arrays builds no item.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("a grid item was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grids, "GridPoint", refuse)
        patch.setattr(grids, "SpectralPoint", refuse)
        yield


def fixed_counts(group, rows, ms, dual=False):
    """How many elements of ``group`` fix each row: the image indices equal to the row's own."""
    own, *images = orbit_indices(group, rows, ms, dual)
    return sum(image == own for image in images)


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw above where the call started.

    tracemalloc is left as it was found: stopped, or running with its
    peak reset.
    """
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not running:
            tracemalloc.stop()


#: (system, kind, moduli) cases used by the orthogonality/round-trip suites
def discrete_cases():
    cases = []
    for sel in SELECTORS:
        system = E.system_from_selector(sel)
        k = len(system.factors)
        for m in (2, 3):
            cases.append((system, "e", (m,)))
        if k == 2:
            cases.append((system, "ee", (2, 2)))
            cases.append((system, "ee", (2, 3)))
        else:
            cases.append((system, "ee", (2, 2, 2)))
    return cases


def rational(rng: random.Random, lo=-2, hi=2, dens=(1, 2, 3, 4, 5, 6, 7, 8, 12)):
    den = rng.choice(dens)
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def rational_point(rng: random.Random, n: int):
    return tuple(rational(rng) for _ in range(n))


def int_weight(rng: random.Random, n: int, lo=-4, hi=4):
    return tuple(rng.randrange(lo, hi + 1) for _ in range(n))

