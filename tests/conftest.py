import random
from fractions import Fraction

import eweyl as E

SELECTORS = E.SUPPORTED_SELECTORS

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

