"""Golden digests of everything enumerated over the even fundamental domain.

Each digest is the sha256 of ``repr`` of one output, so any change of a
value *or of the order* of grid points, spectrum entries, dominant
weights, quadrature cells or domain membership shows up here.  The
quadrature cells are hashed as the list of their ``(point, weight)``
pairs; their digests were re-recorded when the cells became the point
grid with cubature weights.  The other digests were recorded from the
hand-written per-kind enumerators and pin the canonical order that the
CLI prints.

To print fresh digests after an intended change of order:
``PYTHONPATH=src python tests/test_domain_golden.py``.
"""

import hashlib
import itertools
from fractions import Fraction as Q

import eweyl as E
from eweyl.transform import quadrature_cells

#: the domain-membership probe lattice {i/4 : -5 <= i <= 5}^n
_PROBE = [Q(i, 4) for i in range(-5, 6)]


def _moduli(kind, k):
    if kind == "e":
        return [(1,), (3,), (4,)]
    return [(2,) * k, (2, 3, 4)[:k]]


def _outputs(sel, kind):
    system = E.system_from_selector(sel)
    moduli = _moduli(kind, len(system.factors))
    return {
        "points": [tuple(E.build_point_grid(system, kind, ms)) for ms in moduli],
        "weights": [tuple(E.build_weight_grid(system, kind, ms)) for ms in moduli],
        "dominant": E.enumerate_dominant(system, kind, 2),
        "cells": list(quadrature_cells(system, kind, 3)),
        "domain": [
            E.in_even_domain(system, kind, x)
            for x in itertools.product(_PROBE, repeat=system.n)
        ],
    }


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def digests():
    return {
        (sel, kind, name): _digest(value)
        for sel in E.SUPPORTED_SELECTORS
        for kind in ("e", "ee")
        for name, value in _outputs(sel, kind).items()
    }


GOLDEN = {
    ('a1xa1', 'e', 'points'): '55d24eb236f85555d994',
    ('a1xa1', 'e', 'weights'): '36a2e6738e305612be53',
    ('a1xa1', 'e', 'dominant'): '4cf11b911d904a2afcdd',
    ('a1xa1', 'e', 'cells'): '0cfb304f897aab93d49b',
    ('a1xa1', 'e', 'domain'): '97ac9e5c70c9a5336528',
    ('a1xa1', 'ee', 'points'): '8bffc22919b252e82e4a',
    ('a1xa1', 'ee', 'weights'): '89641f439915d7b56047',
    ('a1xa1', 'ee', 'dominant'): '150338a76ede23c9d931',
    ('a1xa1', 'ee', 'cells'): '847298ea6bf94ea14170',
    ('a1xa1', 'ee', 'domain'): '520ca6127a521e182cf0',
    ('a1xa2', 'e', 'points'): '3697a742413e63b16b29',
    ('a1xa2', 'e', 'weights'): 'c2f920ad8a809cd9e02a',
    ('a1xa2', 'e', 'dominant'): '19447079c86fb79836e3',
    ('a1xa2', 'e', 'cells'): '2779e88b828869b54849',
    ('a1xa2', 'e', 'domain'): '9f6e4534c074fdb31091',
    ('a1xa2', 'ee', 'points'): 'dacb82e3d38ee5ddfb94',
    ('a1xa2', 'ee', 'weights'): '32fc11a5df28dfc88751',
    ('a1xa2', 'ee', 'dominant'): 'a30874104c5754cd180e',
    ('a1xa2', 'ee', 'cells'): '2fb5bdea9497ce2bbbda',
    ('a1xa2', 'ee', 'domain'): '58d1422db975d1de156d',
    ('a1xc2', 'e', 'points'): '7c88be3413663304b922',
    ('a1xc2', 'e', 'weights'): 'e9a7aa93ee835d685f9c',
    ('a1xc2', 'e', 'dominant'): '19447079c86fb79836e3',
    ('a1xc2', 'e', 'cells'): '17e3c85d7879fc4c2527',
    ('a1xc2', 'e', 'domain'): 'ddca53de22f5bc1cc992',
    ('a1xc2', 'ee', 'points'): '4f57f07331da6b2f4bfe',
    ('a1xc2', 'ee', 'weights'): '4e38cc8c745efde43523',
    ('a1xc2', 'ee', 'dominant'): 'a30874104c5754cd180e',
    ('a1xc2', 'ee', 'cells'): '0700934c3307215d95d1',
    ('a1xc2', 'ee', 'domain'): 'ba222e9331aa8935eb67',
    ('a1xg2', 'e', 'points'): '3e3a6d7d6ee3cca4ff2e',
    ('a1xg2', 'e', 'weights'): 'f51beae94e431b8db477',
    ('a1xg2', 'e', 'dominant'): 'a6ed102b1e0894c2dd34',
    ('a1xg2', 'e', 'cells'): '4621323b16bb5daf3b12',
    ('a1xg2', 'e', 'domain'): '5d59ce2ab824b303653a',
    ('a1xg2', 'ee', 'points'): '6b9a48c79f3e0087f1fc',
    ('a1xg2', 'ee', 'weights'): '9963d1b78ae2b3468dd2',
    ('a1xg2', 'ee', 'dominant'): '9a39fb4a8b68382d192a',
    ('a1xg2', 'ee', 'cells'): 'c948331e11f32386d0af',
    ('a1xg2', 'ee', 'domain'): '624ebd5955b68174b558',
    ('a1xa1xa1', 'e', 'points'): '3d2d4da7f87cf430fa9b',
    ('a1xa1xa1', 'e', 'weights'): '7b229f84d7feec10bb40',
    ('a1xa1xa1', 'e', 'dominant'): '16067cb98db08908938b',
    ('a1xa1xa1', 'e', 'cells'): '2dfa56fc8404b884b5c1',
    ('a1xa1xa1', 'e', 'domain'): 'd92b051ae3af2cff881c',
    ('a1xa1xa1', 'ee', 'points'): 'c4f9abac3e69e08562f7',
    ('a1xa1xa1', 'ee', 'weights'): 'a896eb37207504bf737b',
    ('a1xa1xa1', 'ee', 'dominant'): '7bd38ea948aa8094f8ee',
    ('a1xa1xa1', 'ee', 'cells'): 'bff8bbba03aea4c5b016',
    ('a1xa1xa1', 'ee', 'domain'): '142350ef66338e42a9f9',
}


def test_domain_outputs_match_golden_digests():
    got = digests()
    assert set(got) == set(GOLDEN)
    wrong = sorted(key for key in GOLDEN if got[key] != GOLDEN[key])
    assert not wrong, f"outputs changed: {wrong}"


if __name__ == "__main__":
    for key, value in digests().items():
        print(f"    {key!r}: {value!r},")
