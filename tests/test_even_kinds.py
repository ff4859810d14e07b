"""The two even groups as each other's oracle.

``W_ee`` is a normal subgroup of ``W_e``, so ``Xi^e_lam`` is the sum of
``Xi^ee_(c lam)`` over the cosets ``c`` of ``W_e / W_ee``.  Samples on
the ``ee`` grid at ``(M, ..., M)`` that are invariant under ``W_e`` then
give, for every ``e`` weight ``lam``,

    c^e_lam = c^ee_mu * h^ee_mu / h^e_lam,

where ``mu`` is the ``ee`` weight of ``lam``'s ``W_ee``-orbit mod ``MQ``.
The identity ties the two kinds' grids, ``eps`` and ``h`` to each other.
Congruences are decided here from the inverse Cartan matrix, not from
the library's Smith forms.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import eweyl as E
from eweyl.lie_data import mat_transpose

#: largest modulus drawn per group: its ``e`` grid holds 12 474-16 120 points, past
#: ``MAX_PHASE_MATRIX_N`` on the FFT path; a seventh to a fifth of the draws pass that
#: limit, and one case takes at most ~0.2 s
MAX_MODULUS = {"a1xa1": 80, "a1xa2": 24, "a1xc2": 30, "a1xg2": 42, "a1xa1xa1": 20}


def _keys(system, rows, matrices, inverse, modulus):
    """One integer per image ``m @ row``: its class mod ``modulus`` times the lattice of ``inverse``.

    ``inverse`` is a ``Fraction`` matrix; two images are congruent iff
    ``inverse @ (a - b) / modulus`` is integral.  Returns an array
    ``(len(matrices), len(rows))``.
    """
    den = math.lcm(*(v.denominator for row in inverse for v in row))
    scaled = np.array([[int(v * den) for v in row] for row in inverse], dtype=np.int64)
    span = den * modulus
    radix = span ** np.arange(system.n, dtype=np.int64)
    return np.stack([
        (rows @ np.array(m, dtype=np.int64).T @ scaled.T) % span @ radix for m in matrices
    ])


def _orbit_sizes(keys) -> list[int]:
    """Distinct keys per column: the orbit size of each row that :func:`_keys` imaged."""
    return [len(set(column)) for column in keys.T.tolist()]


def _owner(keys):
    """Map each key to the one column it occurs in; a key in two columns fails."""
    owner = {}
    for column, key in zip(np.tile(np.arange(keys.shape[1]), len(keys)), keys.ravel().tolist()):
        assert owner.setdefault(key, column) == column
    return owner


def _relative_gap(system, m, seed) -> float:
    """``max |c^e - c^ee h^ee / h^e| / max |c^e|`` at modulus ``m``, for seeded samples."""
    ee_ms = (m,) * len(system.factors)
    w_e, w_ee = (E.even_subgroup(system, kind) for kind in ("e", "ee"))

    # every ee point's W_e-orbit holds one e point; the e orbits have eps points and tile T
    points_e = E.build_point_grid(system, "e", m)
    points_ee = E.build_point_grid(system, "ee", ee_ms)
    assert points_e.denominator == points_ee.denominator == m
    keys = _keys(system, points_e.numerators, [w.coweight_matrix for w in w_e],
                 system.inv_cartan, m)
    assert _orbit_sizes(keys) == points_e.eps.tolist()
    owner = _owner(keys)
    assert len(owner) == int(points_e.eps.sum()) == int(points_ee.eps.sum())
    (ee_keys,) = _keys(system, points_ee.numerators, [np.eye(system.n, dtype=int)],
                       system.inv_cartan, m)
    extend = np.array([owner[k] for k in ee_keys.tolist()])

    rng = np.random.default_rng(seed)
    values = rng.normal(size=len(points_e)) + 1j * rng.normal(size=len(points_e))
    c_e = E.forward_discrete(E.make_samples(system, "e", m, values))
    c_ee = E.forward_discrete(E.make_samples(system, "ee", ee_ms, values[extend]))

    # h is the stabiliser order mod MQ; mu is the one ee weight congruent
    # mod MQ to some W_ee image of each e weight
    spectrum_e, spectrum_ee = c_e.spectrum, c_ee.spectrum
    inv_t = mat_transpose(system.inv_cartan)
    for group, spectrum in ((w_e, spectrum_e), (w_ee, spectrum_ee)):
        keys = _keys(system, spectrum.weights, [w.weight_matrix for w in group], inv_t, m)
        assert [group.order // k for k in _orbit_sizes(keys)] == spectrum.h.tolist()
    (ee_keys,) = _keys(system, spectrum_ee.weights, [np.eye(system.n, dtype=int)], inv_t, m)
    index = {k: j for j, k in enumerate(ee_keys.tolist())}
    assert len(index) == len(spectrum_ee)
    images = _keys(system, spectrum_e.weights, [w.weight_matrix for w in w_ee], inv_t, m)
    mu = []
    for col in images.T.tolist():
        (j,) = {index[k] for k in col if k in index}
        mu.append(j)
    mu = np.array(mu)

    want = c_ee.values[mu] * spectrum_ee.h[mu] / spectrum_e.h
    return np.abs(c_e.values - want).max() / np.abs(c_e.values).max()


@settings(max_examples=30, deadline=None)
@given(sel=st.sampled_from(sorted(MAX_MODULUS)), data=st.data())
def test_e_forward_is_the_ee_forward_on_invariant_samples(sel, data):
    m = data.draw(st.integers(1, MAX_MODULUS[sel]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    assert _relative_gap(E.system_from_selector(sel), m, seed) <= 1e-12
