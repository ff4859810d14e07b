"""Exact ``Fraction`` references, straight from the definitions, for the kernels."""

import itertools
import math
from fractions import Fraction as Q

import numpy as np

import eweyl as E
from eweyl.grids import in_even_domain
from eweyl.lie_data import block_diagonal, exp_phase, mat_inverse, mat_transpose, mat_vec
from eweyl.weyl import check_moduli


def fraction_xi(system, kind, lam, x):
    """The reference orbit sum: ``Fraction`` pairings, canonical element order.

    ``efunc.xi`` and ``efunc.orbit_sums`` must equal it bit for bit.
    """
    lam = tuple(lam)
    total = 0j
    for w in E.even_subgroup(system, kind):
        total += exp_phase(system, w.apply_weight(lam), x)
    return total


def xi_orbit(system, kind, lam, x):
    """Sum over the distinct orbit members only: ``xi / stab_order``."""
    total = 0j
    for mu in E.orbit(E.even_subgroup(system, kind), tuple(lam)):
        total += exp_phase(system, mu, x)
    return total


def torus_congruent(system, x, y) -> bool:
    """``x = y`` modulo the coroot lattice: ``C^{-1}(x - y)`` is integral."""
    diff = tuple(a - b for a, b in zip(x, y))
    return all(Q(z).denominator == 1 for z in mat_vec(system.inv_cartan, diff))


def root_coordinates(system, weights):
    """Each weight in the basis of simple roots, blockwise ``C_f^{-T} a_f``, exactly.

    Returns integer numerators (one object-array row per weight) and one
    denominator per coordinate: the ``Fraction`` inverse ``C_f^{-T}``
    times the common denominator of its entries, and that denominator.
    """
    scaled, dens = [], []
    for f in system.factors:
        inv = mat_transpose(mat_inverse(f.cartan))
        den = math.lcm(*(v.denominator for row in inv for v in row))
        scaled.append([[int(v * den) for v in row] for row in inv])
        dens += [den] * f.rank
    matrix = np.array(block_diagonal(scaled), dtype=object)
    weights = np.array(weights, dtype=object).reshape(len(weights), system.n)
    return weights @ matrix.T, np.array(dens, dtype=object)


def weight_congruent_mod_mq(system, a, b, ms) -> bool:
    """``a = b`` modulo ``M_f * (root lattice of factor f)``, blockwise.

    Decided from the definition: ``C_f^{-T}(a - b) / M_f`` is integral.
    """
    _, ms = check_moduli(system, "ee", ms)
    for (lo, hi), factor, m in zip(system.factor_slices(), system.factors, ms):
        diff = tuple(a[j] - b[j] for j in range(lo, hi))
        z = mat_vec(mat_transpose(mat_inverse(factor.cartan)), diff)
        if any(Q(v) % m != 0 for v in z):
            return False
    return True


def canonical_torus_point(system, x):
    """Representative of ``x`` modulo the coroot lattice: ``C frac(C^{-1} x)``.

    Two points are congruent iff their canonical forms are equal.
    """
    return mat_vec(system.cartan, [Q(z) % 1 for z in mat_vec(system.inv_cartan, x)])


def _torus_classes(system, per_factor_ms):
    """Canonical representatives of the finite group (1/M)P^v / Q^v."""
    ms = [(m, m * abs(f.det_cartan)) for f, m in zip(system.factors, per_factor_ms)
          for _ in range(f.rank)]
    return {
        canonical_torus_point(system, tuple(Q(k, d) for k, (d, _) in zip(ks, ms)))
        for ks in itertools.product(*(range(span) for _, span in ms))
    }


def _translate_candidates(system, s):
    """Integer coroot translates that can land ``s`` inside [-1, 1]^n."""
    inv = system.inv_cartan
    n = system.n
    bounds = []
    for i in range(n):
        lo = hi = Q(0)
        for j in range(n):
            a = inv[i][j] * (Q(-1) - s[j])
            b = inv[i][j] * (Q(1) - s[j])
            lo += min(a, b)
            hi += max(a, b)
        bounds.append(range(math.ceil(lo), math.floor(hi) + 1))
    for zs in itertools.product(*bounds):
        yield mat_vec(system.cartan, zs)


def oracle_point_grid(system, kind, ms) -> frozenset:
    """Set-theoretic grid: finite torus group intersected with the domain.

    Returns canonical representatives modulo the coroot lattice, for
    comparison against :func:`eweyl.build_point_grid`.
    """
    _, per_factor_ms = check_moduli(system, kind, ms)
    hits = set()
    for rep in _torus_classes(system, per_factor_ms):
        for shift in _translate_candidates(system, rep):
            candidate = tuple(a + b for a, b in zip(rep, shift))
            if in_even_domain(system, kind, candidate):
                hits.add(canonical_torus_point(system, rep))
                break
    return frozenset(hits)


def spectrum_differences(system, group, spectrum) -> np.ndarray:
    """The distinct nonzero ``mu - w lam`` over ``mu, lam`` in the spectrum and ``w`` in the group.

    The grid of modulus ``M`` integrates the spectrum exactly iff none
    of them is congruent to 0 modulo ``M_f`` times the root lattice of
    each factor (:func:`root_coordinates` integers divisible by ``M_f``): the
    quadratic definition that ``transform._check_alias_free`` decides by
    sorting indices.
    """
    lams = np.array(spectrum, dtype=np.int64).reshape(len(spectrum), system.n)
    images = np.stack([lams @ np.array(w.weight_matrix, dtype=np.int64).T for w in group])
    diffs = (lams[None, :, None, :] - images[:, None, :, :]).reshape(-1, system.n)
    # one row per distinct mixed-radix code (np.unique(axis=0) is ~10x slower)
    lo = diffs.min(axis=0)
    radix = np.cumprod(np.r_[1, diffs.max(axis=0)[:-1] - lo[:-1] + 1])
    _, first = np.unique((diffs - lo) @ radix, return_index=True)
    diffs = diffs[first]
    return diffs[diffs.any(axis=1)]
