"""Exact ``Fraction`` references, straight from the definitions, for the kernels."""

import itertools
import math
from fractions import Fraction as Q

import eweyl as E
from eweyl.grids import in_even_domain
from eweyl.lie_data import exp_phase, mat_inverse, mat_transpose, mat_vec
from eweyl.weyl import check_moduli, torus_keys


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
    """Representative of ``x`` modulo the coroot lattice: ``C K / n``.

    Two points are congruent iff their canonical forms are equal.
    """
    keys, n = torus_keys(system, [x])
    return mat_vec(system.cartan, [Q(int(k), n) for k in keys[0]])


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
