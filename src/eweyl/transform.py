"""Discrete and continuous expansions into even orbit sums.

The discrete transform expands samples on a point grid into the finite
orthogonal family of orbit sums labelled by the dual weight grid.  With
``eps`` the torus-orbit sizes and ``h`` the congruence stabiliser
orders, the forward coefficients are

    c[lam] = sum_x eps(x) f(x) conj(Xi_lam(x)) / N(lam),
    N(lam) = detC * |group| * prod_f M_f^rank_f * h[lam],

and the inverse is plain series evaluation on the grid.  The transform
is a direct dense summation; grid sizes here are at most a few thousand
points, so no fast factorisation is attempted.

The continuous transform integrates against the orbit sums over the
even fundamental domain with a midpoint/centroid product rule: interval
midpoints along A1 directions and centroid-weighted triangle
subdivisions over the rank-2 simplices, reflected copies included.  The
spectrum of the continuous transform is the finite truncation produced
by :func:`eweyl.grids.enumerate_dominant`.  Both transforms take their
orbit sums from :func:`eweyl.efunc.orbit_sums`, so every phase is exact.

Centralised numeric tolerances, used across the test-suite:
orthogonality and round trips 1e-9, pointwise formula equivalence
1e-10, pure phase identities 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lie_data import (
    Q,
    SemisimpleSystem,
    TorusPoint,
    UsageError,
    Weight,
    coweight_gram,
    domain_volume,
    mat_det,
)
from .efunc import orbit_sums, xi
from .weyl import check_kind, check_moduli, even_subgroup, stab_order
from .grids import (
    GridPoint,
    SpectralPoint,
    build_point_grid,
    build_weight_grid,
    enumerate_dominant,
    glue,
)

TOL_ORTHOGONALITY = 1e-9
TOL_POINTWISE = 1e-10
TOL_PHASE = 1e-12


@dataclass(frozen=True)
class SampleSet:
    """Function values aligned index-by-index with a point grid."""

    system: SemisimpleSystem
    kind: str
    ms: tuple[int, ...]
    grid: tuple[GridPoint, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise UsageError("sample values and grid have different lengths")


@dataclass(frozen=True)
class CoefficientSet:
    """Expansion coefficients aligned index-by-index with a weight grid."""

    system: SemisimpleSystem
    kind: str
    ms: tuple[int, ...]
    spectrum: tuple[SpectralPoint, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.spectrum) != len(self.values):
            raise UsageError("coefficient values and spectrum have different lengths")


def make_samples(system, kind, ms, values) -> SampleSet:
    """Wrap raw values (or a callable on torus points) as a SampleSet."""
    ms, _ = check_moduli(system, kind, ms)
    grid = build_point_grid(system, kind, ms)
    if callable(values):
        values = [values(gp.point) for gp in grid]
    values = tuple(complex(v) for v in values)
    if len(values) != len(grid):
        raise UsageError(
            f"expected {len(grid)} sample values for this grid, got {len(values)}"
        )
    return SampleSet(system, kind, ms, grid, values)


# ---------------------------------------------------------------------------
# dense transform core
# ---------------------------------------------------------------------------

def modulus_power(system: SemisimpleSystem, kind: str, ms) -> int:
    """``prod_f M_f^rank_f``; reduces to ``M^n`` for the full even kind."""
    _, per_factor = check_moduli(system, kind, ms)
    power = 1
    for f, m in zip(system.factors, per_factor):
        power *= m ** f.rank
    return power


def normalizers(system, kind, ms) -> np.ndarray:
    """The predicted diagonal of the discrete Gram matrix."""
    spectrum = build_weight_grid(system, kind, ms)
    group = even_subgroup(system, kind)
    base = abs(system.det_cartan) * group.order * modulus_power(system, kind, ms)
    return np.array([base * sp.h for sp in spectrum], dtype=float)


@lru_cache(maxsize=8)
def phase_matrix(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]) -> np.ndarray:
    """Matrix of orbit-sum values, spectrum rows by grid columns."""
    out = orbit_sums(
        system,
        kind,
        [sp.weight for sp in build_weight_grid(system, kind, ms)],
        [gp.point for gp in build_point_grid(system, kind, ms)],
    )
    out.setflags(write=False)
    return out


def forward_discrete(samples: SampleSet) -> CoefficientSet:
    """Expand grid samples into orbit-sum coefficients.

    The grid must be the canonical one for ``(system, kind, ms)``; a
    reindexed or foreign grid is rejected.
    """
    system, kind, ms = samples.system, samples.kind, samples.ms
    if samples.grid != build_point_grid(system, kind, ms):
        raise UsageError("sample grid is not the canonical grid for its metadata")
    ee = phase_matrix(system, kind, ms)
    eps = np.array([gp.epsilon for gp in samples.grid], dtype=float)
    f = np.array(samples.values, dtype=complex)
    coeffs = (ee.conj() @ (eps * f)) / normalizers(system, kind, ms)
    return CoefficientSet(
        system, kind, ms, build_weight_grid(system, kind, ms), tuple(coeffs)
    )


def inverse_discrete(coeffs: CoefficientSet) -> SampleSet:
    """Evaluate the finite orbit-sum series back on the grid."""
    system, kind, ms = coeffs.system, coeffs.kind, coeffs.ms
    if coeffs.spectrum != build_weight_grid(system, kind, ms):
        raise UsageError("coefficient spectrum is not the canonical one")
    ee = phase_matrix(system, kind, ms)
    values = ee.T @ np.array(coeffs.values, dtype=complex)
    return SampleSet(
        system, kind, ms, build_point_grid(system, kind, ms), tuple(values)
    )


def interpolate(coeffs: CoefficientSet, x: TorusPoint) -> complex:
    """Evaluate the finite series at an arbitrary torus point."""
    x = tuple(Q(v) for v in x)
    total = 0j
    for sp, c in zip(coeffs.spectrum, coeffs.values):
        total += c * xi(coeffs.system, coeffs.kind, sp.weight, x)
    return total


def gram_matrix(system, kind, ms) -> np.ndarray:
    """``G[l, l'] = sum_x eps(x) Xi_l(x) conj(Xi_l'(x))`` over the grid."""
    ms, _ = check_moduli(system, kind, ms)
    ee = phase_matrix(system, kind, ms)
    eps = np.array([gp.epsilon for gp in build_point_grid(system, kind, ms)], dtype=float)
    return (ee * eps) @ ee.conj().T


def gram_residual(system, kind, ms) -> float:
    """Max deviation of the discrete Gram matrix from its predicted diagonal."""
    ms, _ = check_moduli(system, kind, ms)
    gram = gram_matrix(system, kind, ms)
    return float(np.abs(gram - np.diag(normalizers(system, kind, ms))).max())


# ---------------------------------------------------------------------------
# continuous transform
# ---------------------------------------------------------------------------

def _interval_cells(resolution: int):
    w = Q(1, resolution)
    return [((Q(2 * i + 1, 2 * resolution),), w) for i in range(resolution)]


def _triangle_cells(marks, resolution: int):
    """Centroid rule over {u, v >= 0, m1 u + m2 v <= 1} by subdivision."""
    m1, m2 = marks
    n = resolution
    w = Q(1, 2 * n * n) / (m1 * m2)
    cells = []
    for i in range(n):
        for j in range(n - i):
            p, q = Q(3 * i + 1, 3 * n), Q(3 * j + 1, 3 * n)
            cells.append(((p / m1, q / m2), w))
    for i in range(n):
        for j in range(n - i - 1):
            p, q = Q(3 * i + 2, 3 * n), Q(3 * j + 2, 3 * n)
            cells.append(((p / m1, q / m2), w))
    return cells


def _factor_cells(factor, resolution):
    if factor.rank == 1:
        return _interval_cells(resolution)
    return _triangle_cells(factor.marks, resolution)


def quadrature_cells(system: SemisimpleSystem, kind: str, resolution: int):
    """Midpoint/centroid cells covering the even fundamental domain.

    Returns (points, weights) with exact rational points; the weights
    are cell volumes in coweight coordinates (the metric factor is
    applied by the caller).
    """

    def piece(i, part):
        cells = [(c, (float(w),)) for c, w in _factor_cells(system.factors[i], resolution)]
        if part == "circle":  # the A1 reflection is s -> -s
            cells += [(tuple(-v for v in c), t) for c, t in cells]
        return cells

    return [
        (coords, math.prod(ws)) for coords, ws in glue(system, kind, piece, dual=False)
    ]


#: quadrature cells per orbit-sum block of :func:`continuous_coefficients`
_CELL_BLOCK = 2**14


@dataclass(frozen=True)
class ContinuousCoefficients:
    """Quadrature approximations of continuous expansion coefficients."""

    system: SemisimpleSystem
    kind: str
    bound: int
    weights: tuple[Weight, ...]
    values: tuple[complex, ...]
    stabilizers: tuple[int, ...]


def continuous_coefficients(
    f,
    system: SemisimpleSystem,
    kind: str,
    weight_bound: int = 3,
    resolution: int = 64,
) -> ContinuousCoefficients:
    """Approximate the continuous transform of ``f`` over the even domain.

    Parameters
    ----------
    f : callable
        Function of a torus point (tuple of rationals); sampled at cell
        midpoints/centroids.
    weight_bound : int
        Truncation bound passed to :func:`enumerate_dominant`.
    resolution : int
        Subdivisions per coordinate direction of each domain factor.

    The coefficient of weight ``lam`` is the integral of
    ``f * conj(Xi_lam)`` divided by ``|domain| * |group| * d_lam``.
    """
    group = even_subgroup(system, check_kind(kind))
    cells = quadrature_cells(system, kind, resolution)
    metric = math.sqrt(float(mat_det(coweight_gram(system))))
    weighted = np.array([w * complex(f(coords)) for coords, w in cells]) * metric
    spectrum = enumerate_dominant(system, kind, weight_bound)
    integrals = np.zeros(len(spectrum), dtype=complex)
    for start in range(0, len(cells), _CELL_BLOCK):
        points = [coords for coords, _ in cells[start:start + _CELL_BLOCK]]
        xi_vals = orbit_sums(system, kind, spectrum, points)
        integrals += np.conj(xi_vals) @ weighted[start:start + _CELL_BLOCK]
    stabilizers = tuple(stab_order(group, lam) for lam in spectrum)
    norm = domain_volume(system, kind) * group.order
    return ContinuousCoefficients(
        system,
        kind,
        weight_bound,
        tuple(spectrum),
        tuple(complex(v / (norm * d)) for v, d in zip(integrals, stabilizers)),
        stabilizers,
    )


# ---------------------------------------------------------------------------
# product-to-sum decomposition
# ---------------------------------------------------------------------------

def product_to_sum(system, kind, lam: Weight, lam2: Weight):
    """Multiset of weights with ``Xi_lam Xi_lam2 = sum Xi_mu`` over it.

    One entry per group element, in canonical element order:
    ``lam + w(lam2)``.
    """
    group = even_subgroup(system, check_kind(kind))
    lam, lam2 = tuple(lam), tuple(lam2)
    out = []
    for w in group:
        img = w.apply_weight(lam2)
        out.append(tuple(a + b for a, b in zip(lam, img)))
    return out
