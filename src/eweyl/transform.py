"""Discrete and continuous expansions into even orbit sums.

The discrete transform expands samples on a point grid into the finite
orthogonal family of orbit sums labelled by the dual weight grid.  With
``eps`` the torus-orbit sizes and ``h`` the congruence stabiliser
orders, the forward coefficients are

    c[lam] = sum_x eps(x) f(x) conj(Xi_lam(x)) / N(lam),
    N(lam) = detC * |group| * prod_f M_f^rank_f * h[lam],

and the inverse is plain series evaluation on the grid.  The transform
is a direct dense summation, refused past ``MAX_PHASE_MATRIX_N`` grid
points so that the dense matrix stays within 1 GiB; no fast
factorisation is attempted.

The continuous transform integrates against the orbit sums over the
even fundamental domain with a midpoint/centroid product rule: interval
midpoints along A1 directions and centroid-weighted triangle
subdivisions over the rank-2 simplices, reflected copies included.  The
cells are integer numerators over one common denominator ``D``
(:class:`QuadratureCells`), glued as arrays by
:func:`eweyl.grids.glue_arrays`; the integrand ``f`` still receives
``Fraction`` tuples, built block by block from a table of the few
distinct numerators.  The spectrum of the continuous transform is the
finite truncation produced by :func:`eweyl.grids.enumerate_dominant`.
Both transforms take their orbit sums from the exact integer kernel of
:mod:`eweyl.efunc` (the continuous one straight from the numerators),
so every phase is exact.

Centralised numeric tolerances, used across the test-suite:
orthogonality and round trips 1e-9, pointwise formula equivalence
1e-10, pure phase identities 1e-12.
"""

from __future__ import annotations

import math
import numbers
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
from .efunc import orbit_sums, scaled_orbit_sums, xi
from .weyl import check_kind, check_moduli, even_subgroup, stab_order
from .grids import (
    GridPoint,
    SpectralPoint,
    build_point_grid,
    build_weight_grid,
    enumerate_dominant,
    glue_arrays,
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


#: largest grid with a dense phase matrix: N^2 complex entries stay <= 1 GiB
MAX_PHASE_MATRIX_N = 8192


@lru_cache(maxsize=8)
def phase_matrix(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]) -> np.ndarray:
    """Matrix of orbit-sum values, spectrum rows by grid columns."""
    grid = build_point_grid(system, kind, ms)
    if len(grid) > MAX_PHASE_MATRIX_N:
        raise UsageError(
            f"a grid of {len(grid)} points is too large for the dense phase matrix; "
            f"the limit is {MAX_PHASE_MATRIX_N}"
        )
    out = orbit_sums(
        system,
        kind,
        [sp.weight for sp in build_weight_grid(system, kind, ms)],
        [gp.point for gp in grid],
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

def _factor_cells(factor, resolution: int, denominator: int):
    """Midpoint/centroid cells of one factor's simplex over ``denominator``.

    Returns integer numerators of shape ``(k, rank)`` and the cell
    weight.  Intervals of A1 have midpoints ``(2i+1)/2r``; the triangle
    ``{u, v >= 0, m1 u + m2 v <= 1}`` is cut into ``r^2`` triangles with
    centroids ``((3i+1)/(3r m1), (3j+1)/(3r m2))`` (upright) and
    ``((3i+2)/(3r m1), (3j+2)/(3r m2))`` (inverted).
    """
    n = resolution
    if factor.rank == 1:
        step = denominator // (2 * n)
        return np.array([[(2 * i + 1) * step] for i in range(n)], dtype=np.int64), Q(1, n)
    m1, m2 = factor.marks
    s1, s2 = denominator // (3 * n * m1), denominator // (3 * n * m2)
    cells = [((3 * i + 1) * s1, (3 * j + 1) * s2) for i in range(n) for j in range(n - i)]
    cells += [((3 * i + 2) * s1, (3 * j + 2) * s2) for i in range(n) for j in range(n - i - 1)]
    return np.array(cells, dtype=np.int64).reshape(-1, 2), Q(1, 2 * n * n) / (m1 * m2)


def _cell_denominator(system: SemisimpleSystem, resolution: int) -> int:
    """Common denominator of every cell: ``2r`` per A1, ``3r m1 m2`` per rank 2."""
    return math.lcm(*(
        2 * resolution if f.rank == 1 else 3 * resolution * math.prod(f.marks)
        for f in system.factors
    ))


#: quadrature cells per block of Fraction points and orbit sums
_CELL_BLOCK = 2**14


@dataclass(frozen=True, eq=False)
class QuadratureCells:
    """Cells of :func:`quadrature_cells` as integer numerators over one denominator.

    Cell ``k`` is the point ``numerators[k] / denominator`` with weight
    ``weights[k]``.  Iterating yields ``(point, weight)`` pairs with
    ``Fraction`` coordinates and a float weight.
    """

    numerators: np.ndarray
    denominator: int
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)

    def points(self, start: int = 0, stop: int | None = None) -> list[TorusPoint]:
        """``Fraction`` tuples of the cells ``start:stop``."""
        block = self.numerators[start:stop]
        values, index = np.unique(block, return_inverse=True)
        table = np.array([Q(int(v), self.denominator) for v in values], dtype=object)
        return list(zip(*table[index.reshape(block.shape)].T.tolist()))

    def __iter__(self):
        for start in range(0, len(self), _CELL_BLOCK):
            stop = start + _CELL_BLOCK
            yield from zip(self.points(start, stop), self.weights[start:stop].tolist())


def quadrature_cells(system: SemisimpleSystem, kind: str, resolution: int) -> QuadratureCells:
    """Midpoint/centroid cells covering the even fundamental domain.

    Points are exact: integer numerators over one common denominator
    ``D``, the lcm over factors of ``2r`` (A1) and ``3r m1 m2`` (rank
    2), so the gluing reflections and the circle's ``s -> -s`` stay
    integer.  The weights are cell volumes in coweight coordinates (the
    metric factor is applied by the caller), multiplied in factor order.
    """
    if not isinstance(resolution, numbers.Integral) or resolution < 1:
        raise UsageError(f"resolution must be an integer >= 1, got {resolution!r}")
    resolution = int(resolution)
    denominator = _cell_denominator(system, resolution)

    def piece(i, part):
        coords, w = _factor_cells(system.factors[i], resolution, denominator)
        if part == "circle":  # the A1 reflection is s -> -s
            coords = np.concatenate([coords, -coords])
        return coords, np.full(len(coords), float(w))

    numerators, weights = glue_arrays(system, kind, piece)
    numerators.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureCells(numerators, denominator, weights)


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
    spectrum = enumerate_dominant(system, kind, weight_bound)
    integrals = np.zeros(len(spectrum), dtype=complex)
    for start in range(0, len(cells), _CELL_BLOCK):
        stop = start + _CELL_BLOCK
        weights = cells.weights[start:stop].tolist()
        points = cells.points(start, stop)
        weighted = np.array([w * complex(f(p)) for p, w in zip(points, weights)]) * metric
        xi_vals = scaled_orbit_sums(
            system, kind, spectrum, cells.numerators[start:stop], cells.denominator
        )
        integrals += np.conj(xi_vals) @ weighted
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
