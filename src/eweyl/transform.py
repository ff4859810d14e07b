"""Discrete and continuous expansions into even orbit sums.

The discrete transform expands samples on a point grid into the finite
orthogonal family of orbit sums labelled by the dual weight grid.  With
``eps`` the torus-orbit sizes and ``h`` the congruence stabiliser
orders, the forward coefficients are

    c[lam] = sum_x eps(x) f(x) conj(Xi_lam(x)) / N(lam),
    N(lam) = detC * |group| * prod_f M_f^rank_f * h[lam],

and the inverse is plain series evaluation on the grid.  The phase
matrix ``P`` (spectrum rows by grid columns) is applied without a
copy: the forward transform conjugates the vector,
``conj(P @ conj(eps * f)) / N``, not the matrix, and the inverse is
``P.T @ c``.  ``eps`` and ``N(lam)`` are read-only float arrays cached
per grid, and the canonical grid is recognised by identity before
equality.

The product even group is the product of the factors' even groups, so
every kind ``"ee"`` orbit sum is a product of per-factor ones and,
with the grid and spectrum in product order (left factor outermost,
as :func:`eweyl.grids.glue` emits them), the ``"ee"`` phase matrix is
the Kronecker product of the factors' matrices.  On ``"ee"`` grids of
at least ``SEPARABLE_MIN_N`` points both transforms contract one
factor at a time and never form the N x N matrix.  Below it, and for
kind ``"e"``, they use the dense cached matrix, which is also what
:func:`gram_matrix` and :func:`gram_residual` read as an independent
check.  Every phase matrix, dense or per factor, is refused past
``MAX_PHASE_MATRIX_N`` grid points so that it stays within 1 GiB.

The continuous transform integrates against the orbit sums over the
even fundamental domain on the same point grid, at modulus
``resolution`` on every gluing block: :func:`quadrature_cells` weights
each point by ``eps(x) / (|group| * prod_f M_f^rank_f)``, and the
weighted sum of ``f * conj(Xi_lam)`` is divided by ``|det C| * d_lam``.
That is the forward discrete transform on that grid, with the
stabiliser order ``d_lam`` in place of ``h`` in ``N(lam)``.  By discrete
orthogonality this cubature is exact for every product of two orbit
sums of the spectrum unless their weights alias modulo ``M`` times the
root lattice, which :func:`continuous_coefficients` refuses.  The
integrand ``f`` receives ``Fraction`` tuples, built block by block from
a table of the few distinct numerators.  The spectrum of the
continuous transform is the finite truncation produced by
:func:`eweyl.grids.enumerate_dominant`.  Both transforms take their
orbit sums from the exact integer kernel of :mod:`eweyl.efunc` (the
continuous one straight from the numerators), so every phase is exact.

``TOL_ORTHOGONALITY`` (1e-9) bounds the Gram residual and the round-trip
error that ``eweyl verify`` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lie_data import (
    Q,
    SemisimpleSystem,
    TorusPoint,
    UsageError,
    Weight,
    assemble_system,
)
from .efunc import orbit_sums, scaled_orbit_sums, xi
from .weyl import (
    PRODUCT_EVEN,
    check_kind,
    check_moduli,
    even_subgroup,
    stab_order,
    weight_keys,
)
from .grids import (
    GridPoint,
    SpectralPoint,
    build_point_grid,
    build_weight_grid,
    domain_blocks,
    enumerate_dominant,
    fraction_rows,
    point_grid_arrays,
)

TOL_ORTHOGONALITY = 1e-9


@dataclass(frozen=True)
class SampleSet:
    """Function values aligned index-by-index with a point grid."""

    system: SemisimpleSystem
    kind: str
    ms: tuple[int, ...]
    grid: tuple[GridPoint, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        n, got = len(self.grid), len(self.values)
        if n != got:
            raise UsageError(f"expected {n} sample values for this grid, got {got}")


@dataclass(frozen=True)
class CoefficientSet:
    """Expansion coefficients aligned index-by-index with a weight grid."""

    system: SemisimpleSystem
    kind: str
    ms: tuple[int, ...]
    spectrum: tuple[SpectralPoint, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        n, got = len(self.spectrum), len(self.values)
        if n != got:
            raise UsageError(f"expected {n} coefficient values for this spectrum, got {got}")


def make_samples(system, kind, ms, values) -> SampleSet:
    """Wrap raw values (or a callable on torus points) as a SampleSet."""
    ms, _ = check_moduli(system, kind, ms)
    grid = build_point_grid(system, kind, ms)
    if callable(values):
        values = [values(gp.point) for gp in grid]
    return SampleSet(system, kind, ms, grid, tuple(map(complex, values)))


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


@lru_cache(maxsize=32)
def _grid_weights(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]):
    """The grid's ``eps`` and ``N(lam)`` as read-only float arrays."""
    eps = np.array([gp.epsilon for gp in build_point_grid(system, kind, ms)], dtype=float)
    group = even_subgroup(system, kind)
    base = abs(system.det_cartan) * group.order * modulus_power(system, kind, ms)
    norms = np.array([base * sp.h for sp in build_weight_grid(system, kind, ms)], dtype=float)
    eps.setflags(write=False)
    norms.setflags(write=False)
    return eps, norms


def normalizers(system, kind, ms) -> np.ndarray:
    """The predicted diagonal of the discrete Gram matrix (read-only)."""
    ms, _ = check_moduli(system, kind, ms)
    return _grid_weights(system, kind, ms)[1]


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


#: smallest kind ``"ee"`` grid transformed factor by factor; below it the
#: dense product is faster (crossover measured in ROADMAP item 3)
SEPARABLE_MIN_N = 256


def _apply_phase(system, kind, ms, x, transpose=False) -> np.ndarray:
    """``P @ x``, or ``P.T @ x``, for ``P = phase_matrix(system, kind, ms)``.

    A kind ``"ee"`` vector of at least ``SEPARABLE_MIN_N`` entries is
    multiplied by ``kron(P_0, P_1, ...)`` one factor at a time: each
    step contracts the leading axis and cycles it to the back.
    """
    if kind != PRODUCT_EVEN or len(x) < SEPARABLE_MIN_N:
        p = phase_matrix(system, kind, ms)
        return (p.T if transpose else p) @ x
    for f, m in zip(system.factors, ms):
        p = phase_matrix(assemble_system((f.kind,)), kind, (m,))
        if transpose:
            p = p.T
        x = (p @ x.reshape(p.shape[1], -1)).T
    return x.reshape(-1)


def forward_discrete(samples: SampleSet) -> CoefficientSet:
    """Expand grid samples into orbit-sum coefficients.

    The grid must be the canonical one for ``(system, kind, ms)``; a
    reindexed or foreign grid is rejected.
    """
    system, kind = samples.system, samples.kind
    ms, _ = check_moduli(system, kind, samples.ms)
    grid = build_point_grid(system, kind, ms)
    if samples.grid is not grid and samples.grid != grid:
        raise UsageError("sample grid is not the canonical grid for its metadata")
    eps, norms = _grid_weights(system, kind, ms)
    f = np.array(samples.values, dtype=complex)
    coeffs = np.conj(_apply_phase(system, kind, ms, np.conj(eps * f))) / norms
    return CoefficientSet(
        system, kind, ms, build_weight_grid(system, kind, ms), tuple(coeffs.tolist())
    )


def inverse_discrete(coeffs: CoefficientSet) -> SampleSet:
    """Evaluate the finite orbit-sum series back on the grid."""
    system, kind = coeffs.system, coeffs.kind
    ms, _ = check_moduli(system, kind, coeffs.ms)
    spectrum = build_weight_grid(system, kind, ms)
    if coeffs.spectrum is not spectrum and coeffs.spectrum != spectrum:
        raise UsageError("coefficient spectrum is not the canonical one")
    values = _apply_phase(system, kind, ms, np.array(coeffs.values, dtype=complex), transpose=True)
    return SampleSet(
        system, kind, ms, build_point_grid(system, kind, ms), tuple(values.tolist())
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
    eps, _ = _grid_weights(system, kind, ms)
    t = np.conj(ee)
    t *= eps
    g = t @ ee.T
    return np.conj(g, out=g)


def gram_residual(system, kind, ms) -> float:
    """Max deviation of the discrete Gram matrix from its predicted diagonal."""
    ms, _ = check_moduli(system, kind, ms)
    gram = gram_matrix(system, kind, ms)
    _, norms = _grid_weights(system, kind, ms)
    gram[np.diag_indices_from(gram)] -= norms
    return float(np.abs(gram).max())


# ---------------------------------------------------------------------------
# continuous transform
# ---------------------------------------------------------------------------

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
        return len(self.numerators)

    def points(self, start: int = 0, stop: int | None = None) -> list[TorusPoint]:
        """``Fraction`` tuples of the cells ``start:stop``."""
        return fraction_rows(self.numerators[start:stop], self.denominator)

    def __iter__(self):
        return zip(self.points(), self.weights.tolist())


def quadrature_cells(system: SemisimpleSystem, kind: str, resolution: int) -> QuadratureCells:
    """The point grid, modulus ``resolution`` on every gluing block, as a cubature.

    Point ``x`` has weight ``eps(x) / (|group| * prod_f M_f^rank_f)``:
    its share of the domain in units of the volume of ``R^n / P^v``
    (the coweight lattice), so the weights sum to ``|det C| / |group|``.
    """
    ms = (resolution,) * len(domain_blocks(system, kind))
    numerators, denominator, _, eps = point_grid_arrays(system, kind, ms)
    numerators.setflags(write=False)
    scale = even_subgroup(system, kind).order * modulus_power(system, kind, ms)
    weights = np.array(eps, dtype=float) / scale
    weights.setflags(write=False)
    return QuadratureCells(numerators, denominator, weights)


def _check_alias_free(system, group, spectrum, per_factor) -> None:
    """Refuse moduli at which the grid cannot integrate ``spectrum`` exactly.

    The grid sums ``Xi_mu * conj(Xi_lam) = sum_w Xi_(mu - w lam)``
    exactly unless some nonzero ``mu - w lam`` is congruent to 0 modulo
    ``M_f`` times the root lattice of each factor ``f``.
    """
    lams = np.array(spectrum, dtype=np.int64).reshape(len(spectrum), system.n)
    images = np.stack([lams @ np.array(w.weight_matrix, dtype=np.int64).T for w in group])
    diffs = (lams[None, :, None, :] - images[:, None, :, :]).reshape(-1, system.n)
    diffs = diffs[diffs.any(axis=1)]
    aliased = ~weight_keys(system, diffs, per_factor).any(axis=1)
    if aliased.any():
        nu = tuple(diffs[aliased][0].tolist())
        raise UsageError(f"resolution {per_factor[0]} aliases the weight {nu} to 0; raise it")


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
    resolution: int = 32,
) -> ContinuousCoefficients:
    """The continuous transform of ``f`` over the even domain, on the point grid.

    Parameters
    ----------
    f : callable
        Function of a torus point (tuple of rationals); sampled at the
        points of :func:`quadrature_cells`.
    weight_bound : int
        Truncation bound passed to :func:`enumerate_dominant`.
    resolution : int
        The grid modulus ``M``, on every gluing block.  The grid has
        about ``|det C| * M^n / |group|`` points and is refused past
        ``MAX_GRID_CELLS``; the default 32 keeps every group within it.

    The coefficient of weight ``lam`` is the integral of
    ``f * conj(Xi_lam)`` over ``|domain| * |group| * d_lam``, which is
    ``|det C| * d_lam`` in the units of the cell weights.  It is exact,
    to rounding, when ``f`` is a combination of the orbit sums of the
    spectrum: by discrete orthogonality the grid integrates every
    ``Xi_mu * conj(Xi_lam)`` exactly unless some nonzero ``mu - w lam``
    is congruent to 0 modulo ``M`` times the root lattice.  Such a
    resolution raises :class:`UsageError`.
    """
    group = even_subgroup(system, check_kind(kind))
    cells = quadrature_cells(system, kind, resolution)
    spectrum = enumerate_dominant(system, kind, weight_bound)
    _check_alias_free(system, group, spectrum, (resolution,) * len(system.factors))
    integrals = np.zeros(len(spectrum), dtype=complex)
    for start in range(0, len(cells), _CELL_BLOCK):
        stop = start + _CELL_BLOCK
        values = np.array([complex(f(p)) for p in cells.points(start, stop)])
        weighted = cells.weights[start:stop] * values
        xi_vals = scaled_orbit_sums(
            system, kind, spectrum, cells.numerators[start:stop], cells.denominator
        )
        integrals += np.conj(xi_vals) @ weighted
    stabilizers = tuple(stab_order(group, lam) for lam in spectrum)
    norm = abs(system.det_cartan)
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
