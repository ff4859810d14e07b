"""Discrete and continuous expansions into even orbit sums.

The discrete transform expands samples on a point grid into the finite
orthogonal family of orbit sums labelled by the dual weight grid.  With
``eps`` the torus-orbit sizes and ``h`` the congruence stabiliser
orders, the forward coefficients are

    c[lam] = sum_x eps(x) f(x) conj(Xi_lam(x)) / N(lam),
    N(lam) = detC * |group| * prod_f M_f^rank_f * h[lam],

and the inverse is plain series evaluation on the grid.  The phase
matrix ``P`` (spectrum rows by grid columns) pairs the integer
numerators of the cached point record (:func:`eweyl.grids.build_point_grid`)
with the weights of the weight record; the records also hold ``eps``
and ``N(lam)``.  ``P`` is applied without a copy: the forward transform
conjugates the vector, ``conj(P @ conj(eps * f)) / N``, not the
matrix, and the inverse is ``P.T @ c``.  A sample or coefficient set
holds one read-only complex128 array of values and the cached record
of its grid, not an equal copy, checked once when the set is made;
the transforms and :func:`interpolate` read only the record's arrays.

The product even group is the product of the factors' even groups, so
every kind ``"ee"`` orbit sum is a product of per-factor ones and,
with the grid and spectrum in product order (left factor outermost,
as :func:`eweyl.grids.glue` emits them), the ``"ee"`` phase matrix is
the Kronecker product of the factors' matrices.  On ``"ee"`` grids of
at least ``SEPARABLE_MIN_N`` points both transforms contract one
factor at a time and never form the N x N matrix.  On kind ``"e"``
grids of at least ``FFT_MIN_N`` points both are one FFT over the
finite group ``T = (1/M) P^v / Q^v`` (Moody & Patera, SIGMA 2 (2006)
076): the grid's orbits tile ``T``, so ``f`` read through the point
record's orbit map ``owner`` is its invariant extension, and the
forward sum is ``|group|`` times its DFT read at each weight; the
inverse is the inverse DFT of ``h c`` read through the weight record's
map (:func:`_torus_fft`).  Below both sizes the transforms use the
dense cached matrix, which is also what :func:`gram_matrix` and
:func:`gram_residual` read as an independent check.  Every phase
matrix, dense or per factor, is refused past ``MAX_PHASE_MATRIX_N``
grid points so that it stays within 1 GiB, and before its grid is
built when the fewest points the grid can have
(:func:`check_dense_size`) already pass it.  The dense path holds one
N x N array: the matrix is filled in blocks of grid columns, and the
Gram matrix ``conj(P) diag(eps) P^T`` is formed an eighth of its rows
at a time, so :func:`gram_residual` never holds it whole and
:func:`gram_matrix` holds only its own result.  The FFT holds one
complex box of ``|T|`` entries beside the records' int32 maps.

The continuous transform integrates against the orbit sums over the
even fundamental domain on the same point grid, at modulus
``resolution`` on every gluing block: :func:`quadrature_cells` weights
each point by ``eps(x) / (|group| * prod_f M_f^rank_f)``, and the
weighted sum of ``f * conj(Xi_lam)`` is divided by ``|det C| * d_lam``.
That is the forward discrete transform on that grid, and it runs as the
same FFT over ``T`` for both kinds, read at the spectrum's weights.  By
discrete orthogonality this cubature is exact for every product of two
orbit sums of the spectrum unless two distinct points of their orbits
share their index in ``P / MQ`` (:func:`eweyl.weyl.orbit_indices`),
which :func:`continuous_coefficients` refuses; otherwise ``h`` in
``N(lam)`` is ``d_lam``.  The integrand ``f`` receives ``Fraction``
tuples, built ``_SAMPLE_CELLS`` (2**12) cells at a time from a table of
the few distinct numerators, into one array of values.  The spectrum
is the finite truncation of :func:`eweyl.grids.enumerate_dominant`.
The dense transforms take their orbit sums from the exact integer
kernel of :mod:`eweyl.efunc`, given the point record's numerators over
its one denominator, so every phase is exact; the FFT reads the exact
integer orbit maps of :func:`eweyl.weyl.orbit_owner`.

``TOL_ORTHOGONALITY`` (1e-9) bounds the Gram residual and the round-trip
error that ``eweyl verify`` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lie_data import (
    SemisimpleSystem,
    TorusPoint,
    UsageError,
    Weight,
    assemble_system,
)
from .efunc import _orbit_sum_kernel, xi
from .weyl import (
    FULL_EVEN,
    PRODUCT_EVEN,
    _integer_weight,
    check_kind,
    check_moduli,
    even_subgroup,
    orbit_indices,
    torus_shape,
)
from .grids import (
    PointGrid,
    WeightGrid,
    _GridRecord,
    _point_grid_cached,
    _weight_grid_cached,
    build_point_grid,
    build_weight_grid,
    domain_blocks,
    enumerate_dominant,
    fraction_rows,
    modulus_power,
    point_grid_arrays,
)

TOL_ORTHOGONALITY = 1e-9


def _check_set(owner, field: str, cached, noun: str) -> None:
    """Refuse a set whose ``field`` is not the cached record; store ``ms`` and ``values``.

    ``cached`` is the grid cache of that side, read with the moduli
    normalised here; even a sequence equal to the record is refused.
    ``ms`` is stored as a tuple; a read-only complex128 ``values`` array
    is kept as it is, anything else copied.
    """
    ms, _ = check_moduli(owner.system, owner.kind, owner.ms)
    record = cached(owner.system, owner.kind, ms)
    if getattr(owner, field) is not record:
        raise UsageError(f"{noun} {field} is not the canonical {field} for its metadata")
    values = owner.values
    if not isinstance(values, np.ndarray) or values.dtype != complex or values.flags.writeable:
        values = np.array(values, dtype=complex)
        values.setflags(write=False)
    if values.shape != (len(record),):
        got = len(values) if values.ndim == 1 else f"shape {values.shape}"
        raise UsageError(f"expected {len(record)} {noun} values for this {field}, got {got}")
    object.__setattr__(owner, "ms", ms)
    object.__setattr__(owner, "values", values)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Function values, a read-only complex128 array, on the canonical point grid."""

    system: SemisimpleSystem
    kind: str
    ms: tuple[int, ...]
    grid: PointGrid
    values: np.ndarray

    def __post_init__(self):
        _check_set(self, "grid", _point_grid_cached, "sample")


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Expansion coefficients, a read-only complex128 array, on the canonical spectrum."""

    system: SemisimpleSystem
    kind: str
    ms: tuple[int, ...]
    spectrum: WeightGrid
    values: np.ndarray

    def __post_init__(self):
        _check_set(self, "spectrum", _weight_grid_cached, "coefficient")


def make_samples(system, kind, ms, values) -> SampleSet:
    """Wrap raw values (or a callable on torus points) as a SampleSet."""
    grid = build_point_grid(system, kind, ms)
    if callable(values):
        values = list(map(values, fraction_rows(grid.numerators, grid.denominator)))
    return SampleSet(system, kind, ms, grid, values)


# ---------------------------------------------------------------------------
# dense transform core
# ---------------------------------------------------------------------------

def normalizers(system, kind, ms) -> np.ndarray:
    """The predicted diagonal of the discrete Gram matrix (read-only)."""
    return build_weight_grid(system, kind, ms).norms


#: largest grid with a dense phase matrix: N^2 complex entries stay <= 1 GiB
MAX_PHASE_MATRIX_N = 8192

#: orbit-sum entries (spectrum by points) per block of a phase-matrix build,
#: and image entries per block of the alias check
_BLOCK_ENTRIES = 2**16


def check_dense_size(system: SemisimpleSystem, kind: str, ms) -> None:
    """Refuse a dense phase matrix from the fewest points its grid can have.

    An orbit has at most ``|group|`` points, and the grid's orbits cover
    the ``|T| = |det C| * prod_f M_f^rank_f`` points of the torus at
    ``ms``, so ``N >= |T| / |group|``.  Past ``MAX_PHASE_MATRIX_N`` no
    grid is built; below it :func:`phase_matrix` still checks the exact N.
    """
    torus = abs(system.det_cartan) * modulus_power(system, kind, ms)
    least = -(-torus // even_subgroup(system, kind).order)
    if least > MAX_PHASE_MATRIX_N:
        raise UsageError(
            f"a grid of at least {least} points is too large for the dense phase matrix; "
            f"the limit is {MAX_PHASE_MATRIX_N}"
        )


@lru_cache(maxsize=8)
def phase_matrix(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]) -> np.ndarray:
    """Matrix of orbit-sum values, spectrum rows by grid columns.

    The matrix is allocated once and filled one block of grid columns at
    a time, at most ``_BLOCK_ENTRIES`` entries per block; every entry is
    the kernel's exact sum, whatever the block.
    """
    check_dense_size(system, kind, ms)
    grid = build_point_grid(system, kind, ms)
    if len(grid) > MAX_PHASE_MATRIX_N:
        raise UsageError(
            f"a grid of {len(grid)} points is too large for the dense phase matrix; "
            f"the limit is {MAX_PHASE_MATRIX_N}"
        )
    weights = build_weight_grid(system, kind, ms).weights
    orbit_sums = _orbit_sum_kernel(system, kind, weights, grid.denominator)
    out = np.empty((len(weights), len(grid)), dtype=complex)
    block = max(1, _BLOCK_ENTRIES // len(weights))
    for start in range(0, len(grid), block):
        out[:, start:start + block] = orbit_sums(grid.numerators[start:start + block])
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


#: smallest kind ``"e"`` grid transformed by one FFT over ``T``; below it the
#: FFT pair is not at most 0.8x the warm pair on the cached dense matrix on
#: every grid.  One BLAS thread, 2 vCPUs, median of 5: the FFT pair read
#: 0.88-0.90x the dense one on a1xg2 e 14 (N = 490) and at most 0.72x on
#: every grid of the five groups from N = 514 (a1xa1 e 16) to 1 252
FFT_MIN_N = 514


def _torus_fft(system, kind, ms, owner, values, targets, inverse=False) -> np.ndarray:
    """One DFT over ``T``, or its dual if ``inverse``, of orbit values, read at ``targets``.

    ``values`` holds one entry per row of a record of ``(system, kind, ms)``
    and ``owner`` is its orbit map (:func:`eweyl.weyl.orbit_owner`).
    Forward, the rows are points, ``targets`` weights, and the result is
    ``F^(lam) = sum_(y in T) F(y) exp(-2 pi i <lam, y>)`` for ``F = values[owner]``;
    inverse, the rows are weights, ``targets`` points, and it is
    ``sum_mu C(mu) exp(2 pi i <mu, x>)`` for ``C = values[owner]``.  The box
    :func:`eweyl.weyl.torus_shape`, ``16 |T|`` bytes, is the one array of
    its size: one gather fills it and the FFT runs in place.
    """
    _, per_factor = check_moduli(system, kind, ms)
    box = np.empty(torus_shape(system, per_factor), dtype=complex)
    flat = box.reshape(-1)
    np.take(values, owner, out=flat, mode="clip")  # "raise" would buffer a copy of the box
    if inverse:
        np.fft.ifftn(box, out=box, norm="forward")  # unscaled
    else:
        np.fft.fftn(box, out=box)
    return flat[next(orbit_indices(even_subgroup(system, kind), targets, per_factor, not inverse))]


def forward_discrete(samples: SampleSet) -> CoefficientSet:
    """Expand grid samples into orbit-sum coefficients."""
    system, kind, ms = samples.system, samples.kind, samples.ms
    spectrum = build_weight_grid(system, kind, ms)
    if kind == FULL_EVEN and len(samples.values) >= FFT_MIN_N:
        # sum_x eps f conj(Xi_lam) = sum_(y in T) F conj(Xi_lam) = |group| F^(lam)
        coeffs = _torus_fft(system, kind, ms, samples.grid.owner, samples.values, spectrum.weights)
        coeffs *= even_subgroup(system, kind).order
    else:
        coeffs = np.conj(_apply_phase(system, kind, ms, np.conj(samples.grid.eps * samples.values)))
    coeffs /= spectrum.norms
    coeffs.setflags(write=False)
    return CoefficientSet(system, kind, ms, spectrum, coeffs)


def inverse_discrete(coeffs: CoefficientSet) -> SampleSet:
    """Evaluate the finite orbit-sum series back on the grid."""
    system, kind, ms = coeffs.system, coeffs.kind, coeffs.ms
    grid = build_point_grid(system, kind, ms)
    if kind == FULL_EVEN and len(grid) >= FFT_MIN_N:
        # each image of lam is one of its |orbit| = |group| / h_lam points mod MQ
        values = _torus_fft(system, kind, ms, coeffs.spectrum.owner,
                            coeffs.values * coeffs.spectrum.h, grid.numerators, inverse=True)
    else:
        values = _apply_phase(system, kind, ms, coeffs.values, transpose=True)
    values.setflags(write=False)
    return SampleSet(system, kind, ms, grid, values)


def interpolate(coeffs: CoefficientSet, x: TorusPoint) -> complex:
    """Evaluate the finite series at an arbitrary torus point."""
    x = tuple(x)
    total = 0j
    for lam, c in zip(coeffs.spectrum.weights.tolist(), coeffs.values.tolist()):
        total += c * xi(coeffs.system, coeffs.kind, lam, x)
    return total


#: fewest Gram rows per block: smaller blocks run BLAS kernels that round
#: differently, and every block repacks ``P.T``
_GRAM_MIN_ROWS = 64


def _gram_blocks(system, kind, ms):
    """Yield ``(start, g)``: the Gram rows from ``start`` on, an eighth of them at a time.

    A block has at least ``_GRAM_MIN_ROWS`` rows.  Only the cached phase
    matrix and one block's temporaries are live, if the caller drops
    each block before it asks for the next.
    """
    p = phase_matrix(system, kind, ms)
    eps = build_point_grid(system, kind, ms).eps
    step = max(_GRAM_MIN_ROWS, -(-len(p) // 8))
    for start in range(0, len(p), step):
        t = np.conj(p[start:start + step])
        t *= eps
        g = t @ p.T
        del t
        yield start, np.conj(g, out=g)
        del g


def gram_matrix(system, kind, ms) -> np.ndarray:
    """``G[l, l'] = sum_x eps(x) Xi_l(x) conj(Xi_l'(x))`` over the grid."""
    ms, _ = check_moduli(system, kind, ms)
    check_dense_size(system, kind, ms)
    n = len(normalizers(system, kind, ms))
    out = np.empty((n, n), dtype=complex)
    for start, g in _gram_blocks(system, kind, ms):
        out[start:start + len(g)] = g
        del g
    return out


def gram_residual(system, kind, ms) -> float:
    """Max deviation of the discrete Gram matrix from its predicted diagonal."""
    ms, _ = check_moduli(system, kind, ms)
    check_dense_size(system, kind, ms)
    norms = normalizers(system, kind, ms)
    worst = 0.0
    for start, g in _gram_blocks(system, kind, ms):
        k = np.arange(len(g))
        g[k, start + k] -= norms[start:start + len(g)]
        worst = np.maximum(worst, np.abs(g).max())  # a NaN stays NaN
        del g
    return float(worst)


# ---------------------------------------------------------------------------
# continuous transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureCells(_GridRecord):
    """Cells of :func:`quadrature_cells` as integer numerators over one denominator.

    Cell ``k`` is the point ``numerators[k] / denominator`` of the point
    record with weight ``weights[k]``; ``owner`` is the record's orbit map
    of ``T``.  As a sequence it reads as ``(point, weight)`` pairs
    with ``Fraction`` coordinates and a float weight, built when read.
    """

    numerators: np.ndarray
    denominator: int
    weights: np.ndarray
    owner: np.ndarray

    def __len__(self) -> int:
        return len(self.numerators)

    def _items(self, rows: slice) -> list[tuple[TorusPoint, float]]:
        return list(zip(fraction_rows(self.numerators[rows], self.denominator),
                        self.weights[rows].tolist()))


def quadrature_cells(system: SemisimpleSystem, kind: str, resolution: int) -> QuadratureCells:
    """The point grid, modulus ``resolution`` on every gluing block, as a cubature.

    Point ``x`` has weight ``eps(x) / (|group| * prod_f M_f^rank_f)``:
    its share of the domain in units of the volume of ``R^n / P^v``
    (the coweight lattice), so the weights sum to ``|det C| / |group|``.
    """
    ms = (resolution,) * len(domain_blocks(system, kind))
    grid = point_grid_arrays(system, kind, ms)
    weights = grid.eps / (even_subgroup(system, kind).order * modulus_power(system, kind, ms))
    weights.setflags(write=False)
    return QuadratureCells(grid.numerators, grid.denominator, weights, grid.owner)


def _check_alias_free(system, group, spectrum, per_factor) -> tuple[int, ...]:
    """Refuse moduli at which the grid cannot integrate ``spectrum`` exactly.

    The grid sums ``Xi_mu * conj(Xi_lam) = sum_w Xi_(mu - w lam)``
    exactly unless some nonzero ``mu - w lam`` is congruent to 0 modulo
    ``M_f`` times the root lattice of each factor ``f``.  That lattice
    is invariant under the group, so this happens iff two distinct
    points of the orbits ``{w lam}`` share their index in ``P / MQ``
    (:func:`eweyl.weyl.orbit_indices`): one sort of the
    ``|group| * len(spectrum)`` image indices finds them, and of a run of
    equal indices two neighbours differ unless all its images are equal.
    Exact images are formed only for tied neighbours, a block at a time.
    Once none differ, an image shares its weight's index only if it is
    the weight: the count of those, ``d_lam``, is returned per weight.
    """
    lams = np.array(spectrum, dtype=np.int64).reshape(len(spectrum), system.n)
    images = orbit_indices(group, lams, per_factor, dual=True)
    own = next(images)
    index = np.concatenate(list(images))  # element j // L at weight j % L
    order = np.argsort(index, kind="stable")
    ties = np.flatnonzero(np.diff(index[order]) == 0)
    matrices = np.array([w.weight_matrix for w in group], dtype=np.int64)
    block = _BLOCK_ENTRIES // system.n**2
    for k in np.split(ties, range(block, len(ties), block)):
        element, weight = np.divmod(order[np.stack([k, k + 1])], len(lams))
        a, b = np.einsum("...ij,...j->...i", matrices[element], lams[weight])
        clash = np.flatnonzero((a != b).any(axis=1))
        if len(clash):
            nu = tuple((b - a)[clash[0]].tolist())
            raise UsageError(f"resolution {per_factor[0]} aliases the weight {nu} to 0; raise it")
    return tuple((index.reshape(group.order, len(lams)) == own).sum(axis=0).tolist())


#: cells per block in which the continuous transform samples its integrand:
#: one block's ``Fraction`` tuples are live at a time
_SAMPLE_CELLS = 2**12


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
        ``MAX_GRID_CELLS``, after the alias check below; the default 32
        keeps every group within it.

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
    spectrum = enumerate_dominant(system, kind, weight_bound)
    ms, per_factor = check_moduli(system, kind, (resolution,) * len(domain_blocks(system, kind)))
    resolution = per_factor[0]
    lams = np.array(spectrum, dtype=np.int64).reshape(len(spectrum), system.n)
    stabilizers = _check_alias_free(system, group, lams, per_factor)
    cells = quadrature_cells(system, kind, resolution)
    values = np.empty(len(cells), dtype=complex)
    for start in range(0, len(cells), _SAMPLE_CELLS):
        points = fraction_rows(cells.numerators[start:start + _SAMPLE_CELLS], cells.denominator)
        values[start:start + len(points)] = [complex(f(p)) for p in points]
    # the weighted sum of f conj(Xi_lam) is F^(lam) / prod_f M_f^rank_f (see _torus_fft)
    integrals = _torus_fft(system, kind, ms, cells.owner, values, lams)
    norm = abs(system.det_cartan) * resolution**system.n
    values = tuple(v / (norm * d) for v, d in zip(integrals.tolist(), stabilizers))
    return ContinuousCoefficients(system, kind, weight_bound, tuple(spectrum), values, stabilizers)


# ---------------------------------------------------------------------------
# product-to-sum decomposition
# ---------------------------------------------------------------------------

def product_to_sum(system, kind, lam: Weight, lam2: Weight):
    """Multiset of weights with ``Xi_lam Xi_lam2 = sum Xi_mu`` over it.

    One entry per group element, in canonical element order:
    ``lam + w(lam2)``.
    """
    group = even_subgroup(system, check_kind(kind))
    lam, lam2 = _integer_weight(system, lam), _integer_weight(system, lam2)
    out = []
    for w in group:
        img = w.apply_weight(lam2)
        out.append(tuple(a + b for a, b in zip(lam, img)))
    return out
