"""Discrete point and weight grids on the even fundamental domains.

Both even domains are described once, by :func:`domain_blocks`, as a
product of gluing blocks ``F_B u r_B(F_B interior)``; :func:`glue`
sizes and enumerates integer per-factor cells over that description,
and every enumeration here (point and weight grids, dominant weights)
consumes it.  A block names the one factor its gluing reflection
moves, and only that factor's cells are reflected before the product
is taken; :func:`domain_mask` walks the blocks for membership.
The point grid is the only discretisation of the domain.  Each grid is
one cached record per side (:func:`build_point_grid`,
:func:`build_weight_grid`) of the read-only integer arrays it is built
from, and nothing else: a point is its integer numerators over the
grid's one denominator, and the orbit-sum kernel of :mod:`eweyl.efunc`
derives the residue keys of its pairings from them block by block, so
no key is stored.  As a sequence it reads as ``GridPoint``/
``SpectralPoint`` items, built from the arrays each time one is read
and never kept.  The quadrature cells of the continuous transform read
:func:`point_grid_arrays`, the same record uncached.

Grid cells carry Kac-style labels: nonnegative integers ``[s0, s1, ...]``
per factor with ``s0 + sum(m_i s_i) = M`` (marks ``m`` for point grids,
dual marks for weight grids).  The grids are glued from the integer
label parameters ``s1, ...``: weights are those integers, and points
divide them by ``M_f`` per factor only once they are glued.  Reflected
cells keep the positive label of the unreflected parameters while the
coordinates carry the reflection.

Moduli are normalised in one place, :func:`eweyl.weyl.check_moduli`;
:func:`glue` refuses grids estimated past ``MAX_GRID_CELLS`` cells
before any cell is built.  Each record keeps ``owner``, the map of the
finite group ``T`` (or its dual) to the cell whose orbit holds each
index (:func:`eweyl.weyl.orbit_owner`), which proves that the orbits
tile it; orbit sizes and stabiliser orders count its entries.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lie_data import (
    Q,
    SemisimpleSystem,
    SimpleFactor,
    TorusPoint,
    UsageError,
    Weight,
    assemble_system,
)
from .weyl import (
    FULL_EVEN,
    _magnitude,
    _scaled,
    check_even_kind,
    check_moduli,
    even_subgroup,
    int_dtype,
    integer_rows,
    orbit_owner,
    simple_reflection,
)


@dataclass(frozen=True)
class GridPoint:
    point: TorusPoint
    label: tuple[int, ...]
    epsilon: int


@dataclass(frozen=True)
class SpectralPoint:
    weight: Weight
    label: tuple[int, ...]
    h: int


# ---------------------------------------------------------------------------
# label enumeration per factor
# ---------------------------------------------------------------------------

def _kac_labels(factor: SimpleFactor, marks, modulus: int, strict: bool):
    """Labels ``(s0, s1, ..)`` with ``s0 + sum(m_i s_i) = modulus``.

    ``strict`` restricts to the interior: every entry >= 1.
    """
    lo = 1 if strict else 0
    out = []
    if factor.rank == 1:
        for s in range(lo, modulus - lo + 1):
            out.append((modulus - s, s))
    else:
        m1, m2 = marks
        for s1 in range(lo, modulus // m1 + 1):
            for s2 in range(lo, (modulus - m1 * s1) // m2 + 1):
                s0 = modulus - m1 * s1 - m2 * s2
                if s0 >= lo:
                    out.append((s0, s1, s2))
    return out


def _closed_labels_bound(factor: SimpleFactor, marks, modulus: int) -> int:
    """Upper bound, within ~15% past small moduli, on the closed labels."""
    if factor.rank == 1:
        return modulus + 1
    a, b = (modulus // k for k in marks)
    return (a + 2) * (b + 2) // 2


def label_names(system: SemisimpleSystem, prefix: str) -> list[str]:
    """Names of the label entries: ``s0, s1, s0', s2, ...`` for prefix ``s``."""
    names, index = [], 1
    for primes, f in enumerate(system.factors):
        names.append(f"{prefix}0" + "'" * primes)
        names += [f"{prefix}{index + i}" for i in range(f.rank)]
        index += f.rank
    return names


def _circle_labels(modulus: int):
    """Signed labels of the A1 even circle ``-M < s <= M``."""
    return [(modulus - s, s) for s in range(-modulus + 1, modulus + 1)]


# ---------------------------------------------------------------------------
# the even fundamental domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GluingBlock:
    """``F_B u r(F_B interior)`` over the product ``F_B`` of some factors.

    ``r`` is the first simple reflection of factor ``reflected``, one of
    ``factors``; it fixes the other factors.  A ``circle`` block is one
    A1 factor whose two halves are enumerated together as the signed
    circle ``-M < s <= M``.
    """

    factors: tuple[int, ...]
    reflected: int
    circle: bool


@lru_cache(maxsize=None)
def domain_blocks(system: SemisimpleSystem, kind: str) -> tuple[GluingBlock, ...]:
    """The even fundamental domain of ``kind`` as a product of blocks.

    Kind ``"e"`` glues the whole simplex product with one reflection,
    that of the first rank >= 2 factor, or of factor 0 when all factors
    are A1.  Kind ``"ee"`` glues every factor separately with its own
    reflection.
    """
    if check_even_kind(kind) == FULL_EVEN:
        first = next((i for i, f in enumerate(system.factors) if f.rank >= 2), 0)
        return (GluingBlock(tuple(range(len(system.factors))), first, False),)
    return tuple(GluingBlock((i,), i, f.rank == 1) for i, f in enumerate(system.factors))


@lru_cache(maxsize=None)
def _gluing_reflection(kind: str, dual: bool) -> np.ndarray:
    """Factor ``kind``'s first simple reflection: int64 weight action if ``dual``, else coweight."""
    r = simple_reflection(assemble_system((kind,)), 0)
    out = np.array(r.weight_matrix if dual else r.coweight_matrix, dtype=np.int64)
    out.setflags(write=False)
    return out


def _array_product(parts):
    """Product of ``(coords, tags)`` arrays in ``itertools.product`` order.

    Both arrays of a cell are concatenated, left factor first.
    """
    acc = parts[0]
    for part in parts[1:]:
        k, j = len(acc[0]), len(part[0])
        acc = tuple(
            np.hstack([np.repeat(a, j, axis=0), np.tile(b, (k, 1))])
            for a, b in zip(acc, part)
        )
    return acc


#: the largest grid built; moduli past it are refused before enumerating
MAX_GRID_CELLS = 10**6


def glue(system: SemisimpleSystem, kind: str, piece, count, refusal: str, dual: bool):
    """Enumerate the even domain of ``kind`` from per-factor cells.

    ``piece(i, part)`` returns factor ``i``'s cells for ``part`` in
    ``"closed"``, ``"interior"`` and ``"circle"`` (circle blocks only)
    as an int64 coordinate array ``(k, rank)`` and an int64 tag array
    ``(k, t)``.  Each block gives its closed product, then its reflected
    interior product; the blocks combine by product.  ``dual`` reflects
    with the weight action, else the coweight action.  Returns the
    coordinates ``(N, n)`` and tags of every cell, both concatenated in
    factor order; only coordinates are reflected.

    ``count(i, part)`` bounds the length of ``piece(i, part)``.  The
    counts combine as the cells do, and a total past
    :data:`MAX_GRID_CELLS` is refused before any piece is built, with
    ``refusal`` (its ``{}`` is the total) and the limit.
    """
    size = math.prod(
        count(b.factors[0], "circle") if b.circle
        else sum(math.prod(count(i, part) for i in b.factors) for part in ("closed", "interior"))
        for b in domain_blocks(system, kind)
    )
    if size > MAX_GRID_CELLS:
        raise UsageError(f"{refusal.format(size)}; the limit is {MAX_GRID_CELLS}")
    blocks = []
    for block in domain_blocks(system, kind):
        if block.circle:
            blocks.append(piece(block.factors[0], "circle"))
            continue
        closed = _array_product([piece(i, "closed") for i in block.factors])
        interiors = [piece(i, "interior") for i in block.factors]
        k, f = block.factors.index(block.reflected), system.factors[block.reflected]
        interiors[k] = (interiors[k][0] @ _gluing_reflection(f.kind, dual).T, interiors[k][1])
        interior = _array_product(interiors)
        blocks.append(tuple(np.concatenate([a, b]) for a, b in zip(closed, interior)))
    return _array_product(blocks)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _branches(system: SemisimpleSystem, kind: str, ms, per_factor, dual: bool):
    """Integer label parameters and labels of every grid cell, in canonical order.

    Returns int64 arrays: the parameters ``(N, n)``, reflected on the
    reflected branches, and the labels ``(N, n + factors)``.  ``dual``
    selects the weight-side conventions: dual marks and the weight
    action of the gluing reflections.
    """
    marks = [f.dual_marks if dual else f.marks for f in system.factors]

    def piece(i, part):
        f, m = system.factors[i], per_factor[i]
        if part == "circle":
            labels = _circle_labels(m)
        else:
            labels = _kac_labels(f, marks[i], m, strict=part == "interior")
        labels = np.array(labels, dtype=np.int64).reshape(len(labels), f.rank + 1)
        return labels[:, 1:], labels

    def count(i, part):
        m = per_factor[i]
        return 2 * m if part == "circle" else _closed_labels_bound(system.factors[i], marks[i], m)

    refusal = f"moduli {list(ms)} give a grid of about {{}} cells"
    return glue(system, kind, piece, count, refusal, dual)


def fraction_rows(numerators: np.ndarray, denominator: int) -> list[TorusPoint]:
    """The rows of an integer array over ``denominator`` as ``Fraction`` tuples.

    Equal numerators share one ``Fraction``.  When the numerators span
    no more values than there are entries, the table holds every value
    from the least to the greatest and is indexed by offset; otherwise
    it holds the distinct values only.
    """
    lo, hi = (int(numerators.min()), int(numerators.max())) if numerators.size else (0, -1)
    if hi - lo <= numerators.size:
        table = np.array([Q(v, denominator) for v in range(lo, hi + 1)], dtype=object)
        index = (numerators - lo).astype(np.int64)
    else:
        values, index = np.unique(numerators, return_inverse=True)
        table = np.array([Q(int(v), denominator) for v in values], dtype=object)
    return list(zip(*table[index.reshape(numerators.shape)].T.tolist()))


class _GridRecord:
    """Read as the items ``_items(rows)`` builds from a slice of the arrays; none is kept."""

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self._items(k))
        k = range(len(self))[k]
        return self._items(slice(k, k + 1))[0]

    def __iter__(self):
        return iter(self._items(slice(None)))

    def __reversed__(self):
        return iter(self._items(slice(None, None, -1)))


@dataclass(frozen=True, eq=False)
class PointGrid(_GridRecord):
    """A point grid as read-only arrays, one row per point in canonical order.

    Point ``k`` is ``numerators[k] / denominator`` with label ``labels[k]``
    and orbit size ``eps[k]``, its count in ``owner``, the orbit map of ``T``.
    """

    numerators: np.ndarray
    denominator: int
    labels: np.ndarray
    eps: np.ndarray
    owner: np.ndarray

    def _items(self, rows: slice) -> list[GridPoint]:
        coords = fraction_rows(self.numerators[rows], self.denominator)
        return list(map(GridPoint, coords, map(tuple, self.labels[rows].tolist()),
                        self.eps[rows].tolist()))


@dataclass(frozen=True, eq=False)
class WeightGrid(_GridRecord):
    """A weight grid as read-only arrays, one row per weight in canonical order.

    Weight ``weights[k]`` has label ``labels[k]``, stabiliser order
    ``h[k]`` and the float normaliser ``norms[k]``, the predicted Gram
    diagonal ``|det C| * |group| * prod_f M_f^rank_f * h[k]``.  ``h[k]`` is
    ``|group|`` over the count of ``k`` in ``owner``, the orbit map of ``P / MQ``.
    """

    weights: np.ndarray
    labels: np.ndarray
    h: np.ndarray
    norms: np.ndarray
    owner: np.ndarray

    def _items(self, rows: slice) -> list[SpectralPoint]:
        weights, labels = (map(tuple, a[rows].tolist()) for a in (self.weights, self.labels))
        return list(map(SpectralPoint, weights, labels, self.h[rows].tolist()))


def point_grid_arrays(system: SemisimpleSystem, kind: str, ms) -> PointGrid:
    """The uncached :class:`PointGrid` of ``(system, kind, ms)``."""
    ms, per_factor = check_moduli(system, kind, ms)
    params, labels = _branches(system, kind, ms, per_factor, dual=False)
    denominator = math.lcm(*per_factor)
    scale = [denominator // m for f, m in zip(system.factors, per_factor) for _ in range(f.rank)]
    owner = orbit_owner(even_subgroup(system, kind), params, per_factor)
    eps = np.bincount(owner)
    numerators = params * np.array(scale, dtype=np.int64)
    for a in (numerators, labels, eps):
        a.setflags(write=False)
    return PointGrid(numerators, denominator, labels, eps, owner)


# bounded caches: a ``tables`` run at one modulus fills 12 entries of each
_point_grid_cached = lru_cache(maxsize=32)(point_grid_arrays)


def build_point_grid(system: SemisimpleSystem, kind: str, ms) -> PointGrid:
    """The cached :class:`PointGrid`: the discrete even fundamental domain.

    ``ms`` is a single modulus for kind ``"e"`` and one modulus per
    factor for kind ``"ee"``.  Points come out in the canonical order
    of :func:`glue`, each part in nested label order.
    """
    ms, _ = check_moduli(system, kind, ms)
    return _point_grid_cached(system, kind, ms)


def modulus_power(system: SemisimpleSystem, kind: str, ms) -> int:
    """``prod_f M_f^rank_f``; reduces to ``M^n`` for the full even kind."""
    _, per_factor = check_moduli(system, kind, ms)
    return math.prod(m**f.rank for f, m in zip(system.factors, per_factor))


@lru_cache(maxsize=32)
def _weight_grid_cached(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]) -> WeightGrid:
    _, per_factor = check_moduli(system, kind, ms)
    weights, labels = _branches(system, kind, ms, per_factor, dual=True)
    group = even_subgroup(system, kind)
    owner = orbit_owner(group, weights, per_factor, dual=True)
    h = group.order // np.bincount(owner)
    power = modulus_power(system, kind, ms)
    norms = abs(system.det_cartan) * group.order * power * h.astype(float)
    for a in (weights, labels, h, norms):
        a.setflags(write=False)
    return WeightGrid(weights, labels, h, norms, owner)


def build_weight_grid(system: SemisimpleSystem, kind: str, ms) -> WeightGrid:
    """The cached :class:`WeightGrid`, the spectral grid dual to :func:`build_point_grid`."""
    ms, _ = check_moduli(system, kind, ms)
    return _weight_grid_cached(system, kind, ms)


# ---------------------------------------------------------------------------
# domain membership (exact)
# ---------------------------------------------------------------------------

def domain_mask(system: SemisimpleSystem, kind: str, numerators, lcm: int) -> np.ndarray:
    """Exact membership of the points ``numerators / lcm`` in the even domain, one bool per row.

    Per block of :func:`domain_blocks`: closed, or reflected into the
    interior.  On the integer numerators ``c`` (rows as
    :func:`eweyl.weyl.integer_rows` takes them) a factor's simplex is
    ``c >= 0, sum(m c) <= lcm``, and the reflection moves the reflected
    factor's coordinates only.  The arithmetic is int64 when a bound on
    ``sum(m r)`` proves it fits, else on Python ints.
    """
    x = integer_rows(system, numerators)
    # |sum(m r)| <= sum(m) * sum|R| * max|c| for the reflection R of any factor
    scale = max(sum(f.marks) * int(np.abs(_gluing_reflection(f.kind, False)).sum())
                for f in system.factors)
    x = x.astype(int_dtype(max(scale * _magnitude(x), lcm)), copy=False)
    inside = np.ones(len(x), dtype=bool)
    for block in domain_blocks(system, kind):
        closed = interior = True
        for i in block.factors:
            f = system.factors[i]
            c, marks = x[:, slice(*system.factor_slices()[i])], list(f.marks)
            r = c @ _gluing_reflection(f.kind, False).T if i == block.reflected else c
            closed &= (c >= 0).all(axis=1) & (c @ marks <= lcm)
            interior &= (r > 0).all(axis=1) & (r @ marks < lcm)
        inside &= closed | interior
    return inside


def in_even_domain(system: SemisimpleSystem, kind: str, x: TorusPoint) -> bool:
    """Exact membership of one point of ``system.n`` ints or fractions in the even domain."""
    numerators, lcm = _scaled(x)
    return bool(domain_mask(system, kind, [numerators], lcm)[0])


# ---------------------------------------------------------------------------
# dominant-weight enumeration for the continuous transform
# ---------------------------------------------------------------------------

def enumerate_dominant(system: SemisimpleSystem, kind: str, bound: int):
    """A finite truncation of the even-orbit representative weights.

    Every generator integer runs through ``0..bound`` (``-bound..bound``
    along a circle block), the reflected part through ``1..bound``, in
    the order of :func:`glue`, which refuses more than
    :data:`MAX_GRID_CELLS` weights before enumerating.  The domain holds
    one representative per even orbit, so no two weights share an orbit.
    """
    try:
        bound = operator.index(bound)
    except TypeError:
        raise UsageError(f"bound must be an integer, got {bound!r}") from None
    if bound < 0:
        raise UsageError("bound must be >= 0")
    lows = {"closed": 0, "interior": 1, "circle": -bound}

    def piece(i, part):
        rank = system.factors[i].rank
        coords = list(itertools.product(range(lows[part], bound + 1), repeat=rank))
        coords = np.array(coords, dtype=np.int64).reshape(-1, rank)
        return coords, np.empty((len(coords), 0), dtype=np.int64)

    def count(i, part):
        return (bound + 1 - lows[part]) ** system.factors[i].rank

    refusal = f"bound {bound} gives {{}} weights"
    return list(map(tuple, glue(system, kind, piece, count, refusal, dual=True)[0].tolist()))
