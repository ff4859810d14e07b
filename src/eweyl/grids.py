"""Discrete point and weight grids on the even fundamental domains.

Both even domains are described once, by :func:`domain_blocks`, as a
product of gluing blocks ``F_B u r_B(F_B interior)``; :func:`glue`
enumerates integer per-factor cells over that description, and every
enumeration here (point and weight grids, dominant weights) consumes
it.  Each gluing reflection acts on one factor only, so it is applied
to that factor's cells before the product is taken.  The point grid is
the only discretisation of the domain: :func:`point_grid_arrays` gives
it as integer arrays, which both :func:`build_point_grid` and the
quadrature cells of the continuous transform (:mod:`eweyl.transform`)
read.

Grid cells carry Kac-style labels: nonnegative integers ``[s0, s1, ...]``
per factor with ``s0 + sum(m_i s_i) = M`` (marks ``m`` for point grids,
dual marks for weight grids).  The grids are glued from the integer
label parameters ``s1, ...``: weights are those integers, and points
divide them by ``M_f`` per factor only once they are glued.  Reflected
cells keep the positive label of the unreflected parameters while the
coordinates carry the reflection.

Moduli are normalised in one place, :func:`eweyl.weyl.check_moduli`;
grids estimated past ``MAX_GRID_CELLS`` cells are refused before they
are enumerated.  Orbit sizes, stabiliser orders and duplicate checks
run on the residue keys of :mod:`eweyl.weyl`, for all cells of a grid
at once.
"""

from __future__ import annotations

import itertools
import math
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
    identity_matrix,
)
from .weyl import (
    FULL_EVEN,
    GroupElement,
    check_even_kind,
    check_moduli,
    even_subgroup,
    orbit,
    scaled_torus_keys,
    simple_reflection,
    torus_orbit_sizes,
    weight_keys,
    weight_stabs_mod_mq,
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

    ``reflection`` acts on the concatenated coordinates of ``factors``.
    A ``circle`` block is one A1 factor whose two halves are enumerated
    together as the signed circle ``-M < s <= M``.
    """

    factors: tuple[int, ...]
    reflection: GroupElement
    circle: bool


@lru_cache(maxsize=None)
def domain_blocks(system: SemisimpleSystem, kind: str) -> tuple[GluingBlock, ...]:
    """The even fundamental domain of ``kind`` as a product of blocks.

    Kind ``"e"`` glues the whole simplex product with one reflection:
    the first simple root of the first rank >= 2 factor, or the very
    first coordinate when all factors are A1.  Kind ``"ee"`` glues every
    factor separately with its own first simple reflection.
    """
    if check_even_kind(kind) == FULL_EVEN:
        everything = tuple(range(len(system.factors)))
        first = next((off for off, f in zip(system.offsets, system.factors) if f.rank >= 2), 0)
        return (GluingBlock(everything, simple_reflection(system, first), False),)
    return tuple(
        GluingBlock((i,), simple_reflection(assemble_system((f.kind,)), 0), f.rank == 1)
        for i, f in enumerate(system.factors)
    )


def _factor_reflections(system: SemisimpleSystem, block: GluingBlock, dual: bool):
    """The gluing reflection of ``block`` split into one matrix per factor.

    Every gluing reflection is a simple reflection, so its matrix is
    the identity outside the diagonal block of the one factor holding
    its root.  Returns one entry per factor of ``block``: that factor's
    diagonal block (weight action if ``dual``, else coweight action),
    or ``None`` where it is the identity.
    """
    refl = block.reflection
    matrix = refl.weight_matrix if dual else refl.coweight_matrix
    out, lo = [], 0
    for i in block.factors:
        hi = lo + system.factors[i].rank
        sub = tuple(row[lo:hi] for row in matrix[lo:hi])
        if any(v for row in matrix[lo:hi] for v in row[:lo] + row[hi:]):
            raise AssertionError("a gluing reflection mixes factors")
        out.append(None if sub == identity_matrix(hi - lo) else sub)
        lo = hi
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


def glue(system: SemisimpleSystem, kind: str, piece, dual: bool):
    """Enumerate the even domain of ``kind`` from per-factor cells.

    ``piece(i, part)`` returns factor ``i``'s cells for ``part`` in
    ``"closed"``, ``"interior"`` and ``"circle"`` (circle blocks only)
    as an int64 coordinate array ``(k, rank)`` and an int64 tag array
    ``(k, t)``.  Each block gives its closed product, then its reflected
    interior product; the blocks combine by product.  ``dual`` reflects
    with the weight action, else the coweight action.  Returns the
    coordinates ``(N, n)`` and tags of every cell, both concatenated in
    factor order; only coordinates are reflected.
    """
    blocks = []
    for block in domain_blocks(system, kind):
        if block.circle:
            blocks.append(piece(block.factors[0], "circle"))
            continue
        closed = _array_product([piece(i, "closed") for i in block.factors])
        interiors = []
        for i, sub in zip(block.factors, _factor_reflections(system, block, dual)):
            coords, tags = piece(i, "interior")
            if sub is not None:
                coords = coords @ np.array(sub, dtype=np.int64).T
            interiors.append((coords, tags))
        interior = _array_product(interiors)
        blocks.append(tuple(np.concatenate([a, b]) for a, b in zip(closed, interior)))
    return _array_product(blocks)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _branches(system: SemisimpleSystem, kind: str, per_factor, dual: bool):
    """Integer label parameters and labels of every grid cell, in canonical order.

    Returns int64 arrays: the parameters ``(N, n)``, reflected on the
    reflected branches, and the labels ``(N, n + factors)``.  ``dual``
    selects the weight-side conventions: dual marks and the weight
    action of the gluing reflections.
    """

    def piece(i, part):
        f, m = system.factors[i], per_factor[i]
        if part == "circle":
            labels = _circle_labels(m)
        else:
            marks = f.dual_marks if dual else f.marks
            labels = _kac_labels(f, marks, m, strict=part == "interior")
        labels = np.array(labels, dtype=np.int64).reshape(len(labels), f.rank + 1)
        return labels[:, 1:], labels

    return glue(system, kind, piece, dual)


def fraction_rows(numerators: np.ndarray, denominator: int) -> list[TorusPoint]:
    """The rows of an integer array over ``denominator`` as ``Fraction`` tuples.

    One ``Fraction`` is made per distinct numerator and shared.
    """
    values, index = np.unique(numerators, return_inverse=True)
    table = np.array([Q(int(v), denominator) for v in values], dtype=object)
    return list(zip(*table[index.reshape(numerators.shape)].T.tolist()))


#: the largest grid built; moduli past it are refused before enumerating
MAX_GRID_CELLS = 10**6


def _closed_labels_bound(factor: SimpleFactor, marks, modulus: int) -> int:
    """Upper bound, within ~15% past small moduli, on the closed labels."""
    if factor.rank == 1:
        return modulus + 1
    a, b = (modulus // k for k in marks)
    return (a + 2) * (b + 2) // 2


def _check_grid_size(system: SemisimpleSystem, kind: str, ms, dual: bool) -> None:
    """Refuse moduli whose grid would exceed :data:`MAX_GRID_CELLS` cells.

    The estimate per block is twice its closed label product (closed
    plus reflected interior), or ``2M`` for a circle block.
    """
    _, per_factor = check_moduli(system, kind, ms)
    size = 1
    for block in domain_blocks(system, kind):
        if block.circle:
            size *= 2 * per_factor[block.factors[0]]
            continue
        for i in block.factors:
            f = system.factors[i]
            size *= _closed_labels_bound(f, f.dual_marks if dual else f.marks, per_factor[i])
        size *= 2
    if size > MAX_GRID_CELLS:
        raise UsageError(
            f"moduli {list(ms)} give a grid of about {size} cells; "
            f"the limit is {MAX_GRID_CELLS}"
        )


def _require_distinct(keys: np.ndarray, what: str):
    # sorted rows, not np.unique(axis=0), which imports numpy.ma (15 ms, 1 MB)
    rows = keys[np.lexsort(keys.T)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise AssertionError(f"duplicate {what} in a grid")


def point_grid_arrays(system: SemisimpleSystem, kind: str, ms):
    """Uncached :func:`build_point_grid` as ``(numerators, denominator, labels, eps)``.

    Point ``k`` is the int64 row ``numerators[k]`` over ``denominator``.
    """
    ms, per_factor = check_moduli(system, kind, ms)
    _check_grid_size(system, kind, ms, dual=False)
    params, labels = _branches(system, kind, per_factor, dual=False)
    denominator = math.lcm(*per_factor)
    scale = [denominator // m for f, m in zip(system.factors, per_factor) for _ in range(f.rank)]
    numerators = params * np.array(scale, dtype=np.int64)
    keys, n = scaled_torus_keys(system, numerators, denominator)
    _require_distinct(keys, "point mod coroot lattice")
    eps = torus_orbit_sizes(even_subgroup(system, kind), keys, n)
    return numerators, denominator, labels, eps


# bounded caches: a ``tables`` run at one modulus fills 12 entries of each
@lru_cache(maxsize=32)
def _point_grid_cached(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]):
    numerators, denominator, labels, eps = point_grid_arrays(system, kind, ms)
    points = fraction_rows(numerators, denominator)
    return tuple(
        GridPoint(p, tuple(label), e) for p, label, e in zip(points, labels.tolist(), eps)
    )


def build_point_grid(system: SemisimpleSystem, kind: str, ms) -> tuple[GridPoint, ...]:
    """The discrete even fundamental domain with labels and orbit sizes.

    ``ms`` is a single modulus for kind ``"e"`` and one modulus per
    factor for kind ``"ee"``.  Points come out in the canonical order
    of :func:`glue`, each part in nested label order.
    """
    ms, _ = check_moduli(system, kind, ms)
    return _point_grid_cached(system, kind, ms)


@lru_cache(maxsize=32)
def _weight_grid_cached(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]):
    _check_grid_size(system, kind, ms, dual=True)
    _, per_factor = check_moduli(system, kind, ms)
    weights, labels = _branches(system, kind, per_factor, dual=True)
    _require_distinct(weight_keys(system, weights, per_factor), "weight mod M*Q")
    hs = weight_stabs_mod_mq(even_subgroup(system, kind), weights, per_factor)
    return tuple(
        SpectralPoint(tuple(w), tuple(label), h)
        for w, label, h in zip(weights.tolist(), labels.tolist(), hs)
    )


def build_weight_grid(system: SemisimpleSystem, kind: str, ms) -> tuple[SpectralPoint, ...]:
    """The spectral grid dual to :func:`build_point_grid`."""
    ms, _ = check_moduli(system, kind, ms)
    return _weight_grid_cached(system, kind, ms)


# ---------------------------------------------------------------------------
# domain membership (exact)
# ---------------------------------------------------------------------------

def _factor_in_closed(factor: SimpleFactor, coords, lcm: int) -> bool:
    if any(c < 0 for c in coords):
        return False
    return sum(m * c for m, c in zip(factor.marks, coords)) <= lcm


def _factor_in_interior(factor: SimpleFactor, coords, lcm: int) -> bool:
    if any(c <= 0 for c in coords):
        return False
    return sum(m * c for m, c in zip(factor.marks, coords)) < lcm


def in_even_domain(system: SemisimpleSystem, kind: str, x: TorusPoint) -> bool:
    """Exact membership in the even fundamental domain of the given kind.

    Per block of :func:`domain_blocks`: closed, or reflected into the
    interior.  The point is scaled once to integer numerators over the
    lcm ``L`` of its denominators, so a factor's simplex is
    ``c >= 0, sum(m c) <= L`` and the reflection is the block's integer
    coweight matrix.
    """
    x = tuple(Q(v) for v in x)
    lcm = math.lcm(*(v.denominator for v in x))
    parts = system.split([v.numerator * (lcm // v.denominator) for v in x])
    for block in domain_blocks(system, kind):
        factors = [system.factors[i] for i in block.factors]
        local = [parts[i] for i in block.factors]
        if all(_factor_in_closed(f, p, lcm) for f, p in zip(factors, local)):
            continue
        reflected = iter(block.reflection.apply_point(tuple(c for p in local for c in p)))
        if not all(
            _factor_in_interior(f, tuple(itertools.islice(reflected, f.rank)), lcm)
            for f in factors
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# dominant-weight enumeration for the continuous transform
# ---------------------------------------------------------------------------

def enumerate_dominant(system: SemisimpleSystem, kind: str, bound: int):
    """A finite truncation of the even-orbit representative weights.

    Every generator integer runs through ``0..bound`` (``-bound..bound``
    along a circle block), the reflected part through ``1..bound``; one
    representative per even-orbit class is kept, in generation order.
    """
    if bound < 0:
        raise UsageError("bound must be >= 0")

    def piece(i, part):
        lo = {"closed": 0, "interior": 1, "circle": -bound}[part]
        rank = system.factors[i].rank
        coords = list(itertools.product(range(lo, bound + 1), repeat=rank))
        coords = np.array(coords, dtype=np.int64).reshape(-1, rank)
        return coords, np.empty((len(coords), 0), dtype=np.int64)

    group = even_subgroup(system, kind)
    out = []
    seen = set()
    for w in map(tuple, glue(system, kind, piece, dual=True)[0].tolist()):
        key = orbit(group, w)[0]
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out
