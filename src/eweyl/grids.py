"""Discrete point and weight grids on the even fundamental domains.

Both even domains are described once, by :func:`domain_blocks`, as a
product of gluing blocks ``F_B u r_B(F_B interior)``; :func:`glue`
enumerates any per-factor cells over that description, and every
enumeration here (point and weight grids, dominant weights, domain
membership) and the quadrature cells of :mod:`eweyl.transform` consume
it.  Grid cells carry Kac-style labels: nonnegative integers
``[s0, s1, ...]`` per factor with ``s0 + sum(m_i s_i) = M`` (marks ``m``
for point grids, dual marks for weight grids).  Reflected cells keep
the positive label of the unreflected parameters while the stored
coordinates carry the reflection.

Moduli are normalised in one place, :func:`eweyl.weyl.check_moduli`.
Orbit sizes, stabiliser orders and duplicate checks run on the residue
keys of :mod:`eweyl.weyl`, for all cells of a grid at once.

``oracle_point_grid`` ignores all of the closed-form bookkeeping and
intersects the finite torus group with the even fundamental domain by
brute force; it exists to cross-check the constructive grids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .lie_data import (
    Q,
    SemisimpleSystem,
    SimpleFactor,
    TorusPoint,
    UsageError,
    Weight,
    assemble_system,
    mat_vec,
)
from .weyl import (
    FULL_EVEN,
    GroupElement,
    canonical_torus_point,
    check_even_kind,
    check_moduli,
    even_subgroup,
    orbit,
    simple_reflection,
    torus_keys,
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


def _circle_labels(modulus: int):
    """Signed labels of the A1 even circle ``-M < s <= M``."""
    return [(modulus - s, s) for s in range(-modulus + 1, modulus + 1)]


def label_parameters(label):
    """Drop the derived ``s0`` entry of a per-factor label."""
    return label[1:]


def _local_reflection(factor: SimpleFactor) -> GroupElement:
    return simple_reflection(assemble_system((factor.kind,)), 0)


def reflection_coordinate(system: SemisimpleSystem) -> int:
    """Coordinate of the reflection gluing the full even domain."""
    for off, f in zip(system.offsets, system.factors):
        if f.rank >= 2:
            return off
    return 0


def domain_reflection(system: SemisimpleSystem) -> GroupElement:
    return simple_reflection(system, reflection_coordinate(system))


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
        return (GluingBlock(everything, domain_reflection(system), False),)
    return tuple(
        GluingBlock((i,), _local_reflection(f), f.rank == 1)
        for i, f in enumerate(system.factors)
    )


def _product(cell_lists):
    """Lazy product of ``(coords, tags)`` cells, concatenating both parts."""
    if len(cell_lists) == 1:  # nothing to concatenate; keeps a lone block lazy
        yield from cell_lists[0]
        return
    for combo in itertools.product(*cell_lists):
        yield (
            tuple(c for cell in combo for c in cell[0]),
            tuple(t for cell in combo for t in cell[1]),
        )


def _block_cells(block: GluingBlock, piece, dual: bool):
    if block.circle:
        yield from piece(block.factors[0], "circle")
        return
    refl = block.reflection
    apply = refl.apply_weight if dual else refl.apply_point
    yield from _product([piece(i, "closed") for i in block.factors])
    for coords, tags in _product([piece(i, "interior") for i in block.factors]):
        yield apply(coords), tags


def glue(system: SemisimpleSystem, kind: str, piece, dual: bool):
    """Enumerate the even domain of ``kind`` from per-factor cells.

    ``piece(i, part)`` lists the ``(coords, tags)`` cells of factor
    ``i`` for ``part`` in ``"closed"``, ``"interior"`` and ``"circle"``
    (the latter only for circle blocks).  Each block gives its closed
    product, then its reflected interior product; the blocks combine
    by product.  ``dual`` reflects with the weight action.  Yields
    ``(coords, tags)`` pairs, tags concatenated in factor order.
    """
    return _product([_block_cells(b, piece, dual) for b in domain_blocks(system, kind)])


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _branches(system: SemisimpleSystem, kind: str, ms, dual: bool):
    """(coords, label) of every grid cell, in canonical order.

    ``dual`` selects the weight-side conventions: dual marks, integer
    coordinates and the weight action of the gluing reflections.
    """
    _, per_factor = check_moduli(system, kind, ms)

    def piece(i, part):
        f, m = system.factors[i], per_factor[i]
        if part == "circle":
            labels = _circle_labels(m)
        else:
            marks = f.dual_marks if dual else f.marks
            labels = _kac_labels(f, marks, m, strict=part == "interior")
        if dual:
            return [(label_parameters(lab), lab) for lab in labels]
        return [(tuple(Q(s, m) for s in label_parameters(lab)), lab) for lab in labels]

    return glue(system, kind, piece, dual)


def _require_distinct(keys, what: str):
    rows = [tuple(k) for k in keys.tolist()]
    if len(set(rows)) != len(rows):
        raise AssertionError(f"duplicate {what} in a grid")


# bounded caches: a ``tables`` run at one modulus fills 12 entries of each
@lru_cache(maxsize=32)
def _point_grid_cached(system: SemisimpleSystem, kind: str, ms: tuple[int, ...]):
    cells = list(_branches(system, kind, ms, dual=False))
    points = [coords for coords, _ in cells]
    _require_distinct(torus_keys(system, points)[0], "point mod coroot lattice")
    eps = torus_orbit_sizes(even_subgroup(system, kind), points)
    return tuple(GridPoint(p, label, e) for (p, label), e in zip(cells, eps))


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
    _, per_factor = check_moduli(system, kind, ms)
    cells = [
        (tuple(int(c) for c in coords), label)
        for coords, label in _branches(system, kind, ms, dual=True)
    ]
    weights = [w for w, _ in cells]
    _require_distinct(weight_keys(system, weights, per_factor), "weight mod M*Q")
    hs = weight_stabs_mod_mq(even_subgroup(system, kind), weights, per_factor)
    return tuple(SpectralPoint(w, label, h) for (w, label), h in zip(cells, hs))


def build_weight_grid(system: SemisimpleSystem, kind: str, ms) -> tuple[SpectralPoint, ...]:
    """The spectral grid dual to :func:`build_point_grid`."""
    ms, _ = check_moduli(system, kind, ms)
    return _weight_grid_cached(system, kind, ms)


# ---------------------------------------------------------------------------
# domain membership (exact)
# ---------------------------------------------------------------------------

def _factor_in_closed(factor: SimpleFactor, coords) -> bool:
    if any(c < 0 for c in coords):
        return False
    return sum(m * c for m, c in zip(factor.marks, coords)) <= 1


def _factor_in_interior(factor: SimpleFactor, coords) -> bool:
    if any(c <= 0 for c in coords):
        return False
    return sum(m * c for m, c in zip(factor.marks, coords)) < 1


def in_even_domain(system: SemisimpleSystem, kind: str, x: TorusPoint) -> bool:
    """Exact membership in the even fundamental domain of the given kind.

    Per block of :func:`domain_blocks`: closed, or reflected into the
    interior.
    """
    parts = system.split(tuple(Q(v) for v in x))
    for block in domain_blocks(system, kind):
        factors = [system.factors[i] for i in block.factors]
        local = [parts[i] for i in block.factors]
        if all(_factor_in_closed(f, p) for f, p in zip(factors, local)):
            continue
        reflected = iter(block.reflection.apply_point(tuple(c for p in local for c in p)))
        if not all(
            _factor_in_interior(f, tuple(itertools.islice(reflected, f.rank)))
            for f in factors
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def _torus_classes(system: SemisimpleSystem, per_factor_ms):
    """Canonical representatives of the finite group (1/M)P^v / Q^v."""
    ranges = []
    for f, m in zip(system.factors, per_factor_ms):
        span = m * abs(f.det_cartan)
        for _ in range(f.rank):
            ranges.append(range(span))
    seen = set()
    denoms = [m for f, m in zip(system.factors, per_factor_ms) for _ in range(f.rank)]
    for ks in itertools.product(*ranges):
        coords = tuple(Q(k, d) for k, d in zip(ks, denoms))
        seen.add(canonical_torus_point(system, coords))
    return seen


def _translate_candidates(system: SemisimpleSystem, s: TorusPoint):
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


def oracle_point_grid(system: SemisimpleSystem, kind: str, ms) -> frozenset:
    """Set-theoretic grid: finite torus group intersected with the domain.

    Returns canonical representatives modulo the coroot lattice, for
    comparison against :func:`build_point_grid`.
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


def grid_canonical_set(system: SemisimpleSystem, kind: str, ms) -> frozenset:
    """Canonical forms of the constructive grid, for oracle comparison."""
    return frozenset(
        canonical_torus_point(system, gp.point)
        for gp in build_point_grid(system, kind, ms)
    )


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
        if part == "circle":
            return [((a,), ()) for a in range(-bound, bound + 1)]
        lo = 1 if part == "interior" else 0
        rank = system.factors[i].rank
        return [(c, ()) for c in itertools.product(range(lo, bound + 1), repeat=rank)]

    group = even_subgroup(system, kind)
    out = []
    seen = set()
    for w, _ in glue(system, kind, piece, dual=True):
        key = orbit(group, w)[0]
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out
