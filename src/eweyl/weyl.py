"""Weyl groups of the supported systems and their two even subgroups.

Group elements are pairs of exact integer matrices: one acting on weight
coordinates, one on coweight coordinates.  The generator attached to
coordinate ``i`` acts by

* ``a_j -> a_j - a_i c_ij`` on weights,
* ``s_j -> s_j - s_i c_ji`` on points,

which preserves the pairing ``a . C^{-1} s`` exactly.  Groups are tiny
(order <= 24) and are materialised as sorted element lists.

Two subgroup selections are supported, addressed by a ``kind`` string:

* ``"e"``  -- the full even subgroup, elements of determinant +1;
* ``"ee"`` -- the product of the per-factor even subgroups, i.e. the
  elements whose every factor block has determinant +1;
* ``"w"``  -- the full Weyl group (mostly for internal use).

Congruences are decided on integer residue keys, built from the
integral ``A = |det C| C^{-1}``: points are congruent modulo the coroot
lattice iff their keys ``A (L x) mod L |det C|`` are equal (``L`` a
common denominator), weights modulo ``M_f`` times the root lattice of
each factor ``f`` iff their keys ``A^T a mod |det C| M_f`` are equal.
Orbit sizes and stabilisers are counted on the keys of many points or
weights at once.  ``torus_keys`` keys a batch of points with one numpy
product; ``_point_key`` keys a single point (all that ``efunc.xi``
needs) in plain Python ints, sharing the scaling step.  Coordinates
enter as Python ints either way, so numpy integers cannot wrap around.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lie_data import (
    IntMatrix,
    SemisimpleSystem,
    TorusPoint,
    UsageError,
    Weight,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_transpose,
    mat_vec,
)

FULL_EVEN = "e"
PRODUCT_EVEN = "ee"
FULL_WEYL = "w"

_KINDS = (FULL_WEYL, FULL_EVEN, PRODUCT_EVEN)


def check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise UsageError(f"unknown group kind {kind!r}; expected one of {_KINDS}")
    return kind


def check_even_kind(kind: str) -> str:
    if check_kind(kind) not in (FULL_EVEN, PRODUCT_EVEN):
        raise UsageError("the even domain is defined for the kinds 'e' and 'ee' only")
    return kind


def check_moduli(system: SemisimpleSystem, kind: str, ms):
    """Validate a modulus argument; return ``(ms, per_factor)``.

    ``ms`` is an int or a sequence of ints, one modulus per gluing block
    of the even domain (:func:`eweyl.grids.domain_blocks`): a single one
    for kind ``"e"``, one per factor for kind ``"ee"``.  The first result
    is the tuple as given, the second has one modulus per factor.
    """
    check_even_kind(kind)
    if isinstance(ms, numbers.Integral):
        ms = (ms,)
    try:
        ms = tuple(map(operator.index, ms))
    except TypeError:
        raise UsageError(f"moduli must be integers, got {ms!r}") from None
    if ms and min(ms) < 1:
        raise UsageError("moduli must be >= 1")
    k = len(system.factors)
    want = 1 if kind == FULL_EVEN else k
    if len(ms) != want:
        raise UsageError(
            f"kind {kind!r} for {system.selector} takes {want} modulus value(s), got {len(ms)}"
        )
    return ms, (ms * k if kind == FULL_EVEN else ms)


@dataclass(frozen=True)
class GroupElement:
    weight_matrix: IntMatrix
    coweight_matrix: IntMatrix
    det: int

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other (matrix product)."""
        return GroupElement(
            mat_mul(self.weight_matrix, other.weight_matrix),
            mat_mul(self.coweight_matrix, other.coweight_matrix),
            self.det * other.det,
        )

    def apply_weight(self, lam: Weight) -> Weight:
        return mat_vec(self.weight_matrix, lam)

    def apply_point(self, x: TorusPoint) -> TorusPoint:
        return mat_vec(self.coweight_matrix, x)


@dataclass(frozen=True)
class WeylGroup:
    """A materialised (sub)group of the Weyl group of one system."""

    system: SemisimpleSystem
    kind: str
    elements: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def simple_reflection(system: SemisimpleSystem, i: int) -> GroupElement:
    """The reflection generator attached to coordinate ``i``."""
    n = system.n
    c = system.cartan
    wm = [list(row) for row in identity_matrix(n)]
    cm = [list(row) for row in identity_matrix(n)]
    for j in range(n):
        wm[j][i] -= c[i][j]
        cm[j][i] -= c[j][i]
    return GroupElement(
        tuple(tuple(r) for r in wm), tuple(tuple(r) for r in cm), -1
    )


def _element_key(w: GroupElement):
    return w.weight_matrix


@lru_cache(maxsize=None)
def generate_weyl(system: SemisimpleSystem) -> WeylGroup:
    """Closure of the simple reflections, in canonical sorted order."""
    gens = [simple_reflection(system, i) for i in range(system.n)]
    expected = 1
    for f in system.factors:
        expected *= f.weyl_order
    seen = {identity_matrix(system.n): GroupElement(
        identity_matrix(system.n), identity_matrix(system.n), 1)}
    frontier = list(seen.values())
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                wg = w.compose(g)
                if wg.weight_matrix not in seen:
                    seen[wg.weight_matrix] = wg
                    new.append(wg)
        frontier = new
        if len(seen) > expected:
            raise AssertionError("Weyl closure exceeded the known group order")
    if len(seen) != expected:
        raise AssertionError(
            f"Weyl closure has {len(seen)} elements, expected {expected}"
        )
    elements = tuple(sorted(seen.values(), key=_element_key))
    return WeylGroup(system, FULL_WEYL, elements)


def _factor_dets(system: SemisimpleSystem, w: GroupElement) -> tuple[int, ...]:
    dets = []
    for a, b in system.factor_slices():
        block = tuple(row[a:b] for row in w.weight_matrix[a:b])
        dets.append(mat_det(block))
    return tuple(dets)


@lru_cache(maxsize=None)
def even_subgroup(system: SemisimpleSystem, kind: str) -> WeylGroup:
    """Even subgroup of the requested kind, as a sorted element list."""
    check_kind(kind)
    full = generate_weyl(system)
    if kind == FULL_WEYL:
        return full
    if kind == FULL_EVEN:
        elements = tuple(w for w in full if w.det == 1)
    else:
        elements = tuple(
            w for w in full if all(d == 1 for d in _factor_dets(system, w))
        )
    return WeylGroup(system, kind, elements)


# ---------------------------------------------------------------------------
# orbits and stabilizers
# ---------------------------------------------------------------------------

def length_error(system: SemisimpleSystem) -> UsageError:
    """The error for a weight or point whose length is not ``system.n``."""
    return UsageError(f"weights and points need length {system.n} for {system.selector}")


def _integer_weight(system: SemisimpleSystem, lam) -> tuple[int, ...]:
    """``lam`` as a tuple of ``system.n`` ints; else a :class:`UsageError`."""
    try:
        lam = tuple(map(operator.index, lam))
    except TypeError:
        raise UsageError(f"weight entries must be integers, got {lam!r}") from None
    if len(lam) != system.n:
        raise length_error(system)
    return lam


def orbit(group: WeylGroup, lam: Weight) -> tuple[Weight, ...]:
    """The set of images of a weight, sorted."""
    lam = _integer_weight(group.system, lam)
    return tuple(sorted({w.apply_weight(lam) for w in group}))


def stab_order(group: WeylGroup, lam: Weight) -> int:
    """Order of the exact stabilizer of a weight."""
    lam = _integer_weight(group.system, lam)
    return sum(1 for w in group if w.apply_weight(lam) == lam)


# ---------------------------------------------------------------------------
# integer residue keys
# ---------------------------------------------------------------------------

def int_dtype(bound: int):
    """int64 when ``bound`` caps every magnitude computed, else exact Python ints."""
    return np.int64 if bound < 2**63 else object


def _residues(rows, matrix, mods) -> np.ndarray:
    """``rows @ matrix % mods`` for one integer matrix, int64 when a bound proves it fits."""
    mat = np.array(matrix, dtype=object)
    if not isinstance(rows, np.ndarray) or rows.dtype != np.int64:
        rows = np.array(rows, dtype=object)
    rows = rows.reshape(len(rows), mat.shape[0])
    mods = np.array(mods, dtype=object)
    bound = rows.shape[1] * np.abs(mat).max(initial=0) * int(np.abs(rows).max(initial=0))
    dtype = int_dtype(max(bound, mods.max()))
    image = rows.astype(dtype, copy=False) @ mat.astype(dtype)
    image %= mods.astype(dtype)
    return image


def _rational(v) -> tuple[int, int]:
    """``(numerator, denominator)`` of a point coordinate, as Python ints.

    An ``int``, a ``Fraction`` or a numpy integer (also inside a
    ``Fraction``) is accepted; a float, NaN or anything else is a
    :class:`UsageError`.  Python ints keep every later product exact.
    """
    try:
        return operator.index(v.numerator), operator.index(v.denominator)
    except (AttributeError, TypeError):
        raise UsageError(
            f"point coordinates must be integers or fractions, got {v!r}"
        ) from None


def _scaled(coords) -> tuple[list[int], int]:
    """Coordinates as integer numerators over ``L``, the lcm of their denominators."""
    pairs = [_rational(v) for v in coords]
    lcm = math.lcm(*[d for _, d in pairs])
    return [a * (lcm // d) for a, d in pairs], lcm


def _point_key(system: SemisimpleSystem, x) -> tuple[list[int], int]:
    """:func:`torus_keys` of the one point ``x``, in plain Python ints.

    ``K_i = sum_j A_ij (L x_j) mod n`` with no numpy: for three
    numbers the batch product costs more than the arithmetic.
    """
    scaled, lcm = _scaled(x)
    n = lcm * abs(system.det_cartan)
    return [sum(map(operator.mul, row, scaled)) % n for row in system.adj_cartan], n


def torus_keys(system: SemisimpleSystem, points) -> tuple[np.ndarray, int]:
    """Residue keys ``K`` (one row per point) and their modulus ``n``.

    With ``L`` the lcm of the point denominators, ``K = A (L x) mod n``
    and ``n = L |det C|``.  ``K / n`` are the coroot coordinates of ``x``
    reduced into [0, 1).  This is the batch product, an int64 or object
    array; one point is keyed in plain ints by ``_point_key``.
    """
    scaled, lcm = _scaled([v for p in points for v in p])
    scaled = np.array(scaled, dtype=object).reshape(len(points), system.n)
    return scaled_torus_keys(system, scaled, lcm)


def scaled_torus_keys(system: SemisimpleSystem, numerators, lcm: int) -> tuple[np.ndarray, int]:
    """:func:`torus_keys` of the points ``numerators / lcm``.

    ``numerators`` holds integer rows of length ``n`` (an integer array
    or nested sequences of ints); ``lcm`` need not be the least
    denominator, and ``K / n`` comes out the same.  A float, complex or
    other non-integer numerator is a :class:`UsageError`, never
    truncated.
    """
    n = operator.index(lcm) * abs(system.det_cartan)
    return _residues(_integer_rows(numerators), mat_transpose(system.adj_cartan), n), n


def _integer_rows(rows) -> np.ndarray:
    """``rows`` as an array of integers; a float or any other entry is a :class:`UsageError`."""
    rows = np.asarray(rows)
    if rows.dtype.kind in "iu" or (
        rows.dtype == object and all(isinstance(v, numbers.Integral) for v in rows.flat)
    ):
        return rows
    raise UsageError(f"point numerators must be integers, got an array of dtype {rows.dtype}")


def torus_orbit_sizes(group: WeylGroup, keys: np.ndarray, n: int) -> np.ndarray:
    """Number of distinct images modulo the coroot lattice of every point (int64).

    Takes the points' residue keys ``keys, n`` (:func:`torus_keys` or
    :func:`scaled_torus_keys`).  ``w`` maps a key ``k`` to ``W^{-T} k``,
    so the orbit size is the group order over the number of elements
    with ``W^T k = k mod n``.  They are counted one element at a time,
    so the working memory is O(N n) for N points, whatever the group.
    """
    return group.order // _count_fixed(keys, [w.weight_matrix for w in group], n, keys)


def _count_fixed(rows, matrices, mods, keys: np.ndarray) -> np.ndarray:
    """Per row, the number of ``matrices`` with ``rows @ m % mods`` equal to ``keys`` (int64).

    One image is held at a time.
    """
    fixed = np.zeros(len(keys), dtype=np.int64)
    for m in matrices:
        fixed += (_residues(rows, m, mods) == keys).all(axis=1)
    return fixed


def _weight_moduli(system: SemisimpleSystem, ms) -> list[int]:
    _, per_factor = check_moduli(system, PRODUCT_EVEN, ms)
    det = abs(system.det_cartan)
    return [det * m for f, m in zip(system.factors, per_factor) for _ in range(f.rank)]


def weight_keys(system: SemisimpleSystem, weights, ms) -> np.ndarray:
    """Residue keys of weights modulo ``M_f * (root lattice of factor f)``.

    A row is ``A^T a`` reduced mod ``|det C| M_f`` on factor f's block;
    ``ms`` holds one modulus per factor.
    """
    return _residues(weights, system.adj_cartan, _weight_moduli(system, ms))


def weight_stabs_mod_mq(group: WeylGroup, weights, ms) -> np.ndarray:
    """Order of the stabilizer modulo ``M * root lattice`` of every weight (int64).

    Counts the elements ``w`` whose key ``A^T (W a)`` equals that of
    ``a``, one element at a time: the working memory is O(N n) for N
    weights, whatever the group.
    """
    adj, mods = group.system.adj_cartan, _weight_moduli(group.system, ms)
    matrices = [mat_mul(mat_transpose(w.weight_matrix), adj) for w in group]
    return _count_fixed(weights, matrices, mods, weight_keys(group.system, weights, ms))

