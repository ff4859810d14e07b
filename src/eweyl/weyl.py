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

Congruences and pairings read one integer form, the Smith coordinates
(:func:`smith_form`).  Per factor, ``T = (1/M) P^v / Q^v`` and its dual
``P / MQ`` are ``Z^rank`` modulo ``M C`` and ``M C^T``, and the Smith
form ``U C V = diag(d)`` maps a point ``s / M`` to ``(U s)_i mod M d_i``
and a weight to ``(V^T lam)_i mod M d_i``.  Their mixed radix is one
integer in ``[0, |T|)``; :func:`orbit_indices`, the one walk of orbit
images, yields it for rows and their images under a group.
At a common denominator ``M = L`` of rational points the same residues
are keys (:func:`smith_keys`; ``_smith_key`` for one point in plain
ints), and ``<lam, s / L> = sum_i (V^T lam)_i (U s)_i / (L d_i)`` is one
integer modulo ``L lcm(d)``.  Only the orbit-sum kernel of
:mod:`eweyl.efunc` reads keys; grids and transforms hold numerators.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lie_data import (
    IntMatrix,
    SemisimpleSystem,
    TorusPoint,
    UsageError,
    Weight,
    block_diagonal,
    coroot_gram,
    identity_matrix,
    mat_det,
    mat_mul,
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
    return GroupElement(tuple(map(tuple, wm)), tuple(map(tuple, cm)), -1)


@lru_cache(maxsize=None)
def generate_weyl(system: SemisimpleSystem) -> WeylGroup:
    """Closure of the simple reflections, in canonical sorted order."""
    gens = [simple_reflection(system, i) for i in range(system.n)]
    expected = math.prod(f.weyl_order for f in system.factors)
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
        raise AssertionError(f"Weyl closure has {len(seen)} elements, expected {expected}")
    elements = tuple(sorted(seen.values(), key=lambda w: w.weight_matrix))
    return WeylGroup(system, FULL_WEYL, elements)


def _factor_dets(system: SemisimpleSystem, w: GroupElement) -> tuple[int, ...]:
    m = w.weight_matrix
    return tuple(mat_det(tuple(row[a:b] for row in m[a:b])) for a, b in system.factor_slices())


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
        elements = tuple(w for w in full if all(d == 1 for d in _factor_dets(system, w)))
    return WeylGroup(system, kind, elements)


def domain_volume(system: SemisimpleSystem, kind: str) -> float:
    """Volume of the fundamental domain of the group of this kind.

    The domain tiles the torus ``R^n / Q^v`` under the group, so its
    volume is ``covol(Q^v) / |group|``, the covolume being the product
    over factors of ``sqrt(det)`` of the coroot Gram matrix.
    """
    covolume = math.prod(math.sqrt(float(mat_det(coroot_gram(f)))) for f in system.factors)
    return covolume / even_subgroup(system, kind).order


# ---------------------------------------------------------------------------
# orbits and stabilizers
# ---------------------------------------------------------------------------

def length_error(system: SemisimpleSystem) -> UsageError:
    """The error for a weight or point whose length is not ``system.n``."""
    return UsageError(f"weights and points need length {system.n} for {system.selector}")


def integer_rows(system: SemisimpleSystem, numerators) -> np.ndarray:
    """``numerators`` as a 2-D array of integer rows of length ``system.n``.

    An integer array is kept; anything else becomes Python ints in an
    object array (numpy would guess float64 past int64, and numpy
    integers among objects wrap).  Else a :class:`UsageError`.
    """
    rows = numerators if isinstance(numerators, np.ndarray) else np.array(numerators, dtype=object)
    if rows.ndim != 2 or rows.shape[1] != system.n:
        raise length_error(system)
    if rows.dtype.kind in "iu":
        return rows
    if rows.dtype == object:
        with contextlib.suppress(TypeError):
            return np.frompyfunc(operator.index, 1, 1)(rows)
    raise UsageError(f"point numerators must be integers, got an array of dtype {rows.dtype}")


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
# Smith coordinates: congruences and pairing keys
# ---------------------------------------------------------------------------

def int_dtype(bound: int):
    """int64 when ``bound`` caps every magnitude computed, else exact Python ints."""
    return np.int64 if bound < 2**63 else object


def _magnitude(a: np.ndarray) -> int:
    """``max |a|`` as a Python int; ``np.abs`` would wrap the int64 minimum to itself."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


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


#: per simple factor ``(U, V^T, d)``: unimodular ``U, V`` with ``U C V = diag(d)``
_SMITH = {
    "a1": (((1,),), ((1,),), (2,)),
    "a2": (((0, -1), (1, 2)), ((1, 0), (2, 1)), (1, 3)),
    "c2": (((1, 0), (-2, -1)), ((0, -1), (-1, -2)), (1, 2)),
    "g2": (((0, -1), (1, 2)), ((1, 0), (2, 1)), (1, 1)),
}


class SmithForm(NamedTuple):
    """A group's matrices ``m`` in a system's Smith coordinates ``S s``.

    ``pairing`` pairs with the keys of this side: a point key ``K`` and the ``P``
    of a weight matrix ``w`` give ``<w lam, s / L> = K . P lam / (L D)`` mod 1.
    """

    rows: tuple  # (row i of S, d_i): S is the block-diagonal U_f, or V_f^T on the dual side
    lcm: int  # D = lcm(d)
    images: dict  # m -> S m, read-only int64, in canonical group order
    bound: int  # the largest |entry| of the images
    pairing: tuple  # the other side's diag(D / d) S m, flattened row by row, same order


@lru_cache(maxsize=None)
def smith_form(system: SemisimpleSystem, kind: str, dual: bool) -> SmithForm:
    """The group of ``kind`` in Smith coordinates: weight matrices if ``dual``, else coweight."""
    u, vt = (block_diagonal([_SMITH[f.kind][i] for f in system.factors]) for i in (0, 1))
    basis, other = (vt, u) if dual else (u, vt)
    diagonal = tuple(d for f in system.factors for d in _SMITH[f.kind][2])
    lcm = math.lcm(*diagonal)
    sides = [(w.weight_matrix, w.coweight_matrix) if dual else (w.coweight_matrix, w.weight_matrix)
             for w in even_subgroup(system, kind)]
    images = {m: np.array(basis) @ m for m, _ in sides}
    for b in images.values():
        b.setflags(write=False)
    scale = np.array([[lcm // d] for d in diagonal]) * other
    pairing = tuple(tuple((scale @ m).ravel().tolist()) for _, m in sides)
    bound = max(map(_magnitude, images.values()))
    return SmithForm(tuple(zip(basis, diagonal)), lcm, images, bound, pairing)


def torus_shape(system: SemisimpleSystem, ms) -> tuple[int, ...]:
    """The moduli ``M_f d_i`` of the Smith coordinates, one per coordinate.

    ``T`` at the per-factor moduli ``ms``, and its dual ``P / MQ``, are the
    box of this shape: :func:`orbit_indices` is its C-order flat index, and
    its size is ``|T|``.
    """
    _, per_factor = check_moduli(system, PRODUCT_EVEN, ms)
    return tuple(m * d for f, m in zip(system.factors, per_factor) for d in _SMITH[f.kind][2])


def _smith_residues(system: SemisimpleSystem, rows, ms, dual: bool, matrices):
    """The moduli ``M_f d_i`` and, per Weyl group matrix ``m``, the residues of ``S m s``.

    Row ``s`` is the point ``s_f / M_f`` of ``T`` or, if ``dual``, the weight
    ``s`` of ``P / MQ``.  The columns ``(S m s)_i mod M_f d_i`` come one at
    a time, int64 when a bound proves they fit, else exact Python ints.
    """
    form = smith_form(system, FULL_WEYL, dual)
    mods = torus_shape(system, ms)
    rows = integer_rows(system, rows)
    dtype = int_dtype(max(system.n * form.bound * _magnitude(rows), max(mods)))
    rows = rows.astype(dtype, copy=False)
    images = (form.images[m].astype(dtype, copy=False) for m in matrices)
    return mods, ((rows @ col % mod for col, mod in zip(b, mods)) for b in images)


def smith_keys(system: SemisimpleSystem, numerators, lcm: int) -> np.ndarray:
    """The keys ``(U s)_i mod lcm d_i`` of the points ``s / lcm``, one column per point.

    Their mixed radix is the first array of :func:`orbit_indices` at modulus ``lcm``.
    """
    _, images = _smith_residues(system, numerators, (lcm,) * len(system.factors), False,
                                [identity_matrix(system.n)])
    return np.stack(list(next(images)))


def _smith_key(form: SmithForm, x) -> tuple[list[int], int]:
    """The key of one point ``x`` in plain Python ints, and its modulus ``L D``."""
    scaled, lcm = _scaled(x)
    key = [sum(map(operator.mul, row, scaled)) % (lcm * d) for row, d in form.rows]
    return key, lcm * form.lcm


def orbit_indices(group: WeylGroup, rows, ms, dual: bool = False):
    """Yield the index in ``[0, |T|)`` of every row, then of its image under each element.

    Rows are points ``s_f / M_f`` of ``T``, or weights of ``P / MQ`` if
    ``dual``; elements come in canonical order, the identity included.  It
    is the mixed radix of :func:`_smith_residues`, int64 when ``|T|`` fits,
    else Python ints; only arrays of one entry per row are live.
    """
    matrices = [identity_matrix(group.system.n)]
    matrices += [w.weight_matrix if dual else w.coweight_matrix for w in group]
    mods, images = _smith_residues(group.system, rows, ms, dual, matrices)
    dtype = int_dtype(math.prod(mods))
    for columns in images:
        index = np.zeros(len(rows), dtype=dtype)
        for col, mod in zip(columns, mods):
            index *= mod
            index += col.astype(dtype, copy=False)
        yield index
