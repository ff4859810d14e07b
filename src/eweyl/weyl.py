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

Congruences on the torus and on the weight lattice are decided exactly:
``x = y  mod  coroot lattice`` iff ``C^{-1}(x - y)`` is integral, and
``a = b  mod  M * root lattice`` iff ``C^{-T}(a - b) / M`` is integral,
blockwise with each factor's own modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lie_data import (
    Q,
    IntMatrix,
    SemisimpleSystem,
    TorusPoint,
    UsageError,
    Weight,
    identity_matrix,
    mat_det,
    mat_inverse,
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

def orbit(group: WeylGroup, lam: Weight) -> tuple[Weight, ...]:
    """The set of images of a weight, sorted."""
    return tuple(sorted({w.apply_weight(tuple(lam)) for w in group}))


def stab_order(group: WeylGroup, lam: Weight) -> int:
    """Order of the exact stabilizer of a weight."""
    lam = tuple(lam)
    return sum(1 for w in group if w.apply_weight(lam) == lam)


def orbit_points(group: WeylGroup, x: TorusPoint) -> tuple[TorusPoint, ...]:
    """Distinct images of a torus point modulo the coroot lattice."""
    x = tuple(Q(v) for v in x)
    sys = group.system
    return tuple(sorted({canonical_torus_point(sys, w.apply_point(x)) for w in group}))


def torus_orbit_size(group: WeylGroup, x: TorusPoint) -> int:
    return len(orbit_points(group, x))


# ---------------------------------------------------------------------------
# exact congruences
# ---------------------------------------------------------------------------

def coroot_coordinates(system: SemisimpleSystem, x: TorusPoint):
    """Coordinates of a point in the coroot basis: ``C^{-1} s``."""
    return mat_vec(system.inv_cartan, x)


def canonical_torus_point(system: SemisimpleSystem, x: TorusPoint) -> TorusPoint:
    """Representative of ``x`` modulo the coroot lattice.

    The coroot coordinates are reduced into [0, 1) and mapped back; two
    points are congruent iff their canonical forms are equal.
    """
    reduced = tuple(z % 1 for z in coroot_coordinates(system, x))
    return tuple(mat_vec(system.cartan, reduced))


def torus_congruent(system: SemisimpleSystem, x: TorusPoint, y: TorusPoint) -> bool:
    diff = tuple(a - b for a, b in zip(x, y))
    return all(z.denominator == 1 for z in map(Q, coroot_coordinates(system, diff)))


@lru_cache(maxsize=None)
def _factor_inv_cartan_t(factor):
    return mat_transpose(mat_inverse(factor.cartan))


def weight_congruent_mod_mq(system, a: Weight, b: Weight, ms) -> bool:
    """``a = b`` modulo the sublattice ``M_f * (root lattice of factor f)``."""
    from .grids import check_moduli  # deferred: grids imports this module

    return _congruent_mod_mq(system, a, b, check_moduli(system, PRODUCT_EVEN, ms)[1])


def _congruent_mod_mq(system, a: Weight, b: Weight, ms) -> bool:
    for (lo, hi), factor, m in zip(system.factor_slices(), system.factors, ms):
        diff = tuple(a[j] - b[j] for j in range(lo, hi))
        z = mat_vec(_factor_inv_cartan_t(factor), diff)
        if any(Q(v) % m != 0 for v in z):
            return False
    return True


def canonical_weight_mod_mq(system, a: Weight, ms) -> Weight:
    """Canonical representative of a weight modulo ``M * root lattice``."""
    from .grids import check_moduli

    _, ms = check_moduli(system, PRODUCT_EVEN, ms)
    out = []
    for (lo, hi), factor, m in zip(system.factor_slices(), system.factors, ms):
        part = tuple(a[j] for j in range(lo, hi))
        z = tuple(Q(v) % m for v in mat_vec(_factor_inv_cartan_t(factor), part))
        back = mat_vec(mat_transpose(factor.cartan), z)
        for v in back:
            v = Q(v)
            if v.denominator != 1:
                raise AssertionError("weight reduction left a non-integer")
            out.append(int(v))
    return tuple(out)


def weight_stab_mod_mq(group: WeylGroup, lam: Weight, ms) -> int:
    """Order of the stabilizer of a weight modulo ``M * root lattice``."""
    from .grids import check_moduli

    lam = tuple(lam)
    sys = group.system
    _, ms = check_moduli(sys, PRODUCT_EVEN, ms)
    return sum(1 for w in group if _congruent_mod_mq(sys, w.apply_weight(lam), lam, ms))
