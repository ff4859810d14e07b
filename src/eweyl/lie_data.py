"""Exact root-system data for products of simple rank <= 2 factors.

Systems are products of the factors a1, a2, c2 and g2 of total rank at
most 3: :func:`assemble_system` refuses a larger rank, and
:func:`make_system` builds the five supported selectors.

Coordinate conventions used throughout the package:

* weights are integer vectors in the basis of fundamental weights,
* torus points are rational vectors in the basis of fundamental coweights,
* the Cartan matrix ``C`` ties the two bases together: simple roots are
  the rows of ``C`` in the weight basis, simple coroots are the columns
  of ``C`` in the coweight basis, and the pairing of a weight ``a`` with
  a point ``s`` is the exact rational ``a . C^{-1} s``.

The Smith normal form ``U C V = diag(d)`` of each factor turns
pairings into integer residues and lattice congruences into one integer
index (see :mod:`eweyl.weyl`).

Long roots are normalised to squared length 2.  That choice fixes every
Gram matrix computed here, and so every domain volume.  All lattice
arithmetic is exact (integer residues, or ``fractions.Fraction`` at the
API edge: points, :func:`pairing`, :func:`exp_phase` and the Gram
matrices); floating point enters only when a phase ``k / n`` is finally
exponentiated, by :func:`residue_phasor`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

Q = Fraction

Weight = tuple[int, ...]
TorusPoint = tuple[Q, ...]
IntMatrix = tuple[tuple[int, ...], ...]
RatMatrix = tuple[tuple[Q, ...], ...]


class ConfigurationError(ValueError):
    """Raised for unsupported group configurations."""


class UsageError(ValueError):
    """Raised for malformed caller input (dimension mismatches, bad moduli)."""


# ---------------------------------------------------------------------------
# small exact linear algebra helpers (n <= 3, Fractions or ints)
# ---------------------------------------------------------------------------

def mat_vec(m, v):
    """Matrix times column vector, exact."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def vec_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_transpose(m):
    return tuple(zip(*m))


def mat_det(m):
    """Determinant by Laplace expansion; fine for the sizes used here."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * mat_det(minor)
    return total


def mat_inverse(m) -> RatMatrix:
    """Exact inverse via the adjugate."""
    n = len(m)
    det = Q(mat_det(m))
    if det == 0:
        raise ValueError("singular matrix")
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != j)
                for r in range(n)
                if r != i
            )
            cof[i][j] = (-1) ** (i + j) * (mat_det(minor) if n > 1 else 1)
    return tuple(tuple(Q(cof[j][i]) / det for j in range(n)) for i in range(n))


def identity_matrix(n) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def block_diagonal(blocks) -> IntMatrix:
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (n - offset - len(row)))
        offset += len(b)
    return tuple(rows)


# ---------------------------------------------------------------------------
# simple factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleFactor:
    """Immutable root-system data of one simple factor."""

    kind: str
    rank: int
    cartan: IntMatrix
    marks: tuple[int, ...]
    dual_marks: tuple[int, ...]
    half_lengths: tuple[Q, ...]
    weyl_order: int

    @property
    def det_cartan(self) -> int:
        return mat_det(self.cartan)


_FACTORS = {
    "a1": SimpleFactor("a1", 1, ((2,),), (1,), (1,), (Q(1),), 2),
    "a2": SimpleFactor("a2", 2, ((2, -1), (-1, 2)), (1, 1), (1, 1), (Q(1), Q(1)), 6),
    "c2": SimpleFactor("c2", 2, ((2, -1), (-2, 2)), (2, 1), (1, 2), (Q(1, 2), Q(1)), 8),
    "g2": SimpleFactor("g2", 2, ((2, -3), (-1, 2)), (2, 3), (3, 2), (Q(1), Q(1, 3)), 12),
}

#: selector strings of the five supported semisimple groups
SUPPORTED_SELECTORS = ("a1xa1", "a1xa2", "a1xc2", "a1xg2", "a1xa1xa1")


@dataclass(frozen=True)
class SemisimpleSystem:
    """A product of simple factors with block Cartan data and exact inverses."""

    factors: tuple[SimpleFactor, ...]
    selector: str
    n: int
    cartan: IntMatrix
    inv_cartan: RatMatrix
    det_cartan: int
    offsets: tuple[int, ...]

    def __hash__(self):
        # equal systems have equal selectors; the nested fields hash ~100x slower
        return hash(self.selector)

    def factor_slices(self):
        """(start, stop) index pair of each factor's coordinate block."""
        return tuple(
            (off, off + f.rank) for off, f in zip(self.offsets, self.factors)
        )


@lru_cache(maxsize=None)
def assemble_system(kinds: tuple[str, ...]) -> SemisimpleSystem:
    """Assemble any factor list of total rank <= 3, a supported selector or not."""
    if not kinds:
        raise ConfigurationError("empty factor list")
    try:
        factors = tuple(_FACTORS[k.lower()] for k in kinds)
    except KeyError as exc:
        raise ConfigurationError(f"unknown simple factor {exc.args[0]!r}") from None
    rank = sum(f.rank for f in factors)
    if rank > 3:
        raise ConfigurationError(f"factor list {list(kinds)!r} has rank {rank}; the limit is 3")
    cartan = block_diagonal([f.cartan for f in factors])
    inv = mat_inverse(cartan)
    det = mat_det(cartan)
    offsets = []
    off = 0
    for f in factors:
        offsets.append(off)
        off += f.rank
    return SemisimpleSystem(
        factors=factors,
        selector="x".join(f.kind for f in factors),
        n=off,
        cartan=cartan,
        inv_cartan=inv,
        det_cartan=det,
        offsets=tuple(offsets),
    )


def make_system(kinds: Sequence[str]) -> SemisimpleSystem:
    """Build one of the five supported semisimple systems.

    ``kinds`` is a list of factor names such as ``["a1", "g2"]``; the
    selector string formed by joining them with ``x`` must be one of
    ``SUPPORTED_SELECTORS``.
    """
    selector = "x".join(k.lower() for k in kinds)
    if selector not in SUPPORTED_SELECTORS:
        raise ConfigurationError(
            f"unsupported factor list {list(kinds)!r}; "
            f"supported selectors: {', '.join(SUPPORTED_SELECTORS)}"
        )
    return assemble_system(tuple(k.lower() for k in kinds))


def system_from_selector(selector: str) -> SemisimpleSystem:
    return make_system(selector.lower().split("x"))


# ---------------------------------------------------------------------------
# pairing and phases
# ---------------------------------------------------------------------------

def _check_length(system: SemisimpleSystem, vec, name: str):
    if len(vec) != system.n:
        raise UsageError(
            f"{name} has length {len(vec)}, expected {system.n} for {system.selector}"
        )


def pairing(system: SemisimpleSystem, lam: Weight, x: TorusPoint) -> Q:
    """Exact scalar product of a weight with a torus point: ``a . C^{-1} s``."""
    _check_length(system, lam, "weight")
    _check_length(system, x, "point")
    return vec_dot(lam, mat_vec(system.inv_cartan, x))


def exp_phase(system: SemisimpleSystem, lam: Weight, x: TorusPoint) -> complex:
    """``exp(2 pi i <lam, x>)`` with the phase reduced mod 1 before rounding.

    The reduction happens in exact rational arithmetic, so huge integer
    parts of the phase cannot degrade the unit-circle value.
    """
    frac = Q(pairing(system, lam, x))
    return residue_phasor(frac.numerator, frac.denominator)


def residue_phasor(k: int, n: int) -> complex:
    """Unit phasor of ``k / n`` turns, from the integers alone.

    ``(k % n) / n`` is the correctly rounded double of the exact residue,
    so the value is that of ``float(Fraction(k, n) % 1)``.
    """
    return cmath.exp(2j * math.pi * ((k % n) / n))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def coroot_gram(factor: SimpleFactor) -> RatMatrix:
    """Gram matrix of the simple coroots: ``diag(1/half_lengths) . C``."""
    d = factor.half_lengths
    return tuple(
        tuple(Q(factor.cartan[i][j]) / d[i] for j in range(factor.rank))
        for i in range(factor.rank)
    )


def coweight_gram(system: SemisimpleSystem) -> RatMatrix:
    """Gram matrix of the fundamental coweights, block diagonal over factors.

    Per factor the matrix is ``C^{-T} diag(1/half_lengths)``; for the A1
    factor this gives the scalar 1/2.
    """
    blocks = []
    for f in system.factors:
        inv = mat_inverse(f.cartan)
        block = tuple(
            tuple(inv[j][i] / f.half_lengths[j] for j in range(f.rank))
            for i in range(f.rank)
        )
        blocks.append(block)
    return tuple(tuple(Q(v) for v in row) for row in block_diagonal(blocks))
