"""Orbit sums of even Weyl groups (E-functions).

``xi`` is the normalised orbit sum over all elements of the selected
even group: the stabiliser order times the sum over the distinct orbit
members.  ``xi`` pairs on the point's integer residue key
(:func:`eweyl.weyl.torus_keys`) and turns each residue into a phasor
with :func:`eweyl.lie_data.residue_phasor`; the ``Fraction`` sum of
``exp_phase`` terms it replaces lives on in the tests as the reference
that ``xi`` and ``orbit_sums`` match bit for bit.  ``orbit_sums``
evaluates ``xi`` for many weights and points at once on the same keys;
``scaled_orbit_sums`` does the same for points given as integer
numerators over one denominator.

``xi_closed`` evaluates the closed form tabulated for each supported
group and kind, transcribed verbatim; two of those closed forms (both
for a1xg2) are known to be misprinted, and ``xi_closed`` intentionally
reproduces the misprints so that the verification suite can exhibit
them.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache
from itertools import chain

import numpy as np

from .lie_data import Q, SemisimpleSystem, TorusPoint, UsageError, Weight, residue_phasor
from .weyl import check_kind, even_subgroup, int_dtype, scaled_torus_keys, torus_keys


class UnsupportedFormulaError(ValueError):
    """No closed form is available for the requested system and kind."""


def _integer_weight(lam) -> tuple[int, ...]:
    """``lam`` as a tuple of ints; a non-integer entry is a :class:`UsageError`."""
    try:
        return tuple(operator.index(a) for a in lam)
    except TypeError:
        raise UsageError(f"weight entries must be integers, got {lam!r}") from None


def xi(system: SemisimpleSystem, kind: str, lam: Weight, x: TorusPoint) -> complex:
    """Sum of ``exp(2 pi i <w lam, x>)`` over the whole even group.

    The point's residue key ``K, n`` (:func:`eweyl.weyl.torus_keys`)
    turns each pairing into the integer ``k = (w lam) . K``, and each
    term is ``residue_phasor(k, n)``.  Terms are accumulated in the
    canonical group-element order, so the result is bitwise
    reproducible and equal to the ``Fraction`` sum of ``exp_phase``
    terms, which the tests keep as the reference.
    """
    lam = _integer_weight(lam)
    x = tuple(Q(v) for v in x)
    if len(lam) != system.n or len(x) != system.n:
        raise UsageError(f"weights and points need length {system.n} for {system.selector}")
    group = even_subgroup(system, check_kind(kind))
    keys, n = torus_keys(system, [x])
    # (w lam) . K = sum_ij W_ij K_i lam_j, one flat product per element
    outer = [a * b for a in keys[0].tolist() for b in lam]
    total = 0j
    for w in group:
        k = sum(map(operator.mul, chain.from_iterable(w.weight_matrix), outer))
        total += residue_phasor(k, n)
    return total


def orbit_sums(system: SemisimpleSystem, kind: str, weights, points) -> np.ndarray:
    """``xi`` of every weight (rows) at every point (columns).

    ``weights`` is a sequence of integer weights and ``points`` a
    sequence of points with ``int`` or ``Fraction`` coordinates.

    With ``K, n = torus_keys(system, points)`` each pairing is the exact
    residue ``k = (W lam) . K mod n``.  A term is
    ``residue_phasor(k, n)``, the phasor ``xi`` adds, and the terms
    are summed in canonical group order.  The residues are int64 when a
    bound on ``|k|`` proves they fit and exact Python ints otherwise.
    """
    if any(len(v) != system.n for v in points):
        raise UsageError(f"weights and points need length {system.n} for {system.selector}")
    return _orbit_sums(system, kind, weights, *torus_keys(system, points))


def scaled_orbit_sums(system: SemisimpleSystem, kind: str, weights, numerators, lcm: int):
    """:func:`orbit_sums` at the points ``numerators / lcm``, with no ``Fraction``.

    ``numerators`` is an integer array of shape ``(N, n)``.  The result
    equals ``orbit_sums`` of the same points bit for bit, because a term
    depends only on the value ``k / n``.
    """
    if np.ndim(numerators) != 2 or np.shape(numerators)[1] != system.n:
        raise UsageError(f"weights and points need length {system.n} for {system.selector}")
    return _orbit_sums(system, kind, weights, *scaled_torus_keys(system, numerators, lcm))


#: largest key modulus whose phasors are tabulated for every residue
_TABLE_MAX = 2**16


@lru_cache(maxsize=4)
def _phasor_table(n: int) -> np.ndarray:
    """``residue_phasor(k, n)`` for every residue ``0 <= k < n``."""
    table = np.array([residue_phasor(k, n) for k in range(n)], dtype=complex)
    table.setflags(write=False)
    return table


def _orbit_sums(system: SemisimpleSystem, kind: str, weights, keys: np.ndarray, n: int):
    """The orbit-sum kernel on torus keys ``(keys, n)``; see :func:`orbit_sums`."""
    group = even_subgroup(system, check_kind(kind))
    dim = system.n
    weights = [_integer_weight(v) for v in weights]
    if any(len(v) != dim for v in weights):
        raise UsageError(f"weights and points need length {dim} for {system.selector}")
    lam = np.array(weights, dtype=object).reshape(len(weights), dim)
    rows = [lam @ np.array(w.weight_matrix, dtype=object).T for w in group]
    dtype = int_dtype(max(dim * max(abs(r).max(initial=0) for r in rows) * n, n))
    cols = keys.T.astype(dtype)
    total = np.zeros((len(weights), len(keys)), dtype=complex)
    if dtype is np.int64 and n <= min(total.size, _TABLE_MAX):
        table = _phasor_table(n)
        for r in rows:
            total += table[r.astype(dtype) @ cols % n]
        return total
    phasor = lru_cache(maxsize=None)(lambda k: residue_phasor(k, n))
    for r in rows:
        k = r.astype(dtype) @ cols % n
        seen = np.unique(k)
        table = np.array([phasor(v) for v in seen.tolist()], dtype=complex)
        total += table[np.searchsorted(seen, k)]
    return total


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _e(t: float) -> complex:
    return cmath.exp(1j * t)


def _a1xa1_ee(a, b, x, y):
    return _e(math.pi * (a * x + b * y))


def _a1xa1_e(a, b, x, y):
    return 2 * math.cos(math.pi * (a * x + b * y))


def _a1xa2_ee(a, b, c, x, y, z):
    t = 2 * math.pi / 3
    inner = (
        _e(t * ((2 * b + c) * y + (b + 2 * c) * z))
        + _e(-t * ((y + 2 * z) * b + (z - y) * c))
        + _e(-t * ((y - z) * b + (2 * y + z) * c))
    )
    return _e(math.pi * a * x) * inner


def _a1xa2_e(a, b, c, x, y, z):
    t = 2 * math.pi / 3
    plus = (
        _e(t * ((2 * b + c) * y + (b + 2 * c) * z))
        + _e(-t * ((b - c) * y + (2 * b + c) * z))
        + _e(-t * ((b + 2 * c) * y + (c - b) * z))
    )
    minus = (
        _e(t * ((c - b) * y + (b + 2 * c) * z))
        + _e(t * ((2 * b + c) * y + (b - c) * z))
        + _e(-t * ((2 * c + b) * y + (c + 2 * b) * z))
    )
    return _e(math.pi * a * x) * plus + _e(-math.pi * a * x) * minus


def _a1xc2_ee(a, b, c, x, y, z):
    p = math.pi
    inner = math.cos(p * ((2 * b + 2 * c) * y + (b + 2 * c) * z)) + math.cos(
        p * (2 * c * y - b * z)
    )
    return 2 * _e(p * a * x) * inner


def _a1xc2_e(a, b, c, x, y, z):
    p = math.pi
    plus = math.cos(p * ((2 * b + 2 * c) * y + (b + 2 * c) * z)) + math.cos(
        p * (2 * c * y - b * z)
    )
    minus = math.cos(p * (2 * c * y + (b + 2 * c) * z)) + math.cos(
        p * (b * z + (2 * b + 2 * c) * y)
    )
    return 2 * _e(p * a * x) * plus + 2 * _e(-p * a * x) * minus


def _a1xg2_ee(a, b, c, x, y, z):
    # Transcribed as tabulated; deviates from the generic orbit sum
    # (misprinted inner factors of 2 and an x where a y belongs).
    p = math.pi
    inner = (
        math.cos(2 * p * ((2 * b + c) * y + (3 * b + 2 * c) * z))
        + 2 * math.cos(2 * p * (b * x + (3 * b + c) * z))
        + 2 * math.cos(2 * p * ((b + c) * y + c * z))
    )
    return 2 * _e(p * a * x) * inner


def _a1xg2_e(a, b, c, x, y, z):
    # Transcribed as tabulated; deviates from the generic orbit sum
    # (an a where a b belongs and a lone pi where siblings carry 2 pi).
    p = math.pi
    plus = (
        math.cos(2 * p * ((2 * b + c) * y + (3 * b + 2 * c) * z))
        + math.cos(2 * p * (a * y + (3 * b + c) * z))
        + math.cos(2 * p * ((b + c) * y + c * z))
    )
    minus = (
        math.cos(2 * p * ((2 * b + c) * y + (3 * b + c) * z))
        + math.cos(2 * p * (b * y - c * z))
        + math.cos(p * ((b + c) * y + (3 * b + 2 * c) * z))
    )
    return 2 * _e(p * a * x) * plus + 2 * _e(-p * a * x) * minus


def _a1xa1xa1_ee(a, b, c, x, y, z):
    return _e(math.pi * (a * x + b * y + c * z))


def _a1xa1xa1_e(a, b, c, x, y, z):
    p = math.pi
    return 2 * _e(p * a * x) * math.cos(p * (b * y + c * z)) + 2 * _e(
        -p * a * x
    ) * math.cos(p * (b * y - c * z))


_CLOSED_FORMS = {
    ("a1xa1", "ee"): _a1xa1_ee,
    ("a1xa1", "e"): _a1xa1_e,
    ("a1xa2", "ee"): _a1xa2_ee,
    ("a1xa2", "e"): _a1xa2_e,
    ("a1xc2", "ee"): _a1xc2_ee,
    ("a1xc2", "e"): _a1xc2_e,
    ("a1xg2", "ee"): _a1xg2_ee,
    ("a1xg2", "e"): _a1xg2_e,
    ("a1xa1xa1", "ee"): _a1xa1xa1_ee,
    ("a1xa1xa1", "e"): _a1xa1xa1_e,
}

#: closed forms that agree with the generic sum; the a1xg2 pair does not
TRUSTED_CLOSED_FORMS = frozenset(
    key for key in _CLOSED_FORMS if key[0] != "a1xg2"
)


def xi_closed(system: SemisimpleSystem, kind: str, lam: Weight, x: TorusPoint) -> complex:
    """Evaluate the tabulated closed form for this system and kind.

    Raises :class:`UnsupportedFormulaError` when no closed form is
    tabulated.  The two a1xg2 forms reproduce their misprints; use
    :func:`xi` for a value that is always correct.
    """
    key = (system.selector, check_kind(kind))
    fn = _CLOSED_FORMS.get(key)
    if fn is None:
        raise UnsupportedFormulaError(
            f"no closed form for selector {system.selector!r}, kind {kind!r}"
        )
    args = [float(v) for v in lam] + [float(v) for v in x]
    return complex(fn(*args))

