"""Orbit sums of even Weyl groups (E-functions).

``xi`` is the normalised orbit sum over all elements of the selected
even group: the stabiliser order times the sum over the distinct orbit
members.  ``xi`` pairs on the point's Smith key (:mod:`eweyl.weyl`) in
plain Python ints and turns each residue into a phasor with
:func:`eweyl.lie_data.residue_phasor`; the ``Fraction`` sum of
``exp_phase`` terms it replaces lives on in the tests as the reference
that ``xi`` and ``orbit_sums`` match bit for bit.  ``xi`` keeps the last
point's key, so ``interpolate`` keys its point once per series, and from
the series' second weight on each term is one integer dot of three
entries, the largest rank, with a covector reduced mod ``n``, plus the phasor.
``scaled_orbit_sums`` evaluates ``xi`` for many weights at many points,
given as integer numerators over one denominator, and ``orbit_sums``
scales its ``Fraction`` points once and does the same.  Both call the orbit-sum
kernel, the only batch reader of keys (:func:`eweyl.weyl.smith_keys`).

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
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lie_data import SemisimpleSystem, TorusPoint, Weight, residue_phasor
from .weyl import (
    _integer_weight,
    _magnitude,
    _scaled,
    _smith_key,
    check_kind,
    int_dtype,
    integer_rows,
    length_error,
    smith_form,
    smith_keys,
)


class UnsupportedFormulaError(ValueError):
    """No closed form is available for the requested system and kind."""


#: the point of the last ``xi`` call: ``(x, system, kind, form, key, n, rows)``,
#: ``rows`` its covectors once folded.
#: ``x`` is held, not its ``id``, so no later tuple can pass for it; the slot
#: is replaced as one tuple, so a thread reads one point's fields together.
_slot = None

#: zeros that pad a covector or weight of rank 1-3 to three entries
_PAD = (None, (0, 0), (0,), ())

#: the factor of :func:`eweyl.lie_data.residue_phasor`'s exponent
_TAU = 2j * math.pi


def xi(system: SemisimpleSystem, kind: str, lam: Weight, x: TorusPoint) -> complex:
    """Sum of ``exp(2 pi i <w lam, x>)`` over the whole even group.

    The point's key ``K`` (:func:`eweyl.weyl.smith_keys`, here computed
    for the one point in plain Python ints) and ``n = L D`` turn each pairing
    into the integer ``k = (diag(D / d) V^T w lam) . K``, and each term
    is ``residue_phasor(k, n)``.  Terms are accumulated in the canonical
    group-element order, so the result is bitwise reproducible and
    equal to the ``Fraction`` sum of ``exp_phase`` terms, which the
    tests keep as the reference.  Coordinates are ints or fractions;
    anything else is a :class:`UsageError`.

    A series evaluated weight by weight at one point pays for the point
    once: the last point's key is kept, and is reused when the next call
    passes the very same tuple object ``x`` with the same ``system``
    object and kind.  From the second such call on, ``K`` is folded into
    one covector per group element, reduced mod ``n``.  The covectors and
    ``lam`` are padded with zeros to three entries, the largest rank
    (:func:`eweyl.lie_data.assemble_system`), so each term is one dot of
    three ints and ``residue_phasor``'s own expression, written out.  A
    call that raises leaves the kept point as it was.
    """
    global _slot
    x = tuple(x)
    slot = _slot
    if slot is not None and slot[0] is x and slot[1] is system and slot[2] == kind:
        n, rows, dim = slot[5], slot[6], system.n
        if rows is None:
            # r[j] = sum_i P_ij K_i mod n, so that (P lam) . K = r . lam mod n
            form, key = slot[3], slot[4]
            rows = [(*[sum(map(operator.mul, key, flat[j::dim])) % n for j in range(dim)],
                     *_PAD[dim]) for flat in form.pairing]
            _slot = slot[:6] + (rows,)
        try:
            ints = map(operator.index, lam)
            # padded like the rows, so a wrong length fails to unpack
            a, b, c = ints if dim == 3 else (*ints, *_PAD[dim])
        except (TypeError, ValueError):
            _integer_weight(system, lam)
            raise length_error(system) from None  # an iterator, part consumed above
        # residue_phasor(r . lam, n), written out
        exp, tau, total = cmath.exp, _TAU, 0j
        for r0, r1, r2 in rows:
            total += exp(tau * (((r0 * a + r1 * b + r2 * c) % n) / n))
        return total
    lam = _integer_weight(system, lam)
    if len(x) != system.n:
        raise length_error(system)
    form = smith_form(system, check_kind(kind), False)
    key, n = _smith_key(form, x)
    _slot = (x, system, kind, form, key, n, None)
    # (P lam) . K = sum_ij P_ij K_i lam_j, one flat product per element
    outer = [a * b for a in key for b in lam]
    total = 0j
    for flat in form.pairing:
        total += residue_phasor(sum(map(operator.mul, flat, outer)), n)
    return total


def orbit_sums(system: SemisimpleSystem, kind: str, weights, points) -> np.ndarray:
    """``xi`` of every weight (rows) at every point (columns).

    ``weights`` is a sequence of integer weights and ``points`` a
    sequence of points with ``int`` or ``Fraction`` coordinates.

    The points are scaled once to integer numerators over the lcm ``L``
    of their denominators, and :func:`scaled_orbit_sums` pairs those.
    """
    if any(len(v) != system.n for v in points):
        raise length_error(system)
    numerators, lcm = _scaled([v for p in points for v in p])
    numerators = np.array(numerators, dtype=object).reshape(len(points), system.n)
    return scaled_orbit_sums(system, kind, weights, numerators, lcm)


def scaled_orbit_sums(system: SemisimpleSystem, kind: str, weights, numerators, lcm: int):
    """:func:`orbit_sums` at the points ``numerators / lcm``, with no ``Fraction``.

    ``numerators`` holds integer rows (:func:`eweyl.weyl.integer_rows`).
    Each pairing is the exact residue ``k`` of :func:`xi`, keyed per batch
    by :func:`eweyl.weyl.smith_keys`, so the result is ``xi``'s bit for bit.
    """
    return _orbit_sum_kernel(system, kind, weights, lcm)(integer_rows(system, numerators))


#: largest key modulus whose phasors are tabulated for every residue
_TABLE_MAX = 2**16


def _orbit_sum_kernel(system: SemisimpleSystem, kind: str, weights, lcm: int):
    """:func:`orbit_sums` of ``weights`` as a function of numerator rows over ``lcm``.

    The set-up, done once here, is the weights (an int64 array kept as it
    is, any other sequence checked weight by weight), each element's
    ``P^T`` for its pairing image ``P = diag(D / d) V^T w`` and a dtype
    bound.  Each call of the result keys only the rows it is given, so
    blocks of rows share the set-up and no key outlives its block, and
    pairs ``k = lam . (P^T K)``.  The residues are int64 when the bound
    proves they fit and exact Python ints otherwise; int64 residues and
    their phasors go to two buffers that every call reuses, the phasors
    read from a table of every residue mod ``n``, built on first use.
    """
    form = smith_form(system, check_kind(kind), False)
    dim = system.n
    n = operator.index(lcm) * form.lcm
    if isinstance(weights, np.ndarray) and weights.dtype == np.int64 and weights.ndim == 2:
        if weights.shape[1] != dim:
            raise length_error(system)
        lam = weights
    else:
        weights = [_integer_weight(system, v) for v in weights]
        lam = np.array(weights, dtype=object).reshape(len(weights), dim)
    pairs = [np.array(flat, dtype=object).reshape(dim, dim).T for flat in form.pairing]
    # keys are residues below n: |(P^T K)_j| <= n sum_i |P_ij|, and |k| <= dim max|lam| that
    spread = n * max(abs(p).sum(axis=1).max() for p in pairs)
    dtype = int_dtype(max(dim * _magnitude(lam), 1) * spread)
    lam = lam.astype(dtype, copy=False)
    pairs = [p.astype(dtype) for p in pairs]
    phasor = lru_cache(maxsize=None)(lambda k: residue_phasor(k, n))
    # block-sized temporaries made anew cost more in page faults than the sums
    scratch = []
    table = None

    def sums(numerators) -> np.ndarray:
        nonlocal table
        cols = smith_keys(system, numerators, lcm).astype(dtype, copy=False)
        total = np.zeros((len(lam), cols.shape[1]), dtype=complex)
        if dtype is np.int64 and n <= min(total.size, _TABLE_MAX):
            if table is None:
                table = np.fromiter((residue_phasor(k, n) for k in range(n)), complex, n)
            if not scratch or scratch[0].size < total.size:
                scratch[:] = np.empty(total.size, dtype=np.int64), np.empty(total.size, complex)
            k, term = (a[:total.size].reshape(total.shape) for a in scratch)
            for p in pairs:
                np.matmul(lam, p @ cols, out=k)
                k %= n
                # "wrap" is the identity on reduced residues and, unlike "raise", is unbuffered
                total += table.take(k, out=term, mode="wrap")
            return total
        for p in pairs:
            k = lam @ (p @ cols) % n
            seen = np.unique(k)
            table = np.array([phasor(v) for v in seen.tolist()], dtype=complex)
            total += table[np.searchsorted(seen, k)]
        return total

    return sums


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


#: the weight of the last ``xi_closed`` call: ``(lam, system, kind, fn, floats)``,
#: kept only for a tuple of ints, which no later call can change
_closed_slot = None


def xi_closed(system: SemisimpleSystem, kind: str, lam: Weight, x: TorusPoint) -> complex:
    """Evaluate the tabulated closed form for this system and kind.

    Raises :class:`UnsupportedFormulaError` when no closed form is
    tabulated.  The two a1xg2 forms reproduce their misprints; use
    :func:`xi` for a value that is always correct.  The weight is checked
    as :func:`xi` checks it.  As in :func:`xi`, the last weight is kept:
    a call that passes the very same tuple object ``lam``, the same
    ``system`` object and an equal kind reuses its closed form and floats.
    """
    global _closed_slot
    slot = _closed_slot
    if slot is None or slot[0] is not lam or slot[1] is not system or slot[2] != kind:
        try:
            fn = _CLOSED_FORMS[system.selector, kind]
        except (KeyError, TypeError):
            check_kind(kind)
            raise UnsupportedFormulaError(
                f"no closed form for selector {system.selector!r}, kind {kind!r}"
            ) from None
        slot = (lam, system, kind, fn, tuple(map(float, _integer_weight(system, lam))))
        if type(lam) is tuple and all(type(v) is int for v in lam):
            _closed_slot = slot
    if len(x) != system.n:
        raise length_error(system)
    return complex(slot[3](*slot[4], *map(_float, x)))


def _float(v) -> float:
    """``float(v)``; a ``Fraction`` of two ints skips ``numbers.Rational.__float__``.

    That method is ``int(numerator) / int(denominator)``, so the division
    here is the same correctly rounded double.  A ``Fraction`` of numpy
    integers keeps ``float(v)``: numpy would divide two rounded doubles.
    """
    if type(v) is Fraction:
        num, den = v.numerator, v.denominator
        if type(num) is int and type(den) is int:
            return num / den
    return float(v)

