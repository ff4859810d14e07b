"""Regeneration of the tabulated normalisation coefficients and volumes.

The orthogonality relations of the orbit sums come with three families
of integer coefficients: exact stabiliser orders ``d`` (continuous
case), torus orbit sizes ``eps`` and congruence stabiliser orders ``h``
(discrete case).  Reference tables of these values exist for the five
supported groups, classified by which entries of the Kac-style label
vanish.  This module re-derives every row from the group action and
diffs it against the reference value.

A handful of reference entries are misprints; the group action is the
ground truth, so those rows are collected in :data:`KNOWN_ERRATA`
(together with the two defective a1xg2 closed forms) instead of being
silently accepted.  :func:`errata_report` produces the same information
as structured notes.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lie_data import SemisimpleSystem, UsageError, system_from_selector
from .weyl import even_subgroup, stab_order
from .grids import build_point_grid, build_weight_grid, domain_blocks, label_names
from . import efunc

#: largest modulus tried when a row's zero pattern is unrealisable at the
#: requested one (divisibility constraints such as 2*s2 = M need even M)
_FALLBACK_SPAN = 8

RANK3_GROUPS = ("a1xa2", "a1xc2", "a1xg2", "a1xa1xa1")
TWO_FACTOR_GROUPS = ("a1xa2", "a1xc2", "a1xg2")


# ---------------------------------------------------------------------------
# reference data
# ---------------------------------------------------------------------------

# weight-coordinate zero patterns -> reference d values
_T1_D = [
    ((1, 1), 1),
    ((0, 1), 1),
    ((1, 0), 1),
    ((0, 0), 2),
]

# label zero patterns over [s0, s1, s0', s2] -> reference values
_T1_EPS = [
    ((1, 1, 1, 1), 2),
    ((1, 1, 1, 0), 2),
    ((1, 1, 0, 1), 2),
    ((1, 0, 1, 1), 2),
    ((1, 0, 1, 0), 1),
    ((1, 0, 0, 1), 1),
    ((0, 1, 1, 1), 2),
    ((0, 1, 1, 0), 1),
    ((0, 1, 0, 1), 1),
]

_T1_H = [
    ((1, 1, 1, 1), 1),
    ((1, 1, 1, 0), 1),
    ((1, 1, 0, 1), 1),
    ((1, 0, 1, 1), 1),
    ((1, 0, 1, 0), 2),
    ((1, 0, 0, 1), 2),
    ((0, 1, 1, 1), 1),
    ((0, 1, 1, 0), 2),
    ((0, 1, 0, 1), 2),
]

# rows over (a, b, c); columns a1xa2, a1xc2, a1xg2, a1xa1xa1
_T2_D = [
    ((1, 1, 1), (1, 1, 1, 1)),
    ((0, 1, 1), (1, 1, 1, 1)),
    ((1, 0, 1), (1, 1, 1, 1)),
    ((1, 1, 0), (1, 1, 1, 1)),
    ((0, 0, 1), (1, 1, 1, 1)),
    ((0, 1, 0), (1, 1, 1, 1)),
    ((1, 0, 0), (3, 4, 6, 1)),
    ((0, 0, 0), (3, 4, 6, 1)),
]

_T3_D = [
    ((1, 1, 1), (1, 1, 1, 1)),
    ((0, 1, 1), (1, 1, 1, 1)),
    ((1, 0, 1), (1, 1, 1, 1)),
    ((1, 1, 0), (1, 1, 1, 1)),
    ((0, 0, 1), (2, 2, 2, 2)),
    ((0, 1, 0), (2, 2, 2, 2)),
    ((1, 0, 0), (3, 4, 6, 2)),
    ((0, 0, 0), (6, 8, 12, 4)),
]

# rows over [s0, s1, s0', s2, s3]; columns a1xa2, a1xc2, a1xg2
_T4_EPS = [
    ((1, 1, 1, 1, 1), (3, 4, 6)),
    ((1, 1, 1, 1, 0), (3, 4, 6)),
    ((1, 1, 1, 0, 1), (3, 4, 6)),
    ((1, 1, 0, 1, 1), (3, 4, 6)),
    ((1, 1, 1, 0, 0), (1, 1, 1)),
    ((1, 1, 0, 1, 0), (1, 2, 2)),
    ((1, 1, 0, 0, 1), (1, 1, 3)),
    ((1, 0, 1, 1, 1), (3, 4, 6)),
    ((1, 0, 1, 1, 0), (3, 4, 6)),
    ((1, 0, 1, 0, 1), (3, 4, 6)),
    ((1, 0, 0, 1, 1), (3, 4, 6)),
    ((1, 0, 1, 0, 0), (1, 1, 1)),
    ((1, 0, 0, 1, 0), (1, 2, 2)),
    ((1, 0, 0, 0, 1), (1, 1, 3)),
    ((0, 1, 1, 1, 1), (3, 4, 6)),
    ((0, 1, 1, 1, 0), (3, 4, 6)),
    ((0, 1, 1, 0, 1), (3, 4, 6)),
    ((0, 1, 0, 1, 1), (3, 4, 6)),
    ((0, 1, 1, 0, 0), (1, 1, 1)),
    ((0, 1, 0, 1, 0), (1, 2, 2)),
    ((0, 1, 0, 0, 1), (1, 1, 3)),
]

_T4_H = [
    ((1, 1, 1, 1, 1), (1, 1, 1)),
    ((1, 1, 1, 1, 0), (1, 1, 1)),
    ((1, 1, 1, 0, 1), (1, 1, 1)),
    ((1, 1, 0, 1, 1), (1, 1, 1)),
    ((1, 1, 1, 0, 0), (3, 4, 6)),
    ((1, 1, 0, 1, 0), (3, 4, 3)),
    ((1, 1, 0, 0, 1), (3, 2, 2)),
    ((1, 0, 1, 1, 1), (1, 1, 1)),
    ((1, 0, 1, 1, 0), (1, 1, 1)),
    ((1, 0, 1, 0, 1), (1, 1, 1)),
    ((1, 0, 0, 1, 1), (1, 1, 1)),
    ((1, 0, 1, 0, 0), (3, 4, 6)),
    ((1, 0, 0, 1, 0), (3, 4, 3)),
    ((1, 0, 0, 0, 1), (3, 2, 2)),
    ((0, 1, 1, 1, 1), (1, 1, 1)),
    ((0, 1, 1, 1, 0), (1, 1, 1)),
    ((0, 1, 1, 0, 1), (1, 1, 1)),
    ((0, 1, 0, 1, 1), (1, 1, 1)),
    ((0, 1, 1, 0, 0), (3, 4, 6)),
    ((0, 1, 0, 1, 0), (3, 4, 3)),
    ((0, 1, 0, 0, 1), (3, 2, 2)),
]

_T5_EPS = [
    ((1, 1, 1, 1, 1), (6, 8, 12)),
    ((1, 1, 1, 1, 0), (6, 8, 12)),
    ((1, 1, 1, 0, 1), (6, 8, 12)),
    ((1, 1, 0, 1, 1), (6, 8, 12)),
    ((1, 1, 1, 0, 0), (2, 2, 2)),
    ((1, 1, 0, 1, 0), (2, 4, 4)),
    ((1, 1, 0, 0, 1), (2, 2, 6)),
    ((1, 0, 1, 1, 1), (6, 8, 12)),
    ((1, 0, 1, 1, 0), (3, 4, 6)),
    ((1, 0, 1, 0, 1), (3, 4, 6)),
    ((1, 0, 0, 1, 1), (3, 4, 6)),
    ((1, 0, 1, 0, 0), (1, 1, 1)),
    ((1, 0, 0, 1, 0), (1, 2, 2)),
    ((1, 0, 0, 0, 1), (1, 1, 3)),
    ((0, 1, 1, 1, 1), (6, 8, 12)),
    ((0, 1, 1, 1, 0), (3, 4, 6)),
    ((0, 1, 1, 0, 1), (3, 4, 6)),
    ((0, 1, 0, 1, 1), (3, 4, 6)),
    ((0, 1, 1, 0, 0), (1, 1, 1)),
    ((0, 1, 0, 1, 0), (1, 2, 2)),
    ((0, 1, 0, 0, 1), (1, 1, 3)),
]

_T5_H = [
    ((1, 1, 1, 1, 1), (1, 1, 1)),
    ((1, 1, 1, 1, 0), (1, 1, 1)),
    ((1, 1, 1, 0, 1), (1, 1, 1)),
    ((1, 1, 0, 1, 1), (1, 1, 1)),
    ((1, 1, 1, 0, 0), (3, 4, 6)),
    ((1, 1, 0, 1, 0), (3, 4, 3)),
    ((1, 1, 0, 0, 1), (3, 2, 2)),
    ((1, 0, 1, 1, 1), (1, 1, 1)),
    ((1, 0, 1, 1, 0), (2, 2, 2)),
    ((1, 0, 1, 0, 1), (2, 2, 2)),
    ((1, 0, 0, 1, 1), (2, 2, 2)),
    ((1, 0, 1, 0, 0), (6, 8, 12)),
    ((1, 0, 0, 1, 0), (6, 8, 6)),
    ((1, 0, 0, 0, 1), (6, 4, 4)),
    ((0, 1, 1, 1, 1), (1, 1, 1)),
    ((0, 1, 1, 1, 0), (2, 2, 2)),
    ((0, 1, 1, 0, 1), (2, 2, 2)),
    ((0, 1, 0, 1, 1), (2, 2, 2)),
    ((0, 1, 1, 0, 0), (6, 8, 12)),
    ((0, 1, 0, 1, 0), (6, 8, 6)),
    ((0, 1, 0, 0, 1), (6, 4, 4)),
]

# rows over [s0, s1, s0', s2, s0'', s3]
_T6_EPS = [
    ((1, 1, 1, 1, 1, 1), 4),
    ((1, 1, 1, 1, 1, 0), 4),
    ((1, 1, 1, 1, 0, 1), 4),
    ((1, 1, 1, 0, 1, 1), 4),
    ((1, 1, 1, 0, 1, 0), 2),
    ((1, 1, 1, 0, 0, 1), 2),
    ((1, 1, 0, 1, 1, 1), 2),
    ((1, 1, 0, 1, 1, 0), 2),
    ((1, 1, 0, 1, 0, 1), 2),
    ((1, 0, 1, 1, 1, 1), 4),
    ((1, 0, 1, 1, 1, 0), 2),
    ((1, 0, 1, 1, 0, 1), 2),
    ((1, 0, 1, 0, 1, 1), 2),
    ((1, 0, 1, 0, 1, 0), 1),
    ((1, 0, 1, 0, 0, 1), 1),
    ((1, 0, 0, 1, 1, 1), 2),
    ((1, 0, 0, 1, 1, 0), 1),
    ((1, 0, 0, 1, 0, 1), 1),
    ((0, 1, 1, 1, 1, 1), 4),
    ((0, 1, 1, 1, 1, 0), 2),
    ((0, 1, 1, 1, 0, 1), 2),
    ((0, 1, 1, 0, 1, 1), 2),
    ((0, 1, 1, 0, 1, 0), 1),
    ((0, 1, 1, 0, 0, 1), 1),
    ((0, 1, 0, 1, 1, 1), 2),
    ((0, 1, 0, 1, 1, 0), 1),
    ((0, 1, 0, 1, 0, 1), 1),
]

_T6_H = [
    ((1, 1, 1, 1, 1, 1), 1),
    ((1, 1, 1, 1, 1, 0), 1),
    ((1, 1, 1, 1, 0, 1), 1),
    ((1, 1, 1, 0, 1, 1), 1),
    ((1, 1, 1, 0, 1, 0), 2),
    ((1, 1, 1, 0, 0, 1), 2),
    ((1, 1, 0, 1, 1, 1), 2),
    ((1, 1, 0, 1, 1, 0), 2),
    ((1, 1, 0, 1, 0, 1), 2),
    ((1, 0, 1, 1, 1, 1), 1),
    ((1, 0, 1, 1, 1, 0), 2),
    ((1, 0, 1, 1, 0, 1), 2),
    ((1, 0, 1, 0, 1, 1), 2),
    ((1, 0, 1, 0, 1, 0), 4),
    ((1, 0, 1, 0, 0, 1), 4),
    ((1, 0, 0, 1, 1, 1), 2),
    ((1, 0, 0, 1, 1, 0), 4),
    ((1, 0, 0, 1, 0, 1), 4),
    ((0, 1, 1, 1, 1, 1), 1),
    ((0, 1, 1, 1, 1, 0), 2),
    ((0, 1, 1, 1, 0, 1), 2),
    ((0, 1, 1, 0, 1, 1), 2),
    ((0, 1, 1, 0, 1, 0), 4),
    ((0, 1, 1, 0, 0, 1), 4),
    ((0, 1, 0, 1, 1, 1), 2),
    ((0, 1, 0, 1, 1, 0), 4),
    ((0, 1, 0, 1, 0, 1), 4),
]

#: table id -> (groups, kind, ((coefficient, rows), ...)); a row's
#: reference value is one int, or a tuple with one column per group
_TABLES = {
    "T1_A1A1": (("a1xa1",), "e", (("d", _T1_D), ("eps", _T1_EPS), ("h", _T1_H))),
    "T2_d_ee": (RANK3_GROUPS, "ee", (("d", _T2_D),)),
    "T3_d_e": (RANK3_GROUPS, "e", (("d", _T3_D),)),
    "T4_disk_ee": (TWO_FACTOR_GROUPS, "ee", (("eps", _T4_EPS), ("h", _T4_H))),
    "T5_disk_e": (TWO_FACTOR_GROUPS, "e", (("eps", _T5_EPS), ("h", _T5_H))),
    "T6_A1A1A1": (("a1xa1xa1",), "e", (("eps", _T6_EPS), ("h", _T6_H))),
}

TABLE_IDS = tuple(_TABLES)

#: reference fundamental-domain volumes per (selector, kind)
REFERENCE_VOLUMES = {
    ("a1xa1", "e"): 1.0,
    ("a1xa1", "ee"): 2.0,
    ("a1xa2", "e"): 1.0 / math.sqrt(6.0),
    ("a1xa2", "ee"): 2.0 / math.sqrt(6.0),
    ("a1xc2", "e"): math.sqrt(2.0) / 4.0,
    ("a1xc2", "ee"): 1.0 / math.sqrt(2.0),
    ("a1xg2", "e"): math.sqrt(6.0) / 12.0,
    ("a1xg2", "ee"): math.sqrt(6.0) / 6.0,
    ("a1xa1xa1", "e"): 1.0 / math.sqrt(2.0),
    ("a1xa1xa1", "ee"): 2.0 * math.sqrt(2.0),
}

#: reference even-group orders per selector: (|full even|, |product even|)
REFERENCE_GROUP_ORDERS = {
    "a1xa1": (2, 1),
    "a1xa2": (6, 3),
    "a1xc2": (8, 4),
    "a1xg2": (12, 6),
    "a1xa1xa1": (4, 1),
}


# ---------------------------------------------------------------------------
# row instantiation
# ---------------------------------------------------------------------------

def pattern_string(system: SemisimpleSystem, flags, prefix: str) -> str:
    names = label_names(system, prefix)
    return "[" + ",".join(n if f else "0" for n, f in zip(names, flags)) + "]"


def weight_pattern_string(flags) -> str:
    names = "abc"
    return "(" + ",".join(names[i] if f else "0" for i, f in enumerate(flags)) + ")"


def _stratum_value(system, kind, coefficient, flags, modulus):
    """eps (max) or h (min) over the grid cells whose label has the zero
    pattern ``flags``, at ``modulus`` for every block; None if none has.

    Reflected and circle cells carry the values of their unreflected
    twins, because the even subgroups are normal in the Weyl group.
    """
    ms = (modulus,) * len(domain_blocks(system, kind))
    if coefficient == "h":
        grid = build_weight_grid(system, kind, ms)
        values, pick = grid.h, np.min
    else:
        grid = build_point_grid(system, kind, ms)
        values, pick = grid.eps, np.max
    picked = values[((grid.labels != 0) == np.array(flags, dtype=bool)).all(axis=1)]
    return int(pick(picked)) if len(picked) else None


def _compute_d(system, kind, flags):
    """Generic exact stabiliser order for a weight zero-pattern."""
    group = even_subgroup(system, kind)
    best = None
    for values in itertools.permutations((1, 2, 3), len(flags)):
        weight = tuple(v if f else 0 for v, f in zip(values, flags))
        value = stab_order(group, weight)
        best = value if best is None else min(best, value)
    return best


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    coefficient: str  # "d", "eps" or "h"
    pattern: str
    group: str
    reference: int
    computed: int | None
    modulus: int | None
    status: str  # "match", "mismatch" or "skipped"


@dataclass(frozen=True)
class TableReport:
    table_id: str
    modulus: int
    rows: tuple[TableRow, ...]

    @property
    def mismatches(self):
        return tuple(r for r in self.rows if r.status == "mismatch")

    @property
    def skipped(self):
        return tuple(r for r in self.rows if r.status == "skipped")


def _regenerate_rows(selector, kind, coefficient, rows, column, modulus):
    system = system_from_selector(selector)
    out = []
    for flags, values in rows:
        reference = values if isinstance(values, int) else values[column]
        computed = used = None
        if coefficient == "d":
            computed = _compute_d(system, kind, flags)
            pattern = weight_pattern_string(flags)
        else:
            for m in range(modulus, modulus + _FALLBACK_SPAN + 1):
                computed = _stratum_value(system, kind, coefficient, flags, m)
                if computed is not None:
                    used = m
                    break
            pattern = pattern_string(system, flags, "t" if coefficient == "h" else "s")
        if computed is None:
            status = "skipped"
        elif computed == reference:
            status = "match"
        else:
            status = "mismatch"
        out.append(TableRow(coefficient, pattern, selector, reference, computed, used, status))
    return out


def regenerate_table(table_id: str, m: int = 5) -> TableReport:
    """Recompute one reference table from the group action.

    ``m`` is the base modulus for the discrete tables; rows whose zero
    pattern is unrealisable at ``m`` (divisibility constraints) are
    retried at the next few moduli, recorded in the row.
    """
    if table_id not in TABLE_IDS:
        raise UsageError(f"unknown table id {table_id!r}; known: {TABLE_IDS}")
    try:
        m = operator.index(m)
    except TypeError:
        raise UsageError(f"m must be an integer, got {m!r}") from None
    if m < 5:
        raise UsageError("discrete tables need m >= 5 to realise all patterns")
    groups, kind, coefficients = _TABLES[table_id]
    rows = []
    for column, selector in enumerate(groups):
        for coefficient, table in coefficients:
            rows += _regenerate_rows(selector, kind, coefficient, table, column, m)
    return TableReport(table_id, m, tuple(rows))


# ---------------------------------------------------------------------------
# errata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrataNote:
    location: str
    reference: object
    computed: object
    deviation: float | None


#: reference-table rows whose tabulated value contradicts the group
#: action, keyed (table_id, coefficient, group, pattern); the value pair
#: is (tabulated, recomputed).  Populated from the regeneration run and
#: pinned by the test-suite.
KNOWN_ERRATA: dict[tuple[str, str, str, str], tuple[int, int]] = {
    ("T4_disk_ee", "eps", "a1xg2", "[s0,s1,0,s2,0]"): (2, 3),
    ("T4_disk_ee", "eps", "a1xg2", "[s0,s1,0,0,s3]"): (3, 2),
    ("T4_disk_ee", "eps", "a1xg2", "[s0,0,0,s2,0]"): (2, 3),
    ("T4_disk_ee", "eps", "a1xg2", "[s0,0,0,0,s3]"): (3, 2),
    ("T4_disk_ee", "eps", "a1xg2", "[0,s1,0,s2,0]"): (2, 3),
    ("T4_disk_ee", "eps", "a1xg2", "[0,s1,0,0,s3]"): (3, 2),
    ("T5_disk_e", "eps", "a1xg2", "[s0,s1,0,s2,0]"): (4, 6),
    ("T5_disk_e", "eps", "a1xg2", "[s0,s1,0,0,s3]"): (6, 4),
    ("T5_disk_e", "eps", "a1xg2", "[s0,0,0,s2,0]"): (2, 3),
    ("T5_disk_e", "eps", "a1xg2", "[s0,0,0,0,s3]"): (3, 2),
    ("T5_disk_e", "eps", "a1xg2", "[0,s1,0,s2,0]"): (2, 3),
    ("T5_disk_e", "eps", "a1xg2", "[0,s1,0,0,s3]"): (3, 2),
    ("T6_A1A1A1", "eps", "a1xa1xa1", "[s0,s1,0,s2,s0'',s3]"): (2, 4),
    ("T6_A1A1A1", "h", "a1xa1xa1", "[t0,t1,0,t2,t0'',t3]"): (2, 1),
}

#: (selector, kind) pairs whose tabulated closed form deviates from the
#: generic orbit sum: those outside ``efunc.TRUSTED_CLOSED_FORMS``
CLOSED_FORM_ERRATA = tuple(k for k in efunc._CLOSED_FORMS if k not in efunc.TRUSTED_CLOSED_FORMS)

#: the published generic full-even a1xg2 orbit listing mixes coordinates
#: across the two factors in its sixth pair; the generated matrix group
#: is authoritative (see tests for the pinned orbit)
ORBIT_LISTING_ERRATA = (
    ErrataNote(
        location="orbit listing a1xg2:e",
        reference="(-a, +/-(2b+c), -/+(3a+2b))",
        computed="(-a, +/-(2b+c), -/+(3b+2c))",
        deviation=None,
    ),
)


def _random_rational(rng: random.Random) -> Fraction:
    den = rng.choice([2, 3, 4, 5, 6, 7, 8, 12])
    return Fraction(rng.randrange(-2 * den, 2 * den + 1), den)


#: points in the sweep of :func:`closed_form_deviation`, and the seed of its draws
_DEVIATION_TRIALS = 40
_DEVIATION_SEED = 7


def closed_form_deviation(selector: str, kind: str) -> float:
    """Max |closed form - generic orbit sum| over a deterministic sweep."""
    system = system_from_selector(selector)
    rng = random.Random((_DEVIATION_SEED, selector, kind).__repr__())
    worst = 0.0
    for _ in range(_DEVIATION_TRIALS):
        lam = tuple(rng.randrange(-3, 4) for _ in range(system.n))
        x = tuple(_random_rational(rng) for _ in range(system.n))
        dev = abs(efunc.xi_closed(system, kind, lam, x) - efunc.xi(system, kind, lam, x))
        worst = max(worst, dev)
    return worst


def errata_report(m: int = 5) -> list[ErrataNote]:
    """Structured notes for every reference entry the computation refutes."""
    reports = [regenerate_table(table_id, m) for table_id in TABLE_IDS]
    notes = list(ORBIT_LISTING_ERRATA)
    for selector, kind in sorted(efunc._CLOSED_FORMS):
        dev = closed_form_deviation(selector, kind)
        if dev > 1e-10:
            notes.append(
                ErrataNote(
                    location=f"closed form {selector}:{kind}",
                    reference="tabulated closed form",
                    computed="generic orbit sum",
                    deviation=dev,
                )
            )
    for report in reports:
        for row in report.mismatches:
            notes.append(
                ErrataNote(
                    location=f"{report.table_id} {row.coefficient} {row.group} {row.pattern}",
                    reference=row.reference,
                    computed=row.computed,
                    deviation=None,
                )
            )
    return notes
