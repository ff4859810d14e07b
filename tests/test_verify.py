import numpy as np
import pytest

import eweyl as E
from eweyl.verify import (
    CLOSED_FORM_ERRATA,
    KNOWN_ERRATA,
    REFERENCE_VOLUMES,
    closed_form_deviation,
    errata_report,
    regenerate_table,
)


def test_volumes_match_reference():
    for (sel, kind), want in REFERENCE_VOLUMES.items():
        system = E.system_from_selector(sel)
        got = E.volume(system, kind)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_group_orders_match_reference():
    for sel, (oe, oee) in E.REFERENCE_GROUP_ORDERS.items():
        system = E.system_from_selector(sel)
        assert E.even_subgroup(system, "e").order == oe
        assert E.even_subgroup(system, "ee").order == oee


def test_regenerate_rejects_bad_input():
    with pytest.raises(ValueError):
        regenerate_table("T9_bogus")
    with pytest.raises(ValueError):
        regenerate_table("T1_A1A1", 3)


def test_table_modulus_must_be_an_integer():
    for m in (5.5, "5"):
        with pytest.raises(E.UsageError, match="m must be an integer"):
            regenerate_table("T1_A1A1", m)
        with pytest.raises(E.UsageError, match="m must be an integer"):
            errata_report(m)
    assert regenerate_table("T1_A1A1", np.int64(5)) == regenerate_table("T1_A1A1", 5)
    assert errata_report(np.int64(5)) == errata_report(5)


def test_closed_form_errata_are_the_untrusted_forms():
    assert CLOSED_FORM_ERRATA == (("a1xg2", "ee"), ("a1xg2", "e"))
    assert not set(CLOSED_FORM_ERRATA) & E.TRUSTED_CLOSED_FORMS


def test_continuous_tables_match_exactly():
    for tid in ("T1_A1A1", "T2_d_ee", "T3_d_e"):
        report = regenerate_table(tid, 5)
        assert not report.mismatches
        assert not report.skipped


def test_t3_bottom_row_values():
    report = regenerate_table("T3_d_e", 5)
    bottom = {r.group: r.computed for r in report.rows if r.pattern == "(0,0,0)"}
    assert bottom == {"a1xa2": 6, "a1xc2": 8, "a1xg2": 12, "a1xa1xa1": 4}


def test_discrete_tables_mismatches_are_known_errata():
    for tid in ("T4_disk_ee", "T5_disk_e", "T6_A1A1A1"):
        report = regenerate_table(tid, 5)
        assert not report.skipped
        for row in report.mismatches:
            key = (tid, row.coefficient, row.group, row.pattern)
            assert key in KNOWN_ERRATA, f"unexpected mismatch {key}"
            assert KNOWN_ERRATA[key] == (row.reference, row.computed)


def test_every_known_erratum_is_detected():
    reports = {tid: regenerate_table(tid, 5) for tid in E.TABLE_IDS}
    seen = {
        (tid, r.coefficient, r.group, r.pattern): (r.reference, r.computed)
        for tid, rep in reports.items()
        for r in rep.mismatches
    }
    assert seen == KNOWN_ERRATA


def test_t5_sample_row_and_fallback_modulus():
    report = regenerate_table("T5_disk_e", 5)
    rows = {
        (r.coefficient, r.group, r.pattern): r for r in report.rows
    }
    # [s0,s1,0,s2,0] for a1xc2 needs 2*s2 = M, hence the even fallback
    row = rows[("eps", "a1xc2", "[s0,s1,0,s2,0]")]
    assert row.modulus == 6
    assert row.status == "match" and row.computed == 4
    # the g2 column of the same row is one of the known errata
    row_g2 = rows[("eps", "a1xg2", "[s0,s1,0,s2,0]")]
    assert row_g2.status == "mismatch"
    assert (row_g2.reference, row_g2.computed) == (4, 6)


def test_closed_form_deviations():
    assert closed_form_deviation("a1xa1", "e") < 1e-12
    assert closed_form_deviation("a1xa1", "ee") < 1e-12
    assert closed_form_deviation("a1xg2", "e") > 1e-3
    assert closed_form_deviation("a1xg2", "ee") > 1e-3


def test_errata_report_contents():
    notes = errata_report()
    locations = [n.location for n in notes]
    assert "orbit listing a1xg2:e" in locations
    for sel, kind in CLOSED_FORM_ERRATA:
        assert f"closed form {sel}:{kind}" in locations
    assert not any("a1xa1" in loc and "closed form" in loc for loc in locations)
    table_notes = [
        n for n in notes
        if not n.location.startswith(("closed form", "orbit listing"))
    ]
    assert len(table_notes) == len(KNOWN_ERRATA)
    for note in table_notes:
        tid, coeff, group, pattern = note.location.split(" ")
        assert KNOWN_ERRATA[(tid, coeff, group, pattern)] == (
            note.reference,
            note.computed,
        )
