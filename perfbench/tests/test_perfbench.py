"""Tests of the benchmark itself: statistics, self times, gates, inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common as C  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, aggregate, covered, instrument, self_times  # noqa: E402

E = C.import_library()


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (10_000, 99.9), (9_999, 99), (1_000, 99), (999, 90), (100, 90), (99, 50), (20, 50), (19, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want):
    got = C.tail_percentile(n)
    assert (None if got is None else float(got)) == want


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert C.percentile(values, 50) == 500
    assert C.percentile(values, 99) == 990
    assert C.percentile(values, C.tail_percentile(len(values))) == 990
    assert C.percentile([3.0], 99) == 3.0
    assert C.percentile_label(99) == "p99" and C.percentile_label(C.Fraction(999, 10)) == "p999"


def test_latency_summary_names_the_rule_chosen_tail():
    assert set(C.latency_summary("transform_ms", [0.001] * 1000)) == {
        "transform_ms_p50", "transform_ms_p99", "transform_ms_samples"}
    assert set(C.latency_summary("interp_ms", [0.01] * 150)) == {
        "interp_ms_p50", "interp_ms_p90", "interp_ms_samples"}


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def span(i, name, start, end, parent=None, run="r", case="c", **extra):
    return dict(id=i, name=name, start=start, end=end, parent=parent, run=run, case=case, **extra)


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered(2, 6, [(0, 3), (5, 9)]) == 2


def test_self_time_subtracts_only_direct_children():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "mid", 1.0, 6.0, parent=0),
        span(2, "leaf", 2.0, 5.0, parent=1),
        span(3, "mid", 7.0, 9.0, parent=0),
        span(0, "outer", 0.0, 4.0, run="other"),
    ]
    selves = self_times(spans)
    assert selves[("r", 0)] == pytest.approx(3.0)   # 10 - (5 + 2)
    assert selves[("r", 1)] == pytest.approx(2.0)   # 5 - 3
    assert selves[("r", 2)] == pytest.approx(3.0)
    assert selves[("other", 0)] == pytest.approx(4.0)
    assert aggregate(spans, "mid", "c", "per_call") == pytest.approx(2.0)
    assert aggregate(spans, "mid", "c", "run_total") == pytest.approx(4.0)
    assert aggregate(spans, "outer", "c", "run_total") == pytest.approx(3.5)  # median of 3 and 4
    assert aggregate(spans, "mid", "c", "calls") == 2
    assert aggregate(spans, "missing", "c", "run_total") is None


def test_tracer_nests_inherits_case_and_coalesces():
    tracer = Tracer("t/0")

    def leaf(x):
        return [x] * 3

    def outer(system, kind, ms):
        return [traced_leaf(k) for k in range(2)] + [f(k) for k in range(5)]

    traced_leaf = tracer.wrap(leaf, "leaf", None, len)
    f = tracer.coalesced(lambda k: k, "f")

    class System:
        selector = "a1xa1"

    from tracing import case_of_args
    tracer.wrap(outer, "outer", case_of_args)(System(), "e", 3)
    spans = tracer.finish()
    names = [s["name"] for s in spans]
    assert names == ["outer", "leaf", "leaf", "f"]
    assert all(s["case"] == "a1xa1-e-3" for s in spans)
    assert [s["parent"] for s in spans] == [None, 0, 0, 0]
    assert spans[1]["size"] == 3 and spans[3]["calls"] == 5
    assert spans[3]["end"] - spans[3]["start"] <= spans[0]["end"] - spans[0]["start"]
    assert aggregate(spans, "f", "a1xa1-e-3", "calls") == 5


def test_missing_non_exported_function_is_reported_absent():
    tracer = Tracer("t/0")
    targets = (("eweyl.transform", "no_such_kernel", "transform.no_such_kernel", None, None),
               ("eweyl.no_such_module", "phase_matrix", "x.phase_matrix", None, None))
    assert instrument(tracer, E, targets) == ["transform.no_such_kernel", "x.phase_matrix"]


# ---------------------------------------------------------------------------
# gates: an injected wrong result is a failure
# ---------------------------------------------------------------------------

def perturb_first(values):
    return (values[0] + 1e-6,) + tuple(values[1:])


@pytest.fixture
def small_cases(monkeypatch):
    monkeypatch.setattr(C, "WARM_CASES", (("a1xa1", "e", (3,)),))
    monkeypatch.setattr(C, "INTERP_CASES", (("a1xc2", "ee", (2, 2)),))


def test_warm_round_trip_gate_counts_a_perturbed_coefficient(small_cases, monkeypatch):
    tally = C.Tally()
    wl = child.WarmTransform(E, 5, tally)
    wl.setup()
    wl.op(0)
    assert (tally.attempted, tally.failed) == (1, 0)

    real = E.forward_discrete

    def wrong_forward(samples):
        c = real(samples)
        return E.CoefficientSet(c.system, c.kind, c.ms, c.spectrum, perturb_first(c.values))

    monkeypatch.setattr(E, "forward_discrete", wrong_forward)
    wl.op(1)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.misses[0].startswith("round trip a1xa1-e-3")


def test_grid_point_interpolation_gate_counts_a_perturbed_coefficient(small_cases):
    tally = C.Tally()
    wl = child.Interpolate(E, 5, tally)
    wl.setup()
    system, grid, values, coeffs, name = wl.cases[0]
    wl.op(0)  # i = 0 is a grid point
    assert (tally.attempted, tally.failed) == (1, 0)
    wl.cases[0] = (system, grid, values,
                   E.CoefficientSet(coeffs.system, coeffs.kind, coeffs.ms, coeffs.spectrum,
                                    perturb_first(coeffs.values)), name)
    wl.op(10)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_continuous_gate_counts_a_wrong_coefficient(monkeypatch):
    monkeypatch.setattr(C, "CONTINUOUS_CASES", (("a1xa1", "e", 16, 1),))
    tally = C.Tally()
    wl = child.Continuous(E, 5, tally)
    wl.setup()
    wl.op(0)
    assert (tally.attempted, tally.failed) == (1, 0)
    real = E.continuous_coefficients

    def wrong(*args, **kwargs):
        cc = real(*args, **kwargs)
        return E.ContinuousCoefficients(cc.system, cc.kind, cc.bound, cc.weights,
                                        perturb_first(tuple(v + 1e-2 for v in cc.values)),
                                        cc.stabilizers)

    monkeypatch.setattr(E, "continuous_coefficients", wrong)
    wl.op(1)
    assert (tally.attempted, tally.failed) == (2, 1)


class FakeProc:
    code = 0
    stderr = ""


def test_cli_gates_count_failed_verify_and_unknown_errata(tmp_path):
    s = run.CliSession(1, tmp_path)
    ok_verify = "gram residual      1.0e-13\n  round-trip error   1.0e-15\nPASS\n"
    s.gate([("verify-a1xa1-e-12", FakeProc(), ok_verify)])
    s.gate([("verify-a1xa1-e-12", FakeProc(), ok_verify.replace("PASS", "FAIL"))])
    tables_ok = ("T5_disk_e: 126 rows, 120 match, 6 known errata, 0 unexpected, 0 skipped\n"
                 "  [errata] eps a1xg2 [s0,s1,0,s2,0]: tabulated 4, computed 6\n")
    s.gate([("tables", FakeProc(), tables_ok)])
    s.gate([("tables", FakeProc(), tables_ok.replace("computed 6", "computed 5"))])
    assert (s.tally.attempted, s.tally.failed) == (4, 2)
    assert s.accuracy["gram_residual_rel"] == pytest.approx(1.0e-13 / s.largest_normaliser("a1xa1-e-12"))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

class Recorder:
    """Stands in for the library and records every input it is handed."""

    def __init__(self):
        self.seen = []

    def interpolate(self, coeffs, x):
        self.seen.append(("interpolate", tuple(str(c) for c in x)))
        return 0j


def interp_inputs(seed):
    wl = child.Interpolate(Recorder(), seed, C.Tally())
    wl.cases = [(type("S", (), {"n": 3})(), [type("G", (), {"point": (1, 2, 3)})()] * 5,
                 [0j] * 5, None, "case")]
    for i in range(40):
        wl.op(i)
    return repr(wl.E.seen).encode()


def test_same_seed_gives_identical_inputs_and_another_seed_differs(tmp_path):
    def cli_inputs(seed, where):
        where.mkdir()
        s = run.CliSession(seed, where)
        s.prepare()
        return (where / "samples.csv").read_bytes() + repr(s.commands()).encode()

    assert cli_inputs(3, tmp_path / "a") == cli_inputs(3, tmp_path / "b")
    assert cli_inputs(3, tmp_path / "a2") != cli_inputs(4, tmp_path / "c")
    assert interp_inputs(3) == interp_inputs(3) != interp_inputs(4)
    warm = [C.random_values(C.rng_for(s, "warm-transform"), 8) for s in (3, 3, 4)]
    assert warm[0] == warm[1] != warm[2]


def test_cli_commands_never_pass_threads(tmp_path):
    s = run.CliSession(0, tmp_path)
    s.interp_point = ["-1/2", "0/1", "1/4"]
    s.interp_want = 0j
    argvs = [a for _, argv in s.commands() for a in argv]
    assert "--threads" not in argvs
    assert "EWEYL_THREADS" not in C.child_env()
    assert all(C.child_env()[v] == "1" for v in C.BLAS_THREAD_VARS)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the missing-source contract
# ---------------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(C.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in C.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m["name"], m["unit"], m["better"]) for m in C.per_layer_catalogue()]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for k in ("end_to_end", "per_layer") for m in spec[k])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert C.TABLE_IDS == E.TABLE_IDS


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "continuous", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
