import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import eweyl as E
from eweyl.cli import run
from eweyl.grids import in_even_domain, label_names
from conftest import no_grid_items
from fractions import Fraction as Q


def test_list_groups(capsys):
    assert run(["list-groups"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert out[0].startswith("a1xa1 ")


def test_bad_inputs_exit_2(capsys, tmp_path):
    assert run(["grid", "--group", "b2xb2", "--kind", "e", "--M", "2"]) == 2
    assert run(["grid", "--group", "a1xa2", "--kind", "e", "--M", "2", "2"]) == 2
    assert run(["grid", "--group", "a1xa2", "--kind", "ee", "--M", "2"]) == 2
    assert run(["grid", "--group", "a1xa2", "--kind", "e", "--M", "0"]) == 2
    assert run(["eval", "--group", "a1xa1", "--kind", "e", "--lambda", "1",
                "--point", "1/3", "1/2"]) == 2  # wrong lambda length
    assert run(["nonsense"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["inverse", "--coeffs", str(bad)]) == 2
    assert run(["--threads", "2", "list-groups"]) == 2  # the knob is gone
    capsys.readouterr()

    # malformed or non-finite file contents and out-of-range options:
    # exit 2 with one error line, never a traceback
    grid = E.build_point_grid(E.system_from_selector("a1xa1"), "e", 2)
    rows = [[str(v) for v in gp.label] + ["0.5", "0.0"] for gp in grid]

    def samples_with(*head):
        path = tmp_path / "samples.csv"
        lines = ["s0,s1,s0',s2,re,im"] + [",".join(r) for r in [*head, *rows[1:]]]
        path.write_text("\n".join(lines) + "\n")
        return ["forward", "--group", "a1xa1", "--kind", "e", "--M", "2",
                "--samples", str(path)]

    def coeffs_with(**changes):
        path = tmp_path / "coeffs.json"
        spectrum = E.build_weight_grid(E.system_from_selector("a1xa1"), "e", 2)
        entries = [{"t": list(sp.label), "re": 0.5, "im": 0.0} for sp in spectrum]
        payload = {"group": "a1xa1", "kind": "e", "M": [2], "entries": entries}
        entry = changes.pop("entry", None)
        if entry is not None:
            entries[0] = entry
        payload.update(changes)
        path.write_text(json.dumps(payload))
        return ["inverse", "--coeffs", str(path)]

    label = rows[0][:-2]
    t0 = list(E.build_weight_grid(E.system_from_selector("a1xa1"), "e", 2)[0].label)
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"group": "a1xa1", "kind": "é"}'.encode("latin-1"))
    for argv in [
        ["forward", "--group", "a1xa1", "--kind", "e", "--M", "2", "--samples", str(tmp_path)],
        ["grid", "--group", "a1xa1", "--kind", "e", "--M", "2", "--out", str(tmp_path)],
        ["inverse", "--coeffs", str(not_utf8)],
        samples_with(label + ["abc", "0.0"]),
        samples_with(label + ["0.5", "x"]),
        samples_with(["one"] + label[1:] + ["0.5", "0.0"]),
        samples_with(label + ["nan", "0.0"]),
        samples_with(label + ["0.5", "inf"]),
        samples_with(),  # one row short
        coeffs_with(entry={"re": 0.5, "im": 0.0}),
        coeffs_with(entry={"t": t0, "im": 0.0}),
        coeffs_with(entry={"t": t0, "re": 0.5}),
        coeffs_with(entry={"t": t0, "re": "abc", "im": 0.0}),
        coeffs_with(entry={"t": t0, "re": float("nan"), "im": 0.0}),
        coeffs_with(entry={"t": t0, "re": 0.5, "im": float("-inf")}),
        coeffs_with(M=["x"]),
        coeffs_with(M=[2.5]),
        coeffs_with(entries=5),
        coeffs_with(entries=[]),
        ["tables", "--M", "3"],
        ["eval", "--group", "a1xa1", "--kind", "e", "--lambda", "1", "1",
         "--label", "4", "-1", "5", "-2", "--M", "3"],
        ["contour", "--group", "a1xa1", "--kind", "e", "--lambda", "1", "1",
         "--samples-per-axis", "0"],
        ["contour", "--group", "a1xa1", "--kind", "e", "--lambda", "1", "1",
         "--samples-per-axis", "100000"],
        ["verify", "--group", "a1xa1", "--kind", "e", "--M", "3", "--trials", "-2"],
    ]:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)


def test_grid_csv(capsys):
    assert run(["grid", "--group", "a1xa2", "--kind", "e", "--M", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    system = E.system_from_selector("a1xa2")
    grid = E.build_point_grid(system, "e", 3)
    assert len(lines) == len(grid) + 1
    assert lines[0] == "s0,s1,s0',s2,s3,x1,x2,x3,eps"
    first = lines[1].split(",")
    assert first[:5] == [str(v) for v in grid[0].label]
    assert "/" in first[5]


def test_grid_deterministic(capsys):
    run(["grid", "--group", "a1xc2", "--kind", "ee", "--M", "2", "3"])
    first = capsys.readouterr().out
    run(["grid", "--group", "a1xc2", "--kind", "ee", "--M", "2", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_spectrum_csv(capsys):
    assert run(["spectrum", "--group", "a1xa1", "--kind", "e", "--M", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t0,t1,t0',t2,a1,a2,h"
    assert len(lines) == 11


def test_eval_matches_cosine(capsys):
    assert run(["eval", "--group", "a1xa1", "--kind", "e",
                "--lambda", "1", "1", "--point", "1/3", "1/2"]) == 0
    out = capsys.readouterr().out.split()
    want = 2 * math.cos(math.pi * (1 / 3 + 1 / 2))
    assert abs(float(out[0]) - want) < 1e-12
    assert abs(float(out[1])) < 1e-12


def test_negative_rational_point(tmp_path, capsys):
    argv = ["eval", "--group", "a1xa1", "--kind", "e", "--lambda", "1", "1", "--point"]
    assert run(argv + ["-1/3", "1/2"]) == 0
    out = capsys.readouterr().out.split()
    want = 2 * math.cos(math.pi * (-1 / 3 + 1 / 2))
    assert abs(float(out[0]) - want) < 1e-12
    assert run(argv + [" -1/3", "1/2"]) == 0  # the spaced form keeps working
    assert capsys.readouterr().out.split() == out

    system = E.system_from_selector("a1xa1")
    grid = E.build_point_grid(system, "e", 2)
    rows = ["s0,s1,s0',s2,re,im"]
    for gp in grid:
        rows.append(",".join([str(x) for x in gp.label] + ["1.0", "0.0"]))
    samples = tmp_path / "s.csv"
    samples.write_text("\n".join(rows) + "\n")
    coeffs = tmp_path / "c.json"
    assert run(["forward", "--group", "a1xa1", "--kind", "e", "--M", "2",
                "--samples", str(samples), "--out", str(coeffs)]) == 0
    capsys.readouterr()
    assert run(["interp", "--coeffs", str(coeffs), "--point", "-3/4", "-1/5"]) == 0
    value = complex(*map(float, capsys.readouterr().out.split()))
    coeff_set = E.forward_discrete(E.make_samples(system, "e", 2, [1.0] * len(grid)))
    assert abs(value - E.interpolate(coeff_set, (Q(-3, 4), Q(-1, 5)))) < 1e-12


def test_eval_by_label(capsys):
    assert run(["eval", "--group", "a1xa2", "--kind", "e", "--lambda", "1", "0", "1",
                "--label", "1", "2", "1", "1", "1", "--M", "3"]) == 0
    out = capsys.readouterr().out.split()
    system = E.system_from_selector("a1xa2")
    want = E.xi(system, "e", (1, 0, 1), (Q(2, 3), Q(1, 3), Q(1, 3)))
    assert abs(float(out[0]) - want.real) < 1e-12
    assert abs(float(out[1]) - want.imag) < 1e-12


def test_eval_label_is_any_printed_grid_label(capsys):
    # kind ee circle labels may be negative; a label shared by a cell and
    # its reflected twin means the first cell, on the closed branch
    for sel, kind, ms in (("a1xa1", "ee", (2, 3)), ("a1xa2", "e", (3,))):
        system = E.system_from_selector(sel)
        first = {}
        for gp in E.build_point_grid(system, kind, ms):
            first.setdefault(gp.label, gp.point)
        lam = (1, 2, 1)[: system.n]
        for label, point in first.items():
            assert run(["eval", "--group", sel, "--kind", kind, "--lambda", *map(str, lam),
                        "--label", *map(str, label), "--M", *map(str, ms)]) == 0
            want = E.xi(system, kind, lam, point)
            assert capsys.readouterr().out.split() == [f"{want.real:.15g}", f"{want.imag:.15g}"]


def test_forward_inverse_file_round_trip(tmp_path, capsys):
    system = E.system_from_selector("a1xa2")
    grid = E.build_point_grid(system, "ee", (2, 2))
    rng = random.Random(7)
    rows = ["s0,s1,s0',s2,s3,re,im"]
    values = []
    for gp in grid:
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        values.append(v)
        rows.append(",".join([str(x) for x in gp.label] + [repr(v.real), repr(v.imag)]))
    samples = tmp_path / "samples.csv"
    samples.write_text("\n".join(rows) + "\n")
    coeffs = tmp_path / "coeffs.json"
    back = tmp_path / "back.csv"
    assert run(["forward", "--group", "a1xa2", "--kind", "ee", "--M", "2", "2",
                "--samples", str(samples), "--out", str(coeffs)]) == 0
    payload = json.loads(coeffs.read_text())
    assert payload["group"] == "a1xa2" and payload["kind"] == "ee"
    assert payload["M"] == [2, 2]
    assert len(payload["entries"]) == len(grid)
    assert run(["inverse", "--coeffs", str(coeffs), "--out", str(back)]) == 0
    lines = back.read_text().strip().splitlines()[1:]
    worst = 0.0
    for line, v in zip(lines, values):
        cells = line.split(",")
        worst = max(worst, abs(complex(float(cells[-2]), float(cells[-1])) - v))
    assert worst < 1e-9
    capsys.readouterr()


def test_interp_at_grid_point(tmp_path, capsys):
    system = E.system_from_selector("a1xa1")
    grid = E.build_point_grid(system, "e", 2)
    rows = ["s0,s1,s0',s2,re,im"]
    for k, gp in enumerate(grid):
        rows.append(",".join([str(x) for x in gp.label] + [repr(float(k)), "0.0"]))
    samples = tmp_path / "s.csv"
    samples.write_text("\n".join(rows) + "\n")
    coeffs = tmp_path / "c.json"
    assert run(["forward", "--group", "a1xa1", "--kind", "e", "--M", "2",
                "--samples", str(samples), "--out", str(coeffs)]) == 0
    capsys.readouterr()
    target = grid[3]
    point = [f"{v.numerator}/{v.denominator}" for v in target.point]
    assert run(["interp", "--coeffs", str(coeffs), "--point", *point]) == 0
    out = capsys.readouterr().out.split()
    assert abs(float(out[0]) - 3.0) < 1e-9


def test_verify_subcommand(capsys):
    assert run(["verify", "--group", "a1xc2", "--kind", "ee", "--M", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "gram residual" in out


def _one_error_line(capsys):
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    return captured.out == "" and len(err) == 1 and err[0].startswith("error: ")


def test_oversize_moduli_exit_2_quickly(capsys):
    # refused from an estimate of the grid size, before any enumeration
    for argv in (
        ["grid", "--group", "a1xa1", "--kind", "e", "--M", "99999999999999999999"],
        ["verify", "--group", "a1xa2", "--kind", "e", "--M", "200"],
        ["tables", "--M", "1000000"],
        ["tables", "--M", "100"],  # T1-T3 fit the limit, T4 does not: no partial output
    ):
        t0 = time.monotonic()
        assert run(argv) == 2, argv
        assert time.monotonic() - t0 < 5, argv
        assert _one_error_line(capsys), argv


def test_huge_trial_count_exits_2_quickly(capsys):
    # refused from trials x grid size before the Gram matrix or any trial
    argv = ["verify", "--group", "a1xa1", "--kind", "e", "--M", "1", "--trials", str(10**20)]
    t0 = time.monotonic()
    assert run(argv) == 2
    assert time.monotonic() - t0 < 1
    assert _one_error_line(capsys)


def test_dense_phase_matrix_size_limit(capsys, monkeypatch):
    monkeypatch.setattr(E.transform, "MAX_PHASE_MATRIX_N", 100)
    # 22 x 26 = 572 points; moduli no other test builds a phase matrix for
    assert run(["verify", "--group", "a1xa1", "--kind", "ee", "--M", "11", "13"]) == 2
    assert _one_error_line(capsys)


def test_dense_limit_is_refused_before_any_grid(capsys, monkeypatch):
    # 161 964 points; |T| / |group| = 161 717 already passes the limit
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(E.grids, "_branches", refuse)
    assert run(["verify", "--group", "a1xg2", "--kind", "e", "--M", "99"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and "dense phase matrix" in err[0]
    try:
        E.gram_residual(E.system_from_selector("a1xg2"), "e", 99)
    except E.UsageError as exc:
        assert "dense phase matrix" in str(exc)
    else:
        raise AssertionError("gram_residual past the dense limit did not refuse")


def test_dense_limit_on_the_exact_grid_size_exits_2(capsys):
    assert run(["verify", "--group", "a1xa1", "--kind", "e", "--M", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: a grid of 8194 points is too large for the dense phase matrix; the limit is 8192"
    ]


def _write_samples(path, system, kind, ms, values):
    rows = [",".join(label_names(system, "s") + ["re", "im"])]
    for gp, v in zip(E.build_point_grid(system, kind, ms), values):
        rows.append(",".join([str(x) for x in gp.label] + [repr(v.real), repr(v.imag)]))
    path.write_text("\n".join(rows) + "\n")


def test_separable_transform_past_the_dense_limit(tmp_path, capsys):
    # 24^3 = 13 824 points: forward and inverse run factor by factor,
    # while verify's Gram matrix is dense and refused
    system, ms = E.system_from_selector("a1xa1xa1"), (12, 12, 12)
    grid = E.build_point_grid(system, "ee", ms)
    assert len(grid) > E.transform.MAX_PHASE_MATRIX_N
    rng = random.Random(8)
    values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in grid]
    samples, coeffs, back = tmp_path / "s.csv", tmp_path / "c.json", tmp_path / "b.csv"
    _write_samples(samples, system, "ee", ms, values)
    moduli = ["--group", "a1xa1xa1", "--kind", "ee", "--M", *map(str, ms)]
    assert run(["forward", *moduli, "--samples", str(samples), "--out", str(coeffs)]) == 0
    assert run(["inverse", "--coeffs", str(coeffs), "--out", str(back)]) == 0
    lines = back.read_text().strip().splitlines()[1:]
    assert len(lines) == len(values)
    worst = max(
        abs(complex(float(c[-2]), float(c[-1])) - v)
        for c, v in zip((line.split(",") for line in lines), values)
    )
    assert worst < 1e-9
    capsys.readouterr()
    assert run(["verify", *moduli]) == 2
    assert _one_error_line(capsys)


def test_e_transform_past_the_dense_limit(tmp_path, capsys):
    # 16 120 points: forward and inverse are one FFT over T each, while
    # verify's Gram matrix is dense and refused
    system, ms = E.system_from_selector("a1xa1xa1"), (20,)
    grid = E.build_point_grid(system, "e", ms)
    assert len(grid) > E.transform.MAX_PHASE_MATRIX_N
    rng = random.Random(9)
    values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in grid]
    samples, coeffs, back = tmp_path / "s.csv", tmp_path / "c.json", tmp_path / "b.csv"
    _write_samples(samples, system, "e", ms, values)
    moduli = ["--group", "a1xa1xa1", "--kind", "e", "--M", "20"]
    assert run(["forward", *moduli, "--samples", str(samples), "--out", str(coeffs)]) == 0
    assert run(["inverse", "--coeffs", str(coeffs), "--out", str(back)]) == 0
    lines = back.read_text().strip().splitlines()[1:]
    assert len(lines) == len(values)
    worst = max(
        abs(complex(float(c[-2]), float(c[-1])) - v)
        for c, v in zip((line.split(",") for line in lines), values)
    )
    assert worst < 1e-9
    capsys.readouterr()
    assert run(["verify", *moduli]) == 2
    assert _one_error_line(capsys)


def _cli_env(**extra):
    """The environment of a CLI subprocess that imports this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_fft_transform_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a1xa2 e 12 (1 788 points) is on the FFT path; numpy.fft does not call BLAS
    system, ms = E.system_from_selector("a1xa2"), (12,)
    grid = E.build_point_grid(system, "e", ms)
    assert len(grid) >= E.transform.FFT_MIN_N
    rng = random.Random(10)
    samples = tmp_path / "s.csv"
    _write_samples(samples, system, "e", ms,
                   [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in grid])
    printed = []
    for threads in ("1", "2"):
        env = _cli_env(OPENBLAS_NUM_THREADS=threads)
        coeffs = tmp_path / f"c{threads}.json"
        forward = subprocess.run(
            [sys.executable, "-m", "eweyl.cli", "forward", "--group", "a1xa2", "--kind", "e",
             "--M", "12", "--samples", str(samples)],
            env=env, capture_output=True, check=True, timeout=120).stdout
        coeffs.write_bytes(forward)
        inverse = subprocess.run(
            [sys.executable, "-m", "eweyl.cli", "inverse", "--coeffs", str(coeffs)],
            env=env, capture_output=True, check=True, timeout=120).stdout
        printed.append((forward, inverse))
    assert printed[0] == printed[1]
    assert len(printed[0][1].splitlines()) == len(grid) + 1


def test_import_leaves_numpy_fft_unloaded():
    # numpy.fft costs ~0.4 MB; only a transform on the FFT path imports it
    code = "import eweyl.cli, sys; assert 'numpy.fft' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True, timeout=120)


def test_separable_factor_size_limit(tmp_path, capsys):
    # the grid (16 388 points) fits MAX_GRID_CELLS, its first factor's
    # 8 194 points pass MAX_PHASE_MATRIX_N: refused before any matrix
    system, ms = E.system_from_selector("a1xa1"), (4097, 1)
    samples = tmp_path / "s.csv"
    _write_samples(samples, system, "ee", ms, [0j] * len(E.build_point_grid(system, "ee", ms)))
    t0 = time.monotonic()
    assert run(["forward", "--group", "a1xa1", "--kind", "ee", "--M", "4097", "1",
                "--samples", str(samples)]) == 2
    assert time.monotonic() - t0 < 5
    assert _one_error_line(capsys)


def test_tables_subcommand(capsys):
    assert run(["tables", "--table", "T2_d_ee"]) == 0
    out = capsys.readouterr().out
    assert "32 rows, 32 match, 0 known errata, 0 unexpected, 0 skipped" in out

    assert run(["tables", "--table", "T6_A1A1A1"]) == 0
    out = capsys.readouterr().out
    assert "2 known errata, 0 unexpected" in out
    assert "[errata]" in out


def test_tables_json(capsys):
    assert run(["tables", "--table", "T1_A1A1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["table_id"] == "T1_A1A1"
    assert len(payload[0]["rows"]) == 22
    assert all(r["status"] == "match" for r in payload[0]["rows"])


def test_contour_rank2(capsys):
    assert run(["contour", "--group", "a1xa1", "--kind", "e",
                "--lambda", "1", "1", "--samples-per-axis", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) > 1
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        assert abs(cells[3]) < 1e-12  # the cosine form is real

    # count matches an independent membership sweep over the same ticks
    system = E.system_from_selector("a1xa1")
    n = 6
    ticks = [Q(2 * k + 1, 2 * n) - 1 for k in range(2 * n)]
    members = sum(
        1
        for u in ticks
        for v in ticks
        if in_even_domain(system, "e", (u, v))
    )
    assert len(lines) - 1 == members


def test_contour_zero_weight_is_constant(capsys):
    assert run(["contour", "--group", "a1xa1", "--kind", "ee",
                "--lambda", "0", "0", "--samples-per-axis", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        cells = [float(v) for v in line.split(",")]
        assert abs(cells[2] - 1.0) < 1e-12  # |W^ee(a1xa1)| = 1
        assert abs(cells[3]) < 1e-12


def test_contour_rank3_needs_pin(capsys):
    assert run(["contour", "--group", "a1xg2", "--kind", "e",
                "--lambda", "1", "0", "0", "--samples-per-axis", "4"]) == 2
    capsys.readouterr()
    assert run(["contour", "--group", "a1xg2", "--kind", "e", "--lambda", "1", "0", "0",
                "--samples-per-axis", "4", "--pin", "0=1/2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) > 1


def test_contour_pin_past_int64_stays_exact(capsys):
    # the probes hold Python ints once the pinned numerator passes int64
    system, lam, n, pin = E.system_from_selector("a1xa2"), (1, 2, 1), 3, Q(5, 2**64 + 13)
    assert run(["contour", "--group", "a1xa2", "--kind", "e", "--lambda", *map(str, lam),
                "--samples-per-axis", str(n), "--pin", f"0={pin}"]) == 0
    got = [line.split(",")[2:] for line in capsys.readouterr().out.strip().splitlines()[1:]]
    axis = [Q(2 * k + 1, 2 * n) - 1 for k in range(2 * n)]
    points = [(pin, y, z) for y in axis for z in axis]
    want = [E.xi(system, "e", lam, x) for x in points if in_even_domain(system, "e", x)]
    assert len(got) == len(want) > 0
    assert [[float(v) for v in row] for row in got] == [[w.real, w.imag] for w in want]


def test_dump_group(capsys):
    assert run(["dump-group", "--group", "a1xg2", "--kind", "ee"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 6
    assert len(payload["elements"]) == 6
    for el in payload["elements"]:
        assert el["det"] == 1
        assert all(isinstance(v, int) for row in el["weight_matrix"] for v in row)


def test_file_readers_name_the_first_row_off_the_canonical_grid(tmp_path, capsys):
    # every row is read against the canonical labels: a count mismatch,
    # then the first row whose label differs, then a row whose value is
    # not a finite pair, is exit 2 with its message
    system = E.system_from_selector("a1xa1")
    grid = E.build_point_grid(system, "e", 2)
    spectrum = E.build_weight_grid(system, "e", 2)
    labels = [list(gp.label) for gp in grid]
    swapped = labels[:2] + [labels[3], labels[2]] + labels[4:]

    def forward(rows, im1=0.0):
        path = tmp_path / "s.csv"
        cells = [r + [0.5, im1 if k == 1 else 0.0] for k, r in enumerate(rows)]
        lines = ["s0,s1,s0',s2,re,im"] + [",".join(map(str, c)) for c in cells]
        path.write_text("\n".join(lines) + "\n")
        return run(["forward", "--group", "a1xa1", "--kind", "e", "--M", "2",
                    "--samples", str(path)])

    def inverse(ts, re2=0.5):
        path = tmp_path / "c.json"
        entries = [{"t": t, "re": re2 if k == 2 else 0.5, "im": 0.0} for k, t in enumerate(ts)]
        path.write_text(json.dumps({"group": "a1xa1", "kind": "e", "M": [2], "entries": entries}))
        return run(["inverse", "--coeffs", str(path)])

    t = [list(sp.label) for sp in spectrum]
    for reader, want in [
        (lambda: forward(labels[:-1]),
         f"sample CSV has {len(grid) - 1} rows, grid has {len(grid)}"),
        (lambda: forward(swapped),
         f"sample row label {tuple(labels[3])} does not match canonical grid label {grid[2].label}"),
        (lambda: inverse(t[:-1]),
         f"JSON has {len(spectrum) - 1} entries, spectrum has {len(spectrum)}"),
        (lambda: inverse(t[:2] + [t[3], t[2]] + t[4:]),
         f"entry label {t[3]} does not match canonical spectrum label {spectrum[2].label}"),
        (lambda: inverse(t[:1] + [t[1][:3]] + t[2:]),  # too short
         f"entry label {t[1][:3]} does not match canonical spectrum label {spectrum[1].label}"),
        (lambda: inverse(t[:4] + ["abcd"] + t[5:]),  # not a list of integers
         f"entry label abcd does not match canonical spectrum label {spectrum[4].label}"),
        (lambda: forward(labels, "abc"),
         f"sample row {','.join(map(str, labels[1] + [0.5, 'abc']))!r}: not a pair of real numbers"),
        (lambda: forward(labels, "nan"),
         f"sample row {','.join(map(str, labels[1] + [0.5, 'nan']))!r}: value is not finite"),
        (lambda: inverse(t, [1]),
         f"coefficient entry {dict(t=t[2], re=[1], im=0.0)!r}: not a pair of real numbers"),
        (lambda: inverse(t, math.inf),
         f"coefficient entry {dict(t=t[2], re=math.inf, im=0.0)!r}: value is not finite"),
    ]:
        status = reader()
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == (2, "", f"error: {want}\n")


def test_cli_forward_inverse_never_build_the_grid_tuples(tmp_path, capsys):
    system, ms = E.system_from_selector("a1xc2"), (5, 3)
    grid = E.build_point_grid(system, "ee", ms)
    rows = [",".join(label_names(system, "s") + ["re", "im"])]
    rows += [",".join(map(str, label + [0.25, -1.0])) for label in grid.labels.tolist()]
    samples, coeffs, back = tmp_path / "s.csv", tmp_path / "c.json", tmp_path / "b.csv"
    samples.write_text("\n".join(rows) + "\n")
    moduli = ["--group", "a1xc2", "--kind", "ee", "--M", "5", "3"]
    with no_grid_items():
        assert run(["forward", *moduli, "--samples", str(samples), "--out", str(coeffs)]) == 0
        assert run(["inverse", "--coeffs", str(coeffs), "--out", str(back)]) == 0
        assert run(["grid", *moduli]) == 0 and run(["spectrum", *moduli]) == 0
        listed = capsys.readouterr()
        assert run(["verify", *moduli]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    lines = back.read_text().strip().splitlines()
    assert [line.split(",")[:-2] for line in lines[1:]] == [r.split(",")[:-2] for r in rows[1:]]
    assert max(abs(float(c[-2]) - 0.25) + abs(float(c[-1]) + 1) for c in
               (line.split(",") for line in lines[1:])) < 1e-9
    spectrum = E.build_weight_grid(system, "ee", ms)
    assert len(listed.out.splitlines()) == len(grid) + 1 + len(spectrum) + 1
    assert listed.err == ""


#: a cold session: the commands run through the CLI, then one continuous transform
_COLD_SESSION = """
import contextlib, io, sys
import eweyl as E
from eweyl.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert run(["verify", "--group", "a1xc2", "--kind", "ee", "--M", "3", "3", "--seed", "1"]) == 0
    assert run(["tables"]) == 0
system = E.system_from_selector("a1xa2")
E.continuous_coefficients(lambda p: 1.0, system, "e", weight_bound=1, resolution=8)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_cold_commands_never_import_numpy_ma():
    # numpy.ma costs ~15 ms of import; np.unique(axis=0) and friends pull it in
    out = subprocess.run([sys.executable, "-c", _COLD_SESSION], env=_cli_env(), capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[]"
