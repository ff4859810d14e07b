"""Benchmark of the eweyl library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold, warm-transform, interpolate, continuous (see
perfbench/README.md for what each runs and why).  Inputs come from the
seed.  Every operation is checked against its correctness gate.

With ``--trace 0`` the run measures the workload for ``S`` seconds and
reports the end-to-end metrics.  With ``--trace 1`` it runs one fixed,
traced pass of every workload in fresh processes, records spans around
the library calls, and reports the per-layer metrics (self times and
sizes), including the tracing overhead against an untraced pass of the
selected workload; ``--seconds`` does not apply there.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the
environment, goes to ``perfbench/out/<run>/result.json`` and, for a
traced run, the spans to ``spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common as C  # noqa: E402
from tracing import aggregate  # noqa: E402

CHILD = C.BENCH_DIR / "child.py"
PROCESS_TIMEOUT_S = 150.0


class Proc:
    """Outcome of one child process."""

    def __init__(self, code, wall_s, maxrss_kb, stdout, stderr):
        self.code = code
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr

    def json(self):
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise RuntimeError(f"child failed with exit {self.code}: {self.stderr[-2000:]}")
        return json.loads(lines[-1])


def run_process(argv, cwd: Path, tag: str) -> Proc:
    """Run one child to completion; wall time spans spawn to reaping."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=C.child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall_s, usage.ru_maxrss,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))


def child_argv(*args) -> list[str]:
    return [sys.executable, str(CHILD), *map(str, args)]


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "eweyl.cli", *map(str, args)]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

class CliSession:
    """The cold CLI session: verify on six cases, a file chain, tables."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.tally = C.Tally()
        self.accuracy: dict[str, float] = {}
        self.maxrss_kb = 0
        self._library = None

    def library(self):
        if self._library is None:
            self._library = C.import_library()
        return self._library

    def run(self, argv, tag) -> Proc:
        proc = run_process(argv, self.dir, tag)
        self.maxrss_kb = max(self.maxrss_kb, proc.maxrss_kb)
        return proc

    def prepare(self) -> None:
        """Write the seeded samples for the file chain; pick the interp point."""
        sel, kind, ms = C.CLI_CHAIN_CASE
        grid = self.run(cli_argv("grid", "--group", sel, "--kind", kind, "--M", *ms), "prep-grid")
        if grid.code != 0:
            raise RuntimeError(f"eweyl grid failed: {grid.stderr[-2000:]}")
        rows = [line.split(",") for line in grid.stdout.strip().splitlines()]
        header, rows = rows[0], rows[1:]
        n_label = sum(1 for h in header if not re.fullmatch(r"x\d+|eps", h))
        n_coord = sum(1 for h in header if re.fullmatch(r"x\d+", h))
        labels = [tuple(int(v) for v in row[:n_label]) for row in rows]
        points = [row[n_label:n_label + n_coord] for row in rows]
        rng = C.rng_for(self.seed, "cli-cold")
        self.samples = C.random_values(rng, len(rows))
        (self.dir / "samples.csv").write_text(
            C.samples_csv(header[:n_label], labels, self.samples), encoding="utf-8")
        k = rng.randrange(len(rows))
        self.interp_point, self.interp_want = points[k], self.samples[k]

    def commands(self):
        sel, kind, ms = C.CLI_CHAIN_CASE
        cmds = []
        for s, k, m in C.CLI_VERIFY_CASES:
            cmds.append((f"verify-{C.case_name(s, k, m)}",
                         ["verify", "--group", s, "--kind", k, "--M", *m, "--seed", self.seed]))
        cmds.append(("forward", ["forward", "--group", sel, "--kind", kind, "--M", *ms,
                                 "--samples", "samples.csv", "--out", "coeffs.json"]))
        cmds.append(("inverse", ["inverse", "--coeffs", "coeffs.json", "--out", "back.csv"]))
        # argparse reads a token such as "-3/4" as an option; a leading
        # space keeps a negative coordinate a value (Fraction strips it)
        point = [f" {c}" if c.startswith("-") else c for c in self.interp_point]
        cmds.append(("interp", ["interp", "--coeffs", "coeffs.json", "--point", *point]))
        cmds.append(("tables", ["tables"]))
        return [(tag, [str(a) for a in argv]) for tag, argv in cmds]

    def session(self, traced_spans: Path | None = None) -> list[tuple[str, Proc, str]]:
        """Run every command in a fresh process; return (tag, proc, stdout)."""
        done = []
        for i, (tag, argv) in enumerate(self.commands()):
            if tag == "inverse":
                (self.dir / "back.csv").unlink(missing_ok=True)  # gate reads only fresh output
            if traced_spans is None:
                proc = self.run(cli_argv(*argv), tag)
                stdout = proc.stdout
            else:
                cmd_out = self.dir / f"{tag}.cli-stdout"
                proc = self.run(child_argv("cli-probe", "--spans", traced_spans / f"cli-{i}.jsonl",
                                           "--run-id", f"cli-cold/{i}", "--stdout", cmd_out,
                                           "--", *argv), tag)
                stdout = cmd_out.read_text(encoding="utf-8") if cmd_out.exists() else ""
            done.append((tag, proc, stdout))
        return done

    def gate(self, results) -> None:
        for tag, proc, stdout in results:
            if proc.code != 0:
                self.tally.record(False, f"{tag} exited {proc.code}: {proc.stderr[-300:]}")
            elif tag.startswith("verify-"):
                self.gate_verify(tag, stdout)
            elif tag == "forward":
                self.tally.record((self.dir / "coeffs.json").is_file(), "forward wrote no coeffs.json")
            elif tag == "inverse":
                self.gate_inverse()
            elif tag == "interp":
                try:
                    re_, im = (float(v) for v in stdout.split())
                    err = abs(complex(re_, im) - self.interp_want)
                except ValueError:
                    err = math.inf
                self.worst("interp_err", err)
                self.tally.record(err < C.TOL, f"interp at a grid point: {err:.3e}")
            elif tag == "tables":
                self.gate_tables(stdout)

    def worst(self, key, err):
        self.accuracy[key] = max(self.accuracy.get(key, 0.0), float(err))

    def gate_verify(self, tag, stdout):
        lines = stdout.strip().splitlines()
        ok = bool(lines) and lines[-1] == "PASS"
        residual = re.search(r"gram residual\s+(\S+)", stdout)
        roundtrip = re.search(r"round-trip error\s+(\S+)", stdout)
        if residual and roundtrip:
            case = tag[len("verify-"):]
            rel = float(residual.group(1)) / self.largest_normaliser(case)
            self.accuracy.setdefault("gram_residual_rel_by_case", {})[case] = rel
            self.worst("gram_residual_rel", rel)
            self.worst("roundtrip_err", float(roundtrip.group(1)))
        else:
            ok = False
        self.tally.record(ok, f"{tag} did not PASS: {stdout[-300:]}")

    def largest_normaliser(self, case) -> float:
        """detC * |group| * prod_f M_f^rank_f * max h, from exported names."""
        E = self.library()
        sel, kind, ms = next(c for c in C.CLI_VERIFY_CASES if C.case_name(*c) == case)
        system = E.system_from_selector(sel)
        per_factor = ms if kind == "ee" else ms * len(system.factors)
        power = math.prod(m ** f.rank for f, m in zip(system.factors, per_factor))
        h = max(sp.h for sp in E.build_weight_grid(system, kind, ms))
        return abs(system.det_cartan) * E.even_subgroup(system, kind).order * power * h

    def gate_inverse(self):
        path = self.dir / "back.csv"
        lines = path.read_text(encoding="utf-8").strip().splitlines() if path.exists() else []
        got = [complex(float(r.split(",")[-2]), float(r.split(",")[-1])) for r in lines[1:]]
        err = C.max_abs_diff(got, self.samples)
        self.worst("roundtrip_err", err)
        self.tally.record(err < C.TOL, f"inverse output vs samples: {err:.3e}")

    def gate_tables(self, stdout):
        known = self.library().KNOWN_ERRATA
        table = None
        misses = []
        for line in stdout.splitlines():
            head = re.match(r"(\S+): \d+ rows", line)
            if head:
                table = head.group(1)
                continue
            row = re.match(r"\s+\[\w+\] (\S+) (\S+) (\S+): tabulated (\S+), computed (\S+)", line)
            if row:
                coef, group, pattern, ref, comp = row.groups()
                pinned = known.get((table, coef, group, pattern))
                if pinned is None or tuple(str(v) for v in pinned) != (ref, comp):
                    misses.append(line.strip())
        self.tally.record(table is not None and not misses, f"tables: not in KNOWN_ERRATA: {misses[:3]}")


def cli_cold(seed, seconds, workdir) -> dict:
    s = CliSession(seed, workdir)
    s.prepare()
    s.run(cli_argv("list-groups"), "warmup")  # compiles bytecode; not timed
    setups = []
    for i in range(C.SETUP_REPEATS["cli-cold"]):
        proc = s.run(cli_argv("list-groups"), f"setup-{i}")
        s.tally.record(proc.code == 0 and len(proc.stdout.splitlines()) == 5,
                       f"list-groups exited {proc.code}")
        setups.append(proc.wall_s)
    sessions = []
    while True:
        results = s.session()
        sessions.append(sum(p.wall_s for _, p, _ in results))
        s.gate(results)
        if sum(sessions) >= seconds:
            break
    return {
        "e2e": {
            "setup_s": (C.median(setups), "s"),
            "peak_rss_mb": (s.maxrss_kb / 1024, "MB"),
            "ops_per_s": (len(sessions) / sum(sessions), "1/s"),
        },
        "named": {
            **C.latency_summary("op_ms", sessions),
            "cli_session_s": (C.median(sessions), "s"),
        },
        "tally": s.tally,
        "accuracy": s.accuracy,
    }


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def library_workload(name, seed, seconds, workdir) -> dict:
    """Set up in several fresh processes; the first few also run ops."""
    tally = C.Tally()
    run_process([sys.executable, "-c", "import eweyl"], workdir, "warmup")
    n = C.MEASURING[name]
    setups, times, maxrss, accuracy = [], [], 0, {}
    for i in range(C.SETUP_REPEATS[name]):
        proc = run_process(child_argv("run", name, "--seed", seed, "--t0", repr(time.monotonic()),
                                      "--seconds", seconds / n if i < n else 0),
                           workdir, f"run-{i}")
        res = proc.json()
        setups.append(res["setup_s"])
        tally.merge(res["tally"])
        maxrss = max(maxrss, proc.maxrss_kb)
        times += [parts for parts in res["times"] if parts is not None]
        for key, err in res["accuracy"].items():
            accuracy[key] = max(accuracy.get(key, 0.0), err)
    op_s, sub_s = [sum(parts) for parts in times], [t for parts in times for t in parts]
    named = C.latency_summary("op_ms", op_s)
    if name == "warm-transform":
        named["transforms_per_s"] = (len(sub_s) / sum(sub_s), "1/s")
        named.update(C.latency_summary("transform_ms", sub_s))
    elif name == "interpolate":
        named["interp_points_per_s"] = (len(sub_s) / sum(sub_s), "1/s")
        named.update(C.latency_summary("interp_ms", sub_s))
    else:
        named["continuous_s"] = (C.median(op_s), "s")
    return {
        "e2e": {
            "setup_s": (C.median(setups), "s"),
            "peak_rss_mb": (maxrss / 1024, "MB"),
            "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        },
        "named": named,
        "tally": tally,
        "accuracy": accuracy,
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def traced_pass(name, seed, workdir: Path, traced: bool):
    """One fixed pass of a workload; returns (wall seconds, tally, spans)."""
    passdir = workdir / f"{name}-{'traced' if traced else 'plain'}"
    passdir.mkdir()
    spans = []
    if name == "cli-cold":
        s = CliSession(seed, passdir)
        s.prepare()
        results = s.session(traced_spans=passdir if traced else None)
        s.gate(results)
        wall_s = sum(p.wall_s for _, p, _ in results)
        tally, absent = s.tally, set()
        for path in sorted(passdir.glob("cli-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for tag, proc, _ in results:
            if traced and proc.code == 0:
                absent.update(json.loads(proc.stdout.strip().splitlines()[-1])["absent"])
    else:
        span_file = passdir / "spans.jsonl"
        res = run_process(child_argv("pass", name, "--seed", seed, "--traced", int(traced),
                                     "--spans", span_file), passdir, "pass").json()
        tally = C.Tally()
        tally.merge(res["tally"])
        wall_s, absent = res["wall_s"], set(res["absent"])
        if traced:
            spans = [json.loads(line) for line in span_file.read_text(encoding="utf-8").splitlines()]
    return wall_s, tally, spans, absent


def trace_run(workload, seed, workdir) -> dict:
    tally = C.Tally()
    run_process([sys.executable, "-c", "import eweyl.cli"], workdir, "warmup")
    startups = [run_process([sys.executable, "-c", "import eweyl.cli"], workdir, f"startup-{i}").wall_s
                for i in range(3)]
    plain_s, plain_tally, _, _ = traced_pass(workload, seed, workdir, traced=False)
    tally.merge(plain_tally.as_dict())
    spans_by_source, absent, traced_s = {}, set(), None
    for name in C.WORKLOADS:
        wall_s, t, spans, missing = traced_pass(name, seed, workdir, traced=True)
        tally.merge(t.as_dict())
        spans_by_source[name] = spans
        absent |= missing
        if name == workload:
            traced_s = wall_s
    with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fp:
        for name in C.WORKLOADS:
            for span in spans_by_source[name]:
                fp.write(json.dumps(span) + "\n")
    metrics, missing_metrics = {}, []
    for m in C.per_layer_catalogue():
        if m["source"] == "startup":
            value = C.median(startups)
        elif m["source"] == "overhead":
            value = (traced_s / plain_s - 1.0) * 100.0
        else:
            value = aggregate(spans_by_source[m["source"]], m["span"], m["case"], m["agg"])
        if value is None:
            missing_metrics.append(m["name"])
        else:
            metrics[m["name"]] = (value, m["unit"])
    return {
        "per_layer": metrics,
        "absent_spans": sorted(absent),
        "absent_metrics": missing_metrics,
        "spans": sum(len(v) for v in spans_by_source.values()),
        "overhead": {"workload": workload, "untraced_s": plain_s, "traced_s": traced_s},
        "tally": tally,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def metric_json(metrics: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=C.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    C.check_source_tree()

    started = time.monotonic()
    workdir = C.BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    if args.trace:
        res = trace_run(args.workload, args.seed, workdir)
        metrics = res["per_layer"]
    elif args.workload == "cli-cold":
        res = cli_cold(args.seed, args.seconds, workdir)
        metrics = res["e2e"]
    else:
        res = library_workload(args.workload, args.seed, args.seconds, workdir)
        metrics = res["e2e"]
    tally = res.pop("tally")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "versions": C.versions(),
        "blas_threads": {v: C.child_env()[v] for v in C.BLAS_THREAD_VARS},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "misses": tally.misses,
        "wall_s": time.monotonic() - started,
        **{k: metric_json(v) if k in ("e2e", "named", "per_layer") else v for k, v in res.items()},
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    shown = dict(metrics)
    if not args.trace:
        shown.update(res["named"])
        shown["error_rate"] = (record["error_rate"], "ratio")
        for key, value in sorted(res["accuracy"].items()):
            if not isinstance(value, dict):
                shown[key] = (value, "abs" if key != "gram_residual_rel" else "rel")
    else:
        shown["spans"] = (res["spans"], "count")
    for key, (value, unit) in shown.items():
        print(f"{key:<52} {value:.6g} {unit}")
    for miss in tally.misses:
        print(f"miss: {miss}")
    for name in res.get("absent_spans", []) + res.get("absent_metrics", []):
        print(f"absent: {name}")
    print(f"result: {workdir / 'result.json'}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metric_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
