"""One benchmark child process: library workloads and traced CLI commands.

    python3 perfbench/child.py run  WORKLOAD --seed N --t0 T --seconds S
    python3 perfbench/child.py pass WORKLOAD --seed N --traced 0|1 [--spans FILE]
    python3 perfbench/child.py cli-probe --spans FILE --run-id ID --stdout FILE -- ARGV...

``run`` builds the workload's state, reports ``setup_s`` (the time from
the parent's spawn timestamp ``T``, ``time.monotonic``, to the end of
set-up), then runs the closed loop over ops 0, 1, ... for ``S`` seconds
(none if ``S`` is 0) and reports each op's sub-operation times.
``pass`` runs a fixed amount of work, traced or not, for the per-layer
run.  ``cli-probe`` runs one ``eweyl`` command in-process under the
tracer.  Each mode prints one JSON object as its last stdout line.

Workloads use only names exported from ``eweyl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common as C  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


class Workload:
    """Set-up plus a unit operation; ``op(i)`` returns its sub-operation times."""

    def __init__(self, E, seed: int, tally: C.Tally, tracer: Tracer | None = None):
        self.E = E
        self.seed = seed
        self.tally = tally
        self.tracer = tracer
        self.accuracy: dict[str, float] = {}

    def span(self, name, case=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, case)

    def worst(self, i, key, err):
        """Keep the worst error of the first ops, which every run executes."""
        if i < C.ACCURACY_OPS[self.name]:
            self.accuracy[key] = max(self.accuracy.get(key, 0.0), float(err))


class WarmTransform(Workload):
    """Repeated make_samples -> forward -> inverse, alternating two grids."""

    name = "warm-transform"

    def setup(self):
        E = self.E
        self.cases = []
        for sel, kind, ms in C.WARM_CASES:
            system = E.system_from_selector(sel)
            n = len(E.build_point_grid(system, kind, ms))
            # one warm-up pair fills the grid and phase-matrix caches
            E.inverse_discrete(E.forward_discrete(E.make_samples(system, kind, ms, [0j] * n)))
            self.cases.append((system, kind, ms, n, C.case_name(sel, kind, ms)))

    def op(self, i):
        """One round: a pair on each grid."""
        rng = C.rng_for(self.seed, "warm-transform", i)
        pair_times = []
        for system, kind, ms, n, name in self.cases:
            values = C.random_values(rng, n)
            with self.span("bench.pair", name):
                t0 = time.perf_counter()
                samples = self.E.make_samples(system, kind, ms, values)
                back = self.E.inverse_discrete(self.E.forward_discrete(samples))
                t1 = time.perf_counter()
            err = C.max_abs_diff(back.values, values)
            self.worst(i, "roundtrip_err", err)
            self.tally.record(err < C.TOL, f"round trip {name}: {err:.3e}")
            pair_times.append(t1 - t0)
        return pair_times


class Interpolate(Workload):
    """interpolate at seeded rational points, one per grid in a round.

    On even rounds one grid, in turn, gets a grid point instead, checked
    against its sample: one point in ten for five grids.
    """

    name = "interpolate"

    def setup(self):
        E = self.E
        self.cases = []
        for sel, kind, ms in C.INTERP_CASES:
            system = E.system_from_selector(sel)
            grid = E.build_point_grid(system, kind, ms)
            values = C.random_values(C.rng_for(self.seed, "interp-samples", sel, kind), len(grid))
            coeffs = E.forward_discrete(E.make_samples(system, kind, ms, values))
            self.cases.append((system, grid, values, coeffs, C.case_name(sel, kind, ms)))

    def op(self, i):
        """One round: a point on each grid."""
        rng = C.rng_for(self.seed, "interpolate", i)
        grid_case = (i // 2) % len(self.cases) if i % 2 == 0 else None
        times = []
        for c, (system, grid, values, coeffs, name) in enumerate(self.cases):
            if c == grid_case:
                k = rng.randrange(len(grid))
                x, want = grid[k].point, values[k]
            else:
                x, want = C.random_point(rng, system.n), None
            with self.span("bench.point", name):
                t0 = time.perf_counter()
                value = self.E.interpolate(coeffs, x)
                t1 = time.perf_counter()
            if want is None:
                self.tally.record(math.isfinite(abs(value)), f"interpolate {name}: {value!r}")
            else:
                err = abs(value - want)
                self.worst(i, "interp_err", err)
                self.tally.record(err < C.TOL, f"grid-point interpolation {name}: {err:.3e}")
            times.append(t1 - t0)
        return times


class Continuous(Workload):
    """continuous_coefficients of a trusted closed form, one pass of every case."""

    name = "continuous"

    def setup(self):
        E = self.E
        self.cases = []
        for sel, kind, res, bound in C.CONTINUOUS_CASES:
            system = E.system_from_selector(sel)
            E.even_subgroup(system, kind)
            self.cases.append((system, kind, res, bound, C.continuous_case_name(sel, kind, res, bound)))

    def op(self, i):
        E = self.E
        rng = C.rng_for(self.seed, "continuous", i)
        times = []
        for system, kind, res, bound, name in self.cases:
            weights = E.enumerate_dominant(system, kind, bound)
            mu = weights[rng.randrange(len(weights))]

            def f(p, system=system, kind=kind, mu=mu):
                return E.xi_closed(system, kind, mu, p)

            if self.tracer is not None:
                f = self.tracer.coalesced(f, "continuous.f")
            with self.span("bench.continuous", name):
                t0 = time.perf_counter()
                cc = E.continuous_coefficients(f, system, kind, weight_bound=bound, resolution=res)
                t1 = time.perf_counter()
            err = max(abs(v - (1.0 if w == mu else 0.0)) for w, v in zip(cc.weights, cc.values))
            if mu not in cc.weights:
                err = float("inf")
            self.worst(i, "continuous_err", err)
            self.tally.record(err < C.TOL_CONTINUOUS, f"continuous {name} mu={mu}: {err:.3e}")
            times.append(t1 - t0)
        return times


WORKLOAD_CLASSES = {cls.name: cls for cls in (WarmTransform, Interpolate, Continuous)}


def _setup(name, seed, t0, tally, tracer=None):
    E = C.import_library()
    absent = instrument(tracer, E) if tracer is not None else []
    wl = WORKLOAD_CLASSES[name](E, seed, tally, tracer)
    with wl.span("bench.setup"):
        wl.setup()
    setup_s = time.monotonic() - t0
    return wl, setup_s, absent


def _run_op(wl, i, tally):
    """Sub-operation times of op ``i``, or None if it raised."""
    try:
        return wl.op(i)
    except Exception as exc:  # counted, then the loop goes on
        tally.record(False, f"op {i} raised {type(exc).__name__}: {exc}")
        return None


def cmd_run(args):
    """Set up, then run ops 0, 1, ... for ``--seconds`` (none if 0).

    At least the ops that the accuracy figures cover always run.
    """
    tally = C.Tally()
    wl, setup_s, _ = _setup(args.workload, args.seed, args.t0, tally)
    times = []
    start = time.perf_counter()
    while args.seconds > 0 and (len(times) < C.ACCURACY_OPS[args.workload]
                                or time.perf_counter() - start < args.seconds):
        times.append(_run_op(wl, len(times), tally))
    return {"setup_s": setup_s, "times": times, "tally": tally.as_dict(),
            "accuracy": wl.accuracy}


def cmd_pass(args):
    tally = C.Tally()
    tracer = Tracer(f"{args.workload}/0") if args.traced else None
    t0 = time.monotonic()
    wl, _, absent = _setup(args.workload, args.seed, t0, tally, tracer)
    for i in range(C.PASS_ROUNDS[args.workload]):
        _run_op(wl, i, tally)
    wall_s = time.monotonic() - t0
    if tracer is not None:
        tracer.write(args.spans)
    return {"wall_s": wall_s, "tally": tally.as_dict(), "absent": absent}


def cmd_cli_probe(args):
    E = C.import_library()
    import eweyl.cli

    tracer = Tracer(args.run_id)
    absent = instrument(tracer, E)
    with open(args.stdout, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        with tracer.span("cli.run", args.argv[0] if args.argv else None):
            code = eweyl.cli.run(args.argv)
    tracer.write(args.spans)
    return {"exit": code, "absent": absent}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("run", "pass"):
        p = sub.add_parser(mode)
        p.add_argument("workload", choices=sorted(WORKLOAD_CLASSES))
        p.add_argument("--seed", type=int, required=True)
        if mode == "run":
            p.add_argument("--t0", type=float, required=True)
            p.add_argument("--seconds", type=float, required=True)
        else:
            p.add_argument("--traced", type=int, choices=(0, 1), required=True)
            p.add_argument("--spans")
    p = sub.add_parser("cli-probe")
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--stdout", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "cli-probe":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        result = cmd_cli_probe(args)
        print(json.dumps(result))
        return result["exit"]
    handler = {"run": cmd_run, "pass": cmd_pass}[args.mode]
    print(json.dumps(handler(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
