"""Definitions shared by the benchmark driver, its child processes and tests.

Nothing here imports the library: the workload cases, the seeded input
generators, the percentile rule, the correctness gates and the
catalogue of metrics are plain data and arithmetic.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("cli-cold", "warm-transform", "interpolate", "continuous")

# (selector, kind, moduli) of the discrete cases, per workload
CLI_VERIFY_CASES = (
    ("a1xa1", "e", (12,)),
    ("a1xa1", "ee", (6, 6)),
    ("a1xc2", "ee", (4, 4)),
    ("a1xg2", "e", (8,)),
    ("a1xa2", "e", (6,)),
    ("a1xa1xa1", "ee", (4, 4, 4)),
)
CLI_CHAIN_CASE = ("a1xc2", "ee", (4, 4))
WARM_CASES = (("a1xg2", "e", (8,)), ("a1xa1xa1", "ee", (4, 4, 4)))
INTERP_CASES = (
    ("a1xa1", "e", (8,)),
    ("a1xc2", "ee", (3, 3)),
    ("a1xa2", "e", (4,)),
    ("a1xg2", "e", (6,)),
    ("a1xa1xa1", "e", (4,)),
)
# (selector, kind, resolution, weight bound) of the continuous transform
CONTINUOUS_CASES = (
    ("a1xa2", "e", 32, 1),
    ("a1xc2", "ee", 32, 1),
    ("a1xa1xa1", "e", 24, 2),
)
TABLE_IDS = ("T1_A1A1", "T2_d_ee", "T3_d_e", "T4_disk_ee", "T5_disk_e", "T6_A1A1A1")
SELECTOR_KINDS = tuple(
    (sel, kind)
    for sel in ("a1xa1", "a1xa2", "a1xc2", "a1xg2", "a1xa1xa1")
    for kind in ("e", "ee")
)

TOL = 1e-9  # round trips, inverse output and grid-point interpolation
TOL_CONTINUOUS = 5e-3  # the bound of the library's own continuous test

# rational point coordinates: numerator in [-2 den, 2 den]
POINT_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 12)

# how many times setup is repeated in one run; setup_s is their median
SETUP_REPEATS = {"cli-cold": 5, "warm-transform": 3, "interpolate": 3, "continuous": 5}

# how many of those set-up processes also run ops, each for seconds / n:
# the host's speed drifts over tens of seconds, and measuring in slices
# across the whole run averages over more of it than one slice would
MEASURING = {"warm-transform": 3, "interpolate": 3, "continuous": 2}

# accuracy figures are the worst over ops 0 .. n-1, which every measuring
# process runs whatever its speed, so they repeat exactly for a seed
ACCURACY_OPS = {"warm-transform": 20, "interpolate": 10, "continuous": 1}

# fixed work of one pass in a traced run (and of its untraced twin)
PASS_ROUNDS = {"warm-transform": 100, "interpolate": 6, "continuous": 1}

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def case_name(selector, kind, ms) -> str:
    ms = (ms,) if isinstance(ms, int) else tuple(ms)
    return f"{selector}-{kind}-{'x'.join(str(m) for m in ms)}"


def continuous_case_name(selector, kind, resolution, bound) -> str:
    return f"{selector}-{kind}-r{resolution}b{bound}"


def child_env() -> dict:
    """Environment of every child: library on the path, one BLAS thread.

    ``EWEYL_THREADS`` is removed, never set, so the library runs at its
    default.
    """
    env = dict(os.environ)
    env.pop("EWEYL_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def check_source_tree() -> None:
    """Refuse to run without the library sources in this checkout."""
    if not (SRC / "eweyl" / "__init__.py").is_file():
        sys.exit(f"error: no library sources at {SRC / 'eweyl'}; run from a full checkout")


def import_library():
    """Import ``eweyl`` from this checkout's ``src``, never from elsewhere."""
    check_source_tree()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eweyl

    where = Path(eweyl.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"error: imported eweyl from {where}, not from {SRC}")
    return eweyl


def versions() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def rng_for(seed: int, *tags) -> random.Random:
    """An independent stream per (seed, tags); string seeds hash with SHA-512."""
    return random.Random(":".join(["eweyl-bench", str(seed), *map(str, tags)]))


def random_values(rng: random.Random, n: int) -> list[complex]:
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def random_point(rng: random.Random, rank: int) -> tuple[Fraction, ...]:
    coords = []
    for _ in range(rank):
        den = rng.choice(POINT_DENOMINATORS)
        coords.append(Fraction(rng.randrange(-2 * den, 2 * den + 1), den))
    return tuple(coords)


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def samples_csv(header: list[str], labels: list[tuple[int, ...]], values: list[complex]) -> str:
    """A sample CSV in the CLI's format: label columns, then re, im."""
    lines = [",".join(header + ["re", "im"])]
    for label, v in zip(labels, values):
        lines.append(",".join([str(s) for s in label] + [fmt17(v.real), fmt17(v.imag)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

TAIL_CANDIDATES = (Fraction(999, 10), Fraction(99), Fraction(90), Fraction(50))


def tail_percentile(n: int):
    """The highest percentile with at least ten samples beyond it, or None."""
    for p in TAIL_CANDIDATES:
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def percentile(values, p) -> float:
    """Nearest-rank percentile: the smallest value with ``p`` percent at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = math.ceil(Fraction(p) * len(ordered) / 100)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def percentile_label(p) -> str:
    p = Fraction(p)
    return f"p{p.numerator}" if p.denominator == 1 else f"p{float(p):g}".replace(".", "")


def median(values) -> float:
    return statistics.median(values)


def latency_summary(name: str, seconds: list[float]) -> dict:
    """Median and rule-chosen tail of per-operation latencies, in ms."""
    ms = [s * 1e3 for s in seconds]
    out = {f"{name}_p50": (median(ms), "ms")}
    p = tail_percentile(len(ms))
    if p is not None and p != 50:
        out[f"{name}_{percentile_label(p)}"] = (percentile(ms, p), "ms")
    out[f"{name}_samples"] = (len(ms), "count")
    return out


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def max_abs_diff(a, b) -> float:
    a, b = list(a), list(b)
    if len(a) != len(b):
        return math.inf
    return max((abs(complex(x) - complex(y)) for x, y in zip(a, b)), default=0.0)


class Tally:
    """Counts gated operations; a miss is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)
        return ok

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.misses.extend(other["misses"][: max(0, 20 - len(self.misses))])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "misses": self.misses}


# ---------------------------------------------------------------------------
# metric catalogue
# ---------------------------------------------------------------------------

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.24),
)


def per_layer_catalogue() -> list[dict]:
    """Every per-layer metric of a traced run.

    ``source`` names the traced pass whose spans give the value; ``span``
    and ``case`` select the spans; ``agg`` says how: ``run_total`` is the
    median over processes of the summed self time, ``per_call`` the
    median self time of one call, ``count`` a size recorded on the span,
    ``calls`` the number of spans.
    """
    cat = []

    def add(name, unit, better, source, span=None, case=None, agg=None):
        cat.append(dict(name=name, unit=unit, better=better, source=source,
                        span=span, case=case, agg=agg))

    add("cli.startup_s", "s", "lower", "startup")
    for sel, kind in SELECTOR_KINDS:
        sk = f"{sel}-{kind}"
        add(f"weyl.even_subgroup_s.{sk}", "s", "lower", "cli-cold",
            "weyl.even_subgroup", sk, "run_total")
    for source, cases in (("cli-cold", CLI_VERIFY_CASES), ("interpolate", INTERP_CASES)):
        for sel, kind, ms in cases:
            c = case_name(sel, kind, ms)
            add(f"grids.build_point_grid_s.{c}", "s", "lower", source,
                "grids.build_point_grid", c, "run_total")
            add(f"grids.build_weight_grid_s.{c}", "s", "lower", source,
                "grids.build_weight_grid", c, "run_total")
            add(f"grids.points.{c}", "count", "lower", source,
                "grids.build_point_grid", c, "count")
            add(f"transform.phase_matrix_s.{c}", "s", "lower", source,
                "transform.phase_matrix", c, "run_total")
            add(f"transform.phase_matrix_bytes.{c}", "bytes-computed", "lower", source,
                "transform.phase_matrix", c, "count")
    for sel, kind, ms in CLI_VERIFY_CASES:
        c = case_name(sel, kind, ms)
        add(f"transform.gram_residual_s.{c}", "s", "lower", "cli-cold",
            "transform.gram_residual", c, "run_total")
    for sel, kind, ms in WARM_CASES:
        c = case_name(sel, kind, ms)
        for fn in ("make_samples", "forward_discrete", "inverse_discrete"):
            add(f"transform.{fn}_s.{c}", "s", "lower", "warm-transform",
                f"transform.{fn}", c, "per_call")
    for sel, kind, ms in INTERP_CASES:
        c = case_name(sel, kind, ms)
        add(f"transform.interpolate_s.{c}", "s", "lower", "interpolate",
            "transform.interpolate", c, "per_call")
        add(f"efunc.xi_s.{c}", "s", "lower", "interpolate", "efunc.xi", c, "per_call")
    add("efunc.xi_calls", "count", "lower", "interpolate", "efunc.xi", None, "calls")
    for sel, kind, res, bound in CONTINUOUS_CASES:
        c = continuous_case_name(sel, kind, res, bound)
        add(f"grids.enumerate_dominant_s.{c}", "s", "lower", "continuous",
            "grids.enumerate_dominant", c, "run_total")
        add(f"transform.quadrature_cells_s.{c}", "s", "lower", "continuous",
            "transform.quadrature_cells", c, "run_total")
        add(f"transform.quadrature_cells.{c}", "count", "lower", "continuous",
            "transform.quadrature_cells", c, "count")
        add(f"transform.continuous_coefficients_s.{c}", "s", "lower", "continuous",
            "transform.continuous_coefficients", c, "run_total")
        add(f"continuous.f_s.{c}", "s", "lower", "continuous", "continuous.f", c, "run_total")
    for tid in TABLE_IDS:
        add(f"verify.regenerate_table_s.{tid}", "s", "lower", "cli-cold",
            "verify.regenerate_table", tid, "run_total")
    add("trace.overhead_pct", "%", "lower", "overhead")
    return cat
