"""In-memory spans recorded around calls into the library.

The library is not edited: :func:`instrument` replaces each target
function, in every loaded ``eweyl`` module that binds it, with a wrapper
that opens a span.  Spans stay in memory and are written out once, when
the traced process ends.  A span records its name, start, end, parent
span, run id, the case it works on and optionally a size.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

from common import case_name


def case_of_args(system, kind, ms, *rest, **kw):
    return case_name(system.selector, kind, ms)


def case_of_group(system, kind, *rest, **kw):
    return f"{system.selector}-{kind}"


def case_of_set(obj, *rest, **kw):
    return case_of_args(obj.system, obj.kind, obj.ms)


def case_of_table(table_id, *rest, **kw):
    return table_id


# (where, attribute, span name, case extractor or None to inherit, size of result)
# where = "eweyl" looks the name up in the package namespace, so the
# probe follows an exported function wherever it moves; a module path
# marks a non-exported function, reported absent if it disappears.
TARGETS = (
    ("eweyl", "even_subgroup", "weyl.even_subgroup", case_of_group, None),
    ("eweyl", "build_point_grid", "grids.build_point_grid", case_of_args, len),
    ("eweyl", "build_weight_grid", "grids.build_weight_grid", case_of_args, len),
    ("eweyl", "enumerate_dominant", "grids.enumerate_dominant", None, len),
    ("eweyl.transform", "phase_matrix", "transform.phase_matrix", case_of_args,
     lambda a: int(a.nbytes)),
    ("eweyl", "gram_residual", "transform.gram_residual", case_of_args, None),
    ("eweyl", "make_samples", "transform.make_samples", case_of_args, None),
    ("eweyl", "forward_discrete", "transform.forward_discrete", case_of_set, None),
    ("eweyl", "inverse_discrete", "transform.inverse_discrete", case_of_set, None),
    ("eweyl", "interpolate", "transform.interpolate", case_of_set, None),
    ("eweyl", "xi", "efunc.xi", None, None),
    ("eweyl.transform", "quadrature_cells", "transform.quadrature_cells", None, len),
    ("eweyl", "continuous_coefficients", "transform.continuous_coefficients", None, None),
    ("eweyl", "regenerate_table", "verify.regenerate_table", case_of_table, None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._coalesced: dict[tuple, dict] = {}

    def _open(self, name, case):
        parent = self._stack[-1] if self._stack else None
        if case is None and parent is not None:
            case = parent["case"]
        span = {
            "id": len(self.spans),
            "name": name,
            "case": case,
            "parent": None if parent is None else parent["id"],
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, case=None):
        record = self._open(name, case)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn, name, case_fn=None, size_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            case = None
            if case_fn is not None:
                try:
                    case = case_fn(*args, **kwargs)
                except (AttributeError, TypeError, ValueError, IndexError):
                    case = None
            span = self._open(name, case)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if size_fn is not None:
                span["size"] = size_fn(result)
            return result

        return traced

    def coalesced(self, fn, name):
        """Time many small calls as one span per parent.

        The span starts at the first call and lasts the summed duration of
        all calls under the same parent; ``calls`` counts them.  This keeps
        a per-cell integrand from producing one span per cell.
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            key = None if parent is None else parent["id"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                agg = self._coalesced.get(key)
                if agg is None:
                    agg = self._coalesced[key] = {
                        "id": None, "name": name,
                        "case": None if parent is None else parent["case"],
                        "parent": key, "run": self.run_id,
                        "start": t0, "end": t0, "calls": 0,
                    }
                agg["end"] += t1 - t0
                agg["calls"] += 1

        return timed

    def finish(self) -> list[dict]:
        for agg in self._coalesced.values():
            agg["id"] = len(self.spans)
            self.spans.append(agg)
        self._coalesced = {}
        return self.spans

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.finish():
                fp.write(json.dumps(span) + "\n")


def instrument(tracer: Tracer, eweyl, targets=TARGETS) -> list[str]:
    """Wrap every target in place; return the span names found absent."""
    absent = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "eweyl" or name.startswith("eweyl."))]
    for where, attr, name, case_fn, size_fn in targets:
        owner = eweyl if where == "eweyl" else _import_or_none(where)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            absent.append(name)
            continue
        wrapper = tracer.wrap(fn, name, case_fn, size_fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return absent


def _import_or_none(module_name):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


# ---------------------------------------------------------------------------
# self time and aggregation
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Map (run, span id) to duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])].append((s["start"], s["end"]))
    return {
        (s["run"], s["id"]): (s["end"] - s["start"])
        - covered(s["start"], s["end"], children[(s["run"], s["id"])])
        for s in spans
    }


def aggregate(spans, span_name, case, agg):
    """One per-layer value from the spans of one pass, or None if no span."""
    selves = self_times(spans)
    picked = [s for s in spans
              if s["name"] == span_name and (case is None or s["case"] == case)]
    if not picked:
        return None
    if agg == "calls":
        return sum(s.get("calls", 1) for s in picked)
    if agg == "count":
        sizes = [s["size"] for s in picked if "size" in s]
        return max(sizes) if sizes else None
    if agg == "per_call":
        return statistics.median(selves[(s["run"], s["id"])] for s in picked)
    per_run = defaultdict(float)
    for s in picked:
        per_run[s["run"]] += selves[(s["run"], s["id"])]
    return statistics.median(per_run.values())
