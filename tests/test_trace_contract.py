"""The benchmark's trace contract, checked in-process.

A traced benchmark run (``perfbench/tracing.py``) wraps library
functions by name and reports a per-layer metric only if its span
appears; a target that is gone is printed as ``absent:``.  The
``efunc.xi_*`` metrics come from the ``xi`` calls that ``interpolate``
makes, and the continuous metrics from one ``quadrature_cells`` and one
``enumerate_dominant`` call under each ``continuous_coefficients``.
Every per-layer metric of the CLI and the discrete library workloads
must aggregate to a value from the spans their set-up and first
operation leave.  These tests load the benchmark's files, without
writing anything under ``perfbench/``, and undo every attribute the
tracer patches.
"""

import contextlib
import importlib.util
import io
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import eweyl as E
import eweyl.cli  # noqa: F401  (the tracer patches every loaded eweyl module)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py``, whose siblings import each other by plain name.

    The siblings are found on ``sys.path`` as the scripts find them;
    the path and the sibling modules are restored afterwards.
    """
    siblings = ("common", "tracing")
    saved = {key: sys.modules.get(key) for key in siblings}
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path[:] = path
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module


def _eweyl_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "eweyl" or name.startswith("eweyl."))
    ]


@contextlib.contextmanager
def _instrumented(tracing):
    """A tracer wrapped around the library, unwrapped again on exit."""
    saved = [(m, dict(vars(m))) for m in _eweyl_modules()]
    tracer = tracing.Tracer("contract/0")
    try:
        assert tracing.instrument(tracer, E) == []
        yield tracer
    finally:
        for module, before in saved:
            for key, value in before.items():
                if vars(module).get(key) is not value:
                    setattr(module, key, value)


def test_interpolate_traces_one_xi_span_per_weight():
    tracing = _load("tracing")
    system = E.system_from_selector("a1xa1")
    xi = E.efunc.xi
    with _instrumented(tracing) as tracer:
        grid = E.build_point_grid(system, "e", 3)
        values = [complex(k % 5, -k % 3) for k in range(len(grid))]
        coeffs = E.forward_discrete(E.make_samples(system, "e", 3, values))
        E.interpolate(coeffs, (Q(1, 3), Q(-2, 7)))
    assert E.xi is E.efunc.xi is E.transform.xi is xi

    spans = tracer.finish()
    (interp,) = [s for s in spans if s["name"] == "transform.interpolate"]
    assert interp["case"] == "a1xa1-e-3"
    xis = [s for s in spans if s["name"] == "efunc.xi"]
    assert len(xis) == len(coeffs.spectrum) > 0
    assert all(s["parent"] == interp["id"] and s["case"] == interp["case"] for s in xis)
    assert tracing.aggregate(spans, "efunc.xi", None, "calls") == len(coeffs.spectrum)
    assert tracing.aggregate(spans, "efunc.xi", "a1xa1-e-3", "per_call") is not None


def test_continuous_traces_one_cells_and_one_dominant_span():
    tracing = _load("tracing")
    system = E.system_from_selector("a1xc2")
    quadrature_cells = E.transform.quadrature_cells
    with _instrumented(tracing) as tracer:
        E.continuous_coefficients(lambda p: 1.0, system, "ee", weight_bound=1, resolution=6)
    assert E.transform.quadrature_cells is quadrature_cells

    spans = tracer.finish()
    (cc,) = [s for s in spans if s["name"] == "transform.continuous_coefficients"]
    (cells,) = [s for s in spans if s["name"] == "transform.quadrature_cells"]
    (dominant,) = [s for s in spans if s["name"] == "grids.enumerate_dominant"]
    assert cells["parent"] == dominant["parent"] == cc["id"]
    assert cells["size"] == len(quadrature_cells(system, "ee", 6)) > 0


def test_cli_and_discrete_workloads_give_every_per_layer_metric():
    tracing, child = _load("tracing"), _load("child")
    spans = {}
    for workload in ("warm-transform", "interpolate"):
        tally = child.C.Tally()
        with _instrumented(tracing) as tracer:
            child._setup(workload, 1, time.monotonic(), tally)[0].op(0)
        assert tally.failed == 0, tally.misses
        spans[workload] = tracer.finish()
    with _instrumented(tracing) as tracer, contextlib.redirect_stdout(io.StringIO()):
        for sel, kind, ms in child.C.CLI_VERIFY_CASES:
            argv = ["verify", "--group", sel, "--kind", kind, "--M", *map(str, ms), "--seed", "1"]
            assert E.cli.run(argv) == 0, argv
        assert E.cli.run(["tables"]) == 0
    spans["cli-cold"] = tracer.finish()

    missing = [
        m["name"] for m in child.C.per_layer_catalogue()
        if m["source"] in spans
        and tracing.aggregate(spans[m["source"]], m["span"], m["case"], m["agg"]) is None
    ]
    assert missing == []
