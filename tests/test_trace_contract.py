"""The benchmark's trace contract, checked in-process.

A traced benchmark run (``perfbench/tracing.py``) wraps library
functions by name and reports a per-layer metric only if its span
appears; a target that is gone is printed as ``absent:``.  The
``efunc.xi_*`` metrics come from the ``xi`` calls that ``interpolate``
makes, and the continuous metrics from one ``quadrature_cells`` and one
``enumerate_dominant`` call under each ``continuous_coefficients``.
This test loads the benchmark's tracer from its file, without writing
anything under ``perfbench/``, and undoes every attribute the tracer
patches.
"""

import contextlib
import importlib.util
import sys
from fractions import Fraction as Q
from pathlib import Path

import eweyl as E
import eweyl.cli  # noqa: F401  (the tracer patches every loaded eweyl module)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    """``tracing`` imports its sibling ``common`` by plain name."""
    saved = sys.modules.get("common")
    bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        sys.modules["common"] = _load("common")
        return _load("tracing")
    finally:
        sys.dont_write_bytecode = bytecode
        if saved is None:
            del sys.modules["common"]
        else:
            sys.modules["common"] = saved


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
    tracing = _load_tracing()
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
    tracing = _load_tracing()
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
