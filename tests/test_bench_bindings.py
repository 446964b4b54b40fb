"""The names the benchmark harness binds to: perfbench/spans.py wraps
module attributes by name and perfbench/workloads.py imports the series
gate, so a rename in the package must fail here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import mpmath

from mtzeta import quadrature, suites
from mtzeta.context import PrecisionContext
from mtzeta.jets import Jet

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_bindings_resolve():
    spans = _load_spans()
    for name, (modname, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(modname), attr, None)), name
    for op in spans.JET_OPS:
        assert hasattr(Jet, op), op
    assert hasattr(suites, "SERIES_TOL")


def test_de_quad_0inf_calls_de_quad_01_through_the_module(monkeypatch):
    # the quadrature.* spans wrap the module attribute; both halves of
    # de_quad_0inf must reach it
    calls = []
    original = quadrature.de_quad_01

    def wrapped(f, ctx, tol=None):
        calls.append(ctx)
        return original(f, ctx, tol)

    monkeypatch.setattr(quadrature, "de_quad_01", wrapped)
    quadrature.de_quad_0inf(
        lambda t: mpmath.exp(-t) / (1 + t * t), PrecisionContext(precision_bits=128)
    )
    assert len(calls) == 2


def test_mzf_reaches_mp_quad_through_the_attribute(monkeypatch):
    # the mpmath.quad span wraps mpmath.mp.quad; the Euler-Maclaurin tail
    # of each default r >= 2 mzf point must reach it there, once per point
    calls = []
    original = mpmath.mp.quad

    def wrapped(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(mpmath.mp, "quad", wrapped)
    suites.suite_mzf(ctx=PrecisionContext())
    assert len(calls) == 4
