"""The names the benchmark harness binds to: perfbench/spans.py wraps
module attributes by name and perfbench/workloads.py imports the series
gate, so a rename in the package must fail here, not in a traced run."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import mpmath

from mtzeta import asymptotics, combinatorics, quadrature, suites
from mtzeta.context import PrecisionContext
from mtzeta.jets import Jet
from mtzeta.series import WeightConfig

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
    # the quadrature.* spans wrap the module attribute; de_quad_0inf's one
    # call on the folded line must reach it
    calls = []
    original = quadrature.de_quad_01

    def wrapped(f, ctx, tol=None):
        calls.append(ctx)
        return original(f, ctx, tol)

    monkeypatch.setattr(quadrature, "de_quad_01", wrapped)
    quadrature.de_quad_0inf(
        lambda t: mpmath.exp(-t) / (1 + t * t), PrecisionContext(precision_bits=128)
    )
    assert len(calls) == 1


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


def test_c_coeff_calls_mpl_and_the_generators_through_the_module(monkeypatch):
    # the polylog.mpl and combinatorics.* spans wrap these attributes of
    # asymptotics, and a traced coeff-table run counts a span that does
    # not fire as a failed operation: c_coeff prefetches its sums, but
    # still reads each (family, weak composition) term through mpl
    calls, items = Counter(), Counter()

    def counted_mpl(*args):
        calls["mpl"] += 1
        return mpl(*args)

    def iterated(name, gen):
        def wrapped(*args):
            calls[name] += 1
            for item in gen(*args):
                items[name] += 1
                yield item

        return wrapped

    mpl = asymptotics.mpl
    monkeypatch.setattr(asymptotics, "mpl", counted_mpl)
    for name in ("compositions", "weak_compositions", "disjoint_subset_families"):
        monkeypatch.setattr(asymptotics, name, iterated(name, getattr(asymptotics, name)))
    r, m = 3, 4
    w = WeightConfig((mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(3)), mpmath.mpf("0.5"))
    asymptotics.c_coeff(r, m, w, PrecisionContext(precision_bits=128))
    comps = [
        (t, s, comp)
        for t in range(1, min(m, r) + 1)
        for s in range(1, t + 1)
        for comp in combinatorics.compositions(t, s)
    ]
    assert calls["mpl"] == sum(
        len(list(combinatorics.disjoint_subset_families(r, comp)))
        * len(list(combinatorics.weak_compositions(m - t, s)))
        for t, s, comp in comps
    )
    assert items["compositions"] == len(comps)
    assert calls["weak_compositions"] == calls["disjoint_subset_families"] == len(comps)
    assert items["weak_compositions"] > 0 and items["disjoint_subset_families"] > 0
