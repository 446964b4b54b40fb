"""The names the benchmark harness binds to: perfbench/spans.py wraps
module attributes by name and perfbench/workloads.py imports the series
gate, so a rename in the package must fail here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

from mtzeta import suites
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
