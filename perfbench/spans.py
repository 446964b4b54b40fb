"""Spans recorded around the public functions of each mtzeta layer.

The wrappers live here, not in the package: ``install()`` replaces every
module attribute in ``mtzeta.*`` that *is* one of the wrapped functions,
so a name imported with ``from .kernel import gamma0`` into
``mtzeta.series`` is wrapped where it is called, not only where it is
defined.  A binding that finds no site raises instead of letting its
spans go silently missing.

Spans are kept in memory as ``[name, start, end, parent, sample]`` lists
(``parent`` is an index into the list, -1 at the top) and written out by
the caller; ``layer_metrics`` derives counts, inclusive and self times
from them.  Only single-threaded, single-process passes are traced.
"""

import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute).  Generators are timed per
# next() call; "quadrature.integrand" is the integrand handed to de_quad_01.
FUNCTIONS = {
    "quadrature.de_quad_01": ("mtzeta.quadrature", "de_quad_01"),
    "quadrature.de_quad_0inf": ("mtzeta.quadrature", "de_quad_0inf"),
    "kernel.gamma0": ("mtzeta.kernel", "gamma0"),
    "polylog.mpl": ("mtzeta.polylog", "mpl"),
    "polylog.mpl_one_var": ("mtzeta.polylog", "mpl_one_var"),
    "combinatorics.compositions": ("mtzeta.combinatorics", "compositions"),
    "combinatorics.weak_compositions": ("mtzeta.combinatorics", "weak_compositions"),
    "combinatorics.disjoint_subset_families": ("mtzeta.combinatorics", "disjoint_subset_families"),
    "asymptotics.c_coeff": ("mtzeta.asymptotics", "c_coeff"),
    "asymptotics.c_prime_coeff": ("mtzeta.asymptotics", "c_prime_coeff"),
    "asymptotics.expression_by_S": ("mtzeta.asymptotics", "expression_by_S"),
    "asymptotics.power_series_I": ("mtzeta.asymptotics", "power_series_I"),
    "asymptotics.main_term_I": ("mtzeta.asymptotics", "main_term_I"),
    "series.i_integral": ("mtzeta.series", "i_integral"),
    "series.m_integral": ("mtzeta.series", "m_integral"),
    "series.zeta_ez_ones": ("mtzeta.series", "zeta_ez_ones"),
    "suites.r2m2": ("mtzeta.suites", "suite_r2m2"),
    "suites.r3m3": ("mtzeta.suites", "suite_r3m3"),
    "suites.inversion": ("mtzeta.suites", "suite_inversion"),
    "suites.asymptotic-order": ("mtzeta.suites", "suite_asymptotic_order"),
    "suites.mzf": ("mtzeta.suites", "suite_mzf"),
    "cli.cli_main": ("mtzeta.cli", "cli_main"),
}
GENERATORS = {
    "combinatorics.compositions",
    "combinatorics.weak_compositions",
    "combinatorics.disjoint_subset_families",
}
JET_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "exp", "log",
)

# span name -> workloads whose traced pass must record at least one
SPAN_WORKLOADS = {
    "quadrature.de_quad_01": ("verify-default", "quad-table"),
    "quadrature.de_quad_0inf": ("verify-default", "quad-table"),
    "quadrature.integrand": ("verify-default", "quad-table"),
    "kernel.gamma0.series": ("verify-default", "quad-table"),
    "kernel.gamma0.e1": ("verify-default", "quad-table"),
    "polylog.mpl": ("verify-default", "coeff-table"),
    "polylog.mpl_one_var": ("verify-default",),
    "combinatorics.compositions": ("verify-default", "coeff-table"),
    "combinatorics.weak_compositions": ("verify-default", "coeff-table"),
    "combinatorics.disjoint_subset_families": ("verify-default", "coeff-table"),
    "asymptotics.c_coeff": ("verify-default", "coeff-table"),
    "asymptotics.c_prime_coeff": ("coeff-table",),
    "asymptotics.expression_by_S": ("coeff-table",),
    "asymptotics.power_series_I": ("verify-default", "coeff-table"),
    "asymptotics.main_term_I": ("verify-default",),
    "jets.op": ("coeff-table",),
    "series.i_integral": ("verify-default", "quad-table"),
    "series.m_integral": ("verify-default", "quad-table"),
    "series.zeta_ez_ones": ("verify-default",),
    "mpmath.quad": ("verify-default",),
    "suites.r2m2": ("verify-default",),
    "suites.r3m3": ("verify-default",),
    "suites.inversion": ("verify-default",),
    "suites.asymptotic-order": ("verify-default",),
    "suites.mzf": ("verify-default",),
    "reports.to_json_line": ("verify-default",),
    "cli.cli_main": ("verify-default",),
}


class Recorder:
    """In-memory span sink plus the deterministic counters that need
    the call's arguments (gamma0 branch, polylog keys and ratios)."""

    def __init__(self, sample=0):
        self.sample = sample
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.polylog_keys = set()
        self.sites = {}
        self._undo = []

    def open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.sample]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        rec_open, rec_close = self.open, self.close

        def traced(*args, **kwargs):
            rec = rec_open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec_close(rec)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        rec_open, rec_close, counts = self.open, self.close, self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = rec_open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec_close(rec)
                counts["combinatorics.items"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- argument-aware wrappers -----------------------------------------

    def _gamma0(self, fn):
        rec_open, rec_close = self.open, self.close

        def gamma0(u, ctx):
            rec = rec_open("kernel.gamma0.series" if u <= 1 else "kernel.gamma0.e1")
            try:
                return fn(u, ctx)
            finally:
                rec_close(rec)

        gamma0.__wrapped__ = fn
        return gamma0

    def _polylog(self, name, fn, key_of):
        rec_open, rec_close, counts, keys = self.open, self.close, self.counts, self.polylog_keys

        def traced(*args):
            key, rho = key_of(*args)
            counts["polylog.calls"] += 1
            if rho > 0.9:
                counts["polylog.rho_gt_0_9"] += 1
            keys.add(key)
            rec = rec_open(name)
            try:
                return fn(*args)
            finally:
                rec_close(rec)

        traced.__wrapped__ = fn
        return traced

    def _de_quad_01(self, fn):
        wrap = self.wrap
        outer = self.wrap("quadrature.de_quad_01", lambda f, ctx, tol=None: fn(wrap("quadrature.integrand", f), ctx, tol))
        outer.__wrapped__ = fn
        return outer

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, original, replacement, name):
        sites = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "mtzeta" and not modname.startswith("mtzeta."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    sites += 1
        if sites == 0:
            raise RuntimeError("no binding site found for %s" % name)
        self.sites[name] = sites

    def install(self):
        """Wrap every function in FUNCTIONS at each of its binding sites,
        the Jet ring operations, IdentityReport.to_json_line and mp.quad."""
        import importlib

        import mpmath

        import mtzeta  # noqa: F401  (loads every submodule)
        from mtzeta.context import to_mpf
        from mtzeta.jets import Jet
        from mtzeta.reports import IdentityReport

        def mpl_key(p, ctx):
            rho, acc = 0.0, 1.0
            for z in reversed(p.args):
                acc *= abs(float(z))
                rho = max(rho, acc)
            return ("mpl", p.index.parts, p.args, ctx.precision_bits), rho

        def one_var_key(index, z, ctx):
            parts = index.parts if hasattr(index, "parts") else tuple(index)
            z = to_mpf(z)
            return ("mpl_one_var", parts, z, ctx.precision_bits), abs(float(z))

        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(modname), attr)
            if name in GENERATORS:
                replacement = self.wrap_generator(name, original)
            elif name == "kernel.gamma0":
                replacement = self._gamma0(original)
            elif name == "polylog.mpl":
                replacement = self._polylog(name, original, mpl_key)
            elif name == "polylog.mpl_one_var":
                replacement = self._polylog(name, original, one_var_key)
            elif name == "quadrature.de_quad_01":
                replacement = self._de_quad_01(original)
            else:
                replacement = self.wrap(name, original)
            self._replace_everywhere(original, replacement, name)

        for op in JET_OPS:
            self._set(Jet, op, self.wrap("jets.op", getattr(Jet, op)))
        self._set(IdentityReport, "to_json_line", self.wrap("reports.to_json_line", IdentityReport.to_json_line))
        self._set(mpmath.mp, "quad", self.wrap("mpmath.quad", mpmath.mp.quad))
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def export(self):
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "polylog_distinct_keys": len(self.polylog_keys),
            "sites": self.sites,
        }


_MISSING = object()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _layer(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per span name: count, inclusive seconds, self seconds, and the
    inclusive seconds of spans not nested in a span of the same layer."""
    n = len(spans)
    child_s = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    out = defaultdict(lambda: {"count": 0, "incl_s": 0.0, "self_s": 0.0, "outer_s": 0.0})
    for i, (name, start, end, parent, _sample) in enumerate(spans):
        agg = out[name]
        dur = end - start
        agg["count"] += 1
        agg["incl_s"] += dur
        agg["self_s"] += dur - child_s[i]
        if not _has_ancestor(spans, parent, lambda nm: _layer(nm) == _layer(name)):
            agg["outer_s"] += dur
    return dict(out)


def _has_ancestor(spans, idx, pred):
    while idx >= 0:
        if pred(spans[idx][0]):
            return True
        idx = spans[idx][3]
    return False


def layer_metrics(export):
    """The traced-run per-layer metrics, by their BENCHMARK.json names."""
    spans = export["spans"]
    counts = export["counts"]
    agg = summarize(spans)

    def g(name, field):
        return agg.get(name, {}).get(field, 0)

    def outer(layer):
        return sum(v["outer_s"] for k, v in agg.items() if _layer(k) == layer)

    # c_coeff self time: minus its direct polylog and combinatorics children
    idx_child = defaultdict(float)
    for s in spans:
        if s[3] >= 0 and _layer(s[0]) in ("polylog", "combinatorics"):
            idx_child[s[3]] += s[2] - s[1]
    c_self = sum(
        (s[2] - s[1]) - idx_child[i] for i, s in enumerate(spans) if s[0] == "asymptotics.c_coeff"
    )
    tail_quad = sum(
        s[2] - s[1]
        for s in spans
        if s[0] == "mpmath.quad" and _has_ancestor(spans, s[3], lambda nm: nm == "series.zeta_ez_ones")
    )
    calls = counts.get("polylog.calls", 0)
    distinct = export["polylog_distinct_keys"]
    m = {
        "quadrature.de_quad_01.calls": g("quadrature.de_quad_01", "count"),
        "quadrature.integrand.evals": g("quadrature.integrand", "count"),
        "quadrature.nodes_s": g("quadrature.de_quad_01", "self_s"),
        "quadrature.integrand_s": g("quadrature.integrand", "incl_s"),
        "kernel.gamma0.calls.series": g("kernel.gamma0.series", "count"),
        "kernel.gamma0.calls.e1": g("kernel.gamma0.e1", "count"),
        "kernel.gamma0_s.series": g("kernel.gamma0.series", "incl_s"),
        "kernel.gamma0_s.e1": g("kernel.gamma0.e1", "incl_s"),
        "polylog.calls": calls,
        "polylog_s": outer("polylog"),
        "polylog.distinct_keys": distinct,
        "polylog.hit_ratio": (1 - distinct / calls) if calls else 0.0,
        "polylog.rho_gt_0_9_share": (counts.get("polylog.rho_gt_0_9", 0) / calls) if calls else 0.0,
        "combinatorics.items": counts.get("combinatorics.items", 0),
        "combinatorics_s": outer("combinatorics"),
        "asymptotics.c_coeff.calls": g("asymptotics.c_coeff", "count"),
        "asymptotics.c_coeff.self_s": c_self,
        "asymptotics.c_prime_coeff_s": g("asymptotics.c_prime_coeff", "incl_s"),
        "asymptotics.expression_by_S_s": g("asymptotics.expression_by_S", "incl_s"),
        "asymptotics.power_series_I_s": g("asymptotics.power_series_I", "incl_s"),
        "asymptotics.main_term_I_s": g("asymptotics.main_term_I", "incl_s"),
        "jets.ops": g("jets.op", "count"),
        "jets_s": outer("jets"),
        "series.i_integral.self_s": g("series.i_integral", "self_s"),
        "series.m_integral.self_s": g("series.m_integral", "self_s"),
        "series.zeta_ez_ones.calls": g("series.zeta_ez_ones", "count"),
        "series.zeta_ez_ones.direct_s": g("series.zeta_ez_ones", "self_s"),
        "series.zeta_ez_ones.tail_quad_s": tail_quad,
        "reports.render_s": g("reports.to_json_line", "incl_s"),
        "cli.self_s": g("cli.cli_main", "self_s"),
    }
    for suite in ("r2m2", "r3m3", "inversion", "asymptotic-order", "mzf"):
        m["suites.%s_s" % suite] = g("suites." + suite, "incl_s")
    fired = sorted(name for name in agg)
    return m, fired


DETERMINISTIC = (
    "quadrature.de_quad_01.calls",
    "quadrature.integrand.evals",
    "kernel.gamma0.calls.series",
    "kernel.gamma0.calls.e1",
    "polylog.calls",
    "polylog.distinct_keys",
    "combinatorics.items",
    "asymptotics.c_coeff.calls",
    "jets.ops",
    "series.zeta_ez_ones.calls",
)
