"""Seeded inputs and one evaluation pass for the table workloads.

Inputs are decimal strings, as a CLI user would type them.  Each
workload is a fixed list of strata; the seed only jitters values inside
each stratum (weights log-uniform within a factor of about 2, x within
+-5%), so the amount of work stays close to constant across seeds while
the exact arguments, and hence every cache key, change with the seed.

Every library call goes through a module attribute (``series.i_integral``,
not a name bound at import), so trace wrappers installed by spans.py are
the functions that run.
"""

import random
import time

from mpmath import mp

from mtzeta import asymptotics, series
from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.reports import exact_decimal
from mtzeta.suites import SERIES_TOL

PRECISIONS = (128, 256, 512)


def _dec(v):
    return "%.4g" % v


def _jitter(rng, v, spread):
    return v * (1 + spread * (rng.random() - 0.5))


def quad_inputs(seed):
    """`table I` / `table M` rows: (object, omega, a, x).

    Three weight configurations, each with an x-grid of three points in
    (0, 2): r = 1 for I with a = 0, r = 2 for M with a > 0, and r = 3 for
    M with a = 0 and weight ratio about 800.  Weights and a move by +-3%,
    x by +-5%.  The points avoid two spots where the DE quadrature's
    work, not just its arguments, would change with the seed: an I
    weight near 1 (nodes cluster at u = 1, where gamma0 switches branch),
    and I at x above about 1.1, where some jittered inputs converge one
    level early.
    """
    rng = random.Random("quad-table/%d" % seed)
    configs = [
        ("I", (1.6,), 0.0, (0.2, 0.65, 1.05)),
        ("M", (0.5, 2.0), 1.0, (0.3, 1.0, 1.7)),
        ("M", (0.003, 0.5, 2.4), 0.0, (0.5, 1.2, 1.8)),
    ]
    rows = []
    for obj, omega, a, xs in configs:
        omega = tuple(_dec(_jitter(rng, w, 0.06)) for w in omega)
        a = _dec(_jitter(rng, a, 0.06))
        rows.extend((obj, omega, a, _dec(_jitter(rng, x, 0.1))) for x in xs)
    return rows


def coeff_inputs(seed):
    """`expand` / `table c` configurations: (omega, a, M, x).

    Weights are fixed multiples of a (jittered by +-3%), because the
    polylog cost follows the telescoping ratios (a + |omega_K|)/(a + |omega|),
    which depend only on omega/a.  r = 2 has |omega| < a, so
    expression_by_S applies (compared with power_series_I at x), and its
    ratios lie on both sides of 0.9 (0.82 to 0.92); r = 3 has ratios up
    to 0.86 and x = None.
    """
    rng = random.Random("coeff-table/%d" % seed)

    a2 = 1.8 + 0.4 * rng.random()
    a3 = 0.8 + 0.4 * rng.random()
    return [
        (
            (_dec(_jitter(rng, 0.1 * a2, 0.06)), _dec(_jitter(rng, 0.12 * a2, 0.06))),
            _dec(a2),
            5,
            _dec(_jitter(rng, 0.05, 0.1)),
        ),
        (
            tuple(_dec(_jitter(rng, k * a3, 0.06)) for k in (1, 2, 3)),
            _dec(a3),
            3,
            None,
        ),
    ]


def inputs(workload, seed):
    if workload == "quad-table":
        return quad_inputs(seed)
    if workload == "coeff-table":
        return coeff_inputs(seed)
    raise ValueError("no table inputs for workload %r" % (workload,))


def _ctx(bits):
    return PrecisionContext(precision_bits=bits)


class Pass:
    """Accumulates one pass's evaluations, checks, and per-precision time."""

    def __init__(self):
        self.evals = 0
        self.checked_ok = 0
        self.checks = 0
        self.failures = []
        self.values = {}
        self.intervals = {}

    def evaluate(self, key, bits, fn, *args):
        self.evals += 1
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # counted as a failed operation, never redrawn
            value = None
            self.failures.append("%s at %d bits raised %s: %s" % (key, bits, type(exc).__name__, exc))
        self.intervals["%s@%d" % (key, bits)] = (t0, time.perf_counter())
        self.values[(key, bits)] = value
        return value

    def check(self, ok, what):
        self.checks += 1
        if not ok:
            self.failures.append("check failed: " + what)
        return ok

    def summary(self):
        return {
            "evals": self.evals,
            "checks": self.checks,
            "checked_ok": self.checked_ok,
            "failures": self.failures,
            "values": {
                "%s@%d" % (k, b): (None if v is None else exact_decimal(v))
                for (k, b), v in sorted(self.values.items())
            },
        }


def _agree(lo, hi, bits):
    """Neighbouring precisions agree within the lower one's target_tol,
    relative to the value when it exceeds 1 (the quadrature's own
    acceptance rule)."""
    tol = _ctx(bits).target_tol
    with mp.workprec(1100):
        return abs(lo - hi) <= tol * max(1, abs(hi))


def quad_pass(items):
    """Evaluate every item at every precision, then check neighbours."""
    p = Pass()
    for obj, omega, a, x in items:
        key = "%s(%s;%s;%s)" % (obj, ",".join(omega), a, x)
        w = series.WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))
        fn_name = "i_integral" if obj == "I" else "m_integral"
        vals = []
        for bits in PRECISIONS:
            vals.append(p.evaluate(key, bits, getattr(series, fn_name), to_mpf(x), w, _ctx(bits)))
        ok_all = True
        for (b_lo, v_lo), v_hi in zip(zip(PRECISIONS, vals), vals[1:]):
            ok = v_lo is not None and v_hi is not None and _agree(v_lo, v_hi, b_lo)
            ok_all &= p.check(ok, "%s %d vs next precision" % (key, b_lo))
        if ok_all:
            p.checked_ok += len(PRECISIONS)
    return p


def coeff_pass(items):
    """c_{r,m} for m = 1..M, c'_{r,m} for m <= r, and expression_by_S
    against power_series_I, at every precision."""
    gate = to_mpf(SERIES_TOL)
    p = Pass()
    for omega, a, M, x in items:
        r = len(omega)
        cfg = "(%s;%s)" % (",".join(omega), a)
        w = series.WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))
        per_bits = {}
        for bits in PRECISIONS:
            ctx = _ctx(bits)
            cs = [p.evaluate("c%d%s" % (m, cfg), bits, asymptotics.c_coeff, r, m, w, ctx) for m in range(1, M + 1)]
            cps = [p.evaluate("cp%d%s" % (m, cfg), bits, asymptotics.c_prime_coeff, r, m, w, ctx) for m in range(1, r + 1)]
            ok_cfg = True
            with mp.workprec(bits + 64):
                for m, (c, cp) in enumerate(zip(cs, cps), start=1):
                    ok = c is not None and cp is not None and abs(c - cp) <= gate
                    ok_cfg &= p.check(ok, "c vs c' %s m=%d at %d bits" % (cfg, m, bits))
            if x is not None:
                xv = to_mpf(x)
                es = p.evaluate("S%s@x=%s" % (cfg, x), bits, asymptotics.expression_by_S, xv, w, ctx)
                ps = p.evaluate("PS%s@x=%s" % (cfg, x), bits, asymptotics.power_series_I, xv, w, M, ctx)
                ok = es is not None and ps is not None and cs[-1] is not None
                if ok:
                    # truncation gate: the last included term of the series
                    with mp.workprec(bits + 64):
                        last = abs(cs[-1]) * xv ** (M - r) / (w.a + w.total) ** xv
                        ok = abs(es - ps) <= last
                ok_cfg &= p.check(ok, "expression_by_S vs power_series_I %s at %d bits" % (cfg, bits))
            per_bits[bits] = cs
            if ok_cfg:
                p.checked_ok += M + r + (2 if x is not None else 0)
        for b_lo, b_hi in zip(PRECISIONS, PRECISIONS[1:]):
            for m, (lo, hi) in enumerate(zip(per_bits[b_lo], per_bits[b_hi]), start=1):
                ok = lo is not None and hi is not None and _agree(lo, hi, b_lo)
                p.check(ok, "c%d%s %d vs %d bits" % (m, cfg, b_lo, b_hi))
    return p


def run_pass(workload, items):
    if workload == "quad-table":
        return quad_pass(items)
    return coeff_pass(items)
