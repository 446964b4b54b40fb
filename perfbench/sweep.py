"""Per-layer precision sweep over 64..1024 bits (traced runs only).

Every timing is per call, in microseconds:

- ``kernel.gamma0_us.<branch>``: mean over the u values that the first
  quad-table row of the seed passes to gamma0 (recorded at 128 bits),
  split by branch (u <= 1 series, u > 1 e1).  Replaying real arguments
  matters: gamma0's cost depends strongly on u at high precision.
- ``polylog.mpl_us.rho<r>``: median of cold depth-2 mpl calls whose
  suffix ratio is r; each call gets a distinct argument so the value
  cache never answers.
- ``jets.mul_deg8_us``: median of degree-8 Jet multiplications.
- ``quadrature.nodes_us``: de_quad_01 time per node on the cheap
  integrand u^(-1/2), so node generation dominates.

Below about 116 bits the default target_tol of 1e-30 is refused, so each
context passes target_tol = max(1e-30, 2^-(bits-16)) explicitly.
"""

import statistics
import time

from mpmath import mp, mpf

from mtzeta import kernel, polylog, quadrature, series
from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.jets import Jet

import workloads

BITS = (64, 128, 256, 512, 768, 1024)
RHOS = ("0.5", "0.9", "0.99")
MIN_S = 0.15  # measure each point for at least this long


def _ctx(bits):
    return PrecisionContext(
        precision_bits=bits, target_tol=max(to_mpf("1e-30"), mpf(2) ** -(bits - 16))
    )


def gamma0_arguments(seed, per_branch=16):
    """u values passed to gamma0 by the seed's first quad-table row,
    thinned evenly in call order to at most ``per_branch`` per branch."""
    obj, omega, a, x = workloads.quad_inputs(seed)[0]
    if obj != "I":
        raise RuntimeError("the first quad-table row must exercise gamma0")
    seen = []
    original = series.gamma0

    def recording(u, ctx):
        seen.append(u)
        return original(u, ctx)

    series.gamma0 = recording
    try:
        w = series.WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))
        series.i_integral(to_mpf(x), w, PrecisionContext(precision_bits=128))
    finally:
        series.gamma0 = original
    out = {}
    for branch, pick in (("series", lambda u: u <= 1), ("e1", lambda u: u > 1)):
        us = [u for u in seen if pick(u)]
        step = max(1, len(us) // per_branch)
        out[branch] = us[::step][:per_branch]
    return out


def _timed_calls(call, n_args):
    """Run call(i) for i = 0, 1, ... until MIN_S has passed and every
    argument ran once; return the per-call times in seconds."""
    times = []
    start = time.perf_counter()
    i = 0
    while i < n_args or time.perf_counter() - start < MIN_S:
        t0 = time.perf_counter()
        call(i)
        times.append(time.perf_counter() - t0)
        i += 1
    return times


def run(seed):
    metrics = {}
    us_by_branch = gamma0_arguments(seed)
    for bits in BITS:
        ctx = _ctx(bits)
        for branch, us in us_by_branch.items():
            with mp.workprec(bits + 64):
                args = [+u for u in us]
            kernel.gamma0(args[0], ctx)  # constants at this precision, as in a warm pass
            times = _timed_calls(lambda i: kernel.gamma0(args[i % len(args)], ctx), len(args))
            metrics["kernel.gamma0_us.%s.b%d" % (branch, bits)] = 1e6 * statistics.fmean(times)

        for rho in RHOS:
            with mp.workprec(bits + 64):
                base = to_mpf(rho)

            def call(i, base=base):
                with mp.workprec(bits + 64):
                    z = base * (1 - mpf(i) / 2 ** 40)
                polylog.mpl(polylog.PolylogArgs((2, 1), (mpf("0.5"), z)), ctx)

            metrics["polylog.mpl_us.rho%s.b%d" % (rho, bits)] = 1e6 * statistics.median(_timed_calls(call, 1))

        with ctx.workprec():
            a = Jet(mpf(1) / 3, [mpf(k + 1) / 7 for k in range(9)])
            b = Jet(mpf(1) / 3, [mpf(2 * k + 1) / 11 for k in range(9)])

            def mul(_i):
                for _ in range(10):
                    a * b

            times = _timed_calls(mul, 1)
        metrics["jets.mul_deg8_us.b%d" % bits] = 1e6 * statistics.median(times) / 10

        nodes = [0]

        def f(u):
            nodes[0] += 1
            return 1 / mp.sqrt(u)

        def quad(_i):
            quadrature.de_quad_01(f, ctx)

        nodes[0] = 0
        quad(0)
        per_call = nodes[0]
        times = _timed_calls(quad, 1)
        metrics["quadrature.nodes_us.b%d" % bits] = 1e6 * statistics.median(times) / per_call
    return metrics

