"""Tanh-sinh kernel against closed-form integrals, including endpoint
singularities, plus failure-mode behavior, and the node table against
nodes recomputed on every call.
"""

import time

import pytest
from mpmath import mp, mpf

from mtzeta import quadrature
from mtzeta.context import GUARD_BITS, QUAD_LEVELS, PrecisionContext
from mtzeta.errors import QuadratureError
from mtzeta.kernel import gamma0
from mtzeta.quadrature import de_quad_01, de_quad_0inf

CTX = PrecisionContext()
TOL = CTX.target_tol


@pytest.fixture
def cold_nodes(monkeypatch):
    """An empty node table for the test, restored afterwards."""
    monkeypatch.setattr(quadrature, "_nodes", {})


def test_power_singularity():
    # int_0^1 u^{x-1} du = 1/x, endpoint singularity at 0
    with CTX.workprec():
        for x in (mpf("0.3"), mpf("0.5"), mpf("1.7")):
            v = de_quad_01(lambda u: u ** (x - 1), CTX)
            assert abs(v - 1 / x) <= TOL


def test_log_singularity():
    with CTX.workprec():
        v = de_quad_01(lambda u: -mp.log(u), CTX)
        assert abs(v - 1) <= TOL
        # squared log, int_0^1 log(u)^2 du = 2
        v2 = de_quad_01(lambda u: mp.log(u) ** 2, CTX)
        assert abs(v2 - 2) <= TOL


def _floor_contexts():
    for bits in (128, 256, 512):
        yield PrecisionContext(precision_bits=bits, target_tol=mpf(2) ** -(bits - 16))


def test_half_line_gamma_values():
    for ctx in _floor_contexts():
        with ctx.workprec():
            v = de_quad_0inf(lambda t: mp.exp(-t) / mp.sqrt(t), ctx)
            assert abs(v - mp.sqrt(mp.pi)) <= ctx.target_tol, ctx.precision_bits
            v2 = de_quad_0inf(lambda t: mp.exp(-t) * mp.log(t), ctx)
            assert abs(v2 + mp.euler) <= ctx.target_tol, ctx.precision_bits


def test_half_line_counts_the_centre_once():
    # the line's centre u = log 2 is the node s = 1/2 of the folded
    # integrand; counted on both of its sides, the sum would be off by
    # (pi/2) e^{-log 2} h
    for ctx in _floor_contexts():
        with ctx.workprec():
            v = de_quad_0inf(lambda t: mp.exp(-t), ctx)
            assert abs(v - 1) <= ctx.target_tol, ctx.precision_bits


def test_folded_line_cuts_the_zero_side(monkeypatch):
    # the side s > 1/2 of de_quad_0inf's folded integrand is zero, so
    # each row evaluates it _TAIL_RUN times before cutting it
    zero_side_calls = []
    row_sum = quadrature._row_sum

    def counted(f, level, cut):
        zero_side_calls.append(0)

        def g(s):
            zero_side_calls[-1] += s > 0.5
            return f(s)

        return row_sum(g, level, cut)

    monkeypatch.setattr(quadrature, "_row_sum", counted)
    de_quad_0inf(lambda t: mp.exp(-t) / mp.sqrt(t), CTX)
    assert len(zero_side_calls) > 2
    assert all(n == quadrature._TAIL_RUN for n in zero_side_calls)


def test_smooth_case():
    with CTX.workprec():
        v = de_quad_01(lambda u: mp.exp(u), CTX)
        assert abs(v - (mp.e - 1)) <= TOL


def _warm_up():
    # converges over several levels and reaches far into each row
    de_quad_01(lambda u: u ** mpf("-0.5"), CTX)


# each failure must raise with a cold table and again once the rows at
# that precision are stored: a stored row cannot skip a per-call check

def test_level_cap_raises(cold_nodes, monkeypatch):
    for _ in range(2):
        with monkeypatch.context() as m:
            m.setattr(quadrature, "QUAD_LEVELS", 1)
            with pytest.raises(QuadratureError):
                de_quad_01(lambda u: u ** mpf("-0.97"), CTX)
        _warm_up()


def test_nonfinite_integrand_raises(cold_nodes):
    for _ in range(2):
        with pytest.raises(QuadratureError):
            de_quad_01(lambda u: mpf("inf"), CTX)
        _warm_up()


def test_divergent_tail_raises(cold_nodes):
    # non-integrable singularity: transformed tail never decays
    for _ in range(2):
        with pytest.raises(QuadratureError, match="does not decay"):
            de_quad_01(lambda u: 1 / u, CTX)
        _warm_up()


# ---------------------------------------------------------------------------
# node table
# ---------------------------------------------------------------------------

def _oracle_node(j, h):
    """(u_left, u_right, du/dt) at t = j*h, the per-call node arithmetic
    the table replaced."""
    t = j * h
    ch = mp.cosh(t)
    q = mp.exp(-mp.pi * mp.sinh(t))
    base = q / (1 + q)
    return base, 1 - base, mp.pi * ch * q / (1 + q) ** 2


def _oracle_row_sum(f, h, j_start, j_step, cut):
    """A row on per-call nodes, each side cut after its own three
    consecutive negligible terms."""
    total = mpf(0)
    small_runs = [0, 0]
    j = j_start
    while min(small_runs) < 3:
        node = _oracle_node(j, h)
        for side in (0, 1):
            if small_runs[side] < 3:
                term = node[2] * f(node[side])
                total += term
                small = abs(term) <= cut * (1 + abs(total))
                small_runs[side] = small_runs[side] + 1 if small else 0
        j += j_step
    return total


def _pair_rule_row_sum(f, h, j_start, j_step, cut):
    """A row cut after three consecutive negligible node pairs, the rule
    before each side was cut on its own."""
    total = mpf(0)
    small_run = 0
    j = j_start
    while small_run < 3:
        u_left, u_right, w = _oracle_node(j, h)
        term = w * (f(u_left) + f(u_right))
        total += term
        small_run = small_run + 1 if abs(term) <= cut * (1 + abs(total)) else 0
        j += j_step
    return total


def _oracle_quad_01(f, ctx, row_sum=_oracle_row_sum):
    """de_quad_01 on per-call nodes: two levels agree to tol/4, and the
    digit-doubling estimate d_k^2/d_{k-1} is below max(2^-(bits-16),
    (tol/4)^2)/4, both relative to max(1, |S_k|)."""
    with ctx.workprec():
        tol = mpf(ctx.target_tol)
        deep = max(mpf(2) ** -(ctx.precision_bits - 16), (tol / 4) ** 2) / 4
        cut = mpf(2) ** (-(ctx.precision_bits + 8))
        g = lambda u: mpf(f(u))
        h = mpf(1)
        row = mp.pi / 4 * g(mpf(1) / 2) + row_sum(g, h, 1, 1, cut)
        prev, prev_d = h * row, None
        for _ in range(QUAD_LEVELS):
            h = h / 2
            row = row + row_sum(g, h, 1, 2, cut)
            cur = h * row
            d, size = abs(cur - prev), max(1, abs(cur))
            if d <= tol / 4 * size and (d == 0 or prev_d is not None and d * d <= prev_d * deep * size):
                return +cur
            prev, prev_d = cur, d
        raise AssertionError("oracle did not converge")


def _oracle_quad_0inf(f, ctx, row_sum=_oracle_row_sum):
    """The folded line of de_quad_0inf on per-call nodes."""
    half = mpf(1) / 2

    def folded(s):
        if s > half:
            return mpf(0)
        far = f(-mp.ln(s)) / s
        return far if s == half else f(-mp.log1p(-s)) / (1 - s) + far

    return _oracle_quad_01(folded, ctx, row_sum)


def test_node_table_matches_per_call_nodes(cold_nodes):
    power = lambda u: u ** (mpf(3) / 10 - 1)
    log_sq = lambda u: mp.log(u) ** 2
    gamma_half = lambda t: mp.exp(-t) / mp.sqrt(t)
    # the first visit to each precision runs on a cold table, the later
    # ones on rows other integrands and precisions have extended
    for bits in (256, 128, 512, 128, 256, 512):
        ctx = PrecisionContext(precision_bits=bits)
        for f in (power, log_sq):
            assert de_quad_01(f, ctx)._mpf_ == _oracle_quad_01(f, ctx)._mpf_, bits
        assert de_quad_0inf(gamma_half, ctx)._mpf_ == _oracle_quad_0inf(gamma_half, ctx)._mpf_, bits


def _count_calls(monkeypatch, module, name):
    """The argument tuples of every call of module.name, which stays bound."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_warm_table_computes_no_node(cold_nodes, monkeypatch):
    # every node takes its cosh and sinh from one mpf_cosh_sinh call, on
    # a table miss only
    calls = _count_calls(monkeypatch, quadrature, "mpf_cosh_sinh")
    f = lambda t: mp.exp(-t) * mp.log(t)
    first = de_quad_0inf(f, CTX)
    assert len(calls) == sum(map(len, quadrature._nodes.values())) > 0
    calls.clear()
    second = de_quad_0inf(f, CTX)
    assert calls == []
    assert first._mpf_ == second._mpf_


def test_warm_far_map_takes_no_logarithm(cold_nodes, monkeypatch):
    # the two u of each folded node come from mpf_log on a miss of the
    # far map only, at the working precision
    monkeypatch.setattr(quadrature, "_far_u", {})
    calls = _count_calls(monkeypatch, quadrature, "mpf_log")
    f = lambda t: mp.exp(-t) / (1 + t)
    first = de_quad_0inf(f, CTX)
    assert list(quadrature._far_u) == [CTX.precision_bits + GUARD_BITS]
    assert 0 < len(calls) <= 2 * len(quadrature._far_u[CTX.precision_bits + GUARD_BITS])
    calls.clear()
    second = de_quad_0inf(f, CTX)
    assert calls == []
    assert first._mpf_ == second._mpf_


def test_algebraic_tail_raises_fast():
    # 1/(1+t^2) decays only algebraically, outside de_quad_0inf's contract
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="does not decay"):
        de_quad_0inf(lambda t: 1 / (1 + t * t), CTX)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# each side of a row cut on its own
# ---------------------------------------------------------------------------

def _mellin_cases(ctx):
    """The Mellin integrands of I (r = 1, x = 0.005) and of M (omega
    near (0.003, 0.5, 2.4), x = 0.5) on (0, inf), without the node
    factor table of series."""
    with ctx.workprec():
        x_i, om_i = mpf("0.005"), mpf("1.6")
        x_m, om_m = mpf("0.5"), (mpf("0.003"), mpf("0.5"), mpf("2.4"))

    def mellin_i(u):
        return gamma0(om_i * u, ctx) * u ** (x_i - 1)

    def mellin_m(u):
        F = mpf(1)
        for om in om_m:
            F *= -mp.log(-mp.expm1(-om * u))
        return F * u ** (x_m - 1)

    return mellin_i, mellin_m


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_per_side_cut_agrees_with_pair_rule(bits):
    ctx = PrecisionContext(precision_bits=bits)
    with ctx.workprec():
        on_01 = (
            lambda u: u ** mpf("-0.995"),
            lambda u: mp.log(u) ** 2,
            lambda u: mp.sqrt(1 - u),
        )
        on_0inf = (
            lambda t: mp.exp(-t) / mp.sqrt(t),
            lambda t: mp.exp(-t / 1000),
        ) + _mellin_cases(ctx)
    cases = [(de_quad_01, _oracle_quad_01, f) for f in on_01]
    cases += [(de_quad_0inf, _oracle_quad_0inf, f) for f in on_0inf]
    for quad, oracle, f in cases:
        got = quad(f, ctx)
        want = oracle(f, ctx, _pair_rule_row_sum)
        with ctx.workprec():
            assert abs(got - want) <= mpf(2) ** -bits * max(1, abs(want)), (bits, got, want)


def test_per_side_cut_stops_the_quiet_side_early():
    # u^-0.99 is significant far towards u -> 0 and negligible soon on
    # the u -> 1 side, which the pair rule kept evaluating
    f = lambda u: u ** mpf("-0.99")
    calls, oracle_calls = [], []
    de_quad_01(lambda u: calls.append(u) or f(u), CTX)
    _oracle_quad_01(lambda u: oracle_calls.append(u) or f(u), CTX, _pair_rule_row_sum)
    assert len(calls) < len(oracle_calls)
    with CTX.workprec():
        right = sum(1 for u in calls if u > mpf(1) / 2)
        left = sum(1 for u in calls if u < mpf(1) / 2)
    assert right < left
