"""Direct evaluators against closed forms, brute sums, and each other.

The integral routes (i_integral, m_integral) are checked against exact
special cases, the r-dimensional brute quadrature, truncated defining
sums with their reported tail bounds, and the Abel-summation form; the
auxiliary series and its coefficients against term-by-term references
and one-variable polylogarithms.
"""

import functools
import math
import time
from itertools import combinations

import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.errors import BudgetError, DomainError, QuadratureError
from mtzeta.jets import Jet
from mtzeta.kernel import euler_gamma, gamma0, loggamma_jet, psi_derivs, stirling_first_unsigned, zeta_value
from mtzeta.polylog import mpl_one_var
from mtzeta.quadrature import de_quad_0inf
import mtzeta.quadrature as quadrature
import mtzeta.series as series
from mtzeta.series import (
    WeightConfig,
    i_integral,
    m_integral,
    s_series,
    t_coeff,
    zeta_ez_ones,
)

from oracles import i_brute, m_direct

CTX = PrecisionContext()
BITS = CTX.precision_bits


def _wc(omega, a=0):
    return WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))


# ---------------------------------------------------------------------------
# weight configuration bookkeeping
# ---------------------------------------------------------------------------

def test_weight_config_validation():
    with pytest.raises(DomainError):
        WeightConfig((), 0)
    with pytest.raises(DomainError):
        WeightConfig((1, 0), 0)
    with pytest.raises(DomainError):
        WeightConfig((1, -2), 0)
    with pytest.raises(DomainError):
        WeightConfig((1,), -1)


def test_weight_config_subsets():
    w = _wc((1, 2, 3), "0.5")
    assert w.r == 3
    assert w.total == 6
    assert tuple(w.omega[j - 1] for j in (2,)) == (mpf(2),)
    rest, a2 = w.omega[:1] + w.omega[2:], w.a + w.omega[1]
    assert rest == (mpf(1), mpf(3))
    assert a2 == mpf("2.5")


# ---------------------------------------------------------------------------
# integral analogue
# ---------------------------------------------------------------------------

def test_i1_shiftless_closed_form():
    # a=0 collapses I_1 to omega^{-x}/x
    x = to_mpf("0.3")
    v = i_integral(x, _wc(("1.7",)), CTX)
    with CTX.workprec():
        ref = mpf("1.7") ** -x / x
        assert abs(v - ref) <= mpf(10) ** -40


def test_i_brute_matches_i_integral_r1():
    x = to_mpf("0.3")
    w = _wc(("1.5",), "0.7")
    a = i_brute(x, w, CTX)
    b = i_integral(x, w, CTX)
    with CTX.workprec():
        assert abs(a - b) <= mpf(10) ** -12


def test_i_brute_matches_i_integral_r2():
    x = to_mpf("0.4")
    w = _wc((1, 2))
    a = i_brute(x, w, CTX)
    b = i_integral(x, w, CTX)
    with CTX.workprec():
        assert abs(a - b) <= mpf(10) ** -10


def test_i_rejects_high_rank_brute():
    with pytest.raises(DomainError):
        i_brute(to_mpf("0.5"), _wc((1, 1, 1)), CTX)


def test_i2_amgm_upper_bound():
    # I_r <= r^{r-x} (prod omega)^{-x/r} / x^r
    x = to_mpf("0.5")
    w = _wc((1, 2), "0.3")
    v = i_integral(x, w, CTX)
    with CTX.workprec():
        cap = mpf(2) ** (2 - x) * mpf(2) ** (-x / 2) / x ** 2
        assert 0 < v < cap


def test_i_recurrence_in_rank():
    # I_r(x) = (1/x) sum_i I_{r-1}(x; omega less omega_i, a+omega_i)
    #          + a I_r(x+1), with the empty-rank value a^{-x}
    for omega, a in ((("1.5",), "0.7"), ((1, 2), "0.4")):
        w = _wc(omega, a)
        for xs in ("0.3", "0.7"):
            x = to_mpf(xs)
            lhs = i_integral(x, w, CTX)
            with CTX.workprec():
                rhs = w.a * i_integral(x + 1, w, CTX)
                for i in range(1, w.r + 1):
                    rest, a2 = w.omega[:i - 1] + w.omega[i:], w.a + w.omega[i - 1]
                    if rest:
                        rhs += i_integral(x, WeightConfig(rest, a2), CTX) / x
                    else:
                        rhs += a2 ** -x / x
                assert abs(lhs - rhs) <= mpf(10) ** -10


# ---------------------------------------------------------------------------
# harmonic multi-sum
# ---------------------------------------------------------------------------

def test_m1_unit_weight_is_zeta():
    v = m_integral(to_mpf("0.5"), _wc((1,)), CTX)
    with CTX.workprec():
        assert abs(v - mp.zeta(mpf("1.5"))) <= mpf(10) ** -40


def test_m1_euler_constant_recovery():
    g = euler_gamma(CTX)
    for xs in ("0.01", "0.001"):
        x = to_mpf(xs)
        start = time.time()
        v = m_integral(x, _wc((1,)), CTX)
        with CTX.workprec():
            assert abs(v - 1 / x - g) <= 5 * x
        assert time.time() - start < 5


def test_m_direct_bound_is_honest():
    w = _wc((1, 1))
    x = mpf(1)
    with CTX.workprec():
        ref = 2 * zeta_value(3, CTX)
    v100, b100 = m_direct(x, w, 100, CTX)
    v200, b200 = m_direct(x, w, 200, CTX)
    with CTX.workprec():
        assert abs(v100 - ref) <= b100
        assert abs(v200 - ref) <= b200
        assert b200 < b100
        assert abs(v200 - ref) < abs(v100 - ref)
        assert v100 < v200 < ref  # all terms positive


def test_m_direct_r3_consistent_with_integral():
    x = to_mpf("1.5")
    w = _wc((1, 1, 2), "0.5")
    ref = m_integral(x, w, CTX)
    v, b = m_direct(x, w, 40, CTX)
    with CTX.workprec():
        assert abs(v - ref) <= b


def test_abel_summation_r1():
    # Abel form of M_1: exact integration of the harmonic step function
    # over each [k, k+1] gives sum_k H_k ((wk+a)^{-x} - (w(k+1)+a)^{-x});
    # the partial sum undershoots by at most (2+log K)(wK+a)^{-x}
    x = mpf(2)
    om = mpf(1)
    a = to_mpf("0.3")
    K = 20000
    with CTX.workprec():
        abel = mpf(0)
        H = mpf(0)
        prev = (om + a) ** -x
        for k in range(1, K + 1):
            H += mpf(1) / k
            nxt = (om * (k + 1) + a) ** -x
            abel += H * (prev - nxt)
            prev = nxt
        est = (2 + mp.log(K)) * (om * K + a) ** -x
    w = WeightConfig((om,), a)
    mi = m_integral(x, w, CTX)
    v, b = m_direct(x, w, K, CTX)
    with CTX.workprec():
        assert 0 <= mi - abel <= est
        assert abs(abel - v) <= b + est


def test_m_i_bridge_shrinks_linearly():
    # M_r - sum_k gamma^k sum_{|J|=r-k} I_{r-k}(x; omega_J, a+|omega_cJ|)
    # is O(x): halving x should (at least nearly) halve the defect
    g = euler_gamma(CTX)
    for omega, a in ((("1.3",), "0.2"), (("1.3", "0.8"), "0.2")):
        w = _wc(omega, a)
        r = w.r
        defects = []
        for xs in ("0.1", "0.05", "0.025"):
            x = to_mpf(xs)
            with CTX.workprec():
                lhs = m_integral(x, w, CTX)
                rhs = mpf(0)
                for k in range(r + 1):
                    for J in combinations(range(1, r + 1), r - k):
                        rest = tuple(j for j in range(1, r + 1) if j not in J)
                        a2 = w.a + sum((w.omega[j - 1] for j in rest), mpf(0))
                        if J:
                            part = i_integral(x, WeightConfig(tuple(w.omega[j - 1] for j in J), a2), CTX)
                        else:
                            part = a2 ** -x
                        rhs += g ** k * part
                defects.append(abs(lhs - rhs))
        assert defects[0] > defects[1] > defects[2]
        assert defects[1] <= defects[0] / mpf("1.7")
        assert defects[2] <= defects[1] / mpf("1.7")


# ---------------------------------------------------------------------------
# x-independent node factors shared across x
# ---------------------------------------------------------------------------

CTX128 = PrecisionContext(precision_bits=128)


def _count_gamma0(monkeypatch):
    calls = []
    original = series.gamma0

    def counted(u, ctx):
        calls.append(u)
        return original(u, ctx)

    monkeypatch.setattr(series, "gamma0", counted)
    return calls


@pytest.mark.parametrize("fn", [i_integral, m_integral], ids=["I", "M"])
def test_node_factor_reuse_is_bit_identical(fn):
    w = _wc(("0.7", "1.3"), "0.25")
    x1, x2 = to_mpf("0.4"), to_mpf("1.3")
    fn(x2, _wc(("3",)), CTX128)  # another configuration: w starts cold
    cold = fn(x2, w, CTX128)
    fn(x1, w, CTX128)
    after_x1 = fn(x2, w, CTX128)
    fn(x1, w, PrecisionContext(precision_bits=160))
    after_other_bits = fn(x2, w, CTX128)
    assert cold._mpf_ == after_x1._mpf_ == after_other_bits._mpf_


def test_equal_weight_configs_share_node_factors(monkeypatch):
    calls = _count_gamma0(monkeypatch)
    i_integral(to_mpf("0.5"), _wc(("3",)), CTX128)
    calls.clear()
    i_integral(to_mpf("0.5"), _wc(("0.6", "1.7")), CTX128)
    assert calls
    calls.clear()
    # a separately built, equal configuration at the same x, which
    # reaches the same nodes
    i_integral(to_mpf("0.5"), _wc(("0.6", "1.7")), CTX128)
    assert calls == []


@pytest.mark.parametrize(
    "other",
    [
        lambda x: i_integral(x, _wc(("0.6", "1.7"), "0.5"), CTX128),
        lambda x: m_integral(x, _wc(("0.6", "1.7")), CTX128),
    ],
    ids=["other-a", "other-kind"],
)
def test_node_factors_hold_latest_configuration_only(monkeypatch, other):
    calls = _count_gamma0(monkeypatch)
    x = to_mpf("0.5")
    w = _wc(("0.6", "1.7"))
    counts = []
    for _ in range(2):
        other(x)
        calls.clear()
        i_integral(x, w, CTX128)
        counts.append(len(calls))
    calls.clear()
    i_integral(x, w, CTX128)
    assert counts[0] > 0 and counts[1] == counts[0] and calls == []


def _plain_mellin(kind, x, w, ctx):
    """(1/Gamma(x)) int_0^inf F(u) u^(x-1) du with F recomputed at every
    node from the same factor functions and mpmath's own power: the
    evaluator before its node table."""
    with ctx.workprec():
        xm1 = x - 1

        def integrand(u):
            F = mp.exp(-w.a * u)
            for om in w.omega:
                if kind == "I":
                    F *= gamma0(om * u, ctx)
                else:
                    F *= series._m_factor(om * u)
            return F * u ** xm1

        return +(de_quad_0inf(integrand, ctx) / mp.gamma(x))


@pytest.mark.parametrize("kind, fn", [("I", i_integral), ("M", m_integral)], ids=["I", "M"])
def test_stored_log_matches_mpmath_power(kind, fn, monkeypatch):
    # x - 1 general (-0.6), integer (0, 1, 2) and half-integer (0.5, 1.5):
    # each of mpmath's power routes must come out bit-identical from the
    # table, node by node and in the result.  At 128 bits exp(log) differs
    # from the integer and half-integer routes only at x - 1 = 1.5 and 2,
    # and there only in a few nodes, which the sum absorbs
    nodes = []

    def recorded(f, ctx, log_bound=None):
        def g(u):
            value = f(u)
            nodes.append((u, value))
            return value

        return de_quad_0inf(g, ctx, log_bound)

    monkeypatch.setattr(series, "de_quad_0inf", recorded)
    w = _wc(("0.7", "1.3"), "0.25")
    for x in ("0.4", "1", "1.5", "2", "2.5", "3"):
        x = to_mpf(x)
        nodes.clear()
        value = fn(x, w, CTX128)
        table = series._node_table(kind, w.omega, w.a)[CTX128.precision_bits]
        logs = series._log_u[CTX128.precision_bits]
        with CTX128.workprec():
            for u, got in nodes:
                # raw (F, log u), log u read from the table all configurations share
                F, log_u = table[u._mpf_]
                assert log_u == logs[u._mpf_], (x, u)
                assert got._mpf_ == (mp.make_mpf(F) * u ** (x - 1))._mpf_, (x, u)
        assert value._mpf_ == _plain_mellin(kind, x, w, CTX128)._mpf_, x


def test_two_configurations_take_log_u_once_per_node(monkeypatch):
    # log u is kept per precision for every configuration, so a second
    # configuration at the same precision takes it only at nodes the
    # first did not reach; gamma0 takes no series-level mpf_log
    series._node_table.cache_clear()
    monkeypatch.setattr(series, "_log_u", {})
    calls = []
    original = series.mpf_log

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(series, "mpf_log", counted)
    x = to_mpf("0.5")
    i_integral(x, _wc(("1.6",)), CTX128)
    first = len(calls)
    w = _wc(("0.7", "2.5"), "0.3")
    value = i_integral(x, w, CTX128)
    nodes = series._node_table("I", w.omega, w.a)[CTX128.precision_bits]
    assert first > 0 and len(calls) == len(set(calls)) == len(series._log_u[CTX128.precision_bits])
    assert len(calls) - first < len(nodes)
    assert value._mpf_ == _plain_mellin("I", x, w, CTX128)._mpf_


@pytest.mark.parametrize("fn", [i_integral, m_integral], ids=["I", "M"])
@pytest.mark.parametrize("a, x", [("1e20", "0.5"), ("1e400", "0.5"), ("1e3", "20"), ("1e3", "40")])
def test_integral_below_target_tol_raises(fn, a, x):
    # |int| < target_tol, where the absolute stop certifies no digit: at
    # a = 1e20 and 1e400 the values came out near 1e-932470 and
    # 2^(-3.1e386) against 4.7e-9 and 9.2e-198, at a = 1e3 25% and 94% off
    with pytest.raises(QuadratureError, match="target_tol"):
        fn(to_mpf(x), _wc(("1",), a), CTX128)


def test_integral_above_target_tol_still_returns():
    # a = 100, x = 20: |int| is about 1.5e-23, and the value agrees with a
    # 200-bit mp.quad reference to 1e-29 relative
    a, x = to_mpf("100"), to_mpf("20")
    value = i_integral(x, _wc(("1",), "100"), CTX128)
    with mp.workprec(200):
        ref = mp.quad(lambda u: mp.e1(u) * mp.exp(-a * u) * u ** (x - 1), [0, 0.01, 0.1, 1, mp.inf]) / mp.gamma(x)
        assert abs(value - ref) <= 1e-29 * ref


def _without_log_bound(f, ctx, log_bound=None):
    return de_quad_0inf(f, ctx)


_FAR_SKIP_CASES = [(("1", "2"), "0.3"), (("1.5",), "0.2"), (("1", "1", "1"), "0"), (("0.003", "0.5", "2.4"), "0")]


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize("fn", [i_integral, m_integral], ids=["I", "M"])
def test_far_term_skip_keeps_every_bit(fn, bits, monkeypatch):
    # the far terms de_quad_0inf skips on the Mellin integrand's bound
    # are below a quarter ulp of the near term, so the values equal those
    # of the line that evaluates every far term, each from empty node
    # factor tables
    ctx = PrecisionContext(precision_bits=bits)
    xs = [to_mpf(x) for x in ("0.0025", "0.02", "0.5", "1.8")]
    for omega, a in _FAR_SKIP_CASES:
        w = _wc(omega, a)
        values = []
        for quad in (de_quad_0inf, _without_log_bound):
            monkeypatch.setattr(series, "de_quad_0inf", quad)
            series._node_table.cache_clear()
            values.append([fn(x, w, ctx)._mpf_ for x in xs])
        assert values[0] == values[1], (omega, a)


@pytest.mark.parametrize("fn", [i_integral, m_integral], ids=["I", "M"])
def test_far_term_skip_leaves_weights_beyond_float_range_alone(fn, monkeypatch):
    # a weight that is 0.0 as a float has no float bound: every far term
    # is evaluated, as without the skip, instead of dividing by zero
    w, x = _wc(("1e-400", "1")), to_mpf("1.5")
    value = fn(x, w, CTX128)
    monkeypatch.setattr(series, "de_quad_0inf", _without_log_bound)
    assert value._mpf_ == fn(x, w, CTX128)._mpf_


class _Captured(Exception):
    pass


def _log_bound_of(fn, x, w, ctx):
    """The log_bound that fn hands de_quad_0inf, without integrating."""

    def capture(f, ctx, log_bound=None):
        raise _Captured(log_bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "de_quad_0inf", capture)
        with pytest.raises(_Captured) as caught:
            fn(x, w, ctx)
    return caught.value.args[0]


@pytest.mark.parametrize("kind, fn", [("I", i_integral), ("M", m_integral)], ids=["I", "M"])
def test_log_bound_dominates_the_integrand(kind, fn):
    # ln|F(u) u^(x-1)| at 2*bits + 64 never exceeds the float bound, on a
    # geometric grid of u from log 2 to 1e6 and on the far nodes of one
    # call, for r <= 3, weight ratios up to 1e3, a in {0, 0.3, 1e3} and x
    # from 1e-5 to 50; 1e-12 relative allows for the float rounding of
    # u, omega u and the bound, a thousandth of the quadrature's slack
    far, log2 = [], math.log(2)

    def recorded(f, ctx, log_bound=None):
        def g(u):
            if u > log2:
                far.append(float(u))
            return f(u)

        return de_quad_0inf(g, ctx, log_bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "de_quad_0inf", recorded)
        fn(to_mpf("0.005"), _wc(("1", "2"), "0.3"), CTX128)
    assert far
    grid = [log2 * (1e6 / log2) ** (k / 48) for k in range(49)] + far
    with mp.workprec(2 * CTX128.precision_bits + 64):
        for omega in (("1.5",), ("1", "1000"), ("0.003", "0.5", "2.4"), ("1", "1", "1")):
            # ln f_i(omega_i u), shared by every a and x
            logs = {}
            for u in grid:
                total = mpf(0)
                for om in omega:
                    y = to_mpf(om) * mpf(u)
                    total += mp.log(mp.e1(y) if kind == "I" else -mp.log1p(-mp.exp(-y)))
                logs[u] = total
            for a in ("0", "0.3", "1000"):
                for x in ("1e-5", "0.02", "1", "50"):
                    bound = _log_bound_of(fn, to_mpf(x), _wc(omega, a), CTX128)
                    for u in grid:
                        want = logs[u] - to_mpf(a) * mpf(u) + (to_mpf(x) - 1) * mp.log(mpf(u))
                        got = bound(u)
                        assert want <= got + 1e-12 * (1 + abs(got)), (omega, a, x, u)


def test_far_term_skip_counts_and_edges(monkeypatch):
    # omega = (1, 2), a = 0.3, x = 0.005 at 256 bits: the folded line
    # keeps its 361 calls while the integrand calls fall from 685; x =
    # 1e-6 still fails fast, and x = 1e-5 keeps its bits
    ctx = PrecisionContext(precision_bits=256)
    w = _wc(("1", "2"), "0.3")
    counts = {}
    quad_01 = quadrature.de_quad_01

    def counted_01(f, ctx, tol=None):
        def g(v):
            counts["folded"] += 1
            return f(v)

        return quad_01(g, ctx, tol)

    def counted(f, ctx, log_bound=None):
        def g(u):
            counts["integrand"] += 1
            return f(u)

        return de_quad_0inf(g, ctx, log_bound if bounded else None)

    monkeypatch.setattr(quadrature, "de_quad_01", counted_01)
    monkeypatch.setattr(series, "de_quad_0inf", counted)
    found = {}
    for bounded in (True, False):
        counts.update(folded=0, integrand=0)
        i_integral(to_mpf("0.005"), w, ctx)
        found[bounded] = dict(counts), i_integral(to_mpf("1e-5"), w, ctx)._mpf_
    assert found[False][0] == {"folded": 361, "integrand": 685}
    assert found[True][0]["folded"] == 361 and found[True][0]["integrand"] <= 480, found
    assert found[True][1] == found[False][1]
    monkeypatch.setattr(series, "de_quad_0inf", de_quad_0inf)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="does not decay"):
        i_integral(to_mpf("1e-6"), w, ctx)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize(
    "kind, fn, kernel, omega",
    [("M", m_integral, "_m_factor", ("1", "1", "1")), ("I", i_integral, "gamma0", ("1.5", "1.5"))],
    ids=["M-111", "I-1.5-1.5"],
)
def test_repeated_weights_take_one_factor_per_node(kind, fn, kernel, omega, monkeypatch):
    # a cold evaluation calls the factor once per node for a repeated
    # weight, as for a single weight, and F is still the product of one
    # factor per weight in weight order
    calls = []
    original = getattr(series, kernel)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    x = to_mpf("0.7")
    for om in (omega[:1], omega):
        fn(to_mpf("3"), _wc(("3",)), CTX128)  # another configuration: om starts cold
        monkeypatch.setattr(series, kernel, counted)
        calls.clear()
        value = fn(x, _wc(om), CTX128)
        monkeypatch.setattr(series, kernel, original)
        # the single and the repeated weight converge on different node
        # sets, so the count is compared per node of the table they share
        table = series._node_table(kind, _wc(om[:1]).omega, mpf(0))[CTX128.precision_bits]
        assert len(calls) == len(table) > 0, om
        assert value._mpf_ == _plain_mellin(kind, x, _wc(om), CTX128)._mpf_, om


def test_unit_weight_family_reads_the_single_weight_table(monkeypatch):
    # (1,), (1, 1), (1, 1, 1) at a = 0 in turn at each x, as verify mzf
    # runs them, share the one table of (1,): the repeated weights take
    # their factor from it, and each value keeps the bits of the plain
    # evaluator.  Any other configuration, here a = 0.5, drops it
    calls = []
    original = series._m_factor

    def counted(y):
        calls.append(y)
        return original(y)

    series._node_table.cache_clear()
    monkeypatch.setattr(series, "_m_factor", counted)
    unit_key = ("M", (mpf(1),), mpf(0))
    for x in ("0.5", "1", "2.5"):
        x = to_mpf(x)
        for r in (1, 2, 3):
            calls.clear()
            value = m_integral(x, _wc(("1",) * r), CTX128)
            if r > 1:
                assert len(calls) < len(series._node_table(*unit_key)[CTX128.precision_bits]), (x, r)
            assert value._mpf_ == _plain_mellin("M", x, _wc(("1",) * r), CTX128)._mpf_, (x, r)
    assert series._node_table.cache_info().misses == 1
    m_integral(to_mpf("0.5"), _wc(("1", "1"), "0.5"), CTX128)
    assert series._node_table.cache_info().misses == 2
    assert series._node_table(*unit_key) == {}


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize(
    "fn, omega, a, x",
    [
        (i_integral, ("1.6",), "0", "0.65"),
        (m_integral, ("0.5", "2"), "1", "1"),
        (m_integral, ("0.003", "0.5", "2.4"), "0", "1.2"),
        (i_integral, ("1", "2"), "0.3", "0.01"),
        (m_integral, ("1.5",), "0.2", "0.0025"),
    ],
    ids=["I-r1", "M-r2", "M-r3-wide", "I-ladder", "M-ladder"],
)
def test_integrals_earn_their_digits(fn, omega, a, x, bits):
    # the quad-table rows and two verify-default asymptotic-order ladder
    # points at the default target_tol: within 2^-(bits-16) of a
    # reference at bits + 160 refined to 2^-(bits+32), and at 512 bits,
    # where target_tol is 1e-30, within the max(2^-(bits-16),
    # (target_tol/4)^2) = 6.25e-62 that the digit-doubling stop asks for
    x, w = to_mpf(x), _wc(omega, a)
    ctx = PrecisionContext(precision_bits=bits)
    ref_ctx = PrecisionContext(precision_bits=bits + 160, target_tol=mpf(2) ** -(bits + 32))
    got, want = fn(x, w, ctx), fn(x, w, ref_ctx)
    with mp.workprec(bits + 160):
        tol = mpf(2) ** -(bits - 16)
        if bits == 512:
            tol = max(tol, (ctx.target_tol / 4) ** 2)
        assert abs(got - want) <= tol * max(1, abs(want))


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_m_factor_relative_accuracy(bits):
    # against -log(-expm1(-y)) with enough bits that the oracle's own
    # 1 - e^-y keeps 3 working precisions at y = 700 as at y -> 0
    prec = bits + 32
    ys = [mpf(2) ** -e for e in (prec + 100, prec + 1, prec, prec - 1, 60, 10, 1)]
    ys += [mpf(v) for v in ("0.3", "0.69", "1", "5", "11.08", "11.1", "12", "35", "100", "700")]
    for y in ys:
        with mp.workprec(prec):
            y = +y
            got = series._m_factor(y)
        with mp.workprec(3 * prec + 2 * int(y)):
            want = -mp.log(-mp.expm1(-y))
            assert abs(got - want) <= mpf(2) ** -(prec - 1) * want, y


def _m_factor_operator_form(y):
    """_m_factor in mpf operators, the form before it moved onto raw mpf
    tuples."""
    prec = mp.prec
    mag = mp.mag(y)
    if mag < -prec:
        return -mp.log(y) + y / 2
    with mp.workprec(prec + max(0, -mag) + 26):
        t = mp.exp(-y)
        z = 1 - t
    if mp.mag(t) > -16:
        return -mp.log(z)
    scale = prec + 8 - mp.mag(t)
    tf = total = power = to_fixed(t._mpf_, scale)
    k = 1
    while power:
        k += 1
        power = power * tf >> scale
        total += power // k
    return mp.ldexp(total, -scale)


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
def test_m_factor_bit_identical_to_operator_form(bits):
    # the y grid of test_m_factor_relative_accuracy
    prec = bits + 32
    ys = [mpf(2) ** -e for e in (prec + 100, prec + 1, prec, prec - 1, 60, 10, 1)]
    ys += [mpf(v) for v in ("0.3", "0.69", "1", "5", "11.08", "11.1", "12", "35", "100", "700")]
    with mp.workprec(prec):
        for y in ys:
            y = +y
            assert series._m_factor(y)._mpf_ == _m_factor_operator_form(y)._mpf_, (bits, y)


def test_m_factor_exp_precision_stays_bounded(monkeypatch):
    # DE nodes reach u ~ 1e-700: e^-y at prec + log2(1/y) bits would cost
    # thousands of bits there, where 1 - e^-y = y(1 - y/2) is exact enough
    # the precision passed to mpf_exp, the exp binding series calls
    seen = []
    original = series.mpf_exp

    def recorded(x, wp, *args):
        seen.append(wp)
        return original(x, wp, *args)

    monkeypatch.setattr(series, "mpf_exp", recorded)
    for bits in (64, 256):
        prec = bits + 32
        with mp.workprec(prec):
            for e in (-9, 0, 10, prec - 1, prec, prec + 1, 2330):
                series._m_factor(mpf(2) ** -e)
        assert seen and max(seen) <= 2 * prec + 64
        seen.clear()
        m_integral(to_mpf("0.7"), _wc(("0.5", "3")), PrecisionContext(precision_bits=bits))
        assert seen and max(seen) <= 2 * prec + 64
        seen.clear()


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_polygamma_matches_mpmath(bits):
    prec = bits + 32
    for t in ("1200", "2400", "1e6", "1e40", 2 ** 400):
        with mp.workprec(prec):
            t = to_mpf(t)
            got = [mp.make_mpf(v) for v in psi_derivs(t, mp.log(t), 49)]
        with mp.workprec(2 * prec):
            for j in (0, 1, 2, 5, 49):
                want = mp.psi(j, t)
                assert abs(got[j] - want) <= mpf(2) ** -(prec - 1) * abs(want), (j, t)


def test_zeta_ez_ones_takes_no_complex_polygamma(monkeypatch):
    orders = []
    original = mp.psi

    def recorded(m, z, **kwargs):
        orders.append(m)
        return original(m, z, **kwargs)

    monkeypatch.setattr(mp, "psi", recorded)
    zeta_ez_ones(3, to_mpf("0.5"), CTX128)
    # psi and every psi^(j) of the tail are summed in series, none in mpmath
    assert orders == []


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_psi_pair_matches_mpmath(bits):
    # psi and psi' alone, the pair the tail nodes of depths 2 and 3 take
    prec = bits + 32
    for t in ("1200", "2400", "1e6", "1e40", 2 ** 400):
        with mp.workprec(prec):
            t = to_mpf(t)
            got = [mp.make_mpf(v) for v in psi_derivs(t, mp.log(t), 1)]
        assert len(got) == 2
        with mp.workprec(2 * prec):
            for j in (0, 1):
                want = mp.psi(j, t)
                assert abs(got[j] - want) <= mpf(2) ** -(prec - 1) * abs(want), (j, t)


# ---------------------------------------------------------------------------
# auxiliary series S_r and coefficients T_{r,l}
# ---------------------------------------------------------------------------

def test_s_series_r1_term_reference():
    x = to_mpf("0.3")
    om = to_mpf("0.4")
    v = s_series(x, (om,), CTX)
    with mp.workprec(3 * BITS):
        brute = mpf(0)
        poch = mpf(1)
        for k in range(1, 300):
            poch *= x + k - 1
            brute += poch * om ** k / (k * mp.factorial(k))
    with CTX.workprec():
        assert abs(v - brute) <= mpf(2) ** -(BITS - 24)


def test_s_series_r2_multi_index_brute():
    x = to_mpf("0.45")
    o1, o2 = to_mpf("0.2"), to_mpf("0.25")
    v = s_series(x, (o1, o2), CTX)
    with mp.workprec(3 * BITS):
        poch = [mpf(1)]
        for m in range(1, 141):
            poch.append(poch[-1] * (x + m - 1))
        p1 = [o1 ** k / (k * mp.factorial(k)) for k in range(1, 71)]
        p2 = [o2 ** k / (k * mp.factorial(k)) for k in range(1, 71)]
        brute = mpf(0)
        for k1 in range(1, 71):
            for k2 in range(1, 71):
                brute += poch[k1 + k2] * p1[k1 - 1] * p2[k2 - 1]
    with CTX.workprec():
        assert abs(v - brute) <= mpf(10) ** -20


def test_s_series_negative_weights():
    x = to_mpf("0.45")
    o1, o2 = to_mpf("-0.3"), to_mpf("0.4")
    v = s_series(x, (o1, o2), CTX)
    with mp.workprec(3 * BITS):
        poch = [mpf(1)]
        for m in range(1, 141):
            poch.append(poch[-1] * (x + m - 1))
        brute = mpf(0)
        for k1 in range(1, 71):
            t1 = o1 ** k1 / (k1 * mp.factorial(k1))
            for k2 in range(1, 71):
                brute += poch[k1 + k2] * t1 * o2 ** k2 / (k2 * mp.factorial(k2))
    with CTX.workprec():
        assert abs(v - brute) <= mpf(10) ** -20


def test_s_series_domain():
    with pytest.raises(DomainError):
        s_series(to_mpf("0.3"), (to_mpf("0.6"), to_mpf("0.5")), CTX)
    with pytest.raises(DomainError):
        s_series(to_mpf("0.3"), (to_mpf("-0.7"), to_mpf("0.4")), CTX)


def test_s_series_zero_weight_vanishes():
    # every k_i >= 1, so one zero weight kills every term, also when the
    # zero weights come first and leave no |omega| sum to normalize by
    for omega in (("0", "0", "0.3"), ("0.2", "0"), ("0",)):
        omega = tuple(to_mpf(o) for o in omega)
        assert s_series(to_mpf("0.4"), omega, CTX) == 0
        assert t_coeff(len(omega), 2, omega, CTX) == 0


def test_s_series_budget():
    # rho = 0.9999999 needs a degree far beyond MAX_TERMS; rho >= 1 stays a DomainError
    with pytest.raises(BudgetError, match="max_terms"):
        s_series(to_mpf("0.3"), (to_mpf("0.5"), to_mpf("0.4999999")), CTX)


def test_s_series_jet_matches_scalar_and_derivative():
    om = (to_mpf("0.2"), to_mpf("0.3"))
    x0 = to_mpf("0.25")
    sj = s_series(Jet.variable(x0, 2), om, CTX)
    s0 = s_series(x0, om, CTX)
    with CTX.workprec():
        assert abs(sj.coeffs[0] - s0) <= mpf(2) ** -(BITS - 24)
        h = mpf(2) ** -40
        fd = (s_series(x0 + h, om, CTX) - s_series(x0 - h, om, CTX)) / (2 * h)
        assert abs(sj.coeffs[1] - fd) <= mpf(2) ** -70


def test_jet_built_at_low_precision_keeps_its_center():
    # a jet built at 53 bits keeps the center it was given, so s_series of
    # it matches the scalar value at the context's precision, and
    # loggamma_jet's center equals the variable jet's
    om = (to_mpf("0.2"), to_mpf("0.3"))
    x0 = to_mpf("0.05")
    with mp.workprec(53):
        xj = Jet.variable(x0, 2)
    ctx = PrecisionContext(precision_bits=256)
    sj = s_series(xj, om, ctx)
    s0 = s_series(x0, om, ctx)
    with mp.workprec(512):
        assert abs(sj.coeffs[0] - s0) <= mpf(2) ** -256 * max(1, abs(s0))
    assert xj.center == x0 and Jet.constant(x0, 1).coeffs[0] == x0
    assert loggamma_jet(x0, 2, ctx).center == xj.center


def test_t_coeff_is_one_var_polylog():
    # coefficient of x^l for a single weight is Li_{1,..,1,2}(omega)
    # with l-1 leading ones
    om = to_mpf("0.35")
    for l in (1, 2, 3):
        v = t_coeff(1, l, (om,), CTX)
        ref = mpl_one_var((1,) * (l - 1) + (2,), om, CTX)
        with CTX.workprec():
            assert abs(v - ref) <= mpf(2) ** -(BITS - 24)


def test_t_coeff_matches_stirling_route():
    # S_r = sum_m (x)_m C_m, C_m = [t^m] prod_i sum_{k>=1} (omega_i t)^k/(k k!),
    # so T_{r,l} = sum_m c(m, l) C_m with unsigned Stirling numbers c and
    # C_m from a plain mpf convolution, no jets.  Stopping at M = 160
    # leaves under 1e-48 while sum |omega| <= 0.5
    ctx, M, ls = PrecisionContext(precision_bits=128), 160, (1, 2, 4)
    stirling = {l: [stirling_first_unsigned(m, l) for m in range(l, M + 1)] for l in ls}
    for omega in (("0.2", "0.3"), ("0.05", "-0.07")):
        om = tuple(to_mpf(o) for o in omega)
        with ctx.workprec():
            C = [mpf(1)] + [mpf(0)] * M
            for o in om:
                f = [mpf(0)] + [o ** k / (k * mp.factorial(k)) for k in range(1, M + 1)]
                C = [mp.fsum(C[i] * f[m - i] for i in range(m + 1)) for m in range(M + 1)]
            for l in ls:
                expect = mp.fsum(c * C_m for c, C_m in zip(stirling[l], C[l:]))
                assert abs(t_coeff(2, l, om, ctx) - expect) <= mpf(2) ** -120 * max(1, abs(expect)), (omega, l)


def test_t_coeff_rank_must_match_weights():
    with pytest.raises(DomainError, match="rank must match"):
        t_coeff(3, 1, (to_mpf("0.1"), to_mpf("0.2")), CTX)
    with pytest.raises(DomainError, match="rank must match"):
        t_coeff(1, 1, (to_mpf("0.1"), to_mpf("0.2")), CTX)


# mpf oracles: the convolution, Pochhammer-jet and harmonic-chain loops
# that S_r and T_{r,l} ran on before their fixed-point form.  The profile
# is built once per (omega, precision), with the log-power slack of
# T_{r,4}, which covers S (slack 2) and every l <= 4; its degree is never
# below the one the code under test picks.

@functools.lru_cache(maxsize=None)
def _oracle_degree_profile(omega, ctx):
    rho = mpf(0)
    for o in omega:
        rho += abs(o)
    r = len(omega)
    bits = ctx.precision_bits + 16
    lg = -mp.log(rho, 2)
    M = int(bits / lg) + 8
    for _ in range(3):
        M = int((bits + (4 + r) * mp.log(M + 2, 2)) / lg) + 8
    with ctx.workprec():
        D = None
        for o in omega:
            c = [mpf(0)] * (M + 1)
            opow = mpf(1)
            fact = mpf(1)
            for k in range(1, M + 1):
                opow *= o
                fact *= k
                c[k] = opow / (k * fact)
            if D is None:
                D = c
            else:
                nxt = [mpf(0)] * (M + 1)
                for m1 in range(1, M + 1):
                    if D[m1] == 0:
                        continue
                    v = D[m1]
                    for k in range(1, M - m1 + 1):
                        nxt[m1 + k] += v * c[k]
                D = nxt
        return D, M


def _oracle_s_series(x, omega, ctx):
    D, M = _oracle_degree_profile(omega, ctx)
    with ctx.workprec():
        if isinstance(x, Jet):
            total = Jet.constant(0, x.degree, x.center)
            poch = Jet.constant(1, x.degree, x.center)
        else:
            total = mpf(0)
            poch = mpf(1)
        for m in range(1, M + 1):
            poch = poch * (x + (m - 1))
            if D[m] != 0:
                total = total + poch * D[m]
        return total


def _oracle_t_coeff(l, omega, ctx):
    D, M = _oracle_degree_profile(omega, ctx)
    with ctx.workprec():
        prefix = [mpf(0)] * l
        total = mpf(0)
        fact = mpf(1)
        for m in range(1, M + 1):
            fact *= m
            u = [mpf(1), mpf(1) / m] + [prefix[j - 2] / m for j in range(2, l + 1)]
            if m >= max(len(omega), l) and D[m] != 0:
                total += u[l] * fact * D[m]
            for j in range(1, l):
                prefix[j - 1] += u[j]
        return total


# r = 1..4, mixed signs, rho <= 0.7.  The equal positive pair at 256 bits
# is where an unweighted binomial convolution, C(m,k) E[m-k] e[k], lets the
# floors grow like (rho + |omega_b|)^m.  The larger ranks get small rho,
# to keep the oracle's O(M^2) loop short.
_ORACLE_WEIGHTS = {
    64: (("0.6",), ("0.3", "-0.4"), ("0.1", "-0.2", "0.3"), ("0.2", "0.1", "-0.15", "0.25")),
    256: (("-0.6",), ("0.35", "0.35"), ("0.1", "-0.05", "0.15"), ("0.1", "0.05", "-0.1", "0.05")),
    1024: (("0.4",), ("0.05", "-0.07"), ("-0.01", "0.02", "0.015", "0.005")),
}

# the profile depends on omega and the precision only, so the code's own
# is kept across the x and jet cases of one weight configuration
_cached_profile = functools.lru_cache(maxsize=None)(series._degree_profile)


def _close(got, want, bits, floor=1):
    """|got - want| <= 2^-bits max(floor, |want|)."""
    with mp.workprec(2 * bits + 64):
        return abs(got - want) <= mpf(2) ** -bits * max(floor, abs(want))


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_s_series_matches_mpf_oracle(bits, monkeypatch):
    # S = x (...), so the x^0 coefficient is compared relative to x near
    # x = 0: a Pochhammer product that keeps x inside loses that accuracy.
    # Taylor coefficients do not depend on the jet degree, so one degree-5
    # oracle jet per centre checks the jets of degree 0..5.
    monkeypatch.setattr(series, "_degree_profile", _cached_profile)
    ctx = PrecisionContext(precision_bits=bits)
    for weights in _ORACLE_WEIGHTS[bits]:
        omega = tuple(to_mpf(o) for o in weights)
        for x in ("1e-20", "0.05", "0.5", "2.5"):
            x0 = to_mpf(x)
            got, want = s_series(x0, omega, ctx), _oracle_s_series(x0, omega, ctx)
            assert _close(got, want, bits, min(1, x0)), (bits, weights, x)
            with mp.workprec(2 * bits):
                want = _oracle_s_series(Jet.variable(x0, 5), omega, ctx).coeffs
                jets = [Jet.variable(x0, degree) for degree in range(6)]
            for degree, xj in enumerate(jets):
                got = s_series(xj, omega, ctx)
                assert got.degree == degree
                for n, (g, v) in enumerate(zip(got.coeffs, want)):
                    assert _close(g, v, bits, min(1, x0) if n == 0 else 1), (bits, weights, x, degree, n)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_t_coeff_matches_mpf_oracle(bits, monkeypatch):
    monkeypatch.setattr(series, "_degree_profile", _cached_profile)
    ctx = PrecisionContext(precision_bits=bits)
    for weights in _ORACLE_WEIGHTS[bits]:
        omega = tuple(to_mpf(o) for o in weights)
        for l in range(1, 9):
            got = t_coeff(len(omega), l, omega, ctx)
            assert _close(got, _oracle_t_coeff(l, omega, ctx), bits), (bits, weights, l)


def test_t21_against_2d_quadrature():
    # the double-weight l=1 coefficient as an explicit 2-D integral of
    # log(1 + t1 t2 / (1 - t1 - t2)) / (t1 t2)
    o1, o2 = to_mpf("0.3"), to_mpf("0.35")
    v = t_coeff(2, 1, (o1, o2), CTX)
    with mp.workprec(112):
        def inner(t1):
            return mp.quad(
                lambda t2: mp.log(1 + t1 * t2 / (1 - t1 - t2)) / (t1 * t2),
                [0, o2],
                maxdegree=6,
            )

        q = mp.quad(inner, [0, o1], maxdegree=6)
        assert abs(v - q) <= mpf(10) ** -12


# ---------------------------------------------------------------------------
# all-ones Euler-Zagier values
# ---------------------------------------------------------------------------

def _pow_attempt(r, x, N, ctx, thresh):
    """_zeta_ez_attempt with a power per n in the direct part, the tail
    integrand evaluated on all of (0, inf), and the inner-chain weights of
    depths 2 and 3 written out: the evaluator before the multiplicative
    powers, the tail cut and Newton's identity."""
    gamma = euler_gamma(ctx)
    z2 = zeta_value(2, ctx) if r == 3 else None
    s = 1 + x
    total = H = H2 = mpf(0)
    for n in range(1, N):
        g = mpf(1) if r == 1 else H if r == 2 else (H * H - H2) / 2
        total += g / mpf(n) ** s
        H += mpf(1) / n
        H2 += mpf(1) / (mpf(n) * n)
    Nv = mpf(N)
    log_N = mp.log(Nv)

    def psis(t, log_t, c):
        return [mp.make_mpf(v) for v in series.psi_derivs(t, log_t, c)]

    def g_tail(v):
        psi, psi1 = psis(Nv * mp.exp(v / x), log_N + v / x, 1)
        return psi + gamma if r == 2 else ((psi + gamma) ** 2 - z2 + psi1) / 2

    integral = Nv ** -x / x * mp.quad(lambda v: g_tail(v) * mp.exp(-v), [0, mp.inf])
    # derivatives of g_0 = 1, g_1 = psi + gamma and
    # g_2 = ((psi + gamma)^2 - zeta(2) + psi')/2 at N
    A = psis(Nv, log_N, 49)
    A[0] += gamma
    if r == 1:
        g_der = [mpf(1)] + [mpf(0)] * 48
    elif r == 2:
        g_der = A[:49]
    else:
        sq = [sum(math.comb(j, i) * A[i] * A[j - i] for i in range(j + 1)) for j in range(49)]
        g_der = [(sq[0] - z2 + A[1]) / 2] + [(sq[j] + A[j + 1]) / 2 for j in range(1, 49)]
    pw = [Nv ** -s]
    for l in range(1, 49):
        pw.append(pw[-1] * -(s + l - 1) / Nv)

    def f_deriv(m):
        return sum(math.comb(m, j) * g_der[j] * pw[m - j] for j in range(m + 1))

    tail = integral + f_deriv(0) / 2
    prev_mag = None
    for k in range(1, 25):
        term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * f_deriv(2 * k - 1)
        tail -= term
        mag = abs(term)
        if mag <= thresh * max(1, abs(total)):
            return total + tail
        if prev_mag is not None and mag > prev_mag:
            return None
        prev_mag = mag
    return None


@pytest.mark.parametrize("bits", [128, 256])
def test_zeta_ez_ones_matches_pow_evaluator(bits, monkeypatch):
    # Newton's identity, the multiplicative direct part and the tail
    # mapped onto (0, 1) stay within 2^-bits of the plain evaluator with
    # its written-out weights; the map takes at most a third of the plain
    # evaluator's tail nodes, and no more than it at x = 10^-3, where a
    # layer of width x at the start of the tail sets the degree
    ctx = PrecisionContext(precision_bits=bits)
    nodes = []
    original = series.psi_derivs

    def recorded(t, log_t, c):
        nodes.append(log_t)
        return original(t, log_t, c)

    monkeypatch.setattr(series, "psi_derivs", recorded)
    for x in ("1e-3", "0.5", "1", "5"):
        x = to_mpf(x)
        for r in (2, 3):
            nodes.clear()
            got = zeta_ez_ones(r, x, ctx)
            map_nodes = len(nodes)
            with monkeypatch.context() as m:
                m.setattr(series, "_zeta_ez_attempt", _pow_attempt)
                nodes.clear()
                want = zeta_ez_ones(r, x, ctx)
            bound = len(nodes) if x < 0.01 else len(nodes) / 3
            assert map_nodes <= bound, (x, r, map_nodes, len(nodes))
            with mp.workprec(2 * bits):
                assert abs(got - want) <= mpf(2) ** -bits * max(1, abs(want)), (x, r)


def test_zeta_ez_direct_part_powers_primes_only(monkeypatch):
    # n^-(1+x) is a power only at the 196 primes below N = 1200; every
    # composite is a product of two earlier powers; the x tables start
    # empty, so no earlier evaluation at this x supplies them
    series._x_tables.cache_clear()
    x = to_mpf("0.5")
    powers = []
    original = type(x).__pow__

    def counted(base, exponent):
        if exponent in (1 + x, -1 - x) and base == int(base) and 2 <= base < 1200:
            powers.append(int(base))
        return original(base, exponent)

    monkeypatch.setattr(type(x), "__pow__", counted)
    zeta_ez_ones(2, x, CTX128)
    monkeypatch.undo()
    primes = [n for n in range(2, 1200) if all(n % p for p in range(2, math.isqrt(n) + 1))]
    assert len(primes) == 196
    assert sorted(powers) == primes


@pytest.mark.parametrize("bits", [128, 256])
def test_zeta_ez_x_memo_keeps_the_bits(bits):
    # a depth that finds the x tables filled by other depths returns the
    # bits of an evaluation from empty tables; depth 4 needs one
    # polygamma order more than depths 2 and 3 stored
    ctx = PrecisionContext(precision_bits=bits)
    for x in ("1e-3", "0.5", "1", "5"):
        x = to_mpf(x)
        warm = [zeta_ez_ones(r, x, ctx)._mpf_ for r in (1, 2, 3, 4)]
        cold = []
        for r in (1, 2, 3, 4):
            series._x_tables.cache_clear()
            cold.append(zeta_ez_ones(r, x, ctx)._mpf_)
        assert warm == cold, x


def test_zeta_ez_depth1_is_zeta():
    v = zeta_ez_ones(1, to_mpf("0.5"), CTX)
    with CTX.workprec():
        assert abs(v - mp.zeta(mpf("1.5"))) <= mpf(2) ** -(BITS - 24)


@pytest.mark.parametrize("bits", (64, 128, 256, 512))
@pytest.mark.parametrize("r", range(2, 9))
def test_zeta_ez_classical_values(r, bits):
    # the duality zeta({1}^(r-1), 2) = zeta(r+1) at every depth to the cap:
    # sum H_{n-1}/n^2 = zeta(3), and depth 3 collapses to pi^4/90
    ctx = PrecisionContext(precision_bits=bits)
    v = zeta_ez_ones(r, 1, ctx)
    with ctx.workprec():
        exact = mp.zeta(r + 1)
        assert abs(v - exact) <= mpf(2) ** -bits * exact


def test_zeta_ez_classical_values_at_1024_bits(monkeypatch):
    # the Bernoulli count follows the precision, so 1024 bits still
    # closes at the first cutoff
    ctx = PrecisionContext(precision_bits=1024)
    cutoffs = []
    attempt = series._zeta_ez_attempt

    def recorded(r, x, N, ctx, thresh):
        cutoffs.append(N)
        return attempt(r, x, N, ctx, thresh)

    monkeypatch.setattr(series, "_zeta_ez_attempt", recorded)
    v2 = zeta_ez_ones(2, 1, ctx)
    v3 = zeta_ez_ones(3, 1, ctx)
    assert cutoffs == [1200, 1200]
    with ctx.workprec():
        assert abs(v2 - mp.zeta(3)) <= mpf(2) ** -(1024 - 24)
        assert abs(v3 - mp.pi ** 4 / 90) <= mpf(2) ** -(1024 - 24)


def test_zeta_ez_attempt_that_cannot_close_skips_the_integral(monkeypatch):
    # at N = 8 the Bernoulli terms turn, and the attempt gives up before
    # it pays for the tail integral
    quads = []
    monkeypatch.setattr(mp, "quad", lambda *args, **kwargs: quads.append(args))
    with CTX.workprec():
        thresh = mpf(2) ** -(BITS + 8)
        for r in (2, 3):
            assert series._zeta_ez_attempt(r, to_mpf("0.5"), 8, CTX, thresh) is None
    assert quads == []


def test_m_collapses_to_euler_zagier():
    # M_r at unit weights, zero shift equals r! times the all-ones value
    x = to_mpf("0.5")
    m2 = m_integral(x, _wc((1, 1)), CTX)
    z2 = zeta_ez_ones(2, x, CTX)
    m3 = m_integral(x, _wc((1, 1, 1)), CTX)
    z3 = zeta_ez_ones(3, x, CTX)
    with CTX.workprec():
        assert abs(m2 - 2 * z2) <= mpf(10) ** -25
        assert abs(m3 - 6 * z3) <= mpf(10) ** -25


def test_m_collapses_to_euler_zagier_beyond_depth_3():
    x = to_mpf("0.5")
    for bits in (128, 256, 512):
        ctx = PrecisionContext(precision_bits=bits)
        for r in (4, 5):
            m = m_integral(x, _wc((1,) * r), ctx)
            z = zeta_ez_ones(r, x, ctx)
            with ctx.workprec():
                assert abs(m / math.factorial(r) - z) <= mpf(10) ** -30, (bits, r)


# ---------------------------------------------------------------------------
# domain rejections
# ---------------------------------------------------------------------------

def test_nonpositive_x_rejected():
    w = _wc((1,))
    for bad in (0, -1, to_mpf("-0.5")):
        with pytest.raises(DomainError):
            i_integral(bad, w, CTX)
        with pytest.raises(DomainError):
            i_brute(bad, w, CTX)
        with pytest.raises(DomainError):
            m_integral(bad, w, CTX)
        with pytest.raises(DomainError):
            m_direct(bad, w, 10, CTX)
        with pytest.raises(DomainError):
            zeta_ez_ones(2, bad, CTX)


def test_zeta_ez_ones_budget(monkeypatch):
    monkeypatch.setattr(series, "_zeta_ez_attempt", lambda *args: None)
    with pytest.raises(BudgetError, match="failed to close"):
        zeta_ez_ones(2, to_mpf("0.5"), CTX)


def test_rank_and_cutoff_limits():
    with pytest.raises(DomainError):
        m_direct(mpf(1), _wc((1, 1, 1, 1)), 10, CTX)
    with pytest.raises(DomainError):
        m_direct(mpf(1), _wc((1,)), 0, CTX)
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=r"1\.\.8"):
        zeta_ez_ones(9, mpf(1), CTX)
    assert time.perf_counter() - t0 < 0.05  # refused before any work
    with pytest.raises(DomainError):
        zeta_ez_ones(0, mpf(1), CTX)
