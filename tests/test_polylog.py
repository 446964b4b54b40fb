"""Polylogarithm sums against closed forms and brute nested-loop oracles
computed at triple precision, the fixed-point accumulation against the
same loop in mpf arithmetic at 64, 256 and 1024 bits, the a-priori term
count's tail bound against the error at 2 bits + 64, rho -> 1 failing
before the first term, and grouped passes against each index summed
alone.
"""

import re

import pytest
from mpmath import mp, mpf

from mtzeta import polylog
from mtzeta.asymptotics import c_coeff
from mtzeta.context import GUARD_BITS, MAX_TERMS, PrecisionContext, to_mpf
from mtzeta.errors import BudgetError, DomainError
from mtzeta.polylog import (
    MultiIndex,
    PolylogArgs,
    hurwitz_li0,
    hurwitz_li1,
    mpl,
    mpl_one_var,
)

from mtzeta.series import WeightConfig
from mtzeta.suites import R2M2_GRID, R3M3_GRID, suite_r2m2

from oracles import li1_series_in_x

CTX = PrecisionContext()
BITS = CTX.precision_bits


def tol_bits(slack):
    return mpf(2) ** (-(BITS - slack))


def _brute_depth2(k1, k2, z1, z2, x=0, n_min=1, N=450):
    """Truncated double loop for sum over n_min <= n1 < n2 <= N."""
    with mp.workprec(3 * BITS):
        z1, z2, x = mpf(z1), mpf(z2), mpf(x)
        t1 = {n1: z1 ** n1 / (n1 + x) ** k1 for n1 in range(n_min, N)}
        total = mpf(0)
        for n2 in range(n_min + 1, N + 1):
            inner = mpf(0)
            for n1 in range(n_min, n2):
                inner += t1[n1]
            total += z2 ** n2 / (n2 + x) ** k2 * inner
        return total


# ---------------------------------------------------------------------------
# plain multi-variable sums
# ---------------------------------------------------------------------------

def test_depth1_is_log():
    with CTX.workprec():
        for z in ("0.1", "0.5", "0.9"):
            v = mpl(PolylogArgs((1,), (z,)), CTX)
            assert abs(v + mp.log(1 - mpf(z))) <= tol_bits(16)


def test_depth2_brute_double_sum():
    v = mpl(PolylogArgs((1, 1), ("0.3", "0.6")), CTX)
    oracle = _brute_depth2(1, 1, "0.3", "0.6")
    assert abs(v - oracle) <= tol_bits(16)


def test_zero_first_argument_kills_sum():
    assert mpl(PolylogArgs((2, 1), (0, "0.5")), CTX) == 0
    assert mpl(PolylogArgs((1,), (0,)), CTX) == 0
    # a zero anywhere has the same effect: z_i^{n_i} with n_i >= i >= 1
    assert mpl(PolylogArgs((1, 3), ("0.4", 0)), CTX) == 0


def test_rejects_arguments_on_unit_circle():
    with pytest.raises(DomainError):
        PolylogArgs((1,), (1,))
    with pytest.raises(DomainError):
        mpl_one_var((2,), "-1", CTX)


# ---------------------------------------------------------------------------
# one-variable sums
# ---------------------------------------------------------------------------

def test_all_ones_closed_form():
    # Li_{1,...,1}(z) with l ones equals (-log(1-z))^l / l!
    with CTX.workprec():
        for l in range(1, 5):
            for z in ("0.2", "0.7"):
                v = mpl_one_var((1,) * l, z, CTX)
                expect = (-mp.log(1 - mpf(z))) ** l / mp.factorial(l)
                assert abs(v - expect) <= tol_bits(16)


def test_dilogarithm_direct_series():
    with mp.workprec(3 * BITS):
        oracle = mp.nsum(lambda n: mpf("0.5") ** n / n ** 2, [1, mp.inf])
    assert abs(mpl_one_var((2,), "0.5", CTX) - oracle) <= tol_bits(16)


def test_one_var_depth2_brute():
    v = mpl_one_var((1, 2), "0.3", CTX)
    oracle = _brute_depth2(1, 2, 1, "0.3", N=260)
    assert abs(v - oracle) <= tol_bits(16)


# ---------------------------------------------------------------------------
# Hurwitz-shifted sums
# ---------------------------------------------------------------------------

def test_shifted_depth1_split():
    # starting the sum at 0 adds exactly the n=0 term x^{-k}
    with CTX.workprec():
        x = mpf("0.25")
        for k in (1, 2, 3):
            pa = PolylogArgs((k,), ("0.5",))
            gap = hurwitz_li0(x, pa, CTX) - hurwitz_li1(x, pa, CTX)
            assert abs(gap - x ** -k) <= tol_bits(16)


def test_shifted_depth2_split():
    # n_1 = 0 branch factors off x^{-k_1} times the depth-1 shifted sum
    with CTX.workprec():
        x = mpf("0.4")
        pa = PolylogArgs((2, 1), ("0.3", "0.6"))
        tail = PolylogArgs((1,), ("0.6",))
        lhs = hurwitz_li0(x, pa, CTX)
        rhs = x ** -2 * hurwitz_li1(x, tail, CTX) + hurwitz_li1(x, pa, CTX)
        assert abs(lhs - rhs) <= tol_bits(16)


def test_shifted_brute_oracle():
    x = mpf("0.25")
    pa = PolylogArgs((1, 2), ("0.2", "0.5"))
    v = hurwitz_li1(x, pa, CTX)
    oracle = _brute_depth2(1, 2, "0.2", "0.5", x=x)
    assert abs(v - oracle) <= tol_bits(16)


def test_shifted_zero_first_argument():
    # z_1 = 0 leaves only the n_1 = 0 term (0^0 = 1 convention): the
    # value is x^{-k_1} times the remaining strictly positive chain
    with CTX.workprec():
        x = mpf("0.3")
        pa = PolylogArgs((2, 1), (0, "0.5"))
        lhs = hurwitz_li0(x, pa, CTX)
        rhs = x ** -2 * hurwitz_li1(x, PolylogArgs((1,), ("0.5",)), CTX)
        assert abs(lhs - rhs) <= tol_bits(16)
        # the n_1 >= 1 variant has no surviving term at all
        assert hurwitz_li1(x, pa, CTX) == 0


def test_shifted_small_x_approaches_plain():
    x = mpf("1e-6")
    grid = [((1,), ("0.5",)), ((2,), ("0.3",)), ((1, 2), ("0.2", "0.5")),
            ((2, 2), ("0.6", "0.3"))]
    for parts, args in grid:
        pa = PolylogArgs(parts, args)
        gap = abs(hurwitz_li1(x, pa, CTX) - mpl(pa, CTX))
        assert gap <= mpf("1e-5") * sum(parts)


def test_shifted_rejects_nonpositive_x():
    pa = PolylogArgs((1,), ("0.5",))
    with pytest.raises(DomainError):
        hurwitz_li0(0, pa, CTX)
    with pytest.raises(DomainError):
        hurwitz_li1(-1, pa, CTX)


# ---------------------------------------------------------------------------
# expansion in the shift variable
# ---------------------------------------------------------------------------

def test_expansion_order_zero():
    pa = PolylogArgs((2, 1), ("0.3", "0.4"))
    assert abs(li1_series_in_x(pa, "0.5", 0, CTX) - mpl(pa, CTX)) <= tol_bits(16)


def test_expansion_depth1_geometric():
    # depth 1, k=1: sum_l (-x)^l Li_{1+l}(z), matching the shifted sum
    with CTX.workprec():
        x, z = mpf("0.2"), mpf("0.5")
        pa = PolylogArgs((1,), (z,))
        manual = mpf(0)
        for l in range(60):
            manual += (-x) ** l * mpl_one_var((1 + l,), z, CTX)
        assert abs(li1_series_in_x(pa, x, 59, CTX) - manual) <= tol_bits(16)
        # truncation at l=59 leaves a geometric tail of size O(x^60)
        assert abs(manual - hurwitz_li1(x, pa, CTX)) <= 2 * x ** 60


def test_expansion_residual_order():
    # truncating at total order L leaves a residual O(x^{L+1}): halving
    # x must shrink it by at least 2^L
    pa = PolylogArgs((1, 2), ("0.2", "0.5"))
    L = 12
    with CTX.workprec():
        res = []
        for x in (mpf("0.1"), mpf("0.05")):
            res.append(abs(li1_series_in_x(pa, x, L, CTX) - hurwitz_li1(x, pa, CTX)))
        assert res[0] <= mpf(10) ** -13
        assert res[1] <= res[0] / 2 ** L


def test_expansion_rejects_x_outside_unit_interval():
    pa = PolylogArgs((1,), ("0.5",))
    with pytest.raises(DomainError):
        li1_series_in_x(pa, "1.5", 3, CTX)
    with pytest.raises(DomainError):
        li1_series_in_x(pa, 0, 3, CTX)


# ---------------------------------------------------------------------------
# algebraic sanity and truncation honesty
# ---------------------------------------------------------------------------

def test_stuffle_depth_one_times_one():
    # Li_a(z) Li_b(z) against the brute double sum over all (n, m)
    with CTX.workprec():
        z = mpf("0.4")
        for a in (1, 2):
            for b in (1, 2):
                product = mpl_one_var((a,), z, CTX) * mpl_one_var((b,), z, CTX)
                with mp.workprec(3 * BITS):
                    N = 320
                    zp = [z ** j for j in range(2 * N + 1)]
                    inv_a = {n: 1 / mpf(n) ** a for n in range(1, N + 1)}
                    inv_b = {m: 1 / mpf(m) ** b for m in range(1, N + 1)}
                    brute = mpf(0)
                    for n in range(1, N + 1):
                        for m in range(1, N + 1):
                            brute += zp[n + m] * inv_a[n] * inv_b[m]
                assert abs(product - brute) <= tol_bits(16)
                # and the region split reassembles it from library values
                split = (
                    mpl(PolylogArgs((a, b), (z, z)), CTX)
                    + mpl(PolylogArgs((b, a), (z, z)), CTX)
                    + mpl_one_var((a + b,), z * z, CTX)
                )
                assert abs(product - split) <= tol_bits(16)


def test_truncation_threshold_is_honest():
    # the adaptive cutoff tracks the precision field: a low-precision run
    # agrees with a high-precision one within the coarse threshold
    lo = PrecisionContext(precision_bits=128, target_tol=mpf("1e-20"))
    pa = PolylogArgs((1, 2), ("0.2", "0.85"))
    v_lo = mpl(pa, lo)
    v_hi = mpl(pa, CTX)
    assert abs(v_lo - v_hi) <= mpf(2) ** -100
    assert abs(v_lo - v_hi) > 0  # genuinely different truncations


def test_multi_index_validation():
    with pytest.raises(DomainError):
        MultiIndex((1, 0))
    with pytest.raises(DomainError):
        PolylogArgs((1, 2), ("0.5",))
    idx = MultiIndex((3, 1, 2))
    assert idx.parts == (3, 1, 2) and idx.depth == 3


# ---------------------------------------------------------------------------
# fixed-point accumulation against an mpf oracle
# ---------------------------------------------------------------------------

def _mpf_nested_sum(ks, zs, x, n_start, bits):
    """The library's accumulation in mpf arithmetic at bits + GUARD_BITS,
    over the outer indices n_start..N: the reference for the fixed-point
    loop.  From n_start = 1, N is the one the library chose for ks.  From
    n_start = 0, the terms with n_1 = 0 carry x^{-k_1}, so N is the count
    at bits + 64 + k_1 log2(1/x): one loop over the whole range, with no
    split into the two sums hurwitz_li0 adds."""
    with mp.workprec(bits + GUARD_BITS):
        ks, zs, x = tuple(ks), tuple(to_mpf(z) for z in zs), to_mpf(x)
        extra = 0 if n_start else 64 + int(ks[0] * max(0, -mp.log(x, 2)))
        N = polylog._term_counts([ks], zs, PrecisionContext(precision_bits=bits + extra))[ks]
        s = len(ks)
        P = [mpf(1)] + [mpf(0)] * s
        powers = [z ** n_start for z in zs]
        for n in range(n_start, N + 1):
            for i in range(s, 0, -1):
                if n >= n_start + i - 1:
                    P[i] += powers[i - 1] / (n + x) ** ks[i - 1] * P[i - 1]
            powers = [p * z for p, z in zip(powers, zs)]
        return P[s]


# (label, library call, oracle arguments (ks, zs, x, n_start))
_FIXED_POINT_CASES = [
    ("d1-rho%s" % r, lambda c, r=r: mpl(PolylogArgs((2,), (r,)), c), ((2,), (r,), 0, 1))
    for r in ("0.5", "0.9", "0.99")
] + [
    ("d2-rho%s" % r, lambda c, r=r: mpl(PolylogArgs((1, 2), ("0.6", r)), c),
     ((1, 2), ("0.6", r), 0, 1))
    for r in ("0.5", "0.9", "0.99")
] + [
    ("d3-rho%s" % r, lambda c, r=r: mpl(PolylogArgs((2, 1, 3), ("0.5", "0.8", r)), c),
     ((2, 1, 3), ("0.5", "0.8", r), 0, 1))
    for r in ("0.5", "0.9", "0.99")
] + [
    ("negative", lambda c: mpl_one_var((1, 2), "-0.6", c), ((1, 2), (1, "-0.6"), 0, 1)),
    ("inner-ones", lambda c: mpl_one_var((1, 1, 2), "0.9", c),
     ((1, 1, 2), (1, 1, "0.9"), 0, 1)),
    ("tiny", lambda c: mpl(PolylogArgs((2,), ("2e-9",)), c), ((2,), ("2e-9",), 0, 1)),
    # rho so small that log rho pulls every log-bound term count below 1/e
    ("rho1e-300", lambda c: mpl(PolylogArgs((2,), ("1e-300",)), c), ((2,), ("1e-300",), 0, 1)),
    ("h1-rho1e-300", lambda c: hurwitz_li1("0.5", PolylogArgs((1, 2), ("1e-150", "1e-150")), c),
     ((1, 2), ("1e-150", "1e-150"), "0.5", 1)),
    ("h0-small-x", lambda c: hurwitz_li0("1e-3", PolylogArgs((3, 1), ("0.5", "0.6")), c),
     ((3, 1), ("0.5", "0.6"), "1e-3", 0)),
    # x^-3 = 1e15 = 2^50 amplifies the n_1 = 0 terms beyond the guard bits
    ("h0-tiny-x", lambda c: hurwitz_li0("1e-5", PolylogArgs((3, 1), ("0.5", "0.6")), c),
     ((3, 1), ("0.5", "0.6"), "1e-5", 0)),
] + [
    ("h0-x%s" % x, lambda c, x=x: hurwitz_li0(x, PolylogArgs((3, 1), ("0.5", "0.6")), c),
     ((3, 1), ("0.5", "0.6"), x, 0))
    for x in ("1e-30", "1e-300")
] + [
    # x^-3 = 1e900 times a tail near 1e-150, below 2^-wp: lost unless the
    # n_1 = 0 terms are summed at more bits
    ("h0-x1e-300-z1e-150", lambda c: hurwitz_li0("1e-300", PolylogArgs((3, 1), ("0.5", "1e-150")), c),
     ((3, 1), ("0.5", "1e-150"), "1e-300", 0)),
    ("h1", lambda c: hurwitz_li1("0.3", PolylogArgs((2, 1), ("0.7", "0.8")), c),
     ((2, 1), ("0.7", "0.8"), "0.3", 1)),
]


# the regime each small-magnitude case is meant to hit
_MAGNITUDE = {"tiny": (1e-9, 3e-9), "h0-small-x": (8e8, 1e9)}

# rho = 0.99 only up to 256 bits, to keep the file fast
_FIXED_POINT_RUNS = [
    (bits,) + case
    for bits in (64, 256, 1024)
    for case in _FIXED_POINT_CASES
    if bits <= 256 or "rho0.99" not in case[0]
]


@pytest.mark.parametrize(
    "bits, label, call, oracle_args",
    _FIXED_POINT_RUNS,
    ids=["%s-%d" % (run[1], run[0]) for run in _FIXED_POINT_RUNS],
)
def test_fixed_point_sum_against_mpf_oracle(bits, label, call, oracle_args):
    ctx = PrecisionContext(precision_bits=bits)
    with mp.workprec(bits + 64):
        v = call(ctx)
        oracle = _mpf_nested_sum(*oracle_args, bits)
        assert abs(v - oracle) <= mpf(2) ** -bits * max(1, abs(oracle))
    if label in _MAGNITUDE:
        lo, hi = _MAGNITUDE[label]
        assert lo < v < hi


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_fixed_point_zero_argument_is_exact(bits):
    ctx = PrecisionContext(precision_bits=bits)
    assert mpl(PolylogArgs((2, 1), (0, "0.5")), ctx) == 0
    assert mpl(PolylogArgs((1, 3), ("0.4", 0)), ctx) == 0
    assert hurwitz_li1("0.3", PolylogArgs((2, 1), (0, "0.5")), ctx) == 0


def test_budget_exhaustion_raises():
    # rho = 0.9999 needs N = 1,614,791 terms at 256 bits, over MAX_TERMS
    with pytest.raises(BudgetError, match="did not close"):
        mpl(PolylogArgs((1, 2), ("0.5", "0.9999")), CTX)


# ---------------------------------------------------------------------------
# the a-priori term count: its tail bound dominates, and rho -> 1 fails fast
# ---------------------------------------------------------------------------

def _tail_bound(ks, zs, N):
    """(T, first) as the module docstring writes them: the tail bound
    T = 2 b(N+1)/(1 - rho) after outer index N, and the least N it may be
    read at, max(1, ceil(m) - 1), b(n+1) <= b(n) (1 + rho)/2 from n = m
    on.  A shift only shrinks the terms, so it does not enter."""
    s = len(ks)
    rho = max(abs(mp.fprod(zs[i:])) for i in range(s))
    n = mpf(N + 1)
    b = rho ** n * (1 + mp.log(n)) ** (s - 1) / (mp.factorial(s - 1) * n ** ks[-1])
    m = (s - 1) / mp.log((1 + rho) / (2 * rho)) if rho else 0
    return 2 * b / (1 - rho), max(1, int(mp.ceil(m)) - 1)


def _assert_bound_dominates(kss, zs, x, bits):
    """Every index of kss at bits against the same pass at 2*bits + 64:
    its N is the least with T(N) <= 2^-bits, and the error is within
    T(N) plus the round-off of N terms of 2^-wp, relative above 1 (the
    fixed-point loop's budget), and within 2^-bits * max(1, |v|)."""
    ctx, hi = PrecisionContext(precision_bits=bits), PrecisionContext(precision_bits=2 * bits + 64)
    counts = polylog._term_counts(kss, zs, ctx)
    keys = [(ks, zs, x) for ks in kss]
    lo, ref = (polylog._nested_sums(keys, c) for c in (ctx, hi))
    with mp.workprec(2 * bits + 64):
        eps = mpf(2) ** -bits
        for ks, key in zip(kss, keys):
            N, v = counts[ks], lo[key]
            tail, first = _tail_bound(ks, zs, N)
            assert tail <= eps and (N == first or _tail_bound(ks, zs, N - 1)[0] > eps)
            err = abs(v - ref[key])
            round_off = N * mpf(2) ** -(bits + GUARD_BITS) * max(1, abs(v))
            assert err <= tail + round_off, (ks, N)
            assert err <= eps * max(1, abs(v)), (ks, N)


def _passes(call, bits):
    """(kss, zs, shift, bits) of every argument tuple that call sums from
    an empty cache at a context of bits, with the index tuples the pass
    sums at it and the bits it sums them at: hurwitz_li0 sums its
    n_1 = 0 terms at more bits than it was given."""
    groups = {}
    nested_sums = polylog._nested_sums

    def recorded(keys, ctx):
        for ks, *args in keys:
            groups.setdefault((*args, ctx.precision_bits), []).append(ks)
        return nested_sums(keys, ctx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polylog, "_CACHE", {})
        patch.setattr(polylog, "_nested_sums", recorded)
        call(PrecisionContext(precision_bits=bits))
    return [(sorted(kss),) + args for args, kss in groups.items()]


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize(
    "call", [case[1] for case in _FIXED_POINT_CASES],
    ids=[case[0] for case in _FIXED_POINT_CASES],
)
def test_tail_bound_dominates_error(call, bits):
    passes = _passes(call, bits)
    assert passes
    for kss, zs, shift, pass_bits in passes:
        _assert_bound_dominates(kss, zs, shift, pass_bits)


@pytest.mark.parametrize("row", R2M2_GRID + R3M3_GRID, ids="-".join)
def test_tail_bound_dominates_error_on_c_coeff_arguments(row):
    *omega, a = row
    w = WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))
    passes = _passes(lambda ctx: c_coeff(w.r, w.r, w, ctx), 256)
    assert passes
    for kss, zs, shift, bits in passes:
        _assert_bound_dominates(kss, zs, shift, bits)


def _assert_fails_before_summing(excinfo):
    # raised by the term count, so before the pass's first term
    assert excinfo.traceback[-1].name == "_term_counts"
    needed = int(re.search(r"needs N = (\d+) terms", str(excinfo.value)).group(1))
    assert needed > MAX_TERMS


def test_rho_near_one_fails_before_summing():
    with pytest.raises(BudgetError, match="did not close") as excinfo:
        mpl(PolylogArgs((1, 2), ("0.5", "0.9999")), CTX)
    _assert_fails_before_summing(excinfo)
    w = WeightConfig((mpf(1), mpf(10) ** 4), mpf(0))
    with pytest.raises(BudgetError, match="did not close") as excinfo:
        c_coeff(2, 3, w, CTX)
    _assert_fails_before_summing(excinfo)
    with pytest.raises(BudgetError, match="did not close") as excinfo:
        suite_r2m2(omega=("0.001", "1000"), a="0")
    _assert_fails_before_summing(excinfo)


@pytest.mark.parametrize("e", [80, 1100])
def test_rho_within_2_pow_minus_50_of_one_raises(e):
    # 1 - 2^-1100 rounds to 1 as a float and at the working precision
    with mp.workprec(e + 64):
        z = 1 - mpf(2) ** -e
        zs = ((z,), ("0.5", -z))
    # built at the ambient 53 bits: the |z| < 1 check must not round z
    for p in (PolylogArgs((2,), zs[0]), PolylogArgs((1, 2), zs[1])):
        with pytest.raises(BudgetError, match="did not close"):
            mpl(p, CTX)


# ---------------------------------------------------------------------------
# grouped passes: one pass per prefetch, every value as if alone
# ---------------------------------------------------------------------------

def _alone(ks, zs, x, ctx):
    """The index summed by itself, through its public entry point."""
    if not x and len(zs) > 1 and zs[0] == 1:
        return mpl_one_var(ks, zs[-1], ctx)
    pa = PolylogArgs(ks, zs)
    return hurwitz_li1(x, pa, ctx) if x else mpl(pa, ctx)


def _assert_one_pass_matches_each_alone(keys, ctx, monkeypatch):
    """_prefetch sums keys in one _nested_sums pass, and each value has
    the bits of its index summed alone."""
    passes = []
    nested_sums = polylog._nested_sums

    def counted(todo, ctx):
        passes.append(sorted(todo, key=repr))
        return nested_sums(todo, ctx)

    monkeypatch.setattr(polylog, "_CACHE", {})
    monkeypatch.setattr(polylog, "_nested_sums", counted)
    polylog._prefetch(keys, ctx)
    assert passes == [sorted((key[:3] for key in keys), key=repr)]
    grouped = dict(polylog._CACHE)
    for key in keys:
        polylog._CACHE.clear()
        alone = _alone(*key[:3], ctx)
        assert grouped[key]._mpf_ == alone._mpf_, key


# (label, index set, inner arguments, shift); the last argument is rho.
# Index sets share prefixes; the shifted sets sit at two shifts, h0's
# at the x = 1e-3 of the hurwitz_li0 cases above
_SHARED = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]
_GROUPS = [
    ("d1", [(1,), (2,), (3,), (5,)], (), 0),
    ("d2", _SHARED, ("0.6",), 0),
    ("d2-negative", _SHARED, ("-0.7",), 0),
    ("d3", [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2), (3, 1, 1)],
     ("0.5", "0.8"), 0),
    ("h0", [(3, 1), (1, 3), (3, 3), (2, 1), (1, 2)], ("0.5",), "1e-3"),
    ("h1", _SHARED, ("0.7",), "0.3"),
]
_GROUPED_RUNS = [
    (bits, rho) + case
    for bits in (64, 256, 1024)
    for rho in ("0.5", "0.9", "0.99")
    for case in _GROUPS
    if bits <= 256 or rho != "0.99"
]


@pytest.mark.parametrize(
    "bits, rho, label, kss, inner, x",
    _GROUPED_RUNS,
    ids=["%s-rho%s-%d" % (run[2], run[1], run[0]) for run in _GROUPED_RUNS],
)
def test_grouped_pass_matches_each_index_alone(bits, rho, label, kss, inner, x, monkeypatch):
    ctx = PrecisionContext(precision_bits=bits)
    zs = tuple(to_mpf(z) for z in inner + (rho,))
    x = to_mpf(x)
    _assert_one_pass_matches_each_alone([(ks, zs, x, bits) for ks in kss], ctx, monkeypatch)


# one prefetch over mixed argument tuples: depths 1 to 3 sharing z = 0.6,
# inner arguments 1, a zero and a negative argument, and shifted groups
# of depths 1 and 2 at two shifts, beside the unshifted ones at the same
# arguments
_MIXED = [
    ((2,), ("0.6",), 0),
    ((1, 2), ("0.6", "0.7"), 0),
    ((2, 1), ("0.6", "0.7"), 0),
    ((1, 1, 2), ("0.8", "0.6", "0.7"), 0),
    ((2, 1, 1), ("0.8", "0.6", "0.7"), 0),
    ((1, 2), ("0.7", "0.6"), 0),
    ((1, 1, 2), (1, 1, "0.6"), 0),
    ((2, 1), (0, "0.6"), 0),
    ((1, 3), ("-0.6", "0.7"), 0),
    ((2, 1), ("0.6", "0.7"), "0.3"),
    ((1, 2), ("0.6", "0.7"), "0.3"),
    ((3, 1), ("0.6", "0.7"), "1e-3"),
    ((2,), ("0.6",), "1e-3"),
    ((3,), ("0.7",), "0.3"),
]


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_mixed_prefetch_matches_each_index_alone(bits, monkeypatch):
    ctx = PrecisionContext(precision_bits=bits)
    keys = [(ks, tuple(to_mpf(z) for z in zs), to_mpf(x), bits) for ks, zs, x in _MIXED]
    _assert_one_pass_matches_each_alone(keys, ctx, monkeypatch)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_grouped_pass_keeps_zero_arguments_exact(bits, monkeypatch):
    ctx = PrecisionContext(precision_bits=bits)
    monkeypatch.setattr(polylog, "_CACHE", {})
    for zs in ((0, "0.5"), ("0.4", 0)):
        zs = tuple(to_mpf(z) for z in zs)
        polylog._prefetch([(ks, zs, mpf(0), bits) for ks in _SHARED], ctx)
        assert [polylog._CACHE[(ks, zs, mpf(0), bits)] for ks in _SHARED] == [0] * 6
    zs = (mpf(0), to_mpf("0.5"))
    polylog._prefetch([(ks, zs, to_mpf("0.3"), bits) for ks in ((2, 1), (1, 2))], ctx)
    assert polylog._CACHE[((2, 1), zs, to_mpf("0.3"), bits)] == 0


def test_grouped_pass_that_cannot_close_raises(monkeypatch):
    # rho = 0.9999 needs more than MAX_TERMS terms at 256 bits
    zs = (to_mpf("0.5"), to_mpf("0.9999"))
    monkeypatch.setattr(polylog, "_CACHE", {})
    with pytest.raises(BudgetError, match="did not close"):
        polylog._prefetch([(ks, zs, mpf(0), 256) for ks in _SHARED], CTX)
    assert polylog._CACHE == {}


def test_c_coeff_with_a_cache_of_four_values(monkeypatch):
    # a cache smaller than c_coeff's one prefetch keeps its cap, and mpl
    # sums what was evicted again, to the same bits
    w = WeightConfig((mpf(1), mpf(2), mpf(3)), to_mpf("0.5"))
    monkeypatch.setattr(polylog, "_CACHE", {})
    full = c_coeff(3, 3, w, CTX)
    monkeypatch.setattr(polylog, "_CACHE", {})
    monkeypatch.setattr(polylog, "_CACHE_CAP", 4)
    small = c_coeff(3, 3, w, CTX)
    assert small._mpf_ == full._mpf_
    assert len(polylog._CACHE) <= 4
