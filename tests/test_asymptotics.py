"""Expansion evaluators against quadrature, closed displays, and each
other: coefficient collapse at rank 1, the displayed rank-2 closed form,
equality of the combinatorial and Bell-polynomial coefficient routes,
the rank recurrence, remainder-order ladders, and the series-route
reconstruction of the integral analogue.
"""

import random

import pytest
from mpmath import mp, mpf

from mtzeta.asymptotics import (
    _family_terms,
    c_coeff,
    c_prime_coeff,
    expression_by_S,
    i1_expansion,
    i_expansion,
    main_term_I,
    main_term_M,
    power_series_I,
)
from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.errors import BudgetError, DomainError
from mtzeta.kernel import euler_gamma, zeta_value
from mtzeta.combinatorics import compositions, disjoint_subset_families, lambda_k, weak_compositions
from mtzeta.polylog import PolylogArgs, mpl, mpl_one_var
from mtzeta.series import WeightConfig, i_integral, t_coeff

CTX = PrecisionContext()
BITS = CTX.precision_bits


def _wc(omega, a=0):
    return WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))


def _random_config(rng, r):
    omega = tuple(to_mpf("%.3f" % rng.uniform(0.5, 2.5)) for _ in range(r))
    a = to_mpf("%.3f" % rng.uniform(0.0, 1.0))
    return WeightConfig(omega, a)


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------

def test_expansion_result_invariants(monkeypatch):
    # order M gives M + 1 entries, order 0 only r!, and a lower order is a
    # prefix of a higher one
    w = _wc((1, 2, "0.5"), "0.3")
    assert i_expansion(w, 0, CTX) == (6,)
    low, high = i_expansion(w, 2, CTX), i_expansion(w, 4, CTX)
    assert len(low) == 3 and len(high) == 5
    assert high[:3] == low
    assert all(isinstance(c, type(mpf(0))) for c in high)
    with pytest.raises(DomainError):
        i_expansion(w, -1, CTX)
    # both caps refuse before the first coefficient is computed
    import mtzeta.asymptotics as asym

    def no_coefficient(*args):
        raise AssertionError("coefficient computed past a cap")

    monkeypatch.setattr(asym, "compositions", no_coefficient)
    with pytest.raises(BudgetError):
        i_expansion(w, 41, CTX)
    with pytest.raises(BudgetError):
        i_expansion(_wc((1,) * 9, "0.5"), 1, CTX)
    assert i_expansion(_wc((1,) * 9, "0.5"), 0, CTX) == (mp.factorial(9),)


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize(
    "omega, a, M",
    [(("0.7",), "0.2", 8), (("0.7", "1.3"), "0.2", 8), (("0.7", "1.3", "2.1"), "0.2", 8),
     (("0.7", "1.3", "2.1", "0.9"), "0.2", 5)],
    ids=["r1", "r2", "r3", "r4"],
)
def test_i_expansion_matches_c_coeff_bit_for_bit(omega, a, M, bits, monkeypatch):
    # every m from one enumeration and one prefetch, against each c_{r,m}
    # alone; a fresh cache each time, so no value is read from the other
    import mtzeta.polylog as polylog

    ctx, w = PrecisionContext(precision_bits=bits), _wc(omega, a)
    monkeypatch.setattr(polylog, "_CACHE", {})
    coeffs = i_expansion(w, M, ctx)
    for m in range(1, M + 1):
        polylog._CACHE.clear()
        assert coeffs[m]._mpf_ == c_coeff(w.r, m, w, ctx)._mpf_, m


def test_i_expansion_structure():
    # entry m is the coefficient of x^{m-r}: r!, then c_{r,1..M}; the power
    # series sums them in that order
    w = _wc((1, 2), "0.3")
    coeffs = i_expansion(w, 3, CTX)
    assert coeffs[1:] == tuple(c_coeff(2, m, w, CTX) for m in (1, 2, 3))
    with CTX.workprec():
        assert coeffs[0] == 2
        x = mpf("0.5")
        total = mpf(0)
        for m, c in enumerate(coeffs):
            total += c * x ** (m - 2)
        assert power_series_I(x, w, 3, CTX) == +(total / (w.a + w.total) ** x)


# ---------------------------------------------------------------------------
# main terms
# ---------------------------------------------------------------------------

def test_main_term_unit_weights_closed_form():
    x = to_mpf("0.2")
    g = euler_gamma(CTX)
    with CTX.workprec():
        for r in (1, 2, 3):
            w = _wc((1,) * r)
            ref = mp.factorial(r) / (mp.gamma(x + 1) * x ** r)
            assert abs(main_term_M(x, w, CTX) - ref) <= mpf(2) ** -(BITS - 24)
            assert (
                abs(main_term_I(x, w, CTX) - mp.exp(-g * x) * ref)
                <= mpf(2) ** -(BITS - 24)
            )


def test_main_term_M_r1_constant_term():
    # 1/Gamma(x+1) (1/x - log w) tends to 1/x + gamma - log w
    w = _wc(("1.5",))
    g = euler_gamma(CTX)
    x = mpf(10) ** -6
    v = main_term_M(x, w, CTX)
    with CTX.workprec():
        assert abs(v - 1 / x - (g - mp.log(mpf("1.5")))) <= mpf(10) ** -5


def test_main_term_I_remainder_halves():
    # the O(x) defect against quadrature should scale linearly
    w = _wc(("1.5",), "0.7")
    defects = []
    for xs in ("0.02", "0.01"):
        x = to_mpf(xs)
        with CTX.workprec():
            defects.append(abs(i_integral(x, w, CTX) - main_term_I(x, w, CTX)))
    with CTX.workprec():
        ratio = defects[0] / defects[1]
        assert mpf("1.6") < ratio < mpf("2.6")


def test_main_term_rejects_nonpositive_x():
    w = _wc((1,))
    for f in (main_term_I, main_term_M):
        with pytest.raises(DomainError):
            f(0, w, CTX)


# ---------------------------------------------------------------------------
# power-series coefficients
# ---------------------------------------------------------------------------

def test_c_rank1_collapses_to_polylog():
    w = _wc(("1.5",), 2)
    with CTX.workprec():
        z = mpf(2) / mpf("3.5")
        for m in (1, 2, 3, 4):
            v = c_coeff(1, m, w, CTX)
            ref = mpf(-1) ** (m - 1) * mpl_one_var((m,), z, CTX)
            assert abs(v - ref) <= mpf(2) ** -(BITS - 24)


def test_c_rank2_first_coefficient():
    w = _wc((1, 2), "0.3")
    v = c_coeff(2, 1, w, CTX)
    with CTX.workprec():
        total = w.a + w.total
        ref = -mp.log(1 - (w.a + 1) / total) - mp.log(1 - (w.a + 2) / total)
        assert abs(v - ref) <= mpf(2) ** -(BITS - 24)


def test_c_rank2_displayed_closed_form():
    # independent assembly of the displayed c_{2,m}
    w = _wc((1, 2), "0.3")
    with CTX.workprec():
        total = w.a + w.total
        for m in (2, 3):
            ref = mpf(0)
            for om in w.omega:
                ref += mpf(-1) ** (m - 1) * mpl_one_var((m,), (w.a + om) / total, CTX)
            ref += (
                mpf(-1) ** m * 2 * (m - 1) * mpl_one_var((m,), w.a / total, CTX)
            )
            for l in range(1, m):
                for om in w.omega:
                    ref += mpf(-1) ** m * mpl(
                        PolylogArgs(
                            (l, m - l),
                            (w.a / (w.a + om), (w.a + om) / total),
                        ),
                        CTX,
                    )
            v = c_coeff(2, m, w, CTX)
            assert abs(v - ref) <= mpf(2) ** -(BITS - 24)


def test_c_equals_c_prime_all_small_ranks():
    rng = random.Random(20240817)
    for r in (1, 2, 3):
        for _ in range(3):
            w = _random_config(rng, r)
            for m in range(1, r + 1):
                v = c_coeff(r, m, w, CTX)
                vp = c_prime_coeff(r, m, w, CTX)
                with CTX.workprec():
                    assert abs(v - vp) <= mpf(10) ** -10


def test_c_recurrence_both_routes():
    # c_{r,m} = sum_i c_{r-1,m}(omega less i, a+omega_i) for r >= m+1
    rng = random.Random(991)
    for r, m in ((2, 1), (3, 1), (3, 2)):
        for _ in range(3):
            w = _random_config(rng, r)
            lhs = c_coeff(r, m, w, CTX)
            lhs_p = c_prime_coeff(r, m, w, CTX)
            with CTX.workprec():
                rhs = mpf(0)
                rhs_p = mpf(0)
                for i in range(1, r + 1):
                    rest, a2 = w.omega[:i - 1] + w.omega[i:], w.a + w.omega[i - 1]
                    w2 = WeightConfig(rest, a2)
                    rhs += c_coeff(r - 1, m, w2, CTX)
                    rhs_p += c_prime_coeff(r - 1, m, w2, CTX)
                assert abs(lhs - rhs) <= mpf(10) ** -10
                assert abs(lhs_p - rhs_p) <= mpf(10) ** -10


def test_c_permutation_symmetry():
    from itertools import permutations

    base = ("0.7", "1.3", "2.1")
    a = "0.4"
    vals = []
    vals_p = []
    for perm in permutations(base):
        w = _wc(perm, a)
        vals.append(c_coeff(3, 2, w, CTX))
        vals_p.append(c_prime_coeff(3, 2, w, CTX))
    with CTX.workprec():
        for v in vals[1:]:
            assert abs(v - vals[0]) <= mpf(2) ** -(BITS - 32)
        for v in vals_p[1:]:
            assert abs(v - vals_p[0]) <= mpf(2) ** -(BITS - 32)


def test_c_equality_survives_zero_shift():
    # a=0 sends every polylog whose first ratio is a/(a+.) to zero;
    # the identity must still close
    w = _wc((1, 2))
    v = c_coeff(2, 2, w, CTX)
    vp = c_prime_coeff(2, 2, w, CTX)
    with CTX.workprec():
        assert abs(v - vp) <= mpf(10) ** -10


def test_main_term_reexpansion_reproduces_coeffs():
    # multiplying the 1/x polynomial at scaled weights by the Taylor jet
    # of the damped reciprocal gamma gives back r! and c'_{r,1..r}; the
    # jet here is exp(-log Gamma(1 + x)) exp(-gamma x), from the log-gamma
    # jet, not the Bell-polynomial series c' is built from
    from mtzeta.jets import Jet
    from mtzeta.kernel import loggamma_jet

    for omega, a in (((1, 2), "0.3"), (("0.7", "1.3", "2.1"), "0.5")):
        w = _wc(omega, a)
        r = w.r
        with CTX.workprec():
            denom = w.a + w.total
            scaled = tuple(o / denom for o in w.omega)
            p = [
                mpf(-1) ** k * lambda_k(scaled, k, CTX) * mp.factorial(r - k)
                for k in range(r + 1)
            ]
            g = euler_gamma(CTX)
            routed = (-Jet(0, loggamma_jet(1, r, CTX).coeffs)).exp()
            gcoef = (routed * Jet(0, [(-g) ** n / mp.factorial(n) for n in range(r + 1)])).coeffs
            for m in range(r + 1):
                conv = mpf(0)
                for k in range(m + 1):
                    conv += p[k] * gcoef[m - k]
                if m == 0:
                    ref = mp.factorial(r)
                else:
                    ref = c_prime_coeff(r, m, w, CTX)
                assert abs(conv - ref) <= mpf(10) ** -30


def _c_prime_bell(r, m, w, ctx):
    """c'_{r,m} as the Bell-polynomial combination
    sum_k (-1)^{m-k} ((r-m+k)!/k!) Lambda_{m-k}(omega/(a+|omega|))
    B_k(0, -1! zeta(2), 2! zeta(3), ...), assembled term by term."""
    from mtzeta.kernel import bell_complete

    with ctx.workprec():
        denom = w.a + w.total
        scaled = tuple(o / denom for o in w.omega)
        bell_args = [mpf(0)]
        for j in range(2, m + 1):
            bell_args.append(mpf(-1) ** (j - 1) * mp.factorial(j - 1) * zeta_value(j, ctx))
        total = mpf(0)
        for k in range(m + 1):
            lam = lambda_k(scaled, m - k, ctx)
            bk = bell_complete(k, bell_args[:k])
            total += mpf(-1) ** (m - k) * mp.factorial(r - m + k) / mp.factorial(k) * lam * bk
        return +total


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_c_prime_matches_the_bell_combination(bits):
    # the product of the Lambda polynomial and the reciprocal-gamma series
    # is the Bell-polynomial sum regrouped, so the two agree to the
    # rounding of the working precision, well inside 2^-(bits+8)
    rng = random.Random(29)
    ctx = PrecisionContext(precision_bits=bits)
    for r in range(1, 7):
        for w in [_random_config(rng, r) for _ in range(3)] + [_wc((1,) * r)]:
            for m in range(1, r + 1):
                got = c_prime_coeff(r, m, w, ctx)
                want = _c_prime_bell(r, m, w, ctx)
                with ctx.workprec():
                    assert abs(got - want) <= mpf(2) ** -(bits + 8) * max(1, abs(got)), (r, m)


def test_c_prime_does_not_reach_the_bell_polynomials(monkeypatch):
    # c' takes the reciprocal-gamma series as the exp of the zeta series,
    # so the Bell combination above shares none of that series' code
    import mtzeta.kernel

    def sentinel(*args):
        raise AssertionError("c' reached bell_complete")

    monkeypatch.setattr(mtzeta.kernel, "bell_complete", sentinel)
    rng = random.Random(32)
    for r in range(1, 7):
        w = _random_config(rng, r)
        for m in range(1, r + 1):
            assert mp.isfinite(c_prime_coeff(r, m, w, CTX)), (r, m)


def test_c_domain_and_budget():
    w = _wc((1, 2), "0.3")
    with pytest.raises(DomainError):
        c_coeff(1, 1, w, CTX)  # rank mismatch
    with pytest.raises(DomainError):
        c_coeff(2, 0, w, CTX)
    with pytest.raises(DomainError):
        c_prime_coeff(2, 3, w, CTX)  # closed form needs m <= r
    with pytest.raises(BudgetError):
        c_coeff(2, 41, w, CTX)
    big = _wc((1,) * 9, "0.5")
    with pytest.raises(BudgetError):
        c_coeff(9, 1, big, CTX)


def _enumerated_terms(r, m):
    return sum(
        len(list(disjoint_subset_families(r, comp))) * len(list(weak_compositions(m - t, s)))
        for t in range(1, min(m, r) + 1)
        for s in range(1, t + 1)
        for comp in compositions(t, s)
    )


@pytest.mark.parametrize(
    "r, m", [(r, r) for r in range(1, 7)] + [(1, 40), (2, 9), (3, 7), (4, 6), (5, 7)]
)
def test_family_term_count_matches_enumeration(r, m):
    assert _family_terms(r, m) == _enumerated_terms(r, m)


def test_term_budget_refuses_before_the_first_composition(monkeypatch):
    import mtzeta.asymptotics as asym

    def no_composition(*args):
        raise AssertionError("composition enumerated past the budget")

    monkeypatch.setattr(asym, "compositions", no_composition)
    with pytest.raises(BudgetError, match="need 26465 "):
        c_coeff(6, 6, _wc((1, 2, 3, 4, 5, 6), 1), CTX)
    # i_expansion counts every m it sums: c_{4,10} alone is under the budget
    total = sum(_family_terms(4, m) for m in range(1, 11))
    assert _family_terms(4, 10) < 10000 < total
    with pytest.raises(BudgetError, match="need %d " % total):
        i_expansion(_wc((1, 2, 3, 4), 1), 10, CTX)


def test_coefficients_at_a_later_precision_match_a_fresh_config():
    # a configuration used at 128 bits and then at 512 bits gives the
    # 512-bit values of a fresh one, bit for bit: no sum of its weights
    # is kept from the earlier precision
    lo, hi = PrecisionContext(precision_bits=128), PrecisionContext(precision_bits=512)
    reused = _wc(("0.7", "1.3", "2.1"), "0.5")
    evaluators = (
        lambda w, ctx: c_coeff(3, 3, w, ctx),
        lambda w, ctx: c_prime_coeff(3, 3, w, ctx),
        lambda w, ctx: power_series_I("0.1", w, 4, ctx),
    )
    for f in evaluators:
        f(reused, lo)
    for f in evaluators:
        fresh = _wc(("0.7", "1.3", "2.1"), "0.5")
        assert f(reused, hi)._mpf_ == f(fresh, hi)._mpf_


# ---------------------------------------------------------------------------
# truncated power series vs quadrature
# ---------------------------------------------------------------------------

def test_power_series_shiftless_is_exact():
    # a=0 makes every coefficient beyond r! vanish
    w = _wc(("1.7",))
    with CTX.workprec():
        for m in (1, 2, 3):
            assert c_coeff(1, m, w, CTX) == 0
    x = to_mpf("0.3")
    v = power_series_I(x, w, 5, CTX)
    ref = i_integral(x, w, CTX)
    with CTX.workprec():
        assert abs(v - ref) <= mpf(10) ** -40


def test_power_series_matches_quadrature_r1():
    x = to_mpf("0.3")
    w = _wc((1,), 2)
    v = power_series_I(x, w, 20, CTX)
    ref = i_integral(x, w, CTX)
    with CTX.workprec():
        assert abs(v - ref) <= mpf(10) ** -10


def test_power_series_residual_order():
    # after M terms the defect scales like x^{M+1-r}
    w = _wc((1, 2), "0.3")
    M = 4
    defects = []
    for xs in ("0.1", "0.05", "0.025"):
        x = to_mpf(xs)
        with CTX.workprec():
            defects.append(abs(power_series_I(x, w, M, CTX) - i_integral(x, w, CTX)))
    with CTX.workprec():
        for d0, d1 in zip(defects, defects[1:]):
            order = mp.log(d0 / d1, 2)
            assert order >= M + 1 - w.r - mpf("0.2")


def test_power_series_domain():
    w = _wc((1,), 2)
    for bad in (0, 1, to_mpf("1.5"), to_mpf("-0.3")):
        with pytest.raises(DomainError):
            power_series_I(bad, w, 5, CTX)
    with pytest.raises(DomainError):
        i_expansion(w, -1, CTX)


# ---------------------------------------------------------------------------
# series-route reconstruction
# ---------------------------------------------------------------------------

def test_expression_by_S_matches_quadrature():
    for omega, a in ((("0.5",), 2), (("0.4", "0.5"), 2)):
        w = _wc(omega, a)
        for xs in ("0.35", "0.7"):
            x = to_mpf(xs)
            v = expression_by_S(x, w, CTX)
            ref = i_integral(x, w, CTX)
            with CTX.workprec():
                assert abs(v - ref) <= mpf(10) ** -9


def test_expression_by_S_rank1_display():
    # a^x I_1 = 1/x + log(a/w) + (log of damped reciprocal gamma)' - S_1
    from mtzeta.series import s_series

    x = to_mpf("0.4")
    om, a = to_mpf("0.5"), to_mpf(2)
    w = WeightConfig((om,), a)
    v = expression_by_S(x, w, CTX)
    g = euler_gamma(CTX)
    with CTX.workprec():
        rhs = (
            1 / x
            + mp.log(a / om)
            + (-g - mp.psi(0, x + 1))
            - s_series(x, (-om / a,), CTX)
        )
        assert abs(a ** x * v - rhs) <= mpf(2) ** -(BITS - 32)


def _expression_by_S_per_degree(x, w, ctx):
    """expression_by_S's subset assembly, with a log-gamma jet and an S
    jet at degree |K| - j + 2 for every term instead of shared ones."""
    from itertools import combinations

    from mtzeta.jets import Jet
    from mtzeta.kernel import loggamma_jet
    from mtzeta.series import s_series

    r = w.r
    with ctx.workprec():
        g = euler_gamma(ctx)
        la = mp.log(w.a)
        gamma_jets = {}
        s_jets = {}
        total = mpf(0)
        for size in range(r + 1):
            for C in combinations(range(r), size):
                K = [w.omega[i] for i in range(r) if i not in C]
                for j in range(len(K) + 1):
                    deg = len(K) - j + 2
                    if deg not in gamma_jets:
                        xi = Jet.variable(x, deg)
                        gamma_jets[deg] = (loggamma_jet(x, deg, ctx) + xi * (g - la)).exp()
                    D = gamma_jets[deg]
                    if C:
                        key = (C, deg)
                        if key not in s_jets:
                            s_jets[key] = s_series(
                                Jet.variable(x, deg), tuple(-w.omega[i] / w.a for i in C), ctx
                            )
                        D = D * s_jets[key]
                    total += lambda_k(K, j, ctx) * D.derivative_value(len(K) - j)
        return +(mpf(-1) ** r * mp.exp(-g * x) / mp.gamma(x) * total)


def test_expression_by_S_shares_one_jet_per_factor(monkeypatch):
    # one log-gamma jet at degree r and one S jet per nonempty subset C
    # (7 at r = 3), where a jet per degree took 4 and 16
    import mtzeta.asymptotics as asymptotics

    calls = {"loggamma_jet": [], "s_series": []}

    def spy(name):
        original = getattr(asymptotics, name)

        def wrapper(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(asymptotics, name, wrapper)

    spy("loggamma_jet")
    spy("s_series")
    x = to_mpf("0.3")
    w = _wc(("0.1", "0.2", "0.15"), 1)
    v = expression_by_S(x, w, CTX)
    assert len(calls["loggamma_jet"]) == 1
    assert calls["loggamma_jet"][0][1] == 3
    assert len(calls["s_series"]) == 7
    assert sorted(len(args[1]) for args in calls["s_series"]) == [1, 1, 1, 2, 2, 2, 3]
    # coefficient n of every jet operation reads coefficients <= n only
    assert v == _expression_by_S_per_degree(x, w, CTX)


def _expression_by_S_tricolorings(x, w, ctx):
    """I_r as the paper states the series route: (-1)^r e^{-gamma x} /
    Gamma(x) times the sum over ordered tricolorings A|B|C of the index
    set of (prod_{i in A} log omega_i) (d/dx)^{|B|} D_C."""
    from itertools import product

    from mtzeta.jets import Jet
    from mtzeta.kernel import loggamma_jet
    from mtzeta.series import s_series

    r = w.r
    with ctx.workprec():
        g = euler_gamma(ctx)
        la = mp.log(w.a)
        logw = [mp.log(o) for o in w.omega]
        gamma_jet = (loggamma_jet(x, r, ctx) + Jet.variable(x, r) * (g - la)).exp()
        products = {(): gamma_jet}
        total = mpf(0)
        for colors in product((0, 1, 2), repeat=r):
            C = tuple(i for i in range(r) if colors[i] == 2)
            if C not in products:
                products[C] = gamma_jet * s_series(
                    Jet.variable(x, r - len(C)), tuple(-w.omega[i] / w.a for i in C), ctx
                )
            term = products[C].derivative_value(colors.count(1))
            for i in range(r):
                if colors[i] == 0:
                    term *= logw[i]
            total += term
        return +(mpf(-1) ** r * mp.exp(-g * x) / mp.gamma(x) * total)


@pytest.mark.parametrize("bits", [128, 256])
def test_expression_by_S_matches_the_tricoloring_sum(bits):
    # the subset sum groups the tricolorings by C, and Lambda_j(omega_K)
    # sums their log products over A, so only the rounding differs
    ctx = PrecisionContext(precision_bits=bits)
    omega = ("0.1", "0.2", "0.15", "0.05")
    for r in range(1, 5):
        w = _wc(omega[:r], 1)
        x = to_mpf("0.3")
        got = expression_by_S(x, w, ctx)
        want = _expression_by_S_tricolorings(x, w, ctx)
        with ctx.workprec():
            assert abs(got - want) <= mpf(2) ** -(bits + 8) * abs(want), r


def test_expression_by_S_domain():
    with pytest.raises(DomainError):
        expression_by_S(to_mpf("0.5"), _wc(("0.6", "0.5"), 1), CTX)
    with pytest.raises(DomainError):
        expression_by_S(0, _wc(("0.5",), 2), CTX)
    with pytest.raises(BudgetError):
        expression_by_S(to_mpf("0.5"), _wc(("0.05",) * 9, 1), CTX)


# ---------------------------------------------------------------------------
# complete rank-1 expansion
# ---------------------------------------------------------------------------

def test_i1_expansion_leading_terms():
    x = to_mpf("0.2")
    v0 = i1_expansion(x, 1, 3, 0, CTX)
    v1 = i1_expansion(x, 1, 3, 1, CTX)
    with CTX.workprec():
        assert abs(v0 - (1 / x + mp.log(3))) <= mpf(2) ** -(BITS - 24)
        # order-1 coefficient assembled from the series coefficient and
        # the zeta value
        k1 = (v1 - v0) / x
        ref = -(t_coeff(1, 1, (to_mpf(-1) / 3,), CTX) + zeta_value(2, CTX))
        assert abs(k1 - ref) <= mpf(2) ** -(BITS - 24)


def test_i1_expansion_matches_quadrature():
    x = to_mpf("0.2")
    v = i1_expansion(x, 1, 3, 15, CTX)
    w = _wc((1,), 3)
    ref = i_integral(x, w, CTX)
    with CTX.workprec():
        assert abs(v - mpf(3) ** x * ref) <= mpf(10) ** -10


def test_i1_expansion_domain():
    for om, a in ((3, 1), (1, 1)):
        with pytest.raises(DomainError):
            i1_expansion(to_mpf("0.2"), om, a, 3, CTX)
    for bad_x in (0, 1):
        with pytest.raises(DomainError):
            i1_expansion(bad_x, 1, 3, 3, CTX)
    with pytest.raises(DomainError):
        i1_expansion(to_mpf("0.2"), 1, 3, -1, CTX)
