"""Kernel tests: exact combinatorics, constants, Gamma(0,u), Taylor factories.

Oracles are independent routes computed here in the tests (exact rational
arithmetic, finite differences, direct quadrature, Euler-Maclaurin direct
summation), run at 3x working precision so truncation error of the oracle
never masks method error in the library.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from mtzeta.context import GUARD_BITS, PrecisionContext
from mtzeta.errors import DomainError
from mtzeta.jets import Jet
from mtzeta.kernel import (
    _cf_terms,
    bell_complete,
    euler_gamma,
    gamma0,
    inv_gamma_taylor,
    loggamma_jet,
    stirling_first_unsigned,
    zeta_value,
)

from oracles import pochhammer

CTX = PrecisionContext()
BITS = CTX.precision_bits


def tol_bits(slack):
    return mpf(2) ** (-(BITS - slack))


# ---------------------------------------------------------------------------
# context invariants
# ---------------------------------------------------------------------------

def test_context_rejects_low_precision():
    with pytest.raises(DomainError):
        PrecisionContext(precision_bits=32)


def test_context_requires_guard_digits():
    # tolerance below 2^-(bits-16) leaves no guard digits
    with pytest.raises(DomainError):
        PrecisionContext(precision_bits=64, target_tol=mpf(2) ** -60)


def test_context_defaults_valid():
    from mtzeta.context import to_mpf

    assert CTX.precision_bits == 256
    assert CTX.target_tol == to_mpf("1e-30")
    assert abs(CTX.target_tol - mpf(10) ** -30) < mpf(10) ** -45
    # below 116 bits the default is the guard-digit floor itself
    assert PrecisionContext(precision_bits=64).target_tol == mpf(2) ** -48
    assert PrecisionContext(precision_bits=116).target_tol == to_mpf("1e-30")


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def _random_jet(rng, degree, center=0, lo=-2.0, hi=2.0, positive_const=False):
    coeffs = [mpf(rng.uniform(lo, hi)) for _ in range(degree + 1)]
    if positive_const:
        coeffs[0] = mpf(rng.uniform(0.5, 3.0))
    return Jet(center, coeffs)


def _jet_close(a, b, tol):
    assert a.degree == b.degree
    return max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs)) <= tol


def test_jet_ring_laws():
    rng = random.Random(20240817)
    with CTX.workprec():
        for _ in range(25):
            d = rng.randint(0, 8)
            a = _random_jet(rng, d)
            b = _random_jet(rng, d)
            c = _random_jet(rng, d)
            assert _jet_close((a * b) * c, a * (b * c), tol_bits(16))
            assert _jet_close(a * (b + c), a * b + a * c, tol_bits(16))
            p = _random_jet(rng, d, positive_const=True)
            assert _jet_close(p.log().exp(), p, tol_bits(16))


def test_jet_polynomial_product_exact():
    # integer-coefficient polynomials multiply exactly modulo truncation
    with CTX.workprec():
        a = Jet(0, [3, -2, 5, 1])
        b = Jet(0, [1, 4, 0, -6])
        prod = a * b
        # full polynomial product: (3 - 2x + 5x^2 + x^3)(1 + 4x - 6x^3)
        full = [3, 10, -3, 3, -10, 30, -6]
        assert list(prod.coeffs) == [mpf(c) for c in full[:4]]


def test_jet_division_and_power():
    with CTX.workprec():
        a = Jet(0, [mpf(2), mpf(1), mpf(-0.5), mpf(0.25)])
        one = (a / a)
        assert abs(one.coeffs[0] - 1) <= tol_bits(16)
        assert all(abs(c) <= tol_bits(16) for c in one.coeffs[1:])
        sq = a ** 2
        assert _jet_close(sq, a * a, tol_bits(16))


def test_jet_against_taylor_oracle():
    # exp(x)/(1+x) at 0: jet ring route vs mpmath.taylor at 3x precision
    d = 8
    with mp.workprec(3 * CTX.precision_bits + GUARD_BITS):
        x = Jet.variable(0, d)
        routed = x.exp() / (1 + x)
        oracle = mp.taylor(lambda t: mp.exp(t) / (1 + t), 0, d)
    assert max(abs(a - b) for a, b in zip(routed.coeffs, oracle)) <= tol_bits(16)


def test_jet_derivative_value():
    with CTX.workprec():
        j = Jet(1, [mpf(5), mpf(3), mpf(7)])
        assert j.derivative_value(0) == 5
        assert j.derivative_value(2) == 14  # 2! * 7


# ---------------------------------------------------------------------------
# pochhammer and Stirling numbers
# ---------------------------------------------------------------------------

def test_pochhammer_trivial_cases():
    assert pochhammer(mpf("2.7"), 0, CTX) == 1
    for m in range(1, 8):
        assert pochhammer(1, m, CTX) == math.factorial(m)
    assert pochhammer(mpf("0.5"), 2, CTX) == mpf("0.75")


def test_stirling_examples():
    for m in range(1, 12):
        assert stirling_first_unsigned(m, m) == 1
        assert stirling_first_unsigned(m, 1) == math.factorial(m - 1)
    assert stirling_first_unsigned(3, 2) == 3
    with pytest.raises(DomainError):
        stirling_first_unsigned(3, 4)
    with pytest.raises(DomainError):
        stirling_first_unsigned(3, 0)


def test_stirling_builds_one_row_at_a_time():
    # c(600, 1) = 599!, reached without keeping the 600 rows before it
    tracemalloc.start()
    try:
        value = stirling_first_unsigned(600, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == math.factorial(599)
    assert peak < 4 * 2 ** 20


def test_pochhammer_stirling_identity_exact():
    # (x)_m = sum_l c(m,l) x^l in exact rational arithmetic
    rng = random.Random(991)
    for m in range(1, 13):
        for _ in range(20):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            lhs = pochhammer(x, m, CTX)
            rhs = sum(
                stirling_first_unsigned(m, l) * x ** l for l in range(1, m + 1)
            )
            assert lhs == rhs


def test_stirling_harmonic_identity_exact():
    # c(m,l)/m! equals the nested harmonic sum over 1<=m_1<...<m_{l-1}<m
    from itertools import combinations

    for m in range(1, 11):
        for l in range(1, m + 1):
            lhs = Fraction(stirling_first_unsigned(m, l), math.factorial(m))
            rhs = Fraction(0)
            for subset in combinations(range(1, m), l - 1):
                prod = Fraction(1, m)
                for v in subset:
                    prod /= v
                rhs += prod
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Bell polynomials
# ---------------------------------------------------------------------------

def _bell_partition_oracle(n, xs):
    """Explicit partition-sum formula: B_n = n! sum over s_1+2s_2+...=n of
    prod x_j^{s_j} / ((j!)^{s_j} s_j!)."""
    total = Fraction(0)

    def rec(j, remaining, acc):
        nonlocal total
        if j > remaining:
            if remaining == 0:
                total += acc
            return
        # s_j copies of part size j
        s = 0
        term = acc
        while s * j <= remaining:
            if s > 0:
                term = term * xs[j - 1] / (math.factorial(j) * s)
            rec(j + 1, remaining - s * j, term)
            s += 1

    rec(1, n, Fraction(1))
    return math.factorial(n) * total


def test_bell_base_cases():
    assert bell_complete(0, []) == 1
    x1, x2 = Fraction(3, 2), Fraction(-5, 7)
    assert bell_complete(2, [x1, x2]) == x1 ** 2 + x2
    x3 = Fraction(2, 3)
    assert bell_complete(3, [x1, x2, x3]) == x1 ** 3 + 3 * x1 * x2 + x3


def test_bell_matches_partition_sum():
    rng = random.Random(4242)
    for n in range(0, 9):
        for _ in range(4):
            xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            assert bell_complete(n, xs) == _bell_partition_oracle(n, xs)


def test_bell_generating_function():
    # degree-8 jet of exp(sum x_k t^k / k!) has coefficient n = B_n / n!
    rng = random.Random(77)
    xs = [rng.randint(-3, 3) for _ in range(8)]
    with CTX.workprec():
        poly = Jet(0, [mpf(0)] + [mpf(xs[k - 1]) / mp.factorial(k) for k in range(1, 9)])
        gen = poly.exp()
        for n in range(9):
            expected = mpf(bell_complete(n, xs[:n])) / mp.factorial(n)
            assert abs(gen.coeffs[n] - expected) <= tol_bits(16)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_zeta_closed_forms():
    with CTX.workprec():
        assert abs(zeta_value(2, CTX) - mp.pi ** 2 / 6) <= tol_bits(8)
        assert abs(zeta_value(4, CTX) - mp.pi ** 4 / 90) <= tol_bits(8)
    with pytest.raises(DomainError):
        zeta_value(1, CTX)


def _bernoulli_fractions(count):
    """B_0..B_count by the defining recurrence, exact."""
    bs = [Fraction(1)]
    for m in range(1, count + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return bs


def test_zeta3_against_euler_maclaurin_oracle():
    # direct sum to N plus Euler-Maclaurin tail, Bernoulli numbers exact
    N, K = 600, 20
    bern = _bernoulli_fractions(2 * K)
    with mp.workprec(3 * BITS):
        partial = sum(mpf(1) / mpf(n) ** 3 for n in range(1, N + 1))
        Nv = mpf(N)
        tail = Nv ** -2 / 2 - Nv ** -3 / 2
        for k in range(1, K + 1):
            rising = 1
            for i in range(2 * k - 1):
                rising *= 3 + i
            tail += (
                mpf(bern[2 * k].numerator)
                / bern[2 * k].denominator
                / mp.factorial(2 * k)
                * rising
                * Nv ** (-2 - 2 * k)
            )
        oracle = partial + tail
    assert abs(zeta_value(3, CTX) - oracle) <= tol_bits(8)


def test_euler_gamma_digits():
    v = euler_gamma(CTX)
    assert mp.nstr(v, 11).startswith("0.5772156649")


def test_euler_gamma_is_minus_loggamma_slope():
    j = loggamma_jet(1, 1, CTX)
    assert abs(j.coeffs[1] + euler_gamma(CTX)) <= tol_bits(8)


# ---------------------------------------------------------------------------
# Gamma(0, u)
# ---------------------------------------------------------------------------

def test_gamma0_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma0(0, CTX)
    with pytest.raises(DomainError):
        gamma0(-1, CTX)


def test_gamma0_small_u_limit():
    # Gamma(0,u) + log u + gamma -> 0 like u as u -> 0
    with CTX.workprec():
        g = euler_gamma(CTX)
        for e in range(3, 7):
            u = mpf(10) ** -e
            rem = gamma0(u, CTX) + mp.log(u) + g
            assert abs(rem) <= 2 * u
            assert abs(rem) >= u / 2  # remainder really is first-order in u


def test_gamma0_method_boundary():
    # series value at u=1 vs the large-u scheme value at u=1
    with CTX.workprec():
        series_side = gamma0(mpf(1), CTX)  # routed to the series branch
        large_side = +mp.e1(mpf(1))
    assert abs(series_side - large_side) <= tol_bits(8)


def test_gamma0_against_quadrature_oracle():
    with mp.workprec(3 * CTX.precision_bits + GUARD_BITS):
        oracle = mp.quad(lambda t: mp.exp(-t) / t, [2, mp.inf])
    assert abs(gamma0(2, CTX) - oracle) <= tol_bits(8)
    # one point inside the series branch as well
    with mp.workprec(3 * CTX.precision_bits + GUARD_BITS):
        oracle_half = mp.quad(lambda t: mp.exp(-t) / t, [mpf("0.5"), 3, mp.inf])
    assert abs(gamma0(mpf("0.5"), CTX) - oracle_half) <= tol_bits(8)


def test_gamma0_monotone_positive():
    with CTX.workprec():
        us = [mpf(10) ** (mpf(e) / 4) for e in range(-24, 6)]  # 1e-6 .. ~30
        vals = [gamma0(u, CTX) for u in us]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _gamma0_mpf_series(u, ctx):
    """The u <= 1 branch as an mpf loop, the form before the fixed-point sum."""
    with ctx.workprec():
        uv = mpf(u)
        cutoff = mpf(2) ** (-(ctx.precision_bits + GUARD_BITS))
        total = -mp.log(uv) - mp.euler
        term = mpf(1)
        n = 0
        while True:
            n += 1
            term *= -uv / n
            piece = term / n
            total -= piece
            if abs(piece) < cutoff:
                break
        return +total


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 768, 1024])
def test_gamma0_matches_e1_across_the_fraction_window(bits):
    # the continued fraction runs for 4 + p/15 <= u < 0.69 (p + 20), p the
    # working precision; the grid straddles both ends and spans the window
    p = bits + GUARD_BITS
    lo, hi = 4 + mpf(p) / 15, mpf("0.69") * (p + 20)
    ctx = PrecisionContext(precision_bits=bits)
    us = [mpf("1.5"), lo * mpf("0.97"), lo, lo * mpf("1.03"), (lo + hi) / 2, hi * mpf("0.97")]
    us += [hi - mpf(2) ** -20, hi, hi * mpf("1.03")]
    for u in us:
        got = gamma0(u, ctx)
        with mp.workprec(bits + 64):
            want = mp.e1(u)
            assert abs(got - want) <= mpf(2) ** -bits * want, (bits, u)


def _gamma0_operator_form(u, ctx):
    """gamma0 with its series and fraction returns in mpf operators, the
    form before they moved onto raw mpf tuples."""
    with ctx.workprec():
        uv = mpf(u)
        if uv <= 1:
            wp = mp.prec + 8
            cutoff = 1 << (wp - ctx.precision_bits - GUARD_BITS)
            uf = to_fixed(uv._mpf_, wp)
            term = 1 << wp
            total = n = 0
            while True:
                n += 1
                term = -(term * uf >> wp) // n
                piece = term // n
                total -= piece
                if abs(piece) < cutoff:
                    break
            return -mp.log(uv) - mp.euler + mp.ldexp(total, -wp)
        if 4 + mp.prec / 15 <= uv < 0.69 * (mp.prec + 20):
            wp = mp.prec + 20
            uf = to_fixed(uv._mpf_, wp)
            one, square = 1 << wp, 1 << (2 * wp)
            n = _cf_terms(mp.prec, float(uv))
            t = uf + (2 * n - 1) * one
            for k in range(n - 1, 0, -1):
                t = uf + (2 * k - 1) * one - k * k * square // t
            return mp.exp(-uv) / mp.ldexp(t, -wp)
        return +mp.e1(uv)


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
def test_gamma0_bit_identical_to_operator_form(bits):
    # every branch, and both ends of the fraction window from each side
    p = bits + GUARD_BITS
    ctx = PrecisionContext(precision_bits=bits)
    with mp.workprec(p):
        lo, hi = 4 + mpf(p) / 15, mpf("0.69") * (p + 20)
        us = [mpf(u) for u in ("1e-300", "1e-30", "1e-3", "0.5", "1", "1.5", "3")]
        us += [lo - mpf(2) ** -20, lo, lo * mpf("1.03"), (lo + hi) / 2]
        us += [hi - mpf(2) ** -20, hi, hi * mpf("1.03"), 4 * hi]
    for u in us:
        assert gamma0(u, ctx)._mpf_ == _gamma0_operator_form(u, ctx)._mpf_, (bits, u)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_gamma0_series_matches_mpf_loop(bits):
    ctx = PrecisionContext(precision_bits=bits)
    for u in ("1e-300", "1e-30", "1e-3", "0.5", "1"):
        with mp.workprec(bits + GUARD_BITS):
            uv = mpf(u)
        got = gamma0(uv, ctx)
        want = _gamma0_mpf_series(uv, ctx)
        with mp.workprec(2 * bits):
            # both loops stop 2^-(bits+32) short of the sum; measured
            # agreement is about 2^-29 units of 2^-bits
            assert abs(got - want) <= mpf(2) ** -(bits + 24) * max(1, abs(want)), u


# ---------------------------------------------------------------------------
# Taylor factories
# ---------------------------------------------------------------------------

def _central_derivative(f, x0, k, h_bits=80, prec=1200):
    """k-th derivative by symmetric differences with one Richardson step.

    Truncation O(h^4) after Richardson; cancellation costs k*h_bits mantissa
    bits, covered by the large working precision.
    """
    with mp.workprec(prec):
        x0 = mpf(x0)
        h = mpf(2) ** -h_bits

        def stencil(hh):
            s = mpf(0)
            for i in range(k + 1):
                node = x0 + (mpf(k) / 2 - i) * hh
                s += (-1) ** i * math.comb(k, i) * f(node)
            return s / hh ** k

        d1 = stencil(h)
        d2 = stencil(h / 2)
        return (4 * d2 - d1) / 3


def test_loggamma_jet_known_coefficients():
    j = loggamma_jet(1, 2, CTX)
    with CTX.workprec():
        assert abs(j.coeffs[0]) <= tol_bits(8)
        assert abs(j.coeffs[1] + mp.euler) <= tol_bits(8)
        assert abs(j.coeffs[2] - zeta_value(2, CTX) / 2) <= tol_bits(8)
    with pytest.raises(DomainError):
        loggamma_jet(0, 2, CTX)
    with pytest.raises(DomainError):
        loggamma_jet(-3, 2, CTX)


def test_loggamma_jet_vs_finite_differences():
    x0 = mpf("0.3")
    j = loggamma_jet(x0, 6, CTX)
    for k in range(0, 7):
        if k:
            oracle = _central_derivative(mp.loggamma, x0, k)
        else:
            with mp.workprec(3 * BITS):
                oracle = mp.loggamma(x0)
        with CTX.workprec():
            derived = j.coeffs[k] * mp.factorial(k)
            assert abs(derived - oracle) <= tol_bits(10) * max(1, abs(oracle))


def _inv_gamma_bell(degree, ctx):
    """Taylor coefficients of e^{-gamma x}/Gamma(x+1) at 0 by the Bell
    recurrence, B_n(0, -1! zeta(2), 2! zeta(3), ..., (-1)^{n-1} (n-1)! zeta(n))/n!,
    not the exp of the zeta series that inv_gamma_taylor takes."""
    with ctx.workprec():
        args = [mpf(0)] + [(-1) ** (j - 1) * mp.factorial(j - 1) * zeta_value(j, ctx) for j in range(2, degree + 1)]
        return [bell_complete(n, args[:n]) / mp.factorial(n) for n in range(degree + 1)]


def test_inv_gamma_taylor_coefficients():
    z2, z3, z4 = (zeta_value(k, CTX) for k in (2, 3, 4))
    damped = inv_gamma_taylor(4, CTX)
    assert inv_gamma_taylor(0, CTX).coeffs == (1,)
    with CTX.workprec():
        # exp(-gamma x) damping kills the linear coefficient
        closed = [1, 0, -z2 / 2, z3 / 3, z2 ** 2 / 8 - z4 / 4]
        for got, want, bell in zip(damped.coeffs, closed, _inv_gamma_bell(4, CTX), strict=True):
            assert abs(got - want) <= tol_bits(8)
            assert abs(got - bell) <= tol_bits(8)


def test_inv_gamma_taylor_vs_finite_differences():
    damped = inv_gamma_taylor(3, CTX)
    for k in range(4):
        oracle = (
            _central_derivative(lambda t: mp.exp(-mp.euler * t) / mp.gamma(1 + t), mpf(0), k)
            if k
            else mpf(1)
        )
        with CTX.workprec():
            derived = damped.coeffs[k] * mp.factorial(k)
            assert abs(derived - oracle) <= tol_bits(10) * max(1, abs(oracle))


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_inv_gamma_taylor_vs_loggamma_jet_route(bits):
    # independent assemblies: exp(-gamma x) exp(-loggamma jet shifted to 1),
    # and the Bell recurrence
    D = 8
    ctx = PrecisionContext(precision_bits=bits)
    tol = mpf(2) ** -(bits - 12)
    with ctx.workprec():
        lg = loggamma_jet(1, D, ctx)
        g = euler_gamma(ctx)
        damp = Jet(0, [(-g) ** n / mp.factorial(n) for n in range(D + 1)])
        routed = damp * Jet(0, (-Jet(0, lg.coeffs)).exp().coeffs)
        got = inv_gamma_taylor(D, ctx).coeffs
        assert max(abs(a - b) for a, b in zip(routed.coeffs, got, strict=True)) <= tol
        assert max(abs(a - b) for a, b in zip(_inv_gamma_bell(D, ctx), got, strict=True)) <= tol
