"""Expansion-side evaluators for the integral analogue and the multi-sum:
main terms around x = 0, the polylogarithm coefficients c_{r,m} of the
normalized power series, their closed forms c'_{r,m} from the main
term's Lambda polynomial and the reciprocal-gamma series, the
reconstruction of I_r through the auxiliary series, and the complete
rank-1 expansion.

Everything here is series/special-function assembly; none of it touches
quadrature, so cross-checks against the direct evaluators are genuinely
independent.
"""

import math
from itertools import combinations

from mpmath import mp, mpf

from .combinatorics import (
    compositions,
    disjoint_subset_families,
    lambda_k,
    weak_compositions,
)
from .context import MAX_RANK, positive_x, to_mpf
from .errors import BudgetError, DomainError
from .jets import Jet
from .kernel import euler_gamma, inv_gamma_taylor, loggamma_jet, zeta_value
from .polylog import PolylogArgs, mpl, mpl_one_var, prefetched
from .series import s_series

__all__ = [
    "main_term_I",
    "main_term_M",
    "c_coeff",
    "c_prime_coeff",
    "i_expansion",
    "power_series_I",
    "expression_by_S",
    "i1_expansion",
]

# beyond this order the termwise sums are intractable: refuse, not stall
MAX_ORDER = 40
# the most (family, index) terms one call may sum; at 256 bits c_{3,1..20}
# (9,141) takes about 1 s and c_{6,5} (7,982, five deep) 7 to 10 s
_MAX_FAMILY_TERMS = 10000


def _family_terms(r, m):
    """The (family, index) terms of c_{r,m}: C(r, t) s! S(t, s) families
    of t indices in s blocks, times C(m-t+s-1, s-1) weak compositions."""
    return sum(math.comb(r, t) * math.comb(m - t + s - 1, s - 1)
               * sum((-1) ** i * math.comb(s, i) * (s - i) ** t for i in range(s + 1))
               for t in range(1, min(m, r) + 1) for s in range(1, t + 1))


def check_order(r, M, lo=1):
    """Refuse the coefficients c_{r,lo..M} at a negative order M, beyond
    the rank or order cap, or beyond the term budget, before the first
    one is summed."""
    if M < 0:
        raise DomainError("truncation order must be nonnegative")
    if M and r > MAX_RANK:
        raise BudgetError("family enumeration is capped at rank %d" % MAX_RANK)
    if M > MAX_ORDER:
        raise BudgetError("coefficient order is capped at %d" % MAX_ORDER)
    terms = sum(_family_terms(r, m) for m in range(lo, M + 1))
    if terms > _MAX_FAMILY_TERMS:
        raise BudgetError("the c_{%d,m} asked for need %d (family, index) terms, over the "
                          "budget of %d" % (r, terms, _MAX_FAMILY_TERMS))


def _lambda_poly(omega, n, ctx):
    """[(-1)^k Lambda_k(omega) (r-k)! for k = 0..n], r = len(omega), at
    the caller's working precision."""
    r = len(omega)
    return [mpf(-1) ** k * lambda_k(omega, k, ctx) * mp.factorial(r - k) for k in range(n + 1)]


def _lambda_sum(x, w, ctx):
    """sum_k (-1)^k Lambda_k(omega) (r-k)!/x^{r-k}, at the caller's
    working precision."""
    s = mpf(0)
    for k, pk in enumerate(_lambda_poly(w.omega, w.r, ctx)):
        s += pk * x ** (k - w.r)
    return s


def main_term_I(x, w, ctx):
    """The damped main term of I_r around x = 0:
    (e^{-gamma x}/Gamma(x+1)) sum_k (-1)^k Lambda_k(omega) (r-k)!/x^{r-k}."""
    x = positive_x(x)
    with ctx.workprec():
        s = _lambda_sum(x, w, ctx)
        return +(mp.exp(-euler_gamma(ctx) * x) / mp.gamma(x + 1) * s)


def main_term_M(x, w, ctx):
    """Main term of M_r: same symmetric-function sum with the plain
    1/Gamma(x+1) prefactor (no exponential damping)."""
    x = positive_x(x)
    with ctx.workprec():
        return +(_lambda_sum(x, w, ctx) / mp.gamma(x + 1))


def _c_coeffs(r, lo, M, w, ctx):
    """(c_{r,lo}, ..., c_{r,M}) from one family enumeration and one
    prefetch, each summed over its own terms in c_coeff's order."""
    with ctx.workprec():
        a = w.a
        terms = []
        for t in range(1, min(M, r) + 1):
            rt_fact = math.factorial(r - t)
            for s in range(1, t + 1):
                for comp in compositions(t, s):
                    kfact = 1
                    for ki in comp:
                        kfact *= math.factorial(ki)
                    # the telescoping ratios of each family, shared by every m and l;
                    # each block summed in sorted index order at this precision
                    fam_zs = []
                    for blocks, remainder in disjoint_subset_families(r, comp):
                        b = a + sum((w.omega[i - 1] for i in remainder), mpf(0))
                        zs = []
                        for block in blocks:
                            b2 = b + sum((w.omega[i - 1] for i in block), mpf(0))
                            zs.append(b / b2)
                            b = b2
                        fam_zs.append(zs)
                    for m in range(max(t, lo), M + 1):
                        sign = mpf(-1) ** (m - t)
                        for wc in weak_compositions(m - t, s):
                            binom = 1
                            for ki, li in zip(comp, wc):
                                binom *= math.comb(ki + li - 1, li)
                            index = tuple(ki + li for ki, li in zip(comp, wc))
                            terms.append(((m, sign * rt_fact * kfact * binom),
                                          [PolylogArgs(index, zs) for zs in fam_zs]))
        # each m's terms come in its own order, so each total keeps its bits
        totals = [mpf(0)] * (M + 1)
        for (m, coef), ps in prefetched(terms, ctx):
            totals[m] += coef * sum((mpl(p, ctx) for p in ps), mpf(0))
        return tuple(+total for total in totals[lo:])


def c_coeff(r, m, w, ctx):
    """Coefficient of x^{m-r} in (a+|omega|)^x I_r: the signed sum over
    chain lengths t, depths s, compositions k of t, weak compositions l
    of m-t, and ordered disjoint families (K_1..K_s), of
    (r-t)! prod k_i! prod C(k_i+l_i-1, l_i) times the depth-s
    polylogarithm at the telescoping shift ratios."""
    r, m = int(r), int(m)
    if r != w.r:
        raise DomainError("rank must match the weight configuration")
    if m < 1:
        raise DomainError("coefficients start at m = 1")
    check_order(r, m, m)
    return _c_coeffs(r, m, m, w, ctx)[0]


def c_prime_coeff(r, m, w, ctx):
    """Closed form for c_{r,m} when 1 <= m <= r: the x^m coefficient of
    the main term's polynomial sum_k (-1)^k Lambda_k(omega/(a+|omega|))
    (r-k)! x^k times the Taylor series of e^{-gamma x}/Gamma(x+1)."""
    r, m = int(r), int(m)
    if r != w.r:
        raise DomainError("rank must match the weight configuration")
    if not 1 <= m <= r:
        raise DomainError("the closed form holds only for 1 <= m <= r")
    with ctx.workprec():
        denom = w.a + w.total
        p = _lambda_poly(tuple(o / denom for o in w.omega), m, ctx)
        g = inv_gamma_taylor(m, True, ctx).coeffs
        return +sum((p[j] * g[m - j] for j in range(m + 1)), mpf(0))


def i_expansion(w, M, ctx):
    """Coefficients of (a+|omega|)^x I_r through order M: entry m belongs
    to x^{m-r}, entry 0 is r!, and entry m >= 1 is c_{r,m}, bit for bit
    c_coeff's, from one enumeration and one prefetch for every m."""
    M, r = int(M), w.r
    check_order(r, M)
    with ctx.workprec():
        return (mp.factorial(r),) + _c_coeffs(r, 1, M, w, ctx)


def power_series_I(x, w, M, ctx):
    """Estimate of I_r from the truncated normalized power series,
    divided back by (a+|omega|)^x.  Valid on 0 < x < 1."""
    x = to_mpf(x)
    if not 0 < x < 1:
        raise DomainError("the power series representation requires 0 < x < 1")
    coeffs = i_expansion(w, M, ctx)
    with ctx.workprec():
        total = mpf(0)
        for m, c in enumerate(coeffs):
            total += c * x ** (m - w.r)
        return +(total / (w.a + w.total) ** x)


def expression_by_S(x, w, ctx):
    """I_r reconstructed from the auxiliary series: (-1)^r e^{-gamma x}
    / Gamma(x) times the sum over subsets C of the index set, with K the
    rest and D_C = Gamma(x) a^{-x} e^{gamma x} S_{|C|}(x, -omega_C/a), of
    sum_j Lambda_j(omega_K) (d/dx)^{|K|-j} D_C.  The inner sum gathers the
    tricolorings A|B|C with A u B = K, whose terms are
    (prod_{i in A} log omega_i) (d/dx)^{|B|} D_C.

    Derivatives are carried by jets: one of Gamma(x) a^{-x} e^{gamma x}
    at degree r, and one product with S_{|C|} at degree |K| per nonempty
    C.  Requires |omega| < a strictly."""
    x = positive_x(x)
    r = w.r
    if r > MAX_RANK:
        raise BudgetError("subset enumeration is capped at rank %d" % MAX_RANK)
    with ctx.workprec():
        if not w.total < w.a:
            raise DomainError("the series route requires |omega| < a")
        g = euler_gamma(ctx)
        la = mp.log(w.a)
        gamma_jet = (loggamma_jet(x, r, ctx) + Jet.variable(x, r) * (g - la)).exp()
        total = mpf(0)
        for size in range(r + 1):
            for C in combinations(range(r), size):
                K = [w.omega[i] for i in range(r) if i not in C]
                D = gamma_jet
                if C:
                    D = gamma_jet * s_series(
                        Jet.variable(x, len(K)), tuple(-w.omega[i] / w.a for i in C), ctx
                    )
                for j in range(len(K) + 1):
                    total += lambda_k(K, j, ctx) * D.derivative_value(len(K) - j)
        return +(mpf(-1) ** r * mp.exp(-g * x) / mp.gamma(x) * total)


def i1_expansion(x, omega, a, K, ctx):
    """Complete rank-1 expansion of a^x I_1 through order K:
    1/x + log(a/omega)
    - sum_{k=1}^{K} {Li_{1,..,1,2}(-omega/a) + (-1)^{k+1} zeta(k+1)} x^k,
    with k-1 leading ones in the index.  Requires 0 < omega < a and
    0 < x < 1."""
    omega = to_mpf(omega)
    a = to_mpf(a)
    x = to_mpf(x)
    K = int(K)
    if not 0 < omega < a:
        raise DomainError("the expansion requires 0 < omega < a")
    if not 0 < x < 1:
        raise DomainError("the expansion requires 0 < x < 1")
    if K < 0:
        raise DomainError("truncation order must be nonnegative")
    with ctx.workprec():
        z = -omega / a
        total = 1 / x + mp.log(a / omega)
        for k in range(1, K + 1):
            li = mpl_one_var((1,) * (k - 1) + (2,), z, ctx)
            total -= (li + mpf(-1) ** (k + 1) * zeta_value(k + 1, ctx)) * x ** k
        return +total
