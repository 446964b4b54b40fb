"""Expansion-side evaluators for the integral analogue and the multi-sum:
main terms around x = 0, the polylogarithm coefficients c_{r,m} of the
normalized power series, their Bell-polynomial closed forms c'_{r,m},
the tricoloring reconstruction of I_r through the auxiliary series, and
the complete rank-1 expansion.

Everything here is series/special-function assembly; none of it touches
quadrature, so cross-checks against the direct evaluators are genuinely
independent.
"""

import math
from itertools import product

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
from .kernel import bell_complete, euler_gamma, loggamma_jet, zeta_value
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


def check_order(r, M):
    """Refuse coefficients c_{r,1..M} of a negative order M or beyond the
    rank or order cap, before the first one is summed."""
    if M < 0:
        raise DomainError("truncation order must be nonnegative")
    if M and r > MAX_RANK:
        raise BudgetError("family enumeration is capped at rank %d" % MAX_RANK)
    if M > MAX_ORDER:
        raise BudgetError("coefficient order is capped at %d" % MAX_ORDER)


def _lambda_sum(x, w, ctx):
    """sum_k (-1)^k Lambda_k(omega) (r-k)!/x^{r-k}, at the caller's
    working precision."""
    s = mpf(0)
    for k in range(w.r + 1):
        pk = mpf(-1) ** k * lambda_k(w.omega, k, ctx) * mp.factorial(w.r - k)
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
    check_order(r, m)
    with ctx.workprec():
        a = w.a
        terms = []
        for t in range(1, min(m, r) + 1):
            sign = mpf(-1) ** (m - t)
            rt_fact = math.factorial(r - t)
            for s in range(1, t + 1):
                for comp in compositions(t, s):
                    kfact = 1
                    for ki in comp:
                        kfact *= math.factorial(ki)
                    # the telescoping ratios of each family, shared by every l;
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
                    for wc in weak_compositions(m - t, s):
                        binom = 1
                        for ki, li in zip(comp, wc):
                            binom *= math.comb(ki + li - 1, li)
                        index = tuple(ki + li for ki, li in zip(comp, wc))
                        terms.append((sign * rt_fact * kfact * binom,
                                      [PolylogArgs(index, zs) for zs in fam_zs]))
        # one fixed-point pass per argument tuple; mpl then hits the cache
        total = mpf(0)
        for coef, ps in prefetched(terms, ctx):
            total += coef * sum((mpl(p, ctx) for p in ps), mpf(0))
        return +total


def c_prime_coeff(r, m, w, ctx):
    """Closed form for c_{r,m} when 1 <= m <= r: the Bell-polynomial
    combination sum_k (-1)^{m-k} ((r-m+k)!/k!)
    Lambda_{m-k}(omega/(a+|omega|)) B_k(0, -1! z(2), 2! z(3), ...)."""
    r, m = int(r), int(m)
    if r != w.r:
        raise DomainError("rank must match the weight configuration")
    if not 1 <= m <= r:
        raise DomainError("the closed form holds only for 1 <= m <= r")
    with ctx.workprec():
        denom = w.a + w.total
        scaled = tuple(o / denom for o in w.omega)
        bell_args = [mpf(0)]
        for j in range(2, m + 1):
            bell_args.append(
                mpf(-1) ** (j - 1) * mp.factorial(j - 1) * zeta_value(j, ctx)
            )
        total = mpf(0)
        for k in range(m + 1):
            lam = lambda_k(scaled, m - k, ctx)
            bk = bell_complete(k, bell_args[:k])
            total += (
                mpf(-1) ** (m - k)
                * mp.factorial(r - m + k)
                / mp.factorial(k)
                * lam
                * bk
            )
        return +total


def i_expansion(w, M, ctx):
    """Coefficients of (a+|omega|)^x I_r through order M: entry m belongs
    to x^{m-r}, entry 0 is r!, and entry m >= 1 is c_{r,m}."""
    M, r = int(M), w.r
    check_order(r, M)
    with ctx.workprec():
        return (mp.factorial(r),) + tuple(c_coeff(r, m, w, ctx) for m in range(1, M + 1))


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
    / Gamma(x) times the sum over ordered tricolorings A|B|C of the
    index set of (prod_{i in A} log omega_i) (d/dx)^{|B|}
    [Gamma(x) a^{-x} e^{gamma x} S_{|C|}(x, -omega_C/a)].

    Derivatives are carried by jets: one of Gamma(x) a^{-x} e^{gamma x}
    at degree r, and one product with S_{|C|} at degree r - |C| per colour
    class C, read at degree |B| by every tricoloring with that C.
    Requires |omega| < a strictly."""
    x = positive_x(x)
    r = w.r
    if r > MAX_RANK:
        raise BudgetError("tricoloring enumeration is capped at rank %d" % MAX_RANK)
    with ctx.workprec():
        if not w.total < w.a:
            raise DomainError("the series route requires |omega| < a")
        g = euler_gamma(ctx)
        la = mp.log(w.a)
        logw = [mp.log(o) for o in w.omega]
        gamma_jet = (loggamma_jet(x, r, ctx) + Jet.variable(x, r) * (g - la)).exp()
        products = {(): gamma_jet}
        total = mpf(0)
        for colors in product((0, 1, 2), repeat=r):
            A = [i for i in range(r) if colors[i] == 0]
            B = [i for i in range(r) if colors[i] == 1]
            C = tuple(i for i in range(r) if colors[i] == 2)
            if C not in products:
                products[C] = gamma_jet * s_series(
                    Jet.variable(x, r - len(C)),
                    tuple(-w.omega[i] / w.a for i in C),
                    ctx,
                )
            term = products[C].derivative_value(len(B))
            for i in A:
                term *= logw[i]
            total += term
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
