"""Oracles that only the tests call: a rising factorial, the expansion
of a shifted polylogarithm in powers of x, brute quadrature of the
defining integral I_r, and the truncated defining sum M_r with a tail
bound.  Each is a reference against which a library route is checked,
not an evaluator the package needs."""

import math
from fractions import Fraction

from mpmath import mp, mpf

from mtzeta.combinatorics import weak_compositions
from mtzeta.context import positive_x, to_mpf
from mtzeta.errors import DomainError
from mtzeta.polylog import PolylogArgs, mpl


def pochhammer(x, m, ctx):
    """Rising factorial (x)_m = x(x+1)...(x+m-1); empty product 1 for m=0.

    Exact when x is an int or Fraction; mpf at working precision otherwise.
    """
    if m < 0:
        raise DomainError("pochhammer requires m >= 0")
    if isinstance(x, (int, Fraction)):
        acc = Fraction(1) if isinstance(x, Fraction) else 1
        for i in range(m):
            acc *= x + i
        return acc
    with ctx.workprec():
        acc = mpf(1)
        xv = mpf(x)
        for i in range(m):
            acc *= xv + i
        return acc


def li1_series_in_x(p, x, L, ctx):
    """Partial sum through total order L of the expansion of the shifted
    sum in powers of x:

        sum_{l>=0} (-x)^l sum_{l_1+...+l_s=l}
            prod_i C(k_i + l_i - 1, l_i) * Li_{k+l}(z).
    """
    x = to_mpf(x)
    if not 0 < x < 1:
        raise DomainError("expansion variable must lie in (0,1)")
    ks = p.index.parts
    s = p.index.depth
    with ctx.workprec():
        total = mpf(0)
        for l in range(int(L) + 1):
            inner = mpf(0)
            for wc in weak_compositions(l, s):
                coeff = 1
                for k, li in zip(ks, wc):
                    coeff *= math.comb(k + li - 1, li)
                shifted = tuple(k + li for k, li in zip(ks, wc))
                inner += coeff * mpl(PolylogArgs(shifted, p.args), ctx)
            total += (-x) ** l * inner
        return +total


def i_brute(x, w, ctx):
    """Tensor-product quadrature of the defining r-dimensional integral,
    r <= 2 (oracle use).  Domain truncated at T chosen from the AM-GM
    comparison: the discarded tail is below the context tolerance.

    The r=2 case nests two adaptive quadratures, so it runs at a capped
    working precision; this is a cross-check oracle for ~1e-10 level
    agreement, not a production evaluator."""
    x = positive_x(x)
    r = w.r
    if r > 2:
        raise DomainError("brute integration is an oracle for r <= 2 only")
    with ctx.workprec():
        tol = ctx.target_tol
        # tail over any coordinate beyond T, from
        # (omega.t + a)^x >= r^x prod (omega_i t_i)^{x/r}:
        #   tail <= r * r^{-x} (prod omega)^{-x/r} (r/x)^r T^{-x/r}
        prod_om = mpf(1)
        for om in w.omega:
            prod_om *= om
        lead = r * r ** -x * prod_om ** (-x / r) * (mpf(r) / x) ** r
        T = (lead / tol) ** (r / x)
        if T < 100:
            T = mpf(100)
        # integrate in s = log t; the 1/prod(t_i) Jacobian cancels and the
        # integrand decays exponentially in each s_i, so plain adaptive
        # quadrature on the box [0, log T]^r is well conditioned
        S = mp.log(T)
        pts = [0, 5, S / 2, S]
        if r == 1:
            om = w.omega[0]
            val = mp.quad(lambda s: (om * mp.exp(s) + w.a) ** -x, pts)
        else:
            o1, o2 = w.omega
            a = w.a
            with mp.workprec(min(mp.prec, 112)):
                def inner(s1):
                    e1 = o1 * mp.exp(s1) + a
                    return mp.quad(
                        lambda s2: (e1 + o2 * mp.exp(s2)) ** -x,
                        pts,
                        maxdegree=6,
                    )

                val = mp.quad(inner, pts, maxdegree=6)
        return +val


def m_direct(x, w, N, ctx):
    """Truncated defining multi-sum plus a rigorous tail bound.

    Returns (value, bound): value is the sum over all n_i <= N, bound
    dominates the discarded part via the AM-GM comparison
    (omega.n + a)^x >= r^x prod(omega_i n_i)^{x/r}.  r <= 3."""
    x = positive_x(x)
    r = w.r
    if r > 3:
        raise DomainError("direct summation is an oracle for r <= 3 only")
    N = int(N)
    if N < 1:
        raise DomainError("cutoff must be positive")
    with ctx.workprec():
        a = w.a
        om = w.omega
        total = mpf(0)
        if r == 1:
            for n1 in range(1, N + 1):
                total += 1 / (n1 * (om[0] * n1 + a) ** x)
        elif r == 2:
            for n1 in range(1, N + 1):
                base = om[0] * n1
                for n2 in range(1, N + 1):
                    total += 1 / (n1 * n2 * (base + om[1] * n2 + a) ** x)
        else:
            for n1 in range(1, N + 1):
                b1 = om[0] * n1
                for n2 in range(1, N + 1):
                    b2 = b1 + om[1] * n2
                    n12 = n1 * n2
                    for n3 in range(1, N + 1):
                        total += 1 / (n12 * n3 * (b2 + om[2] * n3 + a) ** x)
        s = x / r
        prod_om = mpf(1)
        for o in om:
            prod_om *= o
        zeta_full = mp.zeta(1 + s)
        tail_one = N ** -s / s  # int_N^inf t^{-1-s} dt
        bound = r * r ** -x * prod_om ** -s * tail_one * zeta_full ** (r - 1)
        return +total, +bound
