"""Arbitrary-precision scalar kernel.

Constants, Pochhammer symbols, exact Stirling/Bell combinatorial numbers,
the digamma and polygammas at large real argument, the incomplete gamma
value Gamma(0,u), and the two Taylor-coefficient factories (log-gamma
jets, reciprocal-gamma series) everything downstream leans on.

Exactness split: stirling_first_unsigned and bell_complete are exact
(integers / caller-supplied rationals); psi_derivs gives raw mpf tuples;
everything else is mpf at ctx.precision_bits with guard bits inside.
"""

from __future__ import annotations

import functools
import math

from mpmath import mp, mpf
from mpmath.libmp import (
    fone, from_man_exp, mpf_add, mpf_div, mpf_euler, mpf_exp, mpf_log, mpf_mul, mpf_neg, mpf_pos,
    mpf_pow_int, mpf_sub, round_nearest, to_fixed,
)

from .context import GUARD_BITS, PrecisionContext, to_mpf
from .errors import DomainError
from .jets import Jet

# ---------------------------------------------------------------------------
# exact combinatorial numbers
# ---------------------------------------------------------------------------

def stirling_first_unsigned(m: int, l: int) -> int:
    """Unsigned Stirling number of the first kind: coefficient of x^l in the
    rising factorial (x)_m.  Exact integer, from one row rolled forward by
    c(n+1, j) = n c(n, j) + c(n, j-1)."""
    if m < 1 or l < 1 or l > m:
        raise DomainError("stirling_first_unsigned requires 1 <= l <= m")
    row = [1]  # c(0, j)
    for n in range(m):
        row = [n * c + prev for c, prev in zip(row + [0], [0] + row)]
    return row[l]


def bell_complete(n: int, xs) -> object:
    """Complete exponential Bell polynomial B_n(x_1..x_n) by the recurrence
    B_{m+1} = sum_s C(m,s) x_{s+1} B_{m-s}.

    Generic over the coefficient ring: works for mpf, Fraction, int alike
    (binomials are exact Python ints).
    """
    if n < 0:
        raise DomainError("bell_complete requires n >= 0")
    if len(xs) < n:
        raise DomainError("bell_complete needs at least n arguments")
    b = [1]
    for m in range(n):
        acc = 0
        for s in range(m + 1):
            acc = acc + math.comb(m, s) * xs[s] * b[m - s]
        b.append(acc)
    return b[n]


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def zeta_value(k: int, ctx: PrecisionContext) -> mpf:
    """zeta(k) for integer k >= 2 at working precision (mpmath caches it)."""
    if not isinstance(k, int) or k < 2:
        raise DomainError("zeta_value requires integer k >= 2")
    with ctx.workprec():
        return +mp.zeta(k)


def euler_gamma(ctx: PrecisionContext) -> mpf:
    with ctx.workprec():
        return +mp.euler


# ---------------------------------------------------------------------------
# digamma and polygammas at large real argument
# ---------------------------------------------------------------------------

# B_2k as exact fractions; k reaches about 110 in zeta_ez_ones' tail at 1024 bits
_bernfrac = functools.lru_cache(maxsize=None)(mp.bernfrac)


def psi_derivs(t, log_t, c):
    """[psi(t), psi'(t), ..., psi^(c)(t)] as raw mpf tuples for real t >= 1200
    and c >= 1, given log t, in real fixed point (mpmath 1.3 takes every
    polygamma of order >= 1 through its complex mpc_psi), from

        psi(t)     = log t - 1/(2t) - sum_k B_2k/(2k) t^-2k
        psi^(j)(t) = (-1)^(j+1) (j-1)! t^-j [1 + j/(2t) + sum_k B_2k C(2k+j-1, 2k) t^-2k]

    in one pass over k on Python ints at scale 2^(mp.prec+16).  t^-2k is a
    mantissa times a power of two, so the growth of B_2k multiplies only a
    relative error; the terms fall more than 4-fold per k while
    2k + j << 2 pi t.  Order j stops when its own term floors to zero,
    which happens only where B_2k > 0 and then at every lower order too;
    psi, whose terms are those of psi' over 2k, stops with psi'."""
    prec, wp, rnd = mp.prec, mp.prec + 16, round_nearest
    u = mpf_div(fone, t._mpf_, wp, rnd)
    _, man, exp, bc = u
    m = man << (wp - bc)
    e = exp + bc  # u = m 2^(e - wp), 2^(wp-1) <= m < 2^wp
    m2 = m * m >> wp
    sums = [m >> (1 - e)] + [(1 << wp) + (j * m >> (1 - e)) for j in range(1, c + 1)]
    lo, power, k = 1, 1 << wp, 0  # orders lo..c are still summing
    while lo <= c:
        k += 1
        num, den = _bernfrac(2 * k)
        power = power * m2 >> wp
        for j in range(lo, c + 1):
            term = (num * math.comb(2 * k + j - 1, 2 * k) * power >> (-2 * k * e)) // den
            sums[j] += term
            if j == 1:
                sums[0] += term // (2 * k)
            if not term:
                lo = j + 1
    # each value rounded at wp, then to mp.prec
    out = [mpf_sub(log_t._mpf_, from_man_exp(sums[0], -wp), wp, rnd)]
    for j in range(1, c + 1):
        scaled = from_man_exp((-1) ** (j + 1) * math.factorial(j - 1) * sums[j], -wp)
        out.append(mpf_mul(scaled, mpf_pow_int(u, j, wp, rnd), wp, rnd))
    return [mpf_pos(v, prec, rnd) for v in out]


# ---------------------------------------------------------------------------
# incomplete gamma Gamma(0, u)
# ---------------------------------------------------------------------------

def _cf_terms(prec: int, u: float) -> int:
    """Levels N of the continued fraction of gamma0 that give e^u Gamma(0,u)
    to relative error 2^-prec, for u > 1.

    e^u Gamma(0,u) = int_0^inf e^{-t}/(u+t) dt is a Stieltjes function of
    the weight e^{-t}, whose monic orthogonal polynomials are
    (-1)^N N! L_N(t) (Laguerre), of norm N!.  The N-level fraction is its
    N-th convergent, whose error is int pi_N(t)^2 e^{-t}/(u+t) dt over
    pi_N(-u)^2 (pi_N monic), at most 1/(u L_N(-u)^2).  With
    e^u Gamma(0,u) > 1/(u+1), the relative error is below
    (1+1/u)/L_N(-u)^2.  L_N(-u) = sum_k C(N,k) u^k/k! exceeds its largest
    term, so the N returned is one where twice the log of that term
    (from lgamma) reaches prec log 2 + log(1+1/u).  As
    L_N(-u) <= exp(2 sqrt(N u)), the search starts where that cap reaches
    the target and moves up by Newton steps on the log of the largest
    term.  The N returned measured 1-15% above the least N that attains
    2^-prec, for prec from 96 to 1056 bits.
    """
    half = (prec * math.log(2) + math.log1p(1 / u)) / 2
    log_u = math.log(u)
    n = max(1, math.ceil(half * half / (4 * u)))
    while True:
        # the largest term sits where (k+1)^2 = u (n-k), near sqrt(n u)
        k = max(1, min(n, int((math.sqrt(u * u + 4 * u * (n + 1)) - u) / 2)))
        log_term = (
            math.lgamma(n + 1) - math.lgamma(n - k + 1) - 2 * math.lgamma(k + 1) + k * log_u
        )
        if log_term >= half:
            return n
        # d/dn log C(n,k) ~ log((n+1)/(n-k+1)) at fixed k
        n += max(1, math.ceil((half - log_term) / math.log((n + 1) / (n - k + 1))))


def gamma0(u, ctx: PrecisionContext) -> mpf:
    """Gamma(0,u) = int_u^inf e^-t / t dt for u > 0, with p the working
    precision ctx.precision_bits + GUARD_BITS.

    u <= 1: the entire-series form -log u - gamma - sum (-u)^n/(n*n!),
    truncated once terms fall below 2^-(precision_bits+32), summed on
    Python ints at scale 2^(p+8) (each term adds at most two units of
    2^-(p+8)).
    4 + p/15 <= u < 0.69 (p + 20): the even continued fraction
    e^{-u}/(u+1 - 1^2/(u+3 - 2^2/(u+5 - ...))) (DLMF 8.9.2), N levels
    from _cf_terms, run backward on Python ints at scale 2^(p+20).  Every
    tail T_k exceeds k + 1 (by induction down from T_{N-1} = u + 2N - 1),
    so each floor's error shrinks by (k/T_k)^2 < 1 per later step and
    T_0 > u carries at most N units of 2^-(p+20).
    Otherwise: mpmath's e1, in mpmath 1.3 a Taylor series with about 2u
    extra bits, or the asymptotic series from about 0.69 (p + 20) up.
    The window is where the fraction measured faster than e1 (pure-Python
    mpmath, 2-CPU VM): e1 wins below u = 10, 14, 21, 44, 57 and 74 at
    p = 96, 160, 288, 544, 800 and 1056; at u = 128 and p = 544 the
    fraction is about 6 times faster.  All branches agree at their
    boundaries to working precision.  The series and fraction results
    are assembled on raw mpf tuples, rounded as the mpf operators round.
    """
    with ctx.workprec():
        prec, rnd = mp.prec, round_nearest
        uv = mpf(u)
        if not uv > 0:
            raise DomainError("gamma0 requires u > 0")
        if uv <= 1:
            wp = prec + 8
            cutoff = 1 << (wp - ctx.precision_bits - GUARD_BITS)
            uf = to_fixed(uv._mpf_, wp)
            term = 1 << wp  # carries (-u)^n / n!
            total = n = 0
            while True:
                n += 1
                term = -(term * uf >> wp) // n
                piece = term // n
                total -= piece
                if abs(piece) < cutoff:
                    break
            head = mpf_sub(mpf_neg(mpf_log(uv._mpf_, prec, rnd), prec, rnd), mpf_euler(prec, rnd), prec, rnd)
            return mp.make_mpf(mpf_add(head, from_man_exp(total, -wp), prec, rnd))
        if 4 + prec / 15 <= uv < 0.69 * (prec + 20):
            wp = prec + 20
            uf = to_fixed(uv._mpf_, wp)
            one, square = 1 << wp, 1 << (2 * wp)
            n = _cf_terms(prec, float(uv))
            t = uf + (2 * n - 1) * one  # T_{n-1}, the last level
            for k in range(n - 1, 0, -1):
                t = uf + (2 * k - 1) * one - k * k * square // t  # T_{k-1}
            e = mpf_exp(mpf_neg(uv._mpf_, prec, rnd), prec, rnd)
            return mp.make_mpf(mpf_div(e, from_man_exp(t, -wp), prec, rnd))
        return +mp.e1(uv)


def log_gamma0_bound(y: float) -> float:
    """A float upper bound on ln Gamma(0,y), y > 0, from
    e^y Gamma(0,y) < ln(1 + 1/y) (DLMF 6.8.2); near -y - ln y for large y."""
    return math.log(math.log1p(1 / y)) - y


# ---------------------------------------------------------------------------
# Taylor factories
# ---------------------------------------------------------------------------

def loggamma_jet(x0, degree: int, ctx: PrecisionContext) -> Jet:
    """Jet of log Gamma at x0 > 0: coefficient k>=1 is psi^(k-1)(x0)/k!."""
    with ctx.workprec():
        x0v = to_mpf(x0)
        if not x0v > 0:
            raise DomainError("loggamma_jet requires x0 > 0")
        coeffs = [mp.loggamma(x0v)]
        fact = mpf(1)
        for k in range(1, degree + 1):
            fact *= k
            coeffs.append(mp.psi(k - 1, x0v) / fact)
        return Jet(x0v, coeffs)


def inv_gamma_taylor(degree: int, with_exp_gamma: bool, ctx: PrecisionContext) -> Jet:
    """Taylor jet at 0 of e^{-gamma x}/Gamma(x+1) (flag set) or 1/Gamma(x+1).

    Coefficient n is B_n(x_1, -1! zeta(2), 2! zeta(3), ...,
    (-1)^{n-1}(n-1)! zeta(n)) / n!, with x_1 = 0 or gamma by the flag.
    """
    if degree < 0:
        raise DomainError("inv_gamma_taylor requires degree >= 0")
    with ctx.workprec():
        # argument list x_j: x_1 = 0 or gamma, x_j = (-1)^{j-1} (j-1)! zeta(j)
        args = [mpf(0) if with_exp_gamma else euler_gamma(ctx)]
        for j in range(2, degree + 1):
            args.append(mpf(-1) ** (j - 1) * mp.factorial(j - 1) * zeta_value(j, ctx))
        coeffs = [bell_complete(n, args[:n]) / mp.factorial(n) for n in range(degree + 1)]
        return Jet(mpf(0), coeffs)
