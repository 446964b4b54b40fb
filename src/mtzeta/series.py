"""Direct evaluators: the harmonic multi-sum M_r, its integral analogue
I_r, the auxiliary series S_r with its coefficients T_{r,l}, and the
all-ones Euler-Zagier values.

These are the ground-truth side of every identity check.  Each evaluator
goes through a 1-D integral representation or a plain truncated sum with
a computed tail bound; nothing here shares code with the expansion
machinery it is later compared against, which tests/test_routes.py
checks for every default verify report.
"""

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (
    fone, from_int, from_man_exp, ftwo, fzero, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul,
    mpf_mul_int, mpf_neg, mpf_pos, mpf_pow, mpf_sub, round_nearest, to_fixed,
)

from .context import GUARD_BITS, MAX_RANK, MAX_TERMS, positive_x, to_mpf
from .errors import BudgetError, DomainError, QuadratureError
from .kernel import euler_gamma, gamma0, log_gamma0_bound, psi_derivs, zeta_value
from .jets import Jet
from .quadrature import de_quad_0inf

__all__ = [
    "WeightConfig",
    "i_integral",
    "m_integral",
    "s_series",
    "t_coeff",
    "zeta_ez_ones",
]


@dataclass(frozen=True)
class WeightConfig:
    """Weights (omega_1..omega_r) > 0 together with the shift a >= 0.

    Holds no derived values: total sums the weights at the caller's
    precision on every call.
    """

    omega: tuple
    a: mpf

    def __post_init__(self):
        omega = tuple(to_mpf(w) for w in self.omega)
        if not omega or any(not 0 < w < mp.inf for w in omega):
            raise DomainError("weights must be positive and finite")
        a = to_mpf(self.a)
        if not 0 <= a < mp.inf:
            raise DomainError("shift a must be nonnegative and finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "a", a)

    @property
    def r(self):
        return len(self.omega)

    @property
    def total(self):
        return sum(self.omega, mpf(0))


# ---------------------------------------------------------------------------
# integral analogue I_r
# ---------------------------------------------------------------------------

# log u at the working precision + 10 bits, as in mpmath's power, per
# precision_bits and u._mpf_, shared by every configuration
_log_u = {}


@functools.lru_cache(maxsize=1)
def _node_table(kind, omega, a):
    """{precision_bits: {u._mpf_: (F(u), log u)}}, the x-independent
    integrand factors per quadrature node as raw mpf tuples, for the
    latest (kind, omega, a) only.  DE nodes depend on the precision
    alone, so a sweep over x at fixed (omega, a) finds every node after
    the first x.  F is stored as one product, not as its r + 1 factors;
    _mellin_over_gamma keys (omega, ..., omega) at a = 0 as (omega,),
    whose F is the factor itself.  Entries are pure functions of their
    keys, so a stale read cannot change a value."""
    return {}


def _m_factor(y):
    """-log(1 - e^{-y}) for y > 0, to full relative accuracy at mp.prec.

    t = e^{-y} gets max(0, -mag y) + 26 extra bits, which 1 - t and its
    log keep while t >= 2^-16; for smaller t, t + t^2/2 + t^3/3 + ... is
    summed on Python ints.  Below y = 2^-prec (DE nodes reach 1e-700)
    1 - t = y(1 - y/2 + ...), the guard of mpmath's expm1.  Raw mpf
    tuples inside, rounded as the mpf operators round."""
    prec, rnd = mp.prec, round_nearest
    mag = mp.mag(y)
    y = y._mpf_
    if mag < -prec:
        log_y = mpf_log(y, prec, rnd)
        return mp.make_mpf(mpf_add(mpf_neg(log_y, prec, rnd), mpf_div(y, ftwo, prec, rnd), prec, rnd))
    wp = prec + max(0, -mag) + 26
    t = mpf_exp(mpf_neg(y, wp, rnd), wp, rnd)
    mag_t = t[2] + t[3]  # exponent + bit count, as mp.mag
    if mag_t > -16:
        z = mpf_sub(fone, t, wp, rnd)
        return mp.make_mpf(mpf_neg(mpf_log(z, prec, rnd), prec, rnd))
    scale = prec + 8 - mag_t
    tf = total = power = to_fixed(t, scale)
    k = 1
    while power:
        k += 1
        power = power * tf >> scale
        total += power // k
    return mp.make_mpf(from_man_exp(total, -scale))


def _mellin_over_gamma(kind, x, w, ctx):
    """(1/Gamma(x)) int_0^inf F(u) u^{x-1} du, F(u) = e^{-au} prod_i f_i(u)
    with f_i(u) = Gamma(0, omega_i u) for kind "I" and
    -log(1 - e^{-omega_i u}) for kind "M".  F comes from _node_table,
    computed and stored on a miss, one f_i per distinct weight; for
    (omega, ..., omega) at a = 0 the table is that of (omega,), and F is
    its entry multiplied by itself r - 1 times.  u^{x-1}
    is exp((x-1) log u) with an exact product, as mpmath's u ** (x-1)
    computes it, log u from _log_u, unless x - 1 is an integer or
    half-integer (exponent field >= -1), where mpmath's power takes
    another route and mpf_pow computes it.  The integrand runs on raw mpf
    tuples, rounded as the mpf operators round.  de_quad_0inf gets a
    float log_bound(u) >= ln(F(u) u^{x-1}): (x-1) ln u - au plus
    ln Gamma(0,y) < ln ln(1+1/y) - y (DLMF 6.8.2) or -log(1-e^{-y}) <=
    1/(e^y - 1) per weight y = omega_i u.  Raises QuadratureError where
    |int| < ctx.target_tol: the absolute stop then certifies no digit."""
    x = positive_x(x)
    omega = w.omega[:1] if not w.a and w.omega == w.omega[:1] * w.r else w.omega
    repeat = w.r - len(omega)
    table = _node_table(kind, omega, w.a).setdefault(ctx.precision_bits, {})
    logs = _log_u.setdefault(ctx.precision_bits, {})
    # one factor per distinct weight, multiplied into F in weight order
    distinct = tuple(dict.fromkeys(omega))
    slots = [distinct.index(om) for om in omega]
    with ctx.workprec():
        prec, rnd = mp.prec, round_nearest
        xm1 = (x - 1)._mpf_
        general = xm1[2] < -1
        log_prec = prec + 10
        neg_a = mpf_neg(w.a._mpf_, prec, rnd)

        def integrand(u):
            raw_u = u._mpf_
            factors = table.get(raw_u)
            if factors is None:
                log_u = logs.get(raw_u)
                if log_u is None:
                    log_u = logs[raw_u] = mpf_log(raw_u, log_prec, rnd)
                if kind == "I":
                    f = [gamma0(om * u, ctx)._mpf_ for om in distinct]
                else:
                    f = [_m_factor(om * u)._mpf_ for om in distinct]
                F = mpf_exp(mpf_mul(neg_a, raw_u, prec, rnd), prec, rnd)
                for i in slots:
                    F = mpf_mul(F, f[i], prec, rnd)
                factors = table[raw_u] = (F, log_u)
            F, log_u = factors
            for _ in range(repeat):
                F = mpf_mul(F, factors[0], prec, rnd)
            if general:
                power = mpf_exp(mpf_mul(xm1, log_u), prec, rnd)  # exact product
            else:
                power = mpf_pow(raw_u, xm1, prec, rnd)
            return mp.make_mpf(mpf_mul(F, power, prec, rnd))

        lead, shift, ys = float(x) - 1, float(w.a), [float(om) for om in w.omega]
        bound_i = log_gamma0_bound if kind == "I" else lambda y: -y - math.log(-math.expm1(-y))

        def log_bound(u):
            return lead * math.log(u) + (sum(bound_i(om * u) for om in ys) - shift * u)

        finite = all(0 < y < math.inf for y in ys)
        raw = de_quad_0inf(integrand, ctx, log_bound=log_bound if finite else None)
        if abs(raw) < ctx.target_tol:
            raise QuadratureError("|integral| < target_tol: the quadrature certifies no digit of it")
        return +(raw / mp.gamma(x))


def i_integral(x, w, ctx):
    """I_r via the 1-D representation

        (1/Gamma(x)) int_0^inf prod_i Gamma(0, omega_i u) e^{-au} u^{x-1} du,

    on de_quad_0inf's folded DE line.  The u -> 0 endpoint carries the
    integrable log^r u * u^{x-1} singularity.  As Gamma(0,y) ~ e^{-y}/y,
    the far tail dies like e^{-(a+|omega|)u}/prod_i(omega_i u) times
    u^{x-1}.  F(u) is kept per node across x (see _mellin_over_gamma)."""
    return _mellin_over_gamma("I", x, w, ctx)


# ---------------------------------------------------------------------------
# harmonic multi-sum M_r
# ---------------------------------------------------------------------------

def m_integral(x, w, ctx):
    """M_r via the 1-D representation

        ((-1)^r/Gamma(x)) int_0^inf prod_i log(1-e^{-omega_i t})
                                     e^{-at} t^{x-1} dt.

    Each factor -log(1 - e^{-omega t}) comes from _m_factor, with full
    relative accuracy as t -> 0 (factor ~ -log(omega t)) and for large t
    (factor ~ e^{-omega t}, summed as a series in it).  As for i_integral,
    the x-independent product is computed once per node and reused
    across x at fixed (omega, a) and precision."""
    return _mellin_over_gamma("M", x, w, ctx)


# ---------------------------------------------------------------------------
# auxiliary series S_r and its coefficients
# ---------------------------------------------------------------------------

def _degree_profile(omega, ctx, extra_log_powers):
    """Common truncation setup: rho = sum |omega_i|, a degree M where
    rho^m times the slowly varying factors is negligible, and the
    normalized per-degree composition sums

        E[m] = (m!/rho^m) sum_{k_1+...+k_r=m, k_i>=1} prod omega_i^{k_i}/(k_i k_i!)

    for m = 0..M as Python ints at scale 2^wp, wp = precision_bits +
    GUARD_BITS.  Returns (E, M, rho, wp).

    E is built one weight at a time.  With p = rho_a/(rho_a + |omega_b|)
    and q = 1 - p, rho_a the |omega| sum of the weights taken so far, the
    next profile is the binomial mixture

        E'[m] = sum_{k>=1} C(m,k) p^(m-k) q^k E[m-k] s^k/k,  s = sign omega_b,

    from E[k] = s^k/k for the first weight.  E[m] is a multinomial mean of
    prod_i s_i^{k_i}/k_i, so |E[m]| <= 1, and the weights C(m,k) p^(m-k) q^k
    are a probability row, kept by Pascal's rule with one floor per entry:
    an error already in E is not amplified, a row gathers at most m(m+1)/2
    units of 2^-wp, and |error of E[m]| <= r m^2 2^-wp."""
    omega = tuple(to_mpf(o) for o in omega)
    partial = []  # rho_a after each weight
    with ctx.workprec():
        rho = mpf(0)
        for o in omega:
            rho += abs(o)
            partial.append(rho)
    if not rho < 1:
        raise DomainError("series requires sum of |omega_i| < 1")
    r = len(omega)
    bits = ctx.precision_bits + 16
    wp = ctx.precision_bits + GUARD_BITS
    if rho == 0:
        return [], 0, rho, wp
    # rho^M below threshold, with slack for polynomial-log factors
    lg = -mp.log(rho, 2)
    M = int(bits / lg) + 8
    for _ in range(3):
        M = int((bits + (extra_log_powers + r) * mp.log(M + 2, 2)) / lg) + 8
    if M > MAX_TERMS:
        raise BudgetError("truncation degree exceeds max_terms; rho too close to 1")
    one = 1 << wp
    E = None
    for count, o in enumerate(omega):
        # s^k/k as floor divisions by +-k
        div = [1] + [-k if o < 0 and k % 2 else k for k in range(1, M + 1)]
        if E is None:
            E = [0] + [one // d for d in div[1:]]
            continue
        with ctx.workprec():
            q = to_fixed((abs(o) / partial[count])._mpf_, wp) if o else 0
        row = [one]
        nxt = [0] * (M + 1)
        for m in range(1, M + 1):
            row = [u + (q * (v - u) >> wp) for u, v in zip(row + [0], [0] + row)]  # p u + q v
            # k = 1..m-count: E[j] vanishes below j = count
            nxt[m] = sum(
                u * e // d for u, e, d in zip(row[1 : m - count + 1], E[m - 1 : count - 1 : -1], div[1:])
            ) >> wp
        E = nxt
    return E, M, rho, wp


def s_series(x, omega, ctx):
    """S_r(x, omega) = sum over k_i >= 1 of
    (x)_{k_1+...+k_r} prod omega_i^{k_i}/(k_i k_i!), grouped by total
    degree.  Negative omega_i are allowed; sum of |omega_i| < 1 is
    required, and x must be finite.  x may be a Jet, in which case a
    truncated Taylor expansion of the same degree comes back.

    With E from _degree_profile, S = x sum_m c_m E[m] where
    c_m = rho^m (x+1)_{m-1}/m! = c_{m-1} rho (x+m-1)/m.  Factoring out x
    keeps the relative accuracy at tiny x.  c_m is a Python int at scale
    2^wp (for a Jet, an int vector of its Taylor coefficients), advanced
    with three floors per step; its error stays near 3/(1-rho) units of
    2^-wp once rho (x+m-1)/m < 1, and grows with c_m before that.  The sum
    is carried at scale 2^(2wp) and rounded once to wp bits.  Weighted by
    c_m, the r m^2 2^-wp error of E[m] adds about 2r/(1-rho)^3 units of
    2^-wp for x <= 1 and r (1+x)/(1-rho)^(x+2) above, so the error stays
    many bits below 2^-precision_bits max(1, |S|) unless rho is near 1."""
    xs = x.coeffs if isinstance(x, Jet) else (to_mpf(x),)
    if not all(mp.isfinite(c) for c in xs):
        raise DomainError("x must be finite")
    # Taylor coefficient D of c_m carries up to D powers of log m
    E, M, rho, wp = _degree_profile(omega, ctx, extra_log_powers=max(2, len(xs) - 1))
    one = 1 << wp
    with ctx.workprec():
        R = to_fixed(rho._mpf_, wp)
        base = to_fixed(xs[0]._mpf_, wp) - one  # x0 - 1
        # rho times the higher Taylor coefficients of x
        slope = [(j, R * to_fixed(c._mpf_, wp) >> wp) for j, c in enumerate(xs) if j and c]
    c = [R] + [0] * (len(xs) - 1)  # c_1 = rho
    acc = [0] * len(xs)
    for m in range(1, M + 1):
        if m > 1:
            lead = R * (base + m * one) >> wp  # rho (x0 + m - 1)
            c = [
                (c[n] * lead + sum(c[n - j] * sj for j, sj in slope if j <= n) >> wp) // m
                for n in range(len(c))
            ]
        e = E[m]
        if e:
            for n, cn in enumerate(c):
                acc[n] += cn * e
    with ctx.workprec():
        T = [mp.ldexp(a, -2 * wp) for a in acc]
        S = [mp.fsum(xs[k] * T[n - k] for k in range(n + 1)) for n in range(len(xs))]
        return Jet(x.center, S) if isinstance(x, Jet) else S[0]


def t_coeff(r, l, omega, ctx):
    """Coefficient of x^l in S_r: coefficient l of s_series at the jet
    x = 0 + xi of degree l."""
    r, l = int(r), int(l)
    if r < 1 or l < 1:
        raise DomainError("r and l must be positive")
    if r != len(omega):
        raise DomainError("rank must match the number of weights")
    return s_series(Jet.variable(0, l), omega, ctx).coeffs[l]


# ---------------------------------------------------------------------------
# all-ones Euler-Zagier values
# ---------------------------------------------------------------------------

def _fsum(terms):
    """Sum of raw mpf tuples in order, each addition rounded as mpf + rounds."""
    prec, rnd = mp.prec, round_nearest
    terms = iter(terms)
    acc = next(terms)
    for term in terms:
        acc = mpf_add(acc, term, prec, rnd)
    return acc


def _leibniz(a, b, j):
    """(ab)^(j) from the derivative arrays of a and b by Leibniz's rule,
    C(j,l) a_l rounded first as int * mpf rounds, summed in the order of l."""
    prec, rnd = mp.prec, round_nearest
    total = mpf_mul(a[0], b[j], prec, rnd)
    for l in range(1, j + 1):
        a_l = a[l] if l == j else mpf_mul_int(a[l], math.comb(j, l), prec, rnd)
        total = mpf_add(total, mpf_mul(a_l, b[j - l], prec, rnd), prec, rnd)
    return total


def _chain_derivs(r, P, count, gamma, z):
    """Derivatives 0..count of the inner-chain weight g_{r-1} = e_{r-1} at
    real t from P = psi_derivs at t, by Newton's identity
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i over the power sums
    p_1 = psi + gamma and p_i = zeta(i) - (-1)^i psi^(i-1)/(i-1)!, the
    H^(i)_{t-1} of integer t, on derivative arrays of raw mpf tuples
    multiplied by _leibniz.  (-1)^(i-1) p_i is the constant z[i-2]
    (i >= 2) plus the array q[i-1]; z_i e_{k-i} is added before
    e_{k-i} q_i, in the order of i, and e_0 = 1 enters exactly."""
    prec, rnd = mp.prec, round_nearest
    q = [[mpf_add(P[0], gamma, prec, rnd)] + P[1 : count + 1]] if r > 1 else []
    for i in range(2, r):
        q.append([mpf_div(v, from_int(math.factorial(i - 1)), prec, rnd) for v in P[i - 1 : i + count]])
    e = [[fone] + [fzero] * count]
    for k in range(1, r):
        parts = []
        for i in range(1, k + 1):
            if i > 1:
                parts.append([mpf_mul(z[i - 2], v, prec, rnd) for v in e[k - i]])
            parts.append(q[i - 1] if i == k else [_leibniz(e[k - i], q[i - 1], j) for j in range(count + 1)])
        k_raw = from_int(k)
        e.append([mpf_div(_fsum(col), k_raw, prec, rnd) for col in zip(*parts)] if k > 1 else parts[0])
    return e[r - 1]


def zeta_ez_ones(r, x, ctx):
    """zeta_EZ,r(1,...,1,x+1): the nested sum

        sum_{m_1<...<m_r} 1/(m_1 ... m_{r-1} m_r^{1+x}),

    folded to a single sum over m_r whose inner chains sum to g_{r-1}, the
    elementary symmetric function of 1/m over m < m_r: a direct part to N
    by e_k(n+1) = e_k(n) + e_(k-1)(n)/n, and an Euler-Maclaurin tail whose
    derivatives are exact polygamma sums by Newton's identity.  The
    number of Bernoulli terms follows the precision, so N = 1200 closes
    from 64 to 1024 bits at depths 1..MAX_RANK; N doubles only when an
    attempt does not close.  A call at the x and precision of the previous
    one reuses its powers n^(-1-x) and tail polygammas."""
    x = positive_x(x)
    r = int(r)
    if not 1 <= r <= MAX_RANK:
        raise (DomainError if r < 1 else BudgetError)("depth must lie in 1..%d" % MAX_RANK)
    with ctx.workprec():
        thresh = mpf(2) ** (-(ctx.precision_bits + 8))
        N = 1200
        while True:
            val = _zeta_ez_attempt(r, x, N, ctx, thresh)
            if val is not None:
                return +val
            N *= 2
            if N > MAX_TERMS:
                raise BudgetError("Euler-Maclaurin tail failed to close")


def _smallest_prime_factors(N):
    """spf[n] for 2 <= n < N: the smallest prime factor of n."""
    spf = list(range(N))
    for p in range(2, math.isqrt(N - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, N, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


@functools.lru_cache(maxsize=1)
def _x_tables(prec, N, raw_x):
    """n^-(1+x) for n < N, and an empty dict for the polygamma lists
    [psi, psi', ...] at the tail's mp.quad nodes, keyed by u._mpf_, for
    the latest (prec, N, x) only: verify mzf evaluates r = 1, 2, 3 at one
    x in a row.  Entries are pure functions of their keys; a depth that
    needs more orders than a node holds recomputes that node's list.
    n^-s is completely multiplicative, so only primes take a power and
    n = p m with p its smallest prime factor costs one product."""
    spf, inv_pow, rnd = _smallest_prime_factors(N), [None, fone], round_nearest
    with mp.workprec(prec):
        neg_s = -1 - mp.make_mpf(raw_x)
        for n in range(2, N):
            p = spf[n]
            inv_pow.append((mpf(n) ** neg_s)._mpf_ if p == n else mpf_mul(inv_pow[p], inv_pow[n // p], prec, rnd))
    return inv_pow, {}


def _zeta_ez_attempt(r, x, N, ctx, thresh):
    """zeta_ez_ones with cutoff N, or None when the Euler-Maclaurin
    Bernoulli terms turn, or do not fall below thresh max(1, |direct part|)
    within the K of them that a bound from the precision, N and s allows.
    They are summed right after the O(r)-per-n direct part, so an attempt
    that does not close never pays for the tail integral; that integral
    runs through mp.quad on (0, 1) after the substitution t = N u^(-1/x)."""
    gamma = euler_gamma(ctx)._mpf_
    z = [(mpf_pos if i % 2 else mpf_neg)(zeta_value(i, ctx)._mpf_) for i in range(2, r)]
    prec, rnd = mp.prec, round_nearest
    inv_pow, psis = _x_tables(prec, N, x._mpf_)
    # direct part over m_r = n < N: g[k] = e_k(1, 1/2, ..., 1/(n-1)), moved
    # to n + 1 by e_k += e_(k-1)/n from k = r - 1 down, every term positive
    total, g = fzero, [fone] + [fzero] * (r - 1)
    for n in range(1, N):
        total = mpf_add(total, mpf_mul(g[r - 1], inv_pow[n], prec, rnd), prec, rnd)
        n_raw = from_int(n)
        for k in range(r - 1, 0, -1):
            g[k] = mpf_add(g[k], mpf_div(g[k - 1], n_raw, prec, rnd), prec, rnd)
    total = mp.make_mpf(total)

    # tail from n = N on: int_N^inf f + f(N)/2 - sum_k B_2k/(2k)! f^(2k-1)(N)
    # for f(t) = g_{r-1}(t) t^-s; the Bernoulli terms decide whether the
    # attempt closes, so they come first and the integral only after
    Nv = mpf(N)
    log_N = mp.log(Nv)
    s = 1 + x
    # the cap K on the Bernoulli terms, a priori only: the loop below checks
    # that they close.  For t >= N >= 1200, 0 < psi(t) + gamma < log t + 1,
    # |psi^(j)(t)| < 1.1 (j-1)! t^-j and C(m,j) (j-1)! (s)_(m-j) <= (s)_m, so
    # Leibniz's rule over the r - 1 power-sum factors of each monomial of
    # g_{r-1} gives |f^(m)(N)| <= (m+1)^(r-1) L |pw[m]|, L = (log N + 2)^(r-1),
    # on the power-law derivative ladder pw[l] = d^l t^{-s} at N = (-1)^l (s)_l N^{-s-l}.
    # As |B_2k|/(2k)! < 4 (2 pi)^-2k, term k is below
    # b_k = 4 (2 pi)^-2k (2k)^(r-1) L |pw[2k-1]|; K is the first k with
    # b_k <= thresh, or the first where b_k stops falling
    pw = [Nv ** -s]
    L = (log_N + 2) ** (r - 1)
    two_pi_sq = (2 * mp.pi) ** 2
    K, prev = 0, mp.inf
    while True:
        K += 1
        while len(pw) < 2 * K:
            pw.append(pw[-1] * -(s + len(pw) - 1) / Nv)
        b = 4 * (2 * K) ** (r - 1) * L * abs(pw[-1]) / two_pi_sq ** K
        if b <= thresh or b >= prev:
            break
        prev = b
    P = psi_derivs(Nv, log_N, 2 * K + r - 3) if r > 1 else None
    # f^(m)(N) = _leibniz(g, pw, m)
    g, pw = _chain_derivs(r, P, 2 * K - 1, gamma, z), [v._mpf_ for v in pw]
    bernoulli, prev_mag = mpf(0), mp.inf
    for k in range(1, K + 1):
        term = mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.make_mpf(_leibniz(g, pw, 2 * k - 1))
        bernoulli += term
        mag = abs(term)
        if mag <= thresh * max(1, abs(total)):
            break
        if mag > prev_mag:
            return None  # asymptotic series turned; need larger N
        prev_mag = mag
    else:
        return None

    integral = Nv ** -x / x
    if r > 1:
        # the raw integrand decays like t^{-1-x}, which defeats any
        # quadrature as x -> 0; t = N u^(-1/x) is exact and leaves
        # int_0^1 g_{r-1}(t) du, whose decay is the end u = 0, uniformly
        # stable in x; log t = log N + v/x with v = -log u.  A node needs
        # psi^(j) up to j = r - 2 and keeps psi' at least
        def integrand(u):
            if len(psis.get(u._mpf_, ())) < max(2, r - 1):
                y = -mp.log(u) / x
                psis[u._mpf_] = psi_derivs(Nv * mp.exp(y), log_N + y, max(1, r - 2))
            return mp.make_mpf(_chain_derivs(r, psis[u._mpf_], 0, gamma, z)[0])

        integral *= mp.quad(integrand, [0, 1])
    return total + (integral + mp.make_mpf(_leibniz(g, pw, 0)) / 2 - bernoulli)
