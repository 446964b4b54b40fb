"""Multiple polylogarithms: multi-variable, one-variable, and the
Hurwitz-shifted variants with denominators (n_i + x)^{k_i}.

All sums run over strictly increasing integer tuples.  They are computed
as depth-many coupled 1-D accumulations: with P_0 = 1 identically and

    P_i(n) = P_i(n-1) + z_i^n / (n + shift)^{k_i} * P_{i-1}(n-1),

P_depth(N) is the nested sum truncated at outer index N.  Updating the
stages in decreasing i per n keeps the strict n_{i-1} < n_i coupling
without materializing prefix arrays.

One pass sums every index a prefetch asks for.  Indices sharing an
argument tuple (and, shifted, max(ks), which sets the scale) form a group
whose stages are a trie of prefixes, stage i depending on k_1..k_i only,
so siblings share their parent's product.  Each (z, n_start) has one
power sequence, advanced once per n for every group; n runs in blocks of
_BLOCK, each trie node's terms one list comprehension per block.  Each
index is read at its own term count, so no value depends on what else
the prefetch holds; c_{r,m} sends all its sums through prefetched().

Truncation is decided before the first term.  Let rho = max over i of
|z_i ... z_s| < 1.  As prod z_i^{n_i} = prod_i (z_i ... z_s)^{n_i - n_{i-1}}
(n_0 = 0), the term at outer index n is at most rho^n / n^{k_s} times
the sum of prod 1/n_i over n_1 < ... < n_{s-1} < n, at most L^{s-1}/(s-1)!
with L = 1 + ln n; n_1 = 0 adds x^{-k_1} L^{s-2}/(s-2)!.  So the term is
at most b(n) = rho^n L^{s-1} (1 + c) / ((s-1)! n^{k_s}), c = (s-1) x^{-k_1}
from n_1 = 0, else 0.  Where (s-1)/n <= ln((1 + rho)/(2 rho)), b(n+1) <=
b(n) (1 + rho)/2, so the tail after N is T <= 2 b(N+1)/(1 - rho).  Each
index runs to the least N >= n_start with N + 1 in that range and
T <= 2^-precision_bits, found by doubling and bisection.  When some N
exceeds MAX_TERMS, or 1 - rho < 2^-50, BudgetError comes first.

The loop runs in fixed point: the arguments z_i, the powers z_i^n and
the stage sums P_i are Python ints scaled by 2^wp, wp = precision_bits
+ GUARD_BITS (the bits ctx.workprec() gives mpf code).  Ints are
truncated (floored) to a unit of 2^-wp in three places only: when an
argument is converted, when a power is advanced (z^n * z >> wp), and
when a term is formed (power * P_{i-1} >> wp, then floor division by
the denominator).  P_0 = 2^wp, so stage 1's term needs no product.
Unshifted sums divide by the exact integer n^k, and a sibling divides
the previous one's quotient by n^(k - k_prev), which is exact:
floor(floor(y/a)/b) = floor(y/(ab)).  Shifted sums divide by (n + x)^k
held at scale 2^(wp + g), with g = k_max * max(0, 1 - mag(x)) extra
bits; x and the power are floored at that finer scale, so the
denominator keeps a relative error near 2^-wp even where x^k is tiny.
Only P_depth is converted back to mpf, rounded to wp bits.  Every term
adds at most a few units of 2^-wp times max(1, |P_{i-1}|) and a power's
error decays with the power, so the error grows about as
N * 2^-wp * max(1, |value|) over N terms; with N below MAX_TERMS
(500,000 < 2^19) that stays under 2^(-13-bits) max(1, |value|),
beside the 2^-bits of the tail.
"""

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

import math
from bisect import bisect_left
from itertools import accumulate
from dataclasses import dataclass, field

from .context import GUARD_BITS, MAX_TERMS, positive_x, to_mpf
from .errors import BudgetError, DomainError

__all__ = [
    "MultiIndex",
    "PolylogArgs",
    "mpl",
    "mpl_one_var",
    "hurwitz_li0",
    "hurwitz_li1",
]


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple (k_1,...,k_s), all parts >= 1."""

    parts: tuple
    depth: int = field(init=False)

    def __post_init__(self):
        parts = tuple(int(k) for k in self.parts)
        if not parts or any(k < 1 for k in parts):
            raise DomainError("index parts must be positive integers")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "depth", len(parts))


@dataclass(frozen=True)
class PolylogArgs:
    """Index plus one real argument per index entry, each |z_i| < 1."""

    index: MultiIndex
    args: tuple

    def __post_init__(self):
        if not isinstance(self.index, MultiIndex):
            object.__setattr__(self, "index", MultiIndex(tuple(self.index)))
        args = tuple(to_mpf(z) for z in self.args)
        if len(args) != self.index.depth:
            raise DomainError("index and argument lengths differ")
        if any(not -1 < z < 1 for z in args):  # exact, unlike abs(z)
            raise DomainError("arguments must satisfy |z| < 1")
        object.__setattr__(self, "args", args)


# value cache: the expansion coefficients evaluate polylogs of the same
# telescoping ratios over and over.  Keyed on exact argument bits; the
# cap is above the c_{r,m} term budget, so a coefficient's prefetch fits
_CACHE = {}
_CACHE_CAP = 16384


def _sum_with_cache(ks, zs, shift, n_start, ctx):
    key = (ks, zs, shift, n_start, ctx.precision_bits)
    if key not in _CACHE:
        _prefetch([key], ctx)
    return _CACHE[key]


def _prefetch(keys, ctx):
    """Cache the sum at each (ks, zs, shift, n_start, bits) of keys that
    the cache lacks, all from one _nested_sums pass."""
    todo = {key[:4]: None for key in keys if key not in _CACHE}
    for key, val in _nested_sums(todo, ctx).items():
        if len(_CACHE) >= _CACHE_CAP:
            _CACHE.pop(next(iter(_CACHE)))
        _CACHE[key + (ctx.precision_bits,)] = val


def prefetched(terms, ctx):
    """terms, each (coefficient, [PolylogArgs, ...]), once one prefetch
    has cached mpl at all their PolylogArgs.  No value is evicted before
    it is read while they number at most _CACHE_CAP; past it, mpl sums an
    evicted value again."""
    _prefetch([(p.index.parts, p.args, mpf(0), 1, ctx.precision_bits)
               for _, ps in terms for p in ps], ctx)
    return terms


def _term_counts(kss, zs, shift, n_start, ctx):
    """{ks: N}: the least N >= n_start, with b decreasing from N + 1 on,
    whose tail bound T (module docstring) is at most 2^-precision_bits;
    BudgetError, naming N, if N > MAX_TERMS."""
    s = len(zs)
    with ctx.workprec():
        rho = max(abs(mp.fprod(zs[i:])) for i in range(s))
        d = float(1 - rho)
        if d < 2.0 ** -50:  # over 2^55 terms, and beyond float logs
            raise BudgetError("nested sum did not close: 1 - rho = %.3g < 2^-50" % d)
        lr = float(mp.log(rho))  # -inf at rho = 0, where every N passes
        # T <= 2^-bits iff log b(N+1) - log((1 + c)/(s-1)!) <= goal; N
        # depends on k_s and, from n_1 = 0, on k_1 only
        ends = {ks: (ks[0] if n_start == 0 else 0, ks[-1]) for ks in kss}
        goals = {e: math.log(d / 2) - ctx.precision_bits * math.log(2) + math.lgamma(s)
                 - (float(mp.log1p((s - 1) * shift ** -e[0])) if n_start == 0 else 0)
                 for e in ends.values()}
    # b(n+1) <= b(n) (1 + rho)/2 from n = (s - 1)/log((1 + rho)/(2 rho)) on
    first = max(n_start, math.ceil((s - 1) / (math.log1p(-d / 2) - lr)) - 1)
    counts = {}
    for e, goal in goals.items():
        ok = lambda N: ((N + 1) * lr + (s - 1) * math.log1p(math.log(N + 1))
                        - e[1] * math.log(N + 1) <= goal)
        hi = first
        while not ok(hi):  # gallop to an N that passes, then bisect
            hi = 2 * hi + 1
        counts[e] = N = first + bisect_left(range(first, hi), True, key=ok)
        if N > MAX_TERMS:
            raise BudgetError("nested sum did not close: it needs N = %d terms, over "
                              "max_terms = %d (rho=%s)" % (N, MAX_TERMS, mp.nstr(rho, 6)))
    return {ks: counts[e] for ks, e in ends.items()}


# outer indices per block of the pass: enough to run each trie node as
# one list comprehension, few enough to keep the block's lists small
_BLOCK = 64


def _nested_sums(keys, ctx):
    """{(ks, zs, shift, n_start): sum} for every key, in one pass over n.
    n_start is the first value of the innermost counter; starting at 0
    realizes the z_1^0 = 1 convention (0^0 = 1 included) for the shifted
    sums.  A shifted sum's scale follows max(ks), so keys group by it."""
    wp = ctx.precision_bits + GUARD_BITS
    groups = {}
    for ks, zs, shift, n_start in keys:
        groups.setdefault((zs, shift, n_start, max(ks) if shift else 0), []).append(ks)
    counts = [_term_counts(kss, *g[:3], ctx) for g, kss in groups.items()]
    # a run is one group's (n_start, end, sh, xf, stages, P, reads); a
    # power is [z, z^n, end, z^n over the block], one per (z, n_start)
    runs, powers = [], {}
    with ctx.workprec():
        for ((zs, shift, n_start, kmax), kss), ends in zip(groups.items(), counts):
            end = max(ends.values()) + 1
            for z in zs:  # z^0 = 1, 0^0 included
                power = powers.setdefault((z, n_start), [to_fixed(z._mpf_, wp),
                                                         to_fixed((z ** n_start)._mpf_, wp), 0, None])
                power[2] = max(power[2], end)
            # (n + shift)^k >= min(1, shift)^k: sh extra bits keep the
            # denominator's relative error near 2^-wp at small shift
            sh = wp + kmax * max(0, 1 - mp.mag(shift)) if shift else 0
            xf = to_fixed(shift._mpf_, sh) if shift else 0
            # node[prefix] indexes P, the stage sums; stages has (power,
            # parent, j, node), stage 1 first.  A later sibling has
            # parent -1: it divides the previous quotient by n^(k - k_prev),
            # or, shifted, the shared product by (n + shift)^k
            node = {p: c for c, p in enumerate(sorted({ks[:i] for ks in kss for i in range(len(zs) + 1)}))}
            stages = []
            for i in range(1, len(zs) + 1):
                prefixes = sorted({ks[:i] for ks in kss})
                for a, b in zip([None] + prefixes, prefixes):
                    sibling = a is not None and a[:-1] == b[:-1]
                    j = b[-1] - a[-1] if sibling and not sh else b[-1]
                    stages.append((powers[zs[i - 1], n_start], -1 if sibling else node[b[:-1]], j,
                                   node[b]))
            reads = {node[ks]: ((ks, zs, shift, n_start), N) for ks, N in ends.items()}
            runs.append((n_start, end, sh, xf, stages, [1 << wp] + [0] * (len(node) - 1), reads))
    done = []
    for n0 in range(min((r[0] for r in runs), default=0), max((r[1] for r in runs), default=0), _BLOCK):
        for power in powers.values():
            power[3] = None  # made at its first read, from n = max(n0, n_start)
        dens = {}  # (lo, j): n^j from n = lo, read by every unshifted run
        for n_start, end, sh, xf, stages, P, reads in runs:
            lo, hi = max(n0, n_start), min(n0 + _BLOCK, end)
            if lo >= hi:
                continue
            if sh:
                bases = [(n << sh) + xf for n in range(lo, hi)]
            den, prev = {} if sh else dens, {}
            # a stage adds exact zeros before n >= n_start + i - 1 (its
            # parent is still 0) and once its power is 0, so it always runs
            for power, parent, j, c in stages:
                zf, p, stop, pw = power
                if pw is None:
                    power[3] = pw = [p]
                    for _ in range(lo + 1, min(n0 + _BLOCK, stop)):
                        p = p * zf >> wp
                        pw.append(p)
                    power[1] = p * zf >> wp
                if parent > 0:
                    y = [p * v << sh >> wp for p, v in zip(pw, prev[parent])]
                elif parent == 0:  # P_0 = 2^wp, so stage 1 needs no product
                    y = [p << sh for p in pw[:hi - lo]] if sh else pw[:hi - lo]
                if (lo, j) not in den:
                    den[lo, j] = ([(b ** j) >> ((j - 1) * sh) for b in bases] if sh
                                  else [n ** j for n in range(lo, n0 + _BLOCK)])
                q = [v // d for v, d in zip(y, den[lo, j])]
                if not sh:
                    y = q
                if c in reads:  # a leaf: only its sum at N is read
                    key, N = reads[c]
                    if lo <= N < hi:
                        done.append((key, P[c] + sum(q[:N - lo + 1])))
                    P[c] += sum(q)
                else:  # P(n - 1) for each n of the block, read by children
                    prev[c] = list(accumulate(q, initial=P[c]))
                    P[c] = prev[c].pop()
    with ctx.workprec():
        return {key: mp.ldexp(v, -wp) for key, v in done}


def mpl(p, ctx):
    """Multi-variable multiple polylogarithm of p.index at p.args.

    Any zero argument forces the value 0: the i-th factor is z_i^{n_i}
    with n_i >= i >= 1.
    """
    return _sum_with_cache(p.index.parts, p.args, mpf(0), 1, ctx)


def mpl_one_var(index, z, ctx):
    """One-variable multiple polylogarithm: all arguments 1 except the
    last, which is z with |z| < 1.  Inner arguments equal to 1 are safe
    here because the final variable alone controls the tail."""
    index = index if isinstance(index, MultiIndex) else MultiIndex(tuple(index))
    z = to_mpf(z)
    if not -1 < z < 1:
        raise DomainError("mpl_one_var needs |z| < 1")
    zs = (mpf(1),) * (index.depth - 1) + (z,)
    return _sum_with_cache(index.parts, zs, mpf(0), 1, ctx)


def hurwitz_li0(x, p, ctx):
    """Hurwitz-type sum over 0 <= n_1 < ... < n_s with denominators
    (n_i + x)^{k_i}; z_1^{n_1} is 1 at n_1 = 0 even for z_1 = 0."""
    return _sum_with_cache(p.index.parts, p.args, positive_x(x), 0, ctx)


def hurwitz_li1(x, p, ctx):
    """Hurwitz-type sum over 1 <= n_1 < ... < n_s with denominators
    (n_i + x)^{k_i}."""
    return _sum_with_cache(p.index.parts, p.args, positive_x(x), 1, ctx)
