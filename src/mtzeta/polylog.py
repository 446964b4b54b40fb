"""Multiple polylogarithms: multi-variable, one-variable, and the
Hurwitz-shifted variants with denominators (n_i + x)^{k_i}.

All sums run over strictly increasing integer tuples.  They are computed
as depth-many coupled 1-D accumulations: with P_0 = 1 identically and

    P_i(n) = P_i(n-1) + z_i^n / (n + shift)^{k_i} * P_{i-1}(n-1),

P_depth(N) is the nested sum truncated at outer index N.  Updating the
stages in decreasing i per n keeps the strict n_{i-1} < n_i coupling
without materializing prefix arrays.

One pass over n sums every index that shares an argument tuple: stage i
depends on k_1..k_i only, so the stages form a trie of prefixes, each
z_i^n is advanced once and siblings share their parent's product.  Each
index is read at its own term count, so no value depends on its group;
c_coeff groups its sums through prefetched().

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
# telescoping ratios over and over.  Keyed on exact argument bits.
_CACHE = {}
_CACHE_CAP = 8192


def _sum_with_cache(ks, zs, shift, n_start, ctx):
    key = (ks, zs, shift, n_start, ctx.precision_bits)
    if key not in _CACHE:
        _prefetch([key], ctx)
    return _CACHE[key]


def _prefetch(keys, ctx):
    """Cache the sum at each (ks, zs, shift, n_start, bits) of keys that
    the cache lacks, in one pass over n per zs (and, shifted, per max(ks),
    which sets the scale)."""
    groups = {}
    for key in keys:
        if key not in _CACHE:
            ks, zs, shift, n_start, _ = key
            groups.setdefault((zs, shift, n_start, max(ks) if shift else 0), {})[ks] = None
    for (zs, shift, n_start, _), kss in groups.items():
        for ks, val in _nested_sums(kss, zs, shift, n_start, ctx).items():
            if len(_CACHE) >= _CACHE_CAP:
                _CACHE.pop(next(iter(_CACHE)))
            _CACHE[(ks, zs, shift, n_start, ctx.precision_bits)] = val


def prefetched(terms, ctx):
    """Yield each (coefficient, [PolylogArgs, ...]) of terms once mpl is
    cached at all its PolylogArgs, in chunks of at most _CACHE_CAP
    arguments so that no prefetched value is evicted before it is read."""
    per = max(1, _CACHE_CAP // max([1] + [len(ps) for _, ps in terms]))
    for i in range(0, len(terms), per):
        chunk = terms[i:i + per]
        _prefetch([(p.index.parts, p.args, mpf(0), 1, ctx.precision_bits)
                   for _, ps in chunk for p in ps], ctx)
        yield from chunk


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
        # T <= 2^-bits iff log b(N+1) - log((1 + c)/(s-1)!) <= goal
        goals = {ks: math.log(d / 2) - ctx.precision_bits * math.log(2) + math.lgamma(s)
                 - (float(mp.log1p((s - 1) * shift ** -ks[0])) if n_start == 0 else 0)
                 for ks in kss}
    # b(n+1) <= b(n) (1 + rho)/2 from n = (s - 1)/log((1 + rho)/(2 rho)) on
    first = max(n_start, math.ceil((s - 1) / (math.log1p(-d / 2) - lr)) - 1)
    out = {}
    for ks, goal in goals.items():
        ok = lambda N: ((N + 1) * lr + (s - 1) * math.log1p(math.log(N + 1))
                        - ks[-1] * math.log(N + 1) <= goal)
        hi = first
        while not ok(hi):  # gallop to an N that passes, then bisect
            hi = 2 * hi + 1
        out[ks] = N = first + bisect_left(range(first, hi), True, key=ok)
        if N > MAX_TERMS:
            raise BudgetError("nested sum did not close: it needs N = %d terms, over "
                              "max_terms = %d (rho=%s)" % (N, MAX_TERMS, mp.nstr(rho, 6)))
    return out


def _nested_sums(kss, zs, shift, n_start, ctx):
    """{ks: sum} for every index tuple ks in kss, in one pass over n.
    n_start is the first value of the innermost counter; starting at 0
    realizes the z_1^0 = 1 convention (0^0 = 1 included) for the shifted
    sums.  Shifted sums scale with max(ks), which one call's must share."""
    s = len(zs)
    wp = ctx.precision_bits + GUARD_BITS
    ends = {}  # N: the indices read after outer index N
    for ks, N in _term_counts(kss, zs, shift, n_start, ctx).items():
        ends.setdefault(N, []).append(ks)
    with ctx.workprec():
        zf = list(enumerate(to_fixed(z._mpf_, wp) for z in zs))
        powers = [to_fixed((z ** n_start)._mpf_, wp) for z in zs]  # 0^0 = 1
        # (n + shift)^k >= min(1, shift)^k: sh extra bits keep the
        # denominator's relative error near 2^-wp at small shift
        sh = wp + max(map(max, kss)) * max(0, 1 - mp.mag(shift)) if shift else 0
        xf = to_fixed(shift._mpf_, sh) if shift else 0
    # node[prefix] indexes P, the stage sums; stages has (power index,
    # parent, j, node), stage s first.  A later sibling has parent -1: it
    # divides the previous quotient by n^(k - k_prev), or, shifted, the
    # shared product by (n + shift)^k
    node = {p: c for c, p in enumerate(sorted({ks[:i] for ks in kss for i in range(s + 1)}))}
    P = [1 << wp] + [0] * (len(node) - 1)
    stages = []
    for i in range(s, 0, -1):
        prefixes = sorted({ks[:i] for ks in kss})
        for a, b in zip([None] + prefixes, prefixes):
            sibling = a is not None and a[:-1] == b[:-1]
            j = b[-1] - a[-1] if sibling and not sh else b[-1]
            stages.append((i - 1, -1 if sibling else node[b[:-1]], j, node[b]))
    done = {}
    for n in range(n_start, max(ends) + 1):
        if sh:
            base = (n << sh) + xf
        # a stage adds exact zeros before n >= n_start + i - 1 (its
        # parent is still 0) and once its power is 0, so it always runs
        for i, parent, j, c in stages:
            if parent >= 0:
                # P_0 = 2^wp, so stage 1 needs no product
                y = powers[i] * P[parent] << sh >> wp if parent else powers[i] << sh
            if sh:
                q = y // ((base ** j) >> ((j - 1) * sh))
            else:
                q = y = y // n ** j
            P[c] += q
        for ks in ends.get(n, ()):
            done[ks] = P[node[ks]]
        for i, z in zf:
            powers[i] = powers[i] * z >> wp
    with ctx.workprec():
        return {ks: mp.ldexp(v, -wp) for ks, v in done.items()}


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
