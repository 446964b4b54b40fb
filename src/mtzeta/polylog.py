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
index stops where it would alone, so no value depends on its group;
c_coeff groups its sums through prefetched().

Truncation is adaptive.  The outermost increments decay geometrically
with ratio rho = max over suffixes of prod_{j>=i} |z_j| (inner stages
contribute slowly varying polynomial-log factors only), so the tail
after n is bounded by a small multiple of t_n rho/(1-rho).  We stop
when that bound drops below the working threshold twice in a row and
raise BudgetError if ctx.max_terms runs out first, which only happens
for rho very close to 1; the telescoping ratios stay well clear.

The loop runs in fixed point: the arguments z_i, the powers z_i^n, the
stage sums P_i, the tail factor and the threshold are Python ints scaled
by 2^wp, wp = precision_bits + GUARD_BITS (the bits ctx.workprec() gives
mpf code).  Ints are truncated (floored) to a unit of 2^-wp in three
places only: when an argument is converted, when a power is advanced
(z^n * z >> wp), and when a term is formed (power * P_{i-1} >> wp, then
floor division by the denominator).  P_0 = 2^wp, so stage 1's term
needs no product.  Unshifted sums divide by the exact integer n^k, and
a sibling divides the previous one's quotient by n^(k - k_prev), which
is exact: floor(floor(y/a)/b) = floor(y/(ab)).  Shifted sums divide by
(n + x)^k held at scale 2^(wp + g), with g = k_max * max(0, 1 - mag(x))
extra bits; x and the power are floored at that finer scale, so the
denominator keeps a relative error near 2^-wp even where x^k is tiny.
Only P_depth is converted back to mpf, rounded to wp bits.  Every term
adds at most a few units of 2^-wp and a power's error decays with the
power, so the absolute error grows about as N * 2^-wp over N terms; with
N below max_terms (500,000 < 2^19 by default) that stays under
2^(-13-bits), far below the 2^(8-bits) truncation threshold.  Values
above 1 carry the same absolute error, hence a smaller relative one.
"""

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from dataclasses import dataclass, field

from .context import GUARD_BITS, positive_x, to_mpf
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
    weight: int = field(init=False)
    depth: int = field(init=False)

    def __post_init__(self):
        parts = tuple(int(k) for k in self.parts)
        if not parts or any(k < 1 for k in parts):
            raise DomainError("index parts must be positive integers")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "weight", sum(parts))
        object.__setattr__(self, "depth", len(parts))


@dataclass(frozen=True)
class PolylogArgs:
    """Index plus one real argument per index entry, each |z_i| < 1."""

    index: MultiIndex
    args: tuple

    def __post_init__(self):
        index = self.index
        if not isinstance(index, MultiIndex):
            index = MultiIndex(tuple(index))
            object.__setattr__(self, "index", index)
        args = tuple(to_mpf(z) for z in self.args)
        if len(args) != index.depth:
            raise DomainError("index and argument lengths differ")
        if any(not abs(z) < 1 for z in args):
            raise DomainError("arguments must satisfy |z| < 1")
        object.__setattr__(self, "args", args)


# value cache: the expansion coefficients evaluate polylogs of the same
# telescoping ratios over and over.  Keyed on exact argument bits.
_CACHE = {}
_CACHE_CAP = 8192


def _sum_with_cache(ks, zs, shift, n_start, ctx):
    key = (ks, zs, shift, n_start, ctx.precision_bits)
    hit = _CACHE.get(key)
    if hit is None:
        _prefetch([key], ctx)
        hit = _CACHE[key]
    return hit


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


def _nested_sums(kss, zs, shift, n_start, ctx):
    """{ks: sum} for every index tuple ks in kss, in one pass over n.
    n_start is the first value of the innermost counter; starting at 0
    realizes the z_1^0 = 1 convention (0^0 = 1 included) for the shifted
    sums.  Shifted sums scale with max(ks), which one call's must share."""
    s = len(zs)
    wp = ctx.precision_bits + GUARD_BITS
    one = 1 << wp
    with ctx.workprec():
        shift = to_mpf(shift)
        rho, acc = mpf(0), mpf(1)  # max over suffixes of prod |z_j|
        for z in reversed(zs):
            acc *= abs(z)
            rho = max(rho, acc)
        geom = to_fixed((4 * rho / (1 - rho))._mpf_, wp)
        zf = list(enumerate(to_fixed(z._mpf_, wp) for z in zs))
        powers = [to_fixed((z ** n_start)._mpf_, wp) for z in zs]  # 0^0 = 1
        if shift:
            # (n + shift)^k >= min(1, shift)^k: sh extra bits keep the
            # denominator's relative error near 2^-wp at small shift
            sh = wp + max(map(max, kss)) * max(0, 1 - mp.mag(shift))
            xf = to_fixed(shift._mpf_, sh)
        else:
            sh = 0
    # node[prefix] indexes P (stage sums) and D (latest terms); stages has
    # (power index, parent, j, node), stage s first.  A later sibling has
    # parent -1: it divides the previous quotient by n^(k - k_prev), or,
    # shifted, the shared product by (n + shift)^k
    node = {p: c for c, p in enumerate(sorted({ks[:i] for ks in kss for i in range(s + 1)}))}
    P, D = [one] + [0] * (len(node) - 1), [0] * len(node)
    stages = []
    for i in range(s, 0, -1):
        prefixes = sorted({ks[:i] for ks in kss})
        for a, b in zip([None] + prefixes, prefixes):
            sibling = a is not None and a[:-1] == b[:-1]
            j = b[-1] - a[-1] if sibling and not sh else b[-1]
            stages.append((i - 1, -1 if sibling else node[b[:-1]], j, node[b]))
    leaves = [[ks, node[ks], 0] for ks in sorted(kss)]  # [ks, node, small run]
    done = {}
    # geom*|dP| <= 2^(8 - precision_bits) * max(1, |P|) at scale 2^wp:
    # geom*|dP| lies in [2^(lhs-2), 2^lhs), the bound in [2^(rhs-1), 2^rhs)
    tb = GUARD_BITS + 8
    gl = geom.bit_length()
    rhs_one = wp + 1 + tb
    n_last = n_start + ctx.max_terms
    n = n_start
    while True:
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
            D[c] = q
        if n >= n_start + s + 1:
            for leaf in leaves:
                ks, c, run = leaf
                d, b = D[c], P[c].bit_length()
                lhs, rhs = gl + d.bit_length(), b + tb if b > wp else rhs_one
                small = not (d and geom) or lhs < rhs or (
                    lhs <= rhs + 1 and geom * abs(d) <= max(one, abs(P[c])) << tb)
                leaf[2] = run = run + 1 if small else 0
                if run >= 2 and ks not in done:
                    with ctx.workprec():
                        done[ks] = mp.ldexp(P[c], -wp)
            if len(done) == len(leaves):
                return done
        n += 1
        if n > n_last:
            raise BudgetError(
                "nested sum over %d terms did not close (rho=%s)"
                % (ctx.max_terms, mp.nstr(rho, 6))
            )
        for i, z in zf:
            powers[i] = powers[i] * z >> wp


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
    if not isinstance(index, MultiIndex):
        index = MultiIndex(tuple(index))
    z = to_mpf(z)
    if not abs(z) < 1:
        raise DomainError("mpl_one_var needs |z| < 1")
    zs = (mpf(1),) * (index.depth - 1) + (z,)
    return _sum_with_cache(index.parts, zs, mpf(0), 1, ctx)


def hurwitz_li0(x, p, ctx):
    """Hurwitz-type sum over 0 <= n_1 < ... < n_s with denominators
    (n_i + x)^{k_i}; z_1^{n_1} is 1 at n_1 = 0 even for z_1 = 0."""
    x = positive_x(x)
    return _sum_with_cache(p.index.parts, p.args, x, 0, ctx)


def hurwitz_li1(x, p, ctx):
    """Hurwitz-type sum over 1 <= n_1 < ... < n_s with denominators
    (n_i + x)^{k_i}."""
    x = positive_x(x)
    return _sum_with_cache(p.index.parts, p.args, x, 1, ctx)
