"""Multiple polylogarithms: multi-variable, one-variable, and the
Hurwitz-shifted variants with denominators (n_i + x)^{k_i}.

All sums run over strictly increasing integer tuples.  They are computed
as depth-many coupled 1-D accumulations: with P_0 = 1 identically and

    P_i(n) = P_i(n-1) + z_i^n / (n + shift)^{k_i} * P_{i-1}(n-1),

P_depth(N) is the nested sum truncated at outer index N.  Updating the
stages in decreasing i per n keeps the strict n_{i-1} < n_i coupling
without materializing prefix arrays.

Truncation is adaptive.  The outermost increments decay geometrically
with ratio rho = max over suffixes of prod_{j>=i} |z_j| (inner stages
contribute slowly varying polynomial-log factors only), so the tail
after n is bounded by a small multiple of t_n rho/(1-rho).  We stop
when that bound drops below the working threshold and raise BudgetError
if ctx.max_terms runs out first, which only happens for rho very close
to 1; the telescoping ratios that feed this module stay well clear.

The loop runs in fixed point: the arguments z_i, the powers z_i^n, the
stage sums P_i, the tail factor and the threshold are Python ints scaled
by 2^wp, wp = precision_bits + GUARD_BITS (the bits ctx.workprec() gives
mpf code).  Ints are truncated (floored) to a unit of 2^-wp in three
places only: when an argument is converted, when a power is advanced
(z^n * z >> wp), and when a term is formed (power * P_{i-1} >> wp, then
floor division by the denominator).  Unshifted sums divide by the exact
integer n^k.  Shifted sums divide by (n + x)^k held at scale 2^(wp + g),
with g = k_max * max(0, 1 - mag(x)) extra bits; x and the power are
floored at that finer scale, so the denominator keeps a relative error
near 2^-wp even where x^k is tiny.  Only P_depth is
converted back to mpf, rounded to wp bits.  Every term adds at most a
few units of 2^-wp and a power's error decays with the power, so the
absolute error grows about as N * 2^-wp over N terms; with N below
max_terms (500,000 < 2^19 by default) that stays under 2^(-13-bits),
far below the 2^(8-bits) truncation threshold.  Values above 1 carry
the same absolute error, hence a smaller relative one.
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


def _sum_with_cache(tag, ks, zs, shift, n_start, ctx):
    key = (tag, ks, zs, shift, ctx.precision_bits)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    val = _nested_sum(ks, zs, shift, n_start, ctx)
    if len(_CACHE) >= _CACHE_CAP:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = val
    return val


def _suffix_rho(zs):
    rho = mpf(0)
    acc = mpf(1)
    for z in reversed(zs):
        acc *= abs(z)
        if acc > rho:
            rho = acc
    return rho


def _nested_sum(ks, zs, shift, n_start, ctx):
    """Shared accumulation.  n_start is the first value of the innermost
    counter; starting at 0 realizes the z_1^0 = 1 convention (0^0 = 1
    included) for the shifted sums."""
    s = len(ks)
    wp = ctx.precision_bits + GUARD_BITS
    one = 1 << wp
    with ctx.workprec():
        shift = to_mpf(shift)
        rho = _suffix_rho(zs)
        geom = to_fixed((4 * rho / (1 - rho))._mpf_, wp)
        zf = [to_fixed(z._mpf_, wp) for z in zs]
        powers = [to_fixed((z ** n_start)._mpf_, wp) for z in zs]  # 0^0 = 1
        if shift:
            # (n + shift)^k >= min(1, shift)^k: sh extra bits keep the
            # denominator's relative error near 2^-wp at small shift
            sh = wp + max(ks) * max(0, 1 - mp.mag(shift))
            xf = to_fixed(shift._mpf_, sh)
        else:
            sh = 0
    # 2^(8 - precision_bits) at scale 2^wp
    thresh = 1 << (wp + 8 - ctx.precision_bits)
    P = [one] + [0] * s
    small_run = 0
    n = n_start
    while True:
        prev_outer = P[s]
        if sh:
            base = (n << sh) + xf
        for i in range(s, 0, -1):
            # stage i needs n th element >= n_start + i - 1 and a
            # live power (zero argument kills the chain exactly; a
            # power floored to 0 would only add zeros)
            if n >= n_start + i - 1 and powers[i - 1]:
                k = ks[i - 1]
                den = (base ** k) >> ((k - 1) * sh) if sh else n ** k
                P[i] += (powers[i - 1] * P[i - 1] << sh >> wp) // den
        if n >= n_start + s + 1:
            tail_bound = geom * abs(P[s] - prev_outer)
            if tail_bound <= thresh * max(one, abs(P[s])):
                small_run += 1
                if small_run >= 2:
                    with ctx.workprec():
                        return mp.ldexp(P[s], -wp)
            else:
                small_run = 0
        n += 1
        if n - n_start > ctx.max_terms:
            raise BudgetError(
                "nested sum over %d terms did not close (rho=%s)"
                % (ctx.max_terms, mp.nstr(rho, 6))
            )
        for i, z in enumerate(zf):
            powers[i] = powers[i] * z >> wp


def mpl(p, ctx):
    """Multi-variable multiple polylogarithm of p.index at p.args.

    Any zero argument forces the value 0: the i-th factor is z_i^{n_i}
    with n_i >= i >= 1.
    """
    return _sum_with_cache("m", p.index.parts, p.args, mpf(0), 1, ctx)


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
    return _sum_with_cache("m", index.parts, zs, mpf(0), 1, ctx)


def hurwitz_li0(x, p, ctx):
    """Hurwitz-type sum over 0 <= n_1 < ... < n_s with denominators
    (n_i + x)^{k_i}; z_1^{n_1} is 1 at n_1 = 0 even for z_1 = 0."""
    x = positive_x(x)
    return _sum_with_cache("h0", p.index.parts, p.args, x, 0, ctx)


def hurwitz_li1(x, p, ctx):
    """Hurwitz-type sum over 1 <= n_1 < ... < n_s with denominators
    (n_i + x)^{k_i}."""
    x = positive_x(x)
    return _sum_with_cache("h1", p.index.parts, p.args, x, 1, ctx)
