"""Compositions, weak compositions, ordered disjoint subset families, and
the elementary symmetric polynomials in the logs of the weights.

The enumeration shapes here mirror the index sets of the expansion
coefficients: a composition k = (k_1,...,k_s) of t, a weak composition
l of m - t, and an ordered family (K_1,...,K_s) of disjoint subsets of
{1,...,r} with |K_i| = k_i.  Compositions are plain int tuples, and a
family is a (blocks, remainder) pair of sorted index tuples, the
remainder K_0 holding the elements in no block.  Everything is exact
integer work; only lambda_k touches floating point.

Streams are generators, never materialized lists: the triple sum that
consumes them grows combinatorially and callers cap work via their
precision context.
"""

from itertools import combinations

from mpmath import mp, mpf

from .context import to_mpf
from .errors import DomainError

__all__ = [
    "compositions",
    "weak_compositions",
    "disjoint_subset_families",
    "lambda_k",
]


def compositions(t, s):
    """Yield the C(t-1, s-1) compositions of t into s positive parts.

    Lexicographic order on the part tuples.
    """
    t, s = int(t), int(s)
    if t < 1 or s < 1:
        raise DomainError("compositions need positive t and s")
    if s > t:
        raise DomainError("cannot split %d into %d positive parts" % (t, s))

    def rec(remaining, slots, prefix):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for first in range(1, remaining - slots + 2):
            yield from rec(remaining - first, slots - 1, prefix + (first,))

    yield from rec(t, s, ())


def weak_compositions(l, s):
    """Yield the C(l+s-1, s-1) weak compositions of l into s parts."""
    l, s = int(l), int(s)
    if l < 0 or s < 1:
        raise DomainError("weak compositions need l >= 0 and s >= 1")

    def rec(remaining, slots, prefix):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for first in range(remaining + 1):
            yield from rec(remaining - first, slots - 1, prefix + (first,))

    yield from rec(l, s, ())


def disjoint_subset_families(r, k):
    """Yield (blocks, remainder) for the ordered families (K_1,...,K_s) of
    disjoint subsets of {1..r} with |K_i| = k_i, one per choice; there are
    r!/(k_1!...k_s!(r-t)!).  Blocks and remainder are sorted tuples."""
    r, k = int(r), tuple(k)
    if not k or not all(isinstance(ki, int) and ki >= 1 for ki in k) or sum(k) > r:
        raise DomainError("block sizes must be positive ints totalling at most r")

    def rec(avail, chosen):
        if len(chosen) == len(k):
            yield chosen, avail
            return
        for block in combinations(avail, k[len(chosen)]):
            rest = tuple(i for i in avail if i not in block)
            yield from rec(rest, chosen + (block,))

    yield from rec(tuple(range(1, r + 1)), ())


def lambda_k(omega, k, ctx):
    """Elementary symmetric polynomial of degree k in {log omega_i}.

    Built by the Vieta update (incrementally multiplying in one root at a
    time), which is numerically stable and linear-time per root; explicit
    subset enumeration is never used.
    """
    omega = [to_mpf(w) for w in omega]
    k = int(k)
    if any(not 0 < w < mp.inf for w in omega):
        raise DomainError("weights must be positive and finite")
    if k < 0 or k > len(omega):
        raise DomainError("lambda_k needs 0 <= k <= len(omega)")
    with ctx.workprec():
        e = [mpf(1)] + [mpf(0)] * k
        for w in omega:
            lw = mp.log(w)
            for j in range(min(k, len(e) - 1), 0, -1):
                e[j] += lw * e[j - 1]
        return +e[k]
