"""Compositions, weak compositions, ordered disjoint subset families, and
the elementary symmetric polynomials in the logs of the weights.

The enumeration shapes here mirror the index sets of the expansion
coefficients: a composition k = (k_1,...,k_s) of t, a weak composition
l of m - t, and an ordered family (K_1,...,K_s) of disjoint subsets of
{1,...,r} with |K_i| = k_i.  Everything is exact integer work; only
lambda_k touches floating point.

Streams are generators, never materialized lists: the triple sum that
consumes them grows combinatorially and callers cap work via their
precision context.
"""

from dataclasses import dataclass, field
from itertools import combinations

from mpmath import mp, mpf

from .context import to_mpf
from .errors import DomainError

__all__ = [
    "Composition",
    "WeakComposition",
    "DisjointSubsetFamily",
    "compositions",
    "weak_compositions",
    "disjoint_subset_families",
    "lambda_k",
]


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integers with its total."""

    parts: tuple
    total: int = field(init=False)

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts or any(p < 1 for p in parts):
            raise DomainError("composition parts must be positive integers")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "total", sum(parts))


@dataclass(frozen=True)
class WeakComposition:
    """Ordered tuple of nonnegative integers with its total."""

    parts: tuple
    total: int = field(init=False)

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts or any(p < 0 for p in parts):
            raise DomainError("weak composition parts must be nonnegative integers")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "total", sum(parts))


@dataclass(frozen=True)
class DisjointSubsetFamily:
    """Ordered blocks (K_1,...,K_s) of disjoint subsets of {1,...,r}.

    ``remainder`` is K_0, the elements of the ground set in no block.
    Blocks hold sorted index tuples.
    """

    r: int
    blocks: tuple
    remainder: tuple = field(init=False)

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("ground set must be nonempty")
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        seen = set()
        for b in blocks:
            for i in b:
                if not 1 <= i <= self.r:
                    raise DomainError("block element outside ground set")
                if i in seen:
                    raise DomainError("blocks must be pairwise disjoint")
                seen.add(i)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(
            self, "remainder", tuple(i for i in range(1, self.r + 1) if i not in seen)
        )


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
            yield Composition(prefix + (remaining,))
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
            yield WeakComposition(prefix + (remaining,))
            return
        for first in range(remaining + 1):
            yield from rec(remaining - first, slots - 1, prefix + (first,))

    yield from rec(l, s, ())


def disjoint_subset_families(r, k):
    """Yield ordered families (K_1,...,K_s) of disjoint subsets of {1..r}
    with |K_i| = k_i, one per choice; there are r!/(k_1!...k_s!(r-t)!).
    """
    r = int(r)
    if r < 1:
        raise DomainError("ground set must be nonempty")
    if not isinstance(k, Composition):
        k = Composition(tuple(k))
    if k.total > r:
        raise DomainError("block sizes exceed the ground set")

    ground = tuple(range(1, r + 1))

    def rec(used_mask, depth, chosen):
        if depth == len(k.parts):
            yield DisjointSubsetFamily(r, chosen)
            return
        avail = tuple(i for i in ground if not used_mask >> (i - 1) & 1)
        for block in combinations(avail, k.parts[depth]):
            mask = used_mask
            for i in block:
                mask |= 1 << (i - 1)
            yield from rec(mask, depth + 1, chosen + (block,))

    yield from rec(0, 0, ())


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
