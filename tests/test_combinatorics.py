"""Enumeration streams and Lambda_k, checked exhaustively at small sizes
against naive power-set style oracles (zero tolerance on the counting
side, working tolerance on the floating-point side).
"""

import math
import random
from itertools import chain, combinations, product

import pytest
from mpmath import mp, mpf

from mtzeta.combinatorics import (
    compositions,
    disjoint_subset_families,
    lambda_k,
    weak_compositions,
)
from mtzeta.context import PrecisionContext
from mtzeta.errors import DomainError

CTX = PrecisionContext()


def tol_bits(slack):
    return mpf(2) ** (-(CTX.precision_bits - slack))


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def test_compositions_examples():
    assert list(compositions(3, 1)) == [(3,)]
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert sum(1 for _ in compositions(6, 3)) == 10


def test_compositions_counts_and_order():
    for t in range(1, 9):
        for s in range(1, t + 1):
            items = list(compositions(t, s))
            assert len(items) == math.comb(t - 1, s - 1)
            assert len(set(items)) == len(items)
            assert items == sorted(items)
            for parts in items:
                assert len(parts) == s
                assert sum(parts) == t
                assert all(p >= 1 for p in parts)


def test_compositions_rejects_bad_split():
    with pytest.raises(DomainError):
        list(compositions(3, 4))
    with pytest.raises(DomainError):
        list(compositions(0, 1))


# ---------------------------------------------------------------------------
# weak compositions
# ---------------------------------------------------------------------------

def test_weak_compositions_examples():
    assert list(weak_compositions(0, 3)) == [(0, 0, 0)]
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in weak_compositions(4, 3)) == 15


def test_weak_compositions_counts():
    for l in range(0, 7):
        for s in range(1, 5):
            items = list(weak_compositions(l, s))
            assert len(items) == math.comb(l + s - 1, s - 1)
            assert len(set(items)) == len(items)
            for parts in items:
                assert len(parts) == s and sum(parts) == l
                assert all(p >= 0 for p in parts)


# ---------------------------------------------------------------------------
# disjoint subset families
# ---------------------------------------------------------------------------

def test_family_examples():
    fams = list(disjoint_subset_families(2, (1,)))
    assert fams == [(((1,),), (2,)), (((2,),), (1,))]
    assert sum(1 for _ in disjoint_subset_families(3, (1, 1))) == 6
    assert list(disjoint_subset_families(3, (3,))) == [(((1, 2, 3),), ())]


def test_family_rejects_oversized():
    with pytest.raises(DomainError):
        list(disjoint_subset_families(2, (2, 1)))


def _subsets(ground):
    return chain.from_iterable(combinations(ground, n) for n in range(len(ground) + 1))


def test_families_match_power_set_filter():
    # exhaustive cross-check against a naive filter over subset tuples
    for r in range(1, 7):
        ground = tuple(range(1, r + 1))
        for t in range(1, r + 1):
            for s in range(1, min(t, 3) + 1):
                for comp in compositions(t, s):
                    stream = {blocks for blocks, _ in disjoint_subset_families(r, comp)}
                    naive = set()
                    for blocks in product(_subsets(ground), repeat=s):
                        if any(len(b) != k for b, k in zip(blocks, comp)):
                            continue
                        flat = [i for b in blocks for i in b]
                        if len(flat) != len(set(flat)):
                            continue
                        naive.add(blocks)
                    assert stream == naive
                    expect = math.factorial(r) // (
                        math.prod(math.factorial(k) for k in comp)
                        * math.factorial(r - t)
                    )
                    assert len(stream) == expect


def test_family_invariants():
    for blocks, remainder in disjoint_subset_families(5, (2, 1)):
        flat = [i for b in blocks for i in b]
        assert len(flat) == len(set(flat))
        assert set(flat) | set(remainder) == set(range(1, 6))
        assert not set(flat) & set(remainder)
        assert all(list(b) == sorted(b) for b in blocks + (remainder,))


def test_family_counting_law():
    # sum over weak compositions (j_1..j_N) of s of  j_1!...j_N! x #families
    # equals r!/(r-s)! C(s+N-1, s); families counted by brute assignment
    for r in range(1, 5):
        for s in range(0, r + 1):
            for N in range(1, 6):
                total = 0
                for wc in weak_compositions(s, N):
                    fam_count = 0
                    for assign in product(range(N + 1), repeat=r):
                        sizes = [0] * (N + 1)
                        for g in assign:
                            sizes[g] += 1
                        if tuple(sizes[1:]) == wc:
                            fam_count += 1
                    total += math.prod(math.factorial(j) for j in wc) * fam_count
                expect = (
                    math.factorial(r)
                    // math.factorial(r - s)
                    * math.comb(s + N - 1, s)
                )
                assert total == expect


# ---------------------------------------------------------------------------
# lambda_k
# ---------------------------------------------------------------------------

def test_lambda_trivial_values():
    assert lambda_k((2, 3, 5), 0, CTX) == 1
    for k in (1, 2, 3):
        assert lambda_k((1, 1, 1), k, CTX) == 0
    with CTX.workprec():
        expect = mp.log(2) * mp.log(3)
    assert abs(lambda_k((2, 3), 2, CTX) - expect) <= tol_bits(8)


def test_lambda_rejects_bad_degree():
    with pytest.raises(DomainError):
        lambda_k((2, 3), 3, CTX)
    with pytest.raises(DomainError):
        lambda_k((2, -1), 1, CTX)


def test_lambda_generating_identity():
    # prod_i (X + log w_i) = sum_k Lambda_k X^{r-k}
    rng = random.Random(5150)
    with CTX.workprec():
        for _ in range(10):
            r = rng.randint(1, 7)
            omega = [mpf(rng.uniform(0.2, 9.0)) for _ in range(r)]
            X = mpf(rng.uniform(-3.0, 3.0))
            lhs = mpf(1)
            for w in omega:
                lhs *= X + mp.log(w)
            rhs = sum(
                lambda_k(omega, k, CTX) * X ** (r - k) for k in range(r + 1)
            )
            assert abs(lhs - rhs) <= tol_bits(24) * max(1, abs(lhs))


def test_lambda_permutation_symmetry():
    omega = (2, 3, 5, 7)
    base = [lambda_k(omega, k, CTX) for k in range(5)]
    rng = random.Random(33)
    for _ in range(5):
        perm = list(omega)
        rng.shuffle(perm)
        for k in range(5):
            assert abs(lambda_k(perm, k, CTX) - base[k]) <= tol_bits(16)


def test_lambda_matches_subset_enumeration():
    with CTX.workprec():
        omega = [mpf("1.5"), mpf(2), mpf("0.4"), mpf(6), mpf(3)]
        logs = [mp.log(w) for w in omega]
        for k in range(len(omega) + 1):
            brute = mpf(0)
            for sub in combinations(logs, k):
                brute += math.prod(sub) if sub else 1
            assert abs(lambda_k(omega, k, CTX) - brute) <= tol_bits(16)


def test_composition_type_validation():
    # the block sizes handed to disjoint_subset_families: positive ints
    for bad in ((), (1, 0), (2, -1), (1.0,), ("1",)):
        with pytest.raises(DomainError):
            list(disjoint_subset_families(3, bad))
    assert all(remainder == () for _, remainder in disjoint_subset_families(3, (1, 2)))
