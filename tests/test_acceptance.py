"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerance and wall-clock budget inline and runs the
public API exactly as a downstream user would: quadrature against series,
closed forms against brute recombination, exact combinatorics against
factorial counts, and the full verification CLI pass.
"""

import math
import random
import time
from fractions import Fraction

from mpmath import mp, mpf

from mtzeta.asymptotics import (
    c_coeff,
    c_prime_coeff,
    expression_by_S,
    power_series_I,
)
from mtzeta.cli import cli_main
from mtzeta.combinatorics import (
    compositions,
    disjoint_subset_families,
    weak_compositions,
)
from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.kernel import (
    bell_complete,
    stirling_first_unsigned,
    zeta_value,
)
from mtzeta.series import WeightConfig, i_integral, m_integral, zeta_ez_ones
from mtzeta.suites import (
    suite_asymptotic_order,
    suite_inversion,
    suite_r2m2,
    suite_r3m3,
)

from oracles import pochhammer

CTX = PrecisionContext()


def test_criterion_01_euler_constant_recovery():
    # |M_1(x; (1), 0) - 1/x - gamma| <= 5x on a decade ladder, under 5 s
    t0 = time.perf_counter()
    w = WeightConfig(omega=(1,), a=0)
    with CTX.workprec():
        for xs in ("0.01", "0.001", "0.0001"):
            x = mpf(xs)
            defect = abs(m_integral(x, w, CTX) - 1 / x - mp.euler)
            assert defect <= 5 * x
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_rank_one_power_series_vs_quadrature():
    # normalized quadrature value against the 25-term series, under 10 s
    t0 = time.perf_counter()
    ctx = PrecisionContext(precision_bits=256)
    w = WeightConfig(omega=(1,), a=2)
    with ctx.workprec():
        x = mpf("0.3")
        scale = (w.a + w.total) ** x
        lhs = scale * i_integral(x, w, ctx)
        rhs = scale * power_series_I(x, w, 25, ctx)
        assert abs(lhs - rhs) <= mpf(10) ** -10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_depth_two_dilog_identity_grid():
    # five weight configs including (1,1,0); each side a different route
    t0 = time.perf_counter()
    reports = suite_r2m2(ctx=CTX, tol="1e-12")
    assert len(reports) == 5
    assert any(r.params["omega"] == ["1", "1"] and r.params["a"] == "0" for r in reports)
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
            assert rep.residual <= mpf(10) ** -12
            assert rep.method["lhs"] != rep.method["rhs"]
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_depth_three_trilog_identity_grid():
    # three weight configs at rank 3, residual <= 1e-10, under 2 min
    t0 = time.perf_counter()
    reports = suite_r3m3(ctx=CTX, tol="1e-10")
    assert len(reports) == 3
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
            assert rep.residual <= mpf(10) ** -10
    assert time.perf_counter() - t0 < 120.0


def test_criterion_05_coefficient_closed_form_agreement():
    # nested-polylog sum and Bell closed form agree for all 1 <= m <= r <= 3
    rng = random.Random(20250822)
    with CTX.workprec():
        for r in (1, 2, 3):
            for m in range(1, r + 1):
                for _ in range(3):
                    omega = tuple(
                        to_mpf("%.4f" % rng.uniform(0.5, 2.5)) for _ in range(r)
                    )
                    a = to_mpf("%.4f" % rng.uniform(0.0, 2.0))
                    w = WeightConfig(omega=omega, a=a)
                    gap = abs(c_coeff(r, m, w, CTX) - c_prime_coeff(r, m, w, CTX))
                    assert gap <= mpf(10) ** -10


def test_criterion_06_coefficient_shift_recurrence():
    # dropping one weight and absorbing it into the shift preserves the
    # coefficient sum: c_{r,m}(omega,a) = sum_i c_{r-1,m}(omega-i, a+omega_i)
    rng = random.Random(20250822)
    with CTX.workprec():
        for r, m in ((2, 1), (3, 1), (3, 2)):
            omega = tuple(to_mpf("%.4f" % rng.uniform(0.5, 2.5)) for _ in range(r))
            a = to_mpf("%.4f" % rng.uniform(0.0, 2.0))
            lhs = c_coeff(r, m, WeightConfig(omega=omega, a=a), CTX)
            rhs = mpf(0)
            for i in range(r):
                rest = omega[:i] + omega[i + 1 :]
                rhs += c_coeff(r - 1, m, WeightConfig(omega=rest, a=a + omega[i]), CTX)
            assert abs(lhs - rhs) <= mpf(10) ** -10


def test_criterion_07_auxiliary_series_reconstruction():
    # jet-differentiated auxiliary-series form equals direct quadrature
    configs = (
        WeightConfig(omega=(to_mpf("0.5"),), a=to_mpf("2")),
        WeightConfig(omega=(to_mpf("0.4"), to_mpf("0.5")), a=to_mpf("2")),
    )
    with CTX.workprec():
        for w in configs:
            for xs in ("0.35", "0.7"):
                x = mpf(xs)
                gap = abs(expression_by_S(x, w, CTX) - i_integral(x, w, CTX))
                assert gap <= mpf(10) ** -9


def test_criterion_08_polylog_inversion_pairs():
    # both inversion directions for depths k = 1..5 at (omega, a) = (1, 3)
    reports = suite_inversion(ctx=CTX, tol="1e-12")
    assert len(reports) == 10
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
            assert rep.residual <= mpf(10) ** -12


def test_criterion_09_multisum_bridge_and_remainder_order():
    # the weight-(1,1) double sum at x=1 equals twice the all-ones nested
    # sum, both within 1e-8 of 2 zeta(3); the defect against the reciprocal
    # gamma main term decays with empirical order >= 0.8 under halving
    w = WeightConfig(omega=(1, 1), a=0)
    with CTX.workprec():
        target = 2 * zeta_value(3, CTX)
        assert abs(m_integral(mpf(1), w, CTX) - target) <= mpf(10) ** -8
        assert abs(2 * zeta_ez_ones(2, mpf(1), CTX) - target) <= mpf(10) ** -8
        xs = [mpf(s) for s in ("0.1", "0.05", "0.025")]
        defects = [abs(zeta_ez_ones(2, x, CTX) - x**-2 / mp.gamma(1 + x)) for x in xs]
        for d0, d1, x0, x1 in zip(defects, defects[1:], xs, xs[1:]):
            order = mp.log(d0 / d1) / mp.log(x0 / x1)
            assert order >= mpf("0.8")


def test_criterion_10_asymptotic_remainder_orders():
    # main-term remainder order >= 0.8 at ranks 1 and 2; four-term series
    # truncation order >= 2.8 at rank 2
    reports = {r.identity_id: r for r in suite_asymptotic_order(ctx=CTX)}
    with CTX.workprec():
        for rid in (
            "remainder-order/integral-main-term/r1",
            "remainder-order/integral-main-term/r2",
        ):
            assert reports[rid].passed
            assert reports[rid].lhs >= mpf("0.8")
        trunc = reports["remainder-order/truncated-series/r2-M4"]
        assert trunc.passed
        assert trunc.lhs >= mpf("2.8")


def test_criterion_11_exact_combinatorics():
    # all-integer identities, no tolerance anywhere
    # rising-factorial coefficients: row sums and an exact polynomial match
    for m in range(1, 13):
        assert sum(stirling_first_unsigned(m, l) for l in range(1, m + 1)) == math.factorial(m)
    x = Fraction(3, 7)
    for m in range(1, 9):
        expanded = sum(
            stirling_first_unsigned(m, l) * x**l for l in range(1, m + 1)
        )
        assert expanded == pochhammer(x, m, CTX)
    # Bell values at all-ones arguments count set partitions
    for n, b in enumerate((1, 1, 2, 5, 15, 52, 203)):
        assert bell_complete(n, (1,) * n) == b
    # stream cardinalities against binomial and multinomial counts
    for t in range(1, 8):
        for s in range(1, t + 1):
            assert sum(1 for _ in compositions(t, s)) == math.comb(t - 1, s - 1)
    for l in range(0, 7):
        for s in range(1, 5):
            assert sum(1 for _ in weak_compositions(l, s)) == math.comb(l + s - 1, s - 1)
    for r in range(1, 6):
        for t in range(1, r + 1):
            for s in range(1, t + 1):
                for k in compositions(t, s):
                    count = sum(1 for _ in disjoint_subset_families(r, k))
                    expect = math.factorial(r) // math.factorial(r - t)
                    for part in k:
                        expect //= math.factorial(part)
                    assert count == expect


def test_criterion_12_full_verification_run(capsys):
    # the complete default battery exits 0 inside the ten-minute budget
    t0 = time.perf_counter()
    rc = cli_main(["verify", "all"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 0
    assert elapsed <= 600.0
    assert '"passed":true' in captured.out
    assert '"passed":false' not in captured.out
