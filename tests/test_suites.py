"""Verification suites: every default grid passes with margin, report
order is deterministic, and parallel dispatch changes nothing but wall
time.  That the two sides of each report travel different routes is
checked by tests/test_routes.py, which records both routes of every
default report."""

import inspect
import sys
import time
from dataclasses import replace
from itertools import permutations

import pytest
from mpmath import mp, mpf

from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.errors import BudgetError, DomainError, UsageError
from mtzeta import series, suites
from mtzeta.kernel import zeta_value
from mtzeta.polylog import mpl_one_var
from mtzeta.reports import IdentityReport
from mtzeta.suites import (
    ORDER_LADDER,
    SUITE_NAMES,
    run_suite,
    suite_asymptotic_order,
    suite_inversion,
    suite_mzf,
    suite_r2m2,
    suite_r3m3,
    verify_all,
)

CTX = PrecisionContext()


def _strip_time(report):
    d = report.to_json_dict(CTX.precision_bits)
    d.pop("wall_time_ms")
    return d


def test_r2m2_default_grid_passes():
    reports = suite_r2m2(ctx=CTX)
    assert len(reports) == 5
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
            assert rep.residual <= mpf(10) ** -12
            assert rep.method["lhs"] != rep.method["rhs"]
    assert [r.sort_key() for r in reports] == sorted(r.sort_key() for r in reports)
    grid_as = {tuple(r.params["omega"]) + (r.params["a"],) for r in reports}
    assert ("1", "1", "0") in grid_as
    assert ("2", "3", "1") in grid_as


def test_r2m2_swap_symmetry():
    (a,) = suite_r2m2(omega=("2", "3"), a="1", ctx=CTX)
    (b,) = suite_r2m2(omega=("3", "2"), a="1", ctx=CTX)
    with CTX.workprec():
        assert abs(a.lhs - b.lhs) <= mpf(10) ** -70
        assert abs(a.rhs - b.rhs) <= mpf(10) ** -70


def test_r2m2_rejects_bad_weights():
    with pytest.raises(DomainError):
        suite_r2m2(omega=("0", "1"), a="0", ctx=CTX)
    with pytest.raises(DomainError):
        suite_r2m2(omega=("1", "1"), a="-0.5", ctx=CTX)


@pytest.mark.parametrize(
    "suite, row",
    [
        (suite_r2m2, ("1", "2", "3", "1")),
        (suite_r2m2, ("1", "1")),
        (suite_r3m3, ("1", "2", "1")),
        (suite_r3m3, ("1", "2", "3", "4", "1")),
        (suite_inversion, ("1", "2", "3")),
    ],
    ids=["r2m2-three", "r2m2-one", "r3m3-two", "r3m3-four", "inversion-two"],
)
def test_grid_rows_of_another_weight_count_are_refused(suite, row, monkeypatch):
    # refused before any point is dispatched, so weights of the other
    # suite's count never emit that suite's report under this name
    def dispatched(*args):
        raise AssertionError("a refused row reached dispatch")

    monkeypatch.setattr(suites, "_run", dispatched)
    with pytest.raises(DomainError, match="weight"):
        suite(omega=row[:-1], a=row[-1], ctx=CTX)


@pytest.mark.parametrize("bits", [128, 256])
def test_relation_point_at_rank_four_passes_the_series_gate(bits):
    # c_{4,4} = c'_{4,4}: no suite declares rank 4, the point serves it
    ctx = PrecisionContext(precision_bits=bits)
    (rep,) = suites._run(suites.relation_point, [("1", "2", "3", "4", "0.5")], ctx, None, 1)
    assert rep.identity_id == "polylog-evaluation/r4m4"
    assert rep.params == {"omega": ["1", "2", "3", "4"], "a": "0.5"}
    assert rep.tolerance == to_mpf(suites.SERIES_TOL)
    assert rep.passed


def test_r3m3_default_grid_passes():
    reports = suite_r3m3(ctx=CTX)
    assert len(reports) == 3
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
            assert rep.residual <= mpf(10) ** -10


def test_r3m3_permutation_invariance():
    vals = [
        rep for omega in permutations(("1", "2", "3")) for rep in suite_r3m3(omega=omega, a="1", ctx=CTX)
    ]
    assert len(vals) == 6
    with CTX.workprec():
        for rep in vals[1:]:
            assert abs(rep.lhs - vals[0].lhs) <= mpf(10) ** -70
            assert abs(rep.rhs - vals[0].rhs) <= mpf(10) ** -70


def test_inversion_default_passes():
    reports = suite_inversion(ctx=CTX)
    assert len(reports) == 10
    ids = {r.identity_id for r in reports}
    assert "polylog-inversion/forward/k05" in ids
    assert "polylog-inversion/backward/k01" in ids
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
            assert rep.residual <= mpf(10) ** -12


def _inversion_at_depth(omega, a, k, ctx, tol):
    """Both reports of one depth k, each Li_j(y) and depth series evaluated
    for this k alone: the suite's evaluator before it shared them."""
    t0 = time.perf_counter()
    o, av = to_mpf(omega), to_mpf(a)
    with ctx.workprec():
        y = av / (av + o)
        L = mp.log(y)
        depth_series = [
            mpl_one_var((1,) * (j - 1) + (2,), -o / av, ctx) + mpf(-1) ** (j + 1) * zeta_value(j + 1, ctx)
            for j in range(1, k + 1)
        ]
        lhs_f = depth_series[k - 1]
        rhs_f = -L ** (k + 1) / mp.factorial(k + 1)
        for j in range(0, k + 1):
            rhs_f += mpf(-1) ** (j + 1) / mp.factorial(k - j) * L ** (k - j) * mp.polylog(j + 1, y)
        lhs_b = mp.polylog(k + 1, y)
        rhs_b = -L ** (k + 1) / mp.factorial(k + 1)
        rhs_b += mp.log(av / o) * L ** k / mp.factorial(k)
        for j in range(1, k + 1):
            rhs_b += mpf(-1) ** (j + 1) / mp.factorial(k - j) * L ** (k - j) * depth_series[j - 1]
    params = {"omega": omega, "a": a, "k": str(k)}
    return [
        IdentityReport.from_sides(
            "polylog-inversion/forward/k%02d" % k, params, lhs_f, rhs_f, tol,
            {
                "lhs": "depth-k polylog series at the negative ratio, plus zeta",
                "rhs": "builtin classical polylogs with log prefactors",
            },
            t0,
        ),
        IdentityReport.from_sides(
            "polylog-inversion/backward/k%02d" % k, params, lhs_b, rhs_b, tol,
            {
                "lhs": "builtin classical polylog",
                "rhs": "depth-j polylog series with log prefactors and zeta",
            },
            t0,
        ),
    ]


def test_inversion_shares_classical_polylogs_across_depths(monkeypatch):
    # Li_1 .. Li_6 once each for the default k_max = 5, against 25 calls
    # when every depth evaluated its own; the reports are unchanged
    calls = []
    original = mp.polylog

    def counted(s, z):
        calls.append(s)
        return original(s, z)

    monkeypatch.setattr(mp, "polylog", counted)
    reports = suite_inversion(ctx=CTX)
    assert sorted(calls) == [1, 2, 3, 4, 5, 6]
    tol = max(to_mpf(suites.SERIES_TOL), CTX.eps * 2 ** 16)
    (omega, a), = suites.INVERSION_GRID
    expected = [
        rep for k in range(1, suites.INVERSION_K_MAX + 1) for rep in _inversion_at_depth(omega, a, k, CTX, tol)
    ]
    expected.sort(key=lambda rep: rep.sort_key())
    assert len(reports) == 10
    assert [replace(r, wall_time_ms=0) for r in reports] == [replace(r, wall_time_ms=0) for r in expected]


def test_inversion_formulas_are_mutual_inverses():
    # substituting one displayed formula into the other must return the
    # classical polylog; only builtin functions appear here
    with CTX.workprec():
        y = mpf(3) / 4
        L = mp.log(y)
        substituted = []
        for kk in (1, 2, 3):
            v = -L ** (kk + 1) / mp.factorial(kk + 1)
            for j in range(0, kk + 1):
                v += (
                    mpf(-1) ** (j + 1)
                    / mp.factorial(kk - j)
                    * L ** (kk - j)
                    * mp.polylog(j + 1, y)
                )
            substituted.append(v)
        back = -L ** 4 / mp.factorial(4) + mp.log(mpf(3)) * L ** 3 / mp.factorial(3)
        for j in range(1, 4):
            back += (
                mpf(-1) ** (j + 1)
                / mp.factorial(3 - j)
                * L ** (3 - j)
                * substituted[j - 1]
            )
        assert abs(back - mp.polylog(4, y)) <= mpf(10) ** -70


def test_inversion_rejects_domain():
    with pytest.raises(DomainError):
        suite_inversion(k_max=2, omega=("3",), a="1", ctx=CTX)
    with pytest.raises(DomainError):
        suite_inversion(k_max=0, ctx=CTX)


def test_order_suite_defaults_pass():
    reports = suite_asymptotic_order(ctx=CTX)
    by_id = {r.identity_id: r for r in reports}
    assert len(reports) == 4
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
        assert by_id["remainder-order/integral-main-term/r1"].lhs >= mpf("0.8")
        assert by_id["remainder-order/integral-main-term/r2"].lhs >= mpf("0.8")
        assert by_id["remainder-order/truncated-series/r2-M4"].lhs >= mpf("2.8")
        assert by_id["harmonic-constant-term/r1"].residual <= mpf(10) ** -6


def test_order_ladder_rejections():
    w = dict(omega=("1.5",), a="0.7")
    with pytest.raises(DomainError):
        suite_asymptotic_order(
            **w, method="integral-main-term", x_ladder=("0.02", "0.01"), ctx=CTX
        )
    with pytest.raises(DomainError):
        suite_asymptotic_order(
            **w, method="integral-main-term",
            x_ladder=("0.01", "0.01", "0.005"), ctx=CTX,
        )
    with pytest.raises(DomainError):
        suite_asymptotic_order(
            **w, r=2, method="integral-main-term",
            x_ladder=("0.02", "0.01", "0.005"), ctx=CTX,
        )
    with pytest.raises(DomainError):
        suite_asymptotic_order(
            **w, method="no-such-method",
            x_ladder=("0.02", "0.01", "0.005"), ctx=CTX,
        )
    with pytest.raises(DomainError, match="truncation order"):
        suite_asymptotic_order(omega=("1", "2"), a="0.3", method="truncated-series", ctx=CTX)


# options a suite would ignore, refused as `mtz verify` refuses their flags
IGNORED_OPTIONS = [
    (suite_asymptotic_order, dict(omega=("1",)), "asymptotic-order does not read omega without method"),
    (suite_asymptotic_order, dict(a="0.3", r=2, x_ladder=ORDER_LADDER),
     "asymptotic-order does not read a without method, r without method, x_ladder without method"),
    (suite_asymptotic_order, dict(order=3), "asymptotic-order does not read order without method truncated-series"),
    (suite_asymptotic_order, dict(method="integral-main-term", omega=("1", "2"), a="0.3", order=3),
     "asymptotic-order does not read order without method truncated-series"),
    (suite_r2m2, dict(a="1"), "r2m2 does not read a without omega"),
    (suite_inversion, dict(omega=("1",)), "inversion does not read omega without a"),
]


@pytest.mark.parametrize(
    "suite, options, message", IGNORED_OPTIONS,
    ids=["%s-%s" % (case[0].__name__, "-".join(case[1])) for case in IGNORED_OPTIONS],
)
def test_suites_refuse_options_they_would_ignore(suite, options, message, monkeypatch):
    monkeypatch.setattr(suites, "_run", None)  # refused before any point runs
    with pytest.raises(UsageError) as exc:
        suite(ctx=CTX, **options)
    assert str(exc.value) == message


def test_mzf_suite_hits_double_zeta_oracle():
    reports = suite_mzf(ctx=CTX)
    assert len(reports) == 6
    with CTX.workprec():
        for rep in reports:
            assert rep.passed
        two_zeta3 = 2 * zeta_value(3, CTX)
        r2x1 = next(
            r for r in reports if r.params == {"r": "2", "x": "1"}
        )
        assert abs(r2x1.lhs - two_zeta3) <= mpf(10) ** -8
        assert abs(r2x1.rhs - two_zeta3) <= mpf(10) ** -8
        r3 = next(r for r in reports if r.params == {"r": "3", "x": "0.5"})
        assert r3.tolerance == to_mpf("1e-9")
        assert r3.residual <= mpf(10) ** -30


def test_mzf_suite_at_512_bits_closes_at_the_first_cutoff(monkeypatch):
    ctx = PrecisionContext(precision_bits=512)
    cutoffs = []
    attempt = series._zeta_ez_attempt

    def recorded(r, x, N, ctx, thresh):
        cutoffs.append(N)
        return attempt(r, x, N, ctx, thresh)

    monkeypatch.setattr(series, "_zeta_ez_attempt", recorded)
    reports = suite_mzf(ctx=ctx)
    assert len(reports) == 6
    assert all(rep.passed for rep in reports)
    assert cutoffs == [1200] * 4  # one zeta_ez_ones per r >= 2 point


def test_mzf_shares_each_x_across_depths(monkeypatch):
    # one point per x runs every depth, so r = 2 and 3 build their node factors from
    # the -log(1 - e^-u) that r = 1 stored at each DE node, and r = 3 reads
    # the polygammas that r = 2 took at each mp.quad node of its tail
    ctx = PrecisionContext(precision_bits=128)
    series._node_table.cache_clear()
    series._x_tables.cache_clear()
    factor_nodes, tail_nodes = [], []
    m_factor, psi_derivs = series._m_factor, series.psi_derivs

    def counted_factor(y):
        factor_nodes.append(y._mpf_)
        return m_factor(y)

    def counted_psi_derivs(t, log_t, c):
        if sys._getframe(1).f_code.co_name == "integrand":
            tail_nodes.append(t._mpf_)
        return psi_derivs(t, log_t, c)

    monkeypatch.setattr(series, "_m_factor", counted_factor)
    monkeypatch.setattr(series, "psi_derivs", counted_psi_derivs)
    reports = suite_mzf(ctx=ctx)
    assert len(reports) == 6 and all(rep.passed for rep in reports)
    assert factor_nodes and len(factor_nodes) == len(set(factor_nodes))
    assert tail_nodes and len(tail_nodes) == len(set(tail_nodes))


def test_mzf_rejects_rank():
    with pytest.raises(BudgetError):
        suite_mzf(r=9, x_grid=("0.5",), ctx=CTX)
    with pytest.raises(DomainError):
        suite_mzf(r=0, x_grid=("0.5",), ctx=CTX)


def test_run_suite_name_check():
    with pytest.raises(DomainError):
        run_suite("no-such-suite", ctx=CTX)


# for each suite, an option that another suite declares
_FOREIGN_OPTIONS = {
    "r2m2": ("k_max", 3),
    "r3m3": ("x_grid", ("0.5",)),
    "inversion": ("x_grid", ("0.5",)),
    "asymptotic-order": ("k_max", 3),
    "mzf": ("omega", ("1",)),
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_suite_refuses_an_undeclared_option(name):
    # refused before the call: a suite_* given it would raise TypeError
    option, value = _FOREIGN_OPTIONS[name]
    assert option not in suites.SUITES[name][1]
    with pytest.raises(UsageError) as exc:
        run_suite(name, ctx=CTX, **{option: value})
    assert str(exc.value) == "%s does not read %s" % (name, option)


def test_suite_determinism_modulo_wall_time():
    first = suite_r2m2(omega=("2", "3"), a="1", ctx=CTX)
    second = suite_r2m2(omega=("2", "3"), a="1", ctx=CTX)
    assert [_strip_time(r) for r in first] == [_strip_time(r) for r in second]


def test_parallel_dispatch_matches_serial():
    runs = (
        lambda threads: suite_inversion(k_max=2, ctx=CTX, threads=threads),
        # a quadrature x-grid: the serial run reuses its first x's node
        # factors, the forked workers start from the serial run's table
        lambda threads: suite_mzf(r=2, x_grid=("0.5", "1"), ctx=CTX, threads=threads),
        # two depths per x: each worker runs both depths of its x
        lambda threads: suites._run(suites.mzf_point, [("0.5", (2, 3)), ("1", (2, 3))], CTX, None, threads),
    )
    for run in runs:
        serial = run(1)
        parallel = run(2)
        assert [_strip_time(r) for r in serial] == [_strip_time(r) for r in parallel]


def test_run_suite_and_verify_all_call_each_suite(monkeypatch):
    # run_suite looks each suite up when called, so a replaced module
    # attribute (a stub here, a trace wrapper in the benchmark) is used
    calls = []

    def stub(name):
        def suite(ctx=None, tol=None, threads=1, **options):
            calls.append((name, options))
            return []
        return suite

    for name in SUITE_NAMES:
        monkeypatch.setattr(suites, "suite_" + name.replace("-", "_"), stub(name))
    assert verify_all(ctx=CTX) == []
    assert [name for name, _ in calls] == list(SUITE_NAMES)
    calls.clear()
    run_suite("mzf", ctx=CTX, r=2)
    assert calls == [("mzf", {"r": 2})]


def test_suite_options_are_the_declared_ones():
    # each suite_* takes exactly the options SUITES declares for it, so
    # run_suite and the command line pass nothing a suite does not read
    for name, (_, reads) in suites.SUITES.items():
        suite = getattr(suites, "suite_" + name.replace("-", "_"))
        options = set(inspect.signature(suite).parameters) - {"ctx", "tol", "threads"}
        assert options == set(reads), name


def test_mzf_hands_run_one_row_per_x(monkeypatch):
    # one job per x carries every depth, so a worker shares its x's
    # node factors and tail values across the depths
    rows = []

    def dispatched(point, point_rows, *rest):
        rows.append((point, list(point_rows)))
        return []

    monkeypatch.setattr(suites, "_run", dispatched)
    suite_mzf(ctx=CTX)
    suite_mzf(r=4, x_grid=("0.25", "2", "1"), ctx=CTX)
    assert rows == [
        (suites.mzf_point, [("0.5", (1, 2, 3)), ("1", (1, 2, 3))]),
        (suites.mzf_point, [("0.25", (4,)), ("2", (4,)), ("1", (4,))]),
    ]


def test_mzf_refuses_a_repeated_x(monkeypatch):
    monkeypatch.setattr(suites, "_run", None)
    with pytest.raises(DomainError, match="repeats x = 0.50"):
        suite_mzf(r=2, x_grid=("0.5", "1", "0.50"), ctx=CTX)
