"""Named verification suites over fixed parameter grids.

Each grid point declares its two routes and nothing more: a point
returns lhs() and rhs(), zero-argument evaluations of the two sides,
and a reports(lhs_value, rhs_value) step that turns their values into
(identity_id, params, method, lhs, rhs) tuples with elementary
arithmetic alone.  The dispatcher evaluates lhs() and then rhs(), times
the point, and builds every IdentityReport.  The routes are disjoint:
nested polylog series against elementary closed forms, quadrature
against truncated expansions, builtin classical polylogs against
depth-k series; tests/test_routes.py records each route of every
default report and checks that they share no code.  Grids are fixed
defaults so repeated runs emit identical reports, and multi-worker
dispatch sorts the collected reports by parameters so output order
never depends on scheduling.
"""

import time
from itertools import permutations
from math import factorial

from mpmath import mp, mpf

from .asymptotics import main_term_I, power_series_I
from .context import MAX_RANK, PrecisionContext, to_mpf
from .errors import BudgetError, DomainError
from .kernel import euler_gamma, zeta_value
from .polylog import PolylogArgs, mpl, mpl_one_var
from .reports import IdentityReport, exact_decimal
from .series import WeightConfig, i_integral, m_integral, zeta_ez_ones

SERIES_TOL = "1e-30"
QUAD_TOL = "1e-9"
ORDER_TOL = "0.2"
CONSTANT_TOL = "1e-6"

R2M2_GRID = (
    ("1", "1", "0"),
    ("2", "3", "1"),
    ("0.5", "1.5", "0.25"),
    ("1", "2", "0"),
    ("3", "2", "2"),
)
R3M3_GRID = (
    ("1", "1", "1", "0"),
    ("1", "2", "3", "1"),
    ("0.7", "1.3", "2.1", "0.5"),
)
INVERSION_GRID = (("1", "3"),)
INVERSION_K_MAX = 5
MZF_R_VALUES = (1, 2, 3)
MZF_X_GRID = ("0.5", "1")


def _s(v):
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return exact_decimal(v)


def _weights(omega, a):
    return WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))


def _single(identity_id, params, method):
    """The reports step of a point whose two sides are one report's."""
    return lambda lhs, rhs: [(identity_id, params, method, lhs, rhs)]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _call(job):
    """Evaluate one point in the worker: its lhs route, then its rhs
    route, then its reports step, all at the context's working
    precision.  Every report of the point carries the point's time."""
    point, row, ctx, tol = job
    t0 = time.perf_counter()
    lhs, rhs, reports = point(*row, ctx)
    with ctx.workprec():
        lhs_value = lhs()
        rhs_value = rhs()
        sides = reports(lhs_value, rhs_value)
    return [
        IdentityReport.from_sides(identity_id, params, lhs, rhs, tol, method, t0)
        for identity_id, params, method, lhs, rhs in sides
    ]


def _series_tol(ctx, row):
    # SERIES_TOL, or 2^16 ulps of the context where that is the larger
    return max(to_mpf(SERIES_TOL), ctx.eps * 2 ** 16)


def _order_tol(ctx, row):
    return CONSTANT_TOL if row[0] == "harmonic-constant" else ORDER_TOL


def _quad_tol(ctx, row):
    return QUAD_TOL


def _run(point, rows, ctx, tol, threads, default_tol):
    """Evaluate point(*row, ctx) for every row, serially or over a fork
    pool, and return the reports sorted by parameters.  A tol of None
    takes default_tol(ctx, row)."""
    ctx = ctx or PrecisionContext()
    jobs = [
        (point, tuple(row), ctx, to_mpf(default_tol(ctx, row) if tol is None else tol))
        for row in rows
    ]
    fork = None
    if threads and int(threads) > 1:
        # imported here: a serial run does not pay for the pool modules
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            fork = multiprocessing.get_context("fork")
        except ValueError:
            pass
    if fork is not None:
        with ProcessPoolExecutor(max_workers=int(threads), mp_context=fork) as pool:
            results = list(pool.map(_call, jobs))
    else:
        results = [_call(job) for job in jobs]
    reports = [rep for res in results for rep in res]
    reports.sort(key=lambda rep: rep.sort_key())
    return reports


# ---------------------------------------------------------------------------
# two-weight closed evaluation
# ---------------------------------------------------------------------------

def r2m2_point(omega1, omega2, a, ctx):
    w = _weights((omega1, omega2), a)
    (o1, o2), av = w.omega, w.a

    def lhs():
        total = av + o1 + o2
        value = mpf(0)
        for om in (o1, o2):
            value -= mpl_one_var((2,), (av + om) / total, ctx)
        value += 2 * mpl_one_var((2,), av / total, ctx)
        for om in (o1, o2):
            value += mpl(PolylogArgs((1, 1), (av / (av + om), (av + om) / total)), ctx)
        return value

    def rhs():
        total = av + o1 + o2
        return mp.log(o1 / total) * mp.log(o2 / total) - zeta_value(2, ctx)

    return lhs, rhs, _single(
        "polylog-evaluation/r2m2",
        {"omega": [_s(omega1), _s(omega2)], "a": _s(a)},
        {
            "lhs": "nested polylog series, depth one and two",
            "rhs": "elementary logarithms and zeta(2)",
        },
    )


def suite_r2m2(grid=None, ctx=None, tol=None, threads=1):
    rows = R2M2_GRID if grid is None else grid
    return _run(r2m2_point, rows, ctx, tol, threads, _series_tol)


# ---------------------------------------------------------------------------
# three-weight closed evaluation
# ---------------------------------------------------------------------------

def r3m3_point(omega1, omega2, omega3, a, ctx):
    w = _weights((omega1, omega2, omega3), a)
    oms, av = w.omega, w.a

    def lhs():
        total = av + sum(oms)
        value = mpf(0)
        for om in oms:
            value += 2 * mpl_one_var((3,), (total - om) / total, ctx)
            value -= 4 * mpl_one_var((3,), (av + om) / total, ctx)
        for p1, p2, _ in permutations(oms):
            u = av + p1
            v = av + p1 + p2
            for index in ((1, 2), (2, 1)):
                value -= mpl(PolylogArgs(index, (u / v, v / total)), ctx)
            value += mpl(
                PolylogArgs((1, 1, 1), (av / u, u / v, v / total)), ctx
            )
        value += 6 * mpl_one_var((3,), av / total, ctx)
        for om in oms:
            value += 2 * mpl(
                PolylogArgs((1, 2), (av / (av + om), (av + om) / total)), ctx
            )
            value += 2 * mpl(
                PolylogArgs((2, 1), (av / (total - om), (total - om) / total)), ctx
            )
        return value

    def rhs():
        total = av + sum(oms)
        value = -mp.log(oms[0] / total) * mp.log(oms[1] / total) * mp.log(oms[2] / total)
        value += zeta_value(2, ctx) * mp.log(oms[0] * oms[1] * oms[2] / total ** 3)
        return value + 2 * zeta_value(3, ctx)

    return lhs, rhs, _single(
        "polylog-evaluation/r3m3",
        {"omega": [_s(omega1), _s(omega2), _s(omega3)], "a": _s(a)},
        {
            "lhs": "nested polylog series, depth up to three",
            "rhs": "elementary logarithms, zeta(2), zeta(3)",
        },
    )


def suite_r3m3(grid=None, ctx=None, tol=None, threads=1):
    rows = R3M3_GRID if grid is None else grid
    return _run(r3m3_point, rows, ctx, tol, threads, _series_tol)


# ---------------------------------------------------------------------------
# depth-k inversion pair
# ---------------------------------------------------------------------------

def inversion_point(omega, a, k_max, ctx):
    """Forward and backward reports for every depth k <= k_max at one
    (omega, a).  The series route returns every depth series and the
    classical route Li_1(y) .. Li_{k_max+1}(y), so each is evaluated
    once and shared by the depths."""
    o, av = to_mpf(omega), to_mpf(a)
    if not 0 < o < av:
        raise DomainError("inversion identities require 0 < omega < a")
    k_max = int(k_max)
    if k_max < 1:
        raise DomainError("depth k must be at least 1")

    def series():
        neg = -o / av
        return [
            mpl_one_var((1,) * (j - 1) + (2,), neg, ctx) + mpf(-1) ** (j + 1) * zeta_value(j + 1, ctx)
            for j in range(1, k_max + 1)
        ]

    def classical():
        y = av / (av + o)
        return [mp.polylog(j + 1, y) for j in range(k_max + 1)]

    def reports(depth_series, li):
        L = mp.log(av / (av + o))
        sides = []
        for k in range(1, k_max + 1):
            rhs_f = -L ** (k + 1) / factorial(k + 1)
            for j in range(0, k + 1):
                rhs_f += mpf(-1) ** (j + 1) / factorial(k - j) * L ** (k - j) * li[j]
            rhs_b = -L ** (k + 1) / factorial(k + 1)
            rhs_b += mp.log(av / o) * L ** k / factorial(k)
            for j in range(1, k + 1):
                rhs_b += mpf(-1) ** (j + 1) / factorial(k - j) * L ** (k - j) * depth_series[j - 1]
            params = {"omega": _s(omega), "a": _s(a), "k": str(k)}
            sides.append((
                "polylog-inversion/forward/k%02d" % k,
                params,
                {
                    "lhs": "depth-k polylog series at the negative ratio, plus zeta",
                    "rhs": "builtin classical polylogs with log prefactors",
                },
                depth_series[k - 1],
                rhs_f,
            ))
            sides.append((
                "polylog-inversion/backward/k%02d" % k,
                params,
                {
                    "lhs": "builtin classical polylog",
                    "rhs": "depth-j polylog series with log prefactors and zeta",
                },
                li[k],
                rhs_b,
            ))
        return sides

    return series, classical, reports


def suite_inversion(k_max=None, grid=None, ctx=None, tol=None, threads=1):
    k_max = INVERSION_K_MAX if k_max is None else int(k_max)
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    grid = INVERSION_GRID if grid is None else grid
    rows = [(o, a, k_max) for o, a in grid]
    return _run(inversion_point, rows, ctx, tol, threads, _series_tol)


# ---------------------------------------------------------------------------
# remainder order ladders
# ---------------------------------------------------------------------------

def _ladder_values(ladder):
    xs = [to_mpf(s) for s in ladder]
    if len(xs) < 3:
        raise DomainError("order ladder needs at least 3 points")
    for x0, x1 in zip(xs, xs[1:]):
        if not x1 < x0:
            raise DomainError("order ladder must be strictly decreasing")
    if xs[-1] <= 0:
        raise DomainError("ladder points must be positive")
    return xs


def _order_sides(defects, xs, claimed):
    orders = []
    for (d0, x0), (d1, x1) in zip(zip(defects, xs), zip(defects[1:], xs[1:])):
        if d0 == 0 or d1 == 0:
            # defect at the rounding floor resolves no order; such a
            # step cannot contradict the claim
            orders.append(claimed)
        else:
            orders.append(mp.log(d0 / d1) / mp.log(x0 / x1))
    empirical = min(orders)
    return min(empirical, claimed), claimed


def _lagrange_at_zero(xs, ys):
    total = mpf(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        weight = mpf(1)
        for j, xj in enumerate(xs):
            if j != i:
                weight *= xj / (xj - xi)
        total += yi * weight
    return total


def order_point(method, omega, a, ladder, truncation_order, ctx):
    xs = _ladder_values(ladder)
    w = _weights(omega, a)
    params = {
        "omega": [_s(o) for o in omega],
        "a": _s(a),
        "x_ladder": [_s(x) for x in ladder],
    }
    if method == "harmonic-constant":
        if w.r != 1:
            raise DomainError("constant-term recovery is a rank-1 check")
        return (
            lambda: _lagrange_at_zero(xs, [m_integral(x, w, ctx) - 1 / x for x in xs]),
            lambda: euler_gamma(ctx) - mp.log(w.omega[0]),
            _single("harmonic-constant-term/r1", params, {
                "lhs": "polynomial extrapolation of quadrature values to x=0",
                "rhs": "gamma minus log omega",
            }),
        )
    if method == "integral-main-term":
        claimed = 1
        identity_id = "remainder-order/integral-main-term/r%d" % w.r
        against = "main-term"

        def expansion(x):
            return main_term_I(x, w, ctx)
    elif method == "truncated-series":
        if truncation_order is None:
            raise DomainError("truncated-series needs a truncation order")
        M = int(truncation_order)
        claimed = M + 1 - w.r
        identity_id = "remainder-order/truncated-series/r%d-M%d" % (w.r, M)
        against = "truncation"
        params["truncation_order"] = str(M)

        def expansion(x):
            return power_series_I(x, w, M, ctx)
    else:
        raise DomainError("unknown order method %r" % (method,))
    params["claimed_order"] = str(claimed)

    def reports(quadrature, expansions):
        defects = [abs(q - e) for q, e in zip(quadrature, expansions)]
        lhs, rhs = _order_sides(defects, xs, mpf(claimed))
        return [(identity_id, params, {
            "lhs": "empirical decay order of quadrature-vs-%s defects, capped at the claim" % against,
            "rhs": "claimed remainder order",
        }, lhs, rhs)]

    return (
        lambda: [i_integral(x, w, ctx) for x in xs],
        lambda: [expansion(x) for x in xs],
        reports,
    )


ORDER_LADDER = ("0.02", "0.01", "0.005")
ORDER_DEFAULTS = (
    ("integral-main-term", ("1.5",), "0.7", ORDER_LADDER, None),
    ("integral-main-term", ("1", "2"), "0.3", ORDER_LADDER, None),
    ("truncated-series", ("1", "2"), "0.3", ("0.1", "0.05", "0.025"), 4),
    ("harmonic-constant", ("1.5",), "0.2", ("0.01", "0.005", "0.0025"), None),
)


def suite_asymptotic_order(
    w=None, r=None, method=None, ladder=None, truncation_order=None,
    ctx=None, tol=None, threads=1,
):
    if method is None:
        rows = ORDER_DEFAULTS
    else:
        omega, a = tuple(w[0]), w[1]
        if r is not None and int(r) != len(omega):
            raise DomainError("rank r must match the number of weights")
        ladder = ORDER_LADDER if ladder is None else tuple(ladder)
        rows = [(method, omega, a, ladder, truncation_order)]
    return _run(order_point, rows, ctx, tol, threads, _order_tol)


# ---------------------------------------------------------------------------
# harmonic multi-sum against all-ones Euler-Zagier values
# ---------------------------------------------------------------------------

def mzf_point(r, x, ctx):
    r = int(r)
    if not 1 <= r <= MAX_RANK:  # refused before either route runs
        raise (DomainError if r < 1 else BudgetError)("rank must lie in 1..%d" % MAX_RANK)
    xv = to_mpf(x)
    w = WeightConfig((mpf(1),) * r, mpf(0))

    def rhs():
        if r == 1:
            return mp.zeta(1 + xv)
        return mp.factorial(r) * zeta_ez_ones(r, xv, ctx)

    return (lambda: m_integral(xv, w, ctx)), rhs, _single(
        "multisum-euler-zagier/r%d" % r,
        {"r": str(r), "x": _s(x)},
        {
            "lhs": "double-exponential quadrature of the log-product integral",
            "rhs": "builtin zeta at 1+x" if r == 1 else "direct outer sum with tail expansion, times r!",
        },
    )


def suite_mzf(r_values=None, x_grid=None, ctx=None, tol=None, threads=1):
    r_values = MZF_R_VALUES if r_values is None else [int(r) for r in r_values]
    x_grid = MZF_X_GRID if x_grid is None else x_grid
    # x-major, so each x's depth-independent work is shared across r
    rows = [(r, x) for x in x_grid for r in r_values]
    return _run(mzf_point, rows, ctx, tol, threads, _quad_tol)


# ---------------------------------------------------------------------------
# everything
# ---------------------------------------------------------------------------

SUITE_NAMES = ("r2m2", "r3m3", "inversion", "asymptotic-order", "mzf")


def run_suite(name, ctx=None, tol=None, threads=1, **options):
    """Run suite_<name>, looked up when called, with the suite's own
    keyword options."""
    if name not in SUITE_NAMES:
        raise DomainError("unknown suite %r" % (name,))
    suite = globals()["suite_" + name.replace("-", "_")]
    return suite(ctx=ctx, tol=tol, threads=threads, **options)


def verify_all(ctx=None, tol=None, threads=1):
    reports = []
    for name in SUITE_NAMES:
        reports.extend(run_suite(name, ctx=ctx, tol=tol, threads=threads))
    return reports
