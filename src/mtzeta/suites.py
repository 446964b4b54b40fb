"""Named verification suites over fixed parameter grids.

Each grid point declares its two routes and nothing more: a point
returns lhs() and rhs(), zero-argument evaluations of the two sides,
and a reports(lhs_value, rhs_value) step that turns their values into
(identity_id, params, method, lhs, rhs, gate) tuples with elementary
arithmetic alone; gate is the tolerance a report passes under unless
the caller gives one.  The dispatcher evaluates lhs() and then rhs(), times
the point, and builds every IdentityReport.  The routes are disjoint:
the coefficient c_{r,r} as nested polylog series against its
Bell-polynomial closed form c'_{r,r}, quadrature against truncated
expansions, builtin classical polylogs against depth-k series;
tests/test_routes.py records each route of every default report and
checks that they share no code.  Grids are fixed defaults so repeated
runs emit identical reports, and multi-worker dispatch sorts the
collected reports by parameters so output order never depends on
scheduling.  SUITES declares each suite once, for run_suite,
verify_all and `mtz verify` alike.
"""

import time
from math import factorial

from mpmath import mp, mpf

from .asymptotics import c_coeff, c_prime_coeff, check_order, main_term_I, power_series_I
from .context import MAX_RANK, PrecisionContext, to_mpf
from .errors import BudgetError, DomainError, UsageError
from .kernel import euler_gamma, zeta_value
from .polylog import mpl_one_var
from .reports import IdentityReport, exact_decimal
from .series import WeightConfig, i_integral, m_integral, zeta_ez_ones

# the series gate is SERIES_TOL, or 2^16 ulps of the context where that
# is the larger
SERIES_TOL = "1e-30"
QUAD_TOL = "1e-9"
ORDER_TOL = "0.2"
CONSTANT_TOL = "1e-6"

# Each suite: the weights its omega takes (None: any number), and the
# options it reads, named after their flags, each mapped to the option it
# needs beside it; an (option, value) pair is needed with that value only.
SUITES = {
    "r2m2": (2, {"omega": None, "a": "omega"}),
    "r3m3": (3, {"omega": None, "a": "omega"}),
    "inversion": (1, {"omega": "a", "a": "omega", "k_max": None}),
    "asymptotic-order": (None, dict.fromkeys(("omega", "a", "r", "x_ladder"), "method")
                         | {"method": "omega", "order": ("method", "truncated-series")}),
    "mzf": (None, {"r": None, "x_grid": None}),
}
SUITE_NAMES = tuple(SUITES)

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
    return v if isinstance(v, str) else exact_decimal(v)


def refuse_unread(label, reads, given, spell=str):
    """Refuse each option given (not None) that reads, a SUITES entry's
    options, does not name, or whose companion there is not given."""
    unread = []
    for name in [n for n, v in given.items() if v is not None]:
        needs = reads.get(name)
        if name not in reads:
            unread.append(spell(name))
        elif isinstance(needs, tuple) and given.get(needs[0]) != needs[1]:
            unread.append("%s without %s %s" % (spell(name), spell(needs[0]), needs[1]))
        elif isinstance(needs, str) and given.get(needs) is None:
            unread.append("%s without %s" % (spell(name), spell(needs)))
    if unread:
        raise UsageError("%s does not read %s" % (label, ", ".join(unread)))


def _rows(name, omega, a, default):
    """default when omega is None, else the one row (*omega, a or 0),
    refused unless omega holds the weights that SUITES declares."""
    refuse_unread(name, SUITES[name][1], {"omega": omega, "a": a})
    if omega is None:
        return default
    count = SUITES[name][0]
    if len(omega) != count:
        raise UsageError("%s takes %d weight(s), got %d" % (name, count, len(omega)))
    return [tuple(omega) + ("0" if a is None else a,)]


def _single(identity_id, params, method, gate):
    """The reports step of a point whose two sides are one report's."""
    return lambda lhs, rhs: [(identity_id, params, method, lhs, rhs, gate)]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _call(job):
    """Evaluate one point in the worker: its lhs route, then its rhs
    route, then its reports step, all at the context's working
    precision.  Every report of the point carries the point's time, and
    tol, or the point's own gate where tol is None."""
    point, row, ctx, tol = job
    t0 = time.perf_counter()
    lhs, rhs, reports = point(*row, ctx)
    with ctx.workprec():
        lhs_value = lhs()
        rhs_value = rhs()
        sides = reports(lhs_value, rhs_value)
    return [
        IdentityReport.from_sides(identity_id, params, lhs, rhs, to_mpf(gate) if tol is None else tol,
                                  method, t0)
        for identity_id, params, method, lhs, rhs, gate in sides
    ]


def _run(point, rows, ctx, tol, threads):
    """Evaluate point(*row, ctx) for every row, serially or over a fork
    pool, and return the reports sorted by parameters.  A tol of None
    leaves each report its point's gate."""
    ctx = ctx or PrecisionContext()
    jobs = [(point, tuple(row), ctx, None if tol is None else to_mpf(tol)) for row in rows]
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
# c_{r,r} by its two expansions
# ---------------------------------------------------------------------------

def relation_point(*row):
    """c_{r,r} as the paper's sum of polylogarithms over subset families
    against c'_{r,r}, its Bell-polynomial closed form, where the row is
    (omega_1, .., omega_r, a) and r is the number of weights."""
    *omega, a, ctx = row
    w = WeightConfig(tuple(omega), a)
    r = w.r
    return (
        lambda: c_coeff(r, r, w, ctx),
        lambda: c_prime_coeff(r, r, w, ctx),
        _single(
            "polylog-evaluation/r%dm%d" % (r, r),
            {"omega": [_s(o) for o in omega], "a": _s(a)},
            {
                "lhs": "c_{r,r}: nested polylog series over ordered subset families",
                "rhs": "c'_{r,r}: Bell-polynomial closed form in logarithms and zeta values",
            },
            max(to_mpf(SERIES_TOL), ctx.eps * 2 ** 16),
        ),
    )


def suite_r2m2(omega=None, a=None, ctx=None, tol=None, threads=1):
    return _run(relation_point, _rows("r2m2", omega, a, R2M2_GRID), ctx, tol, threads)


def suite_r3m3(omega=None, a=None, ctx=None, tol=None, threads=1):
    return _run(relation_point, _rows("r3m3", omega, a, R3M3_GRID), ctx, tol, threads)


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
    gate = max(to_mpf(SERIES_TOL), ctx.eps * 2 ** 16)

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
                gate,
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
                gate,
            ))
        return sides

    return series, classical, reports


def suite_inversion(omega=None, a=None, k_max=None, ctx=None, tol=None, threads=1):
    k_max = INVERSION_K_MAX if k_max is None else k_max
    rows = [row + (k_max,) for row in _rows("inversion", omega, a, INVERSION_GRID)]
    return _run(inversion_point, rows, ctx, tol, threads)


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


def order_point(method, omega, a, x_ladder, order, ctx):
    xs = _ladder_values(x_ladder)
    w = WeightConfig(tuple(omega), a)
    params = {
        "omega": [_s(o) for o in omega],
        "a": _s(a),
        "x_ladder": [_s(x) for x in x_ladder],
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
            }, CONSTANT_TOL),
        )
    if method == "integral-main-term":
        claimed = 1
        identity_id = "remainder-order/integral-main-term/r%d" % w.r
        against = "main-term"

        def expansion(x):
            return main_term_I(x, w, ctx)
    elif method == "truncated-series":
        if order is None:
            raise DomainError("truncated-series needs a truncation order")
        M = int(order)
        # power_series_I's refusals, made before the quadratures
        check_order(w.r, M)
        if not xs[0] < 1:
            raise DomainError("the power series representation requires 0 < x < 1")
        claimed = M + 1 - w.r
        identity_id = "remainder-order/truncated-series/r%d-M%d" % (w.r, M)
        against = "truncation"
        params["truncation_order"] = str(M)

        def expansion(x):
            return power_series_I(x, w, M, ctx)
    else:
        raise UsageError("unknown order method %r; choose from integral-main-term, "
                         "truncated-series, harmonic-constant" % (method,))
    params["claimed_order"] = str(claimed)

    def reports(quadrature, expansions):
        defects = [abs(q - e) for q, e in zip(quadrature, expansions)]
        lhs, rhs = _order_sides(defects, xs, mpf(claimed))
        return [(identity_id, params, {
            "lhs": "empirical decay order of quadrature-vs-%s defects, capped at the claim" % against,
            "rhs": "claimed remainder order",
        }, lhs, rhs, ORDER_TOL)]

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
    method=None, omega=None, a=None, r=None, x_ladder=None, order=None,
    ctx=None, tol=None, threads=1,
):
    refuse_unread("asymptotic-order", SUITES["asymptotic-order"][1], dict(
        method=method, omega=omega, a=a, r=r, x_ladder=x_ladder, order=order))
    if method is None:
        rows = ORDER_DEFAULTS
    else:
        if r is not None and int(r) != len(omega):
            raise DomainError("rank r must match the number of weights")
        x_ladder = ORDER_LADDER if x_ladder is None else tuple(x_ladder)
        rows = [(method, tuple(omega), "0" if a is None else a, x_ladder, order)]
    return _run(order_point, rows, ctx, tol, threads)


# ---------------------------------------------------------------------------
# harmonic multi-sum against all-ones Euler-Zagier values
# ---------------------------------------------------------------------------

def mzf_point(x, depths, ctx):
    """Reports for every depth in depths at one x: each route evaluates
    every depth in turn, sharing its x's node factors or tail values."""
    xv = to_mpf(x)
    weights = [WeightConfig((mpf(1),) * r, mpf(0)) for r in depths]

    def rhs():
        return [
            mp.zeta(1 + xv) if r == 1 else mp.factorial(r) * zeta_ez_ones(r, xv, ctx)
            for r in depths
        ]

    def reports(quadratures, sums):
        return [
            ("multisum-euler-zagier/r%d" % r, {"r": str(r), "x": _s(x)}, {
                "lhs": "double-exponential quadrature of the log-product integral",
                "rhs": "builtin zeta at 1+x" if r == 1 else "direct outer sum with tail expansion, times r!",
            }, quadrature, value, QUAD_TOL)
            for r, quadrature, value in zip(depths, quadratures, sums)
        ]

    return (lambda: [m_integral(xv, w, ctx) for w in weights]), rhs, reports


def suite_mzf(r=None, x_grid=None, ctx=None, tol=None, threads=1):
    depths = MZF_R_VALUES if r is None else (int(r),)
    if not 1 <= depths[0] <= MAX_RANK:
        raise (DomainError if depths[0] < 1 else BudgetError)("rank must lie in 1..%d" % MAX_RANK)
    x_grid = MZF_X_GRID if x_grid is None else tuple(x_grid)
    for i, x in enumerate(x_grid):
        if to_mpf(x) in [to_mpf(y) for y in x_grid[:i]]:
            raise UsageError("mzf x-grid repeats x = %s" % x)
    # one job per x, so each x's depth-independent work is shared across r
    return _run(mzf_point, [(x, depths) for x in x_grid], ctx, tol, threads)


# ---------------------------------------------------------------------------
# everything
# ---------------------------------------------------------------------------

def run_suite(name, ctx=None, tol=None, threads=1, **options):
    """Run suite_<name>, looked up when called, with the options that
    SUITES declares for it; refuse any other, as the command line does."""
    if name not in SUITES:
        raise DomainError("unknown suite %r" % (name,))
    refuse_unread(name, SUITES[name][1], options)
    suite = globals()["suite_" + name.replace("-", "_")]
    return suite(ctx=ctx, tol=tol, threads=threads, **options)


def verify_all(ctx=None, tol=None, threads=1):
    return [rep for name in SUITES for rep in run_suite(name, ctx=ctx, tol=tol, threads=threads)]
