"""Named verification suites over fixed parameter grids.

Every report's two sides travel disjoint evaluation routes, declared in
the report's method field: nested polylog series against elementary
closed forms, quadrature against truncated expansions, builtin
classical polylogs against depth-k series.  Grids are fixed defaults so
repeated runs emit identical reports, and multi-worker dispatch sorts
the collected reports by parameters so output order never depends on
scheduling.
"""

import time
from itertools import permutations

from mpmath import mp, mpf

from .asymptotics import main_term_I, power_series_I
from .context import PrecisionContext, to_mpf
from .errors import DomainError
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


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _call(job):
    fn, args = job
    return fn(*args)


def _series_tol(ctx, row):
    # SERIES_TOL, or 2^16 ulps of the context where that is the larger
    return max(to_mpf(SERIES_TOL), ctx.eps * 2 ** 16)


def _order_tol(ctx, row):
    return CONSTANT_TOL if row[0] == "harmonic-constant" else ORDER_TOL


def _quad_tol(ctx, row):
    return QUAD_TOL


def _run(point, rows, ctx, tol, threads, default_tol):
    """Evaluate point(*row, ctx, tol) for every row, serially or over a
    fork pool, and return the reports sorted by parameters.  A tol of
    None takes default_tol(ctx, row)."""
    ctx = ctx or PrecisionContext()
    jobs = [
        (point, tuple(row) + (ctx, to_mpf(default_tol(ctx, row) if tol is None else tol)))
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
    reports = []
    for res in results:
        if isinstance(res, IdentityReport):
            reports.append(res)
        else:
            reports.extend(res)
    reports.sort(key=lambda rep: rep.sort_key())
    return reports


# ---------------------------------------------------------------------------
# two-weight closed evaluation
# ---------------------------------------------------------------------------

def r2m2_point(omega1, omega2, a, ctx, tol):
    t0 = time.perf_counter()
    w = _weights((omega1, omega2), a)
    (o1, o2), av = w.omega, w.a
    with ctx.workprec():
        total = av + o1 + o2
        lhs = mpf(0)
        for om in (o1, o2):
            lhs -= mpl_one_var((2,), (av + om) / total, ctx)
        lhs += 2 * mpl_one_var((2,), av / total, ctx)
        for om in (o1, o2):
            lhs += mpl(PolylogArgs((1, 1), (av / (av + om), (av + om) / total)), ctx)
        rhs = mp.log(o1 / total) * mp.log(o2 / total) - zeta_value(2, ctx)
    return IdentityReport.from_sides(
        "polylog-evaluation/r2m2",
        {"omega": [_s(omega1), _s(omega2)], "a": _s(a)},
        lhs,
        rhs,
        tol,
        {
            "lhs": "nested polylog series, depth one and two",
            "rhs": "elementary logarithms and zeta(2)",
        },
        t0,
    )


def suite_r2m2(grid=None, ctx=None, tol=None, threads=1):
    rows = R2M2_GRID if grid is None else grid
    return _run(r2m2_point, rows, ctx, tol, threads, _series_tol)


# ---------------------------------------------------------------------------
# three-weight closed evaluation
# ---------------------------------------------------------------------------

def r3m3_point(omega1, omega2, omega3, a, ctx, tol):
    t0 = time.perf_counter()
    w = _weights((omega1, omega2, omega3), a)
    oms, av = w.omega, w.a
    with ctx.workprec():
        total = av + sum(oms)
        lhs = mpf(0)
        for om in oms:
            lhs += 2 * mpl_one_var((3,), (total - om) / total, ctx)
            lhs -= 4 * mpl_one_var((3,), (av + om) / total, ctx)
        for p1, p2, _ in permutations(oms):
            u = av + p1
            v = av + p1 + p2
            for index in ((1, 2), (2, 1)):
                lhs -= mpl(PolylogArgs(index, (u / v, v / total)), ctx)
            lhs += mpl(
                PolylogArgs((1, 1, 1), (av / u, u / v, v / total)), ctx
            )
        lhs += 6 * mpl_one_var((3,), av / total, ctx)
        for om in oms:
            lhs += 2 * mpl(
                PolylogArgs((1, 2), (av / (av + om), (av + om) / total)), ctx
            )
            lhs += 2 * mpl(
                PolylogArgs((2, 1), (av / (total - om), (total - om) / total)), ctx
            )
        rhs = -mp.log(oms[0] / total) * mp.log(oms[1] / total) * mp.log(oms[2] / total)
        rhs += zeta_value(2, ctx) * mp.log(oms[0] * oms[1] * oms[2] / total ** 3)
        rhs += 2 * zeta_value(3, ctx)
    return IdentityReport.from_sides(
        "polylog-evaluation/r3m3",
        {"omega": [_s(omega1), _s(omega2), _s(omega3)], "a": _s(a)},
        lhs,
        rhs,
        tol,
        {
            "lhs": "nested polylog series, depth up to three",
            "rhs": "elementary logarithms, zeta(2), zeta(3)",
        },
        t0,
    )


def suite_r3m3(grid=None, ctx=None, tol=None, threads=1):
    rows = R3M3_GRID if grid is None else grid
    return _run(r3m3_point, rows, ctx, tol, threads, _series_tol)


# ---------------------------------------------------------------------------
# depth-k inversion pair
# ---------------------------------------------------------------------------

def inversion_point(omega, a, k_max, ctx, tol):
    """Forward and backward reports for every depth k <= k_max at one
    (omega, a).  Li_1(y) .. Li_{k_max+1}(y) and the depth series are each
    evaluated once and shared by the depths."""
    t0 = time.perf_counter()
    o, av = to_mpf(omega), to_mpf(a)
    if not 0 < o < av:
        raise DomainError("inversion identities require 0 < omega < a")
    k_max = int(k_max)
    if k_max < 1:
        raise DomainError("depth k must be at least 1")
    sides = []
    with ctx.workprec():
        y = av / (av + o)
        L = mp.log(y)
        neg = -o / av
        depth_series = [
            mpl_one_var((1,) * (j - 1) + (2,), neg, ctx) + mpf(-1) ** (j + 1) * zeta_value(j + 1, ctx)
            for j in range(1, k_max + 1)
        ]
        li = [mp.polylog(j + 1, y) for j in range(k_max + 1)]
        for k in range(1, k_max + 1):
            rhs_f = -L ** (k + 1) / mp.factorial(k + 1)
            for j in range(0, k + 1):
                rhs_f += mpf(-1) ** (j + 1) / mp.factorial(k - j) * L ** (k - j) * li[j]
            rhs_b = -L ** (k + 1) / mp.factorial(k + 1)
            rhs_b += mp.log(av / o) * L ** k / mp.factorial(k)
            for j in range(1, k + 1):
                rhs_b += mpf(-1) ** (j + 1) / mp.factorial(k - j) * L ** (k - j) * depth_series[j - 1]
            sides.append((k, depth_series[k - 1], rhs_f, li[k], rhs_b))
    reports = []
    for k, lhs_f, rhs_f, lhs_b, rhs_b in sides:
        params = {"omega": _s(omega), "a": _s(a), "k": str(k)}
        reports.append(IdentityReport.from_sides(
            "polylog-inversion/forward/k%02d" % k,
            params,
            lhs_f,
            rhs_f,
            tol,
            {
                "lhs": "depth-k polylog series at the negative ratio, plus zeta",
                "rhs": "builtin classical polylogs with log prefactors",
            },
            t0,
        ))
        reports.append(IdentityReport.from_sides(
            "polylog-inversion/backward/k%02d" % k,
            params,
            lhs_b,
            rhs_b,
            tol,
            {
                "lhs": "builtin classical polylog",
                "rhs": "depth-j polylog series with log prefactors and zeta",
            },
            t0,
        ))
    return reports


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


def order_point(method, omega, a, ladder, truncation_order, ctx, tol):
    t0 = time.perf_counter()
    xs = _ladder_values(ladder)
    w = _weights(omega, a)
    params = {
        "omega": [_s(o) for o in omega],
        "a": _s(a),
        "x_ladder": [_s(x) for x in ladder],
    }
    if method == "integral-main-term":
        claimed = mpf(1)
        with ctx.workprec():
            defects = [abs(i_integral(x, w, ctx) - main_term_I(x, w, ctx)) for x in xs]
            lhs, rhs = _order_sides(defects, xs, claimed)
        params["claimed_order"] = "1"
        return IdentityReport.from_sides(
            "remainder-order/integral-main-term/r%d" % w.r,
            params,
            lhs,
            rhs,
            tol,
            {
                "lhs": "empirical decay order of quadrature-vs-main-term defects, capped at the claim",
                "rhs": "claimed remainder order",
            },
            t0,
        )
    if method == "truncated-series":
        M = int(truncation_order)
        claimed = mpf(M + 1 - w.r)
        with ctx.workprec():
            defects = [
                abs(i_integral(x, w, ctx) - power_series_I(x, w, M, ctx)) for x in xs
            ]
            lhs, rhs = _order_sides(defects, xs, claimed)
        params["truncation_order"] = str(M)
        params["claimed_order"] = str(M + 1 - w.r)
        return IdentityReport.from_sides(
            "remainder-order/truncated-series/r%d-M%d" % (w.r, M),
            params,
            lhs,
            rhs,
            tol,
            {
                "lhs": "empirical decay order of quadrature-vs-truncation defects, capped at the claim",
                "rhs": "claimed remainder order",
            },
            t0,
        )
    if method == "harmonic-constant":
        if w.r != 1:
            raise DomainError("constant-term recovery is a rank-1 check")
        with ctx.workprec():
            values = [m_integral(x, w, ctx) - 1 / x for x in xs]
            lhs = _lagrange_at_zero(xs, values)
            rhs = euler_gamma(ctx) - mp.log(w.omega[0])
        return IdentityReport.from_sides(
            "harmonic-constant-term/r1",
            params,
            lhs,
            rhs,
            tol,
            {
                "lhs": "polynomial extrapolation of quadrature values to x=0",
                "rhs": "gamma minus log omega",
            },
            t0,
        )
    raise DomainError("unknown order method %r" % (method,))


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
        if isinstance(w, WeightConfig):
            omega, a = tuple(exact_decimal(o) for o in w.omega), exact_decimal(w.a)
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

def mzf_point(r, x, ctx, tol):
    t0 = time.perf_counter()
    r = int(r)
    if not 1 <= r <= 3:
        raise DomainError("rank must lie in 1..3")
    xv = to_mpf(x)
    w = WeightConfig((mpf(1),) * r, mpf(0))
    lhs = m_integral(xv, w, ctx)
    with ctx.workprec():
        if r == 1:
            rhs = mp.zeta(1 + xv)
            rhs_method = "builtin zeta at 1+x"
        else:
            rhs = mp.factorial(r) * zeta_ez_ones(r, xv, ctx)
            rhs_method = "direct outer sum with tail expansion, times r!"
    return IdentityReport.from_sides(
        "multisum-euler-zagier/r%d" % r,
        {"r": str(r), "x": _s(x)},
        lhs,
        rhs,
        tol,
        {
            "lhs": "double-exponential quadrature of the log-product integral",
            "rhs": rhs_method,
        },
        t0,
    )


def suite_mzf(r_values=None, x_grid=None, ctx=None, tol=None, threads=1):
    r_values = MZF_R_VALUES if r_values is None else [int(r) for r in r_values]
    x_grid = MZF_X_GRID if x_grid is None else x_grid
    rows = [(r, x) for r in r_values for x in x_grid]
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
