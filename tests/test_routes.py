"""Route independence: the two sides of every default verify report
share no code beyond bookkeeping.

suites._run is replaced by a recorder of its (point, rows, ctx), so
verify_all yields every default point without evaluating it.  Each
point's lhs route, its rhs route and then its reports step run under
their own sys.setprofile recorder.  A recorder collects every mtzeta
function entered, by module and qualified name, and every wrapped
mpmath special function that mtzeta code calls directly.  The value
caches start empty for each route, so a cache filled by one route never
hides what the other reaches; every module-level dict and lru_cache of
the evaluator modules is one of those caches or a named shared table.
Every function of the evaluator modules is then reached by some route,
or listed in UNREACHED.
"""

import functools
import os
import sys

import pytest
from mpmath import mp

import mtzeta
from mtzeta import asymptotics, combinatorics, jets, kernel, polylog, quadrature, series, suites
from mtzeta.context import PrecisionContext

CTX = PrecisionContext()
PACKAGE = os.path.dirname(mtzeta.__file__) + os.sep

# all that the two routes of a point may share, and all that a reports
# step may reach: precision and error plumbing, the suites' own
# arithmetic, the weight record, two constants and the report record
ALLOWED_PREFIXES = (
    "mtzeta.context.",
    "mtzeta.errors.",
    "mtzeta.suites.",
    "mtzeta.series.WeightConfig.",
    "mtzeta.reports.",
)
ALLOWED_FUNCTIONS = {"mtzeta.kernel.zeta_value", "mtzeta.kernel.euler_gamma"}

SPECIAL = (
    "gamma", "loggamma", "rgamma", "zeta", "polylog", "e1", "psi", "quad",
    "bernoulli", "factorial",
)
# the special functions that both routes of a report family call: the
# quadrature divides its Mellin integral by Gamma(x), and the main term
# is normalised by Gamma(x + 1)
SHARED_SPECIAL = {"remainder-order/integral-main-term": {"gamma"}}

# value caches that would let one route skip work the other did: each
# route gets an empty dict, or a fresh lru_cache of the same function
CACHES = ((polylog, "_CACHE"), (series, "_node_table"), (series, "_x_tables"))
# module-level tables that may stay warm across routes, because a hit
# skips only mpmath-internal calls that no route records
SHARED_TABLES = {
    "mtzeta.quadrature._nodes": "DE node rows from libmp's cosh, sinh and exp",
    "mtzeta.quadrature._far_u": "the two u of a folded node from libmp's log",
    "mtzeta.series._log_u": "log u at a node from libmp's mpf_log",
    "mtzeta.kernel._bernfrac": "B_2k as exact fractions from mp.bernfrac",
}

DEFAULT_REPORTS = 28
# points outside verify all whose routes are checked as well, one report
# each: depth 4 is no default mzf point and rank 4 no default
# polylog-evaluation point, since the golden files and the benchmark pin
# the 28 default reports
EXTRA_POINTS = (
    (suites.mzf_point, ("0.5", (4,))),
    (suites.relation_point, ("1", "2", "3", "4", "0.5")),
)


# the evaluator modules, each of whose functions some route must reach
EVALUATORS = (asymptotics, series, polylog, kernel, jets, combinatorics, quadrature)
# the evaluator functions that no route reaches yet; the list may only shrink
UNREACHED = {
    "mtzeta.asymptotics." + name
    for name in ("expression_by_S", "i1_expansion", "main_term_M")
} | {
    "mtzeta.kernel.bell_complete",
    "mtzeta.kernel.loggamma_jet",
    "mtzeta.kernel.stirling_first_unsigned",
    "mtzeta.polylog.hurwitz_li0",
    "mtzeta.polylog.hurwitz_li1",
    "mtzeta.series._degree_profile",
    "mtzeta.series.s_series",
    "mtzeta.series.t_coeff",
} | {
    "mtzeta.jets.Jet." + name
    for name in (
        "__add__", "__neg__", "__pow__", "__repr__", "__rsub__", "__rtruediv__", "__sub__",
        "__truediv__", "constant", "derivative_value", "log", "variable",
    )
}


def _allowed(name):
    return name in ALLOWED_FUNCTIONS or name.startswith(ALLOWED_PREFIXES)


class _Record:
    """What one route reached: mtzeta functions and special functions."""

    def __init__(self):
        self.functions = set()
        self.special = set()


_active = []


def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(PACKAGE):
        _active[-1].functions.add(frame.f_globals["__name__"] + "." + code.co_qualname)


def _wrap(name, original):
    def wrapped(*args, **kwargs):
        if _active and sys._getframe(1).f_code.co_filename.startswith(PACKAGE):
            _active[-1].special.add(name)
        return original(*args, **kwargs)

    return wrapped


def _cold(cache):
    if isinstance(cache, dict):
        return {}
    return functools.lru_cache(**cache.cache_parameters())(cache.__wrapped__)


def _recorded(patch, fn, *args):
    for module, attr in CACHES:
        patch.setattr(module, attr, _cold(getattr(module, attr)))
    record = _Record()
    _active.append(record)
    previous = sys.getprofile()
    sys.setprofile(_profile)
    try:
        value = fn(*args)
    finally:
        sys.setprofile(previous)
        _active.pop()
    return value, record


@pytest.fixture(scope="module")
def points():
    """(identity ids, lhs record, rhs record, reports record) for every
    default point of verify all and every extra point."""
    captured = []
    recorded = []

    def capture(point, rows, ctx, *rest):
        captured.append((point, rows, ctx))
        return []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "_run", capture)
        assert suites.verify_all(ctx=CTX) == []
        captured += [(point, [row], CTX) for point, row in EXTRA_POINTS]
        for name in SPECIAL:
            patch.setattr(mp, name, _wrap(name, getattr(mp, name)))
        for point, rows, ctx in captured:
            for row in rows:
                lhs, rhs, reports = point(*row, ctx)
                with ctx.workprec():
                    lhs_value, lhs_record = _recorded(patch, lhs)
                    rhs_value, rhs_record = _recorded(patch, rhs)
                    sides, reports_record = _recorded(patch, reports, lhs_value, rhs_value)
                ids = [identity_id for identity_id, *_ in sides]
                recorded.append((ids, lhs_record, rhs_record, reports_record))
    return recorded


def test_routes_cover_every_default_report(points):
    ids = [identity_id for point_ids, *_ in points for identity_id in point_ids]
    assert len(ids) == DEFAULT_REPORTS + len(EXTRA_POINTS)
    assert {"multisum-euler-zagier/r4", "polylog-evaluation/r4m4"} <= set(ids)
    # the recorder sees the evaluators on each side, not an empty trace
    lhs_reached = set().union(*(lhs.functions for _, lhs, _, _ in points))
    rhs_reached = set().union(*(rhs.functions for _, _, rhs, _ in points))
    rhs_special = set().union(*(rhs.special for _, _, rhs, _ in points))
    assert {"mtzeta.polylog.mpl", "mtzeta.asymptotics.c_coeff", "mtzeta.series.i_integral",
            "mtzeta.series.m_integral"} <= lhs_reached
    assert {"mtzeta.series.zeta_ez_ones", "mtzeta.asymptotics.c_prime_coeff",
            "mtzeta.asymptotics.main_term_I", "mtzeta.asymptotics.power_series_I"} <= rhs_reached
    assert {"polylog", "quad"} <= rhs_special


def test_routes_share_only_bookkeeping(points):
    for ids, lhs, rhs, _ in points:
        shared = sorted(f for f in lhs.functions & rhs.functions if not _allowed(f))
        assert shared == [], ids


def test_reports_steps_are_elementary(points):
    for ids, _, _, reports in points:
        assert sorted(f for f in reports.functions if not _allowed(f)) == [], ids
        assert reports.special == set(), ids


def test_shared_special_functions_are_the_named_exceptions(points):
    for ids, lhs, rhs, _ in points:
        expected = set().union(*(SHARED_SPECIAL.get(i.rsplit("/", 1)[0], set()) for i in ids))
        assert lhs.special & rhs.special == expected, ids


def _defined(module):
    """The names, as the recorder spells them, of the module's functions
    and its classes' methods and property getters whose code is in its
    file; nested functions are not included."""
    names = set()
    for value in vars(module).values():
        for member in vars(value).values() if isinstance(value, type) else [value]:
            member = member.fget if isinstance(member, property) else member
            member = getattr(member, "__func__", member)  # classmethod, staticmethod
            member = getattr(member, "__wrapped__", member)  # lru_cache
            code = getattr(member, "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                names.add(module.__name__ + "." + code.co_qualname)
    return names


def test_every_evaluator_function_is_reached_or_listed(points):
    reached = set().union(*(lhs.functions | rhs.functions for _, lhs, rhs, _ in points))
    defined = {name for module in EVALUATORS for name in _defined(module) if not _allowed(name)}
    assert sorted(UNREACHED - defined) == []
    assert sorted(defined - reached - UNREACHED) == []
    assert sorted(UNREACHED & reached) == []


def test_every_value_cache_is_made_cold_or_shared():
    found = {
        module.__name__ + "." + name
        for module in EVALUATORS
        for name, value in vars(module).items()
        if not name.startswith("__") and (isinstance(value, dict) or hasattr(value, "cache_clear"))
    }
    cold = {module.__name__ + "." + attr for module, attr in CACHES}
    assert sorted(found - cold - set(SHARED_TABLES)) == []
    assert sorted((cold | set(SHARED_TABLES)) - found) == []
