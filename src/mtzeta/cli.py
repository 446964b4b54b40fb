"""Command-line front end.

Subcommands: eval (compute one object and print JSON), verify (run a
named suite or all of them, one JSON report per line), expand (print
the truncated expansion coefficient table), table (sweep a grid to
CSV).  eval and table read one declaration, EVAL_OBJECTS, and verify
reads suites.SUITES; each subcommand registers only the flags it reads
and refuses, with _reject_unread, those the chosen object or suite does
not read.  Each builds its JSON lines and CSV rows and hands them to
_write, the one function that opens --json and --csv files.  Exit
codes: 0 all checks pass, 1 tolerance or accuracy failure, 2 usage
error (UsageError), 3 violated precondition.
"""

import argparse
import json
import os
import sys

from mpmath import mp

from .asymptotics import c_coeff, c_prime_coeff, i_expansion
from .combinatorics import lambda_k
from .context import PrecisionContext, to_mpf
from .errors import BudgetError, DomainError, QuadratureError, UsageError
from .kernel import bell_complete, stirling_first_unsigned
from .polylog import PolylogArgs, hurwitz_li0, hurwitz_li1, mpl, mpl_one_var
from .reports import REPORT_CSV_HEADER, exact_decimal, value_str, write_table_csv
from .series import WeightConfig, i_integral, m_integral, s_series, t_coeff
from . import suites

_OBJECT_ALIASES = {
    "c'": "cprime",
    "c′": "cprime",
    "Λ": "Lambda",
    "lambda": "Lambda",
}


def _split_list(text):
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or any(not p for p in parts):
        raise UsageError("expected a comma-separated list, got %r" % (text,))
    return parts


def _int_list(text):
    parts = _split_list(text)
    try:
        return [str(int(p)) for p in parts]
    except ValueError:
        raise UsageError("expected integers, got %r" % (text,))


def _require(ns, names):
    missing = ["--" + n.replace("_", "-") for n in names if getattr(ns, n) is None]
    if missing:
        raise UsageError("missing required option(s): %s" % ", ".join(missing))


def _context(ns):
    if ns.bits < 64:
        raise UsageError("precision must be at least 64 bits")
    return PrecisionContext(precision_bits=ns.bits)


def _write(ns, json_lines, header, rows):
    """Write json_lines to --json (UTF-8, LF) and header and rows to --csv
    (RFC 4180, CRLF); either is iterated only if its flag is given."""
    if getattr(ns, "json", None):
        with open(ns.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in json_lines)
    if ns.csv:
        with open(ns.csv, "w", encoding="utf-8", newline="") as fh:
            write_table_csv(header, rows, fh)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# the comma-separated flags, each with the reader of its items
_LIST_FLAGS = {
    **dict.fromkeys(("omega", "z", "args", "x_grid", "x_ladder"), _split_list),
    **dict.fromkeys(("index", "m_grid"), _int_list),
}


def _reject_unread(ns, label, reads, flags):
    """suites.refuse_unread on the command line's `flags`, after requiring
    each flag whose (flag, value) companion has that value."""
    _require(ns, [f for f in flags if isinstance(reads.get(f), tuple)
                  and getattr(ns, reads[f][0]) == reads[f][1]])
    suites.refuse_unread(
        label, reads, {f: getattr(ns, f) for f in flags}, lambda f: "--" + f.replace("_", "-")
    )


def _check_rank(ns, omega):
    """Refuse a --r that is not the number of --omega weights."""
    if ns.r is not None and omega is not None and len(omega) != int(ns.r):
        raise UsageError("--r expects %d weights, got %d" % (int(ns.r), len(omega)))


def _values(ns, label, flags, registered):
    """Map each of `flags` to its text, or list of texts, after refusing
    the other `registered` flags.  All but --a (default 0) are required.
    A weight configuration (flags with --a) checks its count against --r."""
    weighted = "a" in flags
    _reject_unread(ns, label, dict.fromkeys(flags + ("r",) * weighted), registered)
    _require(ns, [f for f in flags if f != "a"])
    values = {}
    for flag in flags:
        text = getattr(ns, flag)
        values[flag] = "0" if text is None else _LIST_FLAGS.get(flag, str)(text)
    if weighted:
        _check_rank(ns, values["omega"])
    return values


def _mpfs(texts):
    return tuple(to_mpf(t) for t in texts)


def _finite_mpfs(texts):
    values = _mpfs(texts)
    if not all(mp.isfinite(v) for v in values):
        raise DomainError("arguments must be finite")
    return values


def _weights(v):
    return WeightConfig(_mpfs(v["omega"]), to_mpf(v["a"]))


def _polylog_args(v):
    return PolylogArgs(tuple(int(k) for k in v["index"]), _mpfs(v["z"]))


def _eval_li(v, ctx):
    index, zs = tuple(int(k) for k in v["index"]), _mpfs(v["z"])
    if len(zs) == 1 and len(index) > 1:
        return mpl_one_var(index, zs[0], ctx), "one-variable nested series"
    return mpl(PolylogArgs(index, zs), ctx), "multi-variable nested series"


# Each eval object: the flags it reads, in the order of its params, and
# its evaluator (values, ctx) -> (value, method), values as _values
# returns them.  Evaluators look library functions up when they run.
EVAL_OBJECTS = {
    "M": (("omega", "a", "x"), lambda v, ctx: (
        m_integral(to_mpf(v["x"]), _weights(v), ctx),
        "double-exponential quadrature of the log-product integral")),
    "I": (("omega", "a", "x"), lambda v, ctx: (
        i_integral(to_mpf(v["x"]), _weights(v), ctx),
        "double-exponential quadrature of the incomplete-gamma product")),
    "S": (("omega", "x"), lambda v, ctx: (
        s_series(to_mpf(v["x"]), _mpfs(v["omega"]), ctx),
        "rising-factorial series with convolved coefficients")),
    "T": (("r", "l", "omega"), lambda v, ctx: (
        t_coeff(int(v["r"]), int(v["l"]), _mpfs(v["omega"]), ctx),
        "jet coefficient of the rising-factorial series")),
    "Li": (("index", "z"), _eval_li),
    "Li0": (("index", "z", "x"), lambda v, ctx: (
        hurwitz_li0(to_mpf(v["x"]), _polylog_args(v), ctx),
        "shifted nested series from n=0")),
    "Li1": (("index", "z", "x"), lambda v, ctx: (
        hurwitz_li1(to_mpf(v["x"]), _polylog_args(v), ctx),
        "shifted nested series from n=1")),
    "c": (("r", "m", "omega", "a"), lambda v, ctx: (
        c_coeff(int(v["r"]), int(v["m"]), _weights(v), ctx),
        "subset-family polylog combination")),
    "cprime": (("r", "m", "omega", "a"), lambda v, ctx: (
        c_prime_coeff(int(v["r"]), int(v["m"]), _weights(v), ctx),
        "symmetric-function and Bell-polynomial closed form")),
    "Lambda": (("omega", "k"), lambda v, ctx: (
        lambda_k(_mpfs(v["omega"]), int(v["k"]), ctx),
        "elementary symmetric polynomial in log weights")),
    "Bell": (("n", "args"), lambda v, ctx: (
        bell_complete(int(v["n"]), list(_finite_mpfs(v["args"]))),
        "complete Bell polynomial recurrence")),
    "Stirling": (("n", "k"), lambda v, ctx: (
        stirling_first_unsigned(int(v["n"]), int(v["k"])),
        "triangular recurrence, exact integers")),
}

_EVAL_FLAGS = tuple(dict.fromkeys(f for flags, _ in EVAL_OBJECTS.values() for f in flags))


def _cmd_eval(ns):
    """compute one object"""
    ctx = _context(ns)
    obj = _OBJECT_ALIASES.get(ns.object, ns.object)
    if obj not in EVAL_OBJECTS:
        raise UsageError(
            "unknown object %r; choose from %s" % (ns.object, ", ".join(EVAL_OBJECTS))
        )
    flags, evaluate = EVAL_OBJECTS[obj]
    params = _values(ns, "eval " + obj, flags, _EVAL_FLAGS)
    with ctx.workprec():
        value, method = evaluate(params, ctx)
    rendered = str(value) if isinstance(value, int) else value_str(value, ctx.precision_bits)
    line = json.dumps({
        "schema": "mtz-eval/1",
        "object": obj,
        "params": params,
        "value": rendered,
        "method": method,
        "bits": ctx.precision_bits,
    }, separators=(",", ":"))
    print(line)
    # a one-row generator: the exact decimal is made only for --csv
    _write(ns, [line], ["object", "params", "value", "method"],
           ([obj, json.dumps(params, sort_keys=True), exact_decimal(v), method] for v in [value]))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_FLAGS = tuple(dict.fromkeys(f for _, reads in suites.SUITES.values() for f in reads))


def _verify_reports(ns, ctx, tol):
    """Pass each verify flag to the named suite's option of the same
    name, after refusing those that suites.SUITES does not declare."""
    name = ns.suite
    if name not in suites.SUITES and name != "all":
        raise UsageError("unknown suite %r; choose from %s" % (name, ", ".join(suites.SUITE_NAMES + ("all",))))
    reads = suites.SUITES[name][1] if name != "all" else {}
    _reject_unread(ns, "verify " + name, reads, _VERIFY_FLAGS)
    if name == "all":
        return suites.verify_all(ctx=ctx, tol=tol, threads=ns.threads)
    options = {f: _LIST_FLAGS.get(f, str)(getattr(ns, f)) for f in reads if getattr(ns, f) is not None}
    _check_rank(ns, options.get("omega"))
    return suites.run_suite(name, ctx=ctx, tol=tol, threads=ns.threads, **options)


def _cmd_verify(ns):
    """run a verification suite"""
    ctx = _context(ns)
    if ns.threads < 1:
        raise UsageError("threads must be at least 1")
    tol = to_mpf(ns.tol) if ns.tol is not None else None
    if tol is not None and not 0 < tol < mp.inf:
        raise UsageError("--tol must be positive and finite, got %r" % ns.tol)
    reports = _verify_reports(ns, ctx, tol)
    bits = ctx.precision_bits
    lines = [r.to_json_line(bits) for r in reports]
    for line in lines:
        print(line)
    _write(ns, lines, REPORT_CSV_HEADER, (r.csv_row() for r in reports))
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print(
            "FAIL %s %s residual=%s tolerance=%s"
            % (
                r.identity_id,
                json.dumps(r.params, sort_keys=True),
                value_str(r.residual, bits),
                value_str(r.tolerance, bits),
            ),
            file=sys.stderr,
        )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

_EXPAND_FLAGS = ("r", "omega", "a", "order")


def _cmd_expand(ns):
    """truncated expansion coefficients"""
    ctx = _context(ns)
    v = _values(ns, "expand", _EXPAND_FLAGS, _EXPAND_FLAGS)
    with ctx.workprec():
        w = _weights(v)
        coeffs = i_expansion(w, int(v["order"]), ctx)
    rows = [(m, m - w.r, c, value_str(c, ctx.precision_bits)) for m, c in enumerate(coeffs)]
    print("%-4s %-6s %s" % ("m", "power", "coefficient"))
    for m, power, _, shown in rows:
        print("%-4d %-6d %s" % (m, power, shown))
    _write(
        ns,
        (json.dumps({
            "schema": "mtz-expand/1",
            "omega": v["omega"],
            "a": v["a"],
            "m": m,
            "power": p,
            "coeff": shown,
        }, separators=(",", ":")) for m, p, _, shown in rows),
        ["m", "power", "coefficient"],
        ([str(m), str(p), exact_decimal(c)] for m, p, c, _ in rows),
    )
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

# the flag each table object's grid replaces
_TABLE_GRIDS = {"M": "x", "I": "x", "c": "m", "cprime": "m"}


def _table_flags(obj):
    """obj's eval flags, the one its grid replaces moved last as the grid."""
    point = _TABLE_GRIDS[obj]
    return tuple(f for f in EVAL_OBJECTS[obj][0] if f != point) + (point + "_grid",)


_TABLE_FLAGS = tuple(dict.fromkeys(f for obj in _TABLE_GRIDS for f in _table_flags(obj)))


def _cmd_table(ns):
    """grid sweep to CSV"""
    ctx = _context(ns)
    obj = _OBJECT_ALIASES.get(ns.object, ns.object)
    if obj not in _TABLE_GRIDS:
        raise UsageError(
            "table supports objects %s; got %r" % (", ".join(_TABLE_GRIDS), ns.object)
        )
    flags = _table_flags(obj)
    values = _values(ns, "table " + obj, flags, _TABLE_FLAGS)
    point, grid = _TABLE_GRIDS[obj], values.pop(flags[-1])
    header = ["object"] + list(values) + [point, "value"]
    cells = [obj] + [",".join(t) if isinstance(t, list) else t for t in values.values()]
    rows = []
    with ctx.workprec():
        for item in grid:
            value, _ = EVAL_OBJECTS[obj][1](dict(values, **{point: item}), ctx)
            rows.append(cells + [item, exact_decimal(value)])
    if not ns.csv:
        write_table_csv(header, rows, sys.stdout)
    _write(ns, (), header, rows)
    return 0


# ---------------------------------------------------------------------------
# parser and entry points
# ---------------------------------------------------------------------------

# argparse keywords of the flags that take a type, a default, a metavar or help text
_FLAG_OPTIONS = {
    "bits": dict(type=int, default=256, help="working precision in bits"),
    "tol": dict(help="tolerance as a decimal string"),
    "json": dict(metavar="PATH", help="write JSON lines to PATH"),
    "csv": dict(metavar="PATH", help="write CSV to PATH"),
    "threads": dict(type=int, default=1, help="worker processes"),
    "k_max": dict(type=int),
    "omega": dict(help="comma-separated weights (--omega=-0.3,0.2 if the first is negative)"),
    "index": dict(help="comma-separated exponents"),
    "z": dict(help="comma-separated arguments (--z=-0.5,0.3 if the first is negative)"),
    "args": dict(help="comma-separated values (--args=-1,2 if the first is negative)"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mtz",
        description="High-precision evaluators and identity checks for "
        "harmonic multi-sums, their integral analogues, and multiple polylogarithms.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, func, positional, flags in (
        ("eval", _cmd_eval, "object", _EVAL_FLAGS + ("json",)),
        ("verify", _cmd_verify, "suite", _VERIFY_FLAGS + ("tol", "json", "threads")),
        ("expand", _cmd_expand, None, _EXPAND_FLAGS + ("json",)),
        ("table", _cmd_table, "object", _TABLE_FLAGS),
    ):
        # no prefix matching, so e.g. table's --x-grid never takes --x
        p = sub.add_parser(name, help=func.__doc__, allow_abbrev=False)
        if positional is not None:
            p.add_argument(positional)
        for flag in ("bits",) + flags + ("csv",):
            p.add_argument("--" + flag.replace("_", "-"), **_FLAG_OPTIONS.get(flag, {}))
        p.set_defaults(func=func)
    return parser


def _check_writable(path):
    """Refuse an output path that cannot be written, before evaluating."""
    if path is None:
        return
    target = os.path.abspath(path)
    parent = os.path.dirname(target)
    if os.path.isdir(target) or not os.path.isdir(parent):
        raise UsageError("cannot write %s: not a file in an existing directory" % path)
    if not os.access(target if os.path.exists(target) else parent, os.W_OK):
        raise UsageError("cannot write %s: permission denied" % path)


def cli_main(argv):
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if getattr(ns, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        paths = [getattr(ns, flag, None) for flag in ("json", "csv")]
        for path in paths:
            _check_writable(path)
        if None not in paths and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise UsageError("--json and --csv name one file: %s" % paths[1])
        return ns.func(ns)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except QuadratureError as exc:
        # a BudgetError subclass, so it must be caught first
        print("accuracy failure: %s" % exc, file=sys.stderr)
        return 1
    except (DomainError, BudgetError) as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
