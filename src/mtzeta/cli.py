"""Command-line front end.

Subcommands: eval (compute one object and print JSON), verify (run a
named suite or all of them, one JSON report per line), expand (print
the truncated expansion coefficient table), table (sweep a grid to
CSV).  Exit codes: 0 all checks pass, 1 tolerance or accuracy failure,
2 usage error, 3 violated precondition.
"""

import argparse
import json
import os
import sys

from .asymptotics import c_coeff, c_prime_coeff, i_expansion
from .combinatorics import lambda_k
from .context import PrecisionContext, to_mpf
from .errors import BudgetError, DomainError, QuadratureError
from .kernel import bell_complete, stirling_first_unsigned
from .polylog import PolylogArgs, hurwitz_li0, hurwitz_li1, mpl, mpl_one_var
from .reports import (
    exact_decimal,
    value_str,
    write_reports_csv,
    write_reports_jsonl,
    write_table_csv,
)
from .series import WeightConfig, i_integral, m_integral, s_series, t_coeff
from . import suites

_OBJECT_ALIASES = {
    "c'": "cprime",
    "c′": "cprime",
    "Λ": "Lambda",
    "lambda": "Lambda",
}

EVAL_OBJECTS = (
    "M", "I", "S", "T", "Li", "Li0", "Li1",
    "c", "cprime", "Lambda", "Bell", "Stirling",
)

VERIFY_NAMES = suites.SUITE_NAMES + ("all",)


class _UsageError(Exception):
    pass


def _split_list(text):
    parts = [p.strip() for p in str(text).split(",")]
    if not parts or any(not p for p in parts):
        raise _UsageError("expected a comma-separated list, got %r" % (text,))
    return parts


def _int_list(text):
    try:
        return [int(p) for p in _split_list(text)]
    except ValueError:
        raise _UsageError("expected integers, got %r" % (text,))


def _require(ns, names):
    missing = [n for n in names if getattr(ns, n.replace("-", "_"), None) is None]
    if missing:
        raise _UsageError(
            "missing required option(s): %s" % ", ".join("--" + n for n in missing)
        )


def _settings(ns):
    if ns.bits is not None:
        bits = ns.bits
    else:
        raw = os.environ.get("MTZ_PRECISION_BITS", "256")
        try:
            bits = int(raw)
        except ValueError:
            raise _UsageError("MTZ_PRECISION_BITS must be an integer, got %r" % raw)
    if bits < 64:
        raise _UsageError("precision must be at least 64 bits")
    if ns.threads is not None:
        threads = ns.threads
    else:
        raw = os.environ.get("MTZ_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise _UsageError("MTZ_THREADS must be an integer, got %r" % raw)
    if threads < 1:
        raise _UsageError("threads must be at least 1")
    ctx = PrecisionContext(precision_bits=bits)
    tol = to_mpf(ns.tol) if ns.tol is not None else None
    return ctx, tol, threads


def _weights_from(ns, count=None):
    _require(ns, ["omega"])
    omega = _split_list(ns.omega)
    if count is not None and len(omega) != count:
        raise _UsageError("expected %d weights, got %d" % (count, len(omega)))
    a = ns.a if ns.a is not None else "0"
    return WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a)), omega, a


def _write_line(path, line):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line)
        fh.write("\n")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _eval_value(ns, obj, ctx):
    params = {}
    if obj == "M":
        _require(ns, ["x"])
        w, omega, a = _weights_from(ns)
        params.update(omega=omega, a=str(a), x=str(ns.x))
        value = m_integral(to_mpf(ns.x), w, ctx)
        method = "double-exponential quadrature of the log-product integral"
    elif obj == "I":
        _require(ns, ["x"])
        w, omega, a = _weights_from(ns)
        params.update(omega=omega, a=str(a), x=str(ns.x))
        value = i_integral(to_mpf(ns.x), w, ctx)
        method = "double-exponential quadrature of the incomplete-gamma product"
    elif obj == "S":
        _require(ns, ["omega", "x"])
        omega = _split_list(ns.omega)
        params.update(omega=omega, x=str(ns.x))
        value = s_series(to_mpf(ns.x), tuple(to_mpf(o) for o in omega), ctx)
        method = "rising-factorial series with convolved coefficients"
    elif obj == "T":
        _require(ns, ["r", "l", "omega"])
        omega = _split_list(ns.omega)
        params.update(r=str(ns.r), l=str(ns.l), omega=omega)
        value = t_coeff(int(ns.r), int(ns.l), tuple(to_mpf(o) for o in omega), ctx)
        method = "harmonic-chain convolution series"
    elif obj == "Li":
        _require(ns, ["index", "z"])
        index = _int_list(ns.index)
        zs = _split_list(ns.z)
        params.update(index=[str(k) for k in index], z=zs)
        if len(zs) == 1 and len(index) > 1:
            value = mpl_one_var(tuple(index), to_mpf(zs[0]), ctx)
            method = "one-variable nested series"
        else:
            value = mpl(
                PolylogArgs(tuple(index), tuple(to_mpf(z) for z in zs)), ctx
            )
            method = "multi-variable nested series"
    elif obj in ("Li0", "Li1"):
        _require(ns, ["index", "z", "x"])
        index = _int_list(ns.index)
        zs = _split_list(ns.z)
        params.update(index=[str(k) for k in index], z=zs, x=str(ns.x))
        args = PolylogArgs(tuple(index), tuple(to_mpf(z) for z in zs))
        if obj == "Li0":
            value = hurwitz_li0(to_mpf(ns.x), args, ctx)
            method = "shifted nested series from n=0"
        else:
            value = hurwitz_li1(to_mpf(ns.x), args, ctx)
            method = "shifted nested series from n=1"
    elif obj in ("c", "cprime"):
        _require(ns, ["r", "m"])
        w, omega, a = _weights_from(ns, count=int(ns.r))
        params.update(r=str(ns.r), m=str(ns.m), omega=omega, a=str(a))
        if obj == "c":
            value = c_coeff(int(ns.r), int(ns.m), w, ctx)
            method = "subset-family polylog combination"
        else:
            value = c_prime_coeff(int(ns.r), int(ns.m), w, ctx)
            method = "symmetric-function and Bell-polynomial closed form"
    elif obj == "Lambda":
        _require(ns, ["omega", "k"])
        omega = _split_list(ns.omega)
        params.update(omega=omega, k=str(ns.k))
        value = lambda_k(tuple(to_mpf(o) for o in omega), int(ns.k), ctx)
        method = "elementary symmetric polynomial in log weights"
    elif obj == "Bell":
        _require(ns, ["n", "args"])
        xs = _split_list(ns.args)
        params.update(n=str(ns.n), args=xs)
        with ctx.workprec():
            value = bell_complete(int(ns.n), [to_mpf(v) for v in xs])
        method = "complete Bell polynomial recurrence"
    elif obj == "Stirling":
        _require(ns, ["n", "k"])
        params.update(n=str(ns.n), k=str(ns.k))
        value = stirling_first_unsigned(int(ns.n), int(ns.k))
        method = "triangular recurrence, exact integers"
    else:
        raise _UsageError(
            "unknown object %r; choose from %s" % (ns.object, ", ".join(EVAL_OBJECTS))
        )
    return params, value, method


def _cmd_eval(ns):
    ctx, _, _ = _settings(ns)
    obj = _OBJECT_ALIASES.get(ns.object, ns.object)
    params, value, method = _eval_value(ns, obj, ctx)
    rendered = str(value) if isinstance(value, int) else value_str(value, ctx.precision_bits)
    out = {
        "schema": "mtz-eval/1",
        "object": obj,
        "params": params,
        "value": rendered,
        "method": method,
        "bits": ctx.precision_bits,
    }
    line = json.dumps(out, separators=(",", ":"))
    print(line)
    if ns.json:
        _write_line(ns.json, line)
    if ns.csv:
        exact = str(value) if isinstance(value, int) else exact_decimal(value)
        with open(ns.csv, "w", encoding="utf-8", newline="") as fh:
            write_table_csv(
                ["object", "params", "value", "method"],
                [[obj, json.dumps(params, sort_keys=True), exact, method]],
                fh,
            )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# suites whose --omega/--a give one grid row, by weight count
_GRID_WEIGHTS = {"r2m2": 2, "r3m3": 3, "inversion": 1}

# the suite flags each verify name reads; --a is read only with --omega,
# and the asymptotic-order flags other than --method only with --method
_SUITE_FLAGS = {
    "all": (),
    "r2m2": ("omega", "a"),
    "r3m3": ("omega", "a"),
    "inversion": ("omega", "a", "k_max"),
    "asymptotic-order": ("method", "omega", "a", "r", "x_ladder", "order"),
    "mzf": ("r", "x_grid"),
}


def _reject_unread_flags(ns, name):
    unread = []
    for flag in ("omega", "a", "r", "k_max", "method", "x_ladder", "x_grid", "order"):
        if getattr(ns, flag) is None:
            continue
        option = "--" + flag.replace("_", "-")
        needs = "method" if name == "asymptotic-order" else "omega" if flag == "a" else None
        if flag not in _SUITE_FLAGS[name]:
            unread.append(option)
        elif needs is not None and getattr(ns, needs) is None:
            unread.append("%s without --%s" % (option, needs))
    if unread:
        raise _UsageError("verify %s does not read %s" % (name, ", ".join(unread)))


def _verify_reports(ns, ctx, tol, threads):
    """Map the verify flags to the named suite's keyword options."""
    name = ns.suite
    if name not in VERIFY_NAMES:
        raise _UsageError(
            "unknown suite %r; choose from %s" % (name, ", ".join(VERIFY_NAMES))
        )
    _reject_unread_flags(ns, name)
    if name == "all":
        return suites.verify_all(ctx=ctx, tol=tol, threads=threads)
    options = {}
    a = ns.a if ns.a is not None else "0"
    count = _GRID_WEIGHTS.get(name)
    if count is not None and ns.omega is not None:
        omega = _split_list(ns.omega)
        if len(omega) != count:
            raise _UsageError(
                "%s takes %d weight(s), got %d" % (name, count, len(omega))
            )
        if name == "inversion" and ns.a is None:
            raise _UsageError("inversion needs --a")
        options["grid"] = [tuple(omega) + (a,)]
    if name == "inversion":
        options["k_max"] = ns.k_max
    if name == "asymptotic-order" and ns.method is not None:
        _require(ns, ["omega"])
        options.update(
            w=(_split_list(ns.omega), a),
            r=int(ns.r) if ns.r is not None else None,
            method=ns.method,
            ladder=_split_list(ns.x_ladder) if ns.x_ladder is not None else None,
            truncation_order=int(ns.order) if ns.order is not None else None,
        )
    if name == "mzf":
        options.update(
            r_values=[int(ns.r)] if ns.r is not None else None,
            x_grid=_split_list(ns.x_grid) if ns.x_grid is not None else None,
        )
    return suites.run_suite(name, ctx=ctx, tol=tol, threads=threads, **options)


def _cmd_verify(ns):
    ctx, tol, threads = _settings(ns)
    reports = _verify_reports(ns, ctx, tol, threads)
    bits = ctx.precision_bits
    for report in reports:
        print(report.to_json_line(bits))
    if ns.json:
        with open(ns.json, "w", encoding="utf-8", newline="\n") as fh:
            write_reports_jsonl(reports, fh, bits)
    if ns.csv:
        with open(ns.csv, "w", encoding="utf-8", newline="") as fh:
            write_reports_csv(reports, fh)
    failures = [r for r in reports if not r.passed]
    if failures:
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
        return 1
    return 0


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def _cmd_expand(ns):
    ctx, _, _ = _settings(ns)
    _require(ns, ["r", "order"])
    w, omega, a = _weights_from(ns, count=int(ns.r))
    expansion = i_expansion(w, int(ns.order), ctx)
    rows = []
    for m, (power, coeff) in enumerate(zip(expansion.powers, expansion.coeffs)):
        rows.append((m, power, coeff))
    header = "%-4s %-6s %s" % ("m", "power", "coefficient")
    print(header)
    for m, power, coeff in rows:
        print("%-4d %-6d %s" % (m, power, value_str(coeff, ctx.precision_bits)))
    if ns.json:
        with open(ns.json, "w", encoding="utf-8", newline="\n") as fh:
            for m, power, coeff in rows:
                fh.write(
                    json.dumps(
                        {
                            "schema": "mtz-expand/1",
                            "omega": omega,
                            "a": str(a),
                            "m": m,
                            "power": power,
                            "coeff": value_str(coeff, ctx.precision_bits),
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
    if ns.csv:
        with open(ns.csv, "w", encoding="utf-8", newline="") as fh:
            write_table_csv(
                ["m", "power", "coefficient"],
                [[str(m), str(p), exact_decimal(c)] for m, p, c in rows],
                fh,
            )
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _cmd_table(ns):
    ctx, _, _ = _settings(ns)
    obj = _OBJECT_ALIASES.get(ns.object, ns.object)
    if obj in ("M", "I"):
        _require(ns, ["x_grid"])
        w, omega, a = _weights_from(ns)
        fn = m_integral if obj == "M" else i_integral
        header = ["object", "omega", "a", "x", "value"]
        rows = []
        for xs in _split_list(ns.x_grid):
            value = fn(to_mpf(xs), w, ctx)
            rows.append([obj, ",".join(omega), str(a), xs, exact_decimal(value)])
    elif obj in ("c", "cprime"):
        _require(ns, ["r", "m_grid"])
        w, omega, a = _weights_from(ns, count=int(ns.r))
        fn = c_coeff if obj == "c" else c_prime_coeff
        header = ["object", "r", "omega", "a", "m", "value"]
        rows = []
        for ms in _int_list(ns.m_grid):
            value = fn(int(ns.r), ms, w, ctx)
            rows.append(
                [obj, str(ns.r), ",".join(omega), str(a), str(ms), exact_decimal(value)]
            )
    else:
        raise _UsageError("table supports objects M, I, c, cprime; got %r" % ns.object)
    if ns.csv:
        with open(ns.csv, "w", encoding="utf-8", newline="") as fh:
            write_table_csv(header, rows, fh)
    else:
        write_table_csv(header, rows, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# parser and entry points
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bits", type=int, default=None, help="working precision in bits")
    common.add_argument("--tol", default=None, help="tolerance as a decimal string")
    common.add_argument("--json", metavar="PATH", help="write JSON lines to PATH")
    common.add_argument("--csv", metavar="PATH", help="write CSV to PATH")
    common.add_argument("--threads", type=int, default=None, help="worker processes")

    numeric = argparse.ArgumentParser(add_help=False)
    numeric.add_argument("--r", default=None)
    numeric.add_argument("--m", default=None)
    numeric.add_argument("--omega", default=None, help="comma-separated weights")
    numeric.add_argument("--a", default=None)
    numeric.add_argument("--x", default=None)
    numeric.add_argument("--n", default=None)
    numeric.add_argument("--k", default=None)
    numeric.add_argument("--l", default=None)
    numeric.add_argument("--index", default=None, help="comma-separated exponents")
    numeric.add_argument("--z", default=None, help="comma-separated arguments")
    numeric.add_argument("--args", default=None, help="comma-separated values")
    numeric.add_argument("--order", default=None)

    parser = argparse.ArgumentParser(
        prog="mtz",
        description="High-precision evaluators and identity checks for "
        "harmonic multi-sums, their integral analogues, and multiple polylogarithms.",
    )
    sub = parser.add_subparsers(dest="command")

    p_eval = sub.add_parser("eval", parents=[common, numeric], help="compute one object")
    p_eval.add_argument("object")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--omega", default=None)
    p_verify.add_argument("--a", default=None)
    p_verify.add_argument("--r", default=None)
    p_verify.add_argument("--k-max", type=int, default=None)
    p_verify.add_argument("--method", default=None)
    p_verify.add_argument("--x-ladder", default=None)
    p_verify.add_argument("--x-grid", default=None)
    p_verify.add_argument("--order", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_expand = sub.add_parser(
        "expand", parents=[common, numeric], help="truncated expansion coefficients"
    )
    p_expand.set_defaults(func=_cmd_expand)

    p_table = sub.add_parser(
        "table", parents=[common, numeric], help="grid sweep to CSV"
    )
    p_table.add_argument("object")
    p_table.add_argument("--x-grid", default=None)
    p_table.add_argument("--m-grid", default=None)
    p_table.set_defaults(func=_cmd_table)

    return parser


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
        return ns.func(ns)
    except _UsageError as exc:
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
