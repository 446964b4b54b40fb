"""Command-line behavior: JSON output shape, exit codes, file writers,
environment overrides, and deterministic repeated invocations."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpf

import mtzeta
from mtzeta import asymptotics, suites
from mtzeta import (
    PolylogArgs,
    WeightConfig,
    bell_complete,
    c_coeff,
    c_prime_coeff,
    hurwitz_li0,
    hurwitz_li1,
    i_integral,
    lambda_k,
    m_integral,
    mpl,
    mpl_one_var,
    s_series,
    stirling_first_unsigned,
    t_coeff,
)
from mtzeta.cli import EVAL_OBJECTS, cli_main
from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.errors import QuadratureError, UsageError
from mtzeta.reports import value_str

CTX = PrecisionContext()


def _run(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_integral_json(capsys):
    code, out, _ = _run(
        capsys, ["eval", "I", "--r", "2", "--omega", "1,2", "--a", "0", "--x", "0.4"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "mtz-eval/1"
    assert data["object"] == "I"
    assert data["bits"] == 256
    assert data["value"].startswith("9.9080731189")
    assert "quadrature" in data["method"]


def test_eval_repeat_is_bit_identical(capsys):
    argv = ["eval", "Lambda", "--omega", "2,3", "--k", "2"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_eval_polylog_matches_builtin(capsys):
    code, out, _ = _run(capsys, ["eval", "Li", "--index", "2", "--z", "0.5"])
    assert code == 0
    value = json.loads(out)["value"]
    with CTX.workprec():
        assert abs(mpf(value) - mp.polylog(2, mpf("0.5"))) <= mpf(10) ** -70


def test_eval_exact_integers(capsys):
    code, out, _ = _run(capsys, ["eval", "Stirling", "--n", "5", "--k", "2"])
    assert code == 0
    assert json.loads(out)["value"] == "50"
    code, out, _ = _run(capsys, ["eval", "Bell", "--n", "3", "--args", "1,1,1"])
    assert code == 0
    with CTX.workprec():
        assert mpf(json.loads(out)["value"]) == 5


def test_eval_coefficient_routes_agree(capsys):
    argv_tail = ["--r", "2", "--m", "1", "--omega", "1,2", "--a", "0.3"]
    _, out_c, _ = _run(capsys, ["eval", "c"] + argv_tail)
    _, out_p, _ = _run(capsys, ["eval", "cprime"] + argv_tail)
    with CTX.workprec():
        vc = mpf(json.loads(out_c)["value"])
        vp = mpf(json.loads(out_p)["value"])
        assert abs(vc - vp) <= mpf(10) ** -70
    assert json.loads(out_c)["method"] != json.loads(out_p)["method"]


def test_eval_usage_and_domain_codes(capsys):
    code, _, err = _run(capsys, ["eval", "Q", "--x", "1"])
    assert code == 2 and "unknown object" in err
    code, _, err = _run(capsys, ["eval", "M", "--omega", "1"])
    assert code == 2 and "--x" in err
    code, _, err = _run(capsys, ["eval", "I", "--omega=-1", "--a", "0", "--x", "0.5"])
    assert code == 3 and "precondition" in err
    code, _, err = _run(
        capsys, ["eval", "c", "--r", "2", "--m", "0", "--omega", "1,2", "--a", "0"]
    )
    assert code == 3
    # the context needs at least 64 bits; the CLI refuses fewer itself
    code, _, err = _run(
        capsys, ["eval", "Lambda", "--omega", "2,3", "--k", "1", "--bits", "32"]
    )
    assert code == 2 and "64" in err


def test_eval_budget_exit_3(capsys):
    # rho = 0.9999999 needs a truncation degree far beyond max_terms
    code, _, err = _run(capsys, ["eval", "S", "--omega", "0.9999999", "--x", "0.3"])
    assert code == 3 and "max_terms" in err


def test_eval_li_near_unit_circle_exit_3(capsys):
    # rho = 0.9999 needs more nested-sum terms than max_terms
    code, out, err = _run(capsys, ["eval", "Li", "--index", "2", "--z", "-0.9999"])
    assert code == 3 and out == "" and "max_terms" in err


def test_eval_li_tiny_argument(capsys):
    # a tiny rho must not break the term count; the error is absolute, 2^-256
    code, out, _ = _run(capsys, ["eval", "Li", "--index", "2", "--z", "1e-250"])
    assert code == 0 and abs(mpf(json.loads(out)["value"]) - mpf("1e-250")) <= mpf(2) ** -256


def test_eval_negative_first_list_value(capsys):
    # a list whose first value is negative is given as --flag=value
    code, out, _ = _run(capsys, ["eval", "S", "--omega=-0.3,0.2", "--x", "1"])
    assert code == 0
    with CTX.workprec():
        expected = s_series(mpf(1), (to_mpf("-0.3"), to_mpf("0.2")), CTX)
    assert json.loads(out)["value"] == value_str(expected, 256)
    code, out, _ = _run(capsys, ["eval", "Li", "--index", "2,1", "--z=-0.5,0.3"])
    assert code == 0
    with CTX.workprec():
        expected = mpl(PolylogArgs((2, 1), (to_mpf("-0.5"), to_mpf("0.3"))), CTX)
    assert json.loads(out)["value"] == value_str(expected, 256)


@pytest.mark.parametrize(
    "argv",
    [["eval", "S", "--omega", "-0.3,0.2", "--x", "1"],
     ["eval", "Li", "--index", "2,1", "--z", "-0.5,0.3"]],
    ids=["omega", "z"],
)
def test_eval_spaced_negative_list_exits_2(argv, capsys):
    # argparse reads "-0.3,0.2" as an option, not as the flag's value
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "expected one argument" in err and "Traceback" not in err


def test_list_flag_help_names_the_equals_form(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    assert cli_main(["eval", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--omega=-0.3,0.2" in out and "--z=-0.5,0.3" in out


def test_eval_t_rank_mismatch_exit_3(capsys):
    # T_{r,l} needs exactly r weights
    code, out, err = _run(capsys, ["eval", "T", "--r", "3", "--l", "1", "--omega", "0.1,0.2"])
    assert code == 3 and out == ""
    assert "rank must match the number of weights" in err


def test_eval_low_bits_default_tolerance(capsys):
    # below 116 bits the default target_tol follows the context's own
    # 2^-(bits-16) floor instead of a fixed 1e-30 that would violate it
    code, out, _ = _run(
        capsys, ["eval", "Lambda", "--omega", "2,3", "--k", "1", "--bits", "64"]
    )
    assert code == 0
    assert json.loads(out)["bits"] == 64


def test_eval_accuracy_failure_exit_1(monkeypatch, capsys):
    def unconverged(x, w, ctx):
        raise QuadratureError("no convergence within 10 levels")

    monkeypatch.setattr("mtzeta.cli.m_integral", unconverged)
    code, _, err = _run(capsys, ["eval", "M", "--omega", "1", "--x", "0.5"])
    assert code == 1 and "accuracy failure" in err


def test_eval_integral_below_target_tol_exit_1(capsys):
    # the integral is about 1e-932470 in magnitude, far below target_tol
    code, out, err = _run(capsys, ["eval", "I", "--omega", "1", "--a", "1e20", "--x", "0.5"])
    assert code == 1 and out == "" and "accuracy failure" in err


def test_unknown_subcommand_exit_2(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_expand_table_shape(capsys):
    code, out, _ = _run(
        capsys, ["expand", "--r", "2", "--omega", "1,1", "--a", "3", "--order", "6"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header plus 7 coefficient rows
    first = lines[1].split()
    assert first[0] == "0" and first[1] == "-2"
    with CTX.workprec():
        assert mpf(first[2]) == 2


def test_expand_mismatched_rank(capsys):
    code, _, _ = _run(
        capsys, ["expand", "--r", "3", "--omega", "1,1", "--a", "3", "--order", "2"]
    )
    assert code == 2


def test_verify_checks_rank_as_eval_does(capsys):
    # one --r check for every subcommand: the same mismatch exits 2 with
    # the same message from eval and from verify
    tail = ["--omega", "1,2", "--a", "0.3", "--r", "3"]
    code, _, eval_err = _run(capsys, ["eval", "I", "--x", "0.5"] + tail)
    assert code == 2 and "--r expects 3 weights, got 2" in eval_err
    code, out, err = _run(
        capsys, ["verify", "asymptotic-order", "--method", "integral-main-term"] + tail
    )
    assert code == 2 and out == "" and err == eval_err


def test_expand_csv_exact_cells(tmp_path, capsys):
    path = tmp_path / "coeffs.csv"
    code, _, _ = _run(
        capsys,
        ["expand", "--r", "1", "--omega", "1", "--a", "1", "--order", "2",
         "--csv", str(path)],
    )
    assert code == 0
    raw = path.read_bytes()
    assert b"\r\n" in raw
    rows = raw.decode().strip().split("\r\n")
    assert rows[0] == "m,power,coefficient"
    assert len(rows) == 4
    assert rows[1].split(",") == ["0", "-1", "1"]


def test_verify_custom_grid_passes(capsys):
    code, out, err = _run(
        capsys, ["verify", "r2m2", "--omega", "2,3", "--a", "1", "--bits", "256"]
    )
    assert code == 0 and err == ""
    data = [json.loads(line) for line in out.strip().splitlines()]
    assert len(data) == 1
    assert data[0]["passed"] is True
    assert data[0]["schema"] == "mtz-report/1"
    # the series gate's 2^-(bits-16) floor lies below 1e-30 at 256 bits
    assert data[0]["tolerance"] == "1.0e-30"


def test_verify_tolerance_failure_exit_1(capsys):
    code, out, err = _run(
        capsys,
        ["verify", "r2m2", "--omega", "2,3", "--a", "1", "--tol", "1e-80"],
    )
    assert code == 1
    assert "FAIL polylog-evaluation/r2m2" in err
    assert json.loads(out.strip().splitlines()[0])["passed"] is False


def test_verify_unknown_suite(capsys):
    code, _, err = _run(capsys, ["verify", "nonesuch"])
    assert code == 2 and "unknown suite" in err


def test_verify_json_file_lf(tmp_path, capsys):
    path = tmp_path / "reports.jsonl"
    code, out, _ = _run(
        capsys,
        ["verify", "inversion", "--omega", "1", "--a", "3", "--k-max", "1",
         "--json", str(path)],
    )
    assert code == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert len(lines) == 2
    assert [json.loads(l) for l in lines] == [
        json.loads(l) for l in out.strip().splitlines()
    ]


def test_table_sweep_stdout_and_file(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["table", "I", "--omega", "1", "--a", "2", "--x-grid", "0.3,0.5"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].rstrip("\r") == "object,omega,a,x,value"
    assert len(lines) == 3
    path = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys,
        ["table", "c", "--r", "1", "--omega", "1", "--a", "2",
         "--m-grid", "1,2", "--csv", str(path)],
    )
    assert code == 0
    rows = path.read_bytes().decode().strip().split("\r\n")
    assert len(rows) == 3
    # rank-1 coefficient m=1 is Li_1(a/(a+omega)) = log 3 here: check
    # the exact cell reparses to it
    with CTX.workprec():
        cell = mpf(rows[1].split(",")[-1])
        assert abs(cell - mp.log(3)) <= mpf(10) ** -70


def test_table_unknown_object(capsys):
    code, _, _ = _run(capsys, ["table", "S", "--omega", "0.5", "--x-grid", "0.1"])
    assert code == 2


def test_defaults_ignore_environment(monkeypatch, capsys):
    # the precision comes from --bits alone, 256 without it
    monkeypatch.setenv("MTZ_PRECISION_BITS", "128")
    code, out, _ = _run(capsys, ["eval", "Lambda", "--omega", "2,3", "--k", "1"])
    assert code == 0
    assert json.loads(out)["bits"] == 256
    code, _, err = _run(capsys, ["verify", "r2m2", "--omega", "1,1", "--a", "0", "--threads", "0"])
    assert code == 2 and "threads" in err


def _reports(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_verify_r3m3_custom_point(capsys):
    code, out, _ = _run(capsys, ["verify", "r3m3", "--omega", "1,2,3", "--a", "1"])
    assert code == 0
    (report,) = _reports(out)
    assert report["params"] == {"omega": ["1", "2", "3"], "a": "1"}


def test_verify_order_single_method(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "asymptotic-order", "--method", "truncated-series",
         "--omega", "1,2", "--a", "0.3", "--order", "4",
         "--x-ladder", "0.1,0.05,0.025"],
    )
    assert code == 0
    (report,) = _reports(out)
    assert report["identity_id"] == "remainder-order/truncated-series/r2-M4"
    assert report["params"]["x_ladder"] == ["0.1", "0.05", "0.025"]


def test_verify_mzf_single_rank(capsys):
    code, out, _ = _run(capsys, ["verify", "mzf", "--r", "2", "--x-grid", "0.5"])
    assert code == 0
    (report,) = _reports(out)
    assert report["params"] == {"r": "2", "x": "0.5"}


def test_verify_mzf_beyond_the_default_depths(capsys):
    code, out, err = _run(capsys, ["verify", "mzf", "--r", "4", "--x-grid", "1"])
    assert code == 0, err
    (report,) = _reports(out)
    assert report["params"] == {"r": "4", "x": "1"} and report["passed"]
    code, out, err = _run(capsys, ["verify", "mzf", "--r", "9", "--x-grid", "1"])
    assert code == 3 and "rank must lie in 1..8" in err


def test_verify_weight_count_and_missing_shift(capsys):
    code, _, err = _run(capsys, ["verify", "r3m3", "--omega", "1,2"])
    assert code == 2 and "usage error" in err
    code, _, err = _run(capsys, ["verify", "inversion", "--omega", "1"])
    assert code == 2 and "--a" in err
    code, out, err = _run(
        capsys,
        ["verify", "asymptotic-order", "--method", "truncated-series", "--omega", "1,2",
         "--a", "0.3"],
    )
    assert code == 2 and out == ""
    assert "missing required option(s): --order" in err


def test_verify_unknown_order_method_is_a_usage_error(capsys):
    code, out, err = _run(capsys, ["verify", "asymptotic-order", "--method", "foo", "--omega", "1"])
    assert code == 2 and out == ""
    assert "usage error" in err and "'foo'" in err
    for method in ("integral-main-term", "truncated-series", "harmonic-constant"):
        assert method in err


def test_verify_mzf_refuses_a_repeated_x(capsys):
    code, out, err = _run(capsys, ["verify", "mzf", "--r", "2", "--x-grid", "0.5,1,0.5"])
    assert code == 2 and out == ""
    assert "usage error" in err and "repeats x = 0.5" in err


# every verify flag that a suite, or all, does not declare: the cases
# come from suites.SUITES, so a new suite is checked against the CLI
SUITE_READS = {name: reads for name, (_, reads) in suites.SUITES.items()} | {"all": {}}
VERIFY_FLAGS = sorted({flag for reads in SUITE_READS.values() for flag in reads})
UNDECLARED = [
    (name, flag) for name, reads in SUITE_READS.items() for flag in VERIFY_FLAGS if flag not in reads
]


@pytest.mark.parametrize("name, flag", UNDECLARED, ids=["%s-%s" % case for case in UNDECLARED])
def test_verify_refuses_each_flag_its_suite_does_not_declare(name, flag, capsys):
    option = "--" + flag.replace("_", "-")
    code, out, err = _run(capsys, ["verify", name, option, "1"])
    assert code == 2 and out == ""
    assert err == "usage error: verify %s does not read %s\n" % (name, option)


@pytest.mark.parametrize("suite", ["r2m2", "r3m3", "inversion"])
def test_verify_series_suites_at_64_bits(suite, capsys):
    # the series gate keeps 2^16 ulps above round-off below 116 bits
    code, out, err = _run(capsys, ["verify", suite, "--bits", "64"])
    assert code == 0, err
    assert all(report["passed"] for report in _reports(out))


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["verify", "inversion", "--a", "5", "--k-max", "1"], ["--a without --omega"]),
        (
            ["verify", "r2m2", "--omega", "1,1", "--x-grid", "0.5", "--k-max", "3",
             "--method", "foo"],
            ["--x-grid", "--k-max", "--method"],
        ),
        (["verify", "all", "--k-max", "1"], ["--k-max"]),
        (["verify", "all", "--omega", "1,2", "--a", "1"], ["--omega", "--a"]),
        (["verify", "asymptotic-order", "--omega", "1,2"], ["--omega without --method"]),
        (["verify", "asymptotic-order", "--method", "integral-main-term", "--omega", "1,2",
          "--a", "0.3", "--order", "3"], ["--order"]),
    ],
    ids=["inversion-a", "r2m2-three", "all-k-max", "all-omega", "order-no-method",
         "order-main-term-order"],
)
def test_verify_rejects_unread_flags(argv, unread, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "verify %s does not read" % argv[1] in err
    for flag in unread:
        assert flag in err


@pytest.mark.parametrize(
    "flags, options, unread",
    [
        (["--omega", "1,2"], dict(omega=("1", "2")), "{o}omega without {o}method"),
        (["--r", "2", "--order", "3"], dict(r="2", order="3"),
         "{o}r without {o}method, {o}order without {o}method truncated-series"),
        (["--method", "integral-main-term", "--omega", "1,2", "--order", "3"],
         dict(method="integral-main-term", omega=("1", "2"), order="3"),
         "{o}order without {o}method truncated-series"),
    ],
    ids=["omega", "r-order", "main-term-order"],
)
def test_verify_and_python_refuse_the_same_unread_options(flags, options, unread, capsys):
    # one check, suites.refuse_unread, reads the SUITES companions for both
    code, out, err = _run(capsys, ["verify", "asymptotic-order"] + flags)
    assert code == 2 and out == ""
    assert err == "usage error: verify asymptotic-order does not read %s\n" % unread.format(o="--")
    with pytest.raises(UsageError) as exc:
        suites.suite_asymptotic_order(ctx=CTX, **options)
    assert str(exc.value) == "asymptotic-order does not read " + unread.format(o="")


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["eval", "M", "--omega", "1", "--x", "0.5", "--k", "3", "--index", "1,2"],
         ["--k", "--index"]),
        (["eval", "I", "--r", "3", "--omega", "1,2", "--a", "0", "--x", "0.5"], ["--r"]),
        (["eval", "S", "--omega", "0.5", "--x", "0.3", "--a", "7"], ["--a"]),
        (["eval", "Lambda", "--omega", "2,3", "--k", "1", "--tol", "1e-5", "--threads", "3"],
         ["--tol", "--threads"]),
        (["table", "M", "--omega", "1", "--x-grid", "0.5", "--json", "out.json"], ["--json"]),
        (["table", "M", "--omega", "1", "--x-grid", "0.5", "--m-grid", "3"], ["--m-grid"]),
        (["table", "I", "--r", "5", "--omega", "1", "--a", "2", "--x-grid", "0.5"], ["--r"]),
        (["expand", "--r", "1", "--omega", "1", "--order", "2", "--x", "5", "--tol", "1e-3",
          "--threads", "4"], ["--x", "--tol", "--threads"]),
        (["eval", "Li0", "--index", "1", "--z", "0.5", "--x", "0.5", "--omega", "1"],
         ["--omega"]),
        (["eval", "M", "--r", "2", "--omega", "1", "--x", "0.5"], ["--r"]),
        (["table", "M", "--omega", "1", "--x", "0.5"], ["--x"]),
    ],
    ids=["eval-M-k-index", "eval-I-rank", "eval-S-a", "eval-Lambda-tol-threads",
         "table-json", "table-M-m-grid", "table-I-rank", "expand-x-tol-threads",
         "eval-Li0-omega", "eval-M-rank", "table-x-not-x-grid"],
)
def test_eval_table_expand_reject_unread_flags(argv, unread, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    for flag in unread:
        assert flag in err


def _vals(texts):
    return tuple(to_mpf(t) for t in texts)


# argv tail, canonical object, params and method as eval prints them, and
# the direct library call that eval must reproduce
EVAL_CASES = [
    ("M", ["--omega", "1,2", "--a", "0.5", "--x", "0.3"], "M",
     {"omega": ["1", "2"], "a": "0.5", "x": "0.3"},
     "double-exponential quadrature of the log-product integral",
     lambda: m_integral(to_mpf("0.3"), WeightConfig((1, 2), to_mpf("0.5")), CTX)),
    ("I", ["--r", "1", "--omega", "1", "--a", "2", "--x", "0.4"], "I",
     {"omega": ["1"], "a": "2", "x": "0.4"},
     "double-exponential quadrature of the incomplete-gamma product",
     lambda: i_integral(to_mpf("0.4"), WeightConfig((1,), 2), CTX)),
    ("S", ["--omega", "0.3,-0.2", "--x", "0.4"], "S",
     {"omega": ["0.3", "-0.2"], "x": "0.4"},
     "rising-factorial series with convolved coefficients",
     lambda: s_series(to_mpf("0.4"), _vals(["0.3", "-0.2"]), CTX)),
    ("T", ["--r", "2", "--l", "2", "--omega", "0.1,0.2"], "T",
     {"r": "2", "l": "2", "omega": ["0.1", "0.2"]},
     "jet coefficient of the rising-factorial series",
     lambda: t_coeff(2, 2, _vals(["0.1", "0.2"]), CTX)),
    ("Li", ["--index", "1,2", "--z", "0.3"], "Li",
     {"index": ["1", "2"], "z": ["0.3"]},
     "one-variable nested series",
     lambda: mpl_one_var((1, 2), to_mpf("0.3"), CTX)),
    ("Li", ["--index", "1,2", "--z", "0.3,0.4"], "Li",
     {"index": ["1", "2"], "z": ["0.3", "0.4"]},
     "multi-variable nested series",
     lambda: mpl(PolylogArgs((1, 2), _vals(["0.3", "0.4"])), CTX)),
    ("Li0", ["--index", "1,2", "--z", "0.3,0.4", "--x", "0.5"], "Li0",
     {"index": ["1", "2"], "z": ["0.3", "0.4"], "x": "0.5"},
     "shifted nested series from n=0",
     lambda: hurwitz_li0(to_mpf("0.5"), PolylogArgs((1, 2), _vals(["0.3", "0.4"])), CTX)),
    ("Li1", ["--index", "02", "--z", "0.3", "--x", "0.5"], "Li1",
     {"index": ["2"], "z": ["0.3"], "x": "0.5"},
     "shifted nested series from n=1",
     lambda: hurwitz_li1(to_mpf("0.5"), PolylogArgs((2,), _vals(["0.3"])), CTX)),
    ("c", ["--r", "2", "--m", "2", "--omega", "1,2", "--a", "0.3"], "c",
     {"r": "2", "m": "2", "omega": ["1", "2"], "a": "0.3"},
     "subset-family polylog combination",
     lambda: c_coeff(2, 2, WeightConfig((1, 2), to_mpf("0.3")), CTX)),
    ("cprime", ["--r", "2", "--m", "2", "--omega", "1,2", "--a", "0.3"], "cprime",
     {"r": "2", "m": "2", "omega": ["1", "2"], "a": "0.3"},
     "symmetric-function and Bell-polynomial closed form",
     lambda: c_prime_coeff(2, 2, WeightConfig((1, 2), to_mpf("0.3")), CTX)),
    ("c'", ["--r", "2", "--m", "1", "--omega", "1,2"], "cprime",
     {"r": "2", "m": "1", "omega": ["1", "2"], "a": "0"},
     "symmetric-function and Bell-polynomial closed form",
     lambda: c_prime_coeff(2, 1, WeightConfig((1, 2), 0), CTX)),
    ("c′", ["--r", "2", "--m", "2", "--omega", "1,3", "--a", "2"], "cprime",
     {"r": "2", "m": "2", "omega": ["1", "3"], "a": "2"},
     "symmetric-function and Bell-polynomial closed form",
     lambda: c_prime_coeff(2, 2, WeightConfig((1, 3), 2), CTX)),
    ("Lambda", ["--omega", "0.3,3", "--k", "1"], "Lambda",
     {"omega": ["0.3", "3"], "k": "1"},
     "elementary symmetric polynomial in log weights",
     lambda: lambda_k(_vals(["0.3", "3"]), 1, CTX)),
    ("Λ", ["--omega", "2,3,5", "--k", "2"], "Lambda",
     {"omega": ["2", "3", "5"], "k": "2"},
     "elementary symmetric polynomial in log weights",
     lambda: lambda_k((2, 3, 5), 2, CTX)),
    ("lambda", ["--omega", "2,3", "--k", "0"], "Lambda",
     {"omega": ["2", "3"], "k": "0"},
     "elementary symmetric polynomial in log weights",
     lambda: lambda_k((2, 3), 0, CTX)),
    ("Bell", ["--n", "4", "--args", "0.1,0.2,0.3,0.4"], "Bell",
     {"n": "4", "args": ["0.1", "0.2", "0.3", "0.4"]},
     "complete Bell polynomial recurrence",
     lambda: bell_complete(4, list(_vals(["0.1", "0.2", "0.3", "0.4"])))),
    ("Stirling", ["--n", "7", "--k", "3"], "Stirling",
     {"n": "7", "k": "3"},
     "triangular recurrence, exact integers",
     lambda: stirling_first_unsigned(7, 3)),
]


def test_eval_cases_cover_every_object():
    assert {case[2] for case in EVAL_CASES} == set(EVAL_OBJECTS)
    assert {case[0] for case in EVAL_CASES} >= {"c'", "c′", "Λ", "lambda"}


@pytest.mark.parametrize(
    "name, tail, obj, params, method, direct",
    EVAL_CASES,
    ids=["%s-%d" % (case[0], i) for i, case in enumerate(EVAL_CASES)],
)
def test_eval_object_params_method_value(name, tail, obj, params, method, direct, capsys):
    code, out, err = _run(capsys, ["eval", name] + tail)
    assert code == 0, err
    data = json.loads(out)
    assert (data["object"], data["params"], data["method"]) == (obj, params, method)
    assert tuple(params) == EVAL_OBJECTS[obj][0]
    with CTX.workprec():
        value = direct()
    expected = str(value) if isinstance(value, int) else value_str(value, 256)
    assert data["value"] == expected


@pytest.mark.parametrize(
    "argv, exact",
    [
        (["eval", "Lambda", "--omega", "0.3,3", "--k", "1"], lambda: mp.log(mpf("0.9"))),
        (["eval", "Li", "--index", "2", "--z", "0.3"], lambda: mp.polylog(2, mpf("0.3"))),
    ],
    ids=["Lambda", "Li"],
)
def test_eval_parses_decimals_at_working_precision(argv, exact, capsys):
    # above 992 bits a decimal parsed at the 1024-bit floor of to_mpf
    # would be off by about 2^-1024
    code, out, err = _run(capsys, argv + ["--bits", "2048"])
    assert code == 0, err
    with mp.workprec(2300):
        value = mpf(json.loads(out)["value"])
        assert abs(value - exact()) <= mpf(2) ** -2040 * max(1, abs(value))


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "M", "--omega", "nan", "--x", "0.5"],
        ["eval", "M", "--omega", "inf", "--x", "0.5"],
        ["eval", "Li0", "--index", "1", "--z", "0.5", "--x", "nan"],
        ["eval", "Li", "--index", "2", "--z", "nan"],
        ["eval", "Li", "--index", "1,2", "--z", "nan"],
        ["eval", "c", "--r", "1", "--m", "1", "--omega", "inf"],
        ["eval", "I", "--omega", "1", "--a", "inf", "--x", "0.5"],
        ["eval", "Lambda", "--omega", "nan,1", "--k", "1"],
        ["eval", "T", "--r", "1", "--l", "1", "--omega", "nan"],
        ["verify", "mzf", "--r", "2", "--x-grid", "nan"],
    ],
    ids=["M-nan", "M-inf", "Li0-x-nan", "Li-nan", "Li-one-var-nan", "c-inf", "I-a-inf",
         "Lambda-nan", "T-nan", "mzf-x-nan"],
)
def test_non_finite_parameters_exit_3(argv, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert "precondition violated" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["eval", "S", "--omega", "0.5", "--x", "nan"], ["eval", "Bell", "--n", "2", "--args", "nan,1"]],
    ids=["S-x-nan", "Bell-nan"],
)
def test_non_finite_series_and_bell_arguments_exit_3(argv, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert "precondition violated" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_verify_refuses_a_tolerance_that_is_not_positive_and_finite(tol, capsys):
    # a suite that ran would have printed its reports
    code, out, err = _run(capsys, ["verify", "r2m2", "--tol", tol])
    assert code == 2 and out == ""
    assert "--tol" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "r2m2", "--json"],
        ["verify", "r2m2", "--csv"],
        ["eval", "Stirling", "--n", "5", "--k", "2", "--json"],
        ["expand", "--omega", "1,1", "--a", "3", "--order", "2", "--csv"],
        ["table", "I", "--omega", "1", "--x-grid", "0.5", "--csv"],
    ],
    ids=["verify-json", "verify-csv", "eval-json", "expand-csv", "table-csv"],
)
def test_unwritable_output_path_exits_2_before_evaluating(argv, tmp_path, capsys):
    # every subcommand prints its result before it writes a file
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = _run(capsys, argv + [str(path)])
        assert code == 2 and out == "", path
        assert "cannot write" in err and "Traceback" not in err


@pytest.mark.parametrize("second", ["P", os.path.join("dir", os.pardir, "P")], ids=["same", "dotdot"])
def test_json_and_csv_naming_one_file_exit_2_before_evaluating(second, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    code, out, err = _run(
        capsys, ["eval", "Stirling", "--n", "5", "--k", "2", "--json", "P", "--csv", second]
    )
    assert code == 2 and out == ""
    assert "name one file" in err and "Traceback" not in err
    assert not (tmp_path / "P").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--r", "3", "--omega", "1,2,3", "--a", "0.5", "--order", "41"],
        ["expand", "--r", "9", "--omega", "1,1,1,1,1,1,1,1,1", "--a", "0.5", "--order", "1"],
        ["verify", "asymptotic-order", "--method", "truncated-series", "--omega", "1,2",
         "--a", "0.3", "--order", "41", "--x-ladder", "0.1,0.05,0.025"],
    ],
    ids=["expand-order", "expand-rank", "verify-order"],
)
def test_expansion_past_a_cap_exits_3_before_any_coefficient(argv, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("coefficient summed past a cap")

    monkeypatch.setattr(asymptotics, "_c_coeffs", unreachable)
    code, _, err = _run(capsys, argv)
    assert code == 3 and "is capped at" in err


@pytest.mark.parametrize(
    "argv, terms",
    [
        (["eval", "c", "--r", "8", "--m", "8", "--omega", "1,2,3,4,5,6,7,8", "--a", "1"], 4958021),
        (["expand", "--r", "8", "--omega", "1,2,3,4,5,6,7,8", "--a", "1", "--order", "40"],
         7191327228901),
    ],
    ids=["eval-c", "expand"],
)
def test_rank_8_past_the_term_budget_exits_3_at_once(argv, terms, monkeypatch, capsys):
    # the guard stands between these and gigabytes of terms: never sum them
    def unreachable(*args):
        raise AssertionError("coefficient summed past the term budget")

    monkeypatch.setattr(asymptotics, "_c_coeffs", unreachable)
    start = time.monotonic()
    code, _, err = _run(capsys, argv)
    assert time.monotonic() - start < 1
    assert code == 3 and "need %d (family, index) terms" % terms in err


class _Quadrature(Exception):
    pass


@pytest.mark.parametrize(
    "extra, message",
    [(["--order", "41"], "is capped at"),
     (["--order", "4", "--x-ladder", "1.5,1.2,1.1"], "0 < x < 1")],
    ids=["order", "ladder"],
)
def test_truncated_series_point_exits_3_before_any_quadrature(extra, message, monkeypatch, capsys):
    def unreachable(*args):
        raise _Quadrature

    monkeypatch.setattr(suites, "i_integral", unreachable)
    code, _, err = _run(capsys, ["verify", "asymptotic-order", "--method", "truncated-series",
                                 "--omega", "1,2", "--a", "0.3"] + extra)
    assert code == 3 and message in err


def _python_m(*argv, module="mtzeta"):
    """Run ``python -m <module> ...`` in a fresh interpreter on this package."""
    env = dict(os.environ)
    root = str(Path(mtzeta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_python_m_runs_the_cli():
    done = _python_m("verify", "r2m2")
    assert done.returncode == 0, done.stderr
    reports = _reports(done.stdout)
    assert len(reports) == 5 and all(report["passed"] for report in reports)
    assert _python_m("verify", "r2m2", "--bits", "32").returncode == 2
    # the package does not import cli, so runpy has no module to warn about
    done = _python_m("verify", "r2m2", module="mtzeta.cli")
    assert done.returncode == 0 and done.stderr == ""
    assert len(_reports(done.stdout)) == 5
