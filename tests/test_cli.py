"""Command-line behavior: JSON output shape, exit codes, file writers,
environment overrides, and deterministic repeated invocations."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

import mtzeta
from mtzeta.cli import cli_main
from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.errors import QuadratureError

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


def test_env_overrides(monkeypatch, capsys):
    monkeypatch.setenv("MTZ_PRECISION_BITS", "128")
    code, out, _ = _run(capsys, ["eval", "Lambda", "--omega", "2,3", "--k", "1"])
    assert code == 0
    assert json.loads(out)["bits"] == 128
    monkeypatch.setenv("MTZ_PRECISION_BITS", "not-a-number")
    code, _, err = _run(capsys, ["eval", "Lambda", "--omega", "2,3", "--k", "1"])
    assert code == 2 and "MTZ_PRECISION_BITS" in err
    monkeypatch.delenv("MTZ_PRECISION_BITS")
    monkeypatch.setenv("MTZ_THREADS", "0")
    code, _, err = _run(capsys, ["verify", "r2m2", "--omega", "1,1", "--a", "0"])
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


def test_verify_weight_count_and_missing_shift(capsys):
    code, _, err = _run(capsys, ["verify", "r3m3", "--omega", "1,2"])
    assert code == 2 and "usage error" in err
    code, _, err = _run(capsys, ["verify", "inversion", "--omega", "1"])
    assert code == 2 and "--a" in err


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
    ],
    ids=["inversion-a", "r2m2-three", "all-k-max", "all-omega", "order-no-method"],
)
def test_verify_rejects_unread_flags(argv, unread, capsys):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "verify %s does not read" % argv[1] in err
    for flag in unread:
        assert flag in err


def _python_m(*argv):
    """Run ``python -m mtzeta ...`` in a fresh interpreter on this package."""
    env = dict(os.environ)
    root = str(Path(mtzeta.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "mtzeta", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_python_m_runs_the_cli():
    done = _python_m("verify", "r2m2")
    assert done.returncode == 0, done.stderr
    reports = _reports(done.stdout)
    assert len(reports) == 5 and all(report["passed"] for report in reports)
    assert _python_m("verify", "r2m2", "--bits", "32").returncode == 2
