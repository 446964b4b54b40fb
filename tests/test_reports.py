"""Report records and serialization: exact decimal rendering,
round-trippable value strings, verdict logic, deterministic ordering,
and RFC-style CSV quoting."""

import io
import json
import random
import time

import pytest
from mpmath import mp, mpf

from mtzeta.cli import cli_main
from mtzeta.context import to_mpf
from mtzeta.errors import DomainError
from mtzeta.reports import (
    REPORT_CSV_HEADER,
    IdentityReport,
    exact_decimal,
    residual_str,
    value_str,
    write_table_csv,
)


def test_exact_decimal_simple_values():
    assert exact_decimal(0) == "0"
    assert exact_decimal(mpf(0)) == "0"
    assert exact_decimal(7) == "7"
    assert exact_decimal(mpf(3)) == "3"
    assert exact_decimal(mpf("0.5")) == "0.5"
    assert exact_decimal(mpf("1.25")) == "1.25"
    assert exact_decimal(mpf("-0.5")) == "-0.5"
    assert exact_decimal(mpf(2) ** 10) == "1024"
    assert exact_decimal(mpf(2) ** -3) == "0.125"


def test_exact_decimal_never_rounds_high_precision():
    x = to_mpf("0.1")
    s = exact_decimal(x)
    with mp.workprec(1200):
        assert mpf(s) == x


def test_exact_decimal_random_round_trip():
    rng = random.Random(4)
    with mp.workprec(400):
        for _ in range(50):
            bits = rng.randint(1, 300)
            man = rng.getrandbits(bits) | 1
            exp = rng.randint(-400, 40)
            x = mpf(man) * mpf(2) ** exp
            if rng.random() < 0.5:
                x = -x
            s = exact_decimal(x)
            assert "e" not in s and "E" not in s
            with mp.workprec(1300):
                assert mpf(s) == x


def test_exact_decimal_rejects_nonfinite():
    with pytest.raises(DomainError):
        exact_decimal(mp.inf)


def test_value_str_round_trips_at_given_bits():
    with mp.workprec(256):
        x = +mp.pi
        s = value_str(x, 256)
        assert mpf(s) == x


def test_residual_str_twenty_digits():
    s = residual_str(to_mpf("0.12345678901234567890987654321"))
    assert s == "0.12345678901234567891"
    assert residual_str(to_mpf("1.25e-75")) == "1.25e-75"


def _make_report(lhs, rhs, tol):
    return IdentityReport.from_sides(
        "demo/check",
        {"omega": ["1", "2"], "a": "0.5"},
        lhs,
        rhs,
        tol,
        {"lhs": "route one", "rhs": "route two"},
        time.perf_counter(),
    )


def test_report_verdict_boundary():
    with mp.workprec(200):
        lhs = mpf(2)
        rhs = mpf(2) + mpf(2) ** -150
        gap = mpf(2) ** -150
    assert _make_report(lhs, rhs, gap).passed
    with mp.workprec(200):
        tight = mpf(2) ** -151
    assert not _make_report(lhs, rhs, tight).passed


def test_report_residual_keeps_operand_precision():
    # a 200-bit gap must survive construction at 53-bit ambient precision
    with mp.workprec(200):
        lhs = mpf(2)
        rhs = mpf(2) + mpf(2) ** -150
    rep = _make_report(lhs, rhs, to_mpf("1e-30"))
    with mp.workprec(250):
        assert rep.residual == mpf(2) ** -150


def test_report_json_shape():
    rep = _make_report(to_mpf(1), to_mpf(1), to_mpf("1e-30"))
    line = rep.to_json_line(256)
    data = json.loads(line)
    assert list(data.keys()) == [
        "schema", "identity_id", "params", "lhs", "rhs",
        "residual", "tolerance", "passed", "method", "wall_time_ms",
    ]
    assert data["schema"] == "mtz-report/1"
    assert data["passed"] is True
    assert isinstance(data["wall_time_ms"], int)
    assert data["wall_time_ms"] >= 0
    assert data["method"] == {"lhs": "route one", "rhs": "route two"}


def test_report_sort_key_orders_params():
    a = _make_report(to_mpf(1), to_mpf(1), to_mpf("1e-30"))
    b = IdentityReport.from_sides(
        "demo/check",
        {"omega": ["1", "3"], "a": "0.5"},
        to_mpf(1),
        to_mpf(1),
        to_mpf("1e-30"),
        {"lhs": "x", "rhs": "y"},
        time.perf_counter(),
    )
    assert a.sort_key() < b.sort_key()


def test_jsonl_writer_lf_lines(tmp_path, capsys):
    path = tmp_path / "reports.jsonl"
    assert cli_main(["verify", "r2m2", "--json", str(path)]) == 0
    text = path.read_bytes().decode()
    assert text.count("\n") == 5
    assert "\r" not in text
    for line in text.splitlines():
        assert json.loads(line)["schema"] == "mtz-report/1"
    assert text == capsys.readouterr().out


def test_reports_csv_quoting_and_crlf():
    rep = _make_report(to_mpf("0.5"), to_mpf("0.25"), to_mpf("1e-30"))
    buf = io.StringIO()
    write_table_csv(REPORT_CSV_HEADER, [rep.csv_row()], buf)
    text = buf.getvalue()
    lines = text.split("\r\n")
    assert lines[0].startswith("identity_id,params,")
    # params cell holds JSON with commas, so it must be quoted
    assert '"{""a"": ""0.5"", ""omega"": [""1"", ""2""]}"' in lines[1]
    assert ",0.5,0.25," in lines[1]
    assert ",false," in lines[1]


def test_table_csv_quoting():
    buf = io.StringIO()
    write_table_csv(["name", "value"], [['with,comma', 'quote"inside']], buf)
    text = buf.getvalue()
    assert text.split("\r\n")[1] == '"with,comma","quote""inside"'
