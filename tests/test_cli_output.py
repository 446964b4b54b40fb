"""The bytes `mtz` writes: stdout and the --json/--csv files of eval,
expand and table, pinned for inputs with exact values, and verify's two
files checked against each other report by report."""

import csv
import io
import json

import pytest
from mpmath import mp, mpf

from mtzeta.cli import cli_main

# argv, stdout, --json file, --csv file; every value here is exact, so
# no change to the numerics can move these bytes
PINNED = [
    (
        ["eval", "Stirling", "--n", "5", "--k", "2"],
        '{"schema":"mtz-eval/1","object":"Stirling","params":{"n":"5","k":"2"},'
        '"value":"50","method":"triangular recurrence, exact integers","bits":256}\n',
        b'{"schema":"mtz-eval/1","object":"Stirling","params":{"n":"5","k":"2"},'
        b'"value":"50","method":"triangular recurrence, exact integers","bits":256}\n',
        b'object,params,value,method\r\n'
        b'Stirling,"{""k"": ""2"", ""n"": ""5""}",50,"triangular recurrence, exact integers"\r\n',
    ),
    (
        ["eval", "Bell", "--n", "3", "--args", "1,2,3"],
        '{"schema":"mtz-eval/1","object":"Bell","params":{"n":"3","args":["1","2","3"]},'
        '"value":"10.0","method":"complete Bell polynomial recurrence","bits":256}\n',
        b'{"schema":"mtz-eval/1","object":"Bell","params":{"n":"3","args":["1","2","3"]},'
        b'"value":"10.0","method":"complete Bell polynomial recurrence","bits":256}\n',
        b'object,params,value,method\r\n'
        b'Bell,"{""args"": [""1"", ""2"", ""3""], ""n"": ""3""}",10,'
        b'complete Bell polynomial recurrence\r\n',
    ),
    (
        ["expand", "--r", "1", "--omega", "1", "--a", "1", "--order", "0"],
        "m    power  coefficient\n0    -1     1.0\n",
        b'{"schema":"mtz-expand/1","omega":["1"],"a":"1","m":0,"power":-1,"coeff":"1.0"}\n',
        b"m,power,coefficient\r\n0,-1,1\r\n",
    ),
]

TABLE_ARGV = ["table", "cprime", "--r", "1", "--omega", "1", "--a", "0", "--m-grid", "1"]
TABLE_CSV = "object,r,omega,a,m,value\r\ncprime,1,1,0,1,0\r\n"


@pytest.mark.parametrize(
    "argv,out,json_bytes,csv_bytes", PINNED, ids=["eval-Stirling", "eval-Bell", "expand"]
)
def test_pinned_stdout_and_files(argv, out, json_bytes, csv_bytes, tmp_path, capsys):
    json_path, csv_path = tmp_path / "out.jsonl", tmp_path / "out.csv"
    code = cli_main(argv + ["--json", str(json_path), "--csv", str(csv_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, out, "")
    assert json_path.read_bytes() == json_bytes
    assert csv_path.read_bytes() == csv_bytes
    # the files do not change what is printed
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == out


def test_pinned_table_stdout_and_file(tmp_path, capsys):
    assert cli_main(TABLE_ARGV) == 0
    assert capsys.readouterr().out == TABLE_CSV
    path = tmp_path / "table.csv"
    assert cli_main(TABLE_ARGV + ["--csv", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == TABLE_CSV.encode()


def test_verify_csv_rows_match_json_lines(tmp_path, capsys):
    json_path, csv_path = tmp_path / "reports.jsonl", tmp_path / "reports.csv"
    code = cli_main(
        ["verify", "inversion", "--omega", "1", "--a", "3", "--k-max", "1",
         "--json", str(json_path), "--csv", str(csv_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json_path.read_bytes() == out.encode()
    lines = [json.loads(line) for line in out.splitlines()]
    raw = csv_path.read_bytes().decode()
    assert raw.endswith("\r\n") and raw.count("\n") == raw.count("\r\n") == len(lines) + 1
    header, *rows = csv.reader(io.StringIO(raw, newline=""))
    assert header[:2] == ["identity_id", "params"]
    assert len(rows) == len(lines) == 2
    bits = 256
    for line, row in zip(lines, rows):
        cells = dict(zip(header, row))
        assert cells["identity_id"] == line["identity_id"]
        assert json.loads(cells["params"]) == line["params"]
        assert cells["passed"] == ("true" if line["passed"] else "false")
        assert int(cells["wall_time_ms"]) == line["wall_time_ms"]
        assert (cells["method_lhs"], cells["method_rhs"]) == (
            line["method"]["lhs"], line["method"]["rhs"])
        for key in ("lhs", "rhs", "tolerance"):
            assert "e" not in cells[key].lower()
            with mp.workprec(bits):
                assert mpf(cells[key]) == mpf(line[key]), key
