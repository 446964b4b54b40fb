"""The 28 default `verify all` reports at 128, 256 and 512 bits, byte for
byte, against tests/data/verify_all_<bits>.jsonl with wall_time_ms zeroed.

A change meant to keep every value bit-identical leaves the files as they
are.  A change that moves values on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each precision, the reports whose lines changed (with
the fields that moved and the residual before and after) before it
writes; CHANGES.md then says which reports moved and why.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from mtzeta.cli import cli_main

BITS = (128, 256, 512)


def _golden(bits):
    return Path(__file__).with_name("data") / ("verify_all_%d.jsonl" % bits)


def _reports(tmp_dir, bits):
    """The JSON lines of `mtz verify all --bits <bits>`, wall_time_ms zeroed."""
    path = Path(tmp_dir) / "reports.jsonl"
    assert cli_main(["verify", "all", "--bits", str(bits), "--json", str(path)]) == 0
    return re.sub(r'"wall_time_ms":\d+', '"wall_time_ms":0', path.read_text(encoding="utf-8"))


def _check(bits, tmp_path, capsys):
    got = _reports(tmp_path, bits)
    capsys.readouterr()
    assert len(got.splitlines()) == 28
    assert got == _golden(bits).read_text(encoding="utf-8")


def test_verify_all_matches_golden_file(tmp_path, capsys):
    _check(256, tmp_path, capsys)


@pytest.mark.parametrize("bits", [128, 512])
def test_verify_all_matches_golden_file_off_256(bits, tmp_path, capsys):
    # the fixed-point kernels, the node tables and the Euler-Maclaurin
    # cutoffs all follow the precision
    _check(bits, tmp_path, capsys)


def _moved(old_text, new_text):
    """One line per report of new_text whose line is not in old_text: its
    identity id, parameters, the fields that differ and the residual
    before and after (matched on identity id and parameters)."""
    def key(rep):
        return rep["identity_id"], json.dumps(rep["params"], sort_keys=True)

    old = {key(rep): rep for rep in map(json.loads, old_text.splitlines())}
    lines = set(old_text.splitlines())
    for line in new_text.splitlines():
        if line not in lines:
            rep = json.loads(line)
            was = old.get(key(rep), {})
            fields = [f for f in rep if rep[f] != was.get(f)]
            yield "%s %s: %s; residual %s -> %s" % (
                key(rep) + (",".join(fields), was.get("residual"), rep["residual"]))


if __name__ == "__main__":
    import tempfile

    for bits in BITS:
        with tempfile.TemporaryDirectory() as tmp:
            text = _reports(tmp, bits)
        golden = _golden(bits)
        old = golden.read_text(encoding="utf-8") if golden.exists() else ""
        for line in _moved(old, text):
            sys.stderr.write("%d bits: %s\n" % (bits, line))
        golden.parent.mkdir(exist_ok=True)
        golden.write_text(text, encoding="utf-8")
        sys.stderr.write("wrote %d reports to %s\n" % (len(text.splitlines()), golden))
