"""The 28 default `verify all` reports at 256 bits, byte for byte, against
tests/data/verify_all_256.jsonl with wall_time_ms zeroed.

A change meant to keep every value bit-identical leaves the file as it
is.  A change that moves values on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which reports moved and why.
"""

import re
import sys
from pathlib import Path

from mtzeta.cli import cli_main

GOLDEN = Path(__file__).with_name("data") / "verify_all_256.jsonl"


def _reports(tmp_dir):
    """The JSON lines of `mtz verify all --bits 256`, wall_time_ms zeroed."""
    path = Path(tmp_dir) / "reports.jsonl"
    assert cli_main(["verify", "all", "--bits", "256", "--json", str(path)]) == 0
    return re.sub(r'"wall_time_ms":\d+', '"wall_time_ms":0', path.read_text(encoding="utf-8"))


def test_verify_all_matches_golden_file(tmp_path, capsys):
    got = _reports(tmp_path)
    capsys.readouterr()
    assert len(got.splitlines()) == 28
    assert got == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text = _reports(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")
    sys.stderr.write("wrote %d reports to %s\n" % (len(text.splitlines()), GOLDEN))
