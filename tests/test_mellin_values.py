"""Values of i_integral and m_integral, bit for bit, against
tests/data/mellin_values.json: the raw mpf tuple of each Mellin integral
on a fixed set of configurations, beyond the few that `verify all`
reports.  The cases are the three quad-table strata of perfbench at their
unjittered centres, (1, 1, 1) at a = 0, and I at omega = (0.2, 7),
a = 2.5 with a small and a moderate x, each at 128, 256 and 512 bits.

A change meant to keep every value bit-identical leaves the file as it
is.  A change that moves values on purpose regenerates it with

    PYTHONPATH=src python tests/test_mellin_values.py

which prints each case whose value moved before it writes; CHANGES.md
then says which moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

from mtzeta import series
from mtzeta.context import PrecisionContext, to_mpf
from mtzeta.series import WeightConfig

BITS = (128, 256, 512)
DATA = Path(__file__).with_name("data") / "mellin_values.json"

# (kind, omega, a, x grid)
CASES = (
    ("I", ("1.6",), "0", ("0.2", "0.65", "1.05")),
    ("M", ("0.5", "2"), "1", ("0.3", "1", "1.7")),
    ("M", ("0.003", "0.5", "2.4"), "0", ("0.5", "1.2", "1.8")),
    ("I", ("1", "1", "1"), "0", ("0.5", "1")),
    ("M", ("1", "1", "1"), "0", ("0.5", "1")),
    ("I", ("0.2", "7"), "2.5", ("0.01", "1.5")),
)


def _key(kind, omega, a, x, bits):
    return "%s(%s;%s;%s)@%d" % (kind, ",".join(omega), a, x, bits)


def _values(bits):
    """{key: [sign, mantissa, exponent, bitcount]} for every case at bits,
    each configuration's x in turn, as a table sweep runs them."""
    ctx = PrecisionContext(precision_bits=bits)
    out = {}
    for kind, omega, a, xs in CASES:
        fn = series.i_integral if kind == "I" else series.m_integral
        w = WeightConfig(tuple(to_mpf(o) for o in omega), to_mpf(a))
        for x in xs:
            out[_key(kind, omega, a, x, bits)] = list(fn(to_mpf(x), w, ctx)._mpf_)
    return out


@pytest.mark.parametrize("bits", BITS)
def test_mellin_values_match_pinned_file(bits):
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    got = _values(bits)
    assert got == {k: v for k, v in pinned.items() if k.endswith("@%d" % bits)}


if __name__ == "__main__":
    old = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else {}
    new = {}
    for bits in BITS:
        new.update(_values(bits))
    for key, value in new.items():
        if old.get(key) != value:
            sys.stderr.write("moved: %s\n" % key)
    lines = ["%s: %s" % (json.dumps(key), json.dumps(value)) for key, value in new.items()]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    sys.stderr.write("wrote %d values to %s\n" % (len(new), DATA))
