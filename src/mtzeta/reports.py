"""Verification records and their serialized forms.

Each record pits two evaluation routes against each other and stores
both values at full working precision.  Serialization is deterministic:
JSON lines carry round-trippable decimal strings, CSV cells carry exact
decimal expansions of the underlying binary values, and the residual is
rounded to 20 significant digits on output only.
"""

import csv
import json
import time
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DomainError

JSON_SCHEMA = "mtz-report/1"
RESIDUAL_DIGITS = 20


def _as_mpf(x):
    # conversion at ambient precision would silently round a
    # high-precision value; only non-mpf inputs may be converted
    if isinstance(x, mpf):
        return x
    with mp.workprec(1024):
        return mpf(x)


def exact_decimal(x):
    """Exact decimal expansion of a binary float, never scientific
    notation and never a rounded value."""
    if isinstance(x, int):
        return str(x)
    x = _as_mpf(x)
    if not mp.isfinite(x):
        raise DomainError("cannot render a non-finite value exactly")
    if x == 0:
        return "0"
    sign, man, exp, _ = x._mpf_
    man = int(man)
    exp = int(exp)
    prefix = "-" if sign else ""
    if exp >= 0:
        return prefix + str(man << exp)
    k = -exp
    digits = str(man * 5 ** k)
    if len(digits) <= k:
        digits = "0" * (k - len(digits) + 1) + digits
    whole, frac = digits[:-k], digits[-k:]
    frac = frac.rstrip("0")
    if frac:
        return prefix + whole + "." + frac
    return prefix + whole


def value_str(x, bits):
    """Decimal string with enough digits to reparse to the same binary
    value at the given precision."""
    digits = int(bits * 30103 / 100000) + 3
    return mp.nstr(_as_mpf(x), digits)


def residual_str(x):
    return mp.nstr(_as_mpf(x), RESIDUAL_DIGITS)


@dataclass(frozen=True)
class IdentityReport:
    """One grid point of one identity: two independently computed sides,
    their residual, and the verdict."""

    identity_id: str
    params: dict
    lhs: mpf
    rhs: mpf
    residual: mpf
    tolerance: mpf
    passed: bool
    method: dict
    wall_time_ms: int

    @classmethod
    def from_sides(cls, identity_id, params, lhs, rhs, tolerance, method, t0):
        lhs = _as_mpf(lhs)
        rhs = _as_mpf(rhs)
        tolerance = _as_mpf(tolerance)
        # the subtraction must not run at a lower ambient precision
        # than the operands carry
        bc = max(lhs._mpf_[3], rhs._mpf_[3], mp.prec) + 8
        with mp.workprec(bc):
            residual = abs(lhs - rhs)
        return cls(
            identity_id=str(identity_id),
            params=dict(params),
            lhs=lhs,
            rhs=rhs,
            residual=residual,
            tolerance=tolerance,
            passed=bool(residual <= tolerance),
            method=dict(method),
            wall_time_ms=int((time.perf_counter() - t0) * 1000),
        )

    def sort_key(self):
        return (self.identity_id, json.dumps(self.params, sort_keys=True))

    def to_json_dict(self, bits):
        return {
            "schema": JSON_SCHEMA,
            "identity_id": self.identity_id,
            "params": self.params,
            "lhs": value_str(self.lhs, bits),
            "rhs": value_str(self.rhs, bits),
            "residual": residual_str(self.residual),
            "tolerance": value_str(self.tolerance, bits),
            "passed": self.passed,
            "method": self.method,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json_line(self, bits):
        return json.dumps(self.to_json_dict(bits), separators=(",", ":"))

    def csv_row(self):
        """The report's cells under REPORT_CSV_HEADER."""
        return [
            self.identity_id,
            json.dumps(self.params, sort_keys=True),
            exact_decimal(self.lhs),
            exact_decimal(self.rhs),
            residual_str(self.residual),
            exact_decimal(self.tolerance),
            "true" if self.passed else "false",
            self.method.get("lhs", ""),
            self.method.get("rhs", ""),
            str(self.wall_time_ms),
        ]


REPORT_CSV_HEADER = (
    "identity_id",
    "params",
    "lhs",
    "rhs",
    "residual",
    "tolerance",
    "passed",
    "method_lhs",
    "method_rhs",
    "wall_time_ms",
)


def write_table_csv(header, rows, fh):
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
