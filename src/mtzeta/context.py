"""Precision context and the package-wide caps.

All numerical routines take an explicit PrecisionContext and do their mpf
arithmetic inside ``mp.workprec`` blocks derived from it, so results do not
depend on the caller's ambient mpmath state.  The caps are module
constants that each evaluator reads when it is called.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import libmp, mp, mpf

from .errors import DomainError

# Extra mantissa bits used inside kernels to absorb rounding of long
# summations; results are still only trusted to precision_bits.
GUARD_BITS = 32

# Rank cap: c-coefficient families and 2^r-subset sums grow with r, and the
# zeta_ez_ones tail loses digits to Newton's identity; beyond it, refuse.
MAX_RANK = 8

# Caps on series terms (nested sums, the auxiliary series' degree, the
# Euler-Maclaurin cutoff) and on DE quadrature levels; beyond them
# evaluators raise BudgetError (QuadratureError for levels).
MAX_TERMS = 500_000
QUAD_LEVELS = 10


def to_mpf(value) -> mpf:
    """Convert a number (int, float, str, mpf) to mpf without precision loss.

    Ints and floats convert exactly at any ambient precision.  Strings are
    parsed at no less than 1024 bits (more if the ambient precision or the
    digit count demands it), so a decimal like "0.3" denotes the same
    number regardless of where conversion happens; for contexts beyond
    1024 bits, convert inside the context's workprec.
    """
    if isinstance(value, mpf):
        return value
    if isinstance(value, int):
        return mp.make_mpf(libmp.from_int(value))
    if isinstance(value, float):
        return mp.make_mpf(libmp.from_float(value))
    if isinstance(value, str):
        with mp.workprec(max(mp.prec, 1024, 16 + 4 * len(value))):
            return mpf(value)
    return mpf(value)


def positive_x(x) -> mpf:
    """to_mpf(x), refusing all but finite x > 0, where every x-dependent
    evaluation (shifted polylogs, the integrals, the main terms) lives."""
    x = to_mpf(x)
    if not 0 < x < mp.inf:
        raise DomainError("x must be positive and finite, got %s" % x)
    return x


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision and acceptance tolerance.

    precision_bits: mantissa bits for every mpf operation (>= 64).
    target_tol:     acceptance tolerance; quadrature refines until successive
                    levels agree to target_tol/4 and, by digit doubling, the last
                    is off by under max(2^-(bits-16), (target_tol/4)^2)/4.  Default:
                    max(1e-30, 2^-(bits-16)), the guard-digit floor below 116 bits.
    """

    precision_bits: int = 256
    target_tol: mpf | None = None

    def __post_init__(self):
        if self.precision_bits < 64:
            raise DomainError("precision_bits must be >= 64")
        # guard digits must exist between tolerance and machine epsilon
        floor = mpf(2) ** (-(self.precision_bits - 16))
        if self.target_tol is None:
            tol = max(to_mpf("1e-30"), floor)
        else:
            tol = to_mpf(self.target_tol)
        object.__setattr__(self, "target_tol", tol)
        if not self.target_tol > 0:
            raise DomainError("target_tol must be positive")
        if self.target_tol < floor:
            raise DomainError(
                "target_tol must be >= 2^-(precision_bits-16); "
                "raise precision_bits or loosen target_tol"
            )

    @property
    def eps(self) -> mpf:
        """2^-precision_bits, the round-off unit of the context."""
        return mpf(2) ** (-self.precision_bits)

    def workprec(self):
        """mp.workprec context manager at precision_bits + GUARD_BITS."""
        return mp.workprec(self.precision_bits + GUARD_BITS)
