"""Exception types shared across the package.

Every rejected precondition raises DomainError with a message naming the
violated condition; callers (CLI included) can rely on that to distinguish
domain problems (exit 3) from genuine tolerance failures (exit 1).  Its
subclass UsageError marks options that do not fit together (exit 2).
"""


class DomainError(ValueError):
    """An input violates a documented precondition (e.g. x <= 0, |z| >= 1)."""


class UsageError(DomainError):
    """Options that do not fit together: a wrong count, a repeat, an unknown choice."""


class BudgetError(RuntimeError):
    """A truncation or enumeration cap (context.MAX_TERMS, QUAD_LEVELS,
    MAX_RANK, asymptotics.MAX_ORDER) was exceeded before the requested
    accuracy was reached.  Never silently degraded into an approximate
    answer."""


class QuadratureError(BudgetError):
    """Double-exponential quadrature failed to converge within the level cap."""
