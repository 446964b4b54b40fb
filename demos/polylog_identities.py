"""
Closed-form polylogarithm identities at depths two and three
============================================================

Each identity equates a combination of nested polylogarithms at
telescoping shift ratios with elementary logarithms and zeta values.
The two sides share no code path: the left side sums nested series,
the right side is logs and zeta constants, so agreement to dozens of
digits is a genuine cross-check.
"""

from mpmath import mp

from mtzeta import PrecisionContext
from mtzeta.suites import suite_r2m2, suite_r3m3

ctx = PrecisionContext()
tol = "1e-12"

print("depth two, weights (omega1, omega2) with shift a:")
grid = [("1", "1", "0"), ("2", "3", "1"), ("0.5", "1.5", "0.25")]
for rep in suite_r2m2(grid=grid, ctx=ctx, tol=tol):
    print(
        "  (%s; a=%s)  lhs %s  residual %s"
        % (", ".join(rep.params["omega"]), rep.params["a"], mp.nstr(rep.lhs, 12), mp.nstr(rep.residual, 3))
    )

print()
print("depth three, weights (omega1, omega2, omega3) with shift a:")
grid = [("1", "1", "1", "0"), ("1", "2", "3", "1")]
for rep in suite_r3m3(grid=grid, ctx=ctx, tol=tol):
    print(
        "  (%s; a=%s)  lhs %s  residual %s"
        % (", ".join(rep.params["omega"]), rep.params["a"], mp.nstr(rep.lhs, 12), mp.nstr(rep.residual, 3))
    )
