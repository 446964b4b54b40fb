"""
Polylogarithm relations at depths two and three
===============================================

The paper compares two asymptotic formulas for the integral analogue.
At order m = r they give the same coefficient c_{r,r} twice: once as a
sum of nested polylogarithms at telescoping shift ratios over ordered
subset families (c_coeff), and once as a Bell-polynomial closed form in
log(omega_i/(a+|omega|)) and zeta values (c_prime_coeff).  Their
equality is a relation among multiple polylogarithms.  The two sides
share no code path: the left side sums nested series, the right side
is logs and zeta constants, so agreement to dozens of digits is a
genuine cross-check.
"""

from mpmath import mp

from mtzeta import PrecisionContext
from mtzeta.suites import suite_r2m2, suite_r3m3

ctx = PrecisionContext()
tol = "1e-12"

print("depth two, weights (omega1, omega2) with shift a:")
grid = [(("1", "1"), "0"), (("2", "3"), "1"), (("0.5", "1.5"), "0.25")]
for omega, a in grid:
    (rep,) = suite_r2m2(omega=omega, a=a, ctx=ctx, tol=tol)
    print("  (%s; a=%s)  lhs %s  residual %s" % (", ".join(omega), a, mp.nstr(rep.lhs, 12), mp.nstr(rep.residual, 3)))

print()
print("depth three, weights (omega1, omega2, omega3) with shift a:")
grid = [(("1", "1", "1"), "0"), (("1", "2", "3"), "1")]
for omega, a in grid:
    (rep,) = suite_r3m3(omega=omega, a=a, ctx=ctx, tol=tol)
    print("  (%s; a=%s)  lhs %s  residual %s" % (", ".join(omega), a, mp.nstr(rep.lhs, 12), mp.nstr(rep.residual, 3)))
