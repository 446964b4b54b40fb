"""
Expansion coefficients: nested-polylog sum vs Bell closed form
==============================================================

The coefficient c_{r,m} of x^{m-r} in the normalized expansion has two
independent evaluators: the combinatorial sum over compositions and
disjoint index families, and (for m <= r) a Bell-polynomial closed form.
They agree to working precision, and both satisfy the shift recurrence
that absorbs one weight into the shift.  The truncated series then
reproduces the quadrature value of I_r.
"""

from mpmath import mp, mpf

from mtzeta import PrecisionContext, WeightConfig
from mtzeta import c_coeff, c_prime_coeff, i_expansion, i_integral, power_series_I

ctx = PrecisionContext()

w = WeightConfig(omega=(1, 2), a=0.5)

with ctx.workprec():
    # the two evaluators take disjoint routes; the gap is pure numerics
    print("c_{2,m} two ways at weights (1,2), shift 0.5")
    for m in (1, 2):
        c = c_coeff(2, m, w, ctx)
        cp = c_prime_coeff(2, m, w, ctx)
        print("  m=%d  %-24s  gap %s" % (m, mp.nstr(c, 16), mp.nstr(abs(c - cp), 3)))

    # shift recurrence: drop one weight, add it to a
    lhs = c_coeff(2, 1, w, ctx)
    rhs = mpf(0)
    for i in range(2):
        rest = w.omega[:i] + w.omega[i + 1 :]
        rhs += c_coeff(1, 1, WeightConfig(omega=rest, a=w.a + w.omega[i]), ctx)
    print("shift recurrence gap:", mp.nstr(abs(lhs - rhs), 3))

    # table of the expansion through x^2 and its value against quadrature;
    # entry m of the coefficient tuple belongs to x^(m - r)
    coeffs = i_expansion(w, 4, ctx)
    print()
    print("normalized expansion, rank 2, four coefficient orders:")
    for m, c in enumerate(coeffs):
        print("  x^%-3d %s" % (m - w.r, mp.nstr(c, 16)))
    x = mpf("0.3")
    series = power_series_I(x, w, 4, ctx)
    quad = i_integral(x, w, ctx)
    print("series vs quadrature at x=0.3:", mp.nstr(abs(series - quad), 3))
    series = power_series_I(x, w, 12, ctx)
    print("same with twelve coefficients:", mp.nstr(abs(series - quad), 3))
