"""
Inversion between depth-k polylogarithms and classical ones
===========================================================

For 0 < omega < a the depth-k value Li_{1,...,1,2}(-omega/a) and the
classical Li_{k+1}(a/(a+omega)) determine each other through a
triangular system in powers of L = log(a/(a+omega)).  Both directions
are checked below: the nested series on one side, the classical
polylogarithm on the other.
"""

from mpmath import mp

from mtzeta import PrecisionContext, to_mpf
from mtzeta.suites import inversion_point

ctx = PrecisionContext()
tol = to_mpf("1e-12")

print("omega = 1, a = 3")
print("k   direction   lhs                      residual")
for rep in inversion_point("1", "3", 5, ctx, tol):
    direction = rep.identity_id.rsplit("/", 2)[1]
    print(
        "%-3s %-10s  %-24s %s"
        % (rep.params["k"], direction, mp.nstr(rep.lhs, 16), mp.nstr(rep.residual, 3))
    )
