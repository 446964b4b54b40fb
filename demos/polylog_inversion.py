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

from mtzeta import PrecisionContext
from mtzeta.suites import suite_inversion

ctx = PrecisionContext()

print("omega = 1, a = 3")
print("k   direction   lhs                      residual")
reports = suite_inversion(omega=("1",), a="3", k_max=5, ctx=ctx, tol="1e-12")
for rep in sorted(reports, key=lambda rep: int(rep.params["k"])):
    direction = rep.identity_id.rsplit("/", 2)[1]
    print(
        "%-3s %-10s  %-24s %s"
        % (rep.params["k"], direction, mp.nstr(rep.lhs, 16), mp.nstr(rep.residual, 3))
    )
