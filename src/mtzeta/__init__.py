"""High-precision evaluation and cross-verification of harmonic
multi-sums over shifted weighted lattices, their integral analogues,
and multiple polylogarithms.

The package computes each quantity along at least two independent
routes (nested series, quadrature of integral representations, closed
combinatorial forms) and ships a verification harness that pits the
routes against each other over fixed parameter grids.
"""

__version__ = "0.1.0"

from .asymptotics import (
    c_coeff,
    c_prime_coeff,
    expression_by_S,
    i1_expansion,
    i_expansion,
    main_term_I,
    main_term_M,
    power_series_I,
)
from .combinatorics import (
    compositions,
    disjoint_subset_families,
    lambda_k,
    weak_compositions,
)
from .context import PrecisionContext, to_mpf
from .errors import BudgetError, DomainError, QuadratureError
from .kernel import (
    bell_complete,
    euler_gamma,
    gamma0,
    stirling_first_unsigned,
    zeta_value,
)
from .polylog import (
    MultiIndex,
    PolylogArgs,
    hurwitz_li0,
    hurwitz_li1,
    mpl,
    mpl_one_var,
)
from .reports import IdentityReport, exact_decimal
from .series import (
    WeightConfig,
    i_integral,
    m_integral,
    s_series,
    t_coeff,
    zeta_ez_ones,
)
from .suites import (
    run_suite,
    suite_asymptotic_order,
    suite_inversion,
    suite_mzf,
    suite_r2m2,
    suite_r3m3,
    verify_all,
)

__all__ = [
    "BudgetError",
    "DomainError",
    "IdentityReport",
    "MultiIndex",
    "PolylogArgs",
    "PrecisionContext",
    "QuadratureError",
    "WeightConfig",
    "bell_complete",
    "c_coeff",
    "c_prime_coeff",
    "compositions",
    "disjoint_subset_families",
    "euler_gamma",
    "exact_decimal",
    "expression_by_S",
    "gamma0",
    "hurwitz_li0",
    "hurwitz_li1",
    "i1_expansion",
    "i_expansion",
    "i_integral",
    "lambda_k",
    "m_integral",
    "main_term_I",
    "main_term_M",
    "mpl",
    "mpl_one_var",
    "power_series_I",
    "run_suite",
    "s_series",
    "stirling_first_unsigned",
    "suite_asymptotic_order",
    "suite_inversion",
    "suite_mzf",
    "suite_r2m2",
    "suite_r3m3",
    "t_coeff",
    "to_mpf",
    "verify_all",
    "zeta_ez_ones",
]
