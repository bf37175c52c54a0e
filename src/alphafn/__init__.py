"""alphafn: the entire function alpha(x, s) = sum_{n>=0} x^n/(n!)^s.

Evaluation by independent routes -- direct series with rigorous tail
bounds, coefficient-product circle integrals, torus integrals for s = 3,
and the modified Bessel reduction I0 -- plus numerical verification of the
identities tying the routes together (including the Stirling-coefficient
differential equation alpha satisfies).
"""

from .errors import (
    AlphaFnError,
    DomainViolationError,
    ImaginaryResidueError,
    InvalidQueryError,
    NonConvergenceError,
    ToleranceNotReachedError,
)
from .hadamard import (
    EXP,
    AnalyticFunction,
    alpha2_integrand,
    alpha2_quadrature,
    alpha3_integrand_complex,
    alpha3_integrand_real,
    alpha3_quadrature_complex,
    alpha3_quadrature_real,
    alpha_via_hadamard,
    bessel_identity_check,
    hadamard_eval,
)
from .quadrature import QuadratureResult, trapezoid_periodic_1d
from .report import ComparisonReport, MethodValue, compare_methods, evaluate_method
from .series import (
    DEFAULT_TOL,
    SeriesResult,
    alpha_derivative_series,
    alpha_series,
    bessel_i0,
)
from .stirling import (
    MAX_N,
    ode_residual,
    stirling2,
    stirling_genfunc_residual,
)
from .verify import CaseResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "AlphaFnError",
    "AnalyticFunction",
    "CaseResult",
    "ComparisonReport",
    "DEFAULT_TOL",
    "DomainViolationError",
    "EXP",
    "ImaginaryResidueError",
    "InvalidQueryError",
    "MAX_N",
    "MethodValue",
    "NonConvergenceError",
    "QuadratureResult",
    "SeriesResult",
    "ToleranceNotReachedError",
    "alpha2_integrand",
    "alpha2_quadrature",
    "alpha3_integrand_complex",
    "alpha3_integrand_real",
    "alpha3_quadrature_complex",
    "alpha3_quadrature_real",
    "alpha_derivative_series",
    "alpha_series",
    "alpha_via_hadamard",
    "bessel_i0",
    "bessel_identity_check",
    "compare_methods",
    "evaluate_method",
    "hadamard_eval",
    "ode_residual",
    "run_suite",
    "stirling2",
    "stirling_genfunc_residual",
    "trapezoid_periodic_1d",
    "__version__",
]
