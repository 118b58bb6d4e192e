"""Numerical toolkit for Riemann-Liouville fractional calculus on an interval.

Split representations of functions with p-integrable fractional
derivatives, the integration-by-parts identity with boundary terms, Bolza
functionals with Euler-Lagrange residuals, and a Galerkin solver for the
linear fractional boundary value problem.
"""

from .special import (
    PowerTerm,
    Side,
    beta,
    frac_derivative_power,
    frac_derivative_terms,
    frac_integral_power,
    frac_integral_terms,
    gamma,
    reciprocal_gamma,
    terms_eval,
    terms_integral,
    terms_product_integral,
    poly_to_left_terms,
    poly_to_right_terms,
)
from .core import (
    FracParams,
    Grid,
    GridFunction,
    RegimeError,
    RightSplitFunction,
    RlDerivative,
    SplitFunction,
    WeightOperator,
    admissible_r_range,
    build_weight_operator,
    eval_split,
    left_derivative_grid,
    left_derivative_split,
    left_integral,
    left_subdiffusion_boundary_value,
    right_derivative_grid,
    right_integral,
    rl_derivative_of_ac,
    sample_split,
)
from .ibp import IbpReport, ibp_report
from .varcalc import (
    ElReport,
    GrowthCertificate,
    LagrangianSpec,
    QPTerm,
    QuasiPolynomial,
    bolza_value,
    boundary_test_functions,
    check_dominations,
    el_report,
    first_variation,
    power_lagrangian,
    poly_lagrangian,
    quadratic_lagrangian,
    validate_growth,
)
from .bvp import (
    BvpProblem,
    BvpSolution,
    assemble_system,
    feasible_element,
    manufactured_problem,
    shifted_legendre_terms,
    solve_bvp,
    weak_form_check,
)

__version__ = "0.1.0"
