"""Numerical laboratory for reflected backward equations with regulated
barriers on exact binary-tree probability spaces.

Solvers, penalization schemes, and pathwise change-of-variables checks all
run on a finite tree where conditional expectations are exact sibling
means, so every identity can be verified against brute-force enumeration
instead of Monte Carlo noise.
"""

from .grid_path import TimeGrid
from .tree_space import (
    TreeSpace,
    AdaptedRegulatedProcess,
    build_tree,
    conditional_expectation,
    martingale_representation,
    enumerate_stopping_rules,
    count_stopping_rules,
    expected_reward,
)
from .snell import (
    KIncrements,
    snell_envelope,
    brute_force_snell,
    minimality_residuals,
)
from .bsde import (
    GeneratorSpec,
    SolverError,
    make_generator,
    table_generator,
    solve_bsde,
    exponential_transform,
)
from .rbsde import (
    SolutionTriple,
    VerificationReport,
    ReflectedProblem,
    ComparisonReport,
    solve_reflected_direct,
    solve_via_reduction,
    verify_solution,
    stopping_representation_check,
    barrier_transform,
    default_lower_bound,
    compare_solutions,
    solution_distance,
)
from .penalization import (
    SigmaArray,
    PenalizedSolution,
    ConvergenceStudy,
    build_sigma_arrays,
    solve_penalized,
    step_one_barrier,
    convergence_study,
)
from .ito_regulated import (
    DiscreteSemimartingalePath,
    SmoothFunctionSpec,
    make_function,
    ito_residual,
    product_residual,
    power_residual,
    cor4_inequality_check,
)
from .scenarios import Scenario, random_scenario

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "TreeSpace",
    "AdaptedRegulatedProcess",
    "build_tree",
    "conditional_expectation",
    "martingale_representation",
    "enumerate_stopping_rules",
    "count_stopping_rules",
    "expected_reward",
    "KIncrements",
    "snell_envelope",
    "brute_force_snell",
    "minimality_residuals",
    "GeneratorSpec",
    "SolverError",
    "make_generator",
    "table_generator",
    "solve_bsde",
    "exponential_transform",
    "SolutionTriple",
    "VerificationReport",
    "ReflectedProblem",
    "ComparisonReport",
    "solve_reflected_direct",
    "solve_via_reduction",
    "verify_solution",
    "stopping_representation_check",
    "barrier_transform",
    "default_lower_bound",
    "compare_solutions",
    "solution_distance",
    "SigmaArray",
    "PenalizedSolution",
    "ConvergenceStudy",
    "build_sigma_arrays",
    "solve_penalized",
    "step_one_barrier",
    "convergence_study",
    "DiscreteSemimartingalePath",
    "SmoothFunctionSpec",
    "make_function",
    "ito_residual",
    "product_residual",
    "power_residual",
    "cor4_inequality_check",
    "Scenario",
    "random_scenario",
    "__version__",
]
