"""Symmetric simplex quadrature rules and summation-by-parts operators.

Searches for positive-weight, symmetric volume rules on triangles and
tetrahedra whose facet nodes collocate with a fixed facet quadrature,
builds the resulting diagonal-norm SBP operators, and verifies them by
exactness tests and a periodic linear-advection harness.
"""

__version__ = "0.1.0"

from .advection import (AdvectionProblem, ConvergenceResult, build_problem,
                        certify_stable, certify_timestep, energy,
                        exact_solution, l2_error, max_stable_dt,
                        run_convergence)
from .archive import (load_operator, load_rule, save_operator, save_rule)
from .basis import (grad_vandermonde, n_basis, simplex_gauss_rule,
                    vandermonde)
from .operators import (SBPOperator, SBPReport, build_operator,
                        verify_operator)
from .search import (QuadratureRule, lg_rule, lgl_rule, solve_coupled,
                     validate_rule)
from .signatures import FindResult, find_facet_rule, find_rule
from .simplex import (GroupSignature, NodeSet, SymmetryOrbit,
                      expand_orbit, reference_simplex)

__all__ = [
    "__version__",
    "AdvectionProblem", "ConvergenceResult", "build_problem",
    "certify_stable", "certify_timestep", "energy", "exact_solution",
    "l2_error", "max_stable_dt", "run_convergence",
    "load_operator", "load_rule", "save_operator", "save_rule",
    "grad_vandermonde", "n_basis", "simplex_gauss_rule", "vandermonde",
    "SBPOperator", "SBPReport", "build_operator", "verify_operator",
    "QuadratureRule", "lg_rule", "lgl_rule",
    "solve_coupled", "validate_rule",
    "FindResult", "find_facet_rule", "find_rule",
    "GroupSignature", "NodeSet", "SymmetryOrbit", "expand_orbit",
    "reference_simplex",
]
