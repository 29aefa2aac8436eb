"""Noncommutative symmetric-function toolkit.

Free polynomials in two noncommuting variables, their decomposition through
the map w -> (u, v^2, vuv), rational Newton-Girard power sums for all
integer indices, and complete enumeration of matrix square roots inside
alg(x) by branch functional calculus.
"""

from .words import CHART_UV, CHART_XY, FreePoly, MatrixTuple, s_even, s_odd
from .ratexpr import (RatExpr, Scalar, Variable, add, as_ncpoly,
                      equivalent_probabilistic, evaluate, from_freepoly, inv,
                      mul, ncpoly_equal, power, scale, substitute, to_text)
from .linalg import (direct_sum, conjugate, eval_delta, in_B_delta, in_I,
                     in_Q, op_norm, random_tuple, spectrum)
from .funcalc import (BranchSpec, involution_I, matrix_function,
                      sqrt_branch_S)
from .sqrtlib import (RootSet, all_square_roots, riemann_fiber, sigma_inverse,
                      sigma_map, sqrt_exists)
from .symbasis import (GenPoly, decompose_symmetric, factor_through_pi,
                       reduce_to_pi)
from .girard import (GirardPair, girard_negative, girard_pair,
                     girard_positive, girard_via_T, verify_girard,
                     verify_girard_random)
from .domains import (SimpleSet, default_radius, fiber, in_D_gamma, in_S_o,
                      in_U_gamma, in_W_gamma, is_subordinate, is_t_isolated,
                      omega, omega_inverse, phi, pi, propose_simple_set,
                      separation)
from .verify import (FiniteGradedMap, check_anc, check_nc_properties,
                     check_symmetric_similarity, hat_domain,
                     pascoe_counterexample, run_suite)
from .report import CheckResult, Report
from .parsing import parse

__version__ = "0.1.0"
