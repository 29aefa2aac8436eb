"""Noncommutative symmetric-function toolkit.

Free polynomials in two noncommuting variables, their decomposition through
the map w -> (u, v^2, vuv), rational Newton-Girard power sums for all
integer indices, and complete enumeration of matrix square roots inside
alg(x) by branch functional calculus.  The package namespace holds the
entry points for these statements and the fibers of the map; everything
else is reached through its module.
"""

from .words import FreePoly, MatrixTuple
from .parsing import parse
from .ratexpr import evaluate
from .symbasis import decompose_symmetric, factor_through_pi
from .girard import girard_pair, verify_girard_random
from .sqrtlib import all_square_roots, sqrt_exists
from .domains import fiber, pi

__version__ = "0.1.0"
