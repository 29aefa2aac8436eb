"""Membership predicates and the symmetrization map.

This module owns the spectral membership predicates over simple sets, the
map pi(w) = (u, v^2, vuv) with its local sections, and brute-force fibers
of pi through branch square roots.  The disc geometry itself lives in
geometry; SimpleSet, default_radius and propose_simple_set are re-exported
here, next to the function-style aliases of its methods.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, DomainError, UnsupportedError
from .funcalc import (involution_I, sign_patterns, spectral_idempotents,
                      sqrt_branch_S)
from .geometry import (CONTAINMENT_MARGIN, SimpleSet, default_radius,
                       propose_simple_set)
from .linalg import commutator_norm, in_I, in_Q, op_norm, op_norms, spectrum
from .sqrtlib import all_square_roots
from .words import FreePoly, MatrixTuple


def separation(delta: SimpleSet) -> float:
    return delta.separation()


def is_t_isolated(delta: SimpleSet, t: float) -> bool:
    return delta.is_t_isolated(t)


def is_subordinate(delta2: SimpleSet, delta1: SimpleSet) -> bool:
    """True iff each disc of delta2 meets at most one disc of delta1."""
    return delta2.is_subordinate_to(delta1)


# -- membership predicates ----------------------------------------------------

def in_D_gamma(x: np.ndarray, delta: SimpleSet,
               margin: float = CONTAINMENT_MARGIN) -> bool:
    """Spectrum containment sigma(x) in delta, with a shrink margin."""
    return delta.covers(spectrum(x).eigenvalues, margin)


def in_W_gamma(u: np.ndarray, x: np.ndarray, delta: SimpleSet,
               margin: float = CONTAINMENT_MARGIN) -> bool:
    """u is unconstrained; only x's spectrum matters."""
    return in_D_gamma(x, delta, margin)


PATTERN_BLOCK = 256  # sign patterns tested per batch in in_U_gamma


def in_U_gamma(u: np.ndarray, x: np.ndarray, delta: SimpleSet,
               tol: float = 1e-8) -> bool:
    """Genericity: u commutes with no nonconstant branch involution of x.

    The involution of sign pattern tau is I_tau = sum_j tau_j E_j over the
    spectral idempotents E_j of the discs, so [u, I_tau] = sum_j tau_j C_j
    with C_j = [u, E_j]: k interpolations serve all 2^k patterns.  tau and
    -tau give the same norm, so only patterns with tau_0 = 1 are tested.
    Raises DomainError unless delta is quarter-isolated with 0 outside it.
    Vacuously true for a singleton (no nonconstant sign patterns).  This is
    a Zariski-open condition, so false negatives near the commutation
    variety are expected at the working tolerance.
    """
    problem = delta.branch_problem()
    if problem:
        raise DomainError(problem)
    if not in_D_gamma(x, delta):
        return False
    k = delta.k
    if k == 1:
        return True
    u = np.asarray(u, dtype=complex)
    idem = spectral_idempotents(x, delta)
    comms = u @ idem - idem @ u
    threshold = tol * op_norm(u)
    half = 2 ** (k - 1)
    for start in range(1, half, PATTERN_BLOCK):
        signs = sign_patterns(k, start, min(start + PATTERN_BLOCK, half))
        if (op_norms(np.tensordot(signs, comms, axes=1)) <= threshold).any():
            return False
    return True


def in_S_o(w: MatrixTuple, tol: float = 1e-10) -> bool:
    """Clean locus of the symmetrization map: (w^1 - w^2)/2 lies in Q."""
    _require_pair(w)
    return in_Q(0.5 * (w[0] - w[1]), tol)


def variety_residual_V(u: np.ndarray, x: np.ndarray, spec) -> float:
    """Commutator norm against the branch involution of the given spec."""
    return commutator_norm(u, involution_I(x, spec))


def in_free_closure_of_variety(p: FreePoly, x: np.ndarray,
                               tol: float = 1e-10) -> bool:
    """One-variable free closure: membership iff p(x) is singular."""
    if p.d != 1:
        raise DimensionMismatchError("free-closure test takes a one-variable "
                                     f"polynomial, got d={p.d}")
    value = p.evaluate(MatrixTuple((x,)))
    return not in_I(value, tol)


# -- the symmetrization map and its sections ----------------------------------

def uv_parts(w: MatrixTuple) -> tuple:
    _require_pair(w)
    u = 0.5 * (w[0] + w[1])
    v = 0.5 * (w[0] - w[1])
    return u, v


def pi(w: MatrixTuple) -> MatrixTuple:
    """w -> (u, v^2, vuv) with u = (w^1+w^2)/2, v = (w^1-w^2)/2."""
    u, v = uv_parts(w)
    return MatrixTuple((u, v @ v, v @ u @ v))


def phi(u: np.ndarray, x: np.ndarray, spec) -> MatrixTuple:
    """(u, x, S u S) for the branch square root S of the spec."""
    s = sqrt_branch_S(x, spec)
    return MatrixTuple((u, x, s @ u @ s))


def omega(u: np.ndarray, x: np.ndarray, spec) -> MatrixTuple:
    """(u + S, u - S): the local section with pi(omega(u, x)) = phi(u, x)."""
    s = sqrt_branch_S(x, spec)
    return MatrixTuple((u + s, u - s))


def omega_inverse(w: MatrixTuple) -> tuple:
    """((w^1+w^2)/2, ((w^1-w^2)/2)^2); round-trips with omega."""
    u, v = uv_parts(w)
    return u, v @ v


def fiber(w: MatrixTuple, tol: float = 1e-8,
          gap: Optional[float] = None) -> list:
    """All pairs with the same pi-value, via branch square roots of v^2.

    Candidates v' sweep the full root enumeration of v^2; survivors must
    reproduce the third slot v u v.  Supported on the clean locus only
    (v invertible and in Q); for generic u the result is exactly
    [w, w.flip()].
    """
    _require_pair(w)
    u, v = uv_parts(w)
    if not in_I(v):
        raise UnsupportedError("fiber enumeration needs v invertible")
    if not in_S_o(w):
        raise UnsupportedError("fiber enumeration needs v in Q "
                               "(spectrum disjoint from its negative)")
    target = v @ u @ v
    scale = 1.0 + op_norm(target)
    cands = np.asarray(all_square_roots(v @ v, gap=gap).roots)
    keep = op_norms(cands @ u @ cands - target) <= tol * scale
    return [MatrixTuple((u + c, u - c)) for c in cands[keep]]


def _require_pair(w: MatrixTuple) -> None:
    if w.d != 2:
        raise DimensionMismatchError(f"need a pair of matrices, got d={w.d}")
