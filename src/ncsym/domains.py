"""Membership predicates and the symmetrization map.

This module owns the spectral membership predicates over simple sets, the
map pi(w) = (u, v^2, vuv) with its local sections, and the fibers of pi.
Fibers and genericity are both read off the coupling graph of a matrix
over the spectral idempotents of the discs.  The disc geometry itself
lives in geometry; SimpleSet, default_radius and propose_simple_set are
re-exported here, next to the function-style aliases of its methods.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import (DimensionMismatchError, DomainError, NumericalError,
                     SpectrumOutsideDomainError, UnsupportedError)
from .funcalc import (SIGN_BLOCK, involution_I, sign_patterns,
                      spectral_idempotents, sqrt_branch_S)
from .geometry import (CONTAINMENT_MARGIN, SimpleSet, default_radius,
                       propose_simple_set)
from .linalg import commutator_norm, in_I, in_Q, op_norm, op_norms, spectrum
from .sqrtlib import SQ_TOL, certify_distinct, check_stack
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


def _coupling_components(m: np.ndarray, idem: np.ndarray,
                         bound: float) -> np.ndarray:
    """Connected components of the coupling graph of m over idempotents.

    Disc i ~ disc j when ||E_i m E_j|| or ||E_j m E_i|| exceeds
    bound * ||E_i|| ||E_j||.  Returns a (c, k) 0/1 membership matrix whose
    rows are the components in the order of their first disc.
    """
    k, n = idem.shape[:2]
    norms = op_norms(idem)
    limit = bound * np.outer(norms, norms)
    prods = idem[:, None] @ m @ idem[None]
    # ||A||_F / sqrt(n) <= ||A|| <= ||A||_F: take 2-norms only in between
    blocks = np.sqrt((prods.real ** 2 + prods.imag ** 2).sum(axis=(2, 3)))
    unsure = (blocks > limit) & (blocks <= limit * np.sqrt(n))
    blocks[unsure] = op_norms(prods[unsure])
    edges = blocks > limit
    edges |= edges.T
    label = np.full(k, -1)
    c = 0
    for seed in range(k):
        if label[seed] >= 0:
            continue
        label[seed] = c
        todo = [seed]
        while todo:
            reached = np.flatnonzero(edges[todo.pop()] & (label < 0))
            label[reached] = c
            todo.extend(reached)
        c += 1
    return (label == np.arange(c)[:, None]).astype(float)


def in_U_gamma(u: np.ndarray, x: np.ndarray, delta: SimpleSet,
               tol: float = 1e-8) -> bool:
    """Genericity: u commutes with no nonconstant branch involution of x.

    The involution of sign pattern tau is I_tau = sum_j tau_j E_j over the
    spectral idempotents E_j of the discs, and E_i [u, I_tau] E_j is
    (tau_j - tau_i) E_i u E_j.  A pattern that passes the test
    ||[u, I_tau]|| <= tol ||u|| is therefore constant on the components of
    the coupling graph of u with bound tol ||u|| / 2: u is generic when
    the graph is connected, and otherwise only the nonconstant patterns
    over components (up to a global sign) are tested.  A disc that holds
    no eigenvalue has E_j = 0, and flipping it alone leaves I_tau = I, so
    such a disc makes u non-generic.  Raises DomainError unless delta is
    quarter-isolated with 0 outside it.  Vacuously true for a singleton.
    This is a Zariski-open condition, so false negatives near the
    commutation variety are expected at the working tolerance.
    """
    problem = delta.branch_problem()
    if problem:
        raise DomainError(problem)
    if delta.k == 1:
        return in_D_gamma(x, delta)
    u = np.asarray(u, dtype=complex)
    try:  # raised for a spectrum outside delta, as in_D_gamma tests it
        idem = spectral_idempotents(x, delta)
    except SpectrumOutsideDomainError:
        return False
    # a nonzero idempotent has norm at least 1, an empty disc's is 0
    if (np.linalg.norm(idem, axis=(1, 2)) < 0.5).any():
        return False
    threshold = tol * op_norm(u)
    member = _coupling_components(u, idem, 0.5 * threshold)
    comms = np.tensordot(member, u @ idem - idem @ u, axes=1)
    # patterns 1 .. half - 1 are the nonconstant ones with tau_0 = 1
    c = len(comms)
    half = 2 ** (c - 1)
    for start in range(1, half, SIGN_BLOCK):
        signs = sign_patterns(c, start, min(start + SIGN_BLOCK, half))
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
    """All pairs with the same pi-value: (u + v I_s, u - v I_s).

    I_s = sum_j s_j E_j over the spectral idempotents of the discs of v^2,
    so (v I_s)^2 = v^2, and the third slot v I_s u v I_s = v u v holds when
    I_s M I_s = M for M = vuv.  A pattern s that passes that test is
    constant on the components of the coupling graph of M with bound
    tol (1 + ||M||) / 2, so only those 2^c candidates are tested, with w
    itself first.  Supported on the clean locus only (v invertible and in
    Q); for generic u the result is exactly [w, w.flip()].
    """
    _require_pair(w)
    u, v = uv_parts(w)
    if not in_I(v):
        raise UnsupportedError("fiber enumeration needs v invertible")
    if not in_S_o(w):
        raise UnsupportedError("fiber enumeration needs v in Q "
                               "(spectrum disjoint from its negative)")
    x = v @ v
    target = v @ u @ v
    scale = 1.0 + op_norm(target)
    covering = propose_simple_set(spectrum(x).eigenvalues, gap=gap)
    idem = spectral_idempotents(x, covering)
    member = _coupling_components(target, idem, 0.5 * tol * scale)
    check_stack(len(member), x.shape[0], "fiber candidates")
    parts = np.tensordot(member, idem, axes=1)  # E_C per component C
    v_parts = v @ parts
    cands = np.tensordot(sign_patterns(len(member)), v_parts, axes=1)
    sq_res = op_norms(cands @ cands - x) / (1.0 + op_norm(x))
    if (sq_res > SQ_TOL).any():
        raise NumericalError(
            f"fiber candidate failed its square check: residual "
            f"{sq_res.max():.3g} exceeds {SQ_TOL:.3g}")
    # candidates differing on component C differ by 2 v E_C there
    certify_distinct(cands, float((2.0 * op_norms(v_parts)
                                   / op_norms(parts)).min()),
                     what="fiber candidates")
    keep = op_norms(cands @ u @ cands - target) <= tol * scale
    return [MatrixTuple((u + c, u - c)) for c in cands[keep]]


def _require_pair(w: MatrixTuple) -> None:
    if w.d != 2:
        raise DimensionMismatchError(f"need a pair of matrices, got d={w.d}")
