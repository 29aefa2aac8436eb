"""Spectral membership predicates, local sections and fibers of pi.

This module owns the spectral membership predicates over simple sets, the
local sections phi and omega of the map pi(w) = (u, v^2, vuv), and the
fibers of pi.  Fibers and genericity are both read off the coupling graph
of a matrix over the spectral idempotents of the discs.  The map itself,
its u,v split and its clean locus in_S_o are algebraic and live in linalg;
pi is bound here too.  The disc geometry lives in geometry; SimpleSet,
default_radius and propose_simple_set are re-exported here.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Optional

import numpy as np

from .errors import (DomainError, NumericalError, SpectrumOutsideDomainError,
                     UnsupportedError)
from .funcalc import spectral_idempotents, sqrt_branch_S
from .geometry import SimpleSet, default_radius, propose_simple_set
# pi stays bound here for the callers that read domains.pi
from .linalg import (connected_components, fro_norms, in_I, in_Q, op_norm,
                     op_norms, pi, require_positive, spectrum, uv_parts)
from .sqrtlib import (SIGN_BLOCK, SQ_TOL, certify_distinct, check_stack,
                      sign_patterns, signed_sums)
from .words import MatrixTuple


def is_subordinate(delta2: SimpleSet, delta1: SimpleSet) -> bool:
    """True iff each disc of delta2 meets at most one disc of delta1."""
    return delta2.is_subordinate_to(delta1)


# -- membership predicates ----------------------------------------------------

def in_D_gamma(x, delta: SimpleSet) -> bool:
    """sigma(x) in delta with a shrink margin, x a matrix or its Spectrum."""
    return delta.covers(spectrum(x).eigenvalues)


def _coupling_components(m: np.ndarray, idem: np.ndarray,
                         bound: float) -> np.ndarray:
    """Connected components of the coupling graph of m over idempotents.

    Disc i ~ disc j when ||E_i m E_j|| or ||E_j m E_i|| exceeds
    bound * ||E_i|| ||E_j||; linalg.connected_components, the union-find
    that also clusters eigenvalues, joins them.  Returns a (c, k) 0/1
    membership matrix whose rows are the components in the order of their
    first disc.
    """
    k, n = idem.shape[:2]
    norms = op_norms(idem)
    limit = bound * np.outer(norms, norms)
    prods = idem[:, None] @ m @ idem[None]
    # ||A||_F / sqrt(n) <= ||A|| <= ||A||_F: take 2-norms only in between
    blocks = fro_norms(prods)
    unsure = (blocks > limit) & (blocks <= limit * np.sqrt(n))
    if unsure.any():
        blocks[unsure] = op_norms(prods[unsure])
    comps = connected_components(k, zip(*np.nonzero(blocks > limit)))
    member = np.zeros((len(comps), k))
    for row, comp in zip(member, comps):
        row[comp] = 1.0
    return member


def in_U_gamma(u: np.ndarray, x, delta: SimpleSet,
               tol: float = 1e-8) -> bool:
    """Genericity: u commutes with no nonconstant branch involution of x,
    a matrix or its Spectrum.

    The involution of sign pattern tau is I_tau = sum_j tau_j E_j over the
    spectral idempotents E_j of the discs, and E_i [u, I_tau] E_j is
    (tau_j - tau_i) E_i u E_j.  A pattern that passes the test
    ||[u, I_tau]|| <= tol ||u|| is therefore constant on the components of
    the coupling graph of u with bound tol ||u|| / 2: u is generic when
    the graph is connected, and otherwise only the nonconstant patterns
    over components (up to a global sign) are tested.  A disc that holds
    no eigenvalue has E_j = 0, and flipping it alone leaves I_tau = I, so
    such a disc makes u non-generic.  Raises DomainError unless delta is
    quarter-isolated with 0 outside it, and PreconditionError unless tol
    is finite and positive.  Vacuously true for a singleton.  This is a
    Zariski-open condition, so false negatives near the commutation
    variety are expected at the working tolerance.
    """
    require_positive("tol", tol)
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
    if (fro_norms(idem) < 0.5).any():
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


# -- local sections of pi and its fibers -------------------------------------

def phi(u: np.ndarray, x: np.ndarray, spec) -> MatrixTuple:
    """(u, x, S u S) for the branch square root S of the spec."""
    s = sqrt_branch_S(x, spec)
    return MatrixTuple((u, x, s @ u @ s))


def omega(u: np.ndarray, x: np.ndarray, spec) -> MatrixTuple:
    """(u + S, u - S): the local section with pi(omega(u, x)) = phi(u, x)."""
    s = sqrt_branch_S(x, spec)
    return MatrixTuple((u + s, u - s))


def fiber(w: MatrixTuple, tol: float = 1e-8,
          gap: Optional[float] = None) -> list:
    """All pairs with the same pi-value: (u + v I_s, u - v I_s).

    I_s = sum_j s_j E_j over the spectral idempotents of the discs of v^2,
    so (v I_s)^2 = v^2, and the third slot v I_s u v I_s = v u v holds when
    I_s M I_s = M for M = vuv.  A pattern s that passes that test is
    constant on the components of the coupling graph of M with bound
    tol (1 + ||M||) / 2, so only those 2^c candidates are tested, with w
    itself first.  They are the signed sums of the pieces v E_C over the
    components C, so sqrtlib checks their squares and certifies them
    distinct from one table of piece products, as it does the roots of
    v^2.  One Spectrum of v^2 serves the covering, the idempotents and
    the square check, and one eigendecomposition its eigenvalues and the
    idempotents.  Supported on the clean locus only (v invertible
    and in Q); for generic u the result is exactly [w, w.flip()].  Raises
    PreconditionError unless tol, and a gap if given, are finite and
    positive.
    """
    u, v = uv_parts(w)
    require_positive("tol", tol)
    if gap is not None:
        require_positive("gap", gap)
    if not in_I(v):
        raise UnsupportedError("fiber enumeration needs v invertible")
    if not in_Q(v):
        raise UnsupportedError("fiber enumeration needs v in Q "
                               "(spectrum disjoint from its negative)")
    x = spectrum(v @ v)
    with suppress(NumericalError):  # V singular: the idempotents interpolate
        x.eig  # read first, it gives the eigenvalues too: one solve of v^2
    target = v @ u @ v
    scale = 1.0 + op_norm(target)
    covering = propose_simple_set(x.eigenvalues, gap=gap)
    idem = spectral_idempotents(x, covering)
    member = _coupling_components(target, idem, 0.5 * tol * scale)
    check_stack(len(member), v.shape[0], "fiber candidates")
    parts = np.tensordot(member, idem, axes=1)  # E_C per component C
    table, cands, sq_res = signed_sums(v @ parts, x, SQ_TOL)
    if (sq_res > SQ_TOL).any():
        raise NumericalError(
            f"fiber candidate failed its square check: residual "
            f"{sq_res.max():.3g} exceeds {SQ_TOL:.3g}")
    certify_distinct(table, cands, SQ_TOL, "fiber candidates")
    keep = op_norms(cands @ u @ cands - target) <= tol * scale
    return [MatrixTuple((u + c, u - c)) for c in cands[keep]]
