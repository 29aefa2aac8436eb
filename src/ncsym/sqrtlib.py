"""The matrix square root as a multivalued function inside alg(x).

Existence is decided by the rank test ker x = ker x^2 (no nilpotent Jordan
cell of size >= 2).  Enumeration finds 2^k roots, one per sign pattern on
the k clusters of a quarter-isolated covering of the nonzero spectrum; a
semisimple 0-block maps to 0, which the result flags as an extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ClusteringError, NumericalError, PreconditionError,
                     UnsupportedError)
from .funcalc import (SIGN_BLOCK, idempotent_germ, matrix_function,
                      sign_patterns, sqrt_piece_germ)
from .geometry import SimpleSet, propose_simple_set
from .linalg import (alg_residual, matrix_to_lists, numerical_rank, op_norm,
                     op_norms, spectrum)

RANK_RTOL = 1e-10
ZERO_EIG_RTOL = 1e-8
SQ_TOL = 1e-8
ALG_TOL = 1e-7
STACK_BUDGET = 2 ** 25  # entries of one stack of 2^k matrices: 512 MiB


def sqrt_exists(x: np.ndarray, tol: float = RANK_RTOL) -> bool:
    """False iff the Jordan structure at eigenvalue 0 has a block >= 2.

    Such a block moves by about sqrt(eps) under a perturbation eps, so True
    when no eigenvalue lies within sqrt(ZERO_EIG_RTOL) (1 + spectral
    radius) of 0.  Otherwise the kernel of x must not grow under squaring:
    y = x / (largest entry), whose square cannot overflow, keeps its rank
    in y^2 counted at tol ||y|| times its smallest kept singular value (an
    eigenvalue c of x leaves c^2 in y^2, below tol ||y||^2 but not zero).
    """
    x = np.asarray(x, dtype=complex)
    if not _near_zero(spectrum(x).eigenvalues, np.sqrt(ZERO_EIG_RTOL)).any():
        return True
    peak = max(np.abs(x.real).max(), np.abs(x.imag).max())
    if peak == 0.0:
        return True  # the zero matrix squares to itself via 0
    # part by part: numpy's complex division overflows for a subnormal peak
    y = x.real / peak + 1j * (x.imag / peak)
    s = np.linalg.svd(y, compute_uv=False)
    kept = s[s > tol * s[0]]
    return (kept.size == s.size
            or kept.size == numerical_rank(y @ y, tol * s[0] * kept[-1]))


def _near_zero(eigs, rtol: float) -> np.ndarray:
    """Mask of the eigenvalues within rtol (1 + spectral radius) of 0."""
    eigs = np.abs(np.asarray(eigs))
    return eigs <= rtol * (1.0 + eigs.max(initial=0.0))


@dataclass(frozen=True)
class RootSet:
    """All square roots of the base matrix inside alg(base).

    Root i has sign pattern i of itertools.product((1, -1), repeat=k) over
    the covering discs in (real, imag) order of their centers; it is the
    signed sum of the k spectral pieces, all interpolated at the merge
    threshold merge_rtol, the first rung of MERGE_LADDER at which every
    root passes its square check (None when no interpolation was needed).
    distinct_margin bounds the distance of any two roots from below, set
    by sign margin_disc (None: the bound was inconclusive and
    distinct_margin is the distance).
    """

    base: np.ndarray
    roots: tuple
    k: int                       # number of nonzero spectral clusters used
    extension: bool = False      # True when a semisimple 0-block was present
    square_residuals: tuple = ()
    alg_residuals: tuple = ()
    merge_rtol: Optional[float] = None
    distinct_margin: Optional[float] = None
    margin_disc: Optional[int] = None

    def __len__(self):
        return len(self.roots)

    def to_json_dict(self) -> dict:
        return {
            "base": matrix_to_lists(self.base),
            "k": self.k,
            "extension": self.extension,
            "roots": [matrix_to_lists(r) for r in self.roots],
            "square_residuals": [float(r) for r in self.square_residuals],
            "alg_residuals": [float(r) for r in self.alg_residuals],
            "merge_rtol": self.merge_rtol,
            "distinct_margin": self.distinct_margin,
            "margin_disc": self.margin_disc,
        }


def _zero_extended_domain(nonzero: SimpleSet, eigenvalues) -> SimpleSet:
    """Disc system covering the nonzero clusters plus a disc at 0.

    Every disc keeps one common radius, so adding the origin can force a
    shrink; if the shrunk discs no longer cover the nonzero spectrum there
    is no admissible system and enumeration must refuse.
    """
    closest = min(abs(c) for c in nonzero.centers)
    radius = min(nonzero.radius, 0.499 * closest)
    domain = SimpleSet(nonzero.centers + (0j,), radius)
    if not domain.covers(eigenvalues):
        raise ClusteringError(
            "no equal-radius disjoint disc system covers the zero "
            "eigenvalue together with the nonzero clusters; adjust the gap")
    return domain


MERGE_LADDER = (1e-6, 1e-4, 1e-2)


def all_square_roots(x: np.ndarray, tol: float = SQ_TOL,
                     alg_tol: float = ALG_TOL,
                     gap: Optional[float] = None) -> RootSet:
    """Enumerate every square root of x in alg(x): exactly 2^k of them.

    The Hermite interpolant is linear in the germ, so root tau is the
    signed sum S_tau = sum_i tau_i R_i of k spectral pieces (R_i is the
    reference root on nonzero disc i, 0 elsewhere, a 0-block included).
    Each rung of MERGE_LADDER is one interpolation of the k pieces and the
    k spectral idempotents, and the set takes the first rung at which
    every root passes its square check: merging the eigenvalues packed in
    one disc into a single derivative-matched node is stabler than a
    tableau over all of them.

    Refuses a spectrum with no quarter-isolated covering at the working
    tolerance (ClusteringError), a defective 0-eigenvalue
    (UnsupportedError), more roots than STACK_BUDGET holds
    (PreconditionError), and roots failing a check at every rung
    (NumericalError): a partial list would betray the 2^k contract.  A
    looser tol opts in to degraded accuracy, which the result records per
    root.
    """
    x = np.asarray(x, dtype=complex)
    x_norm = op_norm(x)
    eigs = np.asarray(spectrum(x).eigenvalues)
    # the gate of sqrt_exists on the spectrum at hand: no rank test past it
    if _near_zero(eigs, np.sqrt(ZERO_EIG_RTOL)).any() and not sqrt_exists(x):
        raise UnsupportedError(
            "no square roots: the 0-eigenvalue part is defective "
            "(nilpotent Jordan cell of size >= 2)")
    zero_mask = _near_zero(eigs, ZERO_EIG_RTOL)
    has_zero = bool(zero_mask.any())
    nonzero_eigs = eigs[~zero_mask]
    if nonzero_eigs.size == 0:
        # semisimple at 0 with nothing else: x is numerically 0, root 0
        return RootSet(x, (np.zeros_like(x),), 0, extension=True,
                       square_residuals=(x_norm / (1.0 + x_norm),),
                       alg_residuals=(0.0,))
    covering = propose_simple_set(nonzero_eigs, gap=gap)
    k = covering.k
    check_stack(k, x.shape[0], "enumerated roots")
    domain = _zero_extended_domain(covering, eigs) if has_zero else covering
    discs = [domain.centers.index(c) for c in covering.centers]
    germs = ([sqrt_piece_germ(domain, j) for j in discs]
             + [idempotent_germ(domain, j) for j in discs])
    signs = sign_patterns(k)
    for rung in MERGE_LADDER:
        pieces, idem = np.split(matrix_function(x, germs, merge_rtol=rung), 2)
        roots = np.tensordot(signs, pieces, axes=1)
        sq_res = np.concatenate([
            op_norms(block @ block - x) for block in
            np.split(roots, range(SIGN_BLOCK, len(roots), SIGN_BLOCK))
        ]) / (1.0 + x_norm)
        failed = np.flatnonzero(~(sq_res <= tol))
        if not failed.size:
            break
    # roots are judged in order: the first that fails either check is named
    first = failed[0] if failed.size else len(roots)
    alg_res = alg_residual(roots[:first], x) if first else np.zeros(0)
    drifted = np.flatnonzero(alg_res > alg_tol)
    if drifted.size:
        raise NumericalError(f"branch root drifted out of alg(x): residual "
                             f"{alg_res[drifted[0]]:.3g}")
    if failed.size:
        raise NumericalError(
            f"branch root failed its square check at every confluence "
            f"level: residual {sq_res[first]:.3g} exceeds {tol:.3g}")
    bound, disc = _distinctness_margin(idem, pieces)
    margin, measured = certify_distinct(roots, bound, tol, "enumerated roots")
    if measured:
        disc = None
    return RootSet(x, tuple(roots), k, extension=has_zero,
                   square_residuals=tuple(sq_res),
                   alg_residuals=tuple(alg_res), merge_rtol=rung,
                   distinct_margin=margin, margin_disc=disc)


def check_stack(k: int, n: int, what: str) -> None:
    """Raise PreconditionError, naming what, before a stack of 2^k (n, n)
    matrices would exceed STACK_BUDGET entries."""
    if 2 ** k * n * n > STACK_BUDGET:
        raise PreconditionError(
            f"{what}: 2^{k} matrices of size {n}x{n} exceed the budget of "
            f"{STACK_BUDGET} entries")


def certify_distinct(cands: np.ndarray, bound: float, tol: float = SQ_TOL,
                     what: str = "enumerated roots") -> tuple:
    """(margin, measured): a certificate that the stacked candidates are
    pairwise distinct, given a lower bound on their pairwise distances.

    The bound certifies when it exceeds tol (1 + max ||cand||); when it is
    inconclusive, as for a base far from normal, the pairwise distances are
    measured instead (O(m^2) norms) and measured is True.  Raises
    NumericalError, naming what, when the candidates coincide numerically.
    """
    threshold = tol * (1.0 + op_norms(cands).max())
    measured = bound <= threshold
    if measured:
        bound = float(min(op_norms(cands[i + 1:] - cands[i]).min()
                          for i in range(len(cands) - 1)))
    if bound <= threshold:
        raise NumericalError(f"{what} coincide numerically: distance "
                             f"{bound:.3g} is within tolerance")
    return float(bound), measured


def _distinctness_margin(idem: np.ndarray, pieces: np.ndarray) -> tuple:
    """Lower bound on min ||S_tau - S_tau'|| over pairs tau != tau'.

    idem[j] is E_j, the spectral idempotent of the disc of piece R_j.  As
    R_i E_j = 0 for i != j up to rounding, S_tau E_j = tau_j R_j E_j up to
    dev_j, the sum of the norms of the cross terms R_i E_j.  Roots
    differing at sign j are thus at least 2 (||R_j E_j|| - dev_j) / ||E_j||
    apart, whatever E_j is; for one eigenvalue c that is near 2 |sqrt c|,
    however large ||E_j|| is.
    """
    norms = op_norms(pieces[:, None] @ idem)  # norms[i, j] = ||R_i E_j||
    own = norms.diagonal().copy()
    np.fill_diagonal(norms, 0.0)
    bounds = 2.0 * (own - norms.sum(axis=0)) / op_norms(idem)
    disc = int(np.argmin(bounds))
    return float(bounds[disc]), disc


def riemann_fiber(m: np.ndarray, tol: float = SQ_TOL,
                  gap: Optional[float] = None) -> list:
    """All points (m, n) of the square-root surface over m: 2^k of them."""
    rs = all_square_roots(m, tol=tol, gap=gap)
    return [(rs.base, root) for root in rs.roots]


def sigma_map(y: np.ndarray) -> tuple:
    """y -> (y^2, y); injective, and a section of the surface over Q."""
    y = np.asarray(y, dtype=complex)
    return y @ y, y


def sigma_inverse(pair) -> np.ndarray:
    """(a, b) -> b; round-trips with sigma_map."""
    return np.asarray(pair[1], dtype=complex)
