"""The matrix square root as a multivalued function inside alg(x).

Existence is decided by the rank test ker x = ker x^2 (no nilpotent Jordan
cell of size >= 2).  Enumeration finds 2^k roots, one per sign pattern on
the k clusters of a quarter-isolated covering of the nonzero spectrum; a
semisimple 0-block maps to 0, which the result flags as an extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ClusteringError, NumericalError, PreconditionError,
                     UnsupportedError)
from .funcalc import MERGE_LADDER, SIGN_BLOCK, matrix_function, sign_patterns
from .geometry import SimpleSet, propose_simple_set
# op_norm stays bound for perfbench's tracer test; ||x|| is Spectrum.norm
from .linalg import (alg_complement, fro_norms, matrix_to_lists, op_norm,
                     op_norms, peak_scaled, require_positive, spectrum)

RANK_RTOL = 1e-10
ZERO_EIG_RTOL = 1e-8
SQ_TOL = 1e-8
ALG_TOL = 1e-7
STACK_BUDGET = 2 ** 25  # entries of one stack of 2^k matrices: 512 MiB


def sqrt_exists(x) -> bool:
    """False iff the Jordan structure at eigenvalue 0 of x, a matrix or its
    Spectrum, has a block >= 2.

    Such a block moves by about sqrt(eps) under a perturbation eps, so True
    when no eigenvalue lies within sqrt(ZERO_EIG_RTOL) (1 + spectral
    radius) of 0.  Otherwise the kernel of x must not grow under squaring:
    y = x / (largest entry), whose square cannot overflow, keeps its rank
    in y^2 counted at RANK_RTOL ||y|| times its smallest kept singular
    value (an eigenvalue c of x leaves c^2 in y^2, below RANK_RTOL ||y||^2
    but not zero).
    """
    s = spectrum(x)
    if not _near_zero(s.eigenvalues, np.sqrt(ZERO_EIG_RTOL)).any():
        return True
    y, peak = peak_scaled(s.matrix)
    if peak == 0.0:
        return True  # the zero matrix squares to itself via 0
    sv = np.linalg.svd(y, compute_uv=False)
    kept = sv[sv > RANK_RTOL * sv[0]]
    return bool(kept.size == sv.size or kept.size == np.linalg.matrix_rank(
        y @ y, RANK_RTOL * sv[0] * kept[-1]))


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
    square_residuals bound ||root^2 - base|| / (1 + ||base||) root by
    root: the certificate of square_bound, the same for every root, or
    each root's exact residual when that certificate did not pass.
    alg_residuals are the relative Frobenius distances of the roots from
    alg(base).  distinct_margin bounds the distance of any two roots from
    below, set by sign margin_disc and read off the products of the pieces
    (None: the bound was inconclusive and distinct_margin is the distance).
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


def all_square_roots(x, tol: float = SQ_TOL, alg_tol: float = ALG_TOL,
                     gap: Optional[float] = None) -> RootSet:
    """Enumerate every square root of x, a matrix or its Spectrum, in
    alg(x): exactly 2^k of them.

    The Hermite interpolant is linear in the germ, so root tau is the
    signed sum S_tau = sum_i tau_i R_i of k spectral pieces (R_i is the
    reference root on nonzero disc i, 0 elsewhere, a 0-block included).
    Each rung of MERGE_LADDER is one interpolation of the k pieces, and
    the set takes the first rung at which every root passes its square
    check: merging the eigenvalues packed in one disc into a single
    derivative-matched node is stabler than a tableau over all of them.
    One table of the k^2 products R_i R_j per rung certifies all 2^k
    roots: their squares (square_bound) and, at the rung taken, their
    distinctness (_distinctness_margin).  The alg(x) residuals project
    the k pieces, not the 2^k roots, as the projection is linear.  Every
    check shares the Spectrum of x: one eigensolve and one ||x||, the
    only 2-norm taken unless a certificate is inconclusive.

    Refuses a spectrum with no quarter-isolated covering at the working
    tolerance (ClusteringError), a defective 0-eigenvalue
    (UnsupportedError), a tol, alg_tol or gap that is not finite and
    positive or more roots than STACK_BUDGET holds (PreconditionError),
    and roots failing a check at every rung (NumericalError): a partial
    list would betray the 2^k contract.  A looser tol opts in to degraded
    accuracy, which the result records per root.
    """
    require_positive("tol", tol)
    require_positive("alg_tol", alg_tol)
    if gap is not None:
        require_positive("gap", gap)
    s = spectrum(x)
    x, eigs, norm = s.matrix, s.eigenvalues, s.norm
    if not sqrt_exists(s):
        raise UnsupportedError(
            "no square roots: the 0-eigenvalue part is defective "
            "(nilpotent Jordan cell of size >= 2)")
    zero_mask = _near_zero(eigs, ZERO_EIG_RTOL)
    has_zero = bool(zero_mask.any())
    nonzero_eigs = eigs[~zero_mask]
    if nonzero_eigs.size == 0:
        # semisimple at 0 with nothing else: x is numerically 0, root 0
        return RootSet(x, (np.zeros_like(x),), 0, extension=True,
                       square_residuals=(norm / (1.0 + norm),),
                       alg_residuals=(0.0,))
    covering = propose_simple_set(nonzero_eigs, gap=gap)
    k = covering.k
    check_stack(k, x.shape[0], "enumerated roots")
    domain = _zero_extended_domain(covering, eigs) if has_zero else covering
    discs = [domain.centers.index(c) for c in covering.centers]
    germs = np.eye(domain.k)[discs]  # piece R_j: root = e_j, const = 0
    for rung in MERGE_LADDER:
        pieces = matrix_function(s, domain, 0, germs, rung)
        table = _piece_table(pieces, s)
        roots, sq_res = _checked_sums(pieces, s, tol, table[-1])
        failed = np.flatnonzero(~(sq_res <= tol))
        if not failed.size:
            break
    # roots are judged in order: the first that fails either check is named
    first = failed[0] if failed.size else len(roots)
    # (I - P) S_tau = sum_j tau_j (I - P) R_j for the projection P onto
    # alg(x); no basis is built when the first root already failed
    off_alg = np.tensordot(sign_patterns(k, 0, first), alg_complement(
        pieces, s), axes=1) if first else roots[:0]
    alg_res = fro_norms(off_alg) / (1.0 + fro_norms(roots[:first]))
    drifted = np.flatnonzero(alg_res > alg_tol)
    if drifted.size:
        raise NumericalError(f"branch root drifted out of alg(x): residual "
                             f"{alg_res[drifted[0]]:.3g}")
    if failed.size:
        raise NumericalError(
            f"branch root failed its square check at every confluence "
            f"level: residual {sq_res[first]:.3g} exceeds {tol:.3g}")
    bound, disc, norm_bound = _distinctness_margin(table)
    margin, measured = certify_distinct(roots, bound, norm_bound, tol,
                                        "enumerated roots")
    if measured:
        disc = None
    return RootSet(x, tuple(roots), k, extension=has_zero,
                   square_residuals=tuple(sq_res),
                   alg_residuals=tuple(alg_res), merge_rtol=rung,
                   distinct_margin=margin, margin_disc=disc)


def check_stack(k: int, n: int, what: str) -> None:
    """Raise PreconditionError, naming what, before a stack of 2^k (n, n)
    matrices would exceed STACK_BUDGET entries.  The test shifts the
    budget, so no 2^k is built for a large k."""
    if n * n > STACK_BUDGET >> k:  # 2^k n^2 > STACK_BUDGET, in integers
        raise PreconditionError(
            f"{what}: 2^{k} matrices of size {n}x{n} exceed the budget of "
            f"{STACK_BUDGET} entries")


def square_bound(pieces: np.ndarray, x) -> float:
    """Bound on ||S_tau^2 - x|| / (1 + ||x||) for every sign pattern tau,
    x being a matrix or its Spectrum.

    S_tau = sum_j tau_j R_j over the (k, n, n) stack of pieces, and as
    tau_j^2 = 1, S_tau^2 - x = (sum_j R_j^2 - x) + sum_{i<j} tau_i tau_j
    (R_i R_j + R_j R_i) (Higham, Functions of Matrices, Thm. 1.26).  The
    Frobenius norms of these k(k-1)/2 + 1 terms add up to a bound for all
    2^k roots at once, with no SVD beyond ||x||, read off the table of
    products R_i R_j of _piece_table.
    """
    return _piece_table(pieces, spectrum(x))[-1]


def _piece_table(pieces: np.ndarray, s) -> tuple:
    """(half, r, prods, bound) for the pieces R_j and s, a Spectrum: r =
    R_j / half, prods[i, j] = r_i r_j and bound = square_bound, for half^2
    = p a power of 4 within a factor 4 below ||x||: an exact scaling under
    which the squared entries of x / p and r stay in range."""
    x, norm = s.matrix, s.norm
    half = math.ldexp(1.0, (math.frexp(norm)[1] - 1) // 2) if norm else 1.0
    r = pieces / half
    prods = r[:, None] @ r[None]
    anti = prods + prods.swapaxes(0, 1)  # (R_i R_j + R_j R_i) / p
    # the diagonal holds 2 R_j^2 / p, each off-diagonal term appears twice
    cross = fro_norms(anti)
    lead = fro_norms(0.5 * np.trace(anti) - x / half / half)
    total = lead + 0.5 * (cross.sum() - np.trace(cross))
    return half, r, prods, float(total * (half / (1.0 + norm) * half))


def signed_sums(pieces: np.ndarray, x, tol: float) -> tuple:
    """(sums, residuals) for a (k, n, n) stack of pieces P_j and x, a matrix
    or its Spectrum: the 2^k sums S_tau = sum_j tau_j P_j, tau in
    sign_patterns order, and bounds on ||S_tau^2 - x|| / (1 + ||x||).  The
    bound is square_bound for every sum when that is within tol (it is
    above every exact residual), else each sum's exact residual, SIGN_BLOCK
    sums per batch of SVDs."""
    s = spectrum(x)
    return _checked_sums(pieces, s, tol, square_bound(pieces, s))


def _checked_sums(pieces: np.ndarray, s, tol: float, bound: float) -> tuple:
    """signed_sums given square_bound of the pieces and s, a Spectrum."""
    sums = np.tensordot(sign_patterns(len(pieces)), pieces, axes=1)
    if bound <= tol:
        return sums, np.full(len(sums), bound)
    return sums, np.concatenate([
        op_norms(block @ block - s.matrix) for block in
        np.split(sums, range(SIGN_BLOCK, len(sums), SIGN_BLOCK))
    ]) / (1.0 + s.norm)


def certify_distinct(cands: np.ndarray, bound: float, norm_bound: float,
                     tol: float = SQ_TOL,
                     what: str = "enumerated roots") -> tuple:
    """(margin, measured): a certificate that the stacked candidates are
    pairwise distinct, given a lower bound on their pairwise distances.

    The bound certifies when it exceeds tol (1 + norm_bound), norm_bound
    being an upper bound on max ||cand||; when it is inconclusive, as for a
    base far from normal, the pairwise distances are measured instead
    (O(m^2) norms) and measured is True.  Raises NumericalError, naming
    what, when the candidates coincide numerically.
    """
    threshold = tol * (1.0 + norm_bound)
    measured = bound <= threshold
    if measured:
        bound = float(min(op_norms(cands[i + 1:] - cands[i]).min()
                          for i in range(len(cands) - 1)))
    if bound <= threshold:
        raise NumericalError(f"{what} coincide numerically: distance "
                             f"{bound:.3g} is within tolerance")
    return float(bound), measured


def _distinctness_margin(table: tuple) -> tuple:
    """(bound, disc, norm_bound) from the piece table of _piece_table: a
    lower bound on min ||S_tau - S_tau'|| over pairs tau != tau', the disc
    that sets it, and sum_j ||R_j||_F, an upper bound on every ||S_tau||.

    If tau and tau' differ at disc j, D = S_tau - S_tau' is twice the
    signed sum of the R_i over the discs where they differ, so
    D R_j = 2 tau_j R_j^2 + 2 sum tau_i R_i R_j over some i != j, and
    ||D|| >= ||D R_j|| / ||R_j||.  Roots differing at sign j are thus at
    least 2 (||R_j^2||_- - sum_{i != j} ||R_i R_j||_F) / ||R_j||_F apart.
    ||A||_- = ||A z|| / ||z||, z the conjugate of the largest row of A, is
    below the 2-norm, as the Frobenius norm is above it, and exact for
    rank one: as R_j^2 = x E_j, a disc holding one eigenvalue c gives
    about 2 |sqrt c|.  No SVD is taken.
    """
    half, r, prods, _ = table
    k = len(r)
    own = prods[range(k), range(k)]  # R_j^2 / p
    rows = np.linalg.norm(own, axis=-1)
    z = own[range(k), rows.argmax(axis=-1), :, None].conj()
    lower = (np.linalg.norm(own @ z, axis=(-2, -1))
             / np.maximum(rows.max(axis=-1), np.finfo(float).tiny))
    cross = fro_norms(prods)
    np.fill_diagonal(cross, 0.0)
    sizes = fro_norms(r)
    bounds = 2.0 * half * (lower - cross.sum(axis=0)) / sizes
    disc = int(np.argmin(bounds))
    return float(bounds[disc]), disc, float(half * sizes.sum())
