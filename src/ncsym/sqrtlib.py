"""The matrix square root as a multivalued function inside alg(x).

Existence is decided by the rank test ker x = ker x^2 (no nilpotent Jordan
cell of size >= 2).  Enumeration covers two cases: invertible x with a
quarter-isolated spectral covering (2^k roots, one per sign pattern), and
singular x whose 0-eigenvalue part is semisimple, where the 0-block maps to
0 and the count is 2^k over the nonzero clusters; the latter is flagged as
an extension in the result metadata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ClusteringError, NumericalError, UnsupportedError
from .funcalc import (BranchSpec, ScalarBranch, matrix_function, sqrt_germ,
                      _sqrt_derivs)
from .geometry import SimpleSet, propose_simple_set
from .linalg import (alg_residual, matrix_to_lists, numerical_rank, op_norm,
                     spectrum)

RANK_RTOL = 1e-10
ZERO_EIG_RTOL = 1e-8
SQ_TOL = 1e-8
ALG_TOL = 1e-7


def sqrt_exists(x: np.ndarray, tol: float = RANK_RTOL) -> bool:
    """False iff the Jordan structure at eigenvalue 0 has a block >= 2.

    Implemented as numerical-rank(x) == numerical-rank(x^2); the kernel of
    x grows under squaring exactly when such a block exists.
    """
    x = np.asarray(x, dtype=complex)
    s = np.linalg.svd(x, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return True  # the zero matrix squares to itself via 0
    threshold = tol * s[0]
    r1 = numerical_rank(x, threshold)
    r2 = numerical_rank(x @ x, threshold * s[0])
    return r1 == r2


@dataclass(frozen=True)
class RootSet:
    """All square roots of the base matrix inside alg(base)."""

    base: np.ndarray
    roots: tuple
    k: int                       # number of nonzero spectral clusters used
    extension: bool = False      # True when a semisimple 0-block was present
    square_residuals: tuple = ()
    alg_residuals: tuple = ()

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


def _sqrt_with_zero_block_germ(domain: SimpleSet, nonzero: SimpleSet,
                               tau) -> ScalarBranch:
    """Signed square-root discs plus one disc at 0 mapped to 0.

    Valid only when the 0-eigenvalue part is semisimple: the interpolant
    then needs nothing beyond the value 0 at the 0-node, and higher
    derivative slots are irrelevant to the primary function.
    """

    def derivs(z, m):
        i = domain.locate(z)
        if i is None:
            raise NumericalError(f"{z} escaped the covering discs")
        c = domain.centers[i]
        if c == 0:
            return [0j] * m
        j = nonzero.centers.index(c)
        return _sqrt_derivs(z, m, c, tau[j])

    return ScalarBranch(domain, derivs)


def all_square_roots(x: np.ndarray, tol: float = SQ_TOL,
                     alg_tol: float = ALG_TOL,
                     gap: Optional[float] = None) -> RootSet:
    """Enumerate every square root of x in alg(x): exactly 2^k of them.

    Refuses inputs whose spectrum cannot be covered by a quarter-isolated
    simple set at the working tolerance (ClusteringError) and singular
    inputs with a defective 0-eigenvalue (UnsupportedError): a partial list
    would betray the 2^k contract.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    eigs = np.asarray(spectrum(x).eigenvalues)
    scale = float(np.abs(eigs).max(initial=0.0))
    zero_thr = ZERO_EIG_RTOL * (1.0 + scale)
    zero_mask = np.abs(eigs) <= zero_thr
    has_zero = bool(zero_mask.any())
    if has_zero and not sqrt_exists(x):
        raise UnsupportedError(
            "no square roots: the 0-eigenvalue part is defective "
            "(nilpotent Jordan cell of size >= 2)")
    nonzero_eigs = eigs[~zero_mask]
    if nonzero_eigs.size == 0:
        # semisimple at 0 with nothing else: x is numerically 0, root 0
        zero = np.zeros_like(x)
        return RootSet(x, (zero,), 0, extension=True,
                       square_residuals=(op_norm(zero @ zero - x) /
                                         (1.0 + op_norm(x)),),
                       alg_residuals=(0.0,))
    covering = propose_simple_set(nonzero_eigs, gap=gap)
    k = covering.k
    joint = _zero_extended_domain(covering, eigs) if has_zero else None
    roots = []
    sq_res = []
    alg_res = []
    x_norm = op_norm(x)
    for tau in itertools.product((1, -1), repeat=k):
        if has_zero:
            germ = _sqrt_with_zero_block_germ(joint, covering, tau)
        else:
            germ = sqrt_germ(BranchSpec(covering.centers, covering.radius,
                                        tau))
        y, res = _interpolate_root(x, germ, x_norm, tol)
        ar = alg_residual(y, x)
        if ar > alg_tol:
            raise NumericalError(
                f"branch root drifted out of alg(x): residual {ar:.3g}")
        roots.append(y)
        sq_res.append(res)
        alg_res.append(ar)
    _check_pairwise_distinct(roots, tol)
    return RootSet(x, tuple(roots), k, extension=has_zero,
                   square_residuals=tuple(sq_res),
                   alg_residuals=tuple(alg_res))


MERGE_LADDER = (1e-6, 1e-4, 1e-2)


def _interpolate_root(x, germ, x_norm: float, tol: float):
    """Interpolate a branch root, coarsening the confluence on failure.

    Many distinct eigenvalues packed inside one disc wreck the
    divided-difference tableau; merging them into one derivative-matched
    node is both stabler and more accurate there (the germs carry exact
    analytic derivatives), so escalate the merge threshold until the
    square residual passes.  Inputs that fail at every level (very high
    interpolation degree) are refused rather than returned degraded; a
    looser tol opts in to the degraded accuracy, which the result records
    per root.
    """
    best_res = np.inf
    for merge_rtol in MERGE_LADDER:
        y = matrix_function(x, germ, merge_rtol=merge_rtol)
        res = op_norm(y @ y - x) / (1.0 + x_norm)
        if res <= tol:
            return y, res
        best_res = min(best_res, res)
    raise NumericalError(
        f"branch root failed its square check at every confluence level: "
        f"best residual {best_res:.3g} exceeds {tol:.3g}")


def _check_pairwise_distinct(roots, tol: float) -> None:
    scale = 1.0 + max(op_norm(r) for r in roots)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if op_norm(roots[i] - roots[j]) <= tol * scale:
                raise NumericalError(
                    f"enumerated roots {i} and {j} coincide numerically")


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
