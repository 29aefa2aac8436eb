"""Dense complex linear algebra support.

Spectra with deterministic ordering, single-linkage eigenvalue clustering,
direct sums and similarity, block evaluation of polynomial matrices, the
invertibility / spectral-symmetry predicates, membership in the algebra
generated by a matrix, and seeded structured random generators.

Owns the matrix-tuple JSON format: an object with fields n, d and
entries[d][n][n], each entry a [re, im] pair.  Finite doubles round-trip
bit-exactly through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (DimensionMismatchError, GenerationError, NumericalError,
                     PreconditionError)
from .words import FreePoly, MatrixTuple

DEFAULT_TOL = 1e-10


def op_norm(x: np.ndarray) -> float:
    """Largest singular value."""
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return 0.0
    return float(_finite_norms(x))


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in an (m, n, n) stack."""
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[-1] == 0:
        return np.zeros(stack.shape[:-2])
    return _finite_norms(stack)


def _finite_norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the matrices in the last two axes; NumericalError for
    one not finite (a vacuous bound).

    The first singular value LAPACK returns is the largest: the value
    np.linalg.norm(a, 2) takes from the same call, without its axis moves
    and reduction.
    """
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # a non-finite entry
        raise NumericalError(f"2-norm failed: {exc}") from exc
    if not np.isfinite(s).all():
        raise NumericalError("a 2-norm overflows the float range")
    return s[..., 0]


def rel_dist(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / (1 + ||b||) with the operator norm."""
    return op_norm(np.asarray(a) - np.asarray(b)) / (1.0 + op_norm(b))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A matrix, its eigenvalues with multiplicity sorted by (real, imag)
    and its 2-norm, each solved on first read: every spectral function
    takes one."""

    matrix: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        try:
            eigs = np.linalg.eigvals(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK
            raise NumericalError(f"eigensolver failed: {exc}") from exc
        return eigs[np.lexsort((eigs.imag, eigs.real))]

    @cached_property
    def norm(self) -> float:
        return op_norm(self.matrix)


def spectrum(x) -> Spectrum:
    """The Spectrum of a matrix; a Spectrum is returned as it is."""
    if isinstance(x, Spectrum):
        return x
    return Spectrum(np.asarray(x, dtype=complex))


@dataclass(frozen=True)
class EigenCluster:
    center: complex
    indices: tuple  # positions into the sorted eigenvalue list
    spread: float   # max distance of a member from the center


def cluster_eigenvalues(eigenvalues: Sequence[complex], gap: float) -> list:
    """Single-linkage grouping: chains of gaps <= gap land in one cluster."""
    eigs = list(eigenvalues)
    m = len(eigs)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(eigs[i] - eigs[j]) <= gap:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    out = []
    for idx in groups.values():
        center = sum(eigs[i] for i in idx) / len(idx)
        spread = max(abs(eigs[i] - center) for i in idx)
        out.append(EigenCluster(center, tuple(sorted(idx)), spread))
    out.sort(key=lambda c: (c.center.real, c.center.imag))
    return out


def direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    """Componentwise block-diagonal sum."""
    if x.d != y.d:
        raise DimensionMismatchError(f"tuple lengths differ: {x.d} vs {y.d}")
    return MatrixTuple(tuple(block_diag(a, b) for a, b in zip(x, y)))


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                   dtype=complex)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def conjugate(s: np.ndarray, x: MatrixTuple) -> MatrixTuple:
    """Componentwise s^{-1} x s."""
    s = np.asarray(s, dtype=complex)
    if not in_I(s):
        raise NumericalError("conjugating matrix is numerically singular")
    s_inv = np.linalg.inv(s)
    return MatrixTuple(tuple(s_inv @ m @ s for m in x))


def eval_delta(delta: Sequence[Sequence[FreePoly]], x: MatrixTuple) -> np.ndarray:
    """Block matrix [delta_ij(x)] of entrywise evaluations."""
    rows = []
    for row in delta:
        rows.append([p.evaluate(x) for p in row])
    return np.block(rows)


def in_Q(x, tol: float = DEFAULT_TOL) -> bool:
    """True iff the spectrum of x, a matrix or its Spectrum, is disjoint
    from its negative: q_margin(x) > tol (1 + spectral radius).  Any
    matrix with 0 in its spectrum fails (0 pairs with itself)."""
    s = spectrum(x)
    scale = 1.0 + float(np.abs(s.eigenvalues).max(initial=0.0))
    return q_margin(s) > tol * scale


def q_margin(x) -> float:
    """Min |a + b| over eigenvalues a, b of x, a matrix or its Spectrum."""
    eigs = spectrum(x).eigenvalues
    return float(np.abs(eigs[:, None] + eigs[None, :]).min())


def in_I(x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Numerical invertibility: smallest singular value > tol * largest."""
    return sv_ratio(x) > tol


def sv_ratio(x: np.ndarray) -> float:
    """Smallest over largest singular value; 0.0 for a zero or empty x.

    Taken on x / (largest entry), whose 2-norm cannot overflow: LAPACK
    returns inf or NaN singular values for a matrix whose norm does.  A
    non-finite x has no singular values: NumericalError.
    """
    y, peak = peak_scaled(x)
    if peak == 0.0:
        return 0.0
    if not np.isfinite(peak):
        raise NumericalError("singular values of a non-finite matrix")
    s = np.linalg.svd(y, compute_uv=False)
    return float(s[-1] / s[0])


def peak_scaled(x: np.ndarray) -> tuple:
    """(x / peak, peak), with peak the largest real or imaginary part of an
    entry in absolute value; (x, 0.0) for a zero or empty x.

    Every entry of the quotient lies in the unit square, so its norms and
    its square cannot overflow.  The division goes part by part, on the
    float view: numpy's complex division overflows for a subnormal peak.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    parts = x.view(np.float64)
    peak = float(np.abs(parts).max(initial=0.0))
    if peak == 0.0:
        return x, 0.0
    return (parts / peak).view(complex), peak


def numerical_rank(x: np.ndarray, threshold: float) -> int:
    """Number of singular values above the absolute threshold."""
    s = np.linalg.svd(np.asarray(x, dtype=complex), compute_uv=False)
    return int(np.count_nonzero(s > threshold))


def alg_residual(y: np.ndarray, x):
    """Relative distance of y from span{I, x, ..., x^{n-1}}, for x a
    matrix or its Spectrum.

    y is one matrix (the result is a float) or an (m, n, n) stack (an
    array of m distances, all projected onto one basis).  The basis is
    the orthonormal Krylov (Arnoldi) basis: each new direction is x times
    the last one, orthogonalized twice by Gram-Schmidt against the basis
    so far, and the loop stops once that direction is below
    1e-12 (1 + ||x||), where the span has become invariant under x.
    Unlike the power basis, this stays well conditioned for clustered
    spectra.  The directions fill the rows of one preallocated array,
    their conjugates those of another.
    """
    s = spectrum(x)
    y = np.asarray(y, dtype=complex)
    n = s.matrix.shape[0]
    # x / ||x|| spans alg(x) without overflow; the floor scales with it
    scale = s.norm or 1.0
    x = s.matrix / scale
    floor = 1e-12 * (1.0 + scale) / scale
    basis = np.empty((n, n * n), dtype=complex)
    conj = np.empty_like(basis)
    q = np.eye(n, dtype=complex) / np.sqrt(n)
    basis[0] = q.ravel()
    conj[0] = basis[0].conj()
    m = 1  # directions so far
    for _ in range(n - 1):
        vec = (x @ q).ravel()
        for _ in range(2):
            vec = vec - (conj[:m] @ vec) @ basis[:m]
        norm = float(np.linalg.norm(vec))
        if norm <= floor:
            break
        basis[m] = vec / norm
        conj[m] = basis[m].conj()
        q = basis[m].reshape(n, n)
        m += 1
    # the projection multiplies by the basis in columns, contiguous, as
    # it was first written: BLAS sums in another order for another layout
    u = basis[:m].T.copy()
    vecs = y.reshape(-1, n * n)
    resid = (vecs @ u.conj()) @ u.T
    np.subtract(vecs, resid, out=resid)
    out = _row_norms(resid) / (1.0 + _row_norms(vecs))
    return float(out[0]) if y.ndim == 2 else out


def fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in an (..., n, n) stack: an upper
    bound on its 2-norm that takes no SVD.  The squares of the entries are
    summed as they are, so the caller keeps them inside the float range."""
    stack = np.asarray(stack, dtype=complex)
    n, m = stack.shape[-2:]
    return _row_norms(stack.reshape(stack.shape[:-2] + (n * m,)))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of a complex array;
    np.linalg.norm would allocate a complex temporary as large as it."""
    flat = np.ascontiguousarray(rows).view(np.float64)
    return np.sqrt(np.einsum("...j,...j->...", flat, flat))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return op_norm(a @ b - b @ a)


# -- structured random generation -------------------------------------------

RETRY_CAP = 100


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix with iid standard entries."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        / np.sqrt(2.0)


def random_unit_norm(n: int, rng: np.random.Generator) -> np.ndarray:
    g = ginibre(n, rng)
    nrm = op_norm(g)
    if nrm == 0.0:  # pragma: no cover - probability zero
        return np.eye(n, dtype=complex)
    return g / nrm


def random_similarity(n: int, rng: np.random.Generator) -> np.ndarray:
    """Invertible matrix with modest condition number."""
    for _ in range(RETRY_CAP):
        s = np.eye(n, dtype=complex) + 0.4 * ginibre(n, rng)
        if in_I(s, 1e-6) and np.linalg.cond(s) < 50:
            return s
    raise GenerationError("could not draw a well-conditioned similarity")


CONSTRAINTS = ("v-invertible", "generic-u")


def random_tuple(level: int, d: int, constraints: Iterable[str] = (),
                 rng: Optional[np.random.Generator] = None) -> MatrixTuple:
    """Seeded random level-n tuple satisfying the requested predicates.

    "v-invertible" asks for an invertible v = (w^1 - w^2)/2 when d = 2,
    for an invertible w^1 otherwise.  "generic-u" draws v with distinct
    nonzero eigenvalues in Q and u with no zero entries in v's eigenbasis,
    which pins the fiber of the symmetrization map down to the pair
    {w, w^f}.  GenerationError after RETRY_CAP draws that all fail.
    """
    rng = rng or np.random.default_rng()
    wanted = set(constraints)
    unknown = wanted - set(CONSTRAINTS)
    if unknown:
        raise ValueError(f"unknown constraints: {sorted(unknown)}")
    for _ in range(RETRY_CAP):
        if "generic-u" in wanted:
            t = _generic_u_pair(level, rng)
        else:
            t = MatrixTuple(tuple(ginibre(level, rng) for _ in range(d)))
        if "v-invertible" in wanted and not in_I(_v_part(t)):
            continue
        return t
    raise GenerationError(
        f"no level-{level} tuple satisfying {sorted(wanted)} "
        f"after {RETRY_CAP} draws")


def _v_part(t: MatrixTuple) -> np.ndarray:
    if t.d == 2:
        return 0.5 * (t[0] - t[1])
    return t[0]


def _generic_u_pair(n: int, rng: np.random.Generator) -> MatrixTuple:
    """Pair w = (u+v, u-v) realizing a generically 2-point fiber."""
    for _ in range(RETRY_CAP):
        moduli = rng.uniform(0.5, 1.5, size=n)
        phases = rng.uniform(0.0, 2 * np.pi, size=n)
        lam = moduli * np.exp(1j * phases)
        sums = np.abs(lam[:, None] + lam[None, :])
        diffs = np.abs(lam[:, None] - lam[None, :])
        diffs[np.diag_indices(n)] = np.inf
        if sums.min() < 0.05 or diffs.min() < 0.05:
            continue
        p = np.eye(n, dtype=complex) + 0.4 * ginibre(n, rng)
        if np.linalg.cond(p) > 50:
            continue
        a = ginibre(n, rng)
        if np.abs(a).min() < 0.05:
            continue
        p_inv = np.linalg.inv(p)
        v = p @ np.diag(lam) @ p_inv
        u = p @ a @ p_inv
        return MatrixTuple((u + v, u - v))
    raise GenerationError("generic-u construction failed")


# -- matrix-tuple JSON format ------------------------------------------------

def matrix_to_lists(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def matrix_from_lists(data) -> np.ndarray:
    """[n][n][2] nested lists to a matrix; ValueError on malformed data."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError(f"expected [n][n][2] matrix data, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix data has a non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


def tuple_to_json_dict(t: MatrixTuple) -> dict:
    return {"n": t.n, "d": t.d,
            "entries": [matrix_to_lists(m) for m in t]}


def tuple_from_json_dict(data: dict) -> MatrixTuple:
    """Read the matrix-tuple JSON format; malformed input is a
    PreconditionError."""
    try:
        t = MatrixTuple([matrix_from_lists(e) for e in data["entries"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed matrix-tuple JSON: {exc}") \
            from exc
    if t.n != data.get("n", t.n) or t.d != data.get("d", t.d):
        raise PreconditionError(
            "matrix-tuple JSON header disagrees with entries")
    return t
