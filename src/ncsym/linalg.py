"""Dense complex linear algebra support: the base of both halves.

Spectra with deterministic ordering, the one union-find for connected
components (eigenvalue clusters, coupling graphs), direct sums and
similarity, block evaluation of polynomial matrices, the invertibility /
spectral-symmetry predicates, membership in the algebra generated by a
matrix, and seeded structured random generators.  Also the algebraic side
of pi(w) = (u, v^2, vuv): the u,v split, pi and its clean locus in_S_o,
which girard and verify take from here without the spectral modules; and
require_positive, the one check of a tolerance.

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
_LEAST = np.nextafter(0.0, 1.0)  # the least positive (subnormal) double


def require_positive(name: str, value: float) -> None:
    """PreconditionError unless value is finite and positive."""
    # a NaN or negative value fails every comparison that it takes part in
    if not (np.isfinite(value) and value > 0):
        raise PreconditionError(
            f"{name} must be finite and positive, got {value}")


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


def rel_dist(a: np.ndarray, b: np.ndarray):
    """||a - b|| / (1 + ||b||) with the operator norm: a float for two
    matrices, an array of m for two (m, n, n) stacks, pair by pair."""
    b = np.asarray(b)
    norm = op_norm if b.ndim == 2 else op_norms
    return norm(np.asarray(a) - b) / (1.0 + norm(b))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A matrix, its eigenvalues with multiplicity sorted by (real, imag),
    its eigenbasis and its 2-norm, each solved on first read: every
    spectral function takes one."""

    matrix: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues; those of eig once it has been read."""
        if "eig" in self.__dict__:
            return self.eig[0]
        try:
            eigs = np.linalg.eigvals(self.matrix)
        except np.linalg.LinAlgError as exc:  # a non-finite entry
            raise NumericalError(f"eigensolver failed: {exc}") from exc
        return eigs[np.lexsort((eigs.imag, eigs.real))]

    @cached_property
    def eig(self) -> tuple:
        """(lam, V, W): the eigenvalues in the order of eigenvalues, the
        eigenvectors as the columns of V, and W = V^-1.  NumericalError
        when the solve fails (a non-finite entry) or V is singular."""
        try:
            lam, vecs = np.linalg.eig(self.matrix)
            order = np.lexsort((lam.imag, lam.real))
            lam, vecs = lam[order], vecs[:, order]
            return lam, vecs, np.linalg.inv(vecs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigenbasis failed: {exc}") from exc

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


def connected_components(m: int, edges: Iterable[tuple]) -> list:
    """Components of the graph on vertices 0 .. m-1 with edges (i, j), by
    union-find with path halving: ascending vertex lists in the order of
    their least vertex."""
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def cluster_eigenvalues(eigenvalues: Sequence[complex], gap: float) -> list:
    """Single-linkage grouping: chains of gaps <= gap land in one cluster,
    a connected component of the pairs within gap; sorted by center."""
    eigs = list(eigenvalues)
    m = len(eigs)
    out = []
    for idx in connected_components(
            m, ((i, j) for i in range(m) for j in range(i + 1, m)
                if abs(eigs[i] - eigs[j]) <= gap)):
        center = sum(eigs[i] for i in idx) / len(idx)
        spread = max(abs(eigs[i] - center) for i in idx)
        out.append(EigenCluster(center, tuple(idx), spread))
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


def uv_parts(w: MatrixTuple) -> tuple:
    """(u, v) = ((w^1+w^2)/2, (w^1-w^2)/2), halved before the sum so that
    a pair of finite entries near the float range cannot overflow."""
    _require_pair(w)
    return _uv(w[0], w[1])


def _uv(a: np.ndarray, b: np.ndarray) -> tuple:
    a, b = 0.5 * a, 0.5 * b
    return a + b, a - b


def _require_pair(w: MatrixTuple) -> None:
    if w.d != 2:
        raise DimensionMismatchError(f"need a pair of matrices, got d={w.d}")


def pi(w: MatrixTuple) -> MatrixTuple:
    """w -> (u, v^2, vuv) with u = (w^1+w^2)/2, v = (w^1-w^2)/2.

    Raises NumericalError when a slot overflows the float range.
    """
    _require_pair(w)
    return MatrixTuple(pi_stack(w[0], w[1]))


def pi_stack(a: np.ndarray, b: np.ndarray) -> tuple:
    """(u, v^2, vuv) of the pair w = (a, b), or of each pair when a and b
    are (m, n, n) stacks: pi's formula, with its overflow check."""
    u, v = _uv(a, b)
    out = (u, v @ v, v @ u @ v)
    if not all(np.isfinite(m).all() for m in out):
        raise NumericalError("pi(w) overflows the float range")
    return out


def in_S_o(w: MatrixTuple) -> bool:
    """Clean locus of the symmetrization map: (w^1 - w^2)/2 lies in Q."""
    return in_Q(uv_parts(w)[1])


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
    """Min |a + b| over eigenvalues a, b of x, a matrix or its Spectrum;
    +inf for a 0x0 matrix."""
    eigs = spectrum(x).eigenvalues
    return float(np.abs(eigs[:, None] + eigs[None, :]).min(initial=np.inf))


def in_I(x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Numerical invertibility: smallest singular value > tol * largest;
    a mask of m for an (m, n, n) stack."""
    return sv_ratio(x) > tol


def sv_ratio(x: np.ndarray):
    """Smallest over largest singular value; 0.0 for a zero or empty x.

    x is one matrix (the result is a float) or an (m, n, n) stack (an
    array of m ratios from one batched SVD).  Taken on x / (largest
    entry), whose 2-norm cannot overflow: LAPACK returns inf or NaN
    singular values for a matrix whose norm does.  A non-finite x has no
    singular values: NumericalError.
    """
    y, peak = peak_scaled(x)
    if y.shape[-1] == 0:
        return np.zeros(y.shape[:-2]) if y.ndim > 2 else 0.0
    try:
        s = np.linalg.svd(y, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # NaNs in y: LAPACK checks for them
        raise NumericalError("singular values of a non-finite matrix") \
            from exc
    # an entry of y has a part of size 1, so s[0] >= 1 unless y = 0
    if y.ndim > 2:
        return s[..., -1] / np.maximum(s[..., 0], _LEAST)
    return float(s[-1] / max(s[0], _LEAST))


def peak_scaled(x: np.ndarray) -> tuple:
    """(x / peak, peak), with peak the largest real or imaginary part of an
    entry in absolute value; a zero or empty x is left as it is, with
    peak 0.0.  For an (m, n, n) stack each matrix is scaled by its own
    peak, and peak is an array of m.

    Every entry of the quotient lies in the unit square, so its norms and
    its square cannot overflow.  The division goes part by part, on the
    float view: numpy's complex division overflows for a subnormal peak.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    parts = x.view(np.float64)
    peak = np.abs(parts).max(axis=(-2, -1), initial=0.0)
    # any nonzero peak is at least _LEAST; a zero x divided by it stays 0
    if x.ndim > 2:
        return (parts / np.maximum(peak, _LEAST)[..., None, None]
                ).view(complex), peak
    peak = float(peak)
    return (parts / max(peak, _LEAST)).view(complex), peak


def alg_residual(y: np.ndarray, x):
    """Relative distance ||y - P y||_F / (1 + ||y||_F) of y from alg(x),
    P y as in alg_complement: a float for one matrix y, an array of m for
    an (m, n, n) stack.  A 0x0 y lies in alg(x), at distance 0."""
    y = np.asarray(y, dtype=complex)
    rows = y.reshape(len(y) if y.ndim > 2 else 1, -1)
    out = (_row_norms(alg_complement(y, x).reshape(rows.shape))
           / (1.0 + _row_norms(rows)))
    return float(out[0]) if y.ndim == 2 else out


def alg_complement(y: np.ndarray, x) -> np.ndarray:
    """y - P y, P the orthogonal projection (entrywise inner product) onto
    alg(x) = span{I, x, ..., x^{n-1}}, for x a matrix or its Spectrum and
    y one matrix or an (m, n, n) stack, whose shape the result keeps.

    The basis is the orthonormal Krylov (Arnoldi) basis: each new
    direction is x times the last one, orthogonalized twice by
    Gram-Schmidt against the basis so far, and the loop stops once that
    direction is below 1e-12 (1 + ||x||), where the span has become
    invariant under x.  Unlike the power basis, this stays well
    conditioned for clustered spectra.  The directions fill the rows of
    one preallocated array, their conjugates those of another.
    """
    s = spectrum(x)
    y = np.asarray(y, dtype=complex)
    n = s.matrix.shape[0]
    if n == 0:
        return y.copy()
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
    return resid.reshape(y.shape)


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


# -- structured random generation -------------------------------------------

RETRY_CAP = 100


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix with iid standard entries."""
    return ginibre_block((), n, rng)


def ginibre_block(shape: tuple, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrices in an array of shape + (n, n), from one
    draw that reads the rng as one ginibre call per matrix, in order."""
    g = rng.standard_normal(shape + (2, n, n))
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def random_unit_norms(shape: tuple, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrices of 2-norm 1 in an array of shape + (n, n),
    drawn as by ginibre_block and scaled after one batched SVD."""
    g = ginibre_block(shape, n, rng)
    nrm = op_norms(g)
    zero = nrm == 0.0
    if zero.any():  # pragma: no cover - probability zero, or n = 0
        g[zero], nrm[zero] = np.eye(n), 1.0
    return g / nrm[..., None, None]


def random_similarity(n: int, rng: np.random.Generator) -> np.ndarray:
    """I + 0.4 G, G a ginibre draw, drawn again until its condition number
    is below 50: one SVD per draw, sv_ratio(s) > 1/50, which also makes
    it invertible."""
    for _ in range(RETRY_CAP):
        s = np.eye(n, dtype=complex) + 0.4 * ginibre(n, rng)
        if sv_ratio(s) > 1 / 50:
            return s
    raise GenerationError("could not draw a well-conditioned similarity")


CONSTRAINTS = ("v-invertible", "generic-u")


def random_tuple(level: int, d: int, constraints: Iterable[str] = (),
                 rng: Optional[np.random.Generator] = None) -> MatrixTuple:
    """Seeded random level-n tuple satisfying the requested predicates:
    the one-draw case of random_tuples."""
    return MatrixTuple(random_tuples(1, level, d, constraints, rng)[0])


def random_tuples(count: int, level: int, d: int,
                  constraints: Iterable[str] = (),
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """count seeded random level-n tuples satisfying the requested
    predicates, as a (count, d, n, n) array.

    "v-invertible" asks for an invertible v = (w^1 - w^2)/2 when d = 2,
    for an invertible w^1 otherwise.  "generic-u" draws v with distinct
    nonzero eigenvalues in Q and u with no zero entries in v's eigenbasis,
    which pins the fiber of the symmetrization map down to the pair
    {w, w^f}; such pairs are drawn one at a time.  Otherwise the tuples
    come as one ginibre_block and are tested with one batched SVD.  The
    tuples that fail are drawn again after the block, together and in
    order.  GenerationError once a tuple has failed RETRY_CAP draws.
    """
    rng = rng or np.random.default_rng()
    wanted = set(constraints)
    unknown = wanted - set(CONSTRAINTS)
    if unknown:
        raise ValueError(f"unknown constraints: {sorted(unknown)}")

    def draw(m: int) -> np.ndarray:
        if "generic-u" in wanted:
            return np.array([tuple(_generic_u_pair(level, rng))
                             for _ in range(m)],
                            dtype=complex).reshape(m, 2, level, level)
        return ginibre_block((m, d), level, rng)

    points = np.empty((count, 2 if "generic-u" in wanted else d, level,
                       level), dtype=complex)
    todo = np.arange(count)
    for _ in range(RETRY_CAP):
        block = draw(todo.size)
        if "v-invertible" not in wanted:
            ok = np.ones(todo.size, dtype=bool)
        elif block.shape[1] == 2:  # v = (w^1 - w^2)/2 of a pair
            ok = in_I(_uv(block[:, 0], block[:, 1])[1])
        else:
            ok = in_I(block[:, 0])
        points[todo[ok]] = block[ok]
        todo = todo[~ok]
        if not todo.size:
            return points
    raise GenerationError(
        f"no level-{level} tuple satisfying {sorted(wanted)} "
        f"after {RETRY_CAP} draws")


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
        if sv_ratio(p) < 1 / 50:  # condition number over 50
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
