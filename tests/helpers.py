"""Shared generators and independent mini-oracles for the test suite."""

import numpy as np

from ncsym import ratexpr as rx
from ncsym.linalg import op_norm, op_norms, uv_parts
from ncsym.sqrtlib import all_square_roots
from ncsym.words import FreePoly, MatrixTuple


def ginibre(n, rng):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        / np.sqrt(2.0)


def well_conditioned(n, rng, spread=0.35, cond_cap=50.0):
    while True:
        p = np.eye(n, dtype=complex) + spread * ginibre(n, rng)
        if np.linalg.cond(p) < cond_cap:
            return p


def thirty_distinct():
    """Diagonal matrix with 30 well-separated eigenvalues on |z| = 3."""
    return np.diag(3.0 * np.exp(2j * np.pi * np.arange(30) / 30 + 0.1j))


def clustered_matrix(rng, centers, sizes, spread):
    """Diagonalizable matrix with eigenvalues scattered around the centers.

    Offsets are uniform in a disc of radius spread (bounded, so coverage by
    quarter-isolated discs is certain).  Returns (x, eigenvalues, cluster
    index per eigenvalue, basis P).
    """
    eigs, labels = [], []
    for idx, (c, m) in enumerate(zip(centers, sizes)):
        for _ in range(m):
            offset = spread * np.sqrt(rng.uniform()) \
                * np.exp(2j * np.pi * rng.uniform())
            eigs.append(c + offset)
            labels.append(idx)
    n = len(eigs)
    p = well_conditioned(n, rng)
    x = p @ np.diag(eigs) @ np.linalg.inv(p)
    return x, np.array(eigs), np.array(labels), p


def cluster_centers_off_cut(rng, k, r_min=0.7, r_max=2.5, min_gap=1.0,
                            cut_margin=0.35):
    """k well-separated nonzero centers whose neighborhoods avoid the
    negative real axis (so one holomorphic square root covers each disc)."""
    while True:
        centers = []
        for _ in range(k):
            rad = rng.uniform(r_min, r_max)
            arg = rng.uniform(-np.pi + 0.5, np.pi - 0.5)
            centers.append(rad * np.exp(1j * arg))
        ok = all(abs(a - b) > min_gap
                 for i, a in enumerate(centers)
                 for b in centers[i + 1:])
        ok = ok and all(c.real > 0 or abs(c.imag) > cut_margin
                        for c in centers)
        if ok:
            return centers


def random_pair(n, rng):
    return MatrixTuple((ginibre(n, rng), ginibre(n, rng)))


def random_poly(rng, d=2, max_degree=4, terms=5):
    p = FreePoly.zero(d)
    for _ in range(terms):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(int(rng.integers(0, d)) for _ in range(length))
        coeff = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        p = p + FreePoly.word(word, d, coeff)
    return p


def scalar_eval(e, assignment):
    """Plain complex-arithmetic evaluator, independent of matrix evaluation."""
    if isinstance(e, rx.Variable):
        return complex(assignment[e.name])
    if isinstance(e, rx.Scalar):
        return e.value
    if isinstance(e, rx.Sum):
        return sum(scalar_eval(c, assignment) for c in e.children)
    if isinstance(e, rx.Product):
        out = 1 + 0j
        for c in e.children:
            out *= scalar_eval(c, assignment)
        return out
    if isinstance(e, rx.ScalarMul):
        return e.coeff * scalar_eval(e.child, assignment)
    if isinstance(e, rx.Inverse):
        return 1.0 / scalar_eval(e.child, assignment)
    raise TypeError(type(e).__name__)


def rel_err(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.linalg.norm(a - b, 2) / (1.0 + np.linalg.norm(b, 2))


def brute_force_fiber(w, tol=1e-8, gap=None):
    """Enumerate-and-filter fiber of pi through w: every square root of
    v^2 in alg(v^2) that reproduces the third slot v u v."""
    u, v = uv_parts(w)
    target = v @ u @ v
    scale = 1.0 + op_norm(target)
    cands = np.asarray(all_square_roots(v @ v, gap=gap).roots)
    keep = op_norms(cands @ u @ cands - target) <= tol * scale
    return [MatrixTuple((u + c, u - c)) for c in cands[keep]]


def reference_alg_residual(y, x, rank_tol=1e-12):
    """alg_residual as it was first written, with the Krylov basis kept as
    a list that is stacked again at every step: the reference for the
    version that fills its basis in place, which must match it exactly."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = x.shape[0]
    scale = float(np.linalg.norm(x, 2)) or 1.0
    x = x / scale
    floor = rank_tol * (1.0 + scale) / scale
    q = np.eye(n, dtype=complex) / np.sqrt(n)
    basis = [q.ravel()]
    for _ in range(n - 1):
        vec = (x @ q).ravel()
        done = np.stack(basis)
        for _ in range(2):
            vec = vec - (done.conj() @ vec) @ done
        norm = float(np.linalg.norm(vec))
        if norm <= floor:
            break
        q = (vec / norm).reshape(n, n)
        basis.append(q.ravel())
    u = np.stack(basis, axis=1)
    vecs = y.reshape(-1, n * n)
    resid = (vecs @ u.conj()) @ u.T
    np.subtract(vecs, resid, out=resid)

    def row_norms(rows):
        flat = np.ascontiguousarray(rows).view(np.float64)
        return np.sqrt(np.einsum("...j,...j->...", flat, flat))

    out = row_norms(resid) / (1.0 + row_norms(vecs))
    return float(out[0]) if y.ndim == 2 else out


def record_eigensolves(monkeypatch):
    """Patch np.linalg.eigvals and np.linalg.eig to record every matrix
    they solve, whichever module asks; returns the list of (name, copy of
    the matrix) pairs, name being "eigvals" or "eig"."""
    solved = []

    def recorder(name):
        real = getattr(np.linalg, name)

        def recording(a):
            solved.append((name, np.array(a)))
            return real(a)
        return recording

    for name in ("eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, recorder(name))
    return solved


def solve_counts(solved, x) -> tuple:
    """(eigvals, eig): how often the recorded solves took x for its
    eigenvalues alone and for its eigenbasis."""
    return tuple(sum(kind == name and np.array_equal(m, x)
                     for kind, m in solved) for name in ("eigvals", "eig"))


def record_svds(monkeypatch):
    """Patch np.linalg.svd to record every array it decomposes, whichever
    module asks; returns the list of copies, one per call."""
    taken = []
    real = np.linalg.svd

    def recording(a, *args, **kwargs):
        taken.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return taken
