"""Every spectral function takes a matrix or its Spectrum.

Given the matrix it solves for the eigenvalues at most once, and only if
it reads them, and for the eigenbasis at most once, which gives the
eigenvalues too; given a Spectrum whose eigenvalues and eigenbasis were
read it solves nothing, and its result is the same to the bit.
"""

import dataclasses

import numpy as np
import pytest

from ncsym import domains, funcalc, sqrtlib
from ncsym.geometry import propose_simple_set
from ncsym.linalg import (Spectrum, alg_complement, alg_residual, in_Q,
                          q_margin, spectrum)

from helpers import (cluster_centers_off_cut, clustered_matrix, ginibre,
                     record_eigensolves, solve_counts)

_rng = np.random.default_rng(7)
X, _, _, _ = clustered_matrix(_rng, cluster_centers_off_cut(_rng, 3),
                              [2, 1, 2], 0.02)
# a semisimple 0-block: the rank test runs past its zero gate
ZERO, _, _, _ = clustered_matrix(_rng, [2.0, 3j, 0.0], [2, 1, 2], 0.0)
DELTA = propose_simple_set(spectrum(X).eigenvalues, gap=0.5)
SPEC = funcalc.BranchSpec(DELTA.centers, DELTA.radius, (1, -1, 1))
PIECES = funcalc.matrix_function(X, DELTA, 0, np.eye(DELTA.k))
U = ginibre(5, _rng)

CALLS = {
    "matrix_function": (X, lambda x: funcalc.matrix_function(
        x, DELTA, 0, [SPEC.tau], merge_rtol=1e-4)),
    "spectral_idempotents": (
        X, lambda x: funcalc.spectral_idempotents(x, DELTA)),
    "involution_I": (X, lambda x: funcalc.involution_I(x, SPEC)),
    "sqrt_branch_S": (X, lambda x: funcalc.sqrt_branch_S(x, SPEC)),
    "BranchSpec.for_matrix": (
        X, lambda x: funcalc.BranchSpec.for_matrix(x, (1, 1, -1), gap=0.5)),
    "sqrt_exists": (ZERO, sqrtlib.sqrt_exists),
    "alg_residual": (X, lambda x: alg_residual(np.stack((U, X @ X)), x)),
    "alg_complement": (X, lambda x: alg_complement(np.stack((U, X @ X)), x)),
    "all_square_roots": (X, lambda x: sqrtlib.all_square_roots(x, gap=0.5)),
    "all_square_roots-zero-block": (ZERO, sqrtlib.all_square_roots),
    "square_bound": (X, lambda x: sqrtlib.square_bound(PIECES, x)),
    "signed_sums": (X, lambda x: sqrtlib.signed_sums(PIECES, x, 1e-8)),
    "in_Q": (X, in_Q),
    "q_margin": (X, q_margin),
    "in_D_gamma": (X, lambda x: domains.in_D_gamma(x, DELTA)),
    "in_U_gamma": (X, lambda x: domains.in_U_gamma(U, x, DELTA)),
}

# these read only ||x||: given a matrix, they solve nothing
NORM_ONLY = ("alg_residual", "alg_complement", "square_bound",
             "signed_sums")
# these read the eigenbasis, and the eigenvalues from it
EIGENBASIS = ("spectral_idempotents", "in_U_gamma")


def _arrays(result) -> list:
    """The result as a flat list of arrays, field by field."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return [a for item in result for a in _arrays(item)]
    return [np.asarray(result)]


@pytest.mark.parametrize("name", CALLS)
def test_matrix_or_spectrum_same_bits_one_solve(name, monkeypatch):
    x, call = CALLS[name]
    s = spectrum(x)
    assert isinstance(s, Spectrum) and spectrum(s) is s
    s.eigenvalues, s.eig  # solved on first read, before the recording
    solves = record_eigensolves(monkeypatch)
    want = _arrays(call(x))
    counts = ((0, 0) if name in NORM_ONLY else
              (0, 1) if name in EIGENBASIS else (1, 0))
    assert len(solves) == sum(counts) and solve_counts(solves, x) == counts
    solves.clear()
    got = _arrays(call(s))
    assert solves == []
    assert len(got) == len(want)
    assert all(a.shape == b.shape and np.array_equal(a, b)
               for a, b in zip(got, want))
