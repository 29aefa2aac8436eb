import itertools

import numpy as np
import pytest

from ncsym import domains, funcalc
from ncsym.domains import SimpleSet
from ncsym.errors import NumericalError, SpectrumOutsideDomainError
from ncsym.linalg import alg_residual, block_diag, op_norm, rel_dist, spectrum

from helpers import (cluster_centers_off_cut, clustered_matrix,
                     commutator_norm, ginibre)

RNG = np.random.default_rng(42)


def test_branch_spec_validation():
    funcalc.BranchSpec((1.0, 5.0), 0.4, (1, -1))
    with pytest.raises(ValueError):
        funcalc.BranchSpec((1.0, 5.0), 1.5, (1, -1))  # 0 inside first disc
    with pytest.raises(ValueError):
        funcalc.BranchSpec((1.0, 2.0), 0.3, (1, 1))  # not quarter isolated
    with pytest.raises(ValueError):
        funcalc.BranchSpec((1.0,), 0.4, (2,))  # bad sign
    with pytest.raises(ValueError):
        funcalc.BranchSpec((1.0, 5.0), 0.4, (1,))  # a center without a sign
    with pytest.raises(ValueError):
        funcalc.BranchSpec((1.0,), 0.4, (1, -1))  # a sign without a center


def test_square_root_and_constant_functions():
    x, _, _, _ = clustered_matrix(RNG, [1.5, 4.0], [2, 2], 0.05)
    dom = SimpleSet((1.5, 4.0), 0.4)
    spec = funcalc.BranchSpec(dom.centers, dom.radius, (1, -1))
    s = funcalc.matrix_function(x, dom, 0, [spec.tau])
    assert s.shape == (1, 4, 4)
    assert rel_dist(s[0] @ s[0], x) < 1e-10
    one = funcalc.matrix_function(x, dom, [(1.0, 1.0)], 0)
    assert one.shape == (1, 4, 4)
    assert np.allclose(one[0], np.eye(4))


def test_principal_sqrt_on_diagonal():
    spec = funcalc.BranchSpec((1.0, 4.0), 0.4, (1, 1))
    got = funcalc.sqrt_branch_S(np.diag([1.0, 4.0]).astype(complex), spec)
    assert np.allclose(got, np.diag([1.0, 2.0]))


def test_involution_examples():
    x = np.diag([1.0, 4.0]).astype(complex)
    all_plus = funcalc.BranchSpec((1.0, 4.0), 0.4, (1, 1))
    assert np.allclose(funcalc.involution_I(x, all_plus), np.eye(2))
    all_minus = funcalc.BranchSpec((1.0, 4.0), 0.4, (-1, -1))
    assert np.allclose(funcalc.involution_I(x, all_minus), -np.eye(2))
    mixed = funcalc.BranchSpec((1.0, 4.0), 0.4, (1, -1))
    assert np.allclose(funcalc.involution_I(x, mixed), np.diag([1.0, -1.0]))


def test_involution_squares_to_identity():
    for trial in range(10):
        centers = cluster_centers_off_cut(RNG, 3)
        x, _, _, _ = clustered_matrix(RNG, centers, [1, 1, 1], 0.0)
        spec = funcalc.BranchSpec.for_matrix(x, (1, -1, 1))
        inv_mat = funcalc.involution_I(x, spec)
        assert rel_dist(inv_mat @ inv_mat, np.eye(3)) < 1e-8


def test_sqrt_identity_plus_branch():
    spec = funcalc.BranchSpec((1.0,), 0.2, (1,))
    assert np.allclose(funcalc.sqrt_branch_S(np.eye(2, dtype=complex), spec),
                       np.eye(2))


def test_all_four_roots_of_diag_1_4():
    x = np.diag([1.0, 4.0]).astype(complex)
    got = set()
    for tau in itertools.product((1, -1), repeat=2):
        spec = funcalc.BranchSpec((1.0, 4.0), 0.4, tau)
        y = funcalc.sqrt_branch_S(x, spec)
        assert rel_dist(y @ y, x) < 1e-12
        got.add((round(y[0, 0].real, 8), round(y[1, 1].real, 8)))
    assert got == {(1.0, 2.0), (1.0, -2.0), (-1.0, 2.0), (-1.0, -2.0)}


def test_sqrt_commutes_and_lies_in_alg():
    for trial in range(10):
        centers = cluster_centers_off_cut(RNG, 2)
        x, _, _, _ = clustered_matrix(RNG, centers, [2, 1], 0.03)
        spec = funcalc.BranchSpec.for_matrix(x, (1, -1), gap=0.5)
        s = funcalc.sqrt_branch_S(x, spec)
        assert rel_dist(s @ s, x) < 1e-9
        assert commutator_norm(s, x) <= 1e-8 * (1.0 + op_norm(x))
        assert alg_residual(s, x) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_square_and_involution_contracts_across_sizes(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(100):
        k = int(rng.integers(1, min(n, 3) + 1))
        centers = cluster_centers_off_cut(rng, k)
        sizes = _split_sizes(n, k, rng)
        x, _, _, _ = clustered_matrix(rng, centers, sizes, 0.02)
        tau = tuple(1 if rng.random() < 0.5 else -1 for _ in range(k))
        spec = funcalc.BranchSpec.for_matrix(x, tau, gap=0.5)
        s = funcalc.sqrt_branch_S(x, spec)
        i = funcalc.involution_I(x, spec)
        assert rel_dist(s @ s, x) < 1e-8
        assert rel_dist(i @ i, np.eye(n)) < 1e-8
        assert alg_residual(s, x) < 1e-8
        assert alg_residual(i, x) < 1e-8


def _split_sizes(n, k, rng):
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) \
        if k > 1 else []
    bounds = [0] + list(cuts) + [n]
    return [bounds[i + 1] - bounds[i] for i in range(k)]


def test_spectrum_outside_domain_is_rejected():
    spec = funcalc.BranchSpec((1.0,), 0.2, (1,))
    with pytest.raises(SpectrumOutsideDomainError):
        funcalc.sqrt_branch_S(np.diag([1.0, 4.0]).astype(complex), spec)


def test_nodes_never_merge_across_discs():
    # at merge_rtol 1e-2 the two eigenvalues are within one merge gap, but
    # they lie in two discs, where the germ has two different pieces
    d = SimpleSet((3.0, 3.01), 1e-3)
    x = np.diag([3.0, 3.01]).astype(complex)
    got = funcalc.matrix_function(x, d, 0, [(1.0, 0.0)], merge_rtol=1e-2)
    assert np.abs(got[0] - np.diag([np.sqrt(3.0), 0.0])).max() <= 1e-14


def test_defective_inputs_use_derivative_data():
    # single Jordan block: sqrt must reproduce the (1,2) entry 1/(2 sqrt(1))
    j = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    spec = funcalc.BranchSpec((1.0,), 0.3, (1,))
    s = funcalc.sqrt_branch_S(j, spec)
    assert np.allclose(s, np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_idempotents_of_a_diagonalizable_matrix_take_no_interpolant(
        monkeypatch):
    # the eigenbasis idempotents pass their commutator certificate, agree
    # with the interpolated ones and are exact projectors
    rng = np.random.default_rng(3)
    x, _, _, _ = clustered_matrix(
        rng, cluster_centers_off_cut(rng, 3), [2, 1, 2], 0.05)
    d = domains.propose_simple_set(np.linalg.eigvals(x), gap=0.5)
    want = funcalc.matrix_function(x, d, np.eye(d.k), 0)
    monkeypatch.setattr(funcalc, "matrix_function", _refused)
    idem = funcalc.spectral_idempotents(x, d)
    assert np.abs(idem - want).max() <= 1e-10
    assert np.abs(idem @ idem - idem).max() <= 1e-12
    assert np.abs(idem.sum(axis=0) - np.eye(len(x))).max() <= 1e-12


def _refused(*args, **kwargs):
    raise AssertionError("the interpolant ran")


@pytest.mark.parametrize("size", [2, 3])
def test_defective_idempotents_fall_back_to_the_interpolant(size,
                                                            monkeypatch):
    # a Jordan block at 4 beside 1, under a similarity: the eigenbasis
    # idempotents miss commuting with x by about 4e-9 (size 2) or 8e-7
    # (size 3), so the interpolant gives them, as it did alone before
    rng = np.random.default_rng(0)
    block = 4.0 * np.eye(size) + np.eye(size, k=1)
    p = np.eye(size + 1) + 0.3 * rng.standard_normal((size + 1, size + 1))
    x = p @ block_diag(block, np.eye(1)) @ np.linalg.inv(p)
    d = SimpleSet((1.0, 4.0), 0.4)
    want = funcalc.matrix_function(x, d, np.eye(2), 0)
    calls = []
    interpolant = funcalc.matrix_function

    def counted(*args):
        calls.append(args)
        return interpolant(*args)

    monkeypatch.setattr(funcalc, "matrix_function", counted)
    assert np.array_equal(funcalc.spectral_idempotents(x, d), want)
    assert len(calls) == 1
    u = p @ block_diag(ginibre(size, rng), np.eye(1)) @ np.linalg.inv(p)
    assert domains.in_U_gamma(u, x, d) is False  # u keeps the discs apart
    assert domains.in_U_gamma(ginibre(size + 1, rng), x, d) is True
    assert len(calls) == 3


def test_a_singular_eigenbasis_falls_back_to_the_interpolant(monkeypatch):
    x = np.diag([1.0, 4.0]).astype(complex)
    d = SimpleSet((1.0, 4.0), 0.4)
    monkeypatch.setattr(np.linalg, "eig",
                        lambda a: (np.diag(a), np.zeros_like(a)))
    s = spectrum(x)
    with pytest.raises(NumericalError, match="eigenbasis"):
        s.eig
    assert np.array_equal(funcalc.spectral_idempotents(s, d),
                          funcalc.matrix_function(x, d, np.eye(2), 0))


def test_functional_calculus_multiplicativity():
    # products of germs, taken disc by disc: E_i E_j = delta_ij E_i,
    # sum E_j = I, R_i E_j = delta_ij R_i and S_tau^2 = x
    rng = np.random.default_rng(11)
    dom = SimpleSet((1.0 + 0.5j, 4.0), 0.5)
    eye, zero2 = np.eye(2), np.zeros((2, 2))
    const = np.concatenate((eye, zero2))  # E_0, E_1, then R_0, R_1
    root = np.concatenate((zero2, eye))
    for _ in range(10):
        x, _, _, _ = clustered_matrix(rng, [1.0 + 0.5j, 4.0], [2, 2], 0.1)
        e0, e1, r0, r1 = funcalc.matrix_function(x, dom, const, root)
        zero = np.zeros_like(x)
        for i, (e, r) in enumerate(((e0, r0), (e1, r1))):
            for j, f in enumerate((e0, e1)):
                assert rel_dist(e @ f, e if i == j else zero) < 1e-9
                assert rel_dist(r @ f, r if i == j else zero) < 1e-9
        assert rel_dist(e0 + e1, np.eye(4)) < 1e-9
        for tau in itertools.product((1, -1), repeat=2):
            (s,) = funcalc.matrix_function(x, dom, 0, [tau])
            assert rel_dist(s @ s, x) < 1e-9
            assert rel_dist(s, tau[0] * r0 + tau[1] * r1) < 1e-12


def test_reference_roots_are_taken_once_per_node(monkeypatch):
    # all germs of one call share one derivative table of the reference
    # roots: the 8 signed roots, the 3 pieces and the 3 idempotents
    calls = []
    derivs = funcalc._sqrt_derivs
    monkeypatch.setattr(funcalc, "_sqrt_derivs",
                        lambda *args: calls.append(args) or derivs(*args))
    x, _, _, _ = clustered_matrix(np.random.default_rng(5),
                                  [1.0, 4.0, 2j], [2, 1, 1], 0.0)
    dom = SimpleSet((1.0, 4.0, 2j), 0.4)
    eye, zero3 = np.eye(3), np.zeros((3, 3))
    taus = np.array(list(itertools.product((1, -1), repeat=3)))
    const = np.concatenate((np.zeros_like(taus), zero3, eye))
    root = np.concatenate((taus, eye, zero3))
    stack = funcalc.matrix_function(x, dom, const, root)
    assert stack.shape == (14, 4, 4)
    assert len(calls) == 3  # three nodes: the double eigenvalue 1 is one
    assert rel_dist(stack[0] @ stack[0], x) < 1e-10
    calls.clear()
    funcalc.matrix_function(x, dom, const[-3:], root[-3:])
    assert calls == []  # constant germs need no reference root


def test_branch_coherence_between_overlapping_specs():
    # equal sandwich values force S1 = +-S2 (the either/or alternative)
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        centers = cluster_centers_off_cut(rng, k)
        x, eigs, labels, _ = clustered_matrix(rng, centers, [2] * k, 0.02)
        spec1 = funcalc.BranchSpec.for_matrix(x, tuple(
            1 if rng.random() < 0.5 else -1 for _ in range(k)), gap=0.5)
        s1 = funcalc.sqrt_branch_S(x, spec1)
        centers2 = [c + 0.03 * np.exp(2j * np.pi * rng.uniform())
                    for c in spec1.centers]
        radius2 = spec1.radius  # still covers: perturbation << radius
        flip = -1 if rng.random() < 0.5 else 1
        tau2 = _matching_signs(spec1, centers2, radius2, eigs, flip)
        spec2 = funcalc.BranchSpec(centers2, radius2, tau2)
        s2 = funcalc.sqrt_branch_S(x, spec2)
        assert min(rel_dist(s1, s2), rel_dist(s1, -s2)) < 1e-7


def _matching_signs(spec1, centers2, radius2, eigs, flip):
    """Signs for the second covering so its branch equals flip * first."""
    from ncsym.funcalc import _sqrt_derivs

    dom2 = SimpleSet(centers2, radius2)
    tau2 = []
    for c2 in dom2.centers:
        z = min(eigs, key=lambda e: abs(e - c2))
        i1 = spec1.simple_set.locate(z)
        v1 = _sqrt_derivs(z, 1, spec1.centers[i1], spec1.tau[i1])[0]
        v2 = _sqrt_derivs(z, 1, c2, 1)[0]
        ratio = (flip * v1 / v2).real
        tau2.append(1 if ratio > 0 else -1)
    return tuple(tau2)
