"""Edge cases beyond the module suites: defective/singular combinations,
larger sizes, cross-level companion checks, CLI failure codes."""

import json

import numpy as np
import pytest

from ncsym import domains, funcalc, sqrtlib, verify
from ncsym.cli import main
from ncsym.linalg import (alg_residual, block_diag, op_norm, rel_dist,
                          tuple_to_json_dict)
from ncsym.words import MatrixTuple

from helpers import cluster_centers_off_cut, clustered_matrix, ginibre, \
    well_conditioned


def test_defective_nonzero_with_semisimple_zero():
    # Jordan block at 1 plus a semisimple zero: extension path must still
    # produce both roots, using derivative data at the defective cluster
    j = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    x = block_diag(j, np.zeros((1, 1)))
    rs = sqrtlib.all_square_roots(x)
    assert rs.extension and rs.k == 1 and len(rs) == 2
    for root in rs.roots:
        assert rel_dist(root @ root, x) < 1e-8
        assert abs(root[2, 2]) < 1e-8
    traces = sorted(np.trace(r).real for r in rs.roots)
    assert np.allclose(traces, [-2.0, 2.0])


def test_conjugated_singular_input():
    # same structure but hidden by a similarity
    rng = np.random.default_rng(0)
    j = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    base = block_diag(j, np.zeros((1, 1)))
    s = well_conditioned(3, rng)
    x = np.linalg.inv(s) @ base @ s
    assert sqrtlib.sqrt_exists(x)
    rs = sqrtlib.all_square_roots(x)
    assert len(rs) == 2
    for root in rs.roots:
        assert rel_dist(root @ root, x) < 1e-7


def test_moderately_large_matrix():
    rng = np.random.default_rng(1)
    centers = cluster_centers_off_cut(rng, 2)
    x, _, _, _ = clustered_matrix(rng, centers, [10, 10], 0.02)
    rs = sqrtlib.all_square_roots(x, gap=0.5)
    assert len(rs) == 4
    assert rs.merge_rtol == 1e-2  # every root needs the coarsest rung
    assert max(rs.square_residuals) < 1e-8
    assert max(alg_residual(y, x) for y in rs.roots) < 1e-6


def test_wide_clusters_of_ten_stay_in_alg():
    # the power basis of alg(x) is too ill-conditioned here and refused
    # good roots as "drifted out of alg(x)" (residual 1.2e-5); the
    # orthonormal Krylov basis measures them at rounding level
    rng = np.random.default_rng(1)
    centers = 3.0 * np.exp(1j * np.array([2.5, -2.5]))
    x, _, _, _ = clustered_matrix(rng, centers, [10, 10], 0.1)
    rs = sqrtlib.all_square_roots(x, gap=0.5)
    assert len(rs) == 4
    assert max(rs.square_residuals) < 1e-12
    assert max(rs.alg_residuals) < 1e-13


def test_dense_tight_clusters_refuse_at_default_tolerance():
    # 20 distinct eigenvalues per cluster push the interpolation degree
    # past what the working precision supports: the enumeration must
    # refuse rather than hand back degraded roots; a looser tolerance
    # opts in, with the achieved residuals recorded per root
    from ncsym.errors import NumericalError

    rng = np.random.default_rng(1)
    centers = cluster_centers_off_cut(rng, 2)
    x, _, _, _ = clustered_matrix(rng, centers, [20, 20], 0.02)
    with pytest.raises(NumericalError) as info:
        sqrtlib.all_square_roots(x, gap=0.5)
    assert info.type is NumericalError
    rs = sqrtlib.all_square_roots(x, tol=1e-3, alg_tol=1e-3, gap=0.5)
    assert len(rs) == 4
    assert 1e-8 < max(rs.square_residuals) <= 1e-3
    for root, res in zip(rs.roots, rs.square_residuals):
        assert rel_dist(root @ root, x) <= max(1e-3, 2 * res)


def test_check_anc_transports_across_similar_points():
    # two similar non-diagonal points with consistently transported values
    rng = np.random.default_rng(2)
    x = np.diag([3.0, 2.0, 1.0]).astype(complex) + 0.2 * np.eye(3, k=1)
    s = well_conditioned(3, rng)
    x2 = np.linalg.inv(s) @ x @ s
    fx = 2.0 * np.eye(3) + 0.5 * x - 0.1 * x @ x  # a polynomial in x
    fx2 = np.linalg.inv(s) @ fx @ s
    good = verify.FiniteGradedMap(
        [MatrixTuple((x,)), MatrixTuple((x2,))], [fx, fx2])
    assert verify.check_anc(good, tol=1e-9).passed

    bad = verify.FiniteGradedMap(
        [MatrixTuple((x,)), MatrixTuple((x2,))], [fx, fx2 + 0.3 * np.eye(3)])
    report = verify.check_anc(bad, tol=1e-9)
    sim = next(c for c in report.checks if c.name == "similarity-preserving")
    assert not sim.passed


def test_in_U_gamma_scales_with_u():
    # the commutation test is relative in u, so rescaling cannot flip it
    x = np.diag([1.0, 4.0]).astype(complex)
    d = domains.SimpleSet((1.0, 4.0), 0.4)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    assert domains.in_U_gamma(1e-9 * u, x, d)
    assert domains.in_U_gamma(1e9 * u, x, d)


def test_fiber_level_five_generic():
    from ncsym.linalg import random_tuple

    rng = np.random.default_rng(3)
    w = random_tuple(5, 2, ("generic-u",), rng)
    points = domains.fiber(w)
    assert len(points) == 2


def test_matrix_function_merges_numerically_split_eigenvalues():
    # a 3x3 Jordan block's eigvals split by ~1e-5 in floating point; the
    # confluent merge must still deliver the primary square root
    j = np.eye(3, dtype=complex) + np.eye(3, k=1)
    spec = funcalc.BranchSpec((1.0,), 0.3, (1,))
    s = funcalc.sqrt_branch_S(j, spec)
    assert rel_dist(s @ s, j) < 1e-8
    # exact primary square root of I + N: 1, 1/2, -1/8 coefficients
    want = np.eye(3) + 0.5 * np.eye(3, k=1) - 0.125 * np.eye(3, k=2)
    assert rel_dist(s, want) < 1e-7


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # unisolable clustering surfaces as exit 1
    bad = MatrixTuple((np.diag([1.0, 1.2, 1.5]).astype(complex),))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tuple_to_json_dict(bad)))
    code = main(["sqrt", "--matrix", str(path), "--enumerate",
                 "--gap", "0.25"])
    assert code == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err


def test_cli_fiber_precondition_exit_code(tmp_path, capsys):
    a = ginibre(2, np.random.default_rng(4))
    w = MatrixTuple((a, a))  # v = 0
    path = tmp_path / "w.json"
    path.write_text(json.dumps(tuple_to_json_dict(w)))
    assert main(["fiber", "--input", str(path)]) == 2
    assert "precondition violation" in capsys.readouterr().err


def test_report_json_is_serializable_and_stable():
    rep = verify.pascoe_counterexample()
    blob1 = json.dumps(rep.to_json_dict(), sort_keys=True)
    blob2 = json.dumps(verify.pascoe_counterexample().to_json_dict(),
                       sort_keys=True)
    assert blob1 == blob2
    parsed = json.loads(blob1)
    assert parsed["passed"] is True


def test_involution_norm_one_even_when_defective():
    # involutions are +-1 valued: the defective direction must not leak
    j = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    spec = funcalc.BranchSpec((2.0,), 0.5, (-1,))
    got = funcalc.involution_I(j, spec)
    assert rel_dist(got, -np.eye(2)) < 1e-12
    assert op_norm(got @ got - np.eye(2)) < 1e-12


def test_all_square_roots_rejects_near_zero_cluster_with_coarse_gap():
    from ncsym.errors import ClusteringError

    x = np.diag([0.1, 2.0]).astype(complex)
    with pytest.raises(ClusteringError):
        sqrtlib.all_square_roots(x, gap=0.5)  # 0.1 is "at zero" at this gap
    assert len(sqrtlib.all_square_roots(x, gap=0.01)) == 4


def test_overflowing_products_exit_1(tmp_path, capsys):
    # v u v overflows, and with it the 2-norm that scales the fiber test
    u, v = np.full((2, 2), 1e10), np.diag([1e150, 2e150])
    path = tmp_path / "huge-pair.json"
    path.write_text(json.dumps(tuple_to_json_dict(MatrixTuple((u + v,
                                                               u - v)))))
    assert main(["fiber", "--input", str(path)]) == 1
    assert "overflows" in capsys.readouterr().err
