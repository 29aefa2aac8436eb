import json

import numpy as np
import pytest

from ncsym import linalg
from ncsym.errors import GenerationError, NumericalError
from ncsym.words import FreePoly, MatrixTuple

from helpers import ginibre

X1 = FreePoly.letter(0, 1)


def test_spectrum_examples():
    assert np.allclose(linalg.spectrum(np.eye(3)).eigenvalues, [1, 1, 1])
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.allclose(linalg.spectrum(nil).eigenvalues, [0, 0])
    assert np.allclose(linalg.spectrum(np.diag([4.0, 2.0])).eigenvalues,
                       [2, 4])  # sorted by (real, imag)


def test_spectrum_of_direct_sum_is_union():
    rng = np.random.default_rng(0)
    a, b = ginibre(3, rng), ginibre(2, rng)
    whole = linalg.spectrum(linalg.block_diag(a, b)).eigenvalues
    parts = sorted(list(linalg.spectrum(a).eigenvalues)
                   + list(linalg.spectrum(b).eigenvalues),
                   key=lambda z: (z.real, z.imag))
    assert np.allclose(whole, parts, atol=1e-9)


def test_direct_sum_and_conjugate():
    t3 = MatrixTuple((np.array([[3.0]]),))
    t2 = MatrixTuple((np.array([[2.0]]),))
    t1 = MatrixTuple((np.array([[1.0]]),))
    stacked = linalg.direct_sum(linalg.direct_sum(t3, t2), t1)
    assert np.allclose(stacked[0], np.diag([3.0, 2.0, 1.0]))

    rng = np.random.default_rng(1)
    x = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
    assert all(np.allclose(a, b) for a, b in
               zip(linalg.conjugate(np.eye(3), x), x))
    s = np.eye(3) + 0.3 * ginibre(3, rng)
    assert np.allclose(
        np.sort_complex(np.asarray(
            linalg.spectrum(linalg.conjugate(s, x)[0]).eigenvalues)),
        np.sort_complex(np.asarray(linalg.spectrum(x[0]).eigenvalues)),
        atol=1e-8)


def test_op_norm():
    assert linalg.op_norm(np.eye(4)) == pytest.approx(1.0)
    assert linalg.op_norm(np.zeros((3, 3))) == 0.0
    r = 2.5
    assert linalg.op_norm(np.array([[0, r], [0, 0]])) == pytest.approx(r)


def test_non_finite_norms_are_numerical_errors():
    # a check against an infinite norm would pass vacuously
    big = np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    for call in (linalg.op_norm, linalg.op_norms):
        with pytest.raises(NumericalError):
            call(big)
    with pytest.raises(NumericalError):
        linalg.op_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_op_norm_submultiplicative_and_unitary_invariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = ginibre(4, rng), ginibre(4, rng)
        assert linalg.op_norm(a @ b) <= \
            linalg.op_norm(a) * linalg.op_norm(b) + 1e-10
        q, _ = np.linalg.qr(ginibre(4, rng))
        assert abs(linalg.op_norm(q @ a) - linalg.op_norm(a)) < 1e-10


def test_eval_delta_and_membership():
    z2 = MatrixTuple((np.zeros((2, 2)),))
    assert linalg.in_B_delta([[X1]], z2)
    i2 = MatrixTuple((np.eye(2),))
    assert not linalg.in_B_delta([[2.0 * X1]], i2)
    assert linalg.op_norm(linalg.eval_delta([[2.0 * X1]], i2)) \
        == pytest.approx(2.0)


def test_block_norm_of_direct_sum_is_max():
    # [delta_ij(x (+) y)] is a block permutation of delta(x) (+) delta(y)
    rng = np.random.default_rng(3)
    delta = [[X1, X1 * X1], [FreePoly.one(1), 2.0 * X1]]
    x = MatrixTuple((ginibre(2, rng),))
    y = MatrixTuple((ginibre(3, rng),))
    big = linalg.op_norm(linalg.eval_delta(delta, linalg.direct_sum(x, y)))
    small = max(linalg.op_norm(linalg.eval_delta(delta, x)),
                linalg.op_norm(linalg.eval_delta(delta, y)))
    assert big == pytest.approx(small, rel=1e-10)


def test_in_Q_examples():
    assert linalg.in_Q(np.diag([1.0, 2.0]))
    assert not linalg.in_Q(np.diag([1.0, -1.0]))
    assert not linalg.in_Q(np.diag([0.0, 2.0]))  # 0 pairs with itself


def test_in_I_examples():
    assert linalg.in_I(np.eye(3))
    assert not linalg.in_I(np.zeros((2, 2)))
    assert not linalg.in_I(np.diag([1.0, 1e-14]), 1e-10)


def test_in_Q_implies_in_I():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = ginibre(3, rng)
        if linalg.in_Q(m):
            assert linalg.in_I(m)


def test_random_tuple_constraints():
    rng = np.random.default_rng(5)
    w = linalg.random_tuple(3, 2, ("v-in-Q",), rng)
    assert linalg.in_Q(0.5 * (w[0] - w[1]))
    w = linalg.random_tuple(3, 2, ("distinct-eigenvalues",), rng)
    eigs = np.asarray(linalg.spectrum(0.5 * (w[0] - w[1])).eigenvalues)
    gaps = np.abs(eigs[:, None] - eigs[None, :])
    gaps[np.diag_indices(3)] = np.inf
    assert gaps.min() > 1e-7
    w = linalg.random_tuple(2, 2, ("unit-norm",), rng)
    assert max(linalg.op_norm(w[0]), linalg.op_norm(w[1])) \
        == pytest.approx(1.0)
    with pytest.raises(ValueError):
        linalg.random_tuple(2, 2, ("bogus",), rng)
    with pytest.raises(GenerationError):
        # impossible at level 1: a 1x1 v cannot be distinct AND in Q if we
        # exhaust retries with a constraint that always fails
        linalg.random_tuple(1, 2, ("v-invertible",), rng, retries=0)


def test_generic_u_tuple_properties():
    rng = np.random.default_rng(6)
    w = linalg.random_tuple(3, 2, ("generic-u",), rng)
    v = 0.5 * (w[0] - w[1])
    assert linalg.in_Q(v)
    assert linalg.in_I(v)


def test_alg_residual():
    rng = np.random.default_rng(7)
    x = ginibre(4, rng)
    inside = 0.3 * np.eye(4) + 2.0 * x - 0.7 * x @ x
    assert linalg.alg_residual(inside, x) < 1e-10
    outside = ginibre(4, rng)
    assert linalg.alg_residual(outside, x) > 1e-3


def test_alg_residual_of_a_commuting_matrix_outside_alg():
    # E_12 commutes with diag(1, 1, 2) but is orthogonal to alg(x), the
    # diagonal matrices with equal first two entries; the Krylov basis
    # stops at dimension 2 and keeps the whole of E_12 as residual
    x = np.diag([1.0, 1.0, 2.0]).astype(complex)
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    assert linalg.alg_residual(e12, x) == pytest.approx(0.5, abs=1e-12)
    assert linalg.alg_residual(x @ x - 3.0 * x, x) < 1e-15


def test_tuple_json_round_trip_bit_exact():
    rng = np.random.default_rng(8)
    t = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
    blob = json.dumps(linalg.tuple_to_json_dict(t), sort_keys=True)
    back = linalg.tuple_from_json_dict(json.loads(blob))
    for a, b in zip(t, back):
        assert a.tobytes() == b.tobytes()  # bit-exact
    blob2 = json.dumps(linalg.tuple_to_json_dict(back), sort_keys=True)
    assert blob == blob2
