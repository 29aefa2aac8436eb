import json

import numpy as np
import pytest

from ncsym import linalg
from ncsym.errors import GenerationError, NumericalError
from ncsym.words import FreePoly, MatrixTuple

from helpers import (clustered_matrix, ginibre, record_svds,
                     reference_alg_residual)

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
    stack = np.ones((3, 2, 2))
    stack[1, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        linalg.op_norms(stack)


def test_two_norms_equal_numpys_bit_for_bit():
    # op_norm and op_norms read the largest singular value off the SVD
    # that np.linalg.norm(., 2) takes
    rng = np.random.default_rng(11)
    for n in range(1, 21):
        stack = np.stack([ginibre(n, rng) * 10.0 ** e for e in (-3, 0, 5)]
                         + [rng.standard_normal((n, n))])
        want = np.linalg.norm(stack, 2, axis=(-2, -1))
        assert np.array_equal(linalg.op_norms(stack), want)
        assert [linalg.op_norm(a) for a in stack] == \
            [float(np.linalg.norm(a, 2)) for a in stack]
        empty = np.zeros((0, n, n), dtype=complex)
        assert np.array_equal(linalg.op_norms(empty),
                              np.linalg.norm(empty, 2, axis=(-2, -1)))


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
    assert linalg.op_norm(linalg.eval_delta([[X1]], z2)) < 1.0
    i2 = MatrixTuple((np.eye(2),))
    assert not linalg.op_norm(linalg.eval_delta([[2.0 * X1]], i2)) < 1.0
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


def test_random_tuple_constraints(monkeypatch):
    rng = np.random.default_rng(5)
    w = linalg.random_tuple(3, 2, ("v-invertible",), rng)
    assert linalg.in_I(0.5 * (w[0] - w[1]))
    with pytest.raises(ValueError):
        linalg.random_tuple(2, 2, ("bogus",), rng)
    # with no draw allowed, every constraint fails
    monkeypatch.setattr(linalg, "RETRY_CAP", 0)
    with pytest.raises(GenerationError):
        linalg.random_tuple(1, 2, ("v-invertible",), rng)


def test_a_level_draw_reads_the_rng_as_one_ginibre_call_per_matrix():
    a, b, c = (np.random.default_rng(8) for _ in range(3))
    block = linalg.random_tuples(4, 3, 2, ("v-invertible",), a)
    one_by_one = [[ginibre(3, b) for _ in range(2)] for _ in range(4)]
    assert np.array_equal(block, np.array(one_by_one))
    units = linalg.random_unit_norms((4, 2), 3, c)
    assert np.array_equal(units, np.array(
        [[m / linalg.op_norm(m) for m in pair] for pair in one_by_one]))
    # the one-draw cases continue the same streams
    pair = linalg.random_tuple(3, 2, (), a)
    assert all(np.array_equal(m, ginibre(3, b)) for m in pair)
    g = ginibre(3, np.random.default_rng(8))
    assert np.array_equal(
        linalg.random_unit_norms((), 3, np.random.default_rng(8)),
        g / linalg.op_norm(g))


def test_a_rejected_draw_is_redrawn_after_the_block(monkeypatch):
    # trial 1 fails its v-invertible test once: it is drawn again after
    # the block of all 4 trials, and the others keep their first draw
    seen = []

    def reject_trial_1_once(x, tol=linalg.DEFAULT_TOL):
        seen.append(len(x))
        ok = real(x, tol)
        if len(seen) == 1:
            ok[1] = False
        return ok

    real = linalg.in_I
    monkeypatch.setattr(linalg, "in_I", reject_trial_1_once)
    got = linalg.random_tuples(4, 3, 2, ("v-invertible",),
                               np.random.default_rng(9))
    assert seen == [4, 1]  # one batched test per round
    rng = np.random.default_rng(9)
    block = linalg.ginibre_block((4, 2), 3, rng)
    block[1] = linalg.ginibre_block((1, 2), 3, rng)[0]
    assert np.array_equal(got, block)


def test_a_tuple_of_three_is_tested_on_its_first_matrix(monkeypatch):
    # for d != 2, "v-invertible" asks for an invertible w^1: the test sees
    # the first matrix of each tuple, and a rejected trial is drawn again
    seen = []

    def reject_trial_1_once(x, tol=linalg.DEFAULT_TOL):
        seen.append(x.copy())
        ok = real(x, tol)
        if len(seen) == 1:
            ok[1] = False
        return ok

    real = linalg.in_I
    monkeypatch.setattr(linalg, "in_I", reject_trial_1_once)
    got = linalg.random_tuples(4, 3, 3, ("v-invertible",),
                               np.random.default_rng(9))
    rng = np.random.default_rng(9)
    block = linalg.ginibre_block((4, 3), 3, rng)
    redraw = linalg.ginibre_block((1, 3), 3, rng)
    assert [m.shape for m in seen] == [(4, 3, 3), (1, 3, 3)]
    assert np.array_equal(seen[0], block[:, 0])
    assert np.array_equal(seen[1], redraw[:, 0])
    block[1] = redraw[0]
    assert np.array_equal(got, block)


def test_a_level_draw_takes_one_svd(monkeypatch):
    svds = record_svds(monkeypatch)
    rng = np.random.default_rng(10)
    linalg.random_tuples(6, 3, 2, ("v-invertible",), rng)
    linalg.random_unit_norms((6, 3), 2, rng)
    assert [m.shape for m in svds] == [(6, 3, 3), (6, 3, 2, 2)]


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


def _arnoldi_inputs():
    x, _, _, _ = clustered_matrix(np.random.default_rng(1),
                                  3.0 * np.exp(1j * np.array([2.5, -2.5])),
                                  [10, 10], 0.1)
    yield pytest.param(x, 20, id="two-clusters-of-ten")
    jordan = 2.0 * np.eye(3) + np.eye(3, k=1)
    yield pytest.param(jordan.astype(complex), 3, id="jordan-3")
    yield pytest.param(np.eye(4, dtype=complex), 1, id="identity-4")
    yield pytest.param(np.diag([1.0, 1.0, 2.0]).astype(complex), 2,
                       id="diag-1-1-2")
    yield pytest.param(np.diag([1e300, -1e300]).astype(complex), 2,
                       id="diag-1e300")
    yield pytest.param(ginibre(20, np.random.default_rng(4)), 20,
                       id="random-20")


@pytest.mark.parametrize("x, size", _arnoldi_inputs())
def test_alg_residual_matches_the_list_based_reference(monkeypatch, x, size):
    # the basis filled in place takes the same Gram-Schmidt steps as the
    # list stacked again at every step: every step norm, and with them the
    # basis size, and every residual agree bit for bit
    n = len(x)
    rng = np.random.default_rng(n)
    ys = np.stack((np.eye(n), ginibre(n, rng), 1e150 * ginibre(n, rng)))
    steps = []
    norm = np.linalg.norm

    def recording(a, *args, **kwargs):
        out = norm(a, *args, **kwargs)
        if np.ndim(a) == 1:  # the norm of a new Krylov direction
            steps.append(out)
        return out

    monkeypatch.setattr(np.linalg, "norm", recording)
    want = reference_alg_residual(ys, x)
    ref_steps = steps.copy()
    steps.clear()
    got = linalg.alg_residual(ys, x)
    assert steps == ref_steps
    scale = linalg.op_norm(x)
    floor = 1e-12 * (1.0 + scale) / scale
    assert 1 + sum(s > floor for s in steps) == size
    assert np.array_equal(got, want)
    assert np.array_equal(linalg.alg_residual(ys, linalg.spectrum(x)), want)
    for y in ys:
        assert linalg.alg_residual(y, x) == reference_alg_residual(y, x)


def test_tuple_json_round_trip_bit_exact():
    rng = np.random.default_rng(8)
    t = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
    blob = json.dumps(linalg.tuple_to_json_dict(t), sort_keys=True)
    back = linalg.tuple_from_json_dict(json.loads(blob))
    for a, b in zip(t, back):
        assert a.tobytes() == b.tobytes()  # bit-exact
    blob2 = json.dumps(linalg.tuple_to_json_dict(back), sort_keys=True)
    assert blob == blob2
