import tracemalloc

import numpy as np
import pytest

from ncsym.errors import ChartError, DimensionMismatchError, PreconditionError
from ncsym.linalg import direct_sum, rel_dist
from ncsym.words import CHART_UV, TERM_BUDGET, FreePoly, MatrixTuple

from helpers import ginibre, random_poly, s_even, s_odd, well_conditioned

X = FreePoly.letter(0, 2)
Y = FreePoly.letter(1, 2)


def test_empty_word_evaluates_to_identity():
    rng = np.random.default_rng(0)
    t = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
    one = FreePoly.one(2)
    assert np.allclose(one.evaluate(t), np.eye(3))


def test_evaluate_single_product():
    x1 = np.array([[0, 1], [0, 0]], dtype=complex)
    x2 = np.array([[0, 0], [1, 0]], dtype=complex)
    p = X * Y
    assert np.allclose(p.evaluate(MatrixTuple((x1, x2))),
                       np.array([[1, 0], [0, 0]]))


def test_evaluate_respects_direct_sums():
    rng = np.random.default_rng(1)
    p = random_poly(rng)
    a = MatrixTuple((ginibre(2, rng), ginibre(2, rng)))
    b = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
    big = p.evaluate(direct_sum(a, b))
    assert np.allclose(big[:2, :2], p.evaluate(a))
    assert np.allclose(big[2:, 2:], p.evaluate(b))
    assert np.abs(big[:2, 2:]).max() < 1e-12


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        X.evaluate(MatrixTuple((np.eye(2, dtype=complex),)))


def test_evaluation_is_ring_homomorphism():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = random_poly(rng)
        q = random_poly(rng)
        t = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
        assert rel_dist((p * q).evaluate(t),
                        p.evaluate(t) @ q.evaluate(t)) < 1e-10


def test_evaluation_similarity_covariance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_poly(rng)
        t = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
        s = well_conditioned(3, rng)
        s_inv = np.linalg.inv(s)
        conj = MatrixTuple((s_inv @ t[0] @ s, s_inv @ t[1] @ s))
        assert rel_dist(p.evaluate(conj), s_inv @ p.evaluate(t) @ s) < 1e-8


def test_flip_examples():
    assert (X * Y * X).flip() == Y * X * Y
    assert (X + Y).flip() == Y + X
    assert (X * X * Y).flip() == Y * Y * X
    p = random_poly(np.random.default_rng(4))
    assert p.flip().flip() == p


def test_symmetrize():
    assert X.symmetrize() == 0.5 * (X + Y)
    assert (X * Y).symmetrize() == 0.5 * (X * Y + Y * X)
    already = X * Y + Y * X
    assert already.symmetrize() == already


def test_is_symmetric():
    assert (X * Y + Y * X).is_symmetric()
    assert not (X * Y).is_symmetric()
    p = (X - Y) * (X + Y) * (X - Y)
    assert p.is_symmetric()


def test_to_uv_examples():
    u = FreePoly.letter(0, 2, chart=CHART_UV)
    v = FreePoly.letter(1, 2, chart=CHART_UV)
    assert (X + Y).to_uv() == 2 * u
    assert (X * Y + Y * X).to_uv() == 2 * u * u - 2 * v * v
    assert (2 * u).from_uv() == X + Y


def test_uv_round_trip_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = random_poly(rng)
        assert p.to_uv().from_uv() == p


def test_chart_guard_blocks_double_substitution():
    with pytest.raises(ChartError):
        (X + Y).to_uv().to_uv()
    with pytest.raises(ChartError):
        X.from_uv()


def test_a_chart_change_over_the_term_budget_allocates_nothing():
    # one word of degree 19 maps to 2^19 terms, twice TERM_BUDGET
    p = FreePoly.word((0, 1) * 9 + (0,), 2)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="degree 19") as info:
            p.to_uv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(TERM_BUDGET) in str(info.value)
    assert peak < 2 ** 16  # a 2^19 complex vector is 8 MiB


def test_v_parity_split():
    u = FreePoly.letter(0, 2, chart=CHART_UV)
    v = FreePoly.letter(1, 2, chart=CHART_UV)
    p = u * u + v * v + u * v
    even, odd = p.v_parity_split()
    assert even == u * u + v * v
    assert odd == u * v
    assert (even + odd) == p
    e, o = s_even(4).v_parity_split()
    assert o.is_zero() and e == s_even(4)


def test_symmetric_iff_zero_odd_part():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_poly(rng).symmetrize()
        _, odd = p.to_uv().v_parity_split()
        assert odd.is_zero()
    _, odd = (X * Y).to_uv().v_parity_split()
    assert not odd.is_zero()


def test_s_even_s_odd_term_counts():
    for n in range(0, 9):
        total = len(s_even(n).terms) + len(s_odd(n).terms)
        assert total == 2 ** n
        if n >= 1:
            assert len(s_even(n).terms) == 2 ** (n - 1)


def test_s_even_examples():
    u = FreePoly.letter(0, 2, chart=CHART_UV)
    v = FreePoly.letter(1, 2, chart=CHART_UV)
    assert s_even(2) == u * u + v * v
    assert s_even(3) == u ** 3 + u * v * v + v * u * v + v * v * u
    assert s_odd(1) == v
    assert s_even(0) == FreePoly.one(2, chart=CHART_UV)
    with pytest.raises(ValueError):
        s_even(-1)


def test_power_sum_identity():
    # 2 * s_even(n) at u=(x+y)/2, v=(x-y)/2 equals x^n + y^n
    rng = np.random.default_rng(7)
    for n in range(0, 7):
        p = (2 * s_even(n)).from_uv()
        for _ in range(3):
            t = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
            want = (np.linalg.matrix_power(t[0], n)
                    + np.linalg.matrix_power(t[1], n))
            assert rel_dist(p.evaluate(t), want) < 1e-8


def test_degree_and_canonical_form():
    assert FreePoly.zero(2).degree == -1
    assert FreePoly.one(2).degree == 0
    assert (X * Y + Y).degree == 2
    assert (X - X).is_zero()
    assert (X - X) == FreePoly.zero(2)
    # no zero coefficients survive arithmetic
    p = X * Y - X * Y + Y
    assert set(p.terms) == {(1,)}
    one, x = FreePoly.one(1), FreePoly.letter(0, 1)
    p = (one + x) * (one - x)  # x and -x cancel inside the product
    assert set(p.terms) == {(), (0, 0)} and p == one - x * x


def test_letter_names_for_one_and_three_variables():
    one, x = FreePoly.one(1), FreePoly.letter(0, 1)
    assert (one - x * x).to_text() == "1 - x^2"
    p = FreePoly.word((0, 2, 1), 3) + FreePoly.word((0,), 3)
    assert p.to_text() == "x1 + x1*x3*x2"


def test_subtracting_a_scalar_or_an_unknown_type():
    assert (X - 2).terms == {(0,): 1, (): -2}
    with pytest.raises(TypeError):
        X - "y"


def test_matrix_tuple_validation_and_flip():
    with pytest.raises(DimensionMismatchError):
        MatrixTuple((np.eye(2), np.eye(3)))
    t = MatrixTuple((np.array([[4.0]]), np.array([[2.0]])))
    assert t.flip()[0][0, 0] == 2.0
    assert t.entries[0].flags.writeable is False
