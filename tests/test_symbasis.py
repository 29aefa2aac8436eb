import numpy as np
import pytest

from ncsym import ratexpr as rx
from ncsym.domains import pi
from ncsym.errors import NotSymmetricError
from ncsym.linalg import random_tuple, rel_dist
from ncsym.parsing import parse
from ncsym.symbasis import (GenPoly, U_ATOM, decompose_symmetric,
                            factor_through_pi, generator_image, generator_word,
                            reduce_to_pi)
from ncsym.words import FreePoly

from helpers import random_poly, weighted_degrees

X = FreePoly.letter(0, 2)
Y = FreePoly.letter(1, 2)

A = ("alpha", 1)
B = ("beta", 1)
G = ("gamma", 1)
Binv = ("beta", -1)


def test_decompose_linear():
    assert decompose_symmetric(X + Y) == GenPoly({(U_ATOM,): 2.0})


def test_decompose_quadratic():
    got = decompose_symmetric(X * Y + Y * X)
    assert got == GenPoly({(U_ATOM, U_ATOM): 2.0, (0,): -2.0})


def test_decompose_cubic_matches_power_sum_table():
    got = decompose_symmetric(X ** 3 + Y ** 3)
    want = GenPoly({(U_ATOM, U_ATOM, U_ATOM): 2.0, (U_ATOM, 0): 2.0,
                    (1,): 2.0, (0, U_ATOM): 2.0})
    assert got == want


def test_decompose_quartic_reduces_to_known_rational_form():
    expr = factor_through_pi(X ** 4 + Y ** 4)
    want = {(A, A, A, A): 2.0, (A, A, B): 2.0, (A, G): 2.0, (G, Binv, G): 2.0,
            (A, B, A): 2.0, (G, A): 2.0, (B, A, A): 2.0, (B, B): 2.0}
    assert rx.as_ncpoly(expr) == want


def test_not_symmetric_is_rejected():
    with pytest.raises(NotSymmetricError):
        decompose_symmetric(X * Y)


def test_decimal_coefficients_decompose():
    # to_uv rounds: the odd-v part of this symmetric input is 2.8e-17, not 0
    p = parse("0.35*x*y + 0.35*y*x + 0.15*x^3 + 0.05*x*y^2 + 0.05*y*x^2"
              " + 0.15*y^3")
    got = decompose_symmetric(p).terms
    u = U_ATOM
    want = {(u, u): 0.7, (0,): -0.7, (u, u, u): 0.4, (u, 0): 0.4,
            (0, u): 0.2, (1,): 0.2}
    assert set(got) == set(want)
    assert all(abs(got[w] - c) < 1e-15 for w, c in want.items())
    with pytest.raises(NotSymmetricError):
        decompose_symmetric(p + 1e-3 * X * Y)


def test_generator_images():
    assert rx.as_ncpoly(generator_image(0)) == {(B,): 1.0}
    assert rx.as_ncpoly(generator_image(1)) == {(G,): 1.0}
    assert rx.as_ncpoly(generator_image(2)) == {(G, Binv, G): 1.0}
    assert rx.as_ncpoly(generator_image(U_ATOM)) == {(A,): 1.0}
    # one rule gives both the expression and the table word of a generator
    assert generator_word(3) == (G, Binv, G, Binv, G)
    for atom in range(U_ATOM, 6):
        assert rx.as_ncpoly(generator_image(atom)) == {
            generator_word(atom): 1.0}
    assert rx.to_text(generator_image(3)) == \
        "gamma*inv(beta)*gamma*inv(beta)*gamma"


def test_round_trip_is_coefficient_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = random_poly(rng, max_degree=6).symmetrize()
        g = decompose_symmetric(p)
        assert g.expand_back() == p.to_uv()


def test_factorization_is_unique_left_to_right():
    # distinct even-v words map to distinct generator words
    from ncsym.symbasis import _factor_even_word
    import itertools

    seen = {}
    for n in range(0, 9):
        for word in itertools.product((0, 1), repeat=n):
            if sum(word) % 2:
                continue
            key = _factor_even_word(word)
            assert key not in seen, f"collision {word} vs {seen[key]}"
            seen[key] = word
    # and expansion inverts the factorization
    for key, word in seen.items():
        assert GenPoly({key: 1.0}).expand_back().terms == {word: 1.0}


def test_symmetric_space_dimension_is_2_pow_d_minus_1():
    import itertools

    for d in range(1, 9):
        # orbit count of degree-d words under the letter swap
        words = list(itertools.product((0, 1), repeat=d))
        orbits = set()
        for w in words:
            flipped = tuple(1 - a for a in w)
            orbits.add(min(w, flipped))
        assert len(orbits) == 2 ** (d - 1)
        # generator words of weighted degree d (U: 1, M_j: j + 2)
        counts = _weighted_generator_count(d)
        assert counts == 2 ** (d - 1)


def _weighted_generator_count(d):
    table = [1] + [0] * d
    for total in range(1, d + 1):
        acc = table[total - 1]  # leading U
        for j in range(0, total - 1):  # leading M_j of weight j + 2
            acc += table[total - (j + 2)]
        table[total] = acc
    return table[d]


def test_homogeneous_degree_bounds_generators():
    p = (X ** 4 + Y ** 4)
    g = decompose_symmetric(p)
    assert max((a for w in g.terms for a in w if a != U_ATOM), default=0) <= 2
    assert weighted_degrees(g) == {4}


def test_factor_through_pi_numeric_contract():
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = random_poly(rng, max_degree=6).symmetrize()
        expr = factor_through_pi(p)
        level = int(rng.integers(2, 5))
        w = random_tuple(level, 2, ("v-invertible",), rng)
        t = pi(w)
        value = rx.evaluate(expr, {"alpha": t[0], "beta": t[1],
                                   "gamma": t[2]})
        direct = p.evaluate(w)
        assert rel_dist(value, direct) < 1e-8


def test_scalar_anchor_values():
    from ncsym.words import MatrixTuple

    w = MatrixTuple((np.array([[4.0]]), np.array([[2.0]])))
    t = pi(w)
    assert np.allclose([t[0][0, 0], t[1][0, 0], t[2][0, 0]], [3, 1, 3])
    f = factor_through_pi(X + Y)
    assert rx.as_ncpoly(f) == {(A,): 2.0}
    got = rx.evaluate(f, {"alpha": t[0], "beta": t[1], "gamma": t[2]})
    assert abs(got[0, 0] - 6.0) < 1e-14
    f2 = factor_through_pi(X * Y + Y * X)
    got2 = rx.evaluate(f2, {"alpha": t[0], "beta": t[1], "gamma": t[2]})
    assert abs(got2[0, 0] - 16.0) < 1e-14


def test_pascoe_polynomial_needs_the_inverse():
    p = (X - Y) * (X + Y) * (X + Y) * (X - Y)
    g = decompose_symmetric(p)
    assert g == GenPoly({(2,): 16.0})
    expr = reduce_to_pi(g)
    assert rx.as_ncpoly(expr) == {(G, Binv, G): 16.0}


def test_zero_polynomial_degenerates_gracefully():
    g = decompose_symmetric(FreePoly.zero(2))
    assert g.is_zero()
    assert rx.as_ncpoly(reduce_to_pi(g)) == {}
