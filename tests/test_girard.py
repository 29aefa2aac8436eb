import tracemalloc

import numpy as np
import pytest

from ncsym import girard
from ncsym import ratexpr as rx
from ncsym.errors import (DomainError, ExpansionError, PreconditionError,
                          SingularityError)
from ncsym.linalg import rel_dist
from ncsym.words import MatrixTuple

from helpers import (from_freepoly, ginibre, ncpoly_equal, record_svds,
                     s_even, s_odd, scalar_eval)

A = ("alpha", 1)
B = ("beta", 1)
G = ("gamma", 1)
Binv = ("beta", -1)

TABLE = {
    1: {(A,): 2},
    2: {(A, A): 2, (B,): 2},
    3: {(A, A, A): 2, (A, B): 2, (G,): 2, (B, A): 2},
    4: {(A, A, A, A): 2, (A, A, B): 2, (A, G): 2, (G, Binv, G): 2,
        (A, B, A): 2, (G, A): 2, (B, A, A): 2, (B, B): 2},
}


def test_first_four_expressions_match_table_exactly():
    for n, want in TABLE.items():
        got = girard.table_expression(n)
        assert got == {w: complex(c) for w, c in want.items()}, f"n={n}"


def test_table_is_the_expanded_power_sum_expression():
    # the enumeration and the recursion P_{n+1} = alpha P_n + Q_n agree
    for n in range(0, 13):
        got = girard.table_expression(n)
        assert got == rx.as_ncpoly(girard.girard_positive(n).P), f"n={n}"
        assert all(type(c) is complex for c in got.values())


def test_a_table_over_the_term_budget_allocates_nothing():
    # P_20 has 2^19 table words, twice TERM_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionError, match="TERM_BUDGET = 262144"):
            girard.table_expression(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_a_table_of_a_negative_index_is_refused():
    with pytest.raises(ValueError, match="index must be >= 0"):
        girard.table_expression(-1)


def test_base_cases():
    pair = girard.girard_positive(0)
    assert rx.as_ncpoly(pair.P) == {(): 2.0}
    assert rx.as_ncpoly(pair.Q) == {}
    p, q = girard.girard_via_T(0)
    assert rx.as_ncpoly(p) == {(): 2.0}
    assert rx.as_ncpoly(q) == {}


def test_positive_expands_to_even_monomial_sum():
    # expansion under alpha->u, beta->v^2, gamma->vuv equals 2 s_even(n)
    u, v = rx.variables("u", "v")
    coord = {"alpha": u, "beta": rx.mul(v, v), "gamma": rx.mul(v, u, v)}
    for n in range(0, 9):
        image = rx.substitute(girard.girard_positive(n).P, coord)
        want = rx.scale(2, from_freepoly(s_even(n), ("u", "v")))
        assert ncpoly_equal(image, want), f"n={n}"


def test_negative_index_scalar_anchors():
    asg = {"alpha": 3.0, "beta": 1.0, "gamma": 3.0}
    pair = girard.girard_negative(1)
    assert abs(rx.evaluate(pair.P, asg)[0, 0] - 0.75) < 1e-12
    assert abs(rx.evaluate(pair.Q, asg)[0, 0] - (-0.25)) < 1e-12
    # oracle: x = 4, y = 2, v = 1, so Q_-1 = v (x^-1 - y^-1) = -1/4
    pair2 = girard.girard_negative(2)
    assert abs(rx.evaluate(pair2.P, asg)[0, 0] - (4 ** -2 + 2 ** -2)) < 1e-12


def test_via_T_examples():
    p2, _ = girard.girard_via_T(2)
    assert rx.as_ncpoly(p2) == {(("u", 1), ("u", 1)): 2.0,
                                (("v", 1), ("v", 1)): 2.0}
    pm1, _ = girard.girard_via_T(-1)
    got = rx.evaluate(pm1, {"u": 3.0, "v": 1.0})
    assert abs(got[0, 0] - 0.75) < 1e-12


def test_via_T_expands_to_twice_the_even_and_odd_word_sums():
    # a pin: the u,v transfer against the words enumerated by s_even, s_odd
    for n in range(0, 13):
        for got, want in zip(girard.girard_via_T(n), (s_even(n), s_odd(n))):
            assert rx.as_ncpoly(got) == {
                tuple((("u", "v")[k], 1) for k in w): 2 * c
                for w, c in want.terms.items()}, f"n={n}"


def test_via_T_grows_linearly():
    # two sums and four products per step; each index is bounded before
    # the next is built, as a word expansion would hold 2^(n-1) words
    sizes = []
    for n in (8, 16, 24):
        sizes.append(len(rx._postorder(girard.girard_via_T(n)[0])))
        assert sizes[-1] <= 6 * n
    assert sizes[2] - sizes[1] == sizes[1] - sizes[0]


def test_via_T_agrees_with_coordinate_path():
    rng = np.random.default_rng(0)
    for n in (-3, -2, -1, 0, 1, 2, 3, 4, 5):
        pT, _ = girard.girard_via_T(n)
        pair = girard.girard_pair(n)
        for _ in range(4):
            level = int(rng.integers(1, 4))
            for _attempt in range(40):
                um, vm = ginibre(level, rng), ginibre(level, rng)
                try:
                    via_t = rx.evaluate(pT, {"u": um, "v": vm})
                    via_pi = rx.evaluate(pair.P, {
                        "alpha": um, "beta": vm @ vm, "gamma": vm @ um @ vm})
                except rx.SingularityError:
                    continue
                assert rel_dist(via_t, via_pi) < 1e-8
                break
            else:  # pragma: no cover
                pytest.fail("no admissible sample found")


def test_commutative_collapse_to_classical_identities():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        y = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        u, v = (x + y) / 2, (x - y) / 2
        vals = {"alpha": u, "beta": v * v, "gamma": v * v * u}
        e1, e2 = x + y, x * y
        p2 = scalar_eval(girard.girard_positive(2).P, vals)
        assert abs(p2 - (e1 ** 2 - 2 * e2)) < 1e-12
        p3 = scalar_eval(girard.girard_positive(3).P, vals)
        assert abs(p3 - (e1 ** 3 - 3 * e1 * e2)) < 1e-12
        p4 = scalar_eval(girard.girard_positive(4).P, vals)
        assert abs(p4 - (e1 ** 4 - 4 * e1 ** 2 * e2 + 2 * e2 ** 2)) < 1e-12


def test_verify_girard_random_positive_and_negative():
    rep = girard.verify_girard_random(4, levels=(3,), trials=5, seed=2)
    assert rep.passed
    rep = girard.verify_girard_random(-2, levels=(2,), trials=5, tol=1e-7,
                                      seed=3)
    assert rep.passed


@pytest.mark.parametrize("levels", [(0,), (-1,), (2, 0)])
def test_levels_below_one_are_refused(levels):
    with pytest.raises(PreconditionError, match="levels"):
        girard.verify_girard_random(2, levels=levels, trials=3, seed=1)


@pytest.mark.parametrize("levels, trials", [
    ((2,), rx.SAMPLE_BUDGET + 1), ((2, 3), 10 ** 9)])
def test_samples_over_the_budget_are_refused_before_a_draw(levels, trials,
                                                           monkeypatch):
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(girard, "random_tuples", no_draw)
    with pytest.raises(PreconditionError, match="SAMPLE_BUDGET"):
        girard.verify_girard_random(2, levels=levels, trials=trials, seed=1)


def test_verify_girard_random_builds_p_n_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return pair(n)

    pair = girard.girard_pair
    monkeypatch.setattr(girard, "girard_pair", counted)
    assert girard.verify_girard_random(2, levels=(2, 3), trials=5,
                                       seed=0).passed
    assert calls == [2]


def test_a_failing_level_names_its_first_failing_trial():
    rep = girard.verify_girard_random(2, levels=(2,), trials=3, tol=1e-300,
                                      seed=0)
    check = rep.checks[0]
    assert not check.passed
    assert check.witness["trial"] == 0 and set(check.witness) == {
        "trial", "residual"}
    assert 1e-300 < check.witness["residual"] <= check.residual


def test_a_negative_seed_is_refused():
    with pytest.raises(PreconditionError, match="seed"):
        girard.verify_girard_random(2, seed=-1)
    girard.verify_girard_random(2, trials=1, rng=np.random.default_rng(1),
                                seed=-1)  # the rng, not the seed, draws


def test_verify_girard_random_walks_p_n_once_per_level(monkeypatch):
    calls = []

    def counted(e, assignment, n=None):
        calls.append(len(assignment["alpha"]))
        return evaluate(e, assignment, n)

    evaluate = girard.evaluate
    monkeypatch.setattr(girard, "evaluate", counted)
    assert girard.verify_girard_random(2, levels=(2, 3), trials=5,
                                       seed=0).passed
    assert calls == [5, 5]  # one stack of 5 trials per level


def _stack(*pairs):
    return np.array([tuple(w) for w in pairs])


def test_each_level_is_drawn_with_one_svd(monkeypatch):
    # per level: the v-invertible test of the block, then the two norms
    # of rel_dist, each batched over the 5 trials
    svds = record_svds(monkeypatch)
    rep = girard.verify_girard_random(2, levels=(2, 3), trials=5, seed=0)
    assert rep.passed
    assert [m.shape for m in svds] == [(5, 2, 2)] * 3 + [(5, 3, 3)] * 3
    assert [(c.samples, c.resamples) for c in rep.checks] == [(5, 0)] * 2


def test_a_singular_draw_is_redrawn_alone(monkeypatch):
    # trial 1 is x = y = I, where v = 0 makes every coefficient of P_-1
    # singular: it alone is redrawn, after the level's block of 3 trials,
    # and trial 0 stays the witness of a failing level
    rng = np.random.default_rng(4)
    eye = np.eye(2, dtype=complex)
    good = [MatrixTuple((ginibre(2, rng), ginibre(2, rng)))
            for _ in range(3)]
    blocks = iter([_stack(good[0], MatrixTuple((eye, eye)), good[1]),
                   _stack(good[2])])
    counts = []

    def draws(count, *args):
        counts.append(count)
        return next(blocks)

    monkeypatch.setattr(girard, "random_tuples", draws)
    rep = girard.verify_girard_random(-1, levels=(2,), trials=3, tol=1e-300,
                                      seed=0)
    assert counts == [3, 1]  # 4 draws in all
    check = rep.checks[0]
    assert not check.passed and check.witness["trial"] == 0
    assert (check.samples, check.resamples) == (3, 1)
    want = [girard._residuals(-1, girard.girard_pair(-1).P, _stack(w))[0]
            for w in good]
    assert check.witness["residual"] == want[0]
    assert check.residual == max(want)


def test_domain_error_on_singular_sample(monkeypatch):
    w = MatrixTuple((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    draws = []

    def singular(count, *args):
        draws.append(count)
        return _stack(*[w] * count)  # v = 0: every coefficient is singular

    monkeypatch.setattr(girard, "random_tuples", singular)
    with pytest.raises(DomainError, match="in 50 draws"):
        girard.verify_girard_random(-1, levels=(2,), trials=1, seed=0)
    assert sum(draws) == 50


def test_expression_growth_is_linear():
    # shared sub-DAGs: node count grows linearly in the index
    def count_nodes(e):
        seen = set()
        stack = [e]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, (rx.Sum, rx.Product)):
                stack.extend(node.children)
            elif isinstance(node, (rx.ScalarMul, rx.Inverse)):
                stack.append(node.child)
        return len(seen)

    sizes = [count_nodes(girard.girard_positive(n).P) for n in (8, 16, 24)]
    assert sizes[2] - sizes[1] == sizes[1] - sizes[0]


def test_power_sums_mask_the_pairs_with_an_exactly_singular_matrix():
    # the LU of [[1, 2], [2, 4]] meets an exact zero pivot, so the matrix
    # power of the stack fails and pair 1 alone is masked
    x = np.stack((np.eye(2), [[1, 2], [2, 4]], 2 * np.eye(2))).astype(complex)
    y = 3 * np.stack([np.eye(2)] * 3).astype(complex)
    with pytest.raises(SingularityError) as info:
        girard._power_sums(x, y, -1)
    assert info.value.samples.tolist() == [False, True, False]
