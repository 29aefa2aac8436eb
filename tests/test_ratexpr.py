import gc
import time
import tracemalloc

import numpy as np
import pytest

from ncsym import girard
from ncsym import ratexpr as rx
from ncsym.errors import (AssignmentError, ExpansionError, NumericalError,
                          PreconditionError, SingularityError)
from ncsym.linalg import rel_dist
from ncsym.parsing import parse
from ncsym.words import TERM_BUDGET, FreePoly

from helpers import (from_freepoly, ginibre, ncpoly_equal, record_svds,
                     scalar_eval, well_conditioned)

A, B, G = rx.variables("alpha", "beta", "gamma")


def test_inverse_of_scaled_identity():
    e = rx.inv(B)
    got = rx.evaluate(e, {"beta": 2.0 * np.eye(2)})
    assert np.allclose(got, 0.5 * np.eye(2))


def test_scalar_anchor_evaluation():
    # (alpha - beta gamma^-1 beta)^-1 at (3, 1, 3) is 3/8
    e = rx.inv(A - rx.mul(B, rx.inv(G), B))
    got = rx.evaluate(e, {"alpha": 3.0, "beta": 1.0, "gamma": 3.0})
    assert abs(got[0, 0] - 3.0 / 8.0) < 1e-14


def test_singularity_error_carries_subexpression():
    e = rx.inv(rx.mul(rx.Scalar(0), A))
    with pytest.raises(SingularityError):
        rx.evaluate(e, {"alpha": np.eye(2)})
    # the zero scalar folds the product away, but a genuinely singular
    # child reports itself
    e2 = rx.inv(A)
    try:
        rx.evaluate(e2, {"alpha": np.zeros((2, 2))})
    except SingularityError as exc:
        assert exc.expression is e2
    else:  # pragma: no cover
        pytest.fail("expected SingularityError")


def test_non_finite_values_are_refused_not_inverted():
    x = rx.Variable("x")
    with pytest.raises(AssignmentError, match="not finite"):
        rx.evaluate(rx.inv(x), {"x": [[np.nan]]})
    # x*x overflows to inf: its inverse has no singular values to judge.
    # No RuntimeWarning comes first (tier-1 turns one into an error), and
    # the error names the node, as a SingularityError does
    with pytest.raises(NumericalError, match=r"sub-expression inv\(x\^2\)"):
        rx.evaluate(rx.inv(x * x), {"x": np.diag([1e200, 1.0])})


def test_missing_assignment_and_size_mismatch():
    with pytest.raises(AssignmentError):
        rx.evaluate(A + B, {"alpha": np.eye(2)})
    with pytest.raises(AssignmentError):
        rx.evaluate(A + B, {"alpha": np.eye(2), "beta": np.eye(3)})
    with pytest.raises(AssignmentError):
        rx.evaluate(rx.Scalar(2), {})
    assert np.allclose(rx.evaluate(rx.Scalar(2), {}, n=3), 2 * np.eye(3))


def test_eval_respects_direct_sums():
    rng = np.random.default_rng(0)
    e = rx.mul(A, rx.inv(B)) + rx.mul(B, A, B)
    for _ in range(5):
        a1 = {"alpha": ginibre(2, rng), "beta": np.eye(2) + 0.3 * ginibre(2, rng)}
        a2 = {"alpha": ginibre(3, rng), "beta": np.eye(3) + 0.3 * ginibre(3, rng)}
        joined = {k: _blockdiag(a1[k], a2[k]) for k in a1}
        got = rx.evaluate(e, joined)
        want = _blockdiag(rx.evaluate(e, a1), rx.evaluate(e, a2))
        assert rel_dist(got, want) < 1e-10


def _blockdiag(x, y):
    n, m = x.shape[0], y.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = x
    out[n:, n:] = y
    return out


def test_eval_respects_similarity():
    rng = np.random.default_rng(1)
    e = rx.mul(A, rx.inv(B), A) + rx.scale(2, B)
    for _ in range(5):
        asg = {"alpha": ginibre(3, rng),
               "beta": np.eye(3) + 0.3 * ginibre(3, rng)}
        s = well_conditioned(3, rng)
        s_inv = np.linalg.inv(s)
        conj = {k: s_inv @ v @ s for k, v in asg.items()}
        assert rel_dist(rx.evaluate(e, conj),
                        s_inv @ rx.evaluate(e, asg) @ s) < 1e-7


def test_commutative_specialization():
    rng = np.random.default_rng(2)
    e = rx.mul(A, rx.inv(B)) + rx.mul(G, G) - rx.scale(0.5, rx.inv(A))
    for _ in range(10):
        vals = {n: complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
                for n in ("alpha", "beta", "gamma")}
        got = rx.evaluate(e, {k: np.array([[v]]) for k, v in vals.items()})
        assert abs(got[0, 0] - scalar_eval(e, vals)) < 1e-12


def test_substitute_examples():
    u = rx.Variable("u")
    v = rx.Variable("v")
    e = A + B
    assert ncpoly_equal(rx.substitute(e, {"alpha": u}), u + B)
    # P2 = 2(alpha^2 + beta) becomes 2(u^2 + v^2) under the coordinate map
    p2 = rx.scale(2, rx.add(rx.mul(A, A), B))
    image = rx.substitute(p2, {"alpha": u, "beta": rx.mul(v, v),
                               "gamma": rx.mul(v, u, v)})
    want = rx.scale(2, rx.add(rx.mul(u, u), rx.mul(v, v)))
    assert ncpoly_equal(image, want)


def test_substitute_then_eval_is_composition():
    rng = np.random.default_rng(3)
    u = rx.Variable("u")
    v = rx.Variable("v")
    e = rx.mul(A, B) + rx.inv(A)
    sub = rx.substitute(e, {"alpha": rx.add(u, v), "beta": rx.mul(u, v)})
    for _ in range(5):
        um, vm = ginibre(3, rng), ginibre(3, rng)
        direct = rx.evaluate(sub, {"u": um, "v": vm})
        composed = rx.evaluate(e, {"alpha": um + vm, "beta": um @ vm})
        assert rel_dist(direct, composed) < 1e-9


def test_substitution_associativity_on_dags():
    rng = np.random.default_rng(4)
    u = rx.Variable("u")
    first = {"alpha": rx.mul(B, G)}
    second = {"beta": rx.add(u, rx.Scalar(1)), "gamma": rx.mul(u, u)}
    e = rx.add(rx.mul(A, A), rx.inv(rx.Variable("beta")))
    once = rx.substitute(rx.substitute(e, first), second)
    composed_map = {"alpha": rx.substitute(first["alpha"], second),
                    "beta": second["beta"], "gamma": second["gamma"]}
    twice = rx.substitute(e, composed_map)
    for _ in range(3):
        um = ginibre(2, rng)
        assert rel_dist(rx.evaluate(once, {"u": um}),
                        rx.evaluate(twice, {"u": um})) < 1e-10


def test_equivalence_identity():
    e1 = rx.mul(G, rx.inv(B), B)
    verdict = rx.equivalent_probabilistic(e1, G, levels=(1, 2, 3), trials=5,
                                          rng=np.random.default_rng(5))
    assert verdict.equal_on_samples


def test_equivalence_distinguishes_order():
    verdict = rx.equivalent_probabilistic(
        rx.mul(A, B), rx.mul(B, A), levels=(2,), trials=5,
        rng=np.random.default_rng(6))
    assert not verdict.equal_on_samples
    assert verdict.witness_level == 2
    assert verdict.witness is not None and verdict.residual > 1e-8


def test_equivalence_negative_power_identity():
    from ncsym.girard import girard_negative

    p_1 = girard_negative(1).P
    direct = rx.scale(2, rx.inv(A - rx.mul(B, rx.inv(G), B)))
    verdict = rx.equivalent_probabilistic(p_1, direct, levels=(1, 2, 3),
                                          trials=5,
                                          rng=np.random.default_rng(7))
    assert verdict.equal_on_samples


def test_equivalence_inconclusive_on_thin_domain():
    from ncsym.errors import InconclusiveError

    # x - x never simplifies away, so its inverse is singular everywhere
    dead = rx.inv(rx.add(A, rx.scale(-1, A)))
    with pytest.raises(InconclusiveError):
        rx.equivalent_probabilistic(dead, A, levels=(2,), trials=1,
                                    rng=np.random.default_rng(10))


def test_equivalence_walks_each_dag_once_per_level(monkeypatch):
    calls = []

    def counted(e, assignment, n=None):
        calls.append(n)
        return evaluate(e, assignment, n)

    evaluate = rx.evaluate
    monkeypatch.setattr(rx, "evaluate", counted)
    verdict = rx.equivalent_probabilistic(
        rx.mul(G, rx.inv(B), B), G, levels=(1, 2, 3), trials=5,
        rng=np.random.default_rng(5))
    assert verdict.equal_on_samples
    assert (verdict.samples, verdict.resamples) == (15, 0)
    assert calls == [1, 1, 2, 2, 3, 3]  # one stack per level and expression


def test_a_singular_draw_is_redrawn_alone(monkeypatch):
    # trial 1 draws 0 and is redrawn after the other two are drawn; the
    # witness is the first failing trial, trial 1's second draw, not
    # trial 2
    x = rx.Variable("x")
    draws = iter([1.0, 0.0, 2.0, 3.0])

    def unit_norms(shape, n, rng):
        return np.array([next(draws) * np.eye(n)
                         for _ in range(np.prod(shape, dtype=int))]
                        ).reshape(shape + (n, n))

    monkeypatch.setattr(rx, "random_unit_norms", unit_norms)
    verdict = rx.equivalent_probabilistic(rx.inv(x), x, levels=(2,),
                                          trials=3)
    assert not verdict.equal_on_samples
    assert np.array_equal(verdict.witness["x"], 3.0 * np.eye(2))
    assert verdict.residual == pytest.approx((3.0 - 1 / 3) / 4.0)
    assert (verdict.samples, verdict.resamples) == (3, 1)
    assert next(draws, None) is None


def test_each_level_is_drawn_with_one_svd(monkeypatch):
    # per level: the scaling of the block, the inverse test of beta and
    # the three norms of the residual, each batched over the 5 trials
    svds = record_svds(monkeypatch)
    verdict = rx.equivalent_probabilistic(
        rx.mul(G, rx.inv(B), B), G, levels=(1, 2, 3), trials=5,
        rng=np.random.default_rng(5))
    assert verdict.equal_on_samples
    assert [m.shape for m in svds] == [
        shape for n in (1, 2, 3)
        for shape in ((5, 2, n, n), (5, n, n), (3, 5, n, n))]


def test_a_witness_shares_no_memory_with_its_block(monkeypatch):
    blocks = []

    def recorded(*args):
        blocks.append(draw(*args))
        return blocks[-1]

    draw = rx.random_unit_norms
    monkeypatch.setattr(rx, "random_unit_norms", recorded)
    x, y = rx.variables("x", "y")
    verdict = rx.equivalent_probabilistic(rx.mul(x, y), rx.mul(y, x),
                                          levels=(2,), trials=3,
                                          rng=np.random.default_rng(6))
    assert not verdict.equal_on_samples and len(blocks) == 1
    assert np.array_equal(verdict.witness["x"], blocks[0][0, 0])
    assert np.array_equal(verdict.witness["y"], blocks[0][0, 1])
    assert not any(np.shares_memory(m, blocks[0])
                   for m in verdict.witness.values())


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"levels": ()}])
def test_equivalence_needs_a_sample(kwargs):
    # x and 2x differ, but zero samples cannot tell them apart
    x = rx.Variable("x")
    with pytest.raises(PreconditionError):
        rx.equivalent_probabilistic(x, 2 * x, **kwargs)


@pytest.mark.parametrize("levels, trials", [
    ((1,), rx.SAMPLE_BUDGET + 1), ((1, 2), rx.SAMPLE_BUDGET // 2 + 1),
    ((1, 2, 3), 10 ** 9)])
def test_equivalence_over_the_sample_budget_draws_nothing(levels, trials,
                                                          monkeypatch):
    # a level draws all its trials at once: the budget is checked first
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(rx, "random_unit_norms", no_draw)
    x = rx.Variable("x")
    with pytest.raises(PreconditionError, match="SAMPLE_BUDGET"):
        rx.equivalent_probabilistic(x, 2 * x, levels=levels, trials=trials)


def test_expansion_cancels_inverse_pairs():
    e = rx.mul(G, rx.inv(B), B)
    assert rx.as_ncpoly(e) == {(("gamma", 1),): 1.0}
    with pytest.raises(ExpansionError, match="inverse of a compound"):
        rx.as_ncpoly(rx.inv(rx.add(A, B)))


def test_expansion_is_refused_above_the_term_budget():
    # the bound multiplies over products: (x + y)^18 may have 2^18 terms,
    # and (x + y)^19 twice the budget
    x, y = rx.variables("x", "y")
    assert len(rx.as_ncpoly(rx.power(rx.Sum([x, y]), 18))) == 2 ** 18
    with pytest.raises(ExpansionError, match=f"TERM_BUDGET = {TERM_BUDGET}"):
        rx.as_ncpoly(rx.power(rx.Sum([x, y]), 19))
    with pytest.raises(ExpansionError, match="TERM_BUDGET"):
        parse("(x+y)^40")
    with pytest.raises(ExpansionError, match="TERM_BUDGET"):
        girard.table_expression(40)


def test_a_sum_bounds_its_terms_once_per_repeated_term():
    # children that expand to one word set count once: a variable, a
    # scalar, or one sub-expression up to a scalar factor
    x, y = rx.variables("x", "y")
    assert parse("(x - x + y)^12") == parse("y^12")
    assert parse("(x + x)^19") == 2 ** 19 * parse("x^19")
    assert rx.as_ncpoly(rx.power(rx.Sum([x, x]), 19)) == {
        (("x", 1),) * 19: 2.0 ** 19}
    s = rx.mul(x, y)
    assert rx.as_ncpoly(rx.power(rx.add(s, rx.scale(3, s), 1, 2), 17)) \
        == rx.as_ncpoly(rx.power(rx.add(rx.scale(4, s), 3), 17))
    start = time.perf_counter()
    with pytest.raises(ExpansionError, match="TERM_BUDGET"):
        parse("(x+y)^19")
    with pytest.raises(ExpansionError, match="TERM_BUDGET"):
        parse("(x + y + x - y)^19")  # cancellation is not foreseen
    assert time.perf_counter() - start < 0.5


def test_a_power_is_bounded_before_it_is_built():
    # the flat product counts |k| times the factors of its base, under a
    # scalar factor too; the count, not the list, meets the budget
    x, y = rx.variables("x", "y")
    xy = rx.mul(x, y)
    assert len(rx.power(xy, TERM_BUDGET // 2).children) == TERM_BUDGET
    for base, k in ((x, TERM_BUDGET + 1), (xy, TERM_BUDGET // 2 + 1),
                    (rx.scale(3, xy), -(TERM_BUDGET // 2 + 1)),
                    (rx.Scalar(2.5), 10 ** 308)):
        tracemalloc.start()
        try:
            with pytest.raises(ExpansionError,
                               match=f"TERM_BUDGET = {TERM_BUDGET} factors"):
                rx.power(base, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


def test_text_is_refused_above_the_text_budget():
    # the tree text of P_-n doubles with each index: 10 MB at -17 fits,
    # and from -18 on it is over the budget
    with pytest.raises(PreconditionError, match="TEXT_BUDGET"):
        rx.to_text(girard.girard_pair(-19).P)


def test_from_freepoly_matches_evaluation():
    rng = np.random.default_rng(8)
    p = FreePoly.word((0, 1, 0), 2, 2.0) + FreePoly.word((1,), 2, -3.0)
    e = from_freepoly(p, ("x", "y"))
    from ncsym.words import MatrixTuple

    t = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
    assert rel_dist(rx.evaluate(e, {"x": t[0], "y": t[1]}),
                    p.evaluate(t)) < 1e-12


def test_text_round_trip():
    from ncsym.parsing import parse

    exprs = [rx.scale(2, rx.inv(A - rx.mul(B, rx.inv(G), B))),
             rx.add(rx.mul(A, B), rx.scale(-1, G)),
             rx.power(A, 3) + rx.inv(B)]
    for e in exprs:
        text = rx.to_text(e)
        again = parse(text)
        try:
            same = ncpoly_equal(e, again)
        except ExpansionError:
            same = _numeric_equal(e, again)
        assert same


def _numeric_equal(e1, e2):
    verdict = rx.equivalent_probabilistic(e1, e2, levels=(1, 2), trials=4,
                                          rng=np.random.default_rng(9))
    return verdict.equal_on_samples


def test_walks_leave_no_reference_cycles():
    # every walk is a loop over one post-order list: nothing it builds is
    # left for the cycle collector
    from ncsym.girard import girard_positive
    from ncsym.parsing import parse

    p = girard_positive(10).P
    point = {name: well_conditioned(3, np.random.default_rng(i))
             for i, name in enumerate(("alpha", "beta", "gamma"))}
    gc.collect()
    gc.disable()
    try:
        rx.as_ncpoly(p)
        rx.evaluate(p, point)
        rx.substitute(p, {"alpha": G})
        rx.to_text(p)
        for text in ("2*inv(alpha - beta*inv(gamma)*beta)",
                     "3*x*y - x*(2*y - x)^2", "2*U - 3*M0*M2"):
            parse(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deep_dag_walks_without_recursion():
    x, y = rx.variables("x", "y")
    e = x
    for _ in range(3000):
        e = rx.inv(1 + y * e)
    half = 0.5 * np.eye(2)
    # f = 1/(1 + f/2) has the fixed point sqrt(3) - 1
    value = rx.evaluate(e, {"x": half, "y": half})
    assert np.allclose(value, (np.sqrt(3) - 1) * np.eye(2))
    assert rx.free_variables(e) == {"x", "y"}
    assert rx.free_variables(rx.substitute(e, {"x": y})) == {"y"}
    # each rendered child is dropped after its last parent: holding them
    # all would take 150 MB for this 33 kB text
    tracemalloc.start()
    try:
        text = rx.to_text(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("inv(") == 3000
    assert peak < 16e6
    with pytest.raises(ExpansionError):
        rx.as_ncpoly(e)


def test_expansion_cancels_inverse_pairs_at_every_seam():
    e = rx.mul(A, B, rx.inv(rx.mul(A, B)), rx.inv(G), G, A)
    assert rx.as_ncpoly(e) == {(("alpha", 1),): 1.0}
    e = rx.mul(rx.add(A, rx.inv(B)), rx.add(B, rx.inv(A)))
    assert rx.as_ncpoly(e) == {(("alpha", 1), ("beta", 1)): 1.0, (): 2.0,
                               (("beta", -1), ("alpha", -1)): 1.0}
