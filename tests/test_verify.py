import json

import numpy as np
import pytest

from ncsym import symbasis, verify
from ncsym.errors import ContradictionError, EvaluatorError, PreconditionError
from ncsym.linalg import random_tuple
from ncsym.report import Report
from ncsym.words import FreePoly, MatrixTuple

from helpers import ginibre, random_poly

X = FreePoly.letter(0, 2)
Y = FreePoly.letter(1, 2)


def _samples(rng, levels=(2, 3, 2)):
    return [MatrixTuple((ginibre(n, rng), ginibre(n, rng))) for n in levels]


def test_polynomial_evaluation_passes_all_axioms():
    rng = np.random.default_rng(0)
    p = random_poly(rng)
    report = verify.check_nc_properties(p.evaluate, _samples(rng), rng=rng)
    assert report.passed, report.failures()


def test_each_sampled_value_is_computed_once():
    # f at each sample, each pair's direct sum, each similarity orbit
    # point and each x (+) x: the direct sums serve two checks
    rng = np.random.default_rng(0)
    calls = []

    def counted(t):
        calls.append(t.n)
        return X.evaluate(t)

    verify.check_nc_properties(counted, _samples(rng), rng=rng)
    assert len(calls) == 4 * 3


def test_each_symbasis_polynomial_is_decomposed_once(monkeypatch):
    # the round trip and the evaluation through pi share one decomposition,
    # and the decomposition and the round trip one chart change
    calls, charts = [], []
    decompose, to_uv = symbasis.decompose_symmetric, FreePoly.to_uv

    def counted(p):
        calls.append(p)
        return decompose(p)

    def counted_chart(p):
        charts.append(p)
        return to_uv(p)

    monkeypatch.setattr(verify, "decompose_symmetric", counted)
    monkeypatch.setattr(symbasis, "decompose_symmetric", counted)
    monkeypatch.setattr(FreePoly, "to_uv", counted_chart)
    report = verify.run_suite("symbasis", seed=0)
    assert report.passed
    assert len(calls) == len(charts) == 25


def test_conjugation_map_fails_similarity_with_witness():
    rng = np.random.default_rng(1)
    report = verify.check_nc_properties(lambda t: np.conj(t[0]),
                                        _samples(rng), rng=rng)
    sim = next(c for c in report.checks if c.name == "similarity")
    assert not sim.passed and sim.residual > 1e-6


def _truncating(t):  # graded but not direct-sum compatible
    out = np.zeros((t.n, t.n), dtype=complex)
    out[0, 0] = t[0][0, 0]
    return out


def test_truncation_map_fails_direct_sums_only():
    rng = np.random.default_rng(2)
    report = verify.check_nc_properties(_truncating, _samples(rng), rng=rng)
    names = {c.name: c.passed for c in report.checks}
    assert names["graded"]
    assert not names["direct-sum"]


def test_one_sample_is_paired_with_itself():
    # with no pairs, direct-sum and intertwining used to pass unexamined
    rng = np.random.default_rng(0)
    sample = random_tuple(2, 2, (), rng)
    report = verify.check_nc_properties(_truncating, [sample], rng=rng)
    names = {c.name: c.passed for c in report.checks}
    assert names["graded"]
    assert not names["direct-sum"]
    assert not names["intertwining"]


def test_evaluator_errors_carry_the_sample():
    rng = np.random.default_rng(3)

    def broken(t):
        raise RuntimeError("boom")

    with pytest.raises(EvaluatorError) as info:
        verify.check_nc_properties(broken, _samples(rng), rng=rng)
    assert info.value.sample is not None


def _diag_tuple(*vals):
    return MatrixTuple((np.diag(np.array(vals, dtype=complex)),))


def test_no_samples_is_no_verdict():
    # with nothing sampled every check would pass vacuously
    with pytest.raises(PreconditionError):
        verify.check_nc_properties(lambda t: t[0], [])


def test_hat_domain_examples():
    d321 = _diag_tuple(3.0, 2.0, 1.0)
    d3 = _diag_tuple(3.0)
    assert verify.hat_domain([d321]) == []
    got = verify.hat_domain([d321, d3])
    assert len(got) == 1 and np.allclose(got[0][0], np.diag([2.0, 1.0]))

    rng = np.random.default_rng(4)
    x = MatrixTuple((ginibre(2, rng),))
    from ncsym.linalg import direct_sum

    got2 = verify.hat_domain([x, direct_sum(x, x)])
    assert len(got2) == 1 and got2[0].close_to(x)


def test_hat_domain_of_sum_closed_set_contains_it():
    rng = np.random.default_rng(5)
    from ncsym.linalg import direct_sum

    base = [MatrixTuple((ginibre(1, rng),)), MatrixTuple((ginibre(2, rng),))]
    closed = list(base)
    for a in base:
        for b in base:
            closed.append(direct_sum(a, b))
    hat = verify.hat_domain(closed)
    for b in base:
        assert any(h.close_to(b) for h in hat)


def test_check_anc_reproduces_diagonal_examples():
    report = verify.anc_example_suite(np.random.default_rng(6))
    assert report.passed, report.failures()


def test_check_anc_contradiction():
    # one point decomposes two ways with inconsistent lower-right blocks
    d1 = _diag_tuple(3.0)
    z = _diag_tuple(3.0, 3.0)
    # f(3) = 1 but f(3 (+) 3) = diag(1, 2): second block forces f_hat(3) = 2,
    # while 3 (+) 3 also splits the other way... build a true contradiction
    # with two distinct parents of the same tail
    d2 = _diag_tuple(5.0)
    z2 = MatrixTuple((np.diag([5.0, 7.0]).astype(complex),))
    zz = MatrixTuple((np.diag([5.0, 7.0, 7.0]).astype(complex),))
    f = verify.FiniteGradedMap(
        [d2, z2, zz],
        [np.array([[1.0]]), np.diag([1.0, 2.0]),
         np.diag([1.0, 2.0, 3.0])])
    # 5 (+) (7) gives f_hat(7) = 2; (5 (+) 7) (+) 7 gives f_hat(7) = 3
    with pytest.raises(ContradictionError):
        verify.check_anc(f)
    del d1, z


def test_check_anc_flags_offdiagonal_blocks():
    d1 = _diag_tuple(5.0)
    z = MatrixTuple((np.diag([5.0, 7.0]).astype(complex),))
    bad_value = np.array([[1.0, 0.5], [0.0, 2.0]])
    f = verify.FiniteGradedMap([d1, z], [np.array([[1.0]]), bad_value])
    report = verify.check_anc(f)
    ext = next(c for c in report.checks if c.name == "companion-extraction")
    assert not ext.passed


def test_check_anc_names_the_first_failing_pair():
    # diag(1, 2) and diag(2, 1) are similar, so f must swap its entries too;
    # both pairs (0, 1) and (1, 0) fail, and the first is named
    f = verify.FiniteGradedMap([_diag_tuple(1.0, 2.0), _diag_tuple(2.0, 1.0)],
                               [np.diag([5.0, 6.0]), np.diag([5.0, 6.0])])
    sim = verify.check_anc(f).checks[0]
    assert sim.name == "similarity-preserving" and not sim.passed
    assert sim.witness["pair"] == [0, 1]


def test_check_anc_splits_blocks_at_its_tolerance():
    # at tol 1e-8, z = 3 (+) 2 up to a 1e-10 entry, and f(z)'s top block 7
    # differs from f(3) = 5 by 2 / (1 + 7)
    x = _diag_tuple(3.0)
    z = MatrixTuple((np.array([[3.0, 1e-10], [0.0, 2.0]], dtype=complex),))
    f = verify.FiniteGradedMap([x, z],
                               [np.array([[5.0]]), np.diag([7.0, 6.0])])
    report = verify.check_anc(f, tol=1e-8)
    ext = next(c for c in report.checks if c.name == "companion-extraction")
    assert not ext.passed
    assert ext.witness == {"pair": [0, 1], "residual": 0.25}


def test_check_anc_refuses_an_empty_domain():
    # with nothing sampled both checks would pass vacuously
    with pytest.raises(PreconditionError, match="no samples"):
        verify.check_anc(verify.FiniteGradedMap([], []))


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_check_anc_refuses_a_tol_that_is_not_finite_and_positive(tol):
    # a negative bound splits no block, so the extraction would pass empty
    f = verify.FiniteGradedMap(
        [_diag_tuple(3.0), MatrixTuple((np.diag([3.0, 2.0]),))],
        [np.array([[5.0]]), np.diag([7.0, 6.0])])
    with pytest.raises(PreconditionError, match="tol"):
        verify.check_anc(f, tol=tol)


def test_add_worst_fails_a_nan_and_names_it_with_a_null_residual():
    report = Report()
    check = report.add_worst("x", [({"trial": 0}, 1e-20),
                                   ({"trial": 1}, float("nan"))], 1e-8)
    assert not check.passed and np.isnan(check.residual)
    assert check.witness == {"trial": 1, "residual": None}
    json.dumps(report.to_json_dict(), allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_add_worst_keeps_a_non_finite_worst_residual(bad):
    # a later finite residual must not replace it, and strict JSON holds it
    # as null
    report = Report()
    check = report.add_worst("x", [({"t": 0}, bad), ({"t": 1}, 1e-20),
                                   ({"t": 2}, 2.0)], 1e-8)
    assert not check.passed and not np.isfinite(check.residual)
    assert check.witness == {"t": 0, "residual": None}
    out = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
    assert out["checks"][0]["residual"] is None


def test_sampled_checks_count_their_samples_outside_the_json():
    report = Report()
    check = report.add_worst("x", [({"t": t}, 0.0) for t in range(3)], 1e-8)
    assert (check.samples, check.resamples) == (3, 0)
    assert report.add_worst("empty", [], 1e-8).samples == 0
    suites = verify.run_suite("girard", seed=2), verify.run_suite("symbasis",
                                                                 seed=2)
    merged = [c for rep in suites for c in rep.checks]
    assert [c.samples for c in merged] == [5] * 14 + [25, 25]
    assert all(c.resamples == 0 for c in merged)
    assert all(set(c.to_json_dict()) == {"name", "pass", "residual",
                                         "witness-ref"} for c in merged)


def test_finite_graded_map_validates_shapes():
    with pytest.raises(ValueError):
        verify.FiniteGradedMap([_diag_tuple(1.0)], [np.eye(2)])


def test_pascoe_counterexample_numbers():
    rep = verify.pascoe_counterexample(r=0.1, scale=0.4)
    assert rep.passed, rep.failures()
    entry = next(c for c in rep.checks if c.name == "entry-1-4-discrepancy")
    assert entry.witness["expected"] == pytest.approx(0.0512)

    degenerate = verify.pascoe_counterexample(r=0.0, scale=0.4)
    e0 = next(c for c in degenerate.checks
              if c.name == "entry-1-4-discrepancy")
    assert e0.witness["expected"] == 0.0  # w = W: discrepancy collapses

    with pytest.raises(PreconditionError) as info:
        verify.pascoe_counterexample(r=0.5, scale=0.95)  # not contractions
    assert info.type is PreconditionError


def test_run_suites_all_pass():
    for suite in ("nc", "anc", "girard", "pascoe", "symbasis"):
        rep = verify.run_suite(suite, seed=11)
        assert rep.passed, (suite, rep.failures())
