import itertools
import time
import warnings

import numpy as np
import pytest

from ncsym import funcalc, linalg, sqrtlib
from ncsym.errors import (ClusteringError, NumericalError, PreconditionError,
                          UnsupportedError)
from ncsym.funcalc import BranchSpec, sqrt_branch_S
from ncsym.geometry import propose_simple_set
from ncsym.linalg import block_diag, op_norm, op_norms, rel_dist

from helpers import (cluster_centers_off_cut, clustered_matrix,
                     commutator_norm, record_eigensolves, solve_counts,
                     thirty_distinct, well_conditioned)


def test_existence_examples():
    assert not sqrtlib.sqrt_exists(np.array([[0, 1], [0, 0]], dtype=complex))
    assert sqrtlib.sqrt_exists(np.zeros((3, 3)))
    rng = np.random.default_rng(0)
    m = np.eye(3) + 0.4 * (rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))
    assert sqrtlib.sqrt_exists(m)  # invertible: no zero eigenvalue at all
    # invertible, though x @ x loses numerical rank
    assert sqrtlib.sqrt_exists(np.diag([1.0, 1e-6]))


_NILPOTENT_PLUS_ZERO = np.diag([1.0, 0.0], k=1).astype(complex)


@pytest.mark.parametrize("x, exists", [
    (np.array([[1e200]]), True),
    (np.array([[1e-200]]), True),
    (np.diag([1e160, 2e160]), True),
    (1e200 * _NILPOTENT_PLUS_ZERO, False),
    (1e-200 * _NILPOTENT_PLUS_ZERO, False),
    (np.array([[-5e-324 - 5e-324j]]), True),
    (_NILPOTENT_PLUS_ZERO, False),
])
def test_existence_does_not_depend_on_scale(x, exists):
    # x @ x over- or underflows at these scales; the rank test runs on
    # x / ||x|| instead
    assert sqrtlib.sqrt_exists(x) is exists


def _jordan_forms(max_size, eigs=(0, 1)):
    def parts(n, most):
        if n == 0:
            yield ()
            return
        for p in range(min(n, most), 0, -1):
            for rest in parts(n - p, p):
                yield (p,) + rest

    for total in range(1, max_size + 1):
        for partition in parts(total, total):
            seen = set()
            for labels in itertools.product(eigs, repeat=len(partition)):
                key = tuple(sorted(zip(partition, labels)))
                if key in seen:
                    continue
                seen.add(key)
                blocks = []
                for size, lam in zip(partition, labels):
                    b = np.eye(size, k=1) + lam * np.eye(size)
                    blocks.append(b)
                n = sum(partition)
                m = np.zeros((n, n))
                at = 0
                for b in blocks:
                    s = b.shape[0]
                    m[at:at + s, at:at + s] = b
                    at += s
                yield m.astype(complex), key


def _solvable_in_alg_symbolic(x):
    """Independent oracle: Groebner-basis solvability of y^2 = x over
    y in span{I, x, ..., x^(n-1)} with exact rational arithmetic."""
    import sympy

    n = x.shape[0]
    xs = sympy.Matrix(n, n, [sympy.Rational(int(v.real)) for v in x.ravel()])
    cs = sympy.symbols(f"c0:{n}")
    y = sympy.zeros(n, n)
    p = sympy.eye(n)
    for c in cs:
        y = y + c * p
        p = p * xs
    eqs = [e for e in (y * y - xs) if e != 0]
    if not eqs:
        return True
    gb = sympy.groebner(eqs, *cs, order="grevlex", domain="QQ")
    return sympy.S.One not in gb.exprs


def test_existence_matches_symbolic_oracle_on_small_jordan_forms():
    checked = 0
    for m, _key in _jordan_forms(4):
        assert sqrtlib.sqrt_exists(m) == _solvable_in_alg_symbolic(m), \
            f"disagreement on Jordan structure {_key}"
        checked += 1
    assert checked == 37


def test_identity_has_two_roots():
    rs = sqrtlib.all_square_roots(np.eye(2, dtype=complex))
    assert rs.k == 1 and len(rs) == 2
    mats = sorted(rs.roots, key=lambda r: r[0, 0].real)
    assert np.allclose(mats[0], -np.eye(2))
    assert np.allclose(mats[1], np.eye(2))


def test_diag_1_4_has_four_roots():
    rs = sqrtlib.all_square_roots(np.diag([1.0, 4.0]).astype(complex))
    assert rs.k == 2 and len(rs) == 4
    got = {(round(r[0, 0].real, 8), round(r[1, 1].real, 8)) for r in rs.roots}
    assert got == {(1, 2), (1, -2), (-1, 2), (-1, -2)}


def test_jordan_block_roots_by_hand():
    # y = aI + b(x - I) with y^2 = x forces a = +-1, b = 1/(2a)
    x = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    rs = sqrtlib.all_square_roots(x)
    assert rs.k == 1 and len(rs) == 2
    for root in rs.roots:
        assert rel_dist(root @ root, x) < 1e-10
    traces = sorted(np.trace(r).real for r in rs.roots)
    assert np.allclose(traces, [-2.0, 2.0])
    by_hand = {1.0: np.array([[1.0, 0.5], [0.0, 1.0]]),
               -1.0: np.array([[-1.0, -0.5], [0.0, -1.0]])}
    for root in rs.roots:
        key = round(root[0, 0].real, 8)
        assert np.allclose(root, by_hand[key])


def test_enumeration_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(1)
    for trial in range(8):
        k = int(rng.integers(1, 5))
        centers = cluster_centers_off_cut(rng, k)
        sizes = [int(rng.integers(1, 3)) for _ in range(k)]
        x, eigs, labels, p = clustered_matrix(rng, centers, sizes, 0.02)
        rs = sqrtlib.all_square_roots(x, gap=0.5)
        assert rs.k == k and len(rs) == 2 ** k
        p_inv = np.linalg.inv(p)
        oracle = []
        for tau in itertools.product((1, -1), repeat=k):
            d = np.diag([tau[labels[i]] * np.sqrt(eigs[i])
                         for i in range(len(eigs))])
            oracle.append(p @ d @ p_inv)
        _assert_same_root_sets(rs.roots, oracle)


def _assert_same_root_sets(got, expected, tol=1e-7):
    scale = 1.0 + max(op_norm(r) for r in expected)
    taken = set()
    for e in expected:
        dists = [op_norm(e - g) / scale for g in got]
        j = int(np.argmin(dists))
        assert dists[j] <= tol, f"unmatched oracle root (gap {min(dists):.2e})"
        assert j not in taken, "two oracle roots matched one output"
        taken.add(j)
    assert len(taken) == len(got)


@pytest.mark.parametrize("zeros", [0, 2])
def test_roots_are_the_branch_roots_in_sign_order(zeros):
    # root i is sqrt_branch_S for sign pattern i; a semisimple 0-block
    # maps to 0
    rng = np.random.default_rng(4)
    for k in range(1, 6):
        centers = cluster_centers_off_cut(rng, k)
        sizes = [int(rng.integers(1, 3)) for _ in range(k)]
        nonzero, _, _, _ = clustered_matrix(rng, centers, sizes, 0.02)
        n = nonzero.shape[0]
        p = well_conditioned(n + zeros, rng)
        p_inv = np.linalg.inv(p)
        x = p @ block_diag(nonzero, np.zeros((zeros, zeros))) @ p_inv
        rs = sqrtlib.all_square_roots(x, gap=0.5)
        assert rs.extension == bool(zeros) and len(rs) == 2 ** k
        for tau, root in zip(itertools.product((1, -1), repeat=k), rs.roots):
            branch = sqrt_branch_S(nonzero, BranchSpec.for_matrix(
                nonzero, tau, gap=0.5))
            want = p @ block_diag(branch, np.zeros((zeros, zeros))) @ p_inv
            assert rel_dist(root, want) <= 1e-10
        assert rs.merge_rtol == sqrtlib.MERGE_LADDER[0]
        assert rs.distinct_margin > 0 and 0 <= rs.margin_disc < k
        assert rs.distinct_margin <= min(
            op_norm(a - b) for a, b in itertools.combinations(rs.roots, 2))
        data = rs.to_json_dict()
        assert data["merge_rtol"] == rs.merge_rtol
        assert data["distinct_margin"] == rs.distinct_margin


@pytest.mark.parametrize("t, certified", [(1e5, True), (1e9, False)])
def test_far_from_normal_roots_are_enumerated(t, certified):
    # ||E_1|| is about t/3, so ||S_tau|| and the refusal threshold grow
    # with t while two roots are 2 (or far more) apart; past the reach of
    # the certificate the roots are measured pair by pair
    x = np.array([[1.0, t], [0.0, 4.0]], dtype=complex)
    rs = sqrtlib.all_square_roots(x)
    assert len(rs) == 4
    for root in rs.roots:
        assert rel_dist(root @ root, x) <= 1e-12
    distance = min(op_norm(a - b)
                   for a, b in itertools.combinations(rs.roots, 2))
    assert (rs.margin_disc is not None) == certified
    assert rs.distinct_margin <= distance * (1 + 1e-12)
    assert rs.distinct_margin > (1.0 if certified else 0.5 * t)


def test_interpolations_grow_with_k_not_2_pow_k(monkeypatch):
    # k pieces in one call per rung used, for all 2^k roots; x is solved
    # for its spectrum once, wherever that happens, and the certified
    # checks take one 2-norm, ||x||: the square bound and the
    # distinctness margin read the table of piece products, and the
    # alg(x) residuals project the pieces
    germs, svds = [], []
    batched = funcalc.matrix_function
    one, many = linalg.op_norm, linalg.op_norms

    def counting_norm(norm, size):
        def counted(a):
            svds.append(size(a))
            return norm(a)
        return counted

    def counting(x, domain, const, root, *args, **kwargs):
        germs.append(np.broadcast(const, root).shape[0])
        return batched(x, domain, const, root, *args, **kwargs)

    monkeypatch.setattr(funcalc, "matrix_function", counting)
    monkeypatch.setattr(sqrtlib, "matrix_function", counting)
    eigensolves = record_eigensolves(monkeypatch)
    for module in (sqrtlib, linalg):
        monkeypatch.setattr(module, "op_norm", counting_norm(one, lambda a: 1))
        monkeypatch.setattr(module, "op_norms", counting_norm(many, len))
    rng = np.random.default_rng(5)
    k = 8
    x, _, _, _ = clustered_matrix(
        rng, 3.0 * np.exp(1j * np.linspace(-2.4, 2.4, k)), [1] * k, 0.02)
    assert len(sqrtlib.all_square_roots(x, gap=0.3)) == 2 ** k
    assert germs == [k]  # the pieces of one rung
    assert len(eigensolves) == 1 and solve_counts(eigensolves, x) == (1, 0)
    assert svds == [1]


def _certificate_inputs():
    for k in range(1, 9):
        rng = np.random.default_rng(10 + k)
        x, _, _, _ = clustered_matrix(
            rng, 3.0 * np.exp(1j * np.linspace(-2.4, 2.4, k)), [2] * k, 0.02)
        yield pytest.param(x, 0.3, id=f"k{k}")
    x, _, _, _ = clustered_matrix(np.random.default_rng(3), [2.0, 3j, 0.0],
                                  [2, 1, 2], 0.0)
    yield pytest.param(x, None, id="zero-block")
    for t in (1e5, 1e9):
        yield pytest.param(np.array([[1.0, t], [0.0, 4.0]], dtype=complex),
                           None, id=f"far-from-normal-{t:g}")
    yield pytest.param(np.diag([1e300, -1e300]).astype(complex), None,
                       id="huge")


@pytest.mark.parametrize("x, gap", list(_certificate_inputs()))
def test_square_certificate_bounds_the_exact_residuals(x, gap, monkeypatch):
    # enumeration's square certificate is the last entry of the table of
    # piece products that signed_sums takes
    certificate = sqrtlib._piece_table
    bounds = []

    def recorded(pieces, base):
        table = certificate(pieces, base)
        bounds.append(table[-1])
        return table

    def outcome(tol, bound):
        monkeypatch.setattr(sqrtlib, "_piece_table", bound)
        try:
            return sqrtlib.all_square_roots(x, tol=tol, gap=gap)
        except NumericalError as exc:
            return str(exc)

    def same(a, b):
        if isinstance(a, str) or isinstance(b, str):
            return a == b
        return (a.merge_rtol == b.merge_rtol
                and np.array_equal(np.stack(a.roots), np.stack(b.roots)))

    def exact_path(pieces, base):
        return certificate(pieces, base)[:-1] + (np.inf,)

    rs = outcome(sqrtlib.SQ_TOL, recorded)
    roots = np.stack(rs.roots)
    exact = op_norms(roots @ roots - x) / (1.0 + op_norm(x))
    # the bound holds in exact arithmetic; each side carries rounding
    assert bounds[-1] >= exact.max() * (1.0 - 4.0 * np.finfo(float).eps)
    assert rs.square_residuals == (bounds[-1],) * len(roots)
    assert same(rs, outcome(sqrtlib.SQ_TOL, exact_path))
    # a tol that only the exact residuals meet: the fallback decides, with
    # the same roots and rung.  A tol must be positive: where both are 0
    # (far-from-normal-1e+09), the least positive double stands in for 0
    least = np.nextafter(0.0, 1.0)
    mid = max(0.5 * (exact.max() + bounds[-1]), least)
    fallback = outcome(mid, certificate)
    assert same(fallback, rs)
    assert fallback.square_residuals == outcome(mid, exact_path)\
        .square_residuals
    # a tol below them: the same root is named in the same refusal, or a
    # later rung passes on both paths
    low = max(0.5 * exact.min(), least)
    assert same(outcome(low, certificate), outcome(low, exact_path))


def _margin_inputs():
    rng = np.random.default_rng(26)
    for zeros in (0, 2):
        for k in range(1, 7):
            centers = cluster_centers_off_cut(rng, k)
            sizes = [int(rng.integers(1, 4)) for _ in range(k)]
            nonzero, _, _, _ = clustered_matrix(rng, centers, sizes, 0.02)
            n = nonzero.shape[0]
            p = well_conditioned(n + zeros, rng)
            x = p @ block_diag(nonzero, np.zeros((zeros, zeros))) \
                @ np.linalg.inv(p)
            yield pytest.param(x, 0.5, id=f"k{k}-zeros{zeros}")
    for t in (1e5, 1e9):
        yield pytest.param(np.array([[1.0, t], [0.0, 4.0]], dtype=complex),
                           None, id=f"far-from-normal-{t:g}")
    yield pytest.param(np.diag([1e300, -1e300]).astype(complex), None,
                       id="huge")


@pytest.mark.parametrize("x, gap", list(_margin_inputs()))
def test_certificates_from_the_pieces_hold_root_by_root(x, gap):
    # the margin read off the piece products is below every pairwise
    # distance, and the alg(x) residuals combined from the projected
    # pieces match each root's own projection
    rs = sqrtlib.all_square_roots(x, gap=gap)
    roots = np.stack(rs.roots)
    distance = min(op_norms(roots[i + 1:] - roots[i]).min()
                   for i in range(len(roots) - 1))
    assert 0 < rs.distinct_margin <= distance * (1 + 1e-12)
    own = linalg.alg_residual(roots, x)
    assert np.abs(np.array(rs.alg_residuals) - own).max() <= 1e-15


def test_distinctness_certificate_measures_only_when_the_bound_fails():
    def certify(pieces, what="enumerated roots"):
        x = np.diag([4.0, 1.0])  # ||x|| sets the scaling of the table
        table, sums, _ = sqrtlib.signed_sums(np.stack(pieces), x, 1e-8)
        return sqrtlib.certify_distinct(table, sums, 1e-8, what)

    # the sums are 2 apart where they differ at piece 1, which the bound
    # 2 (||R_1^2||_- - 0) / ||R_1||_F says exactly
    assert certify([np.diag([2.0, 0.0]), np.diag([0.0, 1.0])]) == (2.0, 1)
    # R_0^2 = 0 leaves no bound at piece 0: the distance is measured
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert certify([nil, np.diag([0.0, 2.0])]) == (
        pytest.approx(2.0, rel=1e-15), None)
    with pytest.raises(NumericalError, match="fiber candidates coincide"):
        certify([np.diag([1.0, 2.0]), 1e-12 * np.eye(2)],
                what="fiber candidates")


def test_stack_budget_compares_exponents():
    # 2^25 matrices of one entry fill the budget exactly; a k of 10^9
    # is refused without building 2^k
    sqrtlib.check_stack(25, 1, "roots")
    start = time.perf_counter()
    for k, n in ((26, 1), (24, 2), (10 ** 9, 1)):
        with pytest.raises(PreconditionError, match="budget"):
            sqrtlib.check_stack(k, n, "roots")
    assert time.perf_counter() - start < 0.5


def test_roots_commute_with_base():
    rng = np.random.default_rng(2)
    centers = cluster_centers_off_cut(rng, 3)
    x, _, _, _ = clustered_matrix(rng, centers, [2, 1, 2], 0.02)
    rs = sqrtlib.all_square_roots(x, gap=0.5)
    for root in rs.roots:
        assert commutator_norm(root, x) <= 1e-8 * op_norm(x)


def test_semisimple_zero_extension(monkeypatch):
    solves = record_eigensolves(monkeypatch)
    x = np.diag([0.0, 0.0, 4.0]).astype(complex)
    rs = sqrtlib.all_square_roots(x)
    assert rs.extension and rs.k == 1 and len(rs) == 2
    # the rank test past the zero gate reuses the one solve of x
    assert len(solves) == 1 and solve_counts(solves, x) == (1, 0)
    got = sorted(round(r[2, 2].real, 8) for r in rs.roots)
    assert got == [-2.0, 2.0]
    for r in rs.roots:
        assert np.abs(r[:2, :2]).max() < 1e-8
        assert rel_dist(r @ r, x) < 1e-8


def test_zero_extension_refuses_uncoverable_spread():
    # the merged nonzero cluster fits its own disc, but adding a disc at 0
    # shrinks the common radius below the cluster spread
    x = np.diag([0.0, 0.7007, 2.0993]).astype(complex)
    with pytest.raises(ClusteringError):
        sqrtlib.all_square_roots(x, gap=1.5)
    # finer clustering gives two nonzero discs and 4 roots
    assert len(sqrtlib.all_square_roots(x, gap=0.5)) == 4


def test_zero_matrix_has_exactly_its_zero_root():
    rs = sqrtlib.all_square_roots(np.zeros((3, 3), dtype=complex))
    assert len(rs) == 1 and rs.k == 0 and rs.extension
    assert np.allclose(rs.roots[0], 0.0)


def test_defective_zero_is_refused():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0  # nilpotent cell of size 2 plus a semisimple 0
    with pytest.raises(UnsupportedError):
        sqrtlib.all_square_roots(bad)


def test_defective_zero_just_above_the_zero_threshold_is_refused():
    # the perturbed nilpotent block has eigenvalues +-1e-7, above the zero
    # threshold but within reach of the rank test; x is numerically
    # singular and its kernel grows under squaring, so it has no roots
    bad = np.diag([0.0, 0.0, 2.0, 3.0]).astype(complex)
    bad[0, 1], bad[1, 0] = 1.0, 1e-14
    zero_thr = sqrtlib.ZERO_EIG_RTOL * (1.0 + 3.0)
    assert np.abs(np.linalg.eigvals(bad)).min() > zero_thr
    assert not sqrtlib.sqrt_exists(bad)
    with pytest.raises(UnsupportedError):
        sqrtlib.all_square_roots(bad)


def test_ill_conditioned_without_a_zero_eigenvalue_is_enumerated():
    # cond(x) is about 1e12, so x is numerically singular, but its
    # eigenvalues are +-1: no zero block, and x @ x = I
    x = np.array([[1.0, 1e6], [0.0, -1.0]], dtype=complex)
    assert sqrtlib.sqrt_exists(x)
    rs = sqrtlib.all_square_roots(x)
    assert len(rs) == 4 and rs.k == 2 and not rs.extension
    for root in rs.roots:
        assert rel_dist(root @ root, x) <= 1e-12


def test_small_nonzero_eigenvalue_beside_a_zero_one_is_enumerated():
    # x^2 holds the eigenvalue 1e-12, far below the rank tolerance; the
    # rank test of x^2 follows the smallest kept singular value of x
    x = np.diag([1.0, 1e-6, 0.0]).astype(complex)
    assert sqrtlib.sqrt_exists(x)
    rs = sqrtlib.all_square_roots(x, gap=1e-8)
    assert len(rs) == 4 and rs.k == 2 and rs.extension
    for root in rs.roots:
        assert rel_dist(root @ root, x) <= 1e-12


@pytest.mark.parametrize("diag", [(1e160, 2e160), (1e300, -1e300)])
def test_roots_at_a_huge_scale_stay_in_alg(diag):
    # squared entries overflow; the alg(x) check works with x / ||x||
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = sqrtlib.all_square_roots(np.diag(diag).astype(complex))
    assert len(rs) == 4
    assert max(rs.alg_residuals) < 1e-13


def test_eigenvalue_distances_that_overflow_are_refused(monkeypatch):
    # close to the range but apart by less than it: four roots
    assert len(sqrtlib.all_square_roots(np.diag([1e308, 1.5e308]))) == 4
    # 1e308 - (-1e308) overflows: no disc is tested and nothing is
    # interpolated, so no overflow warning is raised on the way
    interpolated = []
    monkeypatch.setattr(sqrtlib, "matrix_function",
                        lambda *args, **kwargs: interpolated.append(args))
    overflow = "distances overflow the float range"
    with pytest.raises(ClusteringError, match=overflow):
        sqrtlib.all_square_roots(np.diag([-1e308, 1e308]))
    for eigs in ([1.7e308j, -1.7e308j], [1.5e308 + 1.5e308j]):  # |z - w|, |z|
        with pytest.raises(ClusteringError, match=overflow):
            propose_simple_set(eigs)
    assert interpolated == []


def test_tiny_matrix_is_numerically_zero():
    # every eigenvalue lies below the zero threshold: one root, 0
    rs = sqrtlib.all_square_roots(np.diag([1e-200, 2e-200]).astype(complex))
    assert len(rs) == 1 and rs.extension and rs.k == 0
    assert rs.square_residuals[0] <= sqrtlib.SQ_TOL


def test_root_stack_over_the_budget_is_refused_at_once():
    # 2^30 roots of size 30 would take 2^30 * 900 entries
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="budget") as info:
        sqrtlib.all_square_roots(thirty_distinct())
    assert info.type is PreconditionError
    assert time.perf_counter() - t0 < 1.0


def test_unisolable_clusters_are_refused():
    # merging 1.0 and 1.2 leaves a spread the quarter-isolation radius
    # against the cluster at 1.5 cannot absorb
    x = np.diag([1.0, 1.2, 1.5]).astype(complex)
    with pytest.raises(ClusteringError):
        sqrtlib.all_square_roots(x, gap=0.25)
    # a finer gap separates everything and enumeration succeeds
    assert len(sqrtlib.all_square_roots(x, gap=0.05)) == 8


def test_a_root_outside_alg_x_is_refused():
    # the roots of this x lie in alg(x) to 1.4e-16, which alg_tol = 1e-300
    # does not accept: all four are refused, none is returned
    with pytest.raises(NumericalError, match="drifted out of alg"):
        sqrtlib.all_square_roots(np.array([[1, 0.7], [0, 4]]),
                                 alg_tol=1e-300)
