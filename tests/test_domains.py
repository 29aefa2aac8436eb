import itertools
import time

import numpy as np
import pytest

from ncsym import domains, sqrtlib
from ncsym.errors import (ClusteringError, DomainError, NumericalError,
                          PreconditionError, UnsupportedError)
from ncsym.funcalc import BranchSpec, involution_I
from ncsym.linalg import (direct_sum, in_S_o, op_norm, op_norms, random_tuple,
                          rel_dist, spectrum, uv_parts)
from ncsym.words import MatrixTuple

from helpers import (brute_force_fiber, cluster_centers_off_cut,
                     clustered_matrix, commutator_norm, ginibre,
                     record_eigensolves, record_svds, solve_counts,
                     thirty_distinct, well_conditioned)


def test_separation_and_isolation_examples():
    d = domains.SimpleSet((1.0, 5.0), 0.5)
    assert d.separation() == pytest.approx(4.0)
    assert d.is_t_isolated(0.25)
    d2 = domains.SimpleSet((1.0, 2.0), 0.3)
    assert not d2.is_t_isolated(0.25)
    single = domains.SimpleSet((3.0,), 2.9)
    assert single.separation() == np.inf
    assert single.is_t_isolated(0.25)


def test_subordination_examples():
    big = domains.SimpleSet((1.0, 5.0), 0.2)
    small = domains.SimpleSet((0.9,), 0.05)
    assert domains.is_subordinate(small, big)
    wide = domains.SimpleSet((3.0,), 2.5)
    assert not domains.is_subordinate(wide, big)


def test_quarter_isolated_pairs_are_comparable():
    # one of the two subordination directions always holds
    rng = np.random.default_rng(0)
    for _ in range(200):
        k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c1 = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
              for _ in range(k1)]
        c2 = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
              for _ in range(k2)]
        d1 = _quarter_isolated(c1, rng)
        d2 = _quarter_isolated(c2, rng)
        if d1 is None or d2 is None:
            continue
        assert domains.is_subordinate(d1, d2) or \
            domains.is_subordinate(d2, d1)


def _quarter_isolated(centers, rng):
    d = domains.SimpleSet(tuple(centers), 1.0)
    sep = d.separation()
    if sep == 0.0:
        return None
    cap = 0.25 * sep if np.isfinite(sep) else 1.0
    return domains.SimpleSet(tuple(centers), rng.uniform(0.1, 1.0) * cap)


def test_default_radius_examples():
    assert domains.default_radius((1.0, 5.0)) == pytest.approx(0.5)
    assert domains.default_radius((2.0,)) == pytest.approx(1.0)
    assert domains.default_radius((1.0, 1.2)) == pytest.approx(0.025)
    with pytest.raises(ValueError):
        domains.default_radius((0.0, 1.0))


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
def test_a_radius_that_is_not_finite_and_positive_is_refused(radius):
    # NaN fails every comparison, and an infinite disc covers every point
    with pytest.raises(ValueError):
        domains.SimpleSet((1.0,), radius)


def test_propose_simple_set():
    ss = domains.propose_simple_set([1.0, 1.001, 5.0], gap=0.01)
    assert ss.k == 2
    with pytest.raises(ClusteringError):
        domains.propose_simple_set([0.0, 1e-9])
    with pytest.raises(ClusteringError):
        domains.propose_simple_set([1.0, 1.2, 1.5], gap=0.25)
    # |z| or |z - w| beyond the float range
    with pytest.raises(ClusteringError):
        domains.propose_simple_set([1.5e308 + 1.5e308j])
    with pytest.raises(ClusteringError):
        domains.propose_simple_set([1.0, 1.5e308 + 1.5e308j], gap=1.0)


def test_spectral_membership():
    d = domains.SimpleSet((1.0, 5.0), 0.5)
    assert domains.in_D_gamma(np.diag([1.0, 5.0]).astype(complex), d)
    assert not domains.in_D_gamma(np.diag([1.0, 3.0]).astype(complex), d)


def test_in_U_gamma_examples():
    x = np.diag([1.0, 4.0]).astype(complex)
    d = domains.SimpleSet((1.0, 4.0), 0.4)
    assert domains.in_U_gamma(np.diag([2.0, 3.0]).astype(complex), x, d) \
        is False  # diagonal u commutes with diag(1, -1)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert domains.in_U_gamma(swap, x, d) is True
    singleton = domains.SimpleSet((1.0,), 0.3)
    assert domains.in_U_gamma(np.zeros((2, 2)), np.eye(2, dtype=complex),
                              singleton) is True  # vacuous for k = 1


def _masked_pair(level, blocks, rng):
    """(u, v, eigenvalues of v^2) with u block-diagonal over `blocks`
    groups of v's eigenvectors: generic for one block, commuting with a
    nonconstant involution for more."""
    while True:
        lam = rng.uniform(0.5, 1.5, level) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, level))
        sq = lam ** 2
        gaps = np.abs(sq[:, None] - sq[None, :]) + np.eye(level)
        sums = np.abs(lam[:, None] + lam[None, :])
        if gaps.min() > 0.1 and sums.min() > 0.05:
            break
    a = ginibre(level, rng)
    group = np.arange(level) % blocks
    a[group[:, None] != group[None, :]] = 0.0
    p = well_conditioned(level, rng)
    p_inv = np.linalg.inv(p)
    return p @ a @ p_inv, p @ np.diag(lam) @ p_inv, sq


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_in_U_gamma_matches_the_involution_loop(level):
    rng = np.random.default_rng(level)
    for blocks in (1, 2, 3):
        u, v, centers = _masked_pair(level, blocks, rng)
        x = v @ v
        delta = domains.SimpleSet(centers, domains.default_radius(centers))
        brute = _generic_by_involutions(u, x, delta)
        assert brute is (blocks == 1)
        assert domains.in_U_gamma(u, x, delta) is brute


def _generic_by_involutions(u, x, delta):
    u_norm = op_norm(u)
    return not any(
        commutator_norm(u, involution_I(x, BranchSpec(
            delta.centers, delta.radius, tau))) <= 1e-8 * u_norm
        for tau in itertools.product((1, -1), repeat=delta.k)
        if len(set(tau)) > 1)


_LAM = np.array([1.0, 1.5, 2.0, 2.5, 3.0]) * np.exp(0.3j)


def _coupled(weight, factor, bound):
    """(q, a) with q unitary and a block-diagonal over two groups of
    indices except for a[1, 0], set so that ||E_1 M E_0|| for the matrix
    M = q (weight * a) q^H is factor times bound(M).  The eigenbasis is
    unitary, so ||E_i|| = 1 and bound(M) is where the coupling graph gains
    its one edge between the groups (found from either end)."""
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(ginibre(5, rng))
    a = ginibre(5, rng)
    group = np.arange(5) % 2
    a[group[:, None] != group[None, :]] = 0.0
    for _ in range(3):  # bound(M) moves with the coupling, by about 1e-9
        m = q @ (weight * a) @ q.conj().T
        a[1, 0] = factor * bound(m) / abs(weight[1, 0])
    return q, a


@pytest.mark.parametrize("factor, generic", [(0.9, False), (1.1, True)])
def test_in_U_gamma_at_the_edge_bound(factor, generic):
    # ||[u, I_tau]|| = 2 ||E_1 u E_0|| for the pattern splitting the
    # groups, so genericity flips exactly at the edge bound tol ||u|| / 2
    q, a = _coupled(np.ones((5, 5)), factor, lambda u: 0.5e-8 * op_norm(u))
    x = q @ np.diag(_LAM ** 2) @ q.conj().T
    u = q @ a @ q.conj().T
    delta = domains.SimpleSet(_LAM ** 2, domains.default_radius(_LAM ** 2))
    assert _generic_by_involutions(u, x, delta) is generic
    assert domains.in_U_gamma(u, x, delta) is generic


@pytest.mark.parametrize("factor, points", [(0.9, 4), (1.1, 2)])
def test_fiber_at_the_edge_bound(factor, points):
    # M = vuv has blocks lam_i lam_j a_ij, and the third slot of the
    # pattern splitting the groups misses by 2 ||E_1 M E_0||, so the
    # fiber halves exactly at the edge bound tol (1 + ||M||) / 2
    q, a = _coupled(np.outer(_LAM, _LAM), factor,
                    lambda m: 0.5e-8 * (1.0 + op_norm(m)))
    v = q @ np.diag(_LAM) @ q.conj().T
    u = q @ a @ q.conj().T
    w = MatrixTuple((u + v, u - v))
    got = domains.fiber(w)
    assert len(got) == points
    _assert_same_points(got, brute_force_fiber(w))


@pytest.mark.parametrize("cut", [False, True])
def test_in_U_gamma_past_the_first_block_of_patterns(cut):
    # nine discs, each its own component: every coupling is 0.9 times the
    # edge bound, but every cut of them sums past the test; with disc 1
    # cut loose, flipping it alone commutes, and that is pattern 128
    k = 9
    x = np.diag(3.0 * np.arange(1, k + 1)).astype(complex)
    delta = domains.SimpleSet(3.0 * np.arange(1, k + 1), 0.5)
    u = np.diag(np.arange(1, k + 1)).astype(complex)
    couple = np.ones((k, k)) - np.eye(k)
    if cut:
        couple[1, :] = couple[:, 1] = 0.0
    u += 0.45e-8 * op_norm(u) * couple
    assert _generic_by_involutions(u, x, delta) is not cut
    assert domains.in_U_gamma(u, x, delta) is not cut


def test_in_U_gamma_with_more_discs_than_eigenvalues():
    # 38 discs hold no eigenvalue, and flipping one of them alone commutes
    x = np.diag([10.0, 20.0]).astype(complex)
    delta = domains.SimpleSet(10.0 * np.arange(1, 41), 1.0)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert domains.in_U_gamma(swap, x, delta) is False
    assert domains.in_U_gamma(swap, x, domains.SimpleSet((10.0, 20.0), 1.0))


def test_in_U_gamma_solves_for_the_spectrum_once(monkeypatch):
    # the idempotents read the eigenbasis, which gives the eigenvalues too;
    # a Spectrum whose eigenvalues were read is solved once more for it
    x = np.diag([1.0, 4.0]).astype(complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    cases = ((domains.SimpleSet((1.0, 4.0), 0.4), True),
             # 4 lies in no disc: the assignment refuses it
             (domains.SimpleSet((1.0, 3.0), 0.4), False))
    spectra = [spectrum(x) for _ in cases]
    for s in spectra:
        s.eigenvalues  # solved on first read, before the recording starts
    calls = record_eigensolves(monkeypatch)
    for (delta, generic), s in zip(cases, spectra):
        calls.clear()
        assert domains.in_U_gamma(swap, x, delta) is generic
        assert len(calls) == 1 and solve_counts(calls, x) == (0, 1)
        calls.clear()
        assert domains.in_U_gamma(swap, s, delta) is generic
        assert len(calls) == 1 and solve_counts(calls, x) == (0, 1)
        calls.clear()  # the Spectrum of x is not solved again
        assert domains.in_U_gamma(swap, s, delta) is generic
        assert calls == []


def test_fiber_solves_for_the_spectrum_once(monkeypatch):
    # v is solved for the clean-locus test; the covering, the idempotents
    # and the square check of v^2 share one eigendecomposition
    calls = record_eigensolves(monkeypatch)
    w = random_tuple(4, 2, ("generic-u",), np.random.default_rng(2))
    _, v = uv_parts(w)
    calls.clear()
    assert len(domains.fiber(w)) == 2
    assert len(calls) == 2
    assert solve_counts(calls, v) == (1, 0)
    assert solve_counts(calls, v @ v) == (0, 1)


@pytest.mark.parametrize("level, blocks", [(6, 1), (6, 3), (7, 2)])
def test_fiber_takes_no_svd_for_distinctness(level, blocks, monkeypatch):
    # in_I(v), ||vuv||, ||v^2||, the idempotent norms and the third-slot
    # test: the Frobenius bounds decide every edge of the coupling graph,
    # and the candidates are certified distinct from their piece table
    u, v, _ = _masked_pair(level, blocks, np.random.default_rng(level))
    svds = record_svds(monkeypatch)
    assert len(domains.fiber(MatrixTuple((u + v, u - v)))) == 2 ** blocks
    n = (level, level)
    assert [m.shape for m in svds] == [n] * 3 + [(level,) + n,
                                                (2 ** blocks,) + n]


def _fiber_margin_inputs():
    for level in range(3, 8):
        rng = np.random.default_rng(40 + level)
        for blocks in range(1, 4):
            u, v, _ = _masked_pair(level, blocks, rng)
            yield MatrixTuple((u + v, u - v))
    yield from _multiplicity_family()
    v = np.diag([1.0, 2.0, 3.0]).astype(complex)
    yield MatrixTuple((v, -v))  # u = 0: the bound is the distance, 2


def test_fiber_margin_is_below_every_pairwise_distance(monkeypatch):
    # the bound read off the table of the pieces v E_C certifies every
    # fiber here, and no two candidates lie closer than it
    certified = []

    def recording(table, cands, tol, what):
        result = sqrtlib.certify_distinct(table, cands, tol, what)
        certified.append((cands, result))
        return result

    monkeypatch.setattr(domains, "certify_distinct", recording)
    for w in _fiber_margin_inputs():
        domains.fiber(w)
    assert len(certified) == 15 + 21 + 1
    for cands, (margin, disc) in certified:
        distance = min(op_norms(cands[i + 1:] - cands[i]).min()
                       for i in range(len(cands) - 1))
        assert disc is not None
        assert 0 < margin <= distance * (1 + 1e-12)


@pytest.mark.parametrize("delta", [domains.SimpleSet((1.0, 1.5), 0.2),
                                   domains.SimpleSet((1.0, 4.0), 2.0),
                                   domains.SimpleSet((1.0,), 1.5)])
def test_in_U_gamma_needs_an_admissible_disc_system(delta):
    x = np.diag([1.0, 1.5]).astype(complex)
    with pytest.raises(DomainError):
        domains.in_U_gamma(np.eye(2, dtype=complex), x, delta)


def test_direct_sum_keeps_genericity():
    # generic (+) anything in the ambient slab stays generic
    rng = np.random.default_rng(1)
    centers = cluster_centers_off_cut(rng, 2)
    x1, _, _, _ = clustered_matrix(rng, centers, [1, 1], 0.02)
    x2, _, _, _ = clustered_matrix(rng, centers, [1, 1], 0.02)
    d = domains.propose_simple_set(np.concatenate(
        [np.linalg.eigvals(x1), np.linalg.eigvals(x2)]), gap=0.5)
    u1 = ginibre(2, rng)
    u2 = np.diag(np.diag(ginibre(2, rng)))
    if not domains.in_U_gamma(u1, x1, d):
        pytest.skip("rare degenerate draw")
    big = direct_sum(MatrixTuple((u1, x1)), MatrixTuple((u2, x2)))
    assert domains.in_D_gamma(x2, d)
    assert domains.in_U_gamma(big[0], big[1], d)


def test_pi_examples():
    w = MatrixTuple((np.array([[4.0]]), np.array([[2.0]])))
    t = domains.pi(w)
    assert np.allclose([t[0][0, 0], t[1][0, 0], t[2][0, 0]], [3.0, 1.0, 3.0])
    a = ginibre(3, np.random.default_rng(2))
    t2 = domains.pi(MatrixTuple((a, a)))
    assert np.allclose(t2[0], a)
    assert np.allclose(t2[1], 0.0)
    assert np.allclose(t2[2], 0.0)
    rng = np.random.default_rng(3)
    w3 = MatrixTuple((ginibre(3, rng), ginibre(3, rng)))
    for s1, s2 in zip(domains.pi(w3), domains.pi(w3.flip())):
        assert np.allclose(s1, s2)


def test_omega_phi_identities():
    rng = np.random.default_rng(4)
    centers = cluster_centers_off_cut(rng, 2)
    x, _, _, _ = clustered_matrix(rng, centers, [2, 1], 0.02)
    u = ginibre(3, rng)
    spec = BranchSpec.for_matrix(x, (1, -1), gap=0.5)
    w = domains.omega(u, x, spec)
    # pi o omega = phi
    lhs = domains.pi(w)
    rhs = domains.phi(u, x, spec)
    assert max(rel_dist(a, b) for a, b in zip(lhs, rhs)) < 1e-9
    # round trip through (u, v) = ((w^1+w^2)/2, (w^1-w^2)/2), v^2 = x
    ui, vi = uv_parts(w)
    assert rel_dist(ui, u) < 1e-12 and rel_dist(vi @ vi, x) < 1e-9
    # identity-branch section: omega(u, I) = (u + I, u - I)
    spec1 = BranchSpec((1.0,), 0.3, (1,))
    w1 = domains.omega(u, np.eye(3, dtype=complex), spec1)
    assert np.allclose(w1[0], u + np.eye(3))
    assert np.allclose(w1[1], u - np.eye(3))


def test_fiber_scalar_pair():
    w = MatrixTuple((np.array([[4.0]]), np.array([[2.0]])))
    points = domains.fiber(w)
    got = sorted((p[0][0, 0].real, p[1][0, 0].real) for p in points)
    assert got == [(2.0, 4.0), (4.0, 2.0)]


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_a_tol_that_is_not_finite_and_positive_is_refused(tol):
    # w lies in its own fiber, and u commutes with the involution
    # diag(1, -1): a verdict with a NaN or negative tol would deny both
    w = MatrixTuple((np.array([[4.0]]), np.array([[2.0]])))
    with pytest.raises(PreconditionError, match="tol"):
        domains.fiber(w, tol=tol)
    u, x = np.diag([2.0, 3.0]), np.diag([1.0, 4.0])
    with pytest.raises(PreconditionError, match="tol"):
        domains.in_U_gamma(u, x, domains.SimpleSet((1.0, 4.0), 0.4), tol=tol)
    # x has four roots, but no such tol can judge them
    for name in ("tol", "alg_tol"):
        with pytest.raises(PreconditionError, match=name):
            sqrtlib.all_square_roots(x, **{name: tol})


@pytest.mark.parametrize("gap", [float("nan"), -1.0, 0.0, float("inf")])
def test_a_gap_that_is_not_finite_and_positive_is_refused(gap):
    # a NaN gap passes the cluster-at-0 test that refuses 1e-9 by default
    with pytest.raises(PreconditionError, match="gap"):
        domains.propose_simple_set([1e-9, 1.0], gap=gap)
    # the zero matrix has its root without a covering: refused all the same
    for x in (np.diag([1.0, 4.0]), np.zeros((2, 2))):
        with pytest.raises(PreconditionError, match="gap"):
            sqrtlib.all_square_roots(x, gap=gap)
    w = MatrixTuple((np.array([[4.0]]), np.array([[2.0]])))
    with pytest.raises(PreconditionError, match="gap"):
        domains.fiber(w, gap=gap)


def test_fiber_degenerate_u_zero():
    v = np.diag([1.0, 2.0]).astype(complex)
    w = MatrixTuple((v, -v))  # u = 0, so the third slot kills nothing
    points = domains.fiber(w)
    assert len(points) == 4


def test_fiber_candidates_over_the_budget_are_refused_at_once():
    # u = 0 leaves 30 components: 2^30 candidates of size 30
    v = np.sqrt(thirty_distinct())
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="budget") as info:
        domains.fiber(MatrixTuple((v, -v)))
    assert info.type is PreconditionError
    assert time.perf_counter() - t0 < 1.0


def test_fiber_generic_is_two_point():
    rng = np.random.default_rng(5)
    for level in (2, 3, 4):
        for _ in range(5):
            w = random_tuple(level, 2, ("generic-u",), rng)
            points = domains.fiber(w)
            assert len(points) == 2
            assert any(p.close_to(w, 1e-8) for p in points)
            assert any(p.close_to(w.flip(), 1e-8) for p in points)


def _multiplicity_family():
    """Pairs w = (u + v, u - v) with n = 16 and v = P diag(sqrt lam) P^-1,
    lam = (1, ..., m, 1, ..., 1) for m = 6..12, three draws each, under
    P = I + 0.15 G, with Gaussian u: v^2 has eigenvalue 1 17 - m times."""
    rng = np.random.default_rng(0)
    for m in range(6, 13):
        lam = np.concatenate((np.arange(1.0, m + 1), np.ones(16 - m)))
        for _ in range(3):
            p = np.eye(16) + 0.15 * ginibre(16, rng)
            v = p @ np.diag(np.sqrt(lam)) @ np.linalg.inv(p)
            u = ginibre(16, rng)
            yield MatrixTuple((u + v, u - v))


def test_fiber_through_repeated_eigenvalues_is_two_point():
    # interpolated idempotents failed the square check on all 21 pairs;
    # the eigenbasis gives them to working precision
    for w in _multiplicity_family():
        points = domains.fiber(w)
        assert len(points) == 2
        assert any(p.close_to(w, 1e-8) for p in points)
        assert any(p.close_to(w.flip(), 1e-8) for p in points)


def test_fiber_refuses_candidates_that_fail_their_square_check(monkeypatch):
    # idempotents 1e-6 too large make every candidate's square miss v^2 by
    # 2e-6: the candidates are refused, not filtered down to none
    exact = domains.spectral_idempotents
    monkeypatch.setattr(domains, "spectral_idempotents",
                        lambda x, covering: exact(x, covering) * (1 + 1e-6))
    w = random_tuple(3, 2, ("generic-u",), np.random.default_rng(4))
    with pytest.raises(NumericalError, match="failed its square check"):
        domains.fiber(w)


@pytest.mark.xfail(raises=NumericalError, strict=True,
                   reason="the eigenbasis of a nearly defective v^2 fails "
                          "its drift test, and the Hermite idempotents miss "
                          "the square check (residual 1.85e-06)")
def test_fiber_of_a_nearly_defective_v_squared_is_two_point():
    # v^2 has eigenvalues 1, (1 + 1e-7)^2 coupled by 500, and 9; the
    # projector onto the cluster at 1 gives roots with square residuals
    # of at most 5.4e-11, so the fiber of this generic u is {w, w^f}
    j = np.array([[1, 500, 0], [0, 1 + 1e-7, 0], [0, 0, 3]], dtype=complex)
    p = np.array([[1, 0.3, -0.2], [0.1, 1, 0.4], [-0.3, 0.2, 1]])
    v = p @ j @ np.linalg.inv(p)
    u = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]], dtype=complex)
    w = MatrixTuple((u + v, u - v))
    points = domains.fiber(w)
    assert len(points) == 2
    assert points[0].close_to(w, 1e-8)
    assert points[1].close_to(w.flip(), 1e-8)


def _assert_same_points(got, want, tol=1e-8):
    assert len(got) == len(want)
    scale = 1.0 + max(op_norm(p[0]) for p in want)
    for p in want:
        dists = [op_norm(p[0] - g[0]) / scale for g in got]
        assert min(dists) <= tol, f"unmatched point (gap {min(dists):.2e})"
    for g in got:
        assert min(op_norm(p[0] - g[0]) for p in want) <= tol * scale


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_fiber_matches_the_enumeration_oracle(level):
    rng = np.random.default_rng(100 + level)
    for blocks in range(1, min(level, 3) + 1):
        u, v, _ = _masked_pair(level, blocks, rng)
        w = MatrixTuple((u + v, u - v))
        points = domains.fiber(w)
        _assert_same_points(points, brute_force_fiber(w))
        assert len(points) == 2 ** blocks
        assert points[0].close_to(w, 1e-12)
        assert points[-1].close_to(w.flip(), 1e-12)
    w = MatrixTuple((v, -v))  # u = 0: every sign pattern survives
    points = domains.fiber(w)
    _assert_same_points(points, brute_force_fiber(w))
    assert len(points) == 2 ** level
    assert points[0].close_to(w, 1e-12)


def test_fiber_requires_clean_locus():
    a = ginibre(2, np.random.default_rng(6))
    with pytest.raises(UnsupportedError):
        domains.fiber(MatrixTuple((a, a)))  # v = 0
    v = np.diag([1.0, -1.0]).astype(complex)  # invertible but not in Q
    with pytest.raises(UnsupportedError):
        domains.fiber(MatrixTuple((v, -v)))


def test_in_S_o_examples():
    assert in_S_o(MatrixTuple((np.array([[4.0]]), np.array([[2.0]]))))
    a = ginibre(2, np.random.default_rng(7))
    assert not in_S_o(MatrixTuple((a, a)))
    v = np.diag([1.0, -1.0]).astype(complex)
    assert not in_S_o(MatrixTuple((v, -v)))
