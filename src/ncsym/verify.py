"""Property harness for graded matrix functions.

Black-box checks of the direct-sum / similarity / intertwining axioms on
sampled points, companion-function extraction on finite explicit domains,
and the four-by-four regression showing that no function on the image of
the symmetrization map reproduces 16*v*u^2*v when v is nilpotent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import ContradictionError, EvaluatorError, PreconditionError
from .girard import verify_girard_random
from .linalg import (block_diag, direct_sum, in_I, in_S_o, matrix_from_lists,
                     matrix_to_lists, op_norms, pi, random_similarity,
                     random_tuple, rel_dist, require_positive,
                     tuple_to_json_dict)
from .ratexpr import evaluate
from .report import Report
from .symbasis import decompose_symmetric, reduce_to_pi
from .words import FreePoly, MatrixTuple

ENTRY_TOL = 1e-12  # finite-set matrix identity tolerance
RESIDUAL_TOL = 1e-8  # passing relative residual of an axiom
AXIOMS = ("direct-sum", "similarity", "intertwining")  # after "graded"


@dataclass
class FiniteGradedMap:
    """Explicit graded function: a finite domain with matching values."""

    domain: List[MatrixTuple]
    values: List[np.ndarray]

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError("domain and value lists differ in length")
        self.values = [np.asarray(v, dtype=complex) for v in self.values]
        for t, v in zip(self.domain, self.values):
            if v.shape != (t.n, t.n):
                raise ValueError(
                    f"value shape {v.shape} breaks gradedness at level {t.n}")


# -- nc axioms on black-box evaluators -----------------------------------------

class _NotGraded(Exception):
    """A value whose shape is not n x n at a level-n point; args[0] is
    the graded check's witness."""


def _call(f: Callable, point: MatrixTuple, where: dict) -> np.ndarray:
    """f(point) as a complex array.  EvaluatorError, with the point, when
    f raises; _NotGraded, with where and the shape, when the value is
    not n x n."""
    try:
        value = np.asarray(f(point), dtype=complex)
    except Exception as exc:
        raise EvaluatorError(f"evaluator failed: {exc}", sample=point) \
            from exc
    if value.shape != (point.n, point.n):
        raise _NotGraded({**where, "shape": list(value.shape)})
    return value


def _padded_norms(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """2-norms of matrices of any shapes from one batched SVD: each is
    zero-padded to the largest side met, which keeps its nonzero singular
    values and adds zeros."""
    size = max((max(m.shape) for m in matrices), default=0)
    stack = np.zeros((len(matrices), size, size), dtype=complex)
    for k, m in enumerate(matrices):
        stack[k, :m.shape[0], :m.shape[1]] = m
    return op_norms(stack)


def _add_quotient_checks(report: Report, checks: dict, tol: float) -> None:
    """report.add_worst for each check name -> [(where, num, den)], in
    order, with residual ||num|| / (1 + ||den||): one _padded_norms call
    takes every 2-norm of every check."""
    terms = [term for measured in checks.values() for term in measured]
    norms = _padded_norms([num for _, num, _ in terms]
                          + [den for _, _, den in terms])
    quotients = iter((norms[:len(terms)]
                      / (1.0 + norms[len(terms):])).tolist())
    for name, measured in checks.items():
        report.add_worst(name, ((where, next(quotients))
                                for where, _, _ in measured), tol)


def check_nc_properties(f: Callable[[MatrixTuple], np.ndarray],
                        samples: Sequence[MatrixTuple],
                        rng: Optional[np.random.Generator] = None) -> Report:
    """Gradedness, direct sums, similarity, and intertwining on samples.

    f must be defined on the samples, their pairwise direct sums, and
    their similarity orbits; evaluator exceptions surface as
    EvaluatorError with the offending sample attached.  A value of the
    wrong shape fails the graded check, whose witness names the first
    such point and the shape; the axioms then cannot be measured, and
    fail with a NaN residual.  Otherwise the axioms' residual matrices
    are collected first and all their 2-norms taken by one batched SVD;
    each drawn similarity costs one SVD and one inverse.  A value that
    is not finite, or whose products overflow, raises NumericalError.  An
    empty sample list raises PreconditionError instead of passing every
    check.
    """
    if not samples:
        raise PreconditionError("no samples to judge")
    rng = rng or np.random.default_rng()
    report = Report(tolerances={"residual": RESIDUAL_TOL})
    try:
        # a value near the float range overflows in the products: the
        # norms then raise NumericalError, with no numpy warning first
        with np.errstate(over="ignore", invalid="ignore"):
            checks = _axiom_terms(f, samples, rng)
    except _NotGraded as exc:
        report.add("graded", False, witness=exc.args[0])
        for name in AXIOMS:
            report.add(name, False, math.nan)
        return report
    report.add("graded", True)
    _add_quotient_checks(report, checks, RESIDUAL_TOL)
    return report


def _axiom_terms(f: Callable, samples: Sequence[MatrixTuple],
                 rng: np.random.Generator) -> dict:
    """Each axiom's [(where, num, den)]: f at the samples, their direct
    sums, one similarity orbit point each and each x (+) x, called in
    that order.  _NotGraded at the first value of the wrong shape."""
    values = [_call(f, s, {"sample": i}) for i, s in enumerate(samples)]
    # each sample with the next, cyclically: one sample pairs with itself
    pairs = [(i, (i + 1) % len(samples)) for i in range(len(samples))]
    sums = [_call(f, direct_sum(samples[i], samples[j]),
                  {"direct-sum": [i, j]}) for i, j in pairs]
    direct = []
    for (i, j), got in zip(pairs, sums):
        want = block_diag(values[i], values[j])
        direct.append(({"samples": [i, j]}, got - want, want))

    similar = []
    for i, (sample, value) in enumerate(zip(samples, values)):
        sim = random_similarity(sample.n, rng)
        sim_inv = np.linalg.inv(sim)  # one inverse: the point and its value
        got = _call(f, MatrixTuple(tuple(sim_inv @ m @ sim for m in sample)),
                    {"similar-to": i})
        want = sim_inv @ value @ sim
        similar.append(({"sample": i}, got - want, want))

    intertwining = []
    for (i, j), fxy in zip(pairs, sums):
        where = {"samples": [i, j]}
        x, fx = samples[i], values[i]
        n, m = x.n, samples[j].n
        embed = np.zeros((n + m, n), dtype=complex)
        embed[:n, :n] = np.eye(n)
        compress = embed.conj().T
        # [I;0] intertwines x with x (+) y; [I 0] the other way round
        intertwining += [(where, left @ a - b @ left, a) for left, a, b in
                         ((embed, fx, fxy), (compress, fxy, fx))]
        # rank-deficient intertwiners of x with x (+) x: scalar block mixes
        a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        fxx = _call(f, direct_sum(x, x), {"direct-sum": [i, i]})
        eye = np.eye(n, dtype=complex)
        mixed_embed = np.vstack([a * eye, b * eye])       # x -> x (+) x
        mixed_compress = np.hstack([a * eye, b * eye])    # x (+) x -> x
        upper = np.zeros((2 * n, 2 * n), dtype=complex)   # rank n on x (+) x
        upper[:n, :n] = a * eye
        upper[:n, n:] = b * eye
        intertwining += [(where, left @ va - vb @ left, va)
                         for left, va, vb in ((mixed_embed, fx, fxx),
                                              (mixed_compress, fxx, fx),
                                              (upper, fxx, fxx))]
    return dict(zip(AXIOMS, (direct, similar, intertwining)))


# -- finite-domain companion functions -----------------------------------------

def _decompositions(domain: Sequence[MatrixTuple], tol: float):
    """(i, j, y) for every z_j = x_i (+) y in the domain, in (i, j) order.

    z_j splits when its off-diagonal blocks at size x_i.n vanish and its
    top block matches x_i, both relative to tol.
    """
    for (i, x), (j, z) in itertools.product(enumerate(domain), repeat=2):
        a = x.n
        if a >= z.n:
            continue
        bound = tol * (1.0 + max(np.abs(m).max(initial=0.0) for m in z))
        if any(np.abs(m[:a, a:]).max(initial=0.0) > bound
               or np.abs(m[a:, :a]).max(initial=0.0) > bound for m in z):
            continue
        if MatrixTuple([m[:a, :a] for m in z]).close_to(x, tol):
            yield i, j, MatrixTuple([m[a:, a:] for m in z])


def hat_domain(domain: Sequence[MatrixTuple]) -> list:
    """All y such that x (+) y lies in the set for some x in the set,
    each listed once, in the (i, j) order of the pair that first shows it.
    """
    found: list[MatrixTuple] = []
    for _, _, y in _decompositions(domain, ENTRY_TOL):
        if not any(y.close_to(prev, ENTRY_TOL) for prev in found):
            found.append(y)
    return found


def _intertwiner_basis(x1: MatrixTuple, x2: MatrixTuple) -> list:
    """Basis of {s : x1^r s = s x2^r for all r} at a shared level."""
    n = x1.n
    rows = [np.kron(a, np.eye(n)) - np.kron(np.eye(n), np.asarray(b).T)
            for a, b in zip(x1, x2)]
    k = np.vstack(rows)
    _, s, vh = np.linalg.svd(k)
    if s.size == 0:
        keep = 0
    else:
        keep = int(np.count_nonzero(s > 1e-10 * max(s[0], 1.0)))
    null = vh[keep:].conj()
    return [vec.reshape(n, n) for vec in null]


def _contains_invertible(basis: list, rng: np.random.Generator) -> bool:
    if not basis:
        return False
    for _ in range(12):
        coeffs = rng.standard_normal(len(basis)) \
            + 1j * rng.standard_normal(len(basis))
        s = sum(c * b for c, b in zip(coeffs, basis))
        if in_I(s, 1e-8):
            return True
    return False


def check_anc(f: FiniteGradedMap, tol: float = ENTRY_TOL,
              rng: Optional[np.random.Generator] = None) -> Report:
    """Similarity preservation plus companion-function extraction.

    Blocks split and match at tol.  Every intertwiner of every similar
    pair is collected before one batched SVD takes the 2-norms of the
    similarity check.  On success the report's last check carries the
    table of companion values on the derived domain; a failing check
    names its first failing pair.  Raises ContradictionError when two
    decompositions force different companion values at one point, and
    PreconditionError for an empty domain or a tol that is not finite
    and positive.
    """
    require_positive("tol", tol)
    if not f.domain:
        raise PreconditionError("no samples to judge")
    rng = rng or np.random.default_rng(0)
    report = Report(tolerances={"entry": tol})

    similar = []
    for (i, xi), (j, xj) in itertools.product(enumerate(f.domain), repeat=2):
        if xi.n != xj.n:
            continue
        basis = _intertwiner_basis(xi, xj)
        if not _contains_invertible(basis, rng):
            continue  # not similar: no constraint from this pair
        similar += [({"pair": [i, j]}, b @ f.values[j] - f.values[i] @ b, b)
                    for b in basis]
    # a linear identity: generous numerical slack
    _add_quotient_checks(report, {"similarity-preserving": similar},
                         tol * 1e3)

    table: list[tuple[MatrixTuple, np.ndarray]] = []

    def extractions():
        for i, j, y in _decompositions(f.domain, tol):
            fz, a = f.values[j], f.domain[i].n
            scale = 1.0 + float(np.abs(fz).max(initial=0.0))
            off = max(np.abs(fz[:a, a:]).max(initial=0.0),
                      np.abs(fz[a:, :a]).max(initial=0.0))
            top_err = float(np.abs(fz[:a, :a] - f.values[i]).max(initial=0.0))
            r = max(off, top_err) / scale
            yield {"pair": [i, j]}, r
            if r > tol:
                continue
            candidate = fz[a:, a:]
            for y_prev, val_prev in table:
                if y_prev.close_to(y, tol):
                    if np.abs(val_prev - candidate).max(initial=0.0) \
                            > tol * scale:
                        raise ContradictionError(
                            "two decompositions force different companion "
                            f"values at a level-{y.n} point")
                    break
            else:
                table.append((y, candidate))

    check = report.add_worst("companion-extraction", extractions(), tol)
    if check.passed:
        check.witness = [{"level": y.n, "value": matrix_to_lists(val)}
                         for y, val in table]
    return report


# -- the nilpotent-v regression -------------------------------------------------

def pascoe_counterexample(r: float = 0.1, scale: float = 0.4) -> Report:
    """Two 4x4 pairs identified by the symmetrization map but separated by
    f(w) = (w^1-w^2)(w^1+w^2)^2(w^1-w^2).

    v and its sign-twisted copy share v^2 = 0 and vuv, yet the (1,4) entry
    of f differs by 32 r^2 scale^2: no function on the image of the map,
    holomorphic or not, reproduces f on the full bidisc.  One batched SVD
    tests both components for strict contractions, before pi is taken;
    a second takes the norms of the three slot gaps of pi and of v^2.
    """
    if r < 0:
        raise PreconditionError("r must be nonnegative")
    e = np.zeros((4, 4), dtype=complex)

    def unit(i, j):
        m = e.copy()
        m[i, j] = 1.0
        return m

    v = r * (unit(0, 1) + unit(2, 3))
    v_twisted = r * (-unit(0, 1) + unit(2, 3))
    u = scale * (unit(1, 0) + unit(0, 2))
    w = MatrixTuple((u + v, u - v))
    w_twisted = MatrixTuple((u + v_twisted, u - v_twisted))
    if op_norms(np.stack(w.entries)).max() >= 1.0:
        raise PreconditionError(
            "components must be strict contractions; shrink r or scale")

    report = Report(tolerances={"pi-match": 1e-12, "entry": 1e-10})
    p1, p2 = pi(w), pi(w_twisted)
    # the three slot gaps and beta = v^2, from one batched SVD
    norms = op_norms(np.stack([a - b for a, b in zip(p1, p2)] + [p1[1]]))
    pi_res, beta_norm = float(norms[:3].max()), float(norms[3])
    report.add("pi-values-match", pi_res <= 1e-12, pi_res,
               {"w": tuple_to_json_dict(w),
                "w-twisted": tuple_to_json_dict(w_twisted)})

    def f(t: MatrixTuple) -> np.ndarray:
        d = t[0] - t[1]
        s2 = t[0] + t[1]
        return d @ s2 @ s2 @ d

    gap = f(w) - f(w_twisted)
    expected = 32.0 * r * r * scale * scale
    entry_err = abs(gap[0, 3] - expected)
    report.add("entry-1-4-discrepancy", entry_err <= 1e-10, entry_err,
               {"expected": expected,
                "got": [float(gap[0, 3].real), float(gap[0, 3].imag)]})

    report.add("v-squared-vanishes", beta_norm <= 1e-14, beta_norm)
    report.add("outside-clean-locus", not in_S_o(w))
    return report


# -- seeded suites ----------------------------------------------------------------

def random_symmetric_poly(max_degree: int,
                          rng: np.random.Generator) -> FreePoly:
    """Symmetrized sum of six random words with small integer coefficients."""
    p = FreePoly.zero(2)
    for _ in range(6):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(int(rng.integers(0, 2)) for _ in range(length))
        coeff = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        p = p + FreePoly.word(word, 2, coeff)
    return p.symmetrize()


def run_suite(name: str, seed: int = 0) -> Report:
    """Named verification suites used by the command-line front end."""
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    report = Report(seed=seed)

    if name == "nc":
        poly = FreePoly.word((0, 1), 2) + 2 * FreePoly.word((1, 1, 0), 2)
        samples = [random_tuple(n, 2, (), rng) for n in (2, 3, 2)]
        report.merge(check_nc_properties(poly.evaluate, samples, rng=rng),
                     prefix="poly/")

        def conjugating(t):  # breaks similarity covariance
            return np.conj(t[0])

        bad1 = check_nc_properties(conjugating, samples, rng=rng)
        report.add("counterexample-conjugation-detected", not bad1.passed)

        def truncating(t):  # graded but not direct-sum compatible
            out = np.zeros((t.n, t.n), dtype=complex)
            out[0, 0] = t[0][0, 0]
            return out

        bad2 = check_nc_properties(truncating, samples, rng=rng)
        graded_ok = next(c for c in bad2.checks if c.name == "graded").passed
        sums_bad = not next(c for c in bad2.checks
                            if c.name == "direct-sum").passed
        report.add("counterexample-truncation-detected",
                   graded_ok and sums_bad)
    elif name == "anc":
        report.merge(anc_example_suite(rng))
    elif name == "girard":
        for n in (-2, -1, 0, 1, 2, 3, 4):
            report.merge(verify_girard_random(n, trials=5, rng=rng, seed=seed))
    elif name == "pascoe":
        report.merge(pascoe_counterexample())
    elif name == "symbasis":
        trials = []
        for trial in range(25):  # one chart change and decomposition each
            p = random_symmetric_poly(5, rng)
            q = p.to_uv()
            trials.append(({"trial": trial}, p, q, decompose_symmetric(q),
                           random_tuple(3, 2, ("v-invertible",), rng)))
        report.add_worst("decompose-roundtrip-exact", (
            (where, float(g.expand_back() != q))
            for where, _, q, g, _ in trials), 0.0)

        def through_pi(g, w):
            t = pi(w)
            return evaluate(reduce_to_pi(g),
                            {"alpha": t[0], "beta": t[1], "gamma": t[2]})

        # each trial maps through its own polynomial; one batched norm
        # judges them all
        residuals = rel_dist(
            np.stack([through_pi(g, w) for _, _, _, g, w in trials]),
            np.stack([p.evaluate(w) for _, p, _, _, w in trials]))
        report.add_worst("factor-through-pi", (
            (trial[0], r) for trial, r in zip(trials, residuals.tolist())),
            1e-8)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return report


def anc_example_suite(rng: Optional[np.random.Generator] = None) -> Report:
    """The two diagonal companion-function examples plus a failure case."""
    rng = rng or np.random.default_rng(0)
    report = Report()
    d321 = MatrixTuple((np.diag([3.0, 2.0, 1.0]).astype(complex),))
    d3 = MatrixTuple((np.array([[3.0]], dtype=complex),))

    lone = FiniteGradedMap([d321], [np.diag([5.0, 6.0, 7.0]).astype(complex)])
    sub = check_anc(lone, rng=rng)
    hat = hat_domain(lone.domain)
    report.add("singleton-diagonal-passes", sub.passed)
    report.add("singleton-hat-domain-empty", len(hat) == 0)

    a, b, c = 5.0, 6.0, 7.0
    two = FiniteGradedMap([d321, d3],
                          [np.diag([a, b, c]).astype(complex),
                           np.array([[a]], dtype=complex)])
    sub2 = check_anc(two, rng=rng)
    report.merge(sub2, prefix="pair/")
    hat2 = hat_domain(two.domain)
    got_21 = (len(hat2) == 1 and hat2[0].n == 2
              and np.allclose(hat2[0][0], np.diag([2.0, 1.0])))
    report.add("pair-hat-domain-is-2-plus-1", got_21)
    extraction = next(ch for ch in sub2.checks
                      if ch.name == "companion-extraction")
    table_ok = False
    if extraction.passed and isinstance(extraction.witness, list) \
            and len(extraction.witness) == 1:
        val = matrix_from_lists(extraction.witness[0]["value"])
        table_ok = np.allclose(val, np.diag([b, c]))
    report.add("companion-value-is-b-plus-c", table_ok)

    skew = FiniteGradedMap([d321], [np.diag([5.0, 6.0, 7.0]).astype(complex)
                                    + 0.5 * np.eye(3, k=1)])
    sub3 = check_anc(skew, rng=rng)
    report.add("non-diagonal-detected", not sub3.passed)
    return report
