"""Property harness for graded matrix functions.

Black-box checks of the direct-sum / similarity / intertwining axioms on
sampled points, companion-function extraction on finite explicit domains,
and the four-by-four regression showing that no function on the image of
the symmetrization map reproduces 16*v*u^2*v when v is nilpotent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .domains import in_S_o, pi
from .errors import ContradictionError, EvaluatorError, PreconditionError
from .geometry import _require_positive
from .girard import verify_girard_random
from .linalg import (block_diag, conjugate, direct_sum, in_I,
                     matrix_to_lists, op_norm, random_similarity, random_tuple,
                     rel_dist, tuple_to_json_dict)
from .ratexpr import evaluate
from .report import Report
from .symbasis import decompose_symmetric, reduce_to_pi
from .words import FreePoly, MatrixTuple

ENTRY_TOL = 1e-12  # finite-set matrix identity tolerance
RESIDUAL_TOL = 1e-8  # passing relative residual of an axiom


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

def _call(f: Callable, sample: MatrixTuple) -> np.ndarray:
    try:
        return np.asarray(f(sample), dtype=complex)
    except Exception as exc:
        raise EvaluatorError(f"evaluator failed: {exc}", sample=sample) \
            from exc


def check_nc_properties(f: Callable[[MatrixTuple], np.ndarray],
                        samples: Sequence[MatrixTuple],
                        rng: Optional[np.random.Generator] = None) -> Report:
    """Gradedness, direct sums, similarity, and intertwining on samples.

    f must be defined on the samples, their pairwise direct sums, and
    their similarity orbits; evaluator exceptions surface as
    EvaluatorError with the offending sample attached.  An empty sample
    list raises PreconditionError instead of passing every check.
    """
    if not samples:
        raise PreconditionError("no samples to judge")
    rng = rng or np.random.default_rng()
    report = Report(tolerances={"residual": RESIDUAL_TOL})
    values = [_call(f, s) for s in samples]

    graded = all(v.shape == (s.n, s.n) for v, s in zip(values, samples))
    report.add("graded", graded)

    # each sample with the next, cyclically: one sample pairs with itself
    pairs = [(i, (i + 1) % len(samples)) for i in range(len(samples))]
    sums = [_call(f, direct_sum(samples[i], samples[j])) for i, j in pairs]

    def direct_sums():
        for (i, j), got in zip(pairs, sums):
            yield {"samples": [i, j]}, rel_dist(
                got, block_diag(values[i], values[j]))

    def similarities():
        for s_idx, sample in enumerate(samples):
            sim = random_similarity(sample.n, rng)
            got = _call(f, conjugate(sim, sample))
            want = np.linalg.inv(sim) @ values[s_idx] @ sim
            yield {"sample": s_idx}, rel_dist(got, want)

    def intertwinings():
        for (i, j), fxy in zip(pairs, sums):
            x, fx = samples[i], values[i]
            n, m = x.n, samples[j].n
            embed = np.zeros((n + m, n), dtype=complex)
            embed[:n, :n] = np.eye(n)
            compress = embed.conj().T
            # [I;0] intertwines x with x (+) y; [I 0] the other way round
            for left, a, b in ((embed, fx, fxy), (compress, fxy, fx)):
                yield {"samples": [i, j]}, \
                    op_norm(left @ a - b @ left) / (1.0 + op_norm(a))
            # rank-deficient intertwiners of x with x (+) x: scalar block mixes
            a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            fxx = _call(f, direct_sum(x, x))
            eye = np.eye(n, dtype=complex)
            mixed_embed = np.vstack([a * eye, b * eye])       # x -> x (+) x
            mixed_compress = np.hstack([a * eye, b * eye])    # x (+) x -> x
            upper = np.zeros((2 * n, 2 * n), dtype=complex)   # rank n on x (+) x
            upper[:n, :n] = a * eye
            upper[:n, n:] = b * eye
            for left, va, vb in ((mixed_embed, fx, fxx),
                                 (mixed_compress, fxx, fx),
                                 (upper, fxx, fxx)):
                yield {"samples": [i, j]}, \
                    op_norm(left @ va - vb @ left) / (1.0 + op_norm(va))

    report.add_worst("direct-sum", direct_sums(), RESIDUAL_TOL)
    report.add_worst("similarity", similarities(), RESIDUAL_TOL)
    report.add_worst("intertwining", intertwinings(), RESIDUAL_TOL)
    return report


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

    Blocks split and match at tol.  On success the report's last check
    carries the table of companion values on the derived domain; a
    failing check names its first failing pair.  Raises ContradictionError
    when two decompositions force different companion values at one
    point, and PreconditionError for an empty domain or a tol that is not
    finite and positive.
    """
    _require_positive("tol", tol)
    if not f.domain:
        raise PreconditionError("no samples to judge")
    rng = rng or np.random.default_rng(0)
    report = Report(tolerances={"entry": tol})

    def similar_pairs():
        for (i, xi), (j, xj) in itertools.product(enumerate(f.domain),
                                                  repeat=2):
            if xi.n != xj.n:
                continue
            basis = _intertwiner_basis(xi, xj)
            if not _contains_invertible(basis, rng):
                continue  # not similar: no constraint from this pair
            for b in basis:
                yield {"pair": [i, j]}, op_norm(
                    b @ f.values[j] - f.values[i] @ b) / (1.0 + op_norm(b))

    # a linear identity: generous numerical slack
    report.add_worst("similarity-preserving", similar_pairs(), tol * 1e3)

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
    holomorphic or not, reproduces f on the full bidisc.
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
    if max(op_norm(w[0]), op_norm(w[1])) >= 1.0:
        raise PreconditionError(
            "components must be strict contractions; shrink r or scale")

    report = Report(tolerances={"pi-match": 1e-12, "entry": 1e-10})
    p1, p2 = pi(w), pi(w_twisted)
    pi_res = max(op_norm(a - b) for a, b in zip(p1, p2))
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

    beta_norm = op_norm(p1[1])
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

        report.add_worst("factor-through-pi", (
            (where, rel_dist(through_pi(g, w), p.evaluate(w)))
            for where, p, _, g, w in trials), 1e-8)
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
        val = np.array([[complex(re, im) for re, im in row]
                        for row in extraction.witness[0]["value"]])
        table_ok = np.allclose(val, np.diag([b, c]))
    report.add("companion-value-is-b-plus-c", table_ok)

    skew = FiniteGradedMap([d321], [np.diag([5.0, 6.0, 7.0]).astype(complex)
                                    + 0.5 * np.eye(3, k=1)])
    sub3 = check_anc(skew, rng=rng)
    report.add("non-diagonal-detected", not sub3.passed)
    return report
