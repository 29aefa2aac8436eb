"""Rational power-sum generators in the coordinates alpha, beta, gamma.

For every integer n there is a rational expression P_n with
x^n + y^n = P_n(u, v^2, vuv) wherever the participating inverses exist,
with u = (x+y)/2, v = (x-y)/2.  The positive-index recursion is

    P_0 = 2, Q_0 = 0,
    P_{n+1} = alpha P_n + Q_n,
    Q_{n+1} = beta P_n + gamma beta^-1 Q_n,

where Q_n stands for v (x^n - y^n).  Negative indices use the Schur-
complement entries of the inverse transfer matrix; both paths are cross-
checked against direct u,v forms and matrix power sums.

Sub-DAGs are shared, so P_n grows linearly in n; gamma beta^-1 Q_n is kept
unexpanded, and symbolic comparisons go through the expansion with
adjacent inverse pairs cancelled.  The expanded table of P_n, n >= 0, is
not read off the DAG: x^n + y^n is twice the sum of the even-v words of
length n in u, v, each of which factors uniquely into u and blocks
v u^j v (see symbasis), so table_expression enumerates those words
directly, every coefficient 2, in time linear in the table's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import (DomainError, ExpansionError, NumericalError,
                     PreconditionError, SingularityError)
from .linalg import pi_stack, random_tuples, rel_dist, require_positive
from .ratexpr import (ONE, RESAMPLE_CAP, ZERO, RatExpr, Scalar, Variable, add,
                      evaluate, inv, mul, require_samples,
                      sample_nonsingular, scale)
from .report import Report
from .symbasis import ALPHA, BETA, GAMMA, U_ATOM, generator_word
from .words import TERM_BUDGET


@dataclass(frozen=True)
class GirardPair:
    """Index n with the power-sum expression P and its companion Q.

    For n >= 0, Q is v*(x^n - y^n) in the three coordinates; for n < 0 it
    is the matching negative-index companion from the transfer recursion.
    """

    n: int
    P: RatExpr
    Q: RatExpr


def _transfer(matrix: tuple, start: tuple, steps: int) -> tuple:
    """(p, q) after steps applications of the 2x2 transfer matrix
    ((a, b), (c, d)): p, q -> a p + b q, c p + d q, each sub-DAG shared."""
    (a, b), (c, d) = matrix
    p, q = start
    for _ in range(steps):
        p, q = add(mul(a, p), mul(b, q)), add(mul(c, p), mul(d, q))
    return p, q


def girard_positive(n: int) -> GirardPair:
    """Power-sum expression for index n >= 0; polynomial in alpha, beta,
    gamma and beta^-1."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    transfer = ((ALPHA, ONE), (BETA, mul(GAMMA, inv(BETA))))
    return GirardPair(n, *_transfer(transfer, (Scalar(2), ZERO), n))


def girard_negative(n: int) -> GirardPair:
    """Power-sum expression for index -n with n >= 1.

    Evaluation requires the four coefficient expressions
    (alpha - beta gamma^-1 beta), (beta - gamma beta^-1 alpha),
    (beta - alpha beta^-1 gamma), (gamma - beta alpha^-1 beta)
    to be invertible at the point.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    alpha_inv, beta_inv, gamma_inv = inv(ALPHA), inv(BETA), inv(GAMMA)
    pp = inv(add(ALPHA, scale(-1, mul(BETA, gamma_inv, BETA))))
    pq = inv(add(BETA, scale(-1, mul(GAMMA, beta_inv, ALPHA))))
    qp = mul(BETA, inv(add(BETA, scale(-1, mul(ALPHA, beta_inv, GAMMA)))))
    qq = mul(BETA, inv(add(GAMMA, scale(-1, mul(BETA, alpha_inv, BETA)))))
    return GirardPair(-n, *_transfer(((pp, pq), (qp, qq)),
                                     (Scalar(2), ZERO), n))


def girard_pair(n: int) -> GirardPair:
    """P_n and its companion for any integer index."""
    return girard_positive(n) if n >= 0 else girard_negative(-n)


def girard_via_T(n: int) -> tuple:
    """(p_n, q_n) directly in the variables u, v: the u,v transfer
    (p, q) -> (a p + b q, b p + a q), |n| times from (1, 0), doubled.

    For n >= 0, (a, b) = (u, v) and p_n, q_n are twice the even/odd
    degree-n monomial sums; for n < 0, (a, b) are the entries
    (u - v u^-1 v)^-1 and (v - u v^-1 u)^-1 of the inverse transfer
    matrix.  The DAG grows linearly in |n|.
    """
    a, b = u, v = Variable("u"), Variable("v")
    if n < 0:
        a = inv(add(u, scale(-1, mul(v, inv(u), v))))
        b = inv(add(v, scale(-1, mul(u, inv(v), u))))
    f, g = _transfer(((a, b), (b, a)), (ONE, ZERO), abs(n))
    return scale(2, f), scale(2, g)


def table_expression(n: int) -> dict:
    """Expanded word form of P_n (n >= 0), {word: 2} over the atoms of
    as_ncpoly.

    The words are enumerated from the factorization of the even-v words
    of length n into u and blocks v u^j v, each mapped by
    generator_word, so there are no inverse pairs left to cancel.  The
    table has 2^(n-1) words for n >= 1; above TERM_BUDGET it raises
    ExpansionError before anything is built.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n - 1 >= TERM_BUDGET.bit_length():  # 2^(n-1) > TERM_BUDGET
        raise ExpansionError(
            f"the expansion may exceed TERM_BUDGET = {TERM_BUDGET} terms")
    blocks = [generator_word(j) for j in range(n - 1)]
    alpha = generator_word(U_ATOM)
    words = [[()]]  # words[m]: the table words of the even-v words of length m
    for m in range(1, n + 1):
        words.append([alpha + w for w in words[m - 1]]
                     + [blocks[j] + w for j in range(m - 1)
                        for w in words[m - 2 - j]])
    return dict.fromkeys(words[n], 2 + 0j)


def _power_sums(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """x^n + y^n, by direct matrix powers, for each pair of two stacks.

    For n < 0 a pair with a matrix that LAPACK finds exactly singular has
    no such powers: SingularityError, whose samples masks those pairs.
    """
    try:
        return np.linalg.matrix_power(x, n) + np.linalg.matrix_power(y, n)
    except np.linalg.LinAlgError as exc:
        singular = np.zeros(len(x), dtype=bool)
        for t, pair in enumerate(zip(x, y)):
            try:
                np.linalg.inv(pair)
            except np.linalg.LinAlgError:
                singular[t] = True
        raise SingularityError(f"matrix power failed: {exc}",
                               samples=singular) from exc


def _residuals(n: int, p: RatExpr, points: np.ndarray) -> list:
    """Relative residuals of x^n + y^n against p = P_n at pi(w), for the
    pairs w of an (m, 2, n, n) array, evaluated as one stack.

    Raises NumericalError, before any norm is taken, when either side
    overflows the float range.
    """
    x, y = points[:, 0], points[:, 1]
    alpha, beta, gamma = pi_stack(x, y)
    value = evaluate(p, {"alpha": alpha, "beta": beta, "gamma": gamma})
    oracle = _power_sums(x, y, n)
    for name, m in ((f"P_{n}(pi(w))", value), (f"x^{n} + y^{n}", oracle)):
        if not np.isfinite(m).all():
            raise NumericalError(f"{name} overflows the float range at "
                                 f"level {points.shape[-1]}")
    return rel_dist(value, oracle).tolist()


def verify_girard_random(n: int, levels: Iterable[int] = (2, 3),
                         trials: int = 20, tol: Optional[float] = None,
                         rng: Optional[np.random.Generator] = None,
                         seed: Optional[int] = None) -> Report:
    """Sampled verification over random pairs with v invertible.

    P_n is built once.  The trials of a level are drawn as one block,
    tested for v invertible with one batched SVD, mapped through pi as
    one stack and evaluated as one stack; tol defaults to 1e-7 for n < 0
    and 1e-8 otherwise.  Inadmissible draws (singular inverses for
    negative indices) are redrawn together, the others kept, up to
    RESAMPLE_CAP draws per trial; exhausting that raises DomainError, and
    each check records the redrawn count as its resamples.  A sample at
    which P_n(pi(w)) or x^n + y^n overflows raises NumericalError.  No
    levels or no trials would give a verdict without a sample, so either
    raises PreconditionError, as do more than SAMPLE_BUDGET samples, a
    level below 1, a tol that is not finite and positive and, when no rng
    is given, a negative seed.  A failing level's witness is its first
    failing trial.
    """
    levels = tuple(levels)
    require_samples(levels, trials)
    if min(levels) < 1:
        raise PreconditionError(f"levels must each be at least 1, "
                                f"got {levels}")
    if rng is None and seed is not None and seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    if tol is None:
        tol = 1e-7 if n < 0 else 1e-8
    require_positive("tol", tol)
    rng = rng if rng is not None else np.random.default_rng(seed)
    p = girard_pair(n).P
    report = Report(seed=seed, tolerances={"residual": tol})
    with np.errstate(over="ignore", invalid="ignore"):
        for level in levels:
            _, measured, redrawn = sample_nonsingular(
                lambda count: random_tuples(count, level, 2,
                                            ("v-invertible",), rng),
                lambda points: _residuals(n, p, points), trials,
                DomainError(f"no admissible level-{level} sample for "
                            f"P_{n} in {RESAMPLE_CAP} draws"))
            report.add_worst(f"girard-n={n}-level={level}-x{trials}",
                             (({"trial": t}, r) for t, r in
                              enumerate(measured)), tol).resamples = redrawn
    return report
