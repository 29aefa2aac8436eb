"""The four seeded workloads: every task the benchmark times, with its check.

A workload is one cycle of tasks, generated from the seed and repeated
until the run's time is used up.  Each cycle holds a fixed number of
tasks of each kind, and the seed draws only the matrices and polynomials,
so the mix (and with it the latency quantiles) does not depend on the
seed.  Cycle lengths end in 5: with whole cycles, the median and the 90th
percentile then fall on the middle of one task's repeats rather than
between two different tasks.

The program receives only the generated inputs.  Every call goes through a
module attribute of ncsym at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import ncsym
from ncsym import (cli, domains, girard, parsing, ratexpr, sqrtlib, symbasis,
                   verify)
from ncsym.words import FreePoly, MatrixTuple

import oracles

# Per-task time limits in seconds, far above the slowest successful task of
# each workload (about 2 s, 0.2 s, 0.15 s and 0.4 s on a 2-core x86 VM).
LIMITS = {"spectral-wide": 20.0, "spectral-deep": 5.0, "identities": 5.0,
          "cli": 10.0}


def _no_check(_result) -> Optional[str]:
    return None


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]] = _no_check
    expect: Optional[str] = None   # error class name, or "exit<k>" for the CLI


@dataclass
class Proc:
    """What a CLI invocation returned."""

    code: int
    out: str
    err: str
    raw: bool             # a Python traceback escaped main()
    maxrss_kb: int = 0    # of the subprocess; 0 when run in-process


@dataclass
class Workload:
    name: str
    tasks: list
    limit: float
    warmup: Task
    files: Optional[str] = None    # generated input files, removed by close()

    def close(self) -> None:
        if self.files:
            shutil.rmtree(self.files, ignore_errors=True)


# -- matrices with known spectral data ---------------------------------------------

@dataclass
class Spectral:
    x: np.ndarray
    P: np.ndarray
    eigs: np.ndarray
    labels: np.ndarray      # cluster per eigenvalue, -1 for a zero eigenvalue


def ginibre(n: int, rng) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) \
        / np.sqrt(2.0)


def similarity(n: int, rng) -> np.ndarray:
    while True:
        p = np.eye(n, dtype=complex) + 0.35 * ginibre(n, rng)
        if np.linalg.cond(p) < 50:
            return p


def circle_centers(k: int, rng, radius: Optional[float] = None) -> np.ndarray:
    """k centers on a circle, spaced evenly and kept off the negative axis."""
    radius = rng.uniform(2.5, 3.5) if radius is None else radius
    if k == 1:
        theta = np.array([rng.uniform(-1.0, 1.0)])
    else:
        theta = np.linspace(-np.pi + 0.7, np.pi - 0.7, k) \
            + rng.uniform(-0.1, 0.1)
    return radius * np.exp(1j * theta)


def clustered(rng, centers, sizes, spread: float, zeros: int = 0,
              jordan_zero: bool = False) -> Spectral:
    """P diag(eigs) P^-1 with clusters of the given sizes around centers.

    Offsets are recentered so each cluster's mean is its center, and
    scaled so the farthest member lies exactly `spread` away.  zeros adds
    semisimple zero eigenvalues; jordan_zero adds a nilpotent 2x2 block.
    """
    eigs, labels = [], []
    for idx, (c, m) in enumerate(zip(centers, sizes)):
        off = np.sqrt(rng.uniform(size=m)) \
            * np.exp(2j * np.pi * rng.uniform(size=m))
        off = off - off.mean()
        if m > 1:
            off *= spread / np.abs(off).max()
        eigs.extend(c + off)
        labels.extend([idx] * m)
    eigs.extend([0.0] * (zeros + 2 * jordan_zero))
    labels.extend([-1] * (zeros + 2 * jordan_zero))
    eigs = np.array(eigs, dtype=complex)
    n = len(eigs)
    j = np.diag(eigs)
    if jordan_zero:
        j[n - 2, n - 1] = 1.0
    p = similarity(n, rng)
    return Spectral(p @ j @ np.linalg.inv(p), p, eigs, np.array(labels))


def split_sizes(n: int, k: int) -> list:
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def roots_task(kind: str, s: Spectral, gap: float,
               extension: bool = False) -> Task:
    def run():
        return sqrtlib.all_square_roots(s.x, gap=gap)

    def check(rs):
        if rs.extension != extension:
            return f"extension flag {rs.extension}, expected {extension}"
        return oracles.check_root_set(rs.roots, s.P, s.eigs, s.labels)

    return Task(kind, run, check)


def refusal_task(kind: str, x: np.ndarray, gap: float, expect: str) -> Task:
    return Task(kind, lambda: sqrtlib.all_square_roots(x, gap=gap),
                expect=expect)


def exists_task(kind: str, x: np.ndarray, want: bool) -> Task:
    return Task(kind, lambda: sqrtlib.sqrt_exists(x),
                lambda got: None if got is want else f"got {got}")


# -- pairs for the symmetrization map -------------------------------------------

@dataclass
class Pair:
    w0: np.ndarray
    w1: np.ndarray
    lam: np.ndarray     # eigenvalues of v
    blocks: int         # diagonal blocks of u in v's eigenbasis

    @property
    def u(self):
        return 0.5 * (self.w0 + self.w1)

    @property
    def v(self):
        return 0.5 * (self.w0 - self.w1)


def masked_pair(level: int, rng, blocks: int = 1) -> Pair:
    """w = (u + v, u - v) with v diagonalizable in Q and u block-masked.

    In v's eigenbasis, u has nonzero entries inside `blocks` groups of
    indices and zeros between them, so the fiber of pi through w has
    2^blocks points (2 for blocks = 1, the generic case).
    """
    while True:
        lam = rng.uniform(0.5, 1.5, level) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi, level))
        sums = np.abs(lam[:, None] + lam[None, :])
        diffs = np.abs(lam[:, None] - lam[None, :]) + np.eye(level)
        if sums.min() < 0.05 or diffs.min() < 0.05:
            continue
        a = ginibre(level, rng)
        if np.abs(a).min() < 0.05:
            continue
        # Blocks interleave in the order in which the program sorts the
        # clusters of v^2, so in_U_gamma meets its first commuting sign
        # pattern after the same number of steps for every seed.
        sq = lam ** 2
        group = np.empty(level, dtype=int)
        group[np.lexsort((sq.imag, sq.real))] = np.arange(level) % blocks
        a[group[:, None] != group[None, :]] = 0.0
        p = similarity(level, rng)
        p_inv = np.linalg.inv(p)
        u = p @ a @ p_inv
        v = p @ np.diag(lam) @ p_inv
        return Pair(u + v, u - v, lam, blocks)


def fiber_task(kind: str, pair: Pair) -> Task:
    w = MatrixTuple((pair.w0, pair.w1))

    def check(points):
        return oracles.check_fiber([(p[0], p[1]) for p in points],
                                   pair.w0, pair.w1, pair.blocks)

    return Task(kind, lambda: domains.fiber(w), check)


def u_gamma_task(kind: str, pair: Pair) -> Task:
    u, v = pair.u, pair.v
    x = v @ v
    centers = pair.lam ** 2
    delta = domains.SimpleSet(centers, domains.default_radius(centers))
    want = pair.blocks == 1
    return Task(kind, lambda: domains.in_U_gamma(u, x, delta),
                lambda got: None if got is want else f"got {got}")


# -- spectral-wide ------------------------------------------------------------------

def spectral_wide(rng) -> list:
    """Many small clusters: the 2^k root loop and 4^k pairwise check.

    Tasks come in latency bands (about 1-10 ms, 20 ms, 80 ms, 250 ms and
    1.3 s on a 2-core x86 VM).  The 20 ms band holds the median and the
    250 ms band the 90th percentile, each with several tasks, so that
    neither quantile rests on the repeats of one task.
    """
    tasks = []
    for k, sizes in ((3, (1, 2)), (4, (1, 2)), (5, (1, 2)), (5, (2, 1)),
                     (6, (1, 2)), (6, (2, 1)), (7, (1, 2)), (7, (2, 1)),
                     (8, (1, 2))):
        s = clustered(rng, circle_centers(k, rng),
                      [sizes[i % 2] for i in range(k)], 0.05)
        tasks.append(roots_task(f"roots k={k} n={len(s.eigs)}", s, gap=0.3))
    for level, copies in ((3, 1), (4, 1), (5, 3), (6, 2), (7, 2)):
        for i in range(copies):
            tasks.append(fiber_task(f"fiber generic level={level} #{i}",
                                    masked_pair(level, rng)))
    for level, copies in ((3, 1), (4, 1), (5, 1), (6, 2), (7, 2)):
        for i in range(copies):
            tasks.append(u_gamma_task(f"in_U_gamma generic level={level} #{i}",
                                      masked_pair(level, rng)))
    for level, blocks in ((4, 2), (5, 2), (5, 3), (6, 2), (7, 2), (7, 3)):
        tasks.append(fiber_task(f"fiber masked level={level} blocks={blocks}",
                                masked_pair(level, rng, blocks)))
    for level, blocks in ((4, 2), (5, 3), (6, 2), (7, 3)):
        tasks.append(u_gamma_task(
            f"in_U_gamma masked level={level} blocks={blocks}",
            masked_pair(level, rng, blocks)))
    return tasks


# -- spectral-deep ------------------------------------------------------------------

def spectral_deep(rng) -> list:
    """Few clusters of many eigenvalues, zero blocks and refusals.

    Every (n, k) pair with n = 6..20 and k = 1..4 appears twelve times per
    cycle with fresh matrices.  Whether an input is refused depends mostly
    on the condition of its eigenvector matrix, so it is close to a coin
    toss for n = 12..16; twelve repeats keep the share of refusals, and
    with it the rank of the median, steady from seed to seed.
    """
    tasks, mains = [], []
    for rep in range(12):
        for k in range(1, 5):
            for n in range(6, 21):
                s = clustered(rng, circle_centers(k, rng), split_sizes(n, k),
                              rng.uniform(0.05, 0.3))
                mains.append(s)
                tasks.append(roots_task(f"roots n={n} k={k} #{rep}", s,
                                        gap=1.0))
    extensions = []
    for i in range(10):
        k, n, zeros = 1 + i % 3, 5 + i % 6, 1 + i % 2
        s = clustered(rng, circle_centers(k, rng), split_sizes(n, k),
                      rng.uniform(0.05, 0.3), zeros=zeros)
        extensions.append(s)
        tasks.append(roots_task(f"roots extension n={n + zeros} k={k} #{i}",
                                s, gap=1.0, extension=True))
    defective = []
    for i in range(8):
        k = 1 + i % 3
        s = clustered(rng, circle_centers(k, rng), [2] * k,
                      rng.uniform(0.05, 0.3), jordan_zero=True)
        defective.append(s)
        tasks.append(refusal_task(f"roots defective k={k} #{i}", s.x, 1.0,
                                  "UnsupportedError"))
    for i in range(8):
        k = 2 + i % 3
        centers = circle_centers(k, rng)
        s = clustered(rng, centers, split_sizes(8, k), 0.1)
        tasks.append(refusal_task(f"roots coarse-gap k={k} #{i}", s.x,
                                  2.2 * float(np.abs(centers).max()),
                                  "ClusteringError"))
    for i in range(3):
        s = clustered(rng, circle_centers(2, rng), [20, 20], 0.02)
        tasks.append(refusal_task(f"roots envelope n=40 #{i}", s.x, 0.5,
                                  "NumericalError"))
    for i in range(2):
        tasks.append(exists_task(f"sqrt_exists invertible #{i}",
                                 mains[17 + 100 * i].x, True))
        tasks.append(exists_task(f"sqrt_exists extension #{i}",
                                 extensions[i].x, True))
        tasks.append(exists_task(f"sqrt_exists defective #{i}",
                                 defective[i].x, False))
    return tasks


# -- identities ---------------------------------------------------------------------

def random_pair(level: int, rng, negative: bool = False) -> Pair:
    """Gaussian pair with v (and for negative powers every inverse the
    Girard expressions use) comfortably invertible."""
    while True:
        w0, w1 = ginibre(level, rng), ginibre(level, rng)
        u, beta, gamma = oracles.pi_of(w0, w1)
        mats = [0.5 * (w0 - w1), beta]
        if negative:
            inv = np.linalg.inv
            mats += [w0, w1, u, gamma,
                     u - beta @ inv(gamma) @ beta,
                     beta - gamma @ inv(beta) @ u,
                     beta - u @ inv(beta) @ gamma,
                     gamma - beta @ inv(u) @ beta]
        if all(np.linalg.cond(m) < 1e3 for m in mats):
            return Pair(w0, w1, np.zeros(0), 1)


def symmetric_poly(rng, degree: int) -> dict:
    """p + swap(p) for p with words of lengths degree, degree-1, ...

    The word lengths are fixed, so the cost of expanding the polynomial
    does not depend on the seed; letters and integer coefficients are
    random, and integers keep the arithmetic exact.
    """
    while True:
        p: dict = {}
        for length in {max(1, degree - i) for i in range(4)}:
            word = tuple((("x", "y")[int(b)], 1)
                         for b in rng.integers(0, 2, length))
            coeff = complex(int(rng.integers(1, 4)), int(rng.integers(-3, 4)))
            p = oracles.poly_add(p, {word: coeff})
        sym = oracles.poly_add(p, oracles.swap_xy(p))
        if sym:
            return sym


def to_freepoly(poly: dict) -> FreePoly:
    index = {"x": 0, "y": 1}
    return FreePoly(2, {tuple(index[nm] for nm, _ in w): c
                        for w, c in poly.items()})


def poly_text(poly: dict) -> str:
    parts = []
    for word, c in poly.items():
        coeff = f"({c.real:g}{c.imag:+g}i)" if c.imag else f"({c.real:g})"
        parts.append("*".join([coeff] + [nm for nm, _ in word]))
    return " + ".join(parts)


def parse_task(rng) -> Task:
    """A random expression with products of binomials and powers."""
    expected: dict = {}
    pieces = []
    for _ in range(int(rng.integers(2, 5))):
        coeff = int(rng.integers(1, 4)) * (1 if rng.uniform() < 0.5 else -1)
        term = {(): complex(coeff)}
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            a, b = ("x", "y")[int(rng.integers(0, 2))], \
                ("x", "y")[int(rng.integers(0, 2))]
            choice = int(rng.integers(0, 3))
            if choice == 0:
                factors.append(a)
                f = {((a, 1),): 1}
            elif choice == 1:
                factors.append(f"{a}^2")
                f = {((a, 1), (a, 1)): 1}
            else:
                m = int(rng.integers(1, 3))
                factors.append(f"({a} - {m}*{b})")
                f = oracles.poly_add({((a, 1),): 1}, {((b, 1),): -m})
            term = oracles.poly_mul(term, f)
        body = "*".join([str(abs(coeff))] + factors)
        pieces.append(("- " if coeff < 0 else "+ ") + body)
        expected = oracles.poly_add(expected, term)
    text = " ".join(pieces).lstrip("+ ")
    if text.startswith("- "):
        text = "-" + text[2:]
    want = to_freepoly(expected).terms

    def check(got):
        if not isinstance(got, FreePoly):
            return f"parsed to {type(got).__name__}"
        return None if got.terms == want else f"terms differ for {text!r}"

    return Task("parse", lambda: parsing.parse(text), check)


def decompose_task(rng, degree: int) -> Task:
    poly = symmetric_poly(rng, degree)
    fp = to_freepoly(poly)
    pair = random_pair(3, rng)
    w = MatrixTuple((pair.w0, pair.w1))
    direct = oracles.poly_eval(poly, {"x": pair.w0, "y": pair.w1})
    uv = oracles.xy_to_uv(poly)

    def run():
        g = symbasis.decompose_symmetric(fp)
        expr = symbasis.factor_through_pi(fp)
        t = domains.pi(w)
        value = ratexpr.evaluate(expr, {"alpha": t[0], "beta": t[1],
                                        "gamma": t[2]})
        return g, g.expand_back(), fp.to_uv(), value

    def check(out):
        g, back, to_uv, value = out
        if back != to_uv:
            return "expand_back differs from to_uv"
        gen = {tuple(("U" if a == -1 else f"M{a}", 1) for a in word): c
               for word, c in g.terms.items()}
        if oracles.poly_add(oracles.genpoly_to_uv(gen), uv, -1):
            return "generator words do not expand to the u,v form"
        err = oracles.rel_err(value, direct)
        return None if err <= oracles.VALUE_RTOL else \
            f"value through pi off by {err:.3g}"

    return Task(f"decompose degree={degree}", run, check)


def girard_task(rng, n: int) -> Task:
    pair = random_pair(3, rng, negative=n < 0)
    w = MatrixTuple((pair.w0, pair.w1))
    want = oracles.power_sum(pair.w0, pair.w1, n)
    words = oracles.girard_words(n) if n >= 0 else None
    tol = 1e-6 if n < 0 else oracles.VALUE_RTOL

    def run():
        p = girard.girard_pair(n).P
        t = domains.pi(w)
        value = ratexpr.evaluate(p, {"alpha": t[0], "beta": t[1],
                                     "gamma": t[2]})
        return value, (girard.table_expression(n) if n >= 0 else None)

    def check(out):
        value, table = out
        err = oracles.rel_err(value, want)
        if err > tol:
            return f"P_{n}(pi(w)) off the power sum by {err:.3g}"
        return None if words is None else oracles.check_word_dict(table, words)

    return Task(f"girard n={n}", run, check)


def report_task(kind: str, run: Callable, checks: int = 0) -> Task:
    def check(report):
        if not report.checks or (checks and len(report.checks) != checks):
            return f"{len(report.checks)} checks"
        return None if report.passed else \
            f"failed: {[c.name for c in report.failures()]}"

    return Task(kind, run, check)


def equivalence_task(n: int, seed: int) -> Task:
    def run():
        u, v = ratexpr.Variable("u"), ratexpr.Variable("v")
        p = ratexpr.substitute(girard.girard_pair(n).P,
                               {"alpha": u, "beta": v * v, "gamma": v * u * v})
        return ratexpr.equivalent_probabilistic(
            p, girard.girard_via_T(n)[0], levels=(1, 2, 3), trials=5,
            rng=np.random.default_rng(seed))

    return Task(f"equivalent n={n}", run,
                lambda verdict: None if verdict.equal_on_samples else
                f"unequal, residual {verdict.residual:.3g}")


def identities(rng) -> list:
    """Word algebra and rational-expression DAGs; no spectral work.

    Nine tasks of about 2-3 ms on a 2-core x86 VM (run_suite anc, girard
    n=9, decompose degree 4, verify_girard_random n=1..3) sit in the
    middle of the cycle, so that the median falls inside them rather than
    on a jump between two tasks.
    """
    tasks = [parse_task(rng) for _ in range(5)]
    tasks += [decompose_task(rng, d) for d in (2, 3, 4, 4, 5, 5, 6, 7, 8)]
    tasks += [girard_task(rng, n) for n in range(-5, 15)]
    for n in (1, 2, 2, 3, -1, 5, 7, 9, -3):
        seed = int(rng.integers(1 << 30))
        tol = 1e-7 if n < 0 else 1e-8
        tasks.append(report_task(
            f"verify_girard_random n={n}",
            lambda n=n, seed=seed, tol=tol: girard.verify_girard_random(
                n, levels=(2, 3), trials=5, tol=tol, seed=seed), checks=2))
    tasks += [equivalence_task(n, int(rng.integers(1 << 30)))
              for n in (-3, -2, -1, 2, 3, 6)]
    for suite in ("nc", "nc", "anc", "anc", "pascoe", "symbasis"):
        seed = int(rng.integers(1 << 30))
        tasks.append(report_task(
            f"run_suite {suite}",
            lambda suite=suite, seed=seed: verify.run_suite(suite, seed=seed)))
    return tasks


# -- cli ------------------------------------------------------------------------------

def tuple_json(*mats) -> dict:
    return {"n": int(mats[0].shape[0]), "d": len(mats),
            "entries": [[[[float(z.real), float(z.imag)] for z in row]
                         for row in m] for m in mats]}


def json_matrices(data: dict) -> list:
    return [np.array([[complex(re, im) for re, im in row] for row in m])
            for m in data["entries"]]


def run_subprocess(argv: list, env: dict, cwd: str, limit: float,
                   scratch: str) -> Proc:
    """Run one command; the rusage of exactly this child gives its RSS."""
    with tempfile.TemporaryFile(dir=scratch) as err_file:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_file,
                                env=env, cwd=cwd)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read().decode(errors="replace")
    if proc.returncode == -9:
        raise TimeoutError(" ".join(argv[-3:]))
    return Proc(proc.returncode, out.decode(errors="replace"), err,
                "Traceback (most recent call last)" in err, usage.ru_maxrss)


def run_inprocess(argv: list) -> Proc:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Proc(code, out.getvalue(), err.getvalue(), False)


def cli_workload(rng, root: str, scratch: str, inprocess: bool,
                 limit: float) -> tuple:
    """Every subcommand on small generated files, including exits 1-3."""
    files = tempfile.mkdtemp(prefix="cli-", dir=scratch)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"),
                      os.environ.get("PYTHONPATH")])))

    def put(name: str, data) -> str:
        path = os.path.join(files, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def task(kind, argv, check=_no_check, expect=None) -> Task:
        cmd = [sys.executable, "-m", "ncsym.cli"] + argv

        def run():
            if inprocess:
                return run_inprocess(argv)
            return run_subprocess(cmd, env, root, limit, scratch)

        return Task(kind, run, check, expect)

    def stdout_json(check):
        def wrapped(text):
            return check(json.loads(text.splitlines()[-1]))
        return wrapped

    def words_of(n):
        want = oracles.girard_words(n)
        return lambda text: oracles.check_word_dict(
            oracles.parse_monomials(text.splitlines()[0]), want)

    def value_is(want):
        return stdout_json(lambda d: None if d["value"] is want
                           else f"value {d['value']}")

    tasks = [task("girard n=3", ["girard", "--n", "3"], words_of(3)),
             task("girard n=12", ["girard", "--n", "12"], words_of(12)),
             task("girard n=7", ["girard", "--n", "7"], words_of(7)),
             task("girard n=-2 verify",
                  ["girard", "--n", "-2", "--verify", "--levels", "2,3",
                   "--trials", "5", "--seed", str(int(rng.integers(1000)))],
                  stdout_json(lambda d: None if d["passed"] else "failed"))]

    poly = symmetric_poly(rng, 4)
    pair = random_pair(3, rng)
    direct = oracles.poly_eval(poly, {"x": pair.w0, "y": pair.w1})
    uv = oracles.xy_to_uv(poly)
    u, beta, gamma = oracles.pi_of(pair.w0, pair.w1)

    def decomposed(d):
        gen = oracles.genpoly_to_uv(oracles.parse_monomials(d["genpoly"]))
        if oracles.poly_add(gen, uv, -1):
            return "genpoly does not expand to the u,v form"
        value = oracles.poly_eval(oracles.parse_monomials(d["ratexpr"]),
                                  {"alpha": u, "beta": beta, "gamma": gamma})
        err = oracles.rel_err(value, direct)
        return None if err <= oracles.VALUE_RTOL else f"ratexpr off by {err:.3g}"

    tasks += [task("decompose", ["decompose", "--expr", poly_text(poly)],
                   stdout_json(decomposed)),
              task("decompose not symmetric", ["decompose", "--expr", "x*y"],
                   expect="exit2"),
              task("decompose parse error", ["decompose", "--expr", "(x+y"],
                   expect="exit3")]

    s3 = clustered(rng, circle_centers(3, rng), [1, 2, 1], 0.05)
    ext = clustered(rng, circle_centers(2, rng), [2, 2], 0.1, zeros=1)
    bad = clustered(rng, circle_centers(2, rng), [2, 2], 0.1, jordan_zero=True)
    m3, mext, mbad = (put(f"{name}.json", tuple_json(s.x)) for name, s in
                      (("m3", s3), ("ext", ext), ("defective", bad)))

    def roots_of(s, extension):
        def check(d):
            if not d["exists"] or d["enumeration"]["extension"] != extension:
                return f"exists {d['exists']}, enumeration header wrong"
            roots = [json_matrices({"entries": [r]})[0]
                     for r in d["enumeration"]["roots"]]
            return oracles.check_root_set(roots, s.P, s.eigs, s.labels)
        return stdout_json(check)

    tasks += [task("sqrt enumerate k=3",
                   ["sqrt", "--matrix", m3, "--enumerate", "--gap", "0.3"],
                   roots_of(s3, False)),
              task("sqrt enumerate extension",
                   ["sqrt", "--matrix", mext, "--enumerate", "--gap", "1.0"],
                   roots_of(ext, True)),
              task("sqrt coarse gap",
                   ["sqrt", "--matrix", m3, "--enumerate", "--gap", "20"],
                   expect="exit1"),
              task("sqrt defective", ["sqrt", "--matrix", mbad],
                   stdout_json(lambda d: None if d["exists"] is False
                               else "root reported for a defective block"))]

    generic = masked_pair(4, rng)
    masked = masked_pair(5, rng, 2)
    singular = masked_pair(4, rng)
    sv = singular.v - singular.lam[0] * np.eye(4)
    pair_f, masked_f, singular_f = (
        put(f"{name}.json", tuple_json(p.w0, p.w1)) for name, p in
        (("pair", generic), ("masked", masked),
         ("singular", Pair(singular.u + sv, singular.u - sv, singular.lam, 1))))

    def fiber_of(p):
        return stdout_json(lambda d: oracles.check_fiber(
            [json_matrices(pt) for pt in d["fiber"]], p.w0, p.w1, p.blocks))

    tasks += [task("pi", ["pi", "--input", pair_f],
                   stdout_json(lambda d: oracles.check_pi(
                       json_matrices(d), generic.w0, generic.w1))),
              task("fiber generic", ["fiber", "--input", pair_f],
                   fiber_of(generic)),
              task("fiber masked", ["fiber", "--input", masked_f],
                   fiber_of(masked)),
              task("fiber singular v", ["fiber", "--input", singular_f],
                   expect="exit2")]

    for suite in ("nc", "anc", "pascoe", "symbasis"):
        tasks.append(task(f"verify {suite}",
                          ["verify", "--suite", suite,
                           "--seed", str(int(rng.integers(1000)))],
                          stdout_json(lambda d: None if d["passed"]
                                      else "suite failed")))

    centers = ",".join(f"{c.real:.9f}{c.imag:+.9f}i" for c in
                       (s3.eigs[s3.labels == i].mean() for i in range(3)))
    ux = put("ux.json", tuple_json(generic.u, generic.v @ generic.v))
    sq = generic.lam ** 2
    sq_centers = ",".join(f"{c.real:.12f}{c.imag:+.12f}i" for c in sq)
    sq_radius = 0.5 * min(np.abs(sq).min(),
                          0.25 * min(abs(a - b) for i, a in enumerate(sq)
                                     for b in sq[i + 1:]))
    scaled = 0.5 / max(oracles.norm2(generic.w0), oracles.norm2(generic.w1))
    delta = put("delta.json", [[f"{scaled:.6f}*x", "0"], ["0", "y"]])
    bdelta = max(scaled * oracles.norm2(generic.w0),
                 oracles.norm2(generic.w1)) < 1.0
    tasks += [task("check-domain Q", ["check-domain", "--pred", "Q",
                                      "--matrix", m3], value_is(True)),
              task("check-domain I", ["check-domain", "--pred", "I",
                                      "--matrix", mbad], value_is(False)),
              task("check-domain So", ["check-domain", "--pred", "So",
                                       "--tuple", pair_f], value_is(True)),
              task("check-domain D", ["check-domain", "--pred", "D",
                                      "--matrix", m3, f"--centers={centers}",
                                      "--radius", "0.25"], value_is(True)),
              task("check-domain Ugamma",
                   ["check-domain", "--pred", "Ugamma", "--tuple", ux,
                    f"--centers={sq_centers}", "--radius", f"{sq_radius:.9f}"],
                   value_is(True)),
              task("check-domain Bdelta",
                   ["check-domain", "--pred", "Bdelta", "--tuple", pair_f,
                    "--delta", delta], value_is(bdelta))]
    return tasks, files


# -- building a workload ---------------------------------------------------------------

NAMES = ("spectral-wide", "spectral-deep", "identities", "cli")


def build(name: str, seed: int, root: str, scratch: str,
          inprocess: bool = False) -> Workload:
    """The workload's task cycle, generated from the seed alone."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    limit = LIMITS[name]
    files = None
    if name == "spectral-wide":
        tasks = spectral_wide(rng)
        warmup = roots_task("warm-up", clustered(
            rng, circle_centers(3, rng), [1, 1, 1], 0.05), gap=0.3)
    elif name == "spectral-deep":
        tasks = spectral_deep(rng)
        warmup = roots_task("warm-up", clustered(
            rng, circle_centers(2, rng), [3, 3], 0.1), gap=1.0)
    elif name == "identities":
        tasks = identities(rng)
        warmup = girard_task(rng, 3)
    else:
        tasks, files = cli_workload(rng, root, scratch, inprocess, limit)
        warmup = tasks[0]
    return Workload(name, tasks, limit, warmup, files)


def reference_rows(root: str, scratch: str) -> list:
    """The ROADMAP baseline measurements, rerun once: (label, ms, note)."""
    rows = []
    rng = np.random.default_rng(1)
    for k, m, roadmap in ((4, 2, "24 ms"), (6, 2, "146 ms"), (8, 1, "0.91 s")):
        s = clustered(rng, 3.0 * np.exp(1j * np.linspace(-2.5, 2.5, k)),
                      [m] * k, 0.02)
        t0 = time.perf_counter()
        rs = sqrtlib.all_square_roots(s.x, gap=0.1)
        rows.append((f"all_square_roots {k}x{m} (n={k * m})",
                     1e3 * (time.perf_counter() - t0),
                     f"{len(rs)} roots; ROADMAP {roadmap}"))
    for level, roadmap in ((5, "17 ms"), (6, "56 ms"), (7, "224 ms")):
        w = ncsym.linalg.random_tuple(level, 2, ("generic-u",),
                                      np.random.default_rng(3))
        t0 = time.perf_counter()
        points = domains.fiber(w)
        rows.append((f"fiber generic-u level {level}",
                     1e3 * (time.perf_counter() - t0),
                     f"{len(points)} points; ROADMAP {roadmap}"))
    for n, roadmap in ((12, "10 ms"), (14, "40 ms")):
        t0 = time.perf_counter()
        words = girard.table_expression(n)
        rows.append((f"table_expression n={n}",
                     1e3 * (time.perf_counter() - t0),
                     f"{len(words)} words; ROADMAP {roadmap}"))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = run_subprocess([sys.executable, "-m", "ncsym.cli", "girard",
                           "--n", "3"], env, root, 60.0, scratch)
    rows.append(("cli girard --n 3", 1e3 * (time.perf_counter() - t0),
                 f"exit {proc.code}; ROADMAP about 0.22 s"))
    return rows
