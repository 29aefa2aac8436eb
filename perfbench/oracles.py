"""Independent oracles and failure sorting for the benchmark.

Nothing here imports ncsym: every check is computed from what the input
generator knows (eigendecompositions, block masks, the words of x^n + y^n)
with plain numpy, so a defect in the program cannot also hide in its check.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional, Sequence

import numpy as np

FAIL_KINDS = ("wrong_result", "false_refusal", "wrong_error",
              "raw_exception", "over_limit")

ROOT_RTOL = 1e-6     # root matrices against P diag(+-sqrt(lambda)) P^-1
PI_RTOL = 1e-7       # fiber points and pi values against pi(w)
VALUE_RTOL = 1e-7    # evaluated expressions against direct matrix formulas


def norm2(a) -> float:
    a = np.asarray(a, dtype=complex)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def rel_err(a, b) -> float:
    return norm2(np.asarray(a) - np.asarray(b)) / (1.0 + norm2(b))


# -- outcome sorting -------------------------------------------------------------

def classify(expect: Optional[str], error: Optional[str], raw: bool,
             timed_out: bool, problem: Optional[str]) -> Optional[str]:
    """The fail.* bucket of one task, or None when it passed.

    expect: error class name (or "exit<k>" for the CLI) the task must
    raise, None when it must return a result.  error: what was raised
    (or the nonzero exit).  raw: the error escaped the package's error
    classes.  problem: what the oracle found wrong with a returned result.
    """
    if timed_out:
        return "over_limit"
    if raw:
        return "raw_exception"
    if expect is None:
        if error is not None:
            return "false_refusal"
        return "wrong_result" if problem is not None else None
    if error != expect:
        return "wrong_error"
    return None


# -- square roots inside alg(x) ----------------------------------------------------

def check_root_set(roots: Sequence[np.ndarray], P: np.ndarray,
                   eigs: np.ndarray, labels: np.ndarray) -> Optional[str]:
    """The roots must be exactly {P diag(tau_c(i) sqrt(lambda_i)) P^-1}.

    labels[i] is the cluster of eigenvalue i, or -1 for a zero eigenvalue
    (which maps to 0).  Every one of the 2^k sign patterns must appear
    once; each root is matched to its pattern through P^-1 root P.
    """
    k = int(labels.max()) + 1 if (labels >= 0).any() else 0
    if len(roots) != 2 ** k:
        return f"expected 2^{k} = {2 ** k} roots, got {len(roots)}"
    p_inv = np.linalg.inv(P)
    s = np.sqrt(eigs.astype(complex))
    s[labels < 0] = 0.0
    seen = set()
    for r in roots:
        d = np.diag(p_inv @ np.asarray(r, dtype=complex) @ P)
        tau = []
        for c in range(k):
            members = labels == c
            signs = np.sign((d[members] / s[members]).real)
            if not (signs == signs[0]).all():
                return f"root mixes signs inside cluster {c}"
            tau.append(int(signs[0]))
        target = P @ np.diag(s * _expand(tau, labels)) @ p_inv
        err = rel_err(r, target)
        if err > ROOT_RTOL:
            return f"root for signs {tau} is off by {err:.3g}"
        seen.add(tuple(tau))
    if len(seen) != 2 ** k:
        return f"only {len(seen)} distinct sign patterns among the roots"
    return None


def _expand(tau, labels) -> np.ndarray:
    return np.array([tau[c] if c >= 0 else 0 for c in labels], dtype=float)


# -- the symmetrization map and its fibers -------------------------------------------

def pi_of(w0: np.ndarray, w1: np.ndarray) -> tuple:
    u = 0.5 * (w0 + w1)
    v = 0.5 * (w0 - w1)
    return u, v @ v, v @ u @ v


def check_pi(got: Sequence[np.ndarray], w0, w1) -> Optional[str]:
    want = pi_of(w0, w1)
    if len(got) != 3:
        return f"pi returned {len(got)} matrices"
    err = max(rel_err(g, t) for g, t in zip(got, want))
    return None if err <= PI_RTOL else f"pi value off by {err:.3g}"


def check_fiber(points: Sequence[tuple], w0, w1, components: int
                ) -> Optional[str]:
    """Each point reproduces pi(w); there are 2^components distinct ones.

    components is the number of diagonal blocks the generator left in u
    (in v's eigenbasis): 1 for generic u, 2 or 3 for masked u.
    """
    if len(points) != 2 ** components:
        return (f"expected {2 ** components} fiber points, "
                f"got {len(points)}")
    want = pi_of(w0, w1)
    vs = []
    for a, b in points:
        got = pi_of(np.asarray(a), np.asarray(b))
        err = max(rel_err(g, t) for g, t in zip(got, want))
        if err > PI_RTOL:
            return f"fiber point misses pi(w) by {err:.3g}"
        vs.append(0.5 * (np.asarray(a) - np.asarray(b)))
    for x, y in itertools.combinations(vs, 2):
        if rel_err(x, y) <= 1e-6:
            return "fiber points repeat"
    return None


# -- power sums and Girard words -------------------------------------------------------

def power_sum(w0: np.ndarray, w1: np.ndarray, n: int) -> np.ndarray:
    return np.linalg.matrix_power(w0, n) + np.linalg.matrix_power(w1, n)


def girard_words(n: int) -> dict:
    """Expanded P_n for n >= 0 as {word: 2}, words over atoms (name, +-1).

    x^n + y^n is twice the sum of the even-v words of length n in u, v;
    each factors uniquely into u and blocks v u^j v, which become alpha,
    beta (j = 0) and gamma (beta^-1 gamma)^(j-1).  Distinct words give
    distinct images, so every coefficient is exactly 2.
    """
    if n == 0:
        return {(): 2}
    out = {}
    alpha, beta, gamma, beta_inv = (("alpha", 1), ("beta", 1),
                                    ("gamma", 1), ("beta", -1))
    for word in itertools.product((0, 1), repeat=n):
        if sum(word) % 2:
            continue
        atoms = []
        i = 0
        while i < n:
            if word[i] == 0:
                atoms.append(alpha)
                i += 1
                continue
            j = word.index(1, i + 1)
            run = j - i - 1
            if run == 0:
                atoms.append(beta)
            else:
                atoms.append(gamma)
                atoms.extend([beta_inv, gamma] * (run - 1))
            i = j + 1
        out[tuple(atoms)] = 2
    return out


def check_word_dict(got: dict, want: dict) -> Optional[str]:
    if set(got) != set(want):
        return (f"{len(set(got) ^ set(want))} words differ "
                f"({len(got)} vs {len(want)})")
    bad = [w for w in want if got[w] != want[w]]
    return f"{len(bad)} coefficients differ" if bad else None


# -- free polynomials held as plain dicts ----------------------------------------------

def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}


def poly_add(a: dict, b: dict, scale: complex = 1) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c != 0}


def poly_eval(poly: dict, mats: dict) -> np.ndarray:
    """Evaluate {word: coeff}; a word is a tuple of (name, exponent)."""
    n = next(iter(mats.values())).shape[0]
    cache: dict = {(): np.eye(n, dtype=complex)}
    inverses: dict = {}
    out = np.zeros((n, n), dtype=complex)
    for word, coeff in poly.items():
        m = cache[()]
        for i, (name, e) in enumerate(word):
            pref = word[:i + 1]
            nxt = cache.get(pref)
            if nxt is None:
                if e < 0 and name not in inverses:
                    inverses[name] = np.linalg.inv(mats[name])
                base = mats[name] if e > 0 else inverses[name]
                nxt = m @ np.linalg.matrix_power(base, abs(e))
                cache[pref] = nxt
            m = nxt
        out += coeff * m
    return out


def swap_xy(poly: dict) -> dict:
    flip = {"x": "y", "y": "x"}
    return {tuple((flip[nm], e) for nm, e in w): c for w, c in poly.items()}


# -- reading the program's text output --------------------------------------------------

_NUM = r"-?\d+(?:\.\d*)?(?:e[+-]?\d+)?i?"
_COEFF_RE = re.compile(rf"^(\({_NUM}[+-]{_NUM[2:]}\)|{_NUM})\*?(.*)$")


def _complex_literal(text: str) -> complex:
    text = text.strip("()")
    m = re.match(rf"^({_NUM})([+-].*i)?$", text)
    if m is None:
        raise ValueError(f"bad coefficient {text!r}")
    first, second = m.group(1), m.group(2)
    value = complex(0, float(first[:-1])) if first.endswith("i") \
        else complex(float(first), 0)
    if second:
        value += complex(0, float(second[:-1]))
    return value


def parse_monomials(text: str) -> dict:
    """Read a rendered sum of monomials into {word: coefficient}.

    Covers the program's renderings of expanded word polynomials:
    terms joined by ' + ' and ' - ', an optional numeric coefficient, and
    factors name, name^k, inv(name) and inv(name)^k.  Generator names
    U and M<j> are kept as names.
    """
    text = text.strip()
    if text == "0":
        return {}
    terms = re.split(r" (?=[+-] )", text)
    out: dict = {}
    for i, term in enumerate(terms):
        sign = 1
        if i > 0:
            sign = -1 if term[0] == "-" else 1
            term = term[2:]
        if term.startswith("-") and not re.match(r"^-\d", term):
            sign, term = -sign, term[1:]
        m = _COEFF_RE.match(term)
        coeff = 1 + 0j
        if m is not None and (not m.group(2) or term[len(m.group(1))] == "*"):
            coeff = _complex_literal(m.group(1))
            term = m.group(2)
        word = []
        for factor in filter(None, term.split("*")):
            base, _, power = factor.partition("^")
            reps = int(power) if power else 1
            if base.startswith("inv(") and base.endswith(")"):
                atom = (base[4:-1], -1)
            else:
                atom = (base, 1)
            word.extend([atom] * reps)
        key = tuple(word)
        out[key] = out.get(key, 0) + sign * coeff
    return {w: c for w, c in out.items() if c != 0}


def genpoly_to_uv(poly: dict) -> dict:
    """Expand generator words (U, M<j>) into u, v words."""
    out: dict = {}
    for word, coeff in poly.items():
        letters = []
        for name, _ in word:
            if name == "U":
                letters.append(("u", 1))
            else:
                j = int(name[1:])
                letters.extend([("v", 1)] + [("u", 1)] * j + [("v", 1)])
        key = tuple(letters)
        out[key] = out.get(key, 0) + coeff
    return out


def xy_to_uv(poly: dict) -> dict:
    """Substitute x = u + v, y = u - v in a word polynomial over x, y."""
    images = {"x": {(("u", 1),): 1, (("v", 1),): 1},
              "y": {(("u", 1),): 1, (("v", 1),): -1}}
    out: dict = {}
    for word, coeff in poly.items():
        term = {(): coeff}
        for name, _ in word:
            term = poly_mul(term, images[name])
        out = poly_add(out, term)
    return out
