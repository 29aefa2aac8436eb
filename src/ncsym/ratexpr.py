"""Noncommutative rational expressions as DAGs.

Nodes: Variable, Scalar, Sum, Product (ordered children), ScalarMul and
Inverse.  Constructors flatten nested sums/products and fold scalar
arithmetic but perform no other simplification, so generated expressions
keep their structure and sub-DAGs stay shared.

Evaluation substitutes square matrices, or stacks of them, one point
each, for variables bottom-up; an Inverse node whose child is numerically
singular raises SingularityError carrying that sub-expression and the
points where it is singular.  Expansion to a word polynomial over variables and
their formal inverses (with adjacent x*inv(x) pairs cancelled) provides
exact symbolic comparison for expressions that are polynomial in atomic
inverses.

Every walk over a DAG is one loop over _postorder, which lists each shared
node once without recursion, so nesting depth is bounded by memory alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (AssignmentError, ExpansionError, InconclusiveError,
                     NumericalError, PreconditionError, SingularityError)
from .linalg import in_I, op_norms, random_unit_norms
from .words import (TERM_BUDGET, add_terms, format_complex, mul_terms,
                    render_terms)

SINGULARITY_RTOL = 1e-10
RESAMPLE_CAP = 50
SAMPLE_BUDGET = 2 ** 14  # points a sampled verdict may draw, over all levels
TEXT_BUDGET = 2 ** 24  # the longest text to_text writes, in characters


class RatExpr:
    """Base node; use the module constructors or operators to build DAGs."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, scale(-1, _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), scale(-1, self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return scale(-1, self)

    def __pow__(self, k: int):
        return power(self, k)

    def inv(self) -> "RatExpr":
        return inv(self)

    def __repr__(self):
        return f"RatExpr({to_text(self)!r})"


class Variable(RatExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Scalar(RatExpr):
    __slots__ = ("value",)

    def __init__(self, value: complex):
        self.value = complex(value)


class Sum(RatExpr):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[RatExpr]):
        self.children = tuple(children)


class Product(RatExpr):
    __slots__ = ("children",)

    def __init__(self, children: Sequence[RatExpr]):
        self.children = tuple(children)


class ScalarMul(RatExpr):
    __slots__ = ("coeff", "child")

    def __init__(self, coeff: complex, child: RatExpr):
        self.coeff = complex(coeff)
        self.child = child


class Inverse(RatExpr):
    __slots__ = ("child",)

    def __init__(self, child: RatExpr):
        self.child = child


def _coerce(value) -> RatExpr:
    if isinstance(value, RatExpr):
        return value
    if isinstance(value, (int, float, complex)):
        return Scalar(value)
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


ZERO = Scalar(0)
ONE = Scalar(1)


def add(*terms) -> RatExpr:
    """Sum with nested sums flattened, scalars folded, zeros dropped."""
    flat: list[RatExpr] = []
    const = 0j
    for t in map(_coerce, terms):
        if isinstance(t, Sum):
            for c in t.children:
                if isinstance(c, Scalar):
                    const += c.value
                else:
                    flat.append(c)
        elif isinstance(t, Scalar):
            const += t.value
        else:
            flat.append(t)
    if const != 0:
        flat.append(Scalar(const))
    if not flat:
        return Scalar(0)
    if len(flat) == 1:
        return flat[0]
    return Sum(flat)


def mul(*factors) -> RatExpr:
    """Product with nesting flattened and scalar prefactors collected."""
    flat: list[RatExpr] = []
    coeff = 1 + 0j
    for f in map(_coerce, factors):
        if isinstance(f, ScalarMul):
            coeff *= f.coeff
            f = f.child
        if isinstance(f, Scalar):
            coeff *= f.value
        elif isinstance(f, Product):
            flat.extend(f.children)
        else:
            flat.append(f)
    if coeff == 0:
        return Scalar(0)
    core: RatExpr
    if not flat:
        return Scalar(coeff)
    core = flat[0] if len(flat) == 1 else Product(flat)
    return core if coeff == 1 else ScalarMul(coeff, core)


def scale(coeff: complex, e: RatExpr) -> RatExpr:
    coeff = complex(coeff)
    if isinstance(e, ScalarMul):
        coeff, e = coeff * e.coeff, e.child
    if coeff == 0:
        return Scalar(0)
    if isinstance(e, Scalar):
        return Scalar(coeff * e.value)
    if coeff == 1:
        return e
    return ScalarMul(coeff, e)


def inv(e) -> RatExpr:
    e = _coerce(e)
    if isinstance(e, Scalar) and e.value != 0:
        return Scalar(1.0 / e.value)
    return Inverse(e)


def power(e: RatExpr, k: int) -> RatExpr:
    """e^k as one flat product of |k| copies of e, inverted for k < 0.

    ExpansionError before anything is built when that product would hold
    more than TERM_BUDGET factors: |k| times the factors of e, whose
    product is flattened into it.
    """
    if not isinstance(k, int):
        raise TypeError("exponents must be integers")
    if k == 0:
        return Scalar(1)
    core = e.child if isinstance(e, ScalarMul) else e
    factors = len(core.children) if isinstance(core, Product) else 1
    if abs(k) * factors > TERM_BUDGET:
        raise ExpansionError(f"the power would hold more than TERM_BUDGET "
                             f"= {TERM_BUDGET} factors")
    p = mul(*([e] * abs(k)))
    return p if k > 0 else inv(p)


def variables(*names: str) -> tuple:
    return tuple(Variable(n) for n in names)


def free_variables(e: RatExpr) -> frozenset:
    return frozenset(node.name for node in _postorder(e)
                     if isinstance(node, Variable))


def _children(node: RatExpr) -> tuple:
    if isinstance(node, (Sum, Product)):
        return node.children
    if isinstance(node, (ScalarMul, Inverse)):
        return (node.child,)
    return ()


def _postorder(e: RatExpr) -> list:
    """Each distinct node of the DAG once, children before parents, in the
    order a depth-first walk over the children left to right finishes
    them."""
    order: list = []
    seen = {id(e)}
    stack = [(e, iter(_children(e)))]
    while stack:
        node, todo = stack[-1]
        for child in todo:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(_children(child))))
                break
        else:
            stack.pop()
            order.append(node)
    return order


# -- evaluation ---------------------------------------------------------------

def _as_square(value, name: str) -> np.ndarray:
    """value as a complex array, not copied: one (n, n) matrix or an
    (m, n, n) stack."""
    m = np.asarray(value, dtype=complex)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise AssignmentError(f"value for {name!r} is not square: {m.shape}")
    if not np.isfinite(m).all():
        raise AssignmentError(f"value for {name!r} is not finite")
    return m


def evaluate(e: RatExpr, assignment: Mapping[str, np.ndarray],
             n: Optional[int] = None) -> np.ndarray:
    """Bottom-up evaluation on an assignment of square matrices.

    Every value is one (n, n) matrix, or every value is an (m, n, n)
    stack of m points, all evaluated in one walk of the DAG; the result
    is a new array of that shape.  All values must be finite and share
    one size; plain complex numbers are treated as 1x1 matrices.  n fixes
    the level when the expression uses no variables at all.  An Inverse
    node is singular at the points where its child fails in_I at
    SINGULARITY_RTOL: SingularityError, whose samples masks those points.
    A child that overflowed raises NumericalError.  Both name the
    sub-expression, and the arithmetic runs with numpy's overflow and
    invalid-value warnings off.
    """
    mats = {name: _as_square(v, name) for name, v in assignment.items()}
    sizes = {m.shape[-1] for m in mats.values()}
    if len(sizes) > 1:
        raise AssignmentError(f"assigned sizes differ: {sorted(sizes)}")
    stacks = {m.shape[:-2] for m in mats.values()}
    if len(stacks) > 1:
        raise AssignmentError(f"assigned stacks differ: {sorted(stacks)}")
    if sizes:
        level = sizes.pop()
        if n is not None and n != level:
            raise AssignmentError(f"explicit n={n} but assignment is {level}")
    elif n is not None:
        level = n
    else:
        raise AssignmentError("no assignment values and no explicit size")
    eye = np.empty((stacks.pop() if stacks else ()) + (level, level),
                   dtype=complex)
    eye[...] = np.eye(level)
    vals: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for node in _postorder(e):
            if isinstance(node, Variable):
                try:
                    val = mats[node.name]
                except KeyError:
                    raise AssignmentError(
                        f"no value for variable {node.name!r}") from None
            elif isinstance(node, Scalar):
                val = node.value * eye
            elif isinstance(node, Sum):
                val = vals[id(node.children[0])].copy()
                for c in node.children[1:]:
                    val += vals[id(c)]
            elif isinstance(node, Product):
                val = vals[id(node.children[0])]
                for c in node.children[1:]:
                    val = val @ vals[id(c)]
            elif isinstance(node, ScalarMul):
                val = node.coeff * vals[id(node.child)]
            else:
                val = _inverse(node, vals[id(node.child)])
            vals[id(node)] = val
    # every other node's value is computed here; a variable's is its input
    return vals[id(e)].copy() if isinstance(e, Variable) else vals[id(e)]


def _inverse(node: Inverse, child: np.ndarray) -> np.ndarray:
    """The inverse of an Inverse node's value at every point at once."""
    try:
        invertible = in_I(child, SINGULARITY_RTOL)  # a bool, or a mask
    except NumericalError as exc:
        raise NumericalError(
            f"{exc} at sub-expression {to_text(node)}") from exc
    if not (invertible if child.ndim == 2 else invertible.all()):
        raise SingularityError(
            f"singular inverse at sub-expression {to_text(node)}",
            expression=node, samples=~np.atleast_1d(invertible))
    return np.linalg.inv(child)


def substitute(e: RatExpr, mapping: Mapping[str, RatExpr]) -> RatExpr:
    """Simultaneous substitution of expressions for variables.

    Node sharing is preserved: each reachable node is rebuilt once.
    """
    out: dict[int, RatExpr] = {}
    for node in _postorder(e):
        if isinstance(node, Variable):
            new = mapping.get(node.name, node)
        elif isinstance(node, Scalar):
            new = node
        elif isinstance(node, Sum):
            new = add(*[out[id(c)] for c in node.children])
        elif isinstance(node, Product):
            new = mul(*[out[id(c)] for c in node.children])
        elif isinstance(node, ScalarMul):
            new = scale(node.coeff, out[id(node.child)])
        else:
            new = inv(out[id(node.child)])
        out[id(node)] = new
    return out[id(e)]


# -- symbolic expansion -------------------------------------------------------

def _join(w1: tuple, w2: tuple) -> tuple:
    """Concatenation of two reduced words, cancelling the (name, e),
    (name, -e) atom pairs where they meet; the result is reduced."""
    k = 0
    while (k < min(len(w1), len(w2)) and w1[-1 - k][0] == w2[k][0]
           and w1[-1 - k][1] == -w2[k][1]):
        k += 1
    return w1[:len(w1) - k] + w2[k:]


def as_ncpoly(e: RatExpr) -> dict:
    """Expand into {word: coefficient} over atoms (name, +1|-1).

    Inverse is only admitted directly on a Variable; anything else raises
    ExpansionError, and so does an expression whose term bound exceeds
    TERM_BUDGET: a leaf counts 1, a Sum adds the bounds of its children
    once per _term_key, and any other node multiplies them.  Children
    with one key expand to one set of words, so this bounds the terms
    before anything is expanded.  Words are reduced by cancelling
    adjacent inverse pairs, which is sound wherever the inverses are
    defined.
    """
    order = _postorder(e)
    bound: dict[int, int] = {}
    for node in order:  # bounds grow toward the root: the first over decides
        if isinstance(node, Sum):
            keys = {_term_key(c): bound[id(c)] for c in node.children}
            bound[id(node)] = sum(keys.values())
        else:
            bound[id(node)] = prod(bound[id(c)] for c in _children(node))
        if bound[id(node)] > TERM_BUDGET:
            raise ExpansionError(
                f"the expansion may exceed TERM_BUDGET = {TERM_BUDGET} terms")
    join = _join if any(isinstance(n, Inverse) for n in order) else None
    terms: dict[int, dict] = {}
    for node in order:
        if isinstance(node, Variable):
            out = {((node.name, 1),): 1.0 + 0j}
        elif isinstance(node, Scalar):
            out = {(): node.value} if node.value != 0 else {}
        elif isinstance(node, Inverse):
            # invertible atoms only: a scaled single word flips to the
            # reversed word of inverted atoms
            inner = terms[id(node.child)]
            if len(inner) != 1:
                raise ExpansionError(
                    "cannot expand an inverse of a compound expression: "
                    + to_text(node))
            (word, coeff), = inner.items()
            flipped = tuple((name, -e) for name, e in reversed(word))
            out = {flipped: 1.0 / coeff}
        elif isinstance(node, ScalarMul):
            out = add_terms({}, terms[id(node.child)], node.coeff)
        elif isinstance(node, Sum):
            out = {}
            for c in node.children:
                add_terms(out, terms[id(c)])
        else:
            out = {(): 1.0 + 0j}
            for c in node.children:
                out = mul_terms(out, terms[id(c)], join)
        terms[id(node)] = out
    return terms[id(e)]


def _term_key(node: RatExpr):
    """A key shared by the sub-expressions that expand to the same words:
    a variable's name, one key for every scalar, and otherwise the node
    itself, a scalar factor set aside."""
    if isinstance(node, ScalarMul):
        node = node.child
    if isinstance(node, Variable):
        return node.name
    return Scalar if isinstance(node, Scalar) else id(node)


def render_ncpoly(poly: dict) -> str:
    """Deterministic text form of an expanded word polynomial."""
    return render_terms(
        poly, lambda atom: f"inv({atom[0]})" if atom[1] < 0 else atom[0])


def from_terms(terms: Mapping, atom: Callable[[object], RatExpr]) -> RatExpr:
    """Sum of scaled products in degree-lex word order; atom maps a letter
    of a word to its factor."""
    return add(*[scale(terms[w], mul(*map(atom, w)))
                 for w in sorted(terms, key=lambda w: (len(w), w))])


# -- probabilistic equivalence -----------------------------------------------

@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of sampling-based comparison; never a proof of equality.

    samples counts the points at which both expressions were evaluated
    and compared, resamples the singular draws replaced on the way.
    """

    equal_on_samples: bool
    levels: tuple
    trials: int
    residual: float = 0.0
    witness_level: Optional[int] = None
    witness: Optional[dict] = None
    samples: int = 0
    resamples: int = 0

    def __bool__(self):
        return self.equal_on_samples


def require_samples(levels: tuple, trials: int) -> None:
    """PreconditionError, before anything is drawn, unless the verdict has
    between 1 and SAMPLE_BUDGET points to judge, each at least 1 x 1: a
    level draws all its trials at once, so the budget bounds its memory,
    and a level below 1 draws no entry to compare."""
    count = len(levels) * trials
    if not 1 <= count <= SAMPLE_BUDGET:
        raise PreconditionError(
            f"no samples to judge: levels={levels}, trials={trials}"
            if count < 1 else
            f"{count} samples (levels x trials) exceed SAMPLE_BUDGET = "
            f"{SAMPLE_BUDGET}")
    if min(levels) < 1:
        raise PreconditionError(f"levels must each be at least 1, "
                                f"got {levels}")


def sample_nonsingular(draw: Callable[[int], np.ndarray],
                       judge: Callable[[np.ndarray], object], trials: int,
                       exhausted: Exception) -> tuple:
    """(points, judge(points), resamples) for the trials points of
    draw(trials), an array of them.

    judge takes every point at once.  When it raises SingularityError,
    the points its samples mask are redrawn as one draw, in order, the
    others kept, and judge runs again.  A point still singular at its
    RESAMPLE_CAP-th draw raises exhausted instead.
    """
    points = draw(trials)
    draws = np.ones(trials, dtype=int)
    while True:
        try:
            return points, judge(points), int(draws.sum()) - trials
        except SingularityError as exc:
            redo = np.flatnonzero(exc.samples)
            if (draws[redo] == RESAMPLE_CAP).any():
                raise exhausted from exc
            points[redo] = draw(redo.size)
            draws[redo] += 1


def equivalent_probabilistic(e1: RatExpr, e2: RatExpr,
                             levels: Iterable[int] = (1, 2, 3),
                             trials: int = 10,
                             rng: Optional[np.random.Generator] = None
                             ) -> EquivalenceVerdict:
    """Compare on random unit-norm complex Gaussian assignments per level;
    a relative residual above 1e-8 is a witness that the two differ.

    The trials of a level are drawn as one block, scaled with one batched
    SVD, and evaluated as one stack, one walk of each DAG; the witness is
    the first failing trial, copied out of the block.  A singular draw is
    redrawn, up to RESAMPLE_CAP draws for each (level, trial);
    InconclusiveError once the cap is exhausted (domain too thin), and
    PreconditionError when no levels or no trials leave nothing to sample,
    a level is below 1, or more than SAMPLE_BUDGET points would be drawn.
    """
    levels = tuple(levels)
    require_samples(levels, trials)
    rng = rng or np.random.default_rng()
    names = sorted(free_variables(e1) | free_variables(e2))

    def residuals(points: np.ndarray, level: int) -> list:
        stack = {nm: points[:, i] for i, nm in enumerate(names)}
        v1 = evaluate(e1, stack, n=level)
        v2 = evaluate(e2, stack, n=level)
        gap, n1, n2 = op_norms(np.stack((v1 - v2, v1, v2)))
        # without variables the value is one matrix, the same at each point
        return np.broadcast_to(gap / (1.0 + np.maximum(n1, n2)),
                               len(points)).tolist()

    worst, samples, resamples = 0.0, 0, 0
    for level in levels:
        points, measured, redrawn = sample_nonsingular(
            lambda count: random_unit_norms((count, len(names)), level, rng),
            lambda points: residuals(points, level), trials,
            InconclusiveError(f"no nonsingular sample at level {level} "
                              f"after {RESAMPLE_CAP} draws"))
        samples += trials
        resamples += redrawn
        for t, residual in enumerate(measured):
            worst = max(worst, residual)
            if residual > 1e-8:
                return EquivalenceVerdict(
                    False, levels, trials, residual=residual,
                    witness_level=level,
                    witness=dict(zip(names, points[t].copy())),
                    samples=samples, resamples=resamples)
    return EquivalenceVerdict(True, levels, trials, residual=worst,
                              samples=samples, resamples=resamples)


# -- rendering ----------------------------------------------------------------

_PREC_SUM = 1
_PREC_PROD = 2
_PREC_ATOM = 3


def to_text(e: RatExpr) -> str:
    """Structural text form using the expression grammar (inv(...), ^).

    Raises PreconditionError as soon as one node's text is longer than
    TEXT_BUDGET characters; shared sub-DAGs print once per use, so the
    text can grow exponentially in the DAG's size.
    """
    # each node's text unwrapped, with its precedence; a parent wraps it
    # in parentheses where the context binds tighter.  A text is dropped
    # once its last parent is rendered, so a deep chain does not hold
    # every suffix of the output at once.
    text: dict[int, tuple] = {}
    order = _postorder(e)
    pending = Counter(id(c) for node in order for c in _children(node))

    def wrapped(node: RatExpr, context: int) -> str:
        body, prec = text[id(node)]
        return f"({body})" if prec < context else body

    for node in order:
        if isinstance(node, Variable):
            text[id(node)] = node.name, _PREC_ATOM
        elif isinstance(node, Scalar):
            text[id(node)] = format_complex(node.value), _PREC_ATOM
        elif isinstance(node, Inverse):
            text[id(node)] = f"inv({wrapped(node.child, _PREC_SUM)})", \
                _PREC_ATOM
        elif isinstance(node, ScalarMul):
            child = wrapped(node.child, _PREC_PROD)
            cs = format_complex(node.coeff)
            text[id(node)] = (f"-{child}" if cs == "-1" else f"{cs}*{child}",
                              _PREC_PROD)
        elif isinstance(node, Product):
            factors = []
            run: list = []
            for child in node.children + (None,):
                if run and child is run[-1]:
                    run.append(child)
                    continue
                if run:
                    base = wrapped(run[-1], _PREC_ATOM)
                    factors.append(f"{base}^{len(run)}" if len(run) > 1
                                   else base)
                run = [child]
            text[id(node)] = "*".join(factors), _PREC_PROD
        else:
            parts = [wrapped(c, _PREC_SUM + 1) for c in node.children]
            text[id(node)] = " + ".join(parts).replace("+ -", "- "), _PREC_SUM
        if len(text[id(node)][0]) > TEXT_BUDGET:
            raise PreconditionError(f"the text form exceeds TEXT_BUDGET = "
                                    f"{TEXT_BUDGET} characters")
        for c in _children(node):
            pending[id(c)] -= 1
            if not pending[id(c)]:
                del text[id(c)]
    return wrapped(e, _PREC_SUM)
