"""Property tests: text and decomposition round trips, and the CLI
exit-code contract.

Examples are derandomized and bounded, so the suite stays deterministic
and fast.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import (example, given, settings,  # noqa: E402
                        strategies as st)

from ncsym import ratexpr as rx  # noqa: E402
from ncsym.cli import main  # noqa: E402
from ncsym.errors import SingularityError  # noqa: E402
from ncsym.parsing import parse  # noqa: E402
from ncsym.symbasis import decompose_symmetric  # noqa: E402
from ncsym.words import CHART_UV, CHART_XY, FreePoly  # noqa: E402

from helpers import from_freepoly, ncpoly_equal  # noqa: E402

_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                     database=None)

_gaussian = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_atoms = st.sampled_from(["alpha", "beta", "gamma"]).map(rx.Variable)
_leaves = st.one_of(_atoms, _atoms.map(rx.inv), _gaussian.map(rx.Scalar))


def _exprs(depth: int):
    """Expressions that invert only atoms; two children per node and
    exponents up to 3 keep the expansion small."""
    if depth == 0:
        return _leaves
    sub = _exprs(depth - 1)
    pairs = st.lists(sub, min_size=2, max_size=2)
    return st.one_of(
        _leaves,
        pairs.map(lambda cs: rx.add(*cs)),
        pairs.map(lambda cs: rx.mul(*cs)),
        st.builds(rx.scale, _gaussian, sub),
        st.builds(rx.power, sub, st.integers(0, 3)))


@_SETTINGS
@given(_exprs(3))
def test_expression_text_round_trip(e):
    again = parse(rx.to_text(e))
    if isinstance(again, FreePoly):  # no atom left: a constant
        assert set(again.terms) <= {()}
        again = from_freepoly(again, ("x", "y"))
    assert ncpoly_equal(again, e)


def _compound(sub):
    pairs = st.lists(sub, min_size=2, max_size=2)
    return st.one_of(
        pairs.map(lambda cs: rx.add(*cs)),
        pairs.map(lambda cs: rx.mul(*cs)),
        st.builds(rx.scale, _gaussian, sub),
        sub.map(rx.inv),
        sub.map(lambda e: rx.mul(e, e)))


# expressions that may invert anything, a zero scalar included, and that
# share sub-DAGs (e * e); a root is a Variable, a Scalar or a compound
_rational = st.recursive(_leaves, _compound, max_leaves=8)
_roots = st.one_of(_atoms, _gaussian.map(rx.Scalar), _compound(_rational))


@_SETTINGS
@given(_roots, st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_a_stack_evaluates_as_its_points_one_by_one(e, m, level, seed):
    rng = np.random.default_rng(seed)
    stack = {name: (rng.standard_normal((m, level, level))
                    + 1j * rng.standard_normal((m, level, level)))
             for name in ("alpha", "beta", "gamma")}
    points = [{name: v[t] for name, v in stack.items()} for t in range(m)]
    try:
        got = rx.evaluate(e, stack)
    except SingularityError as exc:
        # the masked points are singular at the same node on their own
        assert exc.samples.shape == (m,) and exc.samples.any()
        for t in np.flatnonzero(exc.samples):
            with pytest.raises(SingularityError) as one:
                rx.evaluate(e, points[t])
            assert one.value.expression is exc.expression
        return
    assert got.shape == (m, level, level)
    for t in range(m):
        assert np.array_equal(got[t], rx.evaluate(e, points[t]))
    assert got.flags.writeable
    assert not any(np.shares_memory(got, v) for v in stack.values())


_words = st.lists(st.integers(0, 1), max_size=4).map(tuple)


@_SETTINGS
@given(st.dictionaries(_words, _gaussian, max_size=6),
       st.sampled_from([CHART_XY, CHART_UV]))
def test_word_polynomial_text_round_trip(terms, chart):
    p = FreePoly(2, terms, chart=chart)
    if p.degree < 1:  # a constant names no chart
        p = FreePoly(2, p.terms)
    assert parse(p.to_text()) == p


# tokens of the grammar, joined by spaces so that digits never run together
# into exponents large enough to exhaust memory
_TOKENS = ["x", "y", "u", "v", "alpha", "U", "M0", "inv", "(", ")", "+",
           "-", "*", "^", "2", "3", "0.5", "2i", "1e999", "$", "bogus"]


@_SETTINGS
@given(st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join))
def test_decompose_exits_with_a_contract_code(text):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["decompose", f"--expr={text}"])
    assert code in (0, 1, 2, 3)


def _symmetrized(terms):
    p = FreePoly(2, terms)
    return p + p.flip()


_symmetric = st.dictionaries(
    st.lists(st.integers(0, 1), max_size=6).map(tuple), _gaussian,
    max_size=6).map(_symmetrized)


@_SETTINGS
@given(_symmetric)
def test_decompose_expand_back_round_trip(p):
    assert decompose_symmetric(p).expand_back() == p.to_uv()


def _to_uv_by_letters(terms: dict) -> dict:
    """x -> u + v, y -> u - v, one letter at a time: the sign of (a, b) is
    -1 exactly when a y becomes a v."""
    out: dict = {}
    for word, c in terms.items():
        images = {(): c}
        for a in word:
            images = {w + (b,): -k if a and b else k
                      for w, k in images.items() for b in (0, 1)}
        for w, k in images.items():
            out[w] = out.get(w, 0) + k
    return {w: k for w, k in out.items() if k != 0}


_words_to_8 = st.lists(st.integers(0, 1), max_size=8).map(tuple)


@_SETTINGS
@given(st.dictionaries(_words_to_8, _gaussian, max_size=6))
def test_to_uv_matches_letter_by_letter_substitution(terms):
    got = FreePoly(2, terms).to_uv()
    assert got.chart == CHART_UV
    assert got.terms == _to_uv_by_letters(FreePoly(2, terms).terms)


_dyadic = st.integers(-64, 64).map(lambda k: k / 16)


@_SETTINGS
@given(st.dictionaries(_words_to_8, st.builds(complex, _dyadic, _dyadic),
                       max_size=6))
def test_from_uv_inverts_to_uv_on_dyadic_coefficients(terms):
    p = FreePoly(2, terms)
    assert p.to_uv().from_uv() == p


# matrix JSON: [re, im] pairs of finite numbers near 0, 1, 1e308 and the
# subnormal 1e-320, with at most one defect per document: a ragged or
# non-square layout, a non-finite or malformed cell, or a header that
# disagrees with the entries
_finite = st.sampled_from([0.0, 1.0, -2.0, 3.0, 0.5, 1e308, -1.7e308,
                           1e-320, -5e-324])
_bad_cells = st.sampled_from([[float("inf"), 0.0], [0.0, float("-inf")],
                              [float("nan"), 1.0], ["1", 0.0], "x", None,
                              [], [1.0, 2.0, 3.0], 1.0])


@st.composite
def _matrix_documents(draw):
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    mats = [[[draw(st.lists(_finite, min_size=2, max_size=2))
              for _ in range(n)] for _ in range(n)] for _ in range(d)]
    doc = {"n": n, "d": d, "entries": mats}
    defect = draw(st.sampled_from(["none", "none", "none", "ragged",
                                   "non-square", "cell", "header"]))
    row = mats[draw(st.integers(0, d - 1))][draw(st.integers(0, n - 1))]
    if defect == "ragged":
        row.pop()
    elif defect == "non-square":
        for rows in mats:
            for cells in rows:
                cells.append([1.0, 0.0])
    elif defect == "cell":
        row[draw(st.integers(0, n - 1))] = draw(_bad_cells)
    elif defect == "header":
        doc.update(draw(st.sampled_from([{"n": n + 1}, {"d": 3 - d},
                                         {"n": "n"}, {"d": None}])))
    return doc


_MATRIX_COMMANDS = [
    ["sqrt", "--enumerate", "--matrix"], ["fiber", "--input"],
    ["pi", "--input"], ["check-domain", "--pred", "Q", "--matrix"],
    ["check-domain", "--pred", "I", "--matrix"],
    ["check-domain", "--pred", "So", "--tuple"]]


@_SETTINGS
@given(_matrix_documents())
# v^2 overflows, and the eigenbasis solve of fiber refuses it
@example(doc={"n": 1, "d": 2, "entries": [[[[0.0, 0.0]]], [[[0.0, 1e308]]]]})
def test_matrix_commands_exit_with_a_contract_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in _MATRIX_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(command + [path])
            assert code in (0, 1, 2, 3), command
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if code == 0:  # strict JSON: no NaN or Infinity
                json.loads(out.getvalue(), parse_constant=_no_constant)


def _no_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")
