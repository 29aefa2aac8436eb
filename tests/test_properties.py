"""Property tests: text round trips and the CLI exit-code contract.

Examples are derandomized and bounded, so the suite stays deterministic
and fast.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncsym import ratexpr as rx  # noqa: E402
from ncsym.cli import main  # noqa: E402
from ncsym.parsing import parse  # noqa: E402
from ncsym.words import CHART_UV, CHART_XY, FreePoly  # noqa: E402

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
        again = rx.from_freepoly(again, ("x", "y"))
    assert rx.ncpoly_equal(again, e)


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
