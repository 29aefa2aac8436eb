import numpy as np
import pytest

from ncsym import ratexpr as rx
from ncsym.errors import MixedChartError, ParseError
from ncsym.parsing import MAX_NESTING, parse
from ncsym.symbasis import GenPoly, U_ATOM
from ncsym.words import CHART_UV, CHART_XY, FreePoly


def test_word_polynomial():
    p = parse("x*y + y*x")
    assert isinstance(p, FreePoly) and p.chart == CHART_XY
    assert len(p.terms) == 2
    assert p.coefficient((0, 1)) == 1.0


def test_uv_chart():
    p = parse("u^2 - v^2")
    assert isinstance(p, FreePoly) and p.chart == CHART_UV


def test_rational_by_name_and_by_operation():
    e = parse("2*(alpha^2 + beta)")
    assert isinstance(e, rx.RatExpr)
    assert rx.as_ncpoly(e) == {(("alpha", 1), ("alpha", 1)): 2.0,
                               (("beta", 1),): 2.0}
    e2 = parse("inv(beta)")
    assert isinstance(e2, rx.Inverse)
    e3 = parse("x^-1")
    assert rx.as_ncpoly(e3) == {(("x", -1),): 1.0}


def test_genpoly():
    g = parse("2*U - 3*M0*M2")
    assert isinstance(g, GenPoly)
    assert g.terms == {(U_ATOM,): 2.0, (0, 2): -3.0}
    with pytest.raises(ParseError):
        parse("inv(U)")
    with pytest.raises(ParseError):
        parse("U + x")


def test_complex_literals():
    p = parse("1+2i")
    assert p.coefficient(()) == 1 + 2j
    assert parse("2i").coefficient(()) == 2j
    assert parse("1.5").coefficient(()) == 1.5
    assert parse("-2.5e-1i").coefficient(()) == -0.25j


def test_juxtaposition_and_precedence():
    p = parse("2(x)(y) + x*y")
    assert p.coefficient((0, 1)) == 3.0
    q = parse("-x^2")
    assert q.coefficient((0, 0)) == -1.0  # unary minus binds under ^
    r = parse("x + 2*y*x")
    assert r.coefficient((1, 0)) == 2.0 and r.coefficient((0,)) == 1.0


def test_mixed_chart_is_rejected():
    with pytest.raises(MixedChartError):
        parse("x + u")


def test_unknown_variable_and_syntax_errors():
    with pytest.raises(ParseError) as info:
        parse("x + bogus")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse("x +")
    with pytest.raises(ParseError):
        parse("(x")
    with pytest.raises(ParseError):
        parse("x^y")
    with pytest.raises(ParseError):
        parse("x $ y")


def test_round_trip_word_polynomials():
    rng = np.random.default_rng(0)
    from helpers import random_poly

    for _ in range(10):
        p = random_poly(rng)
        assert parse(p.to_text()) == p


def test_round_trip_genpoly():
    g = GenPoly({(U_ATOM, 0): 2.0, (3,): -1.0, (): 4.0})
    assert parse(g.to_text()) == g


def test_round_trip_rational_structural():
    exprs = ["2*inv(alpha - beta*inv(gamma)*beta)",
             "alpha*beta - 2*gamma",
             "inv(beta)^2*alpha"]
    for text in exprs:
        e = parse(text)
        again = parse(rx.to_text(e))
        verdict = rx.equivalent_probabilistic(
            e, again, levels=(1, 2), trials=4,
            rng=np.random.default_rng(1))
        assert verdict.equal_on_samples


def test_long_sums_and_products_are_flat():
    p = parse("+".join(["x*y", "y*x"] * 600))
    assert p.terms == {(0, 1): 600.0, (1, 0): 600.0}
    assert parse("*".join(["x"] * 3000)) == FreePoly.word((0,) * 3000, 2)
    e = parse("+".join(["alpha*beta"] * 3000))
    assert isinstance(e, rx.Sum) and len(e.children) == 3000


def test_nesting_budget():
    deepest = MAX_NESTING
    assert parse("(" * deepest + "x" + ")" * deepest) == parse("x")
    for opener in ("(", "inv("):
        text = opener * (deepest + 1) + "x" + ")" * (deepest + 1)
        with pytest.raises(ParseError, match="nesting") as info:
            parse(text)
        assert info.value.position == len(opener) * deepest
    # unary minus is a loop, not a nesting level
    assert parse("-" * 3001 + "x") == parse("-x")
    assert parse("-" * 3000 + "x") == parse("x")


def test_non_finite_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="out of range") as info:
        parse("x + 1e999*y")
    assert info.value.position == 4
