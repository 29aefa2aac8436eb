"""Expression grammar shared by the library's text surfaces.

Identifiers: x, y (original pair), u, v (half-sum/half-difference chart),
alpha, beta, gamma (coordinates of the symmetrization map), U and M0, M1,
... (generator polynomials).  Complex literals use an i suffix (2i, 1+2i
parses as a sum).  Operators: + - *, integer ^ powers, inv(...), and
juxtaposition against a parenthesized factor.  Precedence is inv/^ over
unary minus over * over +/-.  Parentheses and inv(...) nest at most
MAX_NESTING levels deep.

parse() classifies the result by the names it uses: a word polynomial in
x,y or u,v; a rational expression whenever inv, a negative power, or one
of alpha/beta/gamma appears; a generator polynomial for U/Mj.  Text is
parsed straight into a RatExpr DAG; polynomial results are its expansion.
"""

from __future__ import annotations

import cmath
import re
from typing import Union

from .errors import MixedChartError, ParseError
from .ratexpr import (RatExpr, Scalar, ScalarMul, Sum, Variable, add,
                      as_ncpoly, inv, mul, power, scale)
from .symbasis import U_ATOM, GenPoly
from .words import CHART_UV, CHART_XY, FreePoly

_TOKEN_RE = re.compile(r"""
    (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?i?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()])
  | (?P<ws>\s+)
""", re.VERBOSE)

_XY = {"x", "y"}
_UV = {"u", "v"}
_ABG = {"alpha", "beta", "gamma"}
_GEN_RE = re.compile(r"^(U|M\d+)$")


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            raw = m.group("num")
            if raw.endswith("i"):
                value = complex(0.0, float(raw[:-1]))
            else:
                value = complex(float(raw), 0.0)
            if not cmath.isfinite(value):
                raise ParseError(f"number out of range: {raw}", pos)
            tokens.append(("num", value, pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("eof", None, pos))
    return tokens


# levels of ( and inv(; at about 5 frames per level the descent stays well
# below the default recursion limit of 1000
MAX_NESTING = 100


class _Parser:
    """Recursive descent that builds the RatExpr DAG directly.  It records
    the last position of each name and whether inv or a negative power
    occurs, which decide the kind of result, and the start of every sum
    and term, children before parents."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.names: dict[str, int] = {}
        self.rational = False
        self.spans: list = []  # (start position, node)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> RatExpr:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {val!r}", pos)
        return node

    def expr(self) -> RatExpr:
        pos = self.peek()[2]
        terms = [self.term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                terms.append(rhs if val == "+" else scale(-1, rhs))
            else:
                node = _finite(add(*terms), pos)
                self.spans.append((pos, node))
                return node

    def term(self) -> RatExpr:
        pos = self.peek()[2]
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                factors.append(self.factor())
            elif kind == "op" and val == "(":
                # juxtaposition against a parenthesized factor
                factors.append(self.factor())
            else:
                node = _finite(mul(*factors), pos)
                self.spans.append((pos, node))
                return node

    def factor(self) -> RatExpr:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.next()
            negate = not negate
        node = self.postfix()
        return scale(-1, node) if negate else node

    def postfix(self) -> RatExpr:
        node = self.primary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                k = self.signed_int()
                self.rational = self.rational or k < 0
                node = power(node, k)
            else:
                return node

    def signed_int(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "num" or val.imag != 0 or val.real != int(val.real):
            raise ParseError("exponent must be an integer", pos)
        return sign * int(val.real)

    def primary(self) -> RatExpr:
        kind, val, pos = self.next()
        if kind == "num":
            return Scalar(val)
        if kind == "ident" and val != "inv":
            self.names[val] = pos
            return Variable(val)
        if kind == "ident" or (kind == "op" and val == "("):
            if val == "inv":
                self.expect_op("(")
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"nesting deeper than {MAX_NESTING} levels", pos)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            if val == "inv":
                self.rational = True
                return inv(node)
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def _finite(node: RatExpr, pos: int) -> RatExpr:
    """node, unless folding its constants overflowed.  Every constant is
    folded by the add or mul of some sum or term, which leaves it at the
    top of the node: a Scalar, a ScalarMul coefficient, or a Sum child."""
    for top in node.children if isinstance(node, Sum) else (node,):
        value = top.value if isinstance(top, Scalar) else \
            top.coeff if isinstance(top, ScalarMul) else 0
        if not cmath.isfinite(value):
            raise ParseError(f"number out of range: constants fold to "
                             f"{value}", pos)
    return node


def parse(text: str) -> Union[FreePoly, RatExpr, GenPoly]:
    """Parse text into a word polynomial, rational expression, or
    generator polynomial, depending on the names and operations used."""
    parser = _Parser(text)
    e = parser.parse()
    names = parser.names

    used = set(names)
    gens = {n for n in used if _GEN_RE.match(n)}
    known = _XY | _UV | _ABG
    unknown = used - known - gens
    if unknown:
        name = sorted(unknown)[0]
        raise ParseError(f"unknown variable {name!r}", names[name])
    if used & _XY and used & _UV:
        pos = min(names[n] for n in used & (_XY | _UV))
        raise MixedChartError("x/y and u/v cannot appear together", pos)
    if gens:
        others = used - gens
        if others:
            raise ParseError(
                f"generator symbols cannot mix with {sorted(others)}",
                min(names[n] for n in others))
        if parser.rational:
            raise ParseError(
                "inv and negative powers do not apply to generator "
                "polynomials", 0)
        return GenPoly(_letter_terms(
            e, lambda name: U_ATOM if name == "U" else int(name[1:]),
            parser.spans))
    if parser.rational or used & _ABG:
        return e
    if used & _UV:
        letters, chart = {"u": 0, "v": 1}, CHART_UV
    else:
        letters, chart = {"x": 0, "y": 1}, CHART_XY
    return FreePoly(2, _letter_terms(e, letters.__getitem__, parser.spans),
                    chart=chart)


def _letter_terms(e: RatExpr, letter, spans) -> dict:
    """Expanded terms of an inverse-free expression, with each atom
    (name, 1) mapped to letter(name).  A non-finite coefficient is a
    ParseError at the first of the parser's spans whose expansion has one:
    the first sum or term to overflow, as spans list children first."""
    terms = as_ncpoly(e)
    if not all(cmath.isfinite(c) for c in terms.values()):
        for pos, node in spans:
            bad = [c for c in as_ncpoly(node).values()
                   if not cmath.isfinite(c)]
            if bad:
                raise ParseError(f"number out of range: the expansion has "
                                 f"coefficient {bad[0]}", pos)
    return {tuple(letter(name) for name, _ in word): c
            for word, c in terms.items()}
