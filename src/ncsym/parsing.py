"""Expression grammar shared by the library's text surfaces.

Identifiers: x, y (original pair), u, v (half-sum/half-difference chart),
alpha, beta, gamma (coordinates of the symmetrization map), U and M0, M1,
... (generator polynomials).  Complex literals use an i suffix (2i, 1+2i
parses as a sum).  Operators: + - *, integer ^ powers, inv(...), and
juxtaposition against a parenthesized factor.  Precedence is inv/^ over
unary minus over * over +/-.

parse() classifies the result by the names it uses: a word polynomial in
x,y or u,v; a rational expression whenever inv, a negative power, or one
of alpha/beta/gamma appears; a generator polynomial for U/Mj.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import MixedChartError, ParseError
from .ratexpr import RatExpr, Scalar, Variable, add, inv, mul, power, scale
from .symbasis import U_ATOM, GenPoly
from .words import CHART_UV, CHART_XY, FreePoly, add_terms, mul_terms

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
            tokens.append(("num", value, pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    tokens.append(("eof", None, pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

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

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = ("add", node, rhs) if val == "+" else \
                    ("add", node, ("neg", rhs))
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                node = ("mul", node, self.factor())
            elif kind == "op" and val == "(":
                # juxtaposition against a parenthesized factor
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.factor())
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                node = ("pow", node, self.signed_int())
            else:
                return node

    def signed_int(self):
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "num" or val.imag != 0 or val.real != int(val.real):
            raise ParseError("exponent must be an integer", pos)
        return sign * int(val.real)

    def primary(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "ident":
            if val == "inv":
                self.expect_op("(")
                node = self.expr()
                self.expect_op(")")
                return ("inv", node)
            return ("var", val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def _scan(node, names, flags):
    tag = node[0]
    if tag == "num":
        return
    if tag == "var":
        names[node[1]] = node[2]
        return
    if tag == "inv":
        flags["rational"] = True
        _scan(node[1], names, flags)
        return
    if tag == "pow":
        if node[2] < 0:
            flags["rational"] = True
        _scan(node[1], names, flags)
        return
    if tag == "neg":
        _scan(node[1], names, flags)
        return
    _scan(node[1], names, flags)
    _scan(node[2], names, flags)


def parse(text: str) -> Union[FreePoly, RatExpr, GenPoly]:
    """Parse text into a word polynomial, rational expression, or
    generator polynomial, depending on the names and operations used."""
    ast = _Parser(text).parse()
    names: dict[str, int] = {}
    flags = {"rational": False}
    _scan(ast, names, flags)

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
        if flags["rational"]:
            raise ParseError(
                "inv and negative powers do not apply to generator "
                "polynomials", 0)
        return GenPoly(_build_terms(
            ast, lambda name: U_ATOM if name == "U" else int(name[1:])))
    if flags["rational"] or used & _ABG:
        return _build_ratexpr(ast)
    if used & _UV:
        letters, chart = {"u": 0, "v": 1}, CHART_UV
    else:
        letters, chart = {"x": 0, "y": 1}, CHART_XY
    return FreePoly(2, _build_terms(ast, letters.__getitem__), chart=chart)


def _build_terms(node, atom) -> dict:
    """Word-polynomial terms of a parse tree; atom maps a name to a letter."""
    tag = node[0]
    if tag == "num":
        return add_terms({}, {(): node[1]})
    if tag == "var":
        return {(atom(node[1]),): 1.0 + 0j}
    if tag == "neg":
        return add_terms({}, _build_terms(node[1], atom), -1)
    if tag == "add":
        return add_terms(_build_terms(node[1], atom),
                         _build_terms(node[2], atom))
    if tag == "mul":
        return mul_terms(_build_terms(node[1], atom),
                         _build_terms(node[2], atom))
    if tag == "pow":
        base = _build_terms(node[1], atom)
        out = {(): 1.0 + 0j}
        for _ in range(node[2]):
            out = mul_terms(out, base)
        return out
    raise ParseError(f"unsupported construct {tag!r}")  # pragma: no cover


def _build_ratexpr(node) -> RatExpr:
    tag = node[0]
    if tag == "num":
        return Scalar(node[1])
    if tag == "var":
        return Variable(node[1])
    if tag == "neg":
        return scale(-1, _build_ratexpr(node[1]))
    if tag == "add":
        return add(_build_ratexpr(node[1]), _build_ratexpr(node[2]))
    if tag == "mul":
        return mul(_build_ratexpr(node[1]), _build_ratexpr(node[2]))
    if tag == "pow":
        return power(_build_ratexpr(node[1]), node[2])
    if tag == "inv":
        return inv(_build_ratexpr(node[1]))
    raise ParseError(f"unsupported construct {tag!r}")  # pragma: no cover
