"""Decomposition of symmetric free polynomials through (u, v^2, vuv).

A symmetric polynomial in x, y, rewritten in u = (x+y)/2, v = (x-y)/2, has
only even-v monomials, and each such monomial factors uniquely left to
right into the letter u and blocks v u^j v.  GenPoly is the image algebra
over the generators U (for u) and M_j (for v u^j v); reduce_to_pi rewrites
M_j as gamma (beta^-1 gamma)^(j-1) to land in the three coordinates
alpha, beta, gamma of the symmetrization map.
"""

from __future__ import annotations

from typing import Mapping

from .errors import NotSymmetricError
from .ratexpr import RatExpr, Variable, from_terms, inv, mul
from .words import CHART_UV, CHART_XY, FreePoly, add_terms, render_terms

U_ATOM = -1  # atoms in generator words: -1 is U, j >= 0 is M_j


class GenPoly:
    """Polynomial in the noncommuting generators U and M_j (j >= 0)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, complex] | None = None):
        self.terms = add_terms({}, {tuple(w): complex(c)
                                    for w, c in (terms or {}).items()})
        for word in self.terms:
            if any(a < U_ATOM for a in word):
                raise ValueError(f"bad generator atom in {word}")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"GenPoly({self.to_text()!r})"

    def to_text(self) -> str:
        return render_terms(
            self.terms, lambda a: "U" if a == U_ATOM else f"M{a}")

    def expand_back(self) -> FreePoly:
        """Substitute U -> u, M_j -> v u^j v; exact coefficient level.

        Distinct generator words expand to distinct u,v words (the
        factorization of even-v words is unique), so nothing accumulates.
        """
        return FreePoly(2, {_expand_atoms(w): c for w, c in self.terms.items()},
                        chart=CHART_UV)


def _expand_atoms(atoms: tuple) -> tuple:
    """Inverse of _factor_even_word: U -> u, M_j -> v u^j v."""
    letters: list[int] = []
    for a in atoms:
        letters.extend((0,) if a == U_ATOM else (1,) + (0,) * a + (1,))
    return tuple(letters)


def _factor_even_word(word: tuple) -> tuple:
    """Unique left-to-right factorization of an even-v word over u, v."""
    atoms: list[int] = []
    i = 0
    while i < len(word):
        if word[i] == 0:
            atoms.append(U_ATOM)
            i += 1
            continue
        j = i + 1
        while word[j] == 0:
            j += 1
        atoms.append(j - i - 1)  # v u^(j-i-1) v becomes M_(j-i-1)
        i = j + 1
    return tuple(atoms)


def decompose_symmetric(p: FreePoly) -> GenPoly:
    """Rewrite a symmetric polynomial in x, y over the generators U, M_j.

    Raises NotSymmetricError when the polynomial is not symmetric: in the
    x,y chart when some word's coefficient differs from that of its
    letter-swapped word, which is exact, in the u,v chart when the odd-v
    part is nonzero.  The odd-v part of a symmetric x,y input is zero up
    to the rounding of to_uv and is dropped.  For a homogeneous input of
    degree d only M_j with j <= d-2 can occur.
    """
    q = p if p.chart == CHART_UV else p.to_uv()
    even, odd = q.v_parity_split()
    if not (p.is_symmetric() if p.chart == CHART_XY else odd.is_zero()):
        raise NotSymmetricError(
            f"polynomial is not symmetric; odd-v part: {odd.to_text()}")
    return GenPoly({_factor_even_word(w): c for w, c in even.terms.items()})


ALPHA = Variable("alpha")
BETA = Variable("beta")
GAMMA = Variable("gamma")
_BETA_INV = inv(BETA)


_LETTERS = {("alpha", 1): ALPHA, ("beta", 1): BETA, ("gamma", 1): GAMMA,
            ("beta", -1): _BETA_INV}


def generator_word(atom: int) -> tuple:
    """U -> alpha, M_0 -> beta, M_j -> gamma (beta^-1 gamma)^(j-1), as a
    word over the expansion atoms (name, +1|-1) of ratexpr.as_ncpoly."""
    if atom == U_ATOM:
        return (("alpha", 1),)
    if atom == 0:
        return (("beta", 1),)
    return (("gamma", 1),) + (("beta", -1), ("gamma", 1)) * (atom - 1)


def generator_image(atom: int) -> RatExpr:
    """The expression of generator_word(atom)."""
    return mul(*map(_LETTERS.__getitem__, generator_word(atom)))


def reduce_to_pi(g: GenPoly) -> RatExpr:
    """Rational expression in alpha, beta, gamma with g = result o pi.

    beta^-1 beta pairs are left uncancelled; expression hygiene belongs to
    the rational-expression equivalence tools.
    """
    return from_terms(g.terms, generator_image)


def factor_through_pi(p: FreePoly) -> RatExpr:
    """F with p = F o pi wherever beta = v^2 is invertible."""
    return reduce_to_pi(decompose_symmetric(p))
