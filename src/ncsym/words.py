"""Free words and free polynomials over d noncommuting letters.

A word is a tuple of letter indices in range(d); the empty tuple is the
multiplicative identity.  A FreePoly maps words to complex coefficients and
never stores an exactly-zero coefficient, so equality is plain dict equality.

For d = 2 a polynomial carries a chart tag: "xy" for the original variables,
"uv" after the change of variables x = u + v, y = u - v.  The tag exists so
that to_uv/from_uv cannot be applied twice by accident.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import ChartError, DimensionMismatchError, PreconditionError

Word = tuple  # tuple[int, ...], letters in range(d)

CHART_XY = "xy"
CHART_UV = "uv"

_LETTER_NAMES = {CHART_XY: ("x", "y"), CHART_UV: ("u", "v")}

# the most coefficients of one degree a chart change transforms, and the
# largest term bound ratexpr.as_ncpoly expands
TERM_BUDGET = 2 ** 18


# -- the sparse word algebra --------------------------------------------------
#
# Free polynomials, generator polynomials and expanded rational expressions
# all store {word: coefficient} dicts with no exactly-zero coefficient; the
# three functions below are the only arithmetic on them.

def add_terms(acc: dict, terms: Mapping, factor: complex = 1) -> dict:
    """acc += factor * terms in place, dropping exact zeros; returns acc."""
    for w, c in terms.items():
        s = acc.get(w, 0) + factor * c
        if s == 0:
            acc.pop(w, None)
        else:
            acc[w] = s
    return acc


def mul_terms(a: Mapping, b: Mapping,
              join: Optional[Callable[[tuple, tuple], tuple]] = None) -> dict:
    """Concatenation product; join, if given, replaces the concatenation
    of each pair of words."""
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2 if join is None else join(w1, w2)
            s = out.get(w, 0) + c1 * c2
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
    return out


def render_terms(terms: Mapping, atom_name: Callable[[object], str]) -> str:
    """Degree-lex text; a run of one atom prints as name^k."""
    if not terms:
        return "0"
    parts = []
    for w in sorted(terms, key=lambda w: (len(w), w)):
        c = terms[w]
        runs = [(a, sum(1 for _ in run)) for a, run in itertools.groupby(w)]
        body = "*".join(f"{atom_name(a)}^{k}" if k > 1 else atom_name(a)
                        for a, k in runs)
        if not body:
            parts.append(format_complex(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{format_complex(c)}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


class FreePoly:
    """Complex-coefficient polynomial in d noncommuting variables."""

    __slots__ = ("d", "terms", "chart")

    def __init__(self, d: int, terms: Mapping[Word, complex] | None = None,
                 chart: Optional[str] = None):
        if d < 1:
            raise ValueError(f"need at least one variable, got d={d}")
        if chart is not None and d != 2:
            raise ChartError("charts only apply to two-variable polynomials")
        self.d = d
        self.chart = chart if d != 2 else (chart or CHART_XY)
        self.terms = add_terms({}, {tuple(w): complex(c)
                                    for w, c in (terms or {}).items()})
        for word in self.terms:
            if any(not (0 <= k < d) for k in word):
                raise ValueError(f"letter out of range in word {word!r} for d={d}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "FreePoly":
        return cls(d, {})

    @classmethod
    def one(cls, d: int, chart: Optional[str] = None) -> "FreePoly":
        return cls(d, {(): 1.0}, chart=chart)

    @classmethod
    def letter(cls, k: int, d: int, chart: Optional[str] = None) -> "FreePoly":
        return cls(d, {(k,): 1.0}, chart=chart)

    @classmethod
    def word(cls, letters: Sequence[int], d: int,
             coeff: complex = 1.0) -> "FreePoly":
        return cls(d, {tuple(letters): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Max word length; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: Sequence[int]) -> complex:
        return self.terms.get(tuple(word), 0j)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "FreePoly") -> None:
        if self.d != other.d:
            raise DimensionMismatchError(
                f"variable counts differ: {self.d} vs {other.d}")
        if self.chart != other.chart:
            raise ChartError(f"charts differ: {self.chart} vs {other.chart}")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FreePoly(self.d, {(): other}, chart=self.chart)
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check_compatible(other)
        return FreePoly(self.d, add_terms(dict(self.terms), other.terms),
                        chart=self.chart)

    __radd__ = __add__

    def __neg__(self):
        return FreePoly(self.d, {w: -c for w, c in self.terms.items()},
                        chart=self.chart)

    def __sub__(self, other):
        if not isinstance(other, (int, float, complex, FreePoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return FreePoly(self.d, {w: c * v for w, v in self.terms.items()},
                            chart=self.chart)
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._check_compatible(other)
        return FreePoly(self.d, mul_terms(self.terms, other.terms),
                        chart=self.chart)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers of a FreePoly")
        out = FreePoly.one(self.d, chart=self.chart)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return (self.d == other.d and self.chart == other.chart
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.d, self.chart, frozenset(self.terms.items())))

    # -- display -----------------------------------------------------------

    def letter_names(self) -> tuple:
        if self.d == 2:
            return _LETTER_NAMES[self.chart]
        if self.d == 1:
            return ("x",)
        return tuple(f"x{k + 1}" for k in range(self.d))

    def __repr__(self):
        return f"FreePoly({self.to_text()!r})"

    def to_text(self) -> str:
        """Render in degree-lexicographic word order."""
        return render_terms(self.terms, self.letter_names().__getitem__)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: "MatrixTuple") -> np.ndarray:
        """Evaluate at a tuple of matrices; the empty word contributes c*I."""
        if self.d != x.d:
            raise DimensionMismatchError(
                f"polynomial in {self.d} variables, tuple has {x.d}")
        n = x.n
        out = np.zeros((n, n), dtype=complex)
        eye = np.eye(n, dtype=complex)
        cache: dict[Word, np.ndarray] = {(): eye}
        for word, coeff in self.terms.items():
            out += coeff * _word_value(word, x, cache)
        return out

    __call__ = evaluate

    # -- two-variable structure ---------------------------------------------

    def flip(self) -> "FreePoly":
        """Swap the two letters (w -> w^f).  Only in the x,y chart."""
        self._require_two_vars()
        if self.chart != CHART_XY:
            raise ChartError("flip acts on the x,y chart")
        return FreePoly(self.d, {tuple(1 - k for k in w): c
                                 for w, c in self.terms.items()},
                        chart=self.chart)

    def symmetrize(self) -> "FreePoly":
        """(p + p^f) / 2."""
        return 0.5 * (self + self.flip())

    def is_symmetric(self) -> bool:
        """True iff p equals its flip in canonical form."""
        return self == self.flip()

    def to_uv(self) -> "FreePoly":
        """Substitute x -> u+v, y -> u-v."""
        return self._change_chart("to_uv", CHART_XY, CHART_UV, 1.0)

    def from_uv(self) -> "FreePoly":
        """Substitute u -> (x+y)/2, v -> (x-y)/2; inverse of to_uv."""
        return self._change_chart("from_uv", CHART_UV, CHART_XY, 0.5)

    def _change_chart(self, name: str, source: str, target: str,
                      factor: float) -> "FreePoly":
        """Letter a -> factor*(l0 + (-1)^a l1): (factor*H)^(x n) on degree n,
        H = [[1, 1], [1, -1]], as n butterflies on the binary word codes."""
        self._require_two_vars()
        if self.chart != source:
            raise ChartError(f"{name} expects the {','.join(source)} chart")
        if self.degree >= TERM_BUDGET.bit_length():  # 2^degree > budget
            raise PreconditionError(f"degree {self.degree} needs more than "
                                    f"TERM_BUDGET = {TERM_BUDGET} terms")
        out: dict[Word, complex] = {}
        for n in sorted({len(w) for w in self.terms}):
            words = [w for w in self.terms if len(w) == n]
            place = 1 << np.arange(n - 1, -1, -1)
            vec = np.zeros(2 ** n, dtype=complex)
            vec[np.array(words, dtype=int).reshape(len(words), n) @ place] = \
                [self.terms[w] for w in words]
            for b in (vec.reshape(-1, 2, 2 ** i) for i in range(n)):
                b[:, 0], b[:, 1] = b[:, 0] + b[:, 1], b[:, 0] - b[:, 1]
            code = np.flatnonzero(vec)
            out.update(zip(map(tuple, (code[:, None] // place % 2).tolist()),
                           (factor ** n * vec[code]).tolist()))
        return FreePoly(2, out, chart=target)

    def v_parity_split(self) -> tuple["FreePoly", "FreePoly"]:
        """Split by parity of the letter-v count (u,v chart only)."""
        self._require_two_vars()
        if self.chart != CHART_UV:
            raise ChartError("v_parity_split expects the u,v chart")
        even: dict[Word, complex] = {}
        odd: dict[Word, complex] = {}
        for w, c in self.terms.items():
            (even if sum(w) % 2 == 0 else odd)[w] = c
        return (FreePoly(2, even, chart=CHART_UV),
                FreePoly(2, odd, chart=CHART_UV))

    def _require_two_vars(self):
        if self.d != 2:
            raise DimensionMismatchError(f"operation needs d=2, got d={self.d}")


def s_even(n: int) -> FreePoly:
    """Sum of all degree-n monomials in u,v with an even number of v's."""
    return _s_parity(n, 0)


def s_odd(n: int) -> FreePoly:
    """Sum of all degree-n monomials in u,v with an odd number of v's."""
    return _s_parity(n, 1)


def _s_parity(n: int, parity: int) -> FreePoly:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    terms = {w: 1.0 for w in itertools.product((0, 1), repeat=n)
             if sum(w) % 2 == parity}
    return FreePoly(2, terms, chart=CHART_UV)


def format_complex(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        return str(int(r)) if r.is_integer() else repr(r)
    if c.real == 0:
        i = c.imag
        return (str(int(i)) if i.is_integer() else repr(i)) + "i"
    re = format_complex(complex(c.real))
    im = format_complex(complex(0, abs(c.imag)))
    sign = "+" if c.imag > 0 else "-"
    return f"({re}{sign}{im})"


def _word_value(word: Word, x: "MatrixTuple", cache: dict) -> np.ndarray:
    got = cache.get(word)
    if got is not None:
        return got
    m = cache[()]
    # grow prefix by prefix so shared prefixes across words are reused
    for i, k in enumerate(word):
        pref = word[:i + 1]
        nxt = cache.get(pref)
        if nxt is None:
            nxt = m @ x.entries[k]
            cache[pref] = nxt
        m = nxt
    return m


class MatrixTuple:
    """A level-n point of the d-variable matrix universe."""

    __slots__ = ("entries", "n", "d")

    def __init__(self, entries: Sequence[np.ndarray]):
        mats = tuple(np.asarray(m, dtype=complex) for m in entries)
        if not mats:
            raise ValueError("empty matrix tuple")
        n = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (n, n):
                raise DimensionMismatchError(
                    f"all entries must be {n}x{n}, got shape {m.shape}")
        for m in mats:
            m.flags.writeable = False
        self.entries = mats
        self.n = n
        self.d = len(mats)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.entries[k]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"MatrixTuple(n={self.n}, d={self.d})"

    def flip(self) -> "MatrixTuple":
        """Transpose the two components of a pair."""
        if self.d != 2:
            raise DimensionMismatchError(f"flip needs d=2, got d={self.d}")
        return MatrixTuple((self.entries[1], self.entries[0]))

    def close_to(self, other: "MatrixTuple", tol: float = 1e-12) -> bool:
        if self.d != other.d or self.n != other.n:
            return False
        scale = 1.0 + max(np.abs(m).max(initial=0.0) for m in self.entries)
        return all(np.abs(a - b).max(initial=0.0) <= tol * scale
                   for a, b in zip(self.entries, other.entries))
