"""Symbolic calculus of isometry monomials over a finite alphabet.

An element is a finite linear combination of reduced monomials

    c * v_mu v_nu^*

where ``mu`` and ``nu`` are words over ``{1, ..., n}`` and the generators
``v_1, ..., v_n`` are isometries with mutually orthogonal ranges.  The only
relation needed to reduce products is

    v_j^* v_i = (1 if i == j else 0),

so multiplication of two monomials either concatenates words (when one right
word is a prefix of the other left word) or collapses to zero.  A monomial
has one format throughout: the key ``(mu, nu)`` of letter tuples in an
element's term dict, mapped to its coefficient.  Expression text is split by
one regular-expression token table and parsed by recursive descent; the
printed form of an element parses back to the same element.  Everything in
this module is exact symbolic bookkeeping; numerical evaluation against a
concrete representation lives in :mod:`fockstate.fock`.

Coefficients below ``COEFF_PRUNE`` in magnitude are dropped during
normalization, which keeps the reduced form canonical.
"""

from __future__ import annotations

import cmath
import math
import re
from typing import Mapping

import numpy as np

from .errors import (
    AlphabetMismatchError,
    CoefficientRangeError,
    ExpressionSyntaxError,
    LetterRangeError,
)

COEFF_PRUNE = 1e-14
UNIMODULAR_TOL = 1e-12
MAX_PAREN_DEPTH = 100

Letters = tuple[int, ...]
TermKey = tuple[Letters, Letters]

__all__ = [
    "COEFF_PRUNE",
    "UNIMODULAR_TOL",
    "MAX_PAREN_DEPTH",
    "AlgebraElement",
    "gauge_apply",
    "conditional_expectation",
    "parse_expression",
]


def _check_letters(letters: Letters, n: int) -> None:
    for letter in letters:
        if not 1 <= letter <= n:
            raise LetterRangeError(f"letter {letter} outside 1..{n}")


def _reduce(x: TermKey, y: TermKey) -> TermKey | None:
    """Key of the product of two monomials, or None when it vanishes.

    (v_mu v_nu^*)(v_alpha v_beta^*) is v_{mu.rest} v_beta^* when alpha extends
    nu, v_mu v_{beta.rest}^* when nu extends alpha, and zero otherwise.
    """
    (mu, nu), (alpha, beta) = x, y
    if alpha[: len(nu)] == nu:
        # alpha = nu . rest: ranges line up, left word grows by the rest.
        return mu + alpha[len(nu):], beta
    if nu[: len(alpha)] == alpha:
        return mu, beta + nu[len(alpha):]
    return None


class AlgebraElement:
    """Finite linear combination of reduced monomials, stored canonically.

    Terms are kept in a dict keyed by ``(left_letters, right_letters)``.
    All arithmetic re-normalizes, so two elements are equal iff their
    stored dicts are equal.  A coefficient that is not finite, or whose
    modulus overflows, raises :class:`CoefficientRangeError`.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[TermKey, complex] | None = None):
        if n < 1:
            raise ValueError(f"alphabet size must be >= 1, got {n}")
        self.n = n
        cleaned: dict[TermKey, complex] = {}
        if terms:
            for (lt, rt), c in terms.items():
                c = complex(c)
                try:
                    size = abs(c)
                except OverflowError:
                    size = math.inf
                if not size < math.inf:
                    raise CoefficientRangeError(f"coefficient {c!r} is not finite or too large")
                if size < COEFF_PRUNE:
                    continue
                lt, rt = tuple(lt), tuple(rt)
                _check_letters(lt, n)
                _check_letters(rt, n)
                cleaned[(lt, rt)] = c
        self._terms = cleaned

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "AlgebraElement":
        return cls(n, {((), ()): 1.0})

    @classmethod
    def generator(cls, n: int, i: int) -> "AlgebraElement":
        """The isometry v_i as an element."""
        _check_letters((i,), n)
        return cls(n, {((i,), ()): 1.0})

    # -- views -------------------------------------------------------

    @property
    def terms(self) -> dict[TermKey, complex]:
        return dict(self._terms)

    def degree(self) -> int:
        """Largest word length appearing; 0 for scalars and for zero."""
        if not self._terms:
            return 0
        return max(max(len(lt), len(rt)) for lt, rt in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic --------------------------------------------------

    def _require_same_alphabet(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise AlphabetMismatchError(
                f"elements over alphabets of size {self.n} and {other.n}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_alphabet(other)
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0.0) + c
        return AlgebraElement(self.n, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        if isinstance(scalar, AlgebraElement):
            return NotImplemented
        return AlgebraElement(
            self.n, {key: scalar * c for key, c in self._terms.items()}
        )

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_alphabet(other)
        acc: dict[TermKey, complex] = {}
        for kx, cx in self._terms.items():
            for ky, cy in other._terms.items():
                key = _reduce(kx, ky)
                if key is not None:
                    acc[key] = acc.get(key, 0.0) + cx * cy
        return AlgebraElement(self.n, acc)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(
            self.n,
            {(rt, lt): c.conjugate() for (lt, rt), c in self._terms.items()},
        )

    # -- comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def approx_eq(self, other: "AlgebraElement", tol: float = 1e-10) -> bool:
        self._require_same_alphabet(other)
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol
            for k in keys
        )

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, {self._pretty()})"

    def _pretty(self) -> str:
        """Expression text that :func:`parse_expression` reads back exactly."""
        if not self._terms:
            return "0"
        text = ""
        for (lt, rt), c in sorted(self._terms.items()):
            sign = " + "
            if c.imag == 0 and c.real < 0:
                sign, c = " - ", -c
            body = _format_word(lt) + (_format_word(rt) + "*" if rt else "")
            text += sign + (_format_coeff(c) + " " + (body or "1")).strip()
        return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _format_word(letters: Letters) -> str:
    if not letters:
        return ""
    if len(letters) == 1:
        return f"v{letters[0]}"
    return "v[" + ",".join(str(x) for x in letters) + "]"


def _format_float(x: float) -> str:
    # Shortest round-trip digits without an exponent, which the parser lacks.
    return np.format_float_positional(x, unique=True, trim="-")


def _format_coeff(c: complex) -> str:
    if c == 1:
        return ""
    if c.imag == 0:
        return _format_float(c.real)
    sign = "-" if c.imag < 0 else "+"
    return f"({_format_float(c.real)}{sign}{_format_float(abs(c.imag))}i)"


def gauge_apply(x: AlgebraElement, lam: complex) -> AlgebraElement:
    """Scale each generator by the unimodular number ``lam``.

    A term ``c * v_mu v_nu^*`` picks up ``lam ** (|mu| - |nu|)``.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > UNIMODULAR_TOL:
        raise ValueError(f"gauge parameter must be unimodular, got |lam| = {abs(lam)!r}")
    return AlgebraElement(
        x.n,
        {
            (lt, rt): c * lam ** (len(lt) - len(rt))
            for (lt, rt), c in x.terms.items()
        },
    )


def conditional_expectation(x: AlgebraElement) -> AlgebraElement:
    """Keep only the terms with equally long left and right words.

    This is the averaging of the gauge action over the circle, projecting
    onto the fixed-point subalgebra.
    """
    return AlgebraElement(
        x.n,
        {(lt, rt): c for (lt, rt), c in x.terms.items() if len(lt) == len(rt)},
    )


# ---------------------------------------------------------------------------
# Expression parser
#
# element := ['-'] term (('+' | '-') term)*
# term    := coeff factor* | factor+
# factor  := 'v' (INT | '[' INT (',' INT)* ']') ['*']
#          | '(' element ')' ['*']
#          | '1'
# coeff   := REAL | IMAG | '(' complex ')'
#
# Whitespace separates factors; juxtaposition multiplies.  The star is
# adjoint, never multiplication.
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)"
# One alternative per token spelling, tried in order at each position; the
# ``lastgroup`` of a match names it.  The alternatives named in
# ``_LEX_ERRORS`` are malformed input, reported at the start of their group.
_TOKEN_RE = re.compile(rf"""
    (?P<space>\s+)
  | (?P<complex>\(\s*(?P<re>[+-]?{_NUM})\s*(?P<isign>[+-])\s*(?P<im>{_NUM})?\s*i\s*\))
  | (?P<paren_imag>\(\s*(?P<pim>[+-]?{_NUM})?\s*i\s*\))
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<sign>[+-])
  | (?P<star>\*)
  | (?P<vword>v(?:\d+|\[\s*\d+(?:\s*,\s*\d+)*\s*\]))
  | v(?P<bad_list>\[)
  | (?P<bad_v>v)
  | (?P<imag>(?P<imag_num>{_NUM})?i)
  | (?P<one>1)(?![\d.])
  | (?P<real>{_NUM})
  | (?P<bad_char>.)
""", re.VERBOSE | re.DOTALL)
_LEX_ERRORS = {
    "bad_list": "malformed letter list after 'v'",
    "bad_v": "expected digits or '[' after 'v'",
    "bad_char": "unexpected character {!r}",
}

Token = tuple[str, object, int]


def _tokenize(text: str) -> list[Token]:
    """Split ``text`` into ``(kind, value, position)`` tokens ending in ``end``.

    A bare ``1`` is the identity factor (kind ``one``); every other number
    spelling is a ``coeff``.
    """
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind in _LEX_ERRORS:
            message = _LEX_ERRORS[kind].format(m[kind])
            raise ExpressionSyntaxError(message, m.start(kind))
        if kind == "space":
            continue
        if kind == "complex":
            imag = float(m["im"] or "1")
            imag = -imag if m["isign"] == "-" else imag
            kind, value = "coeff", complex(float(m["re"]), imag)
        elif kind == "paren_imag":
            kind, value = "coeff", complex(0.0, float(m["pim"] or "1"))
        elif kind == "imag":
            kind, value = "coeff", complex(0.0, float(m["imag_num"] or "1"))
        elif kind == "real":
            kind, value = "coeff", complex(float(m["real"]), 0.0)
        elif kind == "one":
            value = 1.0
        elif kind == "vword":
            value = tuple(int(s) for s in re.findall(r"\d+", m[0]))
        else:
            value = m[0]
        if kind == "coeff" and cmath.isinf(value):
            raise ExpressionSyntaxError("number beyond the float range", pos)
        tokens.append((kind, value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], n: int):
        self.tokens = tokens
        self.k = 0
        self.n = n
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.k][0]

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse_element(self) -> AlgebraElement:
        sign = 1.0
        if self.peek() == "sign":
            sign = -1.0 if self.advance()[1] == "-" else 1.0
        acc = sign * self.parse_term()
        while self.peek() == "sign":
            op = self.advance()[1]
            nxt = self.parse_term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    def parse_term(self) -> AlgebraElement:
        coeff = 1.0 + 0.0j
        have_coeff = False
        if self.peek() == "coeff":
            coeff = self.advance()[1]
            have_coeff = True
        factors: list[AlgebraElement] = []
        while self.peek() in ("vword", "lparen", "one"):
            factors.append(self.parse_factor())
        if not factors:
            if not have_coeff:
                raise ExpressionSyntaxError("expected a factor", self.tokens[self.k][2])
            return coeff * AlgebraElement.one(self.n)
        acc = coeff * factors[0]
        for f in factors[1:]:
            acc = acc * f
        return acc

    def parse_factor(self) -> AlgebraElement:
        kind, value, pos = self.advance()
        if kind == "one":
            return AlgebraElement.one(self.n)
        if kind == "vword":
            for letter in value:
                if not 1 <= letter <= self.n:
                    raise LetterRangeError(
                        f"letter {letter} outside 1..{self.n} (at position {pos})"
                    )
            elt = AlgebraElement(self.n, {(value, ()): 1.0})
        else:
            # An "lparen": parse_term calls here only on a factor's first token.
            if self.depth == MAX_PAREN_DEPTH:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels", pos
                )
            self.depth += 1
            elt = self.parse_element()
            self.depth -= 1
            closing, _, end = self.advance()
            if closing != "rparen":
                raise ExpressionSyntaxError("expected ')'", end)
        if self.peek() == "star":
            self.advance()
            elt = elt.adjoint()
        return elt


def parse_expression(text: str, n: int) -> AlgebraElement:
    """Parse ASCII expression text into a reduced element.

    Examples accepted: ``"v1 v2*"``, ``"(1+2i) v1 + v2 v2*"``,
    ``"v[1,2] v[1,2]*"``, ``"1 - v1 v1* - v2 v2*"``.  Raises
    :class:`ExpressionSyntaxError` with a position on malformed input,
    including parentheses nested deeper than ``MAX_PAREN_DEPTH`` levels and
    numbers beyond the float range, :class:`LetterRangeError` when a letter
    exceeds the alphabet, and :class:`CoefficientRangeError` on overflow.
    """
    parser = _Parser(_tokenize(text), n)
    result = parser.parse_element()
    if parser.peek() != "end":
        raise ExpressionSyntaxError("trailing input after expression",
                                    parser.tokens[parser.k][2])
    return result
