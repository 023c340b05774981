"""Symbolic calculus of isometry monomials over a finite alphabet.

An element is a finite linear combination of reduced monomials

    c * v_mu v_nu^*

where ``mu`` and ``nu`` are words over ``{1, ..., n}`` and the generators
``v_1, ..., v_n`` are isometries with mutually orthogonal ranges.  The only
relation needed to reduce products is

    v_j^* v_i = (1 if i == j else 0),

so multiplication of two monomials either concatenates words (when one right
word is a prefix of the other left word) or collapses to zero.  Everything in
this module is exact symbolic bookkeeping; numerical evaluation against a
concrete representation lives in :mod:`fockstate.fock`.

Coefficients below ``COEFF_PRUNE`` in magnitude are dropped during
normalization, which keeps the reduced form canonical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import (
    AlphabetMismatchError,
    ExpressionSyntaxError,
    LetterRangeError,
)

COEFF_PRUNE = 1e-14
UNIMODULAR_TOL = 1e-12

Letters = tuple[int, ...]
TermKey = tuple[Letters, Letters]

__all__ = [
    "COEFF_PRUNE",
    "UNIMODULAR_TOL",
    "Word",
    "Monomial",
    "AlgebraElement",
    "monomial_mul",
    "adjoint",
    "gauge_apply",
    "conditional_expectation",
    "parse_expression",
]


def _check_letters(letters: Letters, n: int) -> None:
    for letter in letters:
        if not 1 <= letter <= n:
            raise LetterRangeError(f"letter {letter} outside 1..{n}")


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet {1, ..., n}; the empty word is allowed."""

    letters: Letters
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.n}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        _check_letters(self.letters, self.n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def concat(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise AlphabetMismatchError(
                f"cannot concatenate words over alphabets of size {self.n} and {other.n}"
            )
        return Word(self.letters + other.letters, self.n)

    __add__ = concat

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return "(" + ",".join(str(x) for x in self.letters) + ")"


@dataclass(frozen=True)
class Monomial:
    """Reduced monomial ``coeff * v_left v_right^*``."""

    coeff: complex
    left: Word
    right: Word

    def __post_init__(self):
        if self.left.n != self.right.n:
            raise AlphabetMismatchError("left and right words use different alphabets")
        object.__setattr__(self, "coeff", complex(self.coeff))

    @property
    def n(self) -> int:
        return self.left.n

    def __mul__(self, other: "Monomial") -> "Monomial":
        return monomial_mul(self, other)

    def __str__(self) -> str:
        return f"{self.coeff} * v{self.left} v{self.right}^*"


def monomial_mul(x: Monomial, y: Monomial) -> Monomial:
    """Product of reduced monomials, reduced again.

    (v_mu v_nu^*)(v_alpha v_beta^*) is v_{mu.rest} v_beta^* when alpha extends
    nu, v_mu v_{beta.rest}^* when nu extends alpha, and zero otherwise.
    """
    if x.n != y.n:
        raise AlphabetMismatchError("cannot multiply monomials over different alphabets")
    n = x.n
    coeff = x.coeff * y.coeff
    nu, alpha = x.right.letters, y.left.letters
    if alpha[: len(nu)] == nu:
        # alpha = nu . rest: ranges line up, left word grows by the rest.
        rest = alpha[len(nu):]
        return Monomial(coeff, Word(x.left.letters + rest, n), y.right)
    if nu[: len(alpha)] == alpha:
        rest = nu[len(alpha):]
        return Monomial(coeff, x.left, Word(y.right.letters + rest, n))
    return Monomial(0.0, Word((), n), Word((), n))


class AlgebraElement:
    """Finite linear combination of reduced monomials, stored canonically.

    Terms are kept in a dict keyed by ``(left_letters, right_letters)``.
    All arithmetic re-normalizes, so two elements are equal iff their
    stored dicts are equal.
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
                if abs(c) < COEFF_PRUNE:
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

    @classmethod
    def from_monomial(cls, m: Monomial) -> "AlgebraElement":
        return cls(m.n, {(m.left.letters, m.right.letters): m.coeff})

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
        if isinstance(other, Monomial):
            other = AlgebraElement.from_monomial(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_alphabet(other)
        acc: dict[TermKey, complex] = {}
        for (lx, rx), cx in self._terms.items():
            mx = Monomial(cx, Word(lx, self.n), Word(rx, self.n))
            for (ly, ry), cy in other._terms.items():
                my = Monomial(cy, Word(ly, self.n), Word(ry, self.n))
                prod = monomial_mul(mx, my)
                if prod.coeff == 0:
                    continue
                key = (prod.left.letters, prod.right.letters)
                acc[key] = acc.get(key, 0.0) + prod.coeff
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
        if not self._terms:
            return "0"
        parts = []
        for (lt, rt), c in sorted(self._terms.items()):
            frag = _format_coeff(c)
            body = _format_word(lt) + (_format_word(rt) + "*" if rt else "")
            if not lt and not rt:
                body = "1"
            elif not lt:
                body = _format_word(rt) + "*"
            parts.append((frag + " " + body).strip())
        return " + ".join(parts)


def _format_word(letters: Letters) -> str:
    if not letters:
        return ""
    if len(letters) == 1:
        return f"v{letters[0]}"
    return "v[" + ",".join(str(x) for x in letters) + "]"


def _format_coeff(c: complex) -> str:
    if c == 1:
        return ""
    if c.imag == 0:
        return f"{c.real:g}"
    return f"({c.real:g}{c.imag:+g}i)"


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Adjoint of an element: conjugate coefficients, swap word pairs."""
    return x.adjoint()


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
_COMPLEX_RE = re.compile(
    r"\(\s*(?P<re>[+-]?" + _NUM + r")\s*(?P<sign>[+-])\s*(?P<im>" + _NUM + r")?\s*i\s*\)"
)
_IMAG_PAREN_RE = re.compile(r"\(\s*(?P<im>[+-]?" + _NUM + r")?\s*i\s*\)")
_NUM_RE = re.compile(_NUM)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.pos})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            m = _COMPLEX_RE.match(text, i)
            if m:
                real = float(m.group("re"))
                imag = float(m.group("im") or "1")
                if m.group("sign") == "-":
                    imag = -imag
                tokens.append(_Token("coeff", complex(real, imag), i))
                i = m.end()
                continue
            m = _IMAG_PAREN_RE.match(text, i)
            if m:
                raw = m.group("im")
                if raw in (None, "+", "-"):
                    imag = 1.0 if raw in (None, "+") else -1.0
                else:
                    imag = float(raw)
                tokens.append(_Token("coeff", complex(0.0, imag), i))
                i = m.end()
                continue
            tokens.append(_Token("lparen", "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ")", i))
            i += 1
            continue
        if ch in "+-":
            tokens.append(_Token("sign", ch, i))
            i += 1
            continue
        if ch == "*":
            tokens.append(_Token("star", "*", i))
            i += 1
            continue
        if ch == "v":
            j = i + 1
            if j < size and text[j].isdigit():
                m = re.compile(r"\d+").match(text, j)
                tokens.append(_Token("vword", (int(m.group()),), i))
                i = m.end()
                continue
            if j < size and text[j] == "[":
                m = re.compile(r"\[\s*\d+(?:\s*,\s*\d+)*\s*\]").match(text, j)
                if not m:
                    raise ExpressionSyntaxError("malformed letter list after 'v'", j)
                letters = tuple(int(s) for s in re.findall(r"\d+", m.group()))
                tokens.append(_Token("vword", letters, i))
                i = m.end()
                continue
            raise ExpressionSyntaxError("expected digits or '[' after 'v'", i)
        m = _NUM_RE.match(text, i)
        if m:
            end = m.end()
            if end < size and text[end] == "i":
                tokens.append(_Token("coeff", complex(0.0, float(m.group())), i))
                i = end + 1
                continue
            if m.group() == "1" and (end >= size or text[end] not in "0123456789.i"):
                # Bare '1' is the identity factor, not a coefficient.
                tokens.append(_Token("one", 1.0, i))
                i = end
                continue
            tokens.append(_Token("coeff", complex(float(m.group()), 0.0), i))
            i = end
            continue
        if ch == "i":
            tokens.append(_Token("coeff", complex(0.0, 1.0), i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, size))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.k = 0
        self.n = n

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse_element(self) -> AlgebraElement:
        sign = 1.0
        if self.peek().kind == "sign":
            sign = -1.0 if self.advance().value == "-" else 1.0
        acc = sign * self.parse_term()
        while self.peek().kind == "sign":
            op = self.advance().value
            nxt = self.parse_term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    def parse_term(self) -> AlgebraElement:
        coeff = 1.0 + 0.0j
        have_coeff = False
        if self.peek().kind == "coeff":
            coeff = self.advance().value
            have_coeff = True
        factors: list[AlgebraElement] = []
        while self.peek().kind in ("vword", "lparen", "one"):
            factors.append(self.parse_factor())
        if not factors:
            if not have_coeff:
                tok = self.peek()
                raise ExpressionSyntaxError("expected a factor", tok.pos)
            return coeff * AlgebraElement.one(self.n)
        acc = coeff * factors[0]
        for f in factors[1:]:
            acc = acc * f
        return acc

    def parse_factor(self) -> AlgebraElement:
        tok = self.advance()
        if tok.kind == "one":
            return AlgebraElement.one(self.n)
        if tok.kind == "vword":
            for letter in tok.value:
                if not 1 <= letter <= self.n:
                    raise LetterRangeError(
                        f"letter {letter} outside 1..{self.n} (at position {tok.pos})"
                    )
            elt = AlgebraElement(self.n, {(tok.value, ()): 1.0})
            if self.peek().kind == "star":
                self.advance()
                elt = elt.adjoint()
            return elt
        if tok.kind == "lparen":
            inner = self.parse_element()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ExpressionSyntaxError("expected ')'", closing.pos)
            if self.peek().kind == "star":
                self.advance()
                inner = inner.adjoint()
            return inner
        raise ExpressionSyntaxError(f"unexpected token {tok.kind!r}", tok.pos)


def parse_expression(text: str, n: int) -> AlgebraElement:
    """Parse ASCII expression text into a reduced element.

    Examples accepted: ``"v1 v2*"``, ``"(1+2i) v1 + v2 v2*"``,
    ``"v[1,2] v[1,2]*"``, ``"1 - v1 v1* - v2 v2*"``.  Raises
    :class:`ExpressionSyntaxError` with a position on malformed input and
    :class:`LetterRangeError` when a letter exceeds the alphabet.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, n)
    result = parser.parse_element()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionSyntaxError("trailing input after expression", trailing.pos)
    return result
