"""Recursive descent parser for polynomial and differential form expressions.

Grammar (tightest binding last):

    fexpr  := expr ('/\\' expr)*          (form level only)
    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := rational | ident | 'd' ident | '(' expr ')' | '-' atom

A rational literal is an integer with an optional '/integer' continuation,
accepted only in coefficient position (the leading factor of a term);
elsewhere it must be parenthesized.  `^` is exponentiation with a
nonnegative integer exponent, and the two character token `/\\` is the
wedge.  Implicit multiplication is not supported: "2x" is an error, write
"2*x".  Differentials are spelled "du1" (one identifier) or "d u1"; an
identifier that exactly names a declared variable always wins over the
differential reading.  Every failure carries a line, a column, and the set
of tokens that would have been accepted.

Each rule evaluates as it parses: an atom is read as a constant, a variable
or a differential, and `^`, `*`, `/\\`, `+` and `-` apply to the values at
once, so no syntax tree is built.  Nesting depth is limited (MAX_DEPTH),
but sums and products are read in a loop and may be of any length.  An
error is raised at the point where it is read, so in form mode a semantic
error such as a power of a 1-form is reported ahead of a later syntax error.

A scalar value is a plain {exponent tuple: nonzero coefficient} dict: a
variable or a nonzero literal is a one-entry dict, and sums (into the dict
of the first term), products and powers run on the term kernels of
`algebra`.  `Polynomial`'s own operations call the same kernels, so the
terms, their order and their int or Fraction coefficients are the ones
those operations give; the result is wrapped once, by `algebra._wrap`.  A
dict becomes a `Polynomial` only where it meets a differential form (or the
coefficient of a form), and from there on the form operations apply.
Before a power of a t-term base is expanded, its term count is bounded by
comb(n + t - 1, t - 1), the number of monomials of degree n in t symbols; a
power that may exceed MAX_TERMS terms is refused at its exponent.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Tuple

from .algebra import Polynomial, RationalFunction, _add_terms, _mul_terms, _pow_terms, _wrap
from .forms import DifferentialForm, differential, function_form, wedge

MAX_DEPTH = 200
MAX_EXPONENT = 4096
MAX_TERMS = 100_000


class ParseError(Exception):
    """Syntax or resolution failure with position and expected-token set."""

    def __init__(self, message: str, line: int, col: int, expected: Tuple[str, ...] = ()):
        detail = f"{message} at line {line}, column {col}"
        if expected:
            detail += "; expected " + ", ".join(expected)
        super().__init__(detail)
        self.line = line
        self.col = col
        self.expected = tuple(expected)


# -- tokenizer ------------------------------------------------------------

_SYMBOLS = {"+", "-", "*", "^", "(", ")"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # 'number', 'ident', 'wedge', one of _SYMBOLS, '/', 'end'
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "/":
            if i + 1 < n and text[i + 1] == "\\":
                tokens.append(_Token("wedge", "/\\", line, col))
                i += 2
                col += 2
                continue
            tokens.append(_Token("/", "/", line, col))
            i += 1
            col += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# -- parser ---------------------------------------------------------------

_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")


class _Parser:
    def __init__(self, text: str, variables: Sequence[str], form_mode: bool):
        self.tokens = _tokenize(text)
        self.index = 0
        self.variables = tuple(variables)
        self.form_mode = form_mode
        self.depth = 0
        self.origin = (0,) * len(self.variables)
        # with a repeated name the first scalar read raises the constructor's error
        self.unique = len(set(self.variables)) == len(self.variables)

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, message: str, expected: Tuple[str, ...] = ()):
        token = self.current
        raise ParseError(message, token.line, token.col, expected)

    def expect(self, kind: str, label: str) -> _Token:
        if self.current.kind != kind:
            self.fail(f"unexpected {self.describe(self.current)}", (label,))
        return self.advance()

    @staticmethod
    def describe(token: _Token) -> str:
        if token.kind == "end":
            return "end of input"
        return f"{token.kind} {token.text!r}" if token.kind in ("number", "ident") else f"{token.text!r}"

    def lift(self, value):
        """A scalar dict as its Polynomial; any other value as it is."""
        if value.__class__ is dict:
            return _wrap(self.variables, value)
        return value

    def form(self, value) -> DifferentialForm:
        if isinstance(value, DifferentialForm):
            return value
        return function_form(self.lift(value), self.variables)

    def parse(self):
        value = self.fexpr() if self.form_mode else self.expr()
        if self.current.kind != "end":
            self.fail(
                f"unexpected {self.describe(self.current)}",
                ("end of input",),
            )
        return value

    def fexpr(self):
        value = self.expr()
        while self.current.kind == "wedge":
            self.advance()
            right = self.expr()
            value = wedge(self.form(value), self.form(right))
        return value

    def expr(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail("expression nested too deeply")
        try:
            value = self.term()
            while self.current.kind in ("+", "-"):
                negate = self.advance().kind == "-"
                right = self.term()
                if value.__class__ is dict and right.__class__ is dict:
                    _add_terms(value, right, negate)
                    continue
                if negate:
                    right = _negated(right)
                if isinstance(value, DifferentialForm) or isinstance(right, DifferentialForm):
                    value = self.form(value) + self.form(right)
                else:
                    value = self.lift(value) + self.lift(right)
            return value
        finally:
            self.depth -= 1

    def term(self):
        value = self.factor(coefficient_position=True)
        while self.current.kind == "*":
            op = self.advance()
            right = self.factor(coefficient_position=False)
            if value.__class__ is dict and right.__class__ is dict:
                value = _mul_terms(value, right)
            else:
                value = _product(self.lift(value), self.lift(right), op)
        return value

    def factor(self, coefficient_position: bool):
        value = self.atom(coefficient_position)
        if self.current.kind == "^":
            self.advance()
            number = self.expect("number", "nonnegative integer exponent")
            exponent = int(number.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} too large", number.line, number.col
                )
            scalar = _as_scalar(value)
            if scalar is None:
                raise ParseError(
                    "exponentiation applies to scalars only", number.line, number.col
                )
            terms = _term_count(scalar)
            if terms > 1 and comb(exponent + terms - 1, terms - 1) > MAX_TERMS:
                raise ParseError(
                    f"power {exponent} of a {terms}-term expression may exceed "
                    f"{MAX_TERMS} terms",
                    number.line,
                    number.col,
                )
            if scalar.__class__ is dict:
                value = _pow_terms(scalar, exponent, len(self.variables))
            else:
                value = scalar**exponent
        return value

    def atom(self, coefficient_position: bool):
        token = self.current
        if token.kind == "number":
            self.advance()
            value = int(token.text)
            if self.current.kind == "/":
                if not coefficient_position:
                    self.fail(
                        "rational literal needs parentheses in this position",
                        ("'*'",),
                    )
                self.advance()
                den_token = self.expect("number", "denominator integer")
                den = int(den_token.text)
                if den == 0:
                    raise ParseError(
                        "zero denominator in rational literal",
                        den_token.line,
                        den_token.col,
                    )
                value = Fraction(int(token.text), den)
                if value.denominator == 1:
                    value = value.numerator
            if not self.unique:
                return Polynomial.constant(self.variables, value)  # raises
            return {self.origin: value} if value else {}
        if token.kind == "ident":
            self.advance()
            return self.resolve_ident(token)
        if token.kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.fail("expression nested too deeply")
            try:
                self.advance()
                value = self.fexpr() if self.form_mode else self.expr()
                self.expect(")", "')'")
                return value
            finally:
                self.depth -= 1
        if token.kind == "-":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.fail("expression nested too deeply")
            try:
                self.advance()
                return _negated(self.atom(coefficient_position))
            finally:
                self.depth -= 1
        self.fail(f"unexpected {self.describe(token)}", _ATOM_EXPECTED)

    def resolve_ident(self, token: _Token):
        name = token.text
        if name in self.variables:
            if not self.unique:
                return Polynomial.variable(self.variables, name)  # raises
            i = self.variables.index(name)
            return {self.origin[:i] + (1,) + self.origin[i + 1 :]: 1}
        if name == "d" and self.current.kind == "ident":
            target = self.advance()
            return self.make_differential(target.text, target)
        if name.startswith("d") and len(name) > 1:
            return self.make_differential(name[1:], token)
        raise ParseError(
            f"unknown variable {name!r}; declared variables: "
            + ", ".join(self.variables),
            token.line,
            token.col,
        )

    def make_differential(self, target: str, token: _Token):
        if target not in self.variables:
            raise ParseError(
                f"unknown variable {target!r} under differential; "
                "declared variables: " + ", ".join(self.variables),
                token.line,
                token.col,
            )
        if not self.form_mode:
            raise ParseError(
                f"differential d{target} is not allowed in a polynomial",
                token.line,
                token.col,
            )
        return differential(self.variables, target)


# -- evaluation helpers ---------------------------------------------------


def _negated(value):
    if value.__class__ is dict:
        return {exps: -coeff for exps, coeff in value.items()}
    return -value


def _term_count(scalar) -> int:
    """The largest term count among the polynomials a power of scalar raises."""
    if scalar.__class__ is dict:
        return len(scalar)
    if isinstance(scalar, Polynomial):
        return len(scalar.terms)
    return max(len(scalar.num.terms), len(scalar.den.terms))


def _as_scalar(value):
    """A scalar dict, polynomial or rational function, or the coefficient of
    a pure 0-form; None otherwise."""
    if value.__class__ is dict or isinstance(value, (Polynomial, RationalFunction)):
        return value
    if isinstance(value, DifferentialForm):
        if value.is_zero:
            return Polynomial.zero(value.variables)
        if value.pure_degree() == 0:
            return value.component(())
    return None


def _product(left, right, op: _Token):
    """left * right for values that are not both dicts; a form of positive
    degree takes only a scalar factor."""
    if isinstance(left, Polynomial) and isinstance(right, Polynomial):
        return left * right
    for a, b in ((left, right), (right, left)):
        if isinstance(a, DifferentialForm) and a.degrees() not in ((), (0,)):
            scalar = _as_scalar(b)
            if scalar is None:
                raise ParseError("use /\\ for products of forms", op.line, op.col)
            return a * scalar
    # both degenerate to scalars
    return _as_scalar(left) * _as_scalar(right)


# -- public entry points --------------------------------------------------


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Exact polynomial from text; whitespace-insensitive, grammar above."""
    parser = _Parser(text, variables, form_mode=False)
    return parser.lift(parser.parse())


def parse_form(text: str, variables: Sequence[str]) -> DifferentialForm:
    """DifferentialForm in normal form (sorted basis, signs resolved)."""
    parser = _Parser(text, variables, form_mode=True)
    return parser.form(parser.parse())
