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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .algebra import Polynomial, RationalFunction
from .forms import DifferentialForm, differential, function_form, wedge

MAX_DEPTH = 200
MAX_EXPONENT = 4096


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


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number', 'ident', 'wedge', one of _SYMBOLS, '/', 'end'
    text: str
    line: int
    col: int


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
            value = wedge(
                _as_form(value, self.variables), _as_form(right, self.variables)
            )
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
                if negate:
                    right = -right
                if isinstance(value, DifferentialForm) or isinstance(right, DifferentialForm):
                    value = _as_form(value, self.variables) + _as_form(right, self.variables)
                else:
                    value = value + right
            return value
        finally:
            self.depth -= 1

    def term(self):
        value = self.factor(coefficient_position=True)
        while self.current.kind == "*":
            op = self.advance()
            right = self.factor(coefficient_position=False)
            value = _product(value, right, op)
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
            return Polynomial.constant(self.variables, value)
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
                return -self.atom(coefficient_position)
            finally:
                self.depth -= 1
        self.fail(f"unexpected {self.describe(token)}", _ATOM_EXPECTED)

    def resolve_ident(self, token: _Token):
        name = token.text
        if name in self.variables:
            return Polynomial.variable(self.variables, name)
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


def _as_form(value, variables) -> DifferentialForm:
    if isinstance(value, DifferentialForm):
        return value
    return function_form(value, variables)


def _as_scalar(value):
    """A polynomial or rational function, or the coefficient of a pure 0-form;
    None otherwise."""
    if isinstance(value, (Polynomial, RationalFunction)):
        return value
    if isinstance(value, DifferentialForm):
        if value.is_zero:
            return Polynomial.zero(value.variables)
        if value.pure_degree() == 0:
            return value.component(())
    return None


def _product(left, right, op: _Token):
    """left * right; a form of positive degree takes only a scalar factor."""
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
    return _Parser(text, variables, form_mode=False).parse()


def parse_form(text: str, variables: Sequence[str]) -> DifferentialForm:
    """DifferentialForm in normal form (sorted basis, signs resolved)."""
    variables = tuple(variables)
    return _as_form(_Parser(text, variables, form_mode=True).parse(), variables)
