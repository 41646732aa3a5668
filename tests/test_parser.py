"""Expression parsing: grammar coverage, error positions, round trips,
and totality under fuzzing."""

import random
from fractions import Fraction
from math import comb

import pytest

from perfbench_catalog import load_catalog
from resilift import parser
from resilift.algebra import Polynomial, RationalFunction
from resilift.forms import DifferentialForm, basis_form, differential, volume_form, wedge
from resilift.parser import ParseError, parse_form, parse_polynomial

F = Fraction
XYZ = ("x", "y", "z")
UV = ("u1", "u2")


def test_polynomial_examples():
    variables = ("z0", "z1", "z2")
    z0, z1, z2 = Polynomial.generators(variables)
    assert parse_polynomial("z0^3+z1^3+z2^4", variables) == z0**3 + z1**3 + z2**4
    x, y, z = Polynomial.generators(XYZ)
    assert parse_polynomial("(x+z^2)^2+y^2-z^4", XYZ) == (x + z**2) ** 2 + y**2 - z**4
    assert parse_polynomial("0", XYZ).is_zero
    assert parse_polynomial(" z0 ^ 3 + z1^3\n+ z2^4 ", variables) == (
        z0**3 + z1**3 + z2**4
    )


def test_form_examples():
    u1, u2 = Polynomial.generators(UV)
    rep = parse_form("(1/3)*(u1*du2 - u2*du1)", UV)
    expected = (differential(UV, "u2") * u1 - differential(UV, "u1") * u2) * F(1, 3)
    assert rep == expected
    assert parse_form("du1 /\\ du1", UV).is_zero
    assert parse_form("du2 /\\ du1", UV) == -wedge(
        differential(UV, "u1"), differential(UV, "u2")
    )


def test_rational_coefficient_position():
    x, _, _ = Polynomial.generators(XYZ)
    assert parse_polynomial("1/2*x + 3", XYZ) == x * F(1, 2) + 3
    assert parse_polynomial("-1/2*x", XYZ) == x * F(-1, 2)
    assert parse_polynomial("x*(1/2)", XYZ) == x * F(1, 2)
    with pytest.raises(ParseError) as info:
        parse_polynomial("x*1/2", XYZ)
    assert "parenthes" in str(info.value)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError) as info:
        parse_polynomial("2x", XYZ)
    assert info.value.line == 1
    assert info.value.col == 2


def test_unknown_variable_reports_position_and_candidates():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x+w", XYZ)
    assert info.value.col == 3
    message = str(info.value)
    assert "w" in message
    assert "x" in message


def test_differential_rejected_in_polynomial_mode():
    with pytest.raises(ParseError):
        parse_polynomial("dx", XYZ)


def test_differential_spellings():
    assert parse_form("d u1", UV) == differential(UV, "u1")
    assert parse_form("du1", UV) == differential(UV, "u1")
    # an exact variable named dx shadows the differential spelling
    dxv = ("dx", "x")
    assert parse_polynomial("dx", dxv) == Polynomial.variable(dxv, "dx")


def test_form_products_need_wedge():
    with pytest.raises(ParseError) as info:
        parse_form("du1*du2", UV)
    assert "/\\" in str(info.value)
    with pytest.raises(ParseError):
        parse_form("du1^2", UV)


def test_scalar_wedges_are_products():
    assert parse_form("x /\\ y", XYZ) == parse_form("x*y", XYZ)
    assert parse_form("(x /\\ y)*z", XYZ) == parse_form("x*y*z", XYZ)
    assert parse_form("x*(y /\\ z)", XYZ) == parse_form("x*y*z", XYZ)
    assert parse_form("(x /\\ y)^2", XYZ) == parse_form("x^2*y^2", XYZ)
    # the power of a scalar wedge is a scalar too
    assert parse_form("(x /\\ y)^2*z", XYZ) == parse_form("x^2*y^2*z", XYZ)
    assert parse_form("z*(x /\\ y)^2", XYZ) == parse_form("x^2*y^2*z", XYZ)
    assert parse_form("((x /\\ y)^2)^2", XYZ) == parse_form("x^4*y^4", XYZ)
    assert parse_form("(x /\\ y)^2*dz", XYZ) == parse_form("x^2*y^2*dz", XYZ)


def test_exponent_and_depth_limits():
    with pytest.raises(ParseError):
        parse_polynomial("x^99999", XYZ)
    with pytest.raises(ParseError):
        parse_polynomial("(" * 300 + "x" + ")" * 300, XYZ)
    with pytest.raises(ParseError):
        parse_polynomial("-" * 300 + "x", XYZ)


def test_unexpected_character():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x + @", XYZ)
    assert info.value.col == 5


def test_numbers_are_ascii_digits_only():
    # other Unicode digits are not numbers: '²' and '٣' are unexpected characters
    for text, col in (("x^²", 3), ("2²", 2), ("٣*x", 1)):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, XYZ)
        assert "unexpected character" in str(info.value)
        assert (info.value.line, info.value.col) == (1, col)


def test_end_of_input():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x +", XYZ)
    assert info.value.expected
    # a semantic error is raised where it is read, ahead of a later syntax error
    with pytest.raises(ParseError) as info:
        parse_form("dx^2 +", XYZ)
    assert "exponentiation applies to scalars only" in str(info.value)
    assert (info.value.line, info.value.col) == (1, 4)


def test_unary_minus_binds_inside_atom():
    x, _, _ = Polynomial.generators(XYZ)
    # '-' lives inside the atom and '^' outside it, so -x^2 is (-x)^2
    assert parse_polynomial("-x^2", XYZ) == x**2
    assert parse_polynomial("-1*x^2", XYZ) == -(x**2)


def test_long_sums_and_products():
    # sums and products are folded in a loop, so their length is not limited
    # by recursion; the sum keeps the term order of repeated `+` and `-`
    x, y, z = Polynomial.generators(XYZ)
    one = Polynomial.one(XYZ)
    summands = {"x": x, "y": y, "2": 2 * one, "x^2": x**2, "x*y": x * y, "3*z": 3 * z}
    rng = random.Random(11)
    pieces, expected = [], Polynomial.zero(XYZ)
    for i in range(20000):
        text = rng.choice(list(summands))
        if rng.random() < 0.5:
            pieces.append("-" + text)
            expected = expected - summands[text]
        else:
            pieces.append(("+" if i else "") + text)
            expected = expected + summands[text]
    parsed = parse_polynomial("".join(pieces), XYZ)
    assert parsed == expected
    assert list(parsed.terms) == list(expected.terms)

    factors = {"x": x, "y": y, "z": z, "(-1)": -one, "(1/2)": one * F(1, 2), "3": 3 * one}
    chosen = [rng.choice(list(factors)) for _ in range(4000)]
    expected = one
    for text in chosen:
        expected = expected * factors[text]
    assert parse_polynomial("*".join(chosen), XYZ) == expected

    pieces, expected = [], DifferentialForm.zero(XYZ)
    for _ in range(3000):
        coeff, a, index = rng.choice((1, 2)), rng.randint(0, 3), rng.randrange(3)
        pieces.append(f"{coeff}*x^{a}*d{XYZ[index]}")
        expected = expected + basis_form(XYZ, (index,), coeff * x**a)
    assert parse_form(" + ".join(pieces), XYZ) == expected


def test_polynomial_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        p = Polynomial.zero(XYZ)
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.randint(0, 4) for _ in XYZ)
            p = p + Polynomial.single_term(
                XYZ, mono, F(rng.randint(-9, 9), rng.randint(1, 9))
            )
        parsed = parse_polynomial(str(p), XYZ)
        assert parsed == p
        # one term per summand, read in the rendered graded-lex descending order
        rendered = sorted(p.terms, key=lambda m: (m.degree, m.exponents), reverse=True)
        assert list(parsed.terms) == rendered


def test_form_round_trip_random():
    rng = random.Random(8)
    for _ in range(300):
        form = DifferentialForm.zero(XYZ)
        for _ in range(rng.randint(0, 4)):
            k = rng.randint(0, 3)
            key = tuple(sorted(rng.sample(range(3), k)))
            poly = Polynomial.zero(XYZ)
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 3) for _ in XYZ)
                poly = poly + Polynomial.single_term(
                    XYZ, mono, F(rng.randint(-6, 6), rng.randint(1, 6))
                )
            form = form + basis_form(XYZ, key, poly)
        assert parse_form(str(form), XYZ) == form


def test_mixed_degree_round_trip():
    x, y, z = Polynomial.generators(XYZ)
    form = basis_form(XYZ, (), -(x**2) * y**3) + volume_form(XYZ, x + 1)
    assert parse_form(str(form), XYZ) == form


def test_fuzz_totality():
    rng = random.Random(9)
    alphabet = "xyzd123+-*/\\^() \n_&@#~%"
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse_form(text, XYZ)
        except ParseError:
            pass
        try:
            parse_polynomial(text, XYZ)
        except ParseError:
            pass


# -- the dict evaluation against the Polynomial evaluation it replaced ------
#
# Polynomial's operators and the parser's dict evaluation call the same term
# kernels of algebra, so this compares how the two read and combine values;
# test_algebra checks the kernels against the arithmetic they replaced.


class _ReferenceParser(parser._Parser):
    """Polynomial mode, evaluated on Polynomial objects with their operators,
    and with the documented bound on the term count of a power."""

    def expr(self):
        self.depth += 1
        if self.depth > parser.MAX_DEPTH:
            self.fail("expression nested too deeply")
        try:
            value = self.term()
            while self.current.kind in ("+", "-"):
                negate = self.advance().kind == "-"
                right = self.term()
                value = value + (-right if negate else right)
            return value
        finally:
            self.depth -= 1

    def term(self):
        value = self.factor(coefficient_position=True)
        while self.current.kind == "*":
            self.advance()
            value = value * self.factor(coefficient_position=False)
        return value

    def factor(self, coefficient_position):
        value = self.atom(coefficient_position)
        if self.current.kind == "^":
            self.advance()
            number = self.expect("number", "nonnegative integer exponent")
            exponent = int(number.text)
            if exponent > parser.MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} too large", number.line, number.col)
            terms = len(value.terms)
            if terms > 1 and comb(exponent + terms - 1, terms - 1) > parser.MAX_TERMS:
                raise ParseError(
                    f"power {exponent} of a {terms}-term expression may exceed "
                    f"{parser.MAX_TERMS} terms",
                    number.line,
                    number.col,
                )
            value = value**exponent
        return value

    def atom(self, coefficient_position):
        token = self.current
        if token.kind == "number":
            self.advance()
            value = int(token.text)
            if self.current.kind == "/":
                if not coefficient_position:
                    self.fail(
                        "rational literal needs parentheses in this position", ("'*'",)
                    )
                self.advance()
                den_token = self.expect("number", "denominator integer")
                den = int(den_token.text)
                if den == 0:
                    raise ParseError(
                        "zero denominator in rational literal", den_token.line, den_token.col
                    )
                value = Fraction(int(token.text), den)
            return Polynomial.constant(self.variables, value)
        if token.kind == "ident":
            self.advance()
            if token.text in self.variables:
                return Polynomial.variable(self.variables, token.text)
            return self.resolve_ident(token)  # a differential or an unknown name
        if token.kind == "(":
            self.depth += 1
            if self.depth > parser.MAX_DEPTH:
                self.fail("expression nested too deeply")
            try:
                self.advance()
                value = self.expr()
                self.expect(")", "')'")
                return value
            finally:
                self.depth -= 1
        if token.kind == "-":
            self.depth += 1
            if self.depth > parser.MAX_DEPTH:
                self.fail("expression nested too deeply")
            try:
                self.advance()
                return -self.atom(coefficient_position)
            finally:
                self.depth -= 1
        self.fail(f"unexpected {self.describe(token)}", parser._ATOM_EXPECTED)


def _reference_parse(text, variables):
    return _ReferenceParser(text, variables, form_mode=False).parse()


def _outcome(parse, text, variables):
    """The terms in order with their coefficient types, or the error raised."""
    try:
        poly = parse(text, variables)
    except Exception as exc:  # ParseError, and AlgebraError for repeated names
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return [(m.exponents, c, type(c)) for m, c in poly.terms.items()]


def _random_expr(rng, depth=0):
    pieces = []
    for i in range(rng.randint(1, 4)):
        sign = rng.choice(("+", "-")) if i else rng.choice(("", "", "", "-"))
        factors = [_random_factor(rng, depth, True)]
        factors += [_random_factor(rng, depth, False) for _ in range(rng.choice((0, 0, 1, 2)))]
        pieces.append(sign + rng.choice(("*", " * ", "*\n")).join(factors))
    return rng.choice(("", " ")).join(pieces)


def _random_factor(rng, depth, coefficient_position):
    r = rng.random()
    if r < 0.35:
        atom = rng.choice(XYZ)
    elif r < 0.6:
        num, den = rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6))
        if rng.random() < 0.5:
            atom = str(num)
        elif coefficient_position and rng.random() < 0.5:
            atom = f"{num}/{den}"
        else:
            atom = f"({num}/{den})"
    elif r < 0.8 and depth < 2:
        # powers of sums, nested at most twice
        body = "(" + _random_expr(rng, depth + 1) + ")"
        return body + (f"^{rng.randint(0, 3 - depth)}" if rng.random() < 0.6 else "")
    else:
        atom = "-" * rng.randint(1, 2) + rng.choice(XYZ + ("2", "(1/3)"))
    if rng.random() < 0.3:
        atom += f"^{rng.randint(0, 5)}"
    return atom


def _mutated(rng, text):
    """A nearby text, often malformed: a character dropped, added or cut off."""
    pos = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:pos] + text[pos + 1 :]
    if kind == 1:
        return text[:pos] + rng.choice("xyzw019+-*/^() \n@") + text[pos:]
    return text[:pos]


def _catalog_texts():
    texts = set()
    for job in load_catalog().CATALOG.values():
        texts.update((job.s, job.g))
    return sorted(texts)


def test_dict_evaluation_matches_polynomial_evaluation():
    rng = random.Random(13)
    texts = []
    for _ in range(3000):
        text = _random_expr(rng)
        texts.append(text)
        if rng.random() < 0.35:
            texts.append(_mutated(rng, text))
    errors = 0
    for text in texts:
        expected = _outcome(_reference_parse, text, XYZ)
        assert _outcome(parse_polynomial, text, XYZ) == expected, text
        errors += isinstance(expected, tuple)
    assert errors > 300  # the malformed texts compare their errors too
    catalog = _catalog_texts()
    variables = ("z0", "z1", "z2")
    for text in catalog:
        assert _outcome(parse_polynomial, text, variables) == _outcome(
            _reference_parse, text, variables
        ), text
    assert len(texts) + len(catalog) >= 3000


def test_repeated_variable_names_raise_as_before():
    for text in ("x", "2", "x+@", "(x", "1/0"):
        expected = _outcome(_reference_parse, text, ("x", "x"))
        assert _outcome(parse_polynomial, text, ("x", "x")) == expected, text


def test_power_term_bound_refuses_before_expanding(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product was formed")

    # the parser's own power kernel; refusing _mul_terms would also stop the
    # products of form coefficients that a wedge forms
    monkeypatch.setattr(parser, "_pow_terms", refuse)
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    monkeypatch.setattr(RationalFunction, "__pow__", refuse)
    for text, parse, col in (
        ("(x+y+z+1)^4096", parse_polynomial, 11),
        ("(x+y+z+1)^4096+", parse_polynomial, 11),
        ("((x+y+z+1) /\\ 1)^4096", parse_form, 18),
        ("((x+y) /\\ 0)*(x+y+z+1)^4096", parse_form, 24),
    ):
        with pytest.raises(ParseError) as info:
            parse(text, XYZ)
        assert (info.value.line, info.value.col) == (1, col), text
        assert f"may exceed {parser.MAX_TERMS} terms" in str(info.value)
    # the bound is comb(n + 2, 2) for three terms: 100,128 at n = 446, 99,681 at 445
    assert comb(448, 2) > parser.MAX_TERMS >= comb(447, 2)
    with pytest.raises(ParseError):
        parse_polynomial("(x+y+z)^446", XYZ)
    with pytest.raises(AssertionError, match="a product was formed"):
        parse_polynomial("(x+y+z)^445", XYZ)


def test_bounded_powers_and_long_sums_still_parse():
    variables = ("z0", "z1", "z2")
    power = parse_polynomial("(1+z0+z1+z2)^4", variables)
    assert len(power.terms) == comb(4 + 3, 3)
    assert power == (Polynomial.one(variables) + sum(Polynomial.generators(variables), 0)) ** 4
    # a 20,000-term sum of c*x^a*y^b*z^c, accumulated as the sum of its terms
    rng = random.Random(21)
    pieces, expected = [], {}
    for i in range(20000):
        c, a, b, e = rng.randint(1, 9), rng.randint(0, 30), rng.randint(0, 30), rng.randint(0, 30)
        sign = rng.choice((1, -1))
        pieces.append(("-" if sign < 0 else ("+" if i else "")) + f"{c}*x^{a}*y^{b}*z^{e}")
        key = (a, b, e)
        total = expected.get(key, 0) + sign * c
        if total:
            expected[key] = total
        else:
            del expected[key]
    parsed = parse_polynomial("".join(pieces), XYZ)
    assert [(m.exponents, c) for m, c in parsed.terms.items()] == list(expected.items())
