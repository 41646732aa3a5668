"""Expression parsing: grammar coverage, error positions, round trips,
and totality under fuzzing."""

import random
from fractions import Fraction

import pytest

from resilift.algebra import Polynomial
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
