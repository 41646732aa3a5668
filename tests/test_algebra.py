"""Exact polynomial and rational function arithmetic."""

import itertools
import pickle
import random
from fractions import Fraction
from operator import add, mul, neg, sub

import pytest

from resilift import algebra
from resilift.algebra import (
    AlgebraError,
    ArityError,
    Monomial,
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
    _divided,
    _exponent_ranges,
    _outside_hull,
    _polynomial,
    _shifted,
    _wrap,
    divide_with_remainder,
    divides,
    poly_with_variables,
)

F = Fraction
XYZ = ("x", "y", "z")


def random_polynomial(rng, variables=XYZ, max_degree=4, max_terms=5):
    p = Polynomial.zero(variables)
    for _ in range(rng.randint(0, max_terms)):
        exponents = tuple(rng.randint(0, max_degree) for _ in variables)
        p = p + Polynomial.single_term(
            variables, exponents, F(rng.randint(-9, 9), rng.randint(1, 9))
        )
    return p


def test_constructors_and_basics():
    x, y, z = Polynomial.generators(XYZ)
    p = x**2 * y + z * 3 - 1
    assert p.variables == XYZ
    assert p.total_degree() == 3
    assert not p.is_zero
    assert Polynomial.zero(XYZ).is_zero
    assert Polynomial.one(XYZ).is_constant
    assert Polynomial.constant(XYZ, F(5, 2)).constant_value() == F(5, 2)
    assert Polynomial.variable(XYZ, "y") == y


def test_zero_coefficients_are_dropped():
    x, _, _ = Polynomial.generators(XYZ)
    assert (x - x).is_zero
    assert x * 0 == Polynomial.zero(XYZ)
    p = Polynomial.single_term(XYZ, (1, 0, 0), F(0))
    assert p.is_zero


def test_graded_lex_str():
    x, y, z = Polynomial.generators(XYZ)
    p = y + x**2 + x * y + 1
    # higher total degree first, lexicographic within a degree
    assert str(p) == "x^2+x*y+y+1"
    assert str(x * -2 + 1) == "-2*x+1"
    assert str(Polynomial.zero(XYZ)) == "0"
    assert str(Polynomial.constant(XYZ, F(-3, 4))) == "-3/4"


def test_evaluate_exact_and_float():
    x, y, z = Polynomial.generators(XYZ)
    p = x**2 + y * z * 2
    assert p.evaluate((F(1, 2), F(3), F(1))) == F(25, 4)
    assert p.evaluate((0.5, 3.0, 1.0)) == pytest.approx(6.25)
    # integral coefficients are ints, yet exact inputs give a Fraction
    for values in ((1, 3, 1), (F(1), F(3), F(1))):
        value = p.evaluate(values)
        assert value == 7 and type(value) is Fraction
    value = Polynomial.zero(XYZ).evaluate((1, 2, 3))
    assert value == 0 and type(value) is Fraction


def test_integral_coefficients_are_ints():
    x, y, z = Polynomial.generators(XYZ)
    assert all(type(c) is int for c in (x**3 * 6 - y * z * 2 + 5).terms.values())
    # 3 and Fraction(3) are one coefficient, stored as the int
    a = Polynomial(XYZ, {(1, 0, 0): 3, (0, 0, 0): F(-4, 2)})
    b = Polynomial(XYZ, {(1, 0, 0): F(3), (0, 0, 0): -2})
    assert a == b and list(a.terms.items()) == list(b.terms.items())
    assert str(a) == str(b) == "3*x-2"
    assert [type(c) for c in a.terms.values()] == [int, int]
    # a bool coefficient is the int it stands for
    t = Polynomial(XYZ, {(0, 1, 0): True, (0, 0, 0): True})
    assert str(t) == "y+1" and t == y + 1
    assert [type(c) for c in t.terms.values()] == [int, int]
    # exact division keeps integral quotients ints
    q = divide_with_remainder(x**2 * 4 - y * 6, Polynomial.constant(XYZ, 2))[0]
    assert q == x**2 * 2 - y * 3 and {type(c) for c in q.terms.values()} == {int}
    rf = RationalFunction(x * 6 + 3, y * 3)
    assert str(rf) == "(2*x+1)/(y)"
    assert {type(c) for c in rf.num.terms.values()} == {int}


def test_partial_derivative():
    x, y, z = Polynomial.generators(XYZ)
    p = x**3 * y + z**2
    assert p.partial_derivative(0) == x**2 * y * 3
    assert p.partial_derivative(1) == x**3
    assert p.partial_derivative(2) == z * 2
    assert Polynomial.one(XYZ).partial_derivative(0).is_zero


def test_arity_mismatch_rejected():
    x, _, _ = Polynomial.generators(XYZ)
    u = Polynomial.variable(("u", "v"), "u")
    with pytest.raises(ArityError):
        x + u
    with pytest.raises(ArityError):
        x * u
    with pytest.raises(ArityError):
        divides(u**2 + 1, x)


def test_division_with_remainder():
    x, y, z = Polynomial.generators(XYZ)
    p = x**2 * y + x * y**2 + y**2
    d = x * y - 1
    q, r = divide_with_remainder(p, d)
    assert q * d + r == p
    exact = (x + y) ** 3
    q2, r2 = divide_with_remainder(exact, x + y)
    assert r2.is_zero
    assert q2 == (x + y) ** 2


def test_divides_probe():
    x, y, z = Polynomial.generators(XYZ)
    ok, q = divides(x + y, (x + y) * (x - z))
    assert ok
    assert q == x - z
    ok, q = divides(x + y, x * y)
    assert not ok
    assert q is None
    ok, q = divides(x, Polynomial.zero(XYZ))
    assert ok


def _scan_division(p, d):
    """The textbook division loop, rescanning for the largest term each step;
    on exponent tuples, with Monomial keys in the result."""
    lead_mono, lead_coeff = d.leading_term()
    lead = lead_mono.exponents
    work = {m.exponents: c for m, c in p.terms.items()}
    quot, rem = {}, {}
    while work:
        exps = max(work, key=lambda e: (sum(e), e))
        coeff = work.pop(exps)
        qe = tuple(a - b for a, b in zip(exps, lead))
        if min(qe, default=0) < 0:
            rem[Monomial(exps)] = coeff
            continue
        qc = Fraction(coeff) / lead_coeff
        quot[Monomial(qe)] = qc
        for dm, dc in d.terms.items():
            if dm.exponents != lead:
                key = tuple(a + b for a, b in zip(qe, dm.exponents))
                total = work.get(key, F(0)) - qc * dc
                if total:
                    work[key] = total
                else:
                    work.pop(key, None)
    return quot, rem


def _cancelling_product(rng):
    """q and d with q*d = a^k - b^k: almost every term of the product cancels."""
    a = tuple(rng.randint(0, 2) for _ in XYZ)
    b = tuple(rng.randint(0, 2) for _ in XYZ)
    while b == a:
        b = tuple(rng.randint(0, 2) for _ in XYZ)
    k = rng.randint(2, 4)
    c = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    d = Polynomial(XYZ, {a: c, b: -c})
    q = Polynomial(
        XYZ,
        {tuple(i * ea + (k - 1 - i) * eb for ea, eb in zip(a, b)): 1 for i in range(k)},
    )
    return q, d


def test_division_matches_sympy_random():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(XYZ)

    def to_sympy(poly):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([g**e for g, e in zip(gens, m.exponents)])
                for m, c in poly.terms.items()
            ),
            sympy.Integer(0),
        )

    def from_sympy(expr):
        terms = sympy.Poly(expr, *gens).as_dict() if expr != 0 else {}
        return Polynomial(XYZ, {e: F(int(c.p), int(c.q)) for e, c in terms.items()})

    def check(p, d, q):
        """Division and the probe against sympy; q is a known exact quotient."""
        quot, rem = divide_with_remainder(p, d)
        assert quot * d + rem == p
        sq, sr = sympy.reduced(to_sympy(p), [to_sympy(d)], *gens, order="grlex")
        assert quot == from_sympy(sq[0] if sq else 0)  # sympy gives [] for p = 0
        assert rem == from_sympy(sr)
        # the heap visits terms in the order of a full rescan: same dicts, same order
        ref_quot, ref_rem = _scan_division(p, d)
        assert list(quot.terms.items()) == list(ref_quot.items())
        assert list(rem.terms.items()) == list(ref_rem.items())
        ok, found = divides(d, p)
        assert ok == rem.is_zero
        if q is not None:
            assert ok and found == q
            assert list(found.terms) == list(quot.terms)
        elif not ok:
            assert found is None
        # internally built keys behave like checked ones
        for poly in (p, quot, rem):
            for mono in poly.terms:
                twin = Monomial(mono.exponents)
                assert mono == twin and hash(mono) == hash(twin)
                assert twin in poly.terms and mono.degree == twin.degree
        return ok

    rng = random.Random(20211)
    rejected = 0
    for case in range(240):
        d = random_polynomial(rng, max_degree=3, max_terms=3)
        if d.is_zero:
            continue
        if case % 3 == 0:
            q = random_polynomial(rng, max_degree=3, max_terms=4)
            p = q * d
        elif case % 3 == 1:
            q, d = _cancelling_product(rng)
            p = q * d
            assert len(p.terms) == 2
        else:
            q = None
            p = random_polynomial(rng, max_degree=5, max_terms=6)
        if not check(p, d, q):
            rejected += 1
    assert rejected > 0

    # weighted-homogeneous p: its exponent differences span only the plane
    # orthogonal to the weights, so a non-homogeneous d is rejected without
    # dividing, while products q*d of homogeneous factors still divide
    rng = random.Random(8)
    hull_rejected = 0
    for case in range(90):
        weights = [rng.randint(1, 3) for _ in XYZ]
        q = _weighted_homogeneous(rng, weights, rng.randint(2, 6))
        d = _weighted_homogeneous(rng, weights, rng.randint(1, 6))
        if q.is_zero or d.is_zero:  # no monomial of that weighted degree
            continue
        if case % 2:
            p = q * d
        else:
            # two terms one step apart along an axis: small ranges, unequal
            # weighted degrees
            e = [rng.randint(0, 2) for _ in XYZ]
            step = list(e)
            step[rng.randrange(3)] += 1
            p, q = q, None
            d = Polynomial(XYZ, {tuple(e): rng.randint(1, 5), tuple(step): -1})
            assert _outside_hull(d, p)
            hull_rejected += not any(
                rp < rd for rp, rd in zip(_exponent_ranges(p), _exponent_ranges(d))
            )
        assert check(p, d, q) == (q is not None)
    assert hull_rejected > 20


def _weighted_homogeneous(rng, weights, degree):
    """A random polynomial whose terms all have weighted degree degree."""
    monomials = [
        e
        for e in itertools.product(*(range(degree // w + 1) for w in weights))
        if sum(map(mul, e, weights)) == degree
    ]
    chosen = rng.sample(monomials, min(len(monomials), rng.randint(2, 5)))
    return Polynomial(
        XYZ, {e: F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)) for e in chosen}
    )


def test_with_variables_rename_and_extend():
    x, y, z = Polynomial.generators(XYZ)
    p = x**2 + y
    moved = poly_with_variables(p, ("x", "y", "z", "w"))
    assert moved.variables == ("x", "y", "z", "w")
    back = poly_with_variables(moved, XYZ)
    assert back == p
    with pytest.raises(AlgebraError):
        poly_with_variables(x * z, ("x", "y"))


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(150):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        c = random_polynomial(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a


def test_power():
    x, y, _ = Polynomial.generators(XYZ)
    assert (x + y) ** 0 == Polynomial.one(XYZ)
    assert (x + y) ** 1 == x + y
    assert (x + y) ** 2 == x**2 + x * y * 2 + y**2
    with pytest.raises(AlgebraError):
        (x + y) ** -1


def test_power_matches_repeated_products(monkeypatch):
    x, y, z = Polynomial.generators(XYZ)
    p = x * 2 - y * z + z**2 * F(1, 3) + 5
    assert len(p.terms) == 4
    expected = Polynomial.one(XYZ)
    for n in range(10):
        assert p**n == expected
        expected = expected * p
    # square-and-multiply: one product per set bit, one squaring per later bit
    calls = []
    original = algebra._mul_terms

    def counting(left, right):
        calls.append(1)
        return original(left, right)

    monkeypatch.setattr(algebra, "_mul_terms", counting)
    for n in range(1, 10):
        calls.clear()
        p**n
        assert len(calls) == bin(n).count("1") + n.bit_length() - 1


def test_single_term_power_scales_exponents(monkeypatch):
    terms = [
        Polynomial.single_term(XYZ, (1, 0, 2), F(-3)),
        Polynomial.single_term(XYZ, (2, 1, 3), F(-2, 7)),
        Polynomial.single_term(XYZ, (0, 0, 0), F(5, 3)),
    ]
    expected = {}
    for t in terms:
        product = Polynomial.one(XYZ)
        for n in range(10):
            expected[id(t), n] = product
            product = product * t
    # a single term is raised directly: exponents times n, coefficient to n
    calls = []
    original = algebra._mul_terms

    def counting(left, right):
        calls.append(1)
        return original(left, right)

    monkeypatch.setattr(algebra, "_mul_terms", counting)
    for t in terms:
        for n in range(10):
            assert t**n == expected[id(t), n]
    assert calls == []


def test_monomial_ordering_and_content():
    p = Polynomial.single_term(XYZ, (2, 1, 0), F(3)) + Polynomial.single_term(
        XYZ, (2, 3, 0), F(5)
    )
    content = p.monomial_content()
    assert content.exponents == (2, 1, 0)
    assert Monomial((0, 0, 0)).degree == 0


def _assert_monomial_keys(*polys):
    for p in polys:
        assert p.terms, p
        for key in p.terms:
            assert key.__class__ is Monomial, (p, key)
            assert key.exponents == tuple(key)


def test_every_term_key_is_a_monomial():
    """Keys stay Monomials on every path, so readers outside the package
    can keep reading `.exponents` off them."""
    from resilift.forms import basis_form, pullback, split_du0
    from resilift.parser import parse_polynomial
    from resilift.weights import WeightSystem, quasi_decompose

    for e in ((), (0, 0), (1, 2, 3)):
        assert Monomial(e) == e
        assert hash(Monomial(e)) == hash(e)
    for bad in ((1, -1), (1.0,)):
        with pytest.raises(AlgebraError):
            Monomial(bad)

    x, y, z = Polynomial.generators(XYZ)
    p = parse_polynomial("x^2*y - 3*z + 1/2", XYZ)
    q = x + 2 * y * z
    _assert_monomial_keys(p, p + q, p - q, -p, p * 3, p * q, q**3)
    _assert_monomial_keys(p.partial_derivative("x"))
    _assert_monomial_keys(p.substitute([x * y, 2 * z, y**2]), p.substitute([q, x, y + z]))
    quot, rem = divide_with_remainder(p, x * y + z)
    _assert_monomial_keys(quot, rem)
    ok_term, by_term = divides(3 * x * y, x**2 * y**2 + x * y * z)
    ok_poly, by_poly = divides(q, q * (x - y))
    assert ok_term and ok_poly
    _assert_monomial_keys(by_term, by_poly)
    shifted = RationalFunction(x**2 * y + x * z, x * y + x * z**2)
    assert shifted.num == x * y + z
    _assert_monomial_keys(shifted.num, shifted.den)
    parts = quasi_decompose(x**2 + y**4 + z, WeightSystem(("1/2", "1/4", "1/3")))
    _assert_monomial_keys(*parts.components.values())

    u = ("u0", "u1", "u2")
    u0, u1, u2 = Polynomial.generators(u)
    split = split_du0(basis_form(u, (0, 1), u0**3 * u1 + u0**3 * u1 * u2), 0)
    assert split.exponent == 3
    pulled = pullback(basis_form(XYZ, (0, 1), p), [u0 * u1, 2 * u2, u1**2])
    for form in (split.du0_factor, pulled):
        assert not form.is_zero
        for coeff in form.components.values():
            _assert_monomial_keys(coeff.num, coeff.den)


def test_rational_function_normalization():
    x, y, z = Polynomial.generators(XYZ)
    # monomial content cancels
    rf = RationalFunction(x**2 * y, x * y**2)
    assert rf.num == x
    assert rf.den == y
    # exact factors cancel
    rf = RationalFunction((x + y) * (x - y), x + y)
    assert rf.is_polynomial
    assert rf.as_polynomial() == x - y
    # constant denominators fold into the numerator
    rf = RationalFunction(x * 3, Polynomial.constant(XYZ, F(3, 2)))
    assert rf.is_polynomial
    assert rf.as_polynomial() == x * 2
    # leading coefficient of the denominator is scaled to 1
    rf = RationalFunction(x, y * 2 + x * 4)
    assert rf.den.leading_term()[1] == 1


def test_polynomial_and_rational_function_pickle_through_the_constructor():
    x, y, z = Polynomial.generators(XYZ)
    # terms out of graded-lex order, with int and Fraction coefficients
    p = Polynomial(XYZ, {(0, 0, 1): F(1, 3), (2, 0, 0): -2, (0, 1, 0): 5})
    rf = RationalFunction(x * 3 + F(1, 2), y**2 + z * 4)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        q = pickle.loads(pickle.dumps(p, protocol))
        assert q == p and str(q) == str(p)
        assert list(q.terms.items()) == list(p.terms.items())
        assert [type(c) for c in q.terms.values()] == [F, int, int]
        assert all(type(m) is Monomial for m in q.terms)
        r = pickle.loads(pickle.dumps(rf, protocol))
        assert (r.num, r.den) == (rf.num, rf.den) and str(r) == str(rf)
        assert list(r.num.terms.items()) == list(rf.num.terms.items())
        assert [type(c) for c in r.num.terms.values()] == [
            type(c) for c in rf.num.terms.values()
        ]
        with pytest.raises(AlgebraError, match="immutable"):
            q.terms = {}


def test_rational_function_zero_denominator():
    x, y, _ = Polynomial.generators(XYZ)
    with pytest.raises(ZeroDenominatorError):
        RationalFunction(x, Polynomial.zero(XYZ))
    with pytest.raises(ZeroDenominatorError):
        RationalFunction(x, y) / RationalFunction(Polynomial.zero(XYZ), y)


def test_rational_function_arithmetic():
    x, y, z = Polynomial.generators(XYZ)
    a = RationalFunction(Polynomial.one(XYZ), x)
    b = RationalFunction(Polynomial.one(XYZ), y)
    s = a + b
    assert s == RationalFunction(x + y, x * y)
    assert a * b == RationalFunction(Polynomial.one(XYZ), x * y)
    assert a - a == RationalFunction(Polynomial.zero(XYZ), x)
    assert (a / b) == RationalFunction(y, x)
    # mixed operands
    assert a * x == RationalFunction.from_polynomial(Polynomial.one(XYZ))
    assert x * a == a * x
    assert a + 1 == RationalFunction(x + 1, x)


def test_rational_function_str():
    x, y, _ = Polynomial.generators(XYZ)
    assert str(RationalFunction.from_polynomial(x + y)) == "x+y"
    assert str(RationalFunction(Polynomial.one(XYZ), x**2)) == "(1)/(x^2)"


def test_rational_function_evaluate():
    x, y, _ = Polynomial.generators(XYZ)
    rf = RationalFunction(x**2 - y, y)
    assert rf.evaluate((F(3), F(2), F(0))) == F(7, 2)
    # a quotient of int values stays a Fraction: no int / int true division
    value = RationalFunction(x + 1, y + 2).evaluate((1, 1, 0))
    assert value == F(2, 3) and type(value) is Fraction
    with pytest.raises(ZeroDivisionError):
        rf.evaluate((1.0, 0.0, 0.0))


def test_rational_function_field_laws_random():
    rng = random.Random(23)
    for _ in range(100):
        num1 = random_polynomial(rng, max_degree=2, max_terms=3)
        num2 = random_polynomial(rng, max_degree=2, max_terms=3)
        den1 = random_polynomial(rng, max_degree=2, max_terms=2)
        den2 = random_polynomial(rng, max_degree=2, max_terms=2)
        if den1.is_zero or den2.is_zero:
            continue
        a = RationalFunction(num1, den1)
        b = RationalFunction(num2, den2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) - b == a
        if not b.is_zero:
            assert (a / b) * b == a


# -- the probe rule of RationalFunction._normalize ------------------------


def _reference_normalize(num, den):
    """RationalFunction._normalize as it was before the probe rule: both
    division probes run whenever den is not constant."""
    if num.is_zero:
        return num, Polynomial.one(num.variables)
    ncont = num.monomial_content().exponents
    dcont = den.monomial_content().exponents
    common = tuple(map(min, ncont, dcont))
    if any(common):
        num = _polynomial(num.variables, _ref_shift_down(num.terms, common))
        den = _polynomial(den.variables, _ref_shift_down(den.terms, common))
    if not den.is_constant:
        ok, q = algebra.divides(den, num)
        if ok:
            num, den = q, Polynomial.one(num.variables)
        else:
            ok, q = algebra.divides(num, den)
            if ok and not q.is_constant:
                num, den = Polynomial.one(num.variables), q
    if den.is_constant:
        value = den.constant_value()
        if value != 1:
            num = _divided(num, value)
            den = Polynomial.one(num.variables)
    else:
        lead = den.leading_term()[1]
        if lead != 1:
            num = _divided(num, lead)
            den = _divided(den, lead)
    return num, den


def _random_coefficient(rng):
    if rng.random() < 0.5:
        return rng.choice((-1, 1)) * rng.randint(1, 6)
    return F(rng.randint(-9, 9) or 1, rng.randint(2, 7))


def _random_side(rng, variables, kind):
    """A constant, a non-constant single term, or 2-4 terms in random order."""
    if kind == "constant":
        return Polynomial.constant(variables, _random_coefficient(rng))
    if kind == "single":
        exponents = [rng.randint(0, 3) for _ in variables]
        exponents[rng.randrange(len(variables))] += 1
        return Polynomial.single_term(variables, exponents, _random_coefficient(rng))
    p = Polynomial.zero(variables)
    while len(p.terms) < 2:
        for _ in range(rng.randint(2, 4)):
            exponents = [rng.randint(0, 3) for _ in variables]
            p = p + Polynomial.single_term(variables, exponents, _random_coefficient(rng))
    return p


def _items(p):
    return [(m.exponents, c, type(c)) for m, c in p.terms.items()]


def test_normalize_probe_rule_matches_two_probes():
    rng = random.Random(17)
    kinds = ("constant", "single", "multi")
    seen = set()
    for _ in range(2500):
        variables = ("u0", "u1", "u2", "u3")[: rng.randint(2, 4)]
        num_kind, den_kind = rng.choice(kinds), rng.choice(kinds)
        num = _random_side(rng, variables, num_kind)
        den = _random_side(rng, variables, den_kind)
        r = rng.random()
        if r < 0.15:
            num = num * _random_side(rng, variables, rng.choice(kinds))
            den_kind += "|num"  # den divides num
        elif r < 0.3:
            den = den * _random_side(rng, variables, rng.choice(kinds))
            num_kind += "|den"  # num divides den
        elif r < 0.35:
            num = Polynomial.zero(variables)
        if rng.random() < 0.5:
            # shared monomial content, shifted out before the probes
            shift = Polynomial.single_term(variables, [rng.randint(0, 2) for _ in variables])
            num, den = num * shift, den * shift
        got = RationalFunction._normalize(num, den)
        expected = _reference_normalize(num, den)
        assert _items(got[0]) == _items(expected[0]), (num, den)
        assert _items(got[1]) == _items(expected[1]), (num, den)
        seen.add((num_kind, den_kind))
    assert len(seen) >= 12


def test_normalize_probe_rule_runs_fewer_divisions(monkeypatch):
    from resilift import cli
    from resilift.parser import parse_polynomial
    from resilift.residue import analyze
    from resilift.weights import WeightSystem

    variables = ("z0", "z1", "z2")
    s = parse_polynomial("z0^3+z1^3+z2^3", variables)
    w = WeightSystem(("1/3", "1/3", "1/3"))
    real = algebra.divides
    calls = []

    def counting(d, p):
        calls.append(1)
        return real(d, p)

    monkeypatch.setattr(algebra, "divides", counting)

    def run(g):
        calls.clear()
        report = analyze(s, parse_polynomial(g, variables), w)
        assert report.verify()
        return len(calls), cli._dump(cli.report_to_dict(report))

    # with g = 1 every normalization has a constant numerator once the
    # monomial content is shifted out, and only its second probe runs
    numerators = ("1", "z0", "z0*z1", "(1+z0+z1+z2)^2")
    new = [run(g) for g in numerators]
    monkeypatch.setattr(RationalFunction, "_normalize", staticmethod(_reference_normalize))
    old = [run(g) for g in numerators]
    assert [b for _, b in new] == [b for _, b in old]
    counts = [(n, o) for (n, _), (o, _) in zip(new, old)]
    assert all(n < o for n, o in counts)  # 6 < 12, 3 < 10, 0 < 10, 9 < 16


# -- the term kernels against the arithmetic they replaced ----------------
#
# Polynomial._merge, __mul__, __pow__, _substitute_monomials and
# algebra._shift_down as they were written before the term kernels, on
# {Monomial: coefficient} dicts and with their own copy of _accumulate, so
# they check the kernels independently.


def _ref_accumulate(out, key, value):
    old = out.get(key)
    if old is None:
        out[key] = value
    else:
        total = old + value
        if total:
            out[key] = total
        else:
            del out[key]


def _ref_merge(left, right, negate):
    merged = dict(left)
    for mono, coeff in right.items():
        _ref_accumulate(merged, mono, -coeff if negate else coeff)
    return merged


def _ref_mul(left, right):
    out = {}
    pairs = [(m.exponents, c) for m, c in right.items()]
    for m1, c1 in left.items():
        e1 = m1.exponents
        for e2, c2 in pairs:
            _ref_accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
    return {Monomial(e): c for e, c in out.items()}


def _ref_pow(terms, exponent, width):
    if len(terms) == 1:
        ((mono, coeff),) = terms.items()
        return {Monomial(tuple(e * exponent for e in mono.exponents)): coeff**exponent}
    result = {Monomial((0,) * width): 1}
    base = terms
    n = exponent
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        n >>= 1
        if n:
            base = _ref_mul(base, base)
    return result


def _ref_substitute_monomials(terms, images, width):
    rows = []
    for im in images:
        ((mono, c),) = im.items()
        row = tuple((j, m) for j, m in enumerate(mono.exponents) if m)
        rows.append((row, None if c == 1 else c))
    out = {}
    for mono, coeff in terms.items():
        exps = [0] * width
        for e, (row, c) in zip(mono.exponents, rows):
            if e == 0:
                continue
            for j, m in row:
                exps[j] += e * m
            if c is not None:
                coeff = coeff * c**e
        if coeff:
            _ref_accumulate(out, tuple(exps), coeff)
    return {Monomial(e): c for e, c in out.items()}


def _ref_shift_down(terms, shift):
    return {Monomial(tuple(map(sub, m.exponents, shift))): c for m, c in terms.items()}


_KERNEL_COEFFICIENTS = (1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4), F(3), F(-2), F(1))


def _raw_polynomial(rng, variables, shape):
    """A polynomial built without the checking constructor, so integral
    Fractions stay Fractions: zero, constant, one term or several."""
    if shape == "zero":
        return _polynomial(variables, {})
    if shape == "constant":
        origin = Monomial((0,) * len(variables))
        return _polynomial(variables, {origin: rng.choice(_KERNEL_COEFFICIENTS)})
    terms = {}
    for _ in range(1 if shape == "single" else rng.randint(2, 4)):
        terms[Monomial(tuple(rng.randint(0, 2) for _ in variables))] = rng.choice(
            _KERNEL_COEFFICIENTS
        )
    return _polynomial(variables, terms)


def _seq(terms):
    return [(m.exponents, c, type(c)) for m, c in terms.items()]


def test_term_kernels_match_the_arithmetic_they_replaced():
    rng = random.Random(31)
    shapes = ("zero", "constant", "single", "multi", "multi")
    seen = {"sum cancels": 0, "product cancels": 0, "integral Fraction": 0, "zero row": 0}
    for case in range(600):
        variables = XYZ[: rng.randint(1, 3)]
        width = len(variables)
        p = _raw_polynomial(rng, variables, rng.choice(shapes))
        q = _raw_polynomial(rng, variables, rng.choice(shapes))
        r = rng.random()
        if p.terms and r < 0.4:
            # q cancels some of p's terms in p + q
            taken = {m: -c for m, c in p.terms.items() if rng.random() < 0.6}
            q = _polynomial(variables, {**q.terms, **taken})
        elif len(p.terms) > 1 and r < 0.55:
            # p = a + b and q = a - b: the cross terms of p * q cancel
            *rest, (m, c) = p.terms.items()
            q = _polynomial(variables, {**dict(rest), m: -c})
        seen["integral Fraction"] += any(
            c.__class__ is Fraction and c.denominator == 1
            for c in itertools.chain(p.terms.values(), q.terms.values())
        )
        total = _ref_merge(p.terms, q.terms, False)
        assert _seq((p + q).terms) == _seq(total), (p, q)
        assert _seq((p - q).terms) == _seq(_ref_merge(p.terms, q.terms, True)), (p, q)
        seen["sum cancels"] += len(total) < len(set(p.terms) | set(q.terms))
        product = _ref_mul(p.terms, q.terms)
        assert _seq((p * q).terms) == _seq(product), (p, q)
        seen["product cancels"] += len(product) < len(
            {tuple(map(add, a.exponents, b.exponents)) for a in p.terms for b in q.terms}
        )
        n = case % 7
        assert _seq((p**n).terms) == _seq(_ref_pow(p.terms, n, width)), (p, n)

        # a monomial map into 1-3 variables, with zero rows and Fraction coefficients
        target = ("u0", "u1", "u2")[: rng.randint(1, 3)]
        images = []
        for _ in variables:
            row = tuple(rng.randint(0, 2) for _ in target)
            if rng.random() < 0.25:
                row = (0,) * len(target)
            seen["zero row"] += not any(row)
            images.append(_polynomial(target, {Monomial(row): rng.choice(_KERNEL_COEFFICIENTS)}))
        expected = _ref_substitute_monomials(p.terms, [im.terms for im in images], len(target))
        assert _seq(p.substitute(images).terms) == _seq(expected), (p, images)

        # a shift down to the monomial content, and the scaled shift of a pullback
        content = p.monomial_content().exponents
        common = tuple(rng.randint(0, c) for c in content)
        shifted = _wrap(variables, _shifted(p.terms, tuple(map(neg, common))))
        assert _seq(shifted.terms) == _seq(_ref_shift_down(p.terms, common)), (p, common)
        shift = [rng.randint(-c, 2) for c in content]
        scale = rng.choice(_KERNEL_COEFFICIENTS)
        checked = Polynomial(
            variables,
            {tuple(map(add, m.exponents, shift)): c * scale for m, c in p.terms.items()},
        )
        scaled = _wrap(variables, _shifted(p.terms, shift, scale))
        assert _seq(scaled.terms) == _seq(checked.terms), (p, shift, scale)
    assert all(count >= 20 for count in seen.values()), seen
