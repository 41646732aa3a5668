"""Exterior algebra: wedge, derivative, pullback, splitting, comparison
modulo a hypersurface."""

import random
from fractions import Fraction

import pytest

from resilift.algebra import (
    ArityError,
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
)
from resilift.forms import (
    DifferentialForm,
    SplitError,
    basis_form,
    d_of_polynomial,
    differential,
    equal_mod_hypersurface,
    exterior_derivative,
    form_with_variables,
    pullback,
    recombine_split,
    scalar_mod_hypersurface,
    split_du0,
    volume_form,
    wedge,
)

F = Fraction
XYZ = ("x", "y", "z")
UV = ("u1", "u2")


def random_polynomial(rng, variables=XYZ, max_degree=3, max_terms=3):
    p = Polynomial.zero(variables)
    for _ in range(rng.randint(1, max_terms)):
        exponents = tuple(rng.randint(0, max_degree) for _ in variables)
        p = p + Polynomial.single_term(
            variables, exponents, F(rng.randint(-6, 6), rng.randint(1, 6))
        )
    return p


def test_basis_and_zero():
    dx = differential(XYZ, "x")
    assert dx.degrees() == (1,)
    assert DifferentialForm.zero(XYZ).is_zero
    assert volume_form(XYZ, 1).degrees() == (3,)
    assert basis_form(XYZ, (), Polynomial.one(XYZ)).degrees() == (0,)


def test_wedge_reorders_with_sign():
    dx = differential(XYZ, "x")
    dy = differential(XYZ, "y")
    assert wedge(dy, dx) == -wedge(dx, dy)
    assert wedge(dx, dx).is_zero
    assert wedge(wedge(dx, dy), differential(XYZ, "z")) == volume_form(XYZ, 1)


def test_wedge_with_coefficients():
    x, y, z = Polynomial.generators(XYZ)
    a = differential(XYZ, "x") * y
    b = differential(XYZ, "y") * x
    ab = wedge(a, b)
    assert ab == basis_form(XYZ, (0, 1), x * y)
    rf = RationalFunction(Polynomial.one(XYZ), x)
    c = differential(XYZ, "y") * rf
    assert wedge(differential(XYZ, "x"), c) == DifferentialForm(
        XYZ, {(0, 1): rf}
    )


def test_exterior_derivative_basics():
    x, y, z = Polynomial.generators(XYZ)
    f = x**2 * y
    df = d_of_polynomial(f)
    assert df == differential(XYZ, "x") * (x * y * 2) + differential(XYZ, "y") * x**2
    assert exterior_derivative(df).is_zero
    # d on a rational coefficient uses the quotient rule
    rf = RationalFunction(Polynomial.one(XYZ), x)
    form = basis_form(XYZ, (1,), Polynomial.one(XYZ)) * rf
    dform = exterior_derivative(form)
    expected = DifferentialForm(
        XYZ, {(0, 1): RationalFunction(-Polynomial.one(XYZ), x**2)}
    )
    assert dform == expected


def test_d_squared_zero_random():
    rng = random.Random(5)
    for _ in range(120):
        form = DifferentialForm.zero(XYZ)
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 2)
            key = tuple(sorted(rng.sample(range(3), k)))
            form = form + basis_form(XYZ, key, random_polynomial(rng))
        assert exterior_derivative(exterior_derivative(form)).is_zero


def test_pullback_substitutes_and_chains():
    x, y, z = Polynomial.generators(XYZ)
    u = ("u0", "u1", "u2")
    u0, u1, u2 = Polynomial.generators(u)
    images = [u0, u0 * u1, u0 * u2]
    form = differential(XYZ, "y") * x
    pulled = pullback(form, images)
    # d(u0 u1) = u1 du0 + u0 du1, scaled by the image of x
    assert pulled == basis_form(u, (0,), u0 * u1) + basis_form(u, (1,), u0 * u0)
    vol = volume_form(XYZ, 1)
    pulled_vol = pullback(vol, images)
    assert pulled_vol == basis_form(u, (0, 1, 2), u0 * u0)


def test_pullback_morphism_random():
    rng = random.Random(17)
    for _ in range(100):
        images = [random_polynomial(rng, max_degree=2, max_terms=2) for _ in XYZ]
        p = DifferentialForm.zero(XYZ)
        q = DifferentialForm.zero(XYZ)
        for _ in range(2):
            kp = rng.randint(0, 1)
            kq = rng.randint(0, 1)
            p = p + basis_form(
                XYZ, tuple(sorted(rng.sample(range(3), kp))), random_polynomial(rng)
            )
            q = q + basis_form(
                XYZ, tuple(sorted(rng.sample(range(3), kq))), random_polynomial(rng)
            )
        assert pullback(wedge(p, q), images) == wedge(
            pullback(p, images), pullback(q, images)
        )
        assert pullback(exterior_derivative(p), images) == exterior_derivative(
            pullback(p, images)
        )


def _expand_substitute(p, images):
    """Term by term, each power of an image built by repeated products."""
    acc = Polynomial.zero(images[0].variables)
    for mono, coeff in p.terms.items():
        term = Polynomial.constant(images[0].variables, coeff)
        for image, e in zip(images, mono.exponents):
            for _ in range(e):
                term = term * image
        acc = acc + term
    return acc


def _expand_pullback(form, images):
    """Substituted coefficients wedged with d of each image, one factor at a time."""
    target = images[0].variables
    out = DifferentialForm.zero(target)
    for key, coeff in form.components.items():
        den = _expand_substitute(coeff.den, images)
        if den.is_zero:
            return None
        piece = DifferentialForm(
            target, {(): RationalFunction(_expand_substitute(coeff.num, images), den)}
        )
        for i in key:
            piece = wedge(piece, d_of_polynomial(images[i]))
        out = out + piece
    return out


def random_monomial_map(rng, target):
    images = []
    for _ in XYZ:
        if rng.random() < 0.2:
            exponents = (0,) * len(target)  # a zero row, as z_0 -> 1
        else:
            exponents = tuple(rng.randint(0, 2) for _ in target)
        coeff = rng.choice([F(1), F(-1), F(rng.randint(-5, 5) or 2, rng.randint(1, 4))])
        images.append(Polynomial.single_term(target, exponents, coeff))
    return images


def test_monomial_map_substitute_and_pullback_match_expansion():
    rng = random.Random(23)
    cancelled = 0
    degrees = set()
    for case in range(60):
        target = UV if case % 2 else ("u0", "u1", "u2")
        images = random_monomial_map(rng, target)
        p = random_polynomial(rng, max_terms=4)
        if case % 5 == 0:
            # y takes x's image, so p(x, y, z) - p(y, x, z) maps to zero
            images[1] = images[0]
            x, y, z = Polynomial.generators(XYZ)
            p = p - p.substitute([y, x, z])
        expected = _expand_substitute(p, images)
        image = p.substitute(images)
        assert image == expected
        assert list(image.terms) == list(expected.terms)
        if not p.is_zero and image.is_zero:
            cancelled += 1

        forms = []
        for _ in range(2):
            form = DifferentialForm.zero(XYZ)
            for _ in range(rng.randint(1, 3)):
                key = tuple(sorted(rng.sample(range(3), rng.randint(0, 3))))
                den = random_polynomial(rng, max_degree=2, max_terms=2)
                if den.is_zero:
                    den = Polynomial.one(XYZ)
                coeff = RationalFunction(random_polynomial(rng, max_degree=2), den)
                form = form + basis_form(XYZ, key, coeff)
            forms.append(form)
        pulled = []
        for form in forms + [wedge(*forms)]:
            expected = _expand_pullback(form, images)
            if expected is None:
                with pytest.raises(ZeroDenominatorError):
                    pullback(form, images)
                continue
            degrees.update(len(key) for key in form.components)
            pulled.append(pullback(form, images))
            assert pulled[-1] == expected
        if len(pulled) == 3:
            assert pulled[2] == wedge(pulled[0], pulled[1])
    assert cancelled > 0
    assert degrees == {0, 1, 2, 3}


def test_split_du0_and_recombine():
    u = ("u0", "u1", "u2")
    u0, u1, u2 = Polynomial.generators(u)
    form = basis_form(u, (0, 1), u0**3 * u1) + basis_form(u, (1, 2), u0**3 * u2)
    split = split_du0(form, 0)
    assert split.exponent == 3
    assert not split.du0_factor.is_zero
    assert not split.remainder.is_zero
    assert recombine_split(split, u, 0) == form


def test_split_du0_mixed_powers_rejected():
    u = ("u0", "u1")
    u0, u1 = Polynomial.generators(u)
    form = basis_form(u, (0,), u0 + u0**2)
    with pytest.raises(SplitError):
        split_du0(form, 0)


def test_split_du0_zero_form():
    split = split_du0(DifferentialForm.zero(UV), 0)
    assert split.exponent is None
    assert split.remainder.is_zero


def test_equal_and_scalar_mod_hypersurface():
    u1, u2 = Polynomial.generators(UV)
    relation = Polynomial.one(UV) + u1**3 + u2**3
    a = DifferentialForm(
        UV, {(1,): RationalFunction(Polynomial.one(UV) * F(1, 3), u1**2)}
    )
    rep = (differential(UV, "u2") * u1 - differential(UV, "u1") * u2) * F(1, 3)
    assert equal_mod_hypersurface(a, -rep, relation)
    assert not equal_mod_hypersurface(a, rep, relation)
    assert scalar_mod_hypersurface(a, rep, relation) == -1
    assert scalar_mod_hypersurface(a, a, relation) == 1
    assert scalar_mod_hypersurface(rep, a * 7, relation) == F(-1, 7)


def test_scalar_mod_hypersurface_none_when_unrelated():
    u1, u2 = Polynomial.generators(UV)
    relation = Polynomial.one(UV) + u1**3 + u2**3
    a = differential(UV, "u1")
    b = differential(UV, "u2") * u1
    assert scalar_mod_hypersurface(a, b, relation) is None


def test_with_variables_remaps_by_name():
    x, y, z = Polynomial.generators(XYZ)
    form = basis_form(XYZ, (0, 2), x * z)
    wide = form_with_variables(form, ("w", "x", "y", "z"))
    assert wide.variables == ("w", "x", "y", "z")
    back = form_with_variables(wide, XYZ)
    assert back == form
    with pytest.raises(ArityError):
        form_with_variables(form, ("x", "y"))


def test_str_round_trip_shapes():
    x, y, z = Polynomial.generators(XYZ)
    vol = volume_form(XYZ, x + 1)
    assert str(vol) == "(x+1)*(dx /\\ dy /\\ dz)"
    single = differential(XYZ, "x") * y
    assert str(single) == "(y)*dx"
    scalar = basis_form(XYZ, (), x * y)
    assert str(scalar) == "(x*y)"
    mixed = scalar + vol
    assert str(mixed) == "(x*y) + (x+1)*(dx /\\ dy /\\ dz)"
    assert str(DifferentialForm.zero(XYZ)) == "0"


def test_form_scalar_multiplication():
    dx = differential(XYZ, "x")
    assert dx * 2 + dx * (-2) == DifferentialForm.zero(XYZ)
    assert (dx * F(1, 2)) * 2 == dx
    x = Polynomial.variable(XYZ, "x")
    assert (dx * x).components[(0,)] == RationalFunction.from_polynomial(x)
