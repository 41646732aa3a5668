"""Exterior algebra: wedge, derivative, pullback, splitting, comparison
modulo a hypersurface."""

import pickle
import random
from fractions import Fraction

import pytest

from resilift.algebra import (
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
)
from resilift.forms import (
    DifferentialForm,
    SplitError,
    SplitResult,
    _Cleared,
    _merge_signed,
    basis_form,
    d_of_polynomial,
    d_of_polynomial_over,
    differential,
    equal_mod_hypersurface,
    exterior_derivative,
    pullback,
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
    assert _reference_recombine(split, u) == form
    wrong = SplitResult(4, split.du0_factor, split.remainder)
    assert _reference_recombine(wrong, u) != form


def _reference_recombine(split, variables, var_index=0):
    """u^e du /\\ du0_factor + remainder, re-expanded through normalized wedges."""
    if split.exponent is None:
        return split.remainder
    u = Polynomial.variable(variables, variables[var_index])
    if split.exponent >= 0:
        power = RationalFunction.from_polynomial(u**split.exponent)
    else:
        power = RationalFunction(Polynomial.one(variables), u ** (-split.exponent))
    du = basis_form(variables, (var_index,))
    return wedge(du * power, split.du0_factor) + split.remainder


def _without_first(p):
    """p with the first variable set to 1."""
    terms = [((0,) + m.exponents[1:], c) for m, c in p.terms.items()]
    return Polynomial(p.variables, terms)


def _random_triples(rng, variables, count):
    """(key, num, den) with nonzero num and distinct non-constant dens free of
    the first variable; about half the keys contain index 0."""
    n = len(variables)
    triples = []
    while len(triples) < count:
        num = random_polynomial(rng, variables, max_degree=2)
        den = random_polynomial(rng, variables, max_degree=2, max_terms=2)
        den = _without_first(den)
        if num.is_zero or den.is_constant or any(den == t[2] for t in triples):
            continue
        rest = rng.sample(range(1, n), rng.randint(0, n - 1))
        key = tuple(sorted(rest + [0] * (rng.random() < 0.5)))
        triples.append((key, num, den))
    return triples


def _as_form(variables, triples):
    return DifferentialForm(
        variables, [(key, RationalFunction(num, den)) for key, num, den in triples]
    )


def _as_cleared(triples):
    cleared = _Cleared()
    for key, num, den in triples:
        cleared.add(key, num, den)
    return cleared


def _rewritten(rng, triples):
    """The same sum written another way: each pair scaled above and below by
    a random factor, or split into two numerators over its denominator."""
    out = []
    for key, num, den in triples:
        factor = random_polynomial(rng, num.variables, max_degree=1, max_terms=2)
        if rng.random() < 0.5 and not factor.is_zero:
            out.append((key, num * factor, den * factor))
        else:
            part = random_polynomial(rng, num.variables, max_degree=2)
            out += [(key, num - part, den), (key, part, den)]
    rng.shuffle(out)
    return out


def test_cleared_identities_agree_with_normalized_forms():
    rng = random.Random(41)
    outcomes = []
    for case in range(45):
        variables = tuple(f"v{i}" for i in range(2 + case % 3))
        one = Polynomial.one(variables)
        triples = _random_triples(rng, variables, rng.randint(2, 4))
        form = _as_form(variables, triples)
        same = _rewritten(rng, triples)
        key, num, _ = rng.choice(triples)
        lead = Polynomial.single_term(variables, num.leading_term()[0].exponents)
        off = same + [(key, lead, one)]
        for other in (same, off):
            expected = form == _as_form(variables, other)
            assert (_as_cleared(triples) == _as_cleared(other)) is expected
            outcomes.append(expected)

        # df /\ r == eta, against the normalized wedge as the reference
        f = random_polynomial(rng, variables, max_degree=3, max_terms=4)
        df = d_of_polynomial_over(f, variables)
        eta = wedge(df, form)
        for target in (eta, eta + basis_form(variables, key, f)):
            expected = wedge(df, form) == target
            cleared = _Cleared().add_d_wedge(f, form)
            assert (cleared == _Cleared().add_form(target)) is expected
            outcomes.append(expected)
    assert outcomes.count(True) > 60 and outcomes.count(False) > 60


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


def test_form_pickles_through_the_constructor():
    x, y, z = Polynomial.generators(XYZ)
    a = DifferentialForm(
        XYZ,
        {
            (1, 2): RationalFunction(x * F(2, 3), y + z),
            (0,): x**2 - 1,
            (): F(1, 2),
        },
    )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert b == a and str(b) == str(a)
        assert list(b.components) == list(a.components)
        assert b.variables == a.variables


def test_form_scalar_multiplication():
    dx = differential(XYZ, "x")
    assert dx * 2 + dx * (-2) == DifferentialForm.zero(XYZ)
    assert (dx * F(1, 2)) * 2 == dx
    x = Polynomial.variable(XYZ, "x")
    assert (dx * x).components[(0,)] == RationalFunction.from_polynomial(x)


# -- the constructor's accumulation against the loops it replaced ----------
#
# DifferentialForm.__add__, wedge, exterior_derivative and the monomial
# pullback as they were written before they handed their pieces to the
# DifferentialForm constructor and to algebra's term kernels.


def _ref_add(a, b):
    merged = dict(a.components)
    for key, coeff in b.components.items():
        if key in merged:
            total = merged[key] + coeff
            if total.is_zero:
                del merged[key]
            else:
                merged[key] = total
        else:
            merged[key] = coeff
    return DifferentialForm(a.variables, merged)


def _ref_wedge(a, b):
    out = {}
    for ka, ca in a.components.items():
        for kb, cb in b.components.items():
            sign, merged = _merge_signed(ka, kb)
            if sign == 0:
                continue
            coeff = ca * cb
            if sign < 0:
                coeff = -coeff
            if merged in out:
                total = out[merged] + coeff
                if total.is_zero:
                    del out[merged]
                else:
                    out[merged] = total
            else:
                if not coeff.is_zero:
                    out[merged] = coeff
    return DifferentialForm(a.variables, out)


def _ref_exterior_derivative(a):
    out = DifferentialForm.zero(a.variables)
    n = len(a.variables)
    for key, coeff in a.components.items():
        for i in range(n):
            if i in key:
                continue
            dc = coeff.partial_derivative(i)
            if dc.is_zero:
                continue
            sign, merged = _merge_signed((i,), key)
            if sign == 0:
                continue
            term = dc if sign > 0 else -dc
            out = _ref_add(out, DifferentialForm(a.variables, {merged: term}))
    return out


def _ref_minors(rows):
    minors = {(): 1}
    for row in rows:
        grown = {}
        for cols, value in minors.items():
            for j, m in enumerate(row):
                if m == 0:
                    continue
                sign, merged = _merge_signed(cols, (j,))
                if sign:
                    grown[merged] = grown.get(merged, 0) + sign * value * m
        minors = {cols: v for cols, v in grown.items() if v}
    return minors


def _ref_pullback_monomial(a, images, target):
    rows = []
    for im in images:
        ((mono, c),) = im.terms.items()
        rows.append((mono.exponents, c))
    width = len(target)
    pieces = []
    for key, coeff in a.components.items():
        num = coeff.num.substitute(images)
        den = coeff.den.substitute(images)
        if den.is_zero:
            raise ZeroDenominatorError("substitution sends the denominator to zero")
        scale = 1
        base = [0] * width
        for i in key:
            exps, c = rows[i]
            scale *= c
            for j, m in enumerate(exps):
                base[j] += m
        for cols, minor in _ref_minors([rows[i][0] for i in key]).items():
            shift = list(base)
            for j in cols:
                shift[j] -= 1
            factor = scale * minor
            shifted = {
                tuple(e + d for e, d in zip(mono.exponents, shift)): c * factor
                for mono, c in num.terms.items()
            }
            pieces.append((cols, RationalFunction(Polynomial(target, shifted), den)))
    return DifferentialForm(target, pieces)


def _form_items(form):
    """Keys in order, with each coefficient's terms and their types."""
    return [
        (
            key,
            [(m.exponents, c, type(c)) for m, c in coeff.num.terms.items()],
            [(m.exponents, c, type(c)) for m, c in coeff.den.terms.items()],
        )
        for key, coeff in form.components.items()
    ]


def _random_form(rng, degrees=(0, 1, 2, 3)):
    pieces = []
    for _ in range(rng.randint(1, 4)):
        key = tuple(sorted(rng.sample(range(3), rng.choice(degrees))))
        den = random_polynomial(rng, max_degree=2, max_terms=2)
        num = random_polynomial(rng, max_degree=2)
        pieces.append((key, RationalFunction(num, den if not den.is_zero else Polynomial.one(XYZ))))
    return DifferentialForm(XYZ, pieces)


def test_form_operations_match_the_loops_they_replaced():
    rng = random.Random(43)
    cancelled = {"add": 0, "wedge": 0}
    for case in range(250):
        a = _random_form(rng)
        b = _random_form(rng)
        if case % 3 == 0:
            # b takes back some of a's components, so a + b drops keys
            b = b + DifferentialForm(
                XYZ, [(k, -c) for k, c in a.components.items() if rng.random() < 0.7]
            )
        total = a + b
        assert _form_items(total) == _form_items(_ref_add(a, b))
        cancelled["add"] += len(total.components) < len(set(a.components) | set(b.components))
        for left, right in ((a, b), (b, a)):
            assert _form_items(wedge(left, right)) == _form_items(_ref_wedge(left, right))
        one = _random_form(rng, degrees=(1,))
        product = wedge(one, one)  # every pair cancels against its swap
        assert _form_items(product) == _form_items(_ref_wedge(one, one))
        cancelled["wedge"] += product.is_zero and len(one.components) > 1
        assert _form_items(exterior_derivative(a)) == _form_items(_ref_exterior_derivative(a))

        target = UV if case % 2 else ("u0", "u1", "u2")
        images = random_monomial_map(rng, target)
        try:
            expected = _ref_pullback_monomial(a, images, target)
        except ZeroDenominatorError:
            with pytest.raises(ZeroDenominatorError):
                pullback(a, images)
            continue
        assert _form_items(pullback(a, images)) == _form_items(expected)
    assert all(count >= 20 for count in cancelled.values()), cancelled
