"""Acceptance suite: eight independent criteria, one test and one printed
verdict line each.  Symbolic criteria use exact equality (zero tolerance);
the numeric criterion states its tolerance inline."""

import itertools
import random
from fractions import Fraction

from conftest import verdict

from resilift.algebra import Polynomial, divides
from resilift.criteria import (
    OBSTRUCTED,
    UNKNOWN,
    cover_image,
    lift_criterion,
    pullback_singularity_probe,
    spectrum_nonpositive,
)
from resilift.forms import (
    DifferentialForm,
    basis_form,
    d_of_polynomial,
    differential,
    equal_mod_hypersurface,
    exterior_derivative,
    pullback,
    scalar_mod_hypersurface,
    volume_form,
    wedge,
)
from resilift.numint import integrate_1form, trace_real_curve
from resilift.parser import ParseError, parse_form, parse_polynomial
from resilift.residue import (
    analyze,
    blowup_exponent_formula,
    blowup_pullback,
    cover_pullback_form,
    leray_residue,
)
from resilift.weights import WeightSystem, valuation_form, valuation_poly

F = Fraction


def test_criterion_1_exact_weight_arithmetic():
    """Weights (1/3, 1/3, 1/4): kappa is exactly 11/12 and the criterion holds."""
    with verdict(1, "kappa(1/3,1/3,1/4) = 11/12 exactly and the criterion holds"):
        w = WeightSystem(("1/3", "1/3", "1/4"))
        assert w.kappa == F(11, 12)
        decision = lift_criterion(w)
        assert decision.holds
        assert decision.witness is None


def test_criterion_2_cover_image_and_probe():
    """The degree-4 cover image of (x+z^2)^2+y^2-z^4 comes out exactly."""
    with verdict(2, "cover image x^4+2*x^2*z^2+y^4 exact; probe UNKNOWN; kappa 5/4"):
        variables = ("x", "y", "z")
        x, y, z = Polynomial.generators(variables)
        s = (x + z**2) ** 2 + y**2 - z**4
        w = WeightSystem(("1/2", "1/2", "1/4"))
        image = cover_image(s, w)
        assert image == x**4 + x**2 * z**2 * 2 + y**4
        probe = pullback_singularity_probe(s, w)
        assert probe.status == UNKNOWN
        assert w.kappa == F(5, 4)
        assert w.kappa > 1
        assert lift_criterion(w).holds


def test_criterion_3_fermat_obstruction():
    """Fermat cubic with g = 1: obstructed, with the known second residue."""
    with verdict(
        3, "Fermat cubic: witness k=(0,0,0), OBSTRUCTED, second residue matched"
    ):
        variables = ("z0", "z1", "z2")
        z0, z1, z2 = Polynomial.generators(variables)
        s = z0**3 + z1**3 + z2**3
        g = Polynomial.one(variables)
        w = WeightSystem(("1/3", "1/3", "1/3"))
        assert w.kappa == 1
        report = analyze(s, g, w)
        assert not report.criterion.holds
        assert report.criterion.witness.k == (0, 0, 0)
        assert report.criterion.witness.value == 1
        assert report.verdict.kind == OBSTRUCTED
        second = report.second_residue
        uv = second.form.variables
        u1 = Polynomial.variable(uv, "u1")
        u2 = Polynomial.variable(uv, "u2")
        rep = (differential(uv, "u2") * u1 - differential(uv, "u1") * u2) * F(1, 3)
        scalar = scalar_mod_hypersurface(second.form, rep, second.relation)
        assert scalar is not None
        # the representative matches up to the reported scalar
        assert equal_mod_hypersurface(second.form, rep * scalar, second.relation)
        assert scalar == -1
        assert report.verify()


def test_criterion_4_integral_positive_and_stable():
    """The chart integral is strictly positive and stable to 1e-4 relative
    under step halving at matched reach."""
    with verdict(
        4, "chart integral > 0, step-halving change below 1e-4 relative"
    ):
        variables = ("z0", "z1", "z2")
        z0, z1, z2 = Polynomial.generators(variables)
        s = z0**3 + z1**3 + z2**3
        w = WeightSystem(("1/3", "1/3", "1/3"))
        report = analyze(s, Polynomial.one(variables), w)
        second = report.second_residue
        uv = second.form.variables
        u1 = Polynomial.variable(uv, "u1")
        u2 = Polynomial.variable(uv, "u2")
        rep = (differential(uv, "u2") * u1 - differential(uv, "u1") * u2) * F(1, 3)
        scalar = scalar_mod_hypersurface(second.form, rep, second.relation)

        trace = trace_real_curve(second.relation, (0.0, -1.0), F(1, 100), 1200)
        result = integrate_1form(rep, trace)
        assert result.value > 0

        halved = trace_real_curve(second.relation, (0.0, -1.0), F(1, 200), 2400)
        refined = integrate_1form(rep, halved)
        assert abs(refined.value - result.value) / abs(result.value) < 1e-4
        assert refined.value > 0

        # the actual second residue integrates to scalar * that value, so it
        # does not vanish on the cycle
        direct = integrate_1form(second.form, trace)
        assert direct.value * float(scalar) > 0
        assert abs(direct.value - float(scalar) * result.value) < 2e-2


def test_criterion_5_residue_identity_every_chart():
    """50 random (g, s): ds /\\ r = g dz exactly in every valid chart, and
    chart differences are annihilated by ds."""
    with verdict(5, "50 random pairs: exact residue identity in every chart"):
        rng = random.Random(20260822)
        for trial in range(50):
            count = rng.randint(2, 4)
            variables = tuple(f"z{i}" for i in range(count))
            s = Polynomial.zero(variables)
            while s.is_zero or all(
                s.partial_derivative(i).is_zero for i in range(count)
            ):
                s = _random_polynomial(rng, variables, max_degree=5)
            g = _random_polynomial(rng, variables, max_degree=3)
            while g.is_zero or divides(s, g)[0]:
                g = _random_polynomial(rng, variables, max_degree=3)
            ds = d_of_polynomial(s)
            target = volume_form(variables, g)
            residues = []
            for chart in range(count):
                if s.partial_derivative(chart).is_zero:
                    continue
                r = leray_residue(g, s, chart)
                assert wedge(ds, r.form) == target
                residues.append(r.form)
            assert residues
            for a, b in itertools.combinations(residues, 2):
                assert wedge(ds, a - b).is_zero


def test_criterion_6_cover_valuation_and_blowup_exponent():
    """50 random pure forms: the cover pullback multiplies valuations by l
    exactly, and the blow-up splits off exactly the predicted power."""
    with verdict(
        6, "50 random pure forms: valuation scales by l; split exponent exact"
    ):
        rng = random.Random(1996)
        for trial in range(50):
            w, s, g, alpha = _random_normalized_data(rng)
            variables = s.variables
            ones = WeightSystem([1] * len(variables))
            l = w.cover_order

            # valuation scaling for a random weight-pure polynomial form
            eta = _random_pure_form(rng, variables, w)
            images = [
                Polynomial.variable(variables, name) ** e
                for name, e in zip(variables, w.cover_exponents)
            ]
            pulled = pullback(eta, images)
            v_eta, pure = valuation_form(eta, w)
            assert pure
            v_hat, pure_hat = valuation_form(pulled, ones)
            assert pure_hat
            assert v_hat == l * v_eta

            # blow-up exponent for the pipeline form built from (g, s)
            omega_hat = cover_pullback_form(g, s, w)
            exponent, split = blowup_pullback(omega_hat, w)
            assert exponent == blowup_exponent_formula(alpha, w)
            assert exponent == int(l * (alpha - 1 + w.kappa) - 1)
            assert split.exponent == exponent


def test_criterion_7_exhaustive_criterion_sweep():
    """Every weight multiset with up to 4 entries and denominators <= 12:
    the decision agrees with brute force and with the spectrum zero test, and
    a failing decision's witness is the last spectrum entry's k."""
    with verdict(
        7, "exhaustive sweep (denominators <= 12, n <= 3): DP = brute = spectrum"
    ):
        pool = sorted(
            {
                F(p, q)
                for q in range(1, 13)
                for p in range(1, q + 1)
            }
        )
        assert len(pool) == 46
        checked = 0
        for count in range(1, 5):
            for weights in itertools.combinations_with_replacement(pool, count):
                w = WeightSystem(weights)
                decision = lift_criterion(w)
                witness = _brute_witness(weights, 1 - w.kappa)
                assert decision.holds == (witness is None)
                if witness is not None:
                    assert (
                        sum(
                            (F(k) * a for k, a in zip(decision.witness.k, weights)),
                            F(0),
                        )
                        == 1 - w.kappa
                    )
                entries = spectrum_nonpositive(w)
                assert decision.holds == all(e.value != 0 for e in entries)
                assert decision.holds or decision.witness.k == entries[-1].k
                checked += 1
        assert checked == 230299


def test_criterion_8_property_suites():
    """Ring laws, exterior algebra laws, d after d, pullback morphism laws,
    and parser round trip plus fuzz totality, 100 cases each."""
    with verdict(8, "five property suites, 100+ random cases each, all hold"):
        rng = random.Random(404)
        variables = ("x", "y", "z")

        for _ in range(100):
            a = _random_polynomial(rng, variables, max_degree=4)
            b = _random_polynomial(rng, variables, max_degree=4)
            c = _random_polynomial(rng, variables, max_degree=4)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Polynomial.zero(variables) == a
            assert a * Polynomial.one(variables) == a
            assert (a - a).is_zero

        for _ in range(100):
            p = _random_form(rng, variables, max_form_degree=1)
            q = _random_form(rng, variables, max_form_degree=1)
            r = _random_form(rng, variables, max_form_degree=1)
            assert wedge(wedge(p, q), r) == wedge(p, wedge(q, r))
            assert wedge(p, q + r) == wedge(p, q) + wedge(p, r)
            # graded anticommutativity needs pure degrees
            dp = rng.randint(0, 2)
            dq = rng.randint(0, 2)
            a = _random_pure_degree_form(rng, variables, dp)
            b = _random_pure_degree_form(rng, variables, dq)
            sign = -1 if (dp * dq) % 2 else 1
            assert wedge(a, b) == wedge(b, a) * sign
            one_form = _random_pure_degree_form(rng, variables, 1)
            assert wedge(one_form, one_form).is_zero

        for _ in range(100):
            form = _random_form(rng, variables, max_form_degree=2)
            assert exterior_derivative(exterior_derivative(form)).is_zero

        for _ in range(100):
            images = [
                _random_polynomial(rng, variables, max_degree=2, max_terms=2)
                for _ in variables
            ]
            p = _random_form(rng, variables, max_form_degree=1)
            q = _random_form(rng, variables, max_form_degree=1)
            assert pullback(wedge(p, q), images) == wedge(
                pullback(p, images), pullback(q, images)
            )
            form = _random_form(rng, variables, max_form_degree=1)
            assert pullback(exterior_derivative(form), images) == (
                exterior_derivative(pullback(form, images))
            )

        for _ in range(100):
            p = _random_polynomial(rng, variables, max_degree=4)
            assert parse_polynomial(str(p), variables) == p
            form = _random_form(rng, variables, max_form_degree=3)
            assert parse_form(str(form), variables) == form

        alphabet = "xyzd123+-*/\\^() \n_&@#~%"
        for _ in range(150):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 30))
            )
            try:
                parse_form(text, variables)
                parse_polynomial(text, variables)
            except ParseError:
                pass


# -- random generators ----------------------------------------------------


def _random_polynomial(rng, variables, max_degree=4, max_terms=5):
    p = Polynomial.zero(variables)
    for _ in range(rng.randint(1, max_terms)):
        exponents = []
        budget = max_degree
        for _ in variables:
            e = rng.randint(0, budget)
            exponents.append(e)
            budget -= e
        coeff = F(rng.randint(-9, 9), rng.randint(1, 9))
        p = p + Polynomial.single_term(variables, tuple(exponents), coeff)
    return p


def _random_form(rng, variables, max_form_degree=2):
    form = DifferentialForm.zero(variables)
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max_form_degree)
        key = tuple(sorted(rng.sample(range(len(variables)), k)))
        form = form + basis_form(
            variables, key, _random_polynomial(rng, variables, max_degree=3)
        )
    return form


def _random_pure_degree_form(rng, variables, degree):
    form = DifferentialForm.zero(variables)
    for _ in range(rng.randint(1, 2)):
        key = tuple(sorted(rng.sample(range(len(variables)), degree)))
        form = form + basis_form(
            variables, key, _random_polynomial(rng, variables, max_degree=2)
        )
    return form


def _weight_solutions(weights, target, cap=24):
    """All exponent vectors k >= 0 with sum k_i a_i equal to target."""
    out = []

    def rec(i, remaining, acc):
        if i == len(weights):
            if remaining == 0:
                out.append(tuple(acc))
            return
        a = weights[i]
        top = min(cap, int(remaining / a))
        for k in range(top + 1):
            acc.append(k)
            rec(i + 1, remaining - k * a, acc)
            acc.pop()

    if target >= 0:
        rec(0, target, [])
    return out


def _random_normalized_data(rng):
    """Random weight system with a normalized equation s and pure numerator g."""
    while True:
        count = rng.randint(2, 4)
        weights = tuple(
            F(1, rng.randint(2, 6)) if rng.random() < 0.7 else F(rng.randint(1, 3), rng.randint(2, 6))
            for _ in range(count)
        )
        solutions = _weight_solutions(weights, F(1))
        if not solutions:
            continue
        variables = tuple(f"z{i}" for i in range(count))
        chosen = rng.sample(solutions, rng.randint(1, min(3, len(solutions))))
        s = Polynomial.zero(variables)
        for k in chosen:
            s = s + Polynomial.single_term(
                variables, k, F(rng.randint(1, 5))
            )
        w = WeightSystem(weights)
        g_exponents = tuple(rng.randint(0, 3) for _ in range(count))
        g = Polynomial.single_term(
            variables, g_exponents, F(rng.randint(1, 7))
        )
        if divides(s, g)[0]:
            continue
        alpha = valuation_poly(g, w)
        return w, s, g, alpha


def _random_pure_form(rng, variables, w):
    """A nonzero form all of whose terms share one valuation."""
    count = len(variables)
    k = rng.randint(0, count)
    key = tuple(sorted(rng.sample(range(count), k)))
    exponents = tuple(rng.randint(0, 3) for _ in range(count))
    coeff = Polynomial.single_term(variables, exponents, F(rng.randint(1, 5)))
    form = basis_form(variables, key, coeff)
    base = valuation_poly(coeff, w)
    # add a second monomial of the same coefficient valuation when one exists
    extras = _weight_solutions(tuple(w.weights), base, cap=8)
    extras = [e for e in extras if e != exponents]
    if extras:
        other = rng.choice(extras)
        form = form + basis_form(
            variables,
            key,
            Polynomial.single_term(variables, other, F(rng.randint(1, 5))),
        )
    return form


def _brute_witness(weights, target):
    """Search exponent vectors directly, without the reachability table."""
    if target < 0:
        return None
    if target == 0:
        return ()

    def rec(i, remaining):
        if i == len(weights):
            return () if remaining == 0 else None
        a = weights[i]
        for k in range(int(remaining / a) + 1):
            rest = rec(i + 1, remaining - k * a)
            if rest is not None:
                return (k,) + rest
        return None

    return rec(0, target)
