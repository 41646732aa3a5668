"""The symbolic pipeline: Leray residue, branched cover pullback, blow-up
split, second residue, and the aggregate report."""

import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest

from resilift import algebra, cli, forms, residue
from resilift.algebra import Polynomial, RationalFunction
from resilift.criteria import (
    INCONCLUSIVE,
    LIFTS,
    OBSTRUCTED,
    CriterionDecision,
    CriterionWitness,
    LiftVerdict,
    RemovablePoleError,
    SpectrumEntry,
)
from resilift.forms import (
    DifferentialForm,
    basis_form,
    d_of_polynomial,
    differential,
    equal_mod_hypersurface,
    scalar_mod_hypersurface,
    volume_form,
    wedge,
)
from resilift.residue import (
    ChartForm,
    DegenerateChartError,
    ImpureNumeratorError,
    NonvanishingCertificate,
    ResidueError,
    analyze,
    blowup_exponent_formula,
    blowup_pullback,
    cover_pullback_form,
    leray_residue,
    residue_division,
    second_residue,
)
from resilift.weights import (
    UnnormalizedEquationError,
    WeightError,
    WeightSystem,
    quasi_decompose,
    rescaled_weights,
)

F = Fraction
Z = ("z0", "z1", "z2")
UV = ("u1", "u2")


@pytest.fixture
def fermat():
    z0, z1, z2 = Polynomial.generators(Z)
    return z0**3 + z1**3 + z2**3


@pytest.fixture
def wf():
    return WeightSystem(("1/3", "1/3", "1/3"))


def test_leray_residue_identity(fermat):
    g = Polynomial.one(Z)
    ds = d_of_polynomial(fermat)
    target = volume_form(Z, g)
    for chart in range(3):
        r = leray_residue(g, fermat, chart)
        assert r.chart_index == chart
        assert wedge(ds, r.form) == target


def _form(components):
    return DifferentialForm(Z, components)


def test_leray_residue_chart_sign(fermat):
    g = Polynomial.one(Z)
    r0 = leray_residue(g, fermat, 0)
    z0 = Polynomial.variable(Z, "z0")
    expected = _form(
        {(1, 2): RationalFunction(Polynomial.one(Z) * F(1, 3), z0**2)}
    )
    assert r0.form == expected
    # the alternating sign makes chart 1 carry a minus on dz0 /\ dz2
    r1 = leray_residue(g, fermat, 1)
    z1 = Polynomial.variable(Z, "z1")
    assert r1.form == _form(
        {(0, 2): RationalFunction(Polynomial.one(Z) * F(-1, 3), z1**2)}
    )


def test_leray_residue_rejects_removable_pole(fermat):
    z0 = Polynomial.variable(Z, "z0")
    with pytest.raises(RemovablePoleError):
        leray_residue(fermat * z0, fermat, 0)


def test_leray_residue_degenerate_chart_names_usable_one():
    z0, z1, z2 = Polynomial.generators(Z)
    s = z0**2 + z1**2
    with pytest.raises(DegenerateChartError) as info:
        leray_residue(Polynomial.one(Z), s, 2)
    assert info.value.usable_chart == 0


def test_residue_division_reverses_wedge(fermat):
    eta = volume_form(Z, Polynomial.one(Z))
    result = residue_division(eta, fermat, 0)
    assert wedge(d_of_polynomial(fermat), result.form) == eta
    with pytest.raises(ResidueError):
        residue_division(differential(Z, "z0"), fermat, 0)


def test_cover_pullback_form(fermat, wf):
    omega_hat = cover_pullback_form(Polynomial.one(Z), fermat, wf)
    # l = 3, la_i = 1: the cover is the identity and C = 1
    top = (0, 1, 2)
    assert set(omega_hat.components) == {top}
    assert omega_hat.components[top] == RationalFunction(Polynomial.one(Z), fermat)


def test_cover_pullback_form_weighted():
    x, y, z = Polynomial.generators(("x", "y", "z"))
    s = x**3 + y**3 + z**4
    w = WeightSystem(("1/3", "1/3", "1/4"))
    omega_hat = cover_pullback_form(Polynomial.one(("x", "y", "z")), s, w)
    coeff = omega_hat.components[(0, 1, 2)]
    s_hat = x**12 + y**12 + z**12
    # C x^3 y^3 z^2 / s_hat with C = 48, denominator already monic
    assert coeff == RationalFunction(x**3 * y**3 * z**2 * 48, s_hat)


def test_blowup_pullback_exponent(fermat, wf):
    omega_hat = cover_pullback_form(Polynomial.one(Z), fermat, wf)
    exponent, split = blowup_pullback(omega_hat, wf)
    assert exponent == -1
    assert exponent == blowup_exponent_formula(F(0), wf)
    assert split.remainder.is_zero


def test_blowup_exponent_formula_rejects_unattainable(wf):
    with pytest.raises(ResidueError):
        blowup_exponent_formula(F(1, 2), wf)


def test_blowup_pullback_rejects_mixed_numerator(fermat, wf):
    z0 = Polynomial.variable(Z, "z0")
    mixed = volume_form(Z, RationalFunction(Polynomial.one(Z) + z0, fermat))
    with pytest.raises(ImpureNumeratorError):
        blowup_pullback(mixed, wf)


def test_second_residue_fermat(fermat, wf):
    result = second_residue(Polynomial.one(Z), fermat, wf)
    assert result.chart_index == 0
    assert result.form.variables == UV
    u1, u2 = Polynomial.generators(UV)
    assert result.relation == Polynomial.one(UV) + u1**3 + u2**3
    rep = (differential(UV, "u2") * u1 - differential(UV, "u1") * u2) * F(1, 3)
    assert equal_mod_hypersurface(result.form, -rep, result.relation)
    assert scalar_mod_hypersurface(result.form, rep, result.relation) == -1
    assert str(result.form) == "((1/3)/(u1^2))*du2"


def test_second_residue_requires_failed_criterion():
    x, y, z = Polynomial.generators(("x", "y", "z"))
    s = x**3 + y**3 + z**4
    w = WeightSystem(("1/3", "1/3", "1/4"))
    with pytest.raises(ResidueError):
        second_residue(x, s, w)


def test_second_residue_zero_component(fermat, wf):
    z0 = Polynomial.variable(Z, "z0")
    result = second_residue(z0, fermat, wf)
    assert result.form.is_zero
    assert result.chart_index is None


def test_analyze_obstructed_report(fermat, wf):
    report = analyze(fermat, Polynomial.one(Z), wf)
    assert report.verdict.kind == OBSTRUCTED
    assert report.kappa == 1
    assert report.cover_order == 3
    assert report.jacobian_constant == 1
    assert report.blowup_exponent == -1
    assert not report.criterion.holds
    assert report.obstruction_nonzero
    assert str(report.leray.form) == "((1/3)/(z0^2))*(dz1 /\\ dz2)"
    assert report.verify()


def test_analyze_lifts_report():
    x, y, z = Polynomial.generators(("x", "y", "z"))
    s = x**3 + y**3 + z**4
    w = WeightSystem(("1/3", "1/3", "1/4"))
    report = analyze(s, x, w)
    assert report.verdict.kind == LIFTS
    assert report.second_residue is None
    assert report.blowup_exponent == blowup_exponent_formula(F(1, 3), w)
    assert report.verify()


def _spectrum_mutations(report):
    """Reports with one corrupted spectrum entry or criterion witness."""
    l = report.cover_order
    exponents = report.weight_system.cover_exponents
    spectrum = report.spectrum
    last = len(spectrum) - 1
    entry = spectrum[last]
    bumped = (entry.k[0] + 1,) + entry.k[1:]
    # k = (c, 0, ..., 0) with c e_0 > l - sum(e): a positive value
    c = (l - sum(exponents)) // exponents[0] + 1
    positive = F(sum(exponents) - l + c * exponents[0], l)
    assert positive > 0
    entries = [
        spectrum[:last] + (SpectrumEntry(entry.value + F(1, l), entry.k),),
        spectrum[:last] + (SpectrumEntry(entry.value, bumped),),
        spectrum + (SpectrumEntry(positive, (c,) + (0,) * (len(exponents) - 1)),),
    ]
    mutants = [dataclasses.replace(report, spectrum=e) for e in entries]
    witness = report.criterion.witness
    if witness is None:  # a system that lifts has no witness to reach 1
        witness = CriterionWitness(entry.k, F(1))
    else:
        witness = CriterionWitness((witness.k[0] + 1,) + witness.k[1:], witness.value)
    criterion = CriterionDecision(False, witness)
    mutants.append(dataclasses.replace(report, criterion=criterion))
    return mutants


def test_verify_rejects_corrupted_spectrum_and_witness():
    z0, z1, z2 = Polynomial.generators(Z)
    lifts = analyze(
        z0**5 + z1**5 + z2**7, Polynomial.one(Z), WeightSystem(("1/5", "1/5", "1/7"))
    )
    obstructed = analyze(
        z0**4 + z1**4 + z2**8, z2**3, WeightSystem(("1/4", "1/4", "1/8"))
    )
    assert lifts.verdict.kind == LIFTS
    assert obstructed.verdict.kind == OBSTRUCTED
    for report in (lifts, obstructed):
        assert len(report.spectrum) > 1
        assert report.verify()
        for mutant in _spectrum_mutations(report):
            with pytest.raises(ResidueError):
                mutant.verify()


def _scaled_first(form, factor):
    """form with its first component times factor."""
    first = next(iter(form.components))
    return DifferentialForm(
        form.variables,
        {key: c * factor if key == first else c for key, c in form.components.items()},
    )


def _form_mutations(report):
    """Reports with one corrupted field of a form identity, by name, each with
    the failure message of that identity."""
    replace = dataclasses.replace
    leray = report.leray
    split = report.blowup_split
    variables = report.blowup_form.variables
    u1 = Polynomial.variable(variables, variables[1])
    extra = basis_form(variables, tuple(range(1, len(variables))), u1)
    splits = {
        "exponent +1": replace(split, exponent=split.exponent + 1),
        "exponent -1": replace(split, exponent=split.exponent - 1),
        "du0 factor scaled": replace(
            split, du0_factor=_scaled_first(split.du0_factor, 3)
        ),
        "remainder extended": replace(split, remainder=split.remainder + extra),
    }
    leray_failure = "stored residue fails"
    mutants = {
        "leray scaled": (
            replace(report, leray=replace(leray, form=leray.form * 2)),
            leray_failure,
        ),
        "leray sign": (
            replace(report, leray=replace(leray, form=-leray.form)),
            leray_failure,
        ),
    }
    for name, corrupted in splits.items():
        mutants[name] = (
            replace(report, blowup_split=corrupted),
            "split does not recombine",
        )
    second = report.second_residue
    if second is not None and not second.form.is_zero:
        certificate = second.certificate
        changed = NonvanishingCertificate(
            certificate.numerator + Polynomial.one(second.form.variables),
            certificate.relation,
        )
        second_failure = "second residue fails"
        mutants["second residue scaled"] = (
            replace(report, second_residue=replace(second, form=second.form * F(1, 2))),
            second_failure,
        )
        mutants["certificate changed"] = (
            replace(report, second_residue=replace(second, certificate=changed)),
            second_failure,
        )
    return mutants


def test_verify_rejects_corrupted_form_identities(fermat, wf):
    z0, z1, z2 = Polynomial.generators(Z)
    lifts = analyze(
        z0**5 + z1**5 + z2**7, Polynomial.one(Z), WeightSystem(("1/5", "1/5", "1/7"))
    )
    obstructed = analyze(
        z0**4 + z1**4 + z2**8, z2**3, WeightSystem(("1/4", "1/4", "1/8"))
    )
    mixed = analyze(fermat, Polynomial.one(Z) + z0, wf)
    assert [r.verdict.kind for r in (lifts, obstructed, mixed)] == [
        LIFTS,
        OBSTRUCTED,
        OBSTRUCTED,
    ]
    for report in (lifts, obstructed, mixed):
        assert report.verify()
        mutants = _form_mutations(report)
        assert len(mutants) == (6 if report is lifts else 8)
        for name, (mutant, failure) in mutants.items():
            with pytest.raises(ResidueError, match=failure):
                mutant.verify()
                pytest.fail(f"verify() accepted the mutation: {name}")


def _count_algebra_calls(monkeypatch):
    """Counters of RationalFunction builds, divides probes and long divisions."""
    counts = {"RationalFunction": 0, "divides": 0, "divide_with_remainder": 0}
    init = RationalFunction.__init__

    def counting_init(self, *args):
        counts["RationalFunction"] += 1
        init(self, *args)

    def counting(name):
        original = getattr(algebra, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    # forms and residue import these names, so each module's binding is
    # replaced by the same counter
    for name in ("divides", "divide_with_remainder"):
        counted = counting(name)
        for module in (algebra, forms, residue):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return counts


def test_verify_builds_no_rational_function(monkeypatch, fermat, wf):
    counts = _count_algebra_calls(monkeypatch)
    z0 = Polynomial.variable(Z, "z0")
    for g in (Polynomial.one(Z), Polynomial.one(Z) + z0):
        report = analyze(fermat, g, wf)
        assert report.verdict.kind == OBSTRUCTED
        # the counters see analyze's work
        assert counts["RationalFunction"] and counts["divides"]
        counts.update(dict.fromkeys(counts, 0))
        assert report.verify()
        assert counts == {"RationalFunction": 0, "divides": 0, "divide_with_remainder": 0}


def test_fermat_analyze_makes_no_long_division(monkeypatch, fermat, wf):
    # every divisibility probe of this analysis is decided without a long
    # division: a single-term divisor by its exponents, and the probe of `g`
    # by the three-term `s` by the exponent-range test
    counts = _count_algebra_calls(monkeypatch)
    report = analyze(fermat, Polynomial.one(Z), wf)
    assert report.verdict.kind == OBSTRUCTED and report.verify()
    assert counts["divides"] and counts["divide_with_remainder"] == 0


def _coefficients(obj):
    """Every polynomial coefficient held anywhere in a report."""
    if isinstance(obj, Polynomial):
        yield from obj.terms.values()
    elif isinstance(obj, RationalFunction):
        yield from _coefficients(obj.num)
        yield from _coefficients(obj.den)
    elif isinstance(obj, DifferentialForm):
        for coeff in obj.components.values():
            yield from _coefficients(coeff)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            yield from _coefficients(getattr(obj, field.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _coefficients(item)


def test_report_coefficients_are_ints_or_fractions(fermat, wf):
    z0, z1, z2 = Polynomial.generators(Z)
    chain = z0**2 + z0 * z1**2 + z1 * z2**3
    cases = [
        (fermat, Polynomial.one(Z), wf, OBSTRUCTED),
        (fermat, Polynomial.one(Z) + z0, wf, OBSTRUCTED),
        (fermat, z0, wf, INCONCLUSIVE),
        (chain, (1 + z0 + z1 + z2) ** 2, WeightSystem(("1/2", "1/4", "1/4")), OBSTRUCTED),
    ]
    for s, g, w, kind in cases:
        report = analyze(s, g, w)
        assert report.verdict.kind == kind and report.verify()
        kinds = {type(c) for c in _coefficients(report)}
        assert int in kinds and kinds <= {int, Fraction}


def test_analyze_inconclusive_report(fermat, wf):
    z0 = Polynomial.variable(Z, "z0")
    report = analyze(fermat, z0, wf)
    assert report.verdict.kind == INCONCLUSIVE
    assert report.second_residue.form.is_zero
    assert report.second_residue.chart_index is None
    assert report.verify()


def test_analyze_mixed_numerator_warns(fermat, wf):
    z0 = Polynomial.variable(Z, "z0")
    g = Polynomial.one(Z) + z0
    report = analyze(fermat, g, wf)
    assert report.verdict.kind == OBSTRUCTED
    assert report.obstruction_component == Polynomial.one(Z)
    assert any("spectator" in line for line in report.warnings)
    reference = analyze(fermat, Polynomial.one(Z), wf)
    assert equal_mod_hypersurface(
        report.second_residue.form,
        reference.second_residue.form,
        report.second_residue.relation,
    )
    assert report.verify()


def _weighted_degrees(g, w):
    return {
        sum((e * a for e, a in zip(m.exponents, w.weights)), F(0)) for m in g.terms
    }


def _brute_verdict(g, w):
    """LIFTS unless some k >= 0 has kappa + sum k_i a_i = 1, found by
    enumeration; then OBSTRUCTED exactly when a term of g has weighted
    degree 1 - kappa."""
    target = 1 - sum(w.weights, F(0))
    ranges = [range(int(target / a) + 1) if target >= 0 else () for a in w.weights]
    if not any(
        sum((c * a for c, a in zip(k, w.weights)), F(0)) == target
        for k in itertools.product(*ranges)
    ):
        return LIFTS
    return OBSTRUCTED if target in _weighted_degrees(g, w) else INCONCLUSIVE


def test_analyze_verdict_matches_lift_verdict(fermat, wf):
    z0, z1, z2 = Polynomial.generators(Z)
    bp = WeightSystem(("1/3", "1/4", "1/6"))  # witness k = (0, 1, 0)
    x0, x1 = Polynomial.generators(Z[:2])
    y = Polynomial.generators(("y0", "y1", "y2", "y3"))
    cases = [
        (fermat, Polynomial.one(Z), wf),
        (fermat, z0, wf),
        (fermat, Polynomial.one(Z) + z0, wf),
        (fermat, z0 + z0 * z1, wf),
        (z0**3 + z1**3 + z2**4, z0, WeightSystem(("1/3", "1/3", "1/4"))),
        (z0**3 + z1**4 + z2**6, z2**3, bp),
        (z0**3 + z1**4 + z2**6, z1 + z2**3, bp),
        # a mixed numerator whose weight-(1 - kappa) component has two terms
        (
            z0**6 + z1**6 + z2**3,
            z0 * z1 + z2 * 3 + z0 + 1,
            WeightSystem(("1/6", "1/6", "1/3")),
        ),
        (x0**3 + x1**3, x0 + x1 * 2, WeightSystem(("1/3", "1/3"))),
        (x0**2 + x1**5, x1, WeightSystem(("1/2", "1/5"))),
        (
            sum(v**4 for v in y),
            1 + y[0] * y[3],
            WeightSystem(("1/4",) * 4),
        ),
        (
            z0**2 + z0 * z1**2 + z1 * z2**3,
            z1 + z2,
            WeightSystem(("1/2", "1/4", "1/4")),
        ),
        (
            z0**3 * z1 + z1**3 * z2 + z2**3 * z0,
            z1 - z2 * F(1, 2),
            WeightSystem(("1/4", "1/4", "1/4")),
        ),
    ]
    kinds = set()
    for s, g, w in cases:
        report = analyze(s, g, w)
        assert report.verdict.kind == _brute_verdict(g, w)
        kinds.add(report.verdict.kind)
        if len(_weighted_degrees(g, w)) == 1:  # a pure numerator blows up its cover form
            assert (report.blowup_exponent, report.blowup_split) == blowup_pullback(
                cover_pullback_form(g, s, w), w
            )
        # the one composite pullback against the staged cover then chart
        components = quasi_decompose(g, w).components
        g_alpha = g if len(components) == 1 else components.get(1 - w.kappa)
        if g_alpha is None:
            assert report.blowup_form is None and report.blowup_split is None
            continue
        staged = residue._blowup(cover_pullback_form(g_alpha, s, w), w)
        composite = (report.blowup_form, report.blowup_exponent, report.blowup_split)
        assert composite == staged
        # a split's str holds its du0 factor and remainder rendered
        assert [str(x) for x in composite] == [str(x) for x in staged]
    assert kinds == {LIFTS, OBSTRUCTED, INCONCLUSIVE}


ONE = Polynomial.one(Z)
MIXED_G = ONE + Polynomial.variable(Z, "z0")


@pytest.mark.parametrize(
    "g, edit",
    [
        (ONE, {"verdict": LiftVerdict(INCONCLUSIVE)}),
        (ONE, {"verdict": LiftVerdict(LIFTS), "second_residue": None}),
        (ONE, {"spectrum": ()}),
        (ONE, {"obstruction_component": Polynomial.zero(Z)}),
        # the component of weight 1 - kappa = 0 is 1 alone
        (MIXED_G, {"obstruction_component": MIXED_G}),
    ],
    ids=[
        "verdict inconclusive",
        "verdict lifts",
        "spectrum emptied",
        "component zeroed",
        "component is the mixed g",
    ],
)
def test_verify_rejects_forged_fermat_report(fermat, wf, g, edit):
    report = analyze(fermat, g, wf)
    assert report.verdict.kind == OBSTRUCTED and report.verify()
    with pytest.raises(ResidueError):
        dataclasses.replace(report, **edit).verify()


def test_verify_ties_the_criterion_to_the_spectrum_and_the_verdict_to_both():
    z0, z1, z2 = Polynomial.generators(Z)
    lifts = analyze(
        z0**3 + z1**3 + z2**4, z0, WeightSystem(("1/3", "1/3", "1/4"))
    )
    obstructed = analyze(
        z0**4 + z1**4 + z2**8, z2**3, WeightSystem(("1/4", "1/4", "1/8"))
    )
    assert lifts.verdict.kind == LIFTS and lifts.verify()
    assert obstructed.verdict.kind == OBSTRUCTED and obstructed.verify()
    # another k of value 0: it recomputes, but it is not the last entry's
    other = next(
        e.k
        for e in obstructed.spectrum
        if e.value == 0 and e.k != obstructed.criterion.witness.k
    )
    replace = dataclasses.replace
    for forged in (
        replace(lifts, verdict=LiftVerdict(OBSTRUCTED)),
        replace(lifts, second_residue=obstructed.second_residue),
        replace(
            obstructed,
            criterion=CriterionDecision(False, CriterionWitness(other, F(1))),
        ),
    ):
        with pytest.raises(ResidueError):
            forged.verify()


def test_report_pickles(fermat, wf):
    z0 = Polynomial.variable(Z, "z0")
    for g in (Polynomial.one(Z), Polynomial.one(Z) + z0):
        report = analyze(fermat, g, wf)
        text = cli._dump(cli.report_to_dict(report))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(report, protocol))
            assert loaded == report and loaded.verify()
            assert cli._dump(cli.report_to_dict(loaded)) == text


def test_analyze_rescale_path():
    x, y, z = Polynomial.generators(("x", "y", "z"))
    s = x**3 + y**3 + z**4
    doubled = WeightSystem(("2/3", "2/3", "1/2"))
    with pytest.raises(UnnormalizedEquationError):
        analyze(s, x, doubled)
    report = analyze(s, x, doubled, rescale_weights=True)
    assert report.weight_system.weights == (F(1, 3), F(1, 3), F(1, 4))
    assert any("rescaled" in line for line in report.warnings)


def test_constant_equation_is_a_weight_error():
    # a constant has valuation 0 under any weights: nothing to rescale by
    s = Polynomial.constant(("x", "y", "z"), 5)
    g = Polynomial.one(("x", "y", "z"))
    w = WeightSystem(("1/3", "1/3", "1/4"))
    for call in (
        lambda: analyze(s, g, w),
        lambda: analyze(s, g, w, rescale_weights=True),
        lambda: rescaled_weights(s, w),
    ):
        with pytest.raises(WeightError, match="equation 5 is constant"):
            call()


def test_chart_form_validation():
    u1, u2 = Polynomial.generators(UV)
    with pytest.raises(ResidueError):
        ChartForm(
            chart_index=0,
            relation=Polynomial.zero(UV),
            form=differential(UV, "u1"),
        )


def test_residue_division_degenerate_chart_reports_usable():
    u1, u2 = Polynomial.generators(UV)
    with pytest.raises(DegenerateChartError) as info:
        residue_division(volume_form(UV, 1), u1**2, 1)
    assert info.value.usable_chart == 0
