r"""Symbolic residue pipeline for first order poles on quasihomogeneous hypersurfaces.

For omega = (g/s) dz0 /\ ... /\ dzn with s quasihomogeneous of valuation 1,
the Leray residue is the form r on {s=0} with ds /\ r = g dz0 /\ ... /\ dzn;
in the chart where ds/dz_i does not vanish it is written down directly.
The analysis then moves to a branched cover z_i -> z_i^(l*a_i) that turns
the quasihomogeneous data homogeneous, and to the 0-th chart of a weighted
blow-up, z_0 = u_0 and z_i = u_0 u_i, where the pulled back form acquires a
single pure power u_0^e du_0.  The exponent e = l*(alpha - 1 + kappa) - 1
is negative one exactly on the logarithmic boundary alpha = 1 - kappa, and
there the coefficient of du_0/u_0, the second residue, is the symbolic
obstruction to lifting: it is recovered by dividing the chart volume form
by d of the chart equation.

The cover, the blow-up chart and the cover followed by the evaluation at
z_0 = 1 are all monomial maps, so every pullback and substitution here runs
by exponent arithmetic (see forms.pullback); its cost follows the term count,
not l.  analyze pulls no form back: it checks its inputs once, decomposes the
numerator once, reads the criterion off the nonpositive spectrum and the
blow-up exponent off the weight of the numerator by the formula above, and
sends s and the obstruction component through the chart map z_0 -> 1,
z_i -> u_i^(e_i), with e_i = l*a_i.  The public stage functions
(cover_pullback_form, blowup_pullback, second_residue) keep the staged route
with its pullbacks and their own input checks, for direct callers and as the
reference analyze is tested against.

Everything here is exact.  The scalar prefactor 1/(2*pi*i) that
conventionally normalizes residues is carried as a symbolic tag on the
report; no decision made by this module depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Tuple

from .algebra import (
    Polynomial,
    RationalFunction,
    _map_terms,
    _single_term,
    _wrap,
    divides,
    poly_with_variables,
)
from .criteria import (
    INCONCLUSIVE,
    LIFTS,
    OBSTRUCTED,
    CriterionDecision,
    CriterionWitness,
    LiftVerdict,
    RemovablePoleError,
    SpectrumEntry,
    _cover_images,
    lift_criterion,
    obstruction_component,
    spectrum_nonpositive,
)
from .forms import (
    DifferentialForm,
    SplitResult,
    _Cleared,
    basis_form,
    pullback,
    split_du0,
    volume_form,
)
from .weights import (
    WeightSystem,
    _divide_weights,
    is_quasihomogeneous,
    quasi_decompose,
    require_normalized,
)

PREFACTOR_TAG = "1/(2*pi*i)"


class ResidueError(Exception):
    """Base error for the residue pipeline."""


class DegenerateChartError(ResidueError):
    """The requested chart derivative vanishes identically."""

    def __init__(self, message, usable_chart: Optional[int] = None):
        super().__init__(message)
        self.usable_chart = usable_chart


class ResidueDivisionError(ResidueError):
    """The defining identity admits no solution of the expected shape."""


class ImpureNumeratorError(ResidueError):
    """The numerator mixes degrees; decompose it and process components."""


@dataclass(frozen=True)
class NonvanishingCertificate:
    """Witness that the second residue numerator survives in the chart.

    ``numerator`` is the chart image of the obstruction component; it is
    nonzero and not divisible by ``relation``, which is what makes the
    extracted form a genuine nonzero class on the chart hypersurface.
    """

    numerator: Polynomial
    relation: Polynomial


@dataclass(frozen=True)
class ChartForm:
    """A form attached to one chart of the hypersurface {relation = 0}."""

    chart_index: Optional[int]
    relation: Polynomial
    form: DifferentialForm
    certificate: Optional[NonvanishingCertificate] = None

    def __post_init__(self):
        if self.relation.is_zero:
            raise ResidueError("chart relation polynomial is zero")
        relation = poly_with_variables(self.relation, self.form.variables)
        for coeff in self.form.components.values():
            if not coeff.den.is_constant and divides(relation, coeff.den)[0]:
                raise ResidueError(
                    "chart relation divides a coefficient denominator; "
                    "the form has a pole on the hypersurface"
                )


def _first_usable_chart(s: Polynomial) -> Tuple[Optional[int], Optional[Polynomial]]:
    """The first chart whose derivative of s is nonzero, with that derivative."""
    for i in range(len(s.variables)):
        s_i = s.partial_derivative(i)
        if not s_i.is_zero:
            return i, s_i
    return None, None


def _require_usable_chart(f: Polynomial, chart: int, f_chart: Polynomial) -> None:
    """Raise DegenerateChartError, naming a usable chart, if f_chart = df/dz_chart is 0."""
    if f_chart.is_zero:
        usable, _ = _first_usable_chart(f)
        hint = f"; chart {usable} is usable" if usable is not None else ""
        raise DegenerateChartError(
            f"derivative in chart {chart} vanishes identically{hint}",
            usable_chart=usable,
        )


def leray_residue(g: Polynomial, s: Polynomial, chart: int) -> ChartForm:
    r"""The chart form r = (-1)^chart (g/s_chart) dz0 /\ ...omit chart... /\ dzn.

    Satisfies ds /\ r = g dz0 /\ ... /\ dzn exactly as forms, not merely
    modulo s.
    """
    g._check_same_variables(s)
    n = len(s.variables)
    if not 0 <= chart < n:
        raise ResidueError(f"chart index {chart} out of range for {s.variables}")
    if s.is_zero:
        raise ResidueError("hypersurface equation is zero")
    _require_pole(s, g)
    return _leray_residue(g, s, chart, s.partial_derivative(chart))


def _require_pole(s: Polynomial, g: Polynomial):
    if divides(s, g)[0]:
        raise RemovablePoleError(
            f"{s} divides {g}; the pole is removable and the residue vanishes"
        )


def _leray_residue(
    g: Polynomial, s: Polynomial, chart: int, s_chart: Polynomial
) -> ChartForm:
    """leray_residue for a chart in range, s not dividing g, s_chart = ds/dz_chart."""
    n = len(s.variables)
    _require_usable_chart(s, chart, s_chart)
    coeff = RationalFunction(g, s_chart)
    if chart % 2:
        coeff = -coeff
    indices = tuple(i for i in range(n) if i != chart)
    return ChartForm(
        chart_index=chart,
        relation=s,
        form=basis_form(s.variables, indices, coeff),
    )


def _residue_division(
    eta: DifferentialForm,
    f: Polynomial,
    chart: int,
    f_chart: Polynomial,
    certificate: Optional[NonvanishingCertificate] = None,
) -> ChartForm:
    r"""Solve df /\ r = eta for a nonzero top form eta over f's variables.

    Same construction as the Leray residue, applied to the single coefficient
    of eta, in a chart in range with f_chart = df/du_chart; the sign is fixed
    by the defining identity, which is re-verified exactly before returning.
    The chart form carries the certificate.
    """
    variables = f.variables
    n = len(variables)
    _require_usable_chart(f, chart, f_chart)
    coeff = eta.component(tuple(range(n))) / RationalFunction.from_polynomial(f_chart)
    if chart % 2:
        coeff = -coeff
    indices = tuple(i for i in range(n) if i != chart)
    r = basis_form(variables, indices, coeff)
    if _Cleared().add_d_wedge(f, r) != _Cleared().add_form(eta):
        raise ResidueDivisionError("defining identity failed to close")
    return ChartForm(chart_index=chart, relation=f, form=r, certificate=certificate)


def cover_pullback_form(
    g: Polynomial, s: Polynomial, w: WeightSystem
) -> DifferentialForm:
    r"""Pullback of (g/s) dz0 /\ ... /\ dzn under the cover z_i -> z_i^(l*a_i).

    The result is (prod l*a_i) * (cover g / cover s) * prod z_i^(l*a_i - 1)
    times the volume form; the constant prod l*a_i is exactly the Jacobian
    factor forced by the chain rule.
    """
    g._check_same_variables(s)
    if len(s.variables) != len(w):
        raise ResidueError(
            f"weight system size {len(w)} does not match variables {s.variables}"
        )
    require_normalized(s, w)
    _require_pole(s, g)
    images = _cover_images(s.variables, w)
    return pullback(volume_form(s.variables, RationalFunction(g, s)), images)


def _chart_names(count: int, start: int = 0) -> Tuple[str, ...]:
    return tuple(f"u{i}" for i in range(start, start + count))


def blowup_pullback(
    omega_hat: DifferentialForm, w: WeightSystem
) -> Tuple[Optional[int], SplitResult]:
    """Substitute the 0-th blow-up chart z_0 = u_0, z_i = u_0 u_i and split.

    Requires the coefficients of omega_hat to have homogeneous numerator and
    denominator in the ordinary grading, which is what the cover pullback of
    a quasihomogeneous (g, s) produces; a mixed-degree numerator means g
    should be decomposed first and the components processed independently.
    Returns the pure u_0 exponent of the du_0 part together with the split.
    """
    variables = omega_hat.variables
    if len(variables) != len(w):
        raise ResidueError(
            f"weight system size {len(w)} does not match variables {variables}"
        )
    degrees = {}
    for key, coeff in omega_hat.components.items():
        for part, label in ((coeff.num, "numerator"), (coeff.den, "denominator")):
            if part.is_constant:
                continue
            terms_degrees = set(map(sum, part.terms))
            if len(terms_degrees) > 1:
                raise ImpureNumeratorError(
                    f"coefficient {label} mixes degrees {sorted(terms_degrees)}; "
                    "decompose the numerator into quasihomogeneous components "
                    "and process them separately"
                )
        degrees[key] = (
            (0 if coeff.num.is_zero else coeff.num.total_degree()),
            (0 if coeff.den.is_constant else coeff.den.total_degree()),
        )
    n = len(variables)
    chart_vars = _chart_names(n)
    images = [
        _single_term(chart_vars, [1] + [int(j == i) for j in range(1, n)])
        for i in range(n)
    ]
    split = split_du0(pullback(omega_hat, images), 0)
    top = tuple(range(n))
    if split.exponent is not None and set(omega_hat.components) == {top}:
        # structural cross-check: for a top form with homogeneous
        # numerator/denominator the pure power is forced by the degrees
        p, q = degrees[top]
        expected = p + (n - 1) - q
        if split.exponent != expected:
            raise ResidueError(
                f"blow-up exponent {split.exponent} contradicts degree count {expected}"
            )
    return split.exponent, split


def blowup_exponent_formula(alpha: Fraction, w: WeightSystem) -> int:
    """The predicted u_0 exponent l*(alpha - 1 + kappa) - 1 for numerator weight alpha."""
    value = w.cover_order * (alpha - 1 + w.kappa) - 1
    if value.denominator != 1:
        raise ResidueError(
            f"weight {alpha} is not attainable over this weight system"
        )
    return int(value)


def second_residue(g: Polynomial, s: Polynomial, w: WeightSystem) -> ChartForm:
    r"""The symbolic obstruction form r2' in the 0-th blow-up chart.

    Extracts the weight-(1 - kappa) component g_a of g; when it vanishes the
    zero chart form is returned.  Otherwise r2' solves

        d(cover s)(1,u) /\ r2' = C * (cover g_a)(1,u) * prod u_i^(l*a_i - 1)
                                  * du_1 /\ ... /\ du_n

    exactly, where C is the Jacobian constant of the cover.  The returned
    chart form carries a certificate that the right hand side numerator is
    nonzero and not divisible by the chart equation, which is what makes
    the obstruction genuinely nonvanishing on the chart hypersurface.
    """
    g._check_same_variables(s)
    if len(s.variables) != len(w):
        raise ResidueError(
            f"weight system size {len(w)} does not match variables {s.variables}"
        )
    nonzero, component = obstruction_component(s, g, w)
    if lift_criterion(w).holds:
        raise ResidueError(
            "the lift criterion holds for these weights; no obstruction exists"
        )
    return _second_residue(s, w, component if nonzero else None)


def _chart_image(p: Polynomial, w: WeightSystem) -> Polynomial:
    """p under the cover followed by z_0 = 1: z_0 -> 1, z_i -> u_i^(l*a_i)."""
    n = len(p.variables)
    rows = [((), None)] + [(((i, e),), None) for i, e in enumerate(w.cover_exponents[1:])]
    return _wrap(_chart_names(n - 1, start=1), _map_terms(p.terms, rows, n - 1))


def _chart_index_matches(chart: ChartForm) -> bool:
    """Whether chart_index is the one index the form's single basis key omits,
    or None for the zero form."""
    keys = list(chart.form.components)
    if not keys:
        return chart.chart_index is None
    omitted = [i for i in range(len(chart.form.variables)) if i not in keys[0]]
    return len(keys) == 1 and omitted == [chart.chart_index]


def _second_residue(
    s: Polynomial, w: WeightSystem, component: Optional[Polynomial]
) -> ChartForm:
    """second_residue for s normalized under w and a failing criterion.

    component is the nonzero weight-(1 - kappa) component of g, or None.
    """
    n = len(s.variables)
    if n < 2:
        raise ResidueError("the blow-up chart needs at least two variables")
    chart_vars = _chart_names(n - 1, start=1)
    s_chart = _chart_image(s, w)
    if component is None:
        return ChartForm(
            chart_index=None,
            relation=s_chart,
            form=DifferentialForm.zero(chart_vars),
        )
    g_chart = _chart_image(component, w)
    if g_chart.is_zero:
        raise ResidueError("chart image of the obstruction component vanished")
    if divides(s_chart, g_chart)[0]:
        raise ResidueError(
            "chart equation divides the obstruction numerator; the numerator "
            "weight is not below the equation weight"
        )
    factor = _single_term(
        chart_vars, [e - 1 for e in w.cover_exponents[1:]], w.jacobian_constant
    )
    rhs = volume_form(chart_vars, g_chart * factor)
    chart, s_chart_derivative = _first_usable_chart(s_chart)
    if chart is None:
        raise DegenerateChartError("chart equation has no usable chart")
    return _residue_division(
        rhs,
        s_chart,
        chart,
        s_chart_derivative,
        NonvanishingCertificate(numerator=g_chart, relation=s_chart),
    )


def _criterion_from_spectrum(
    spectrum: Tuple[SpectrumEntry, ...]
) -> CriterionDecision:
    """lift_criterion's decision and witness, read off spectrum_nonpositive.

    The criterion fails exactly when 0 is a spectrum value.  Values are at
    most 0 and the entries are sorted by (value, k), so 0 can only be the
    last value, and then the last entry's k is the lexicographically largest
    k >= 0 with sum k_i a_i = 1 - kappa.  That is also lift_criterion's
    witness.  Its reconstruction from the target T takes, at each remainder
    t, the smallest coin index i with t - c_i reachable.  If t - c_i is
    unreachable, so is t - c_j - c_i for every coin j, so a refused coin
    stays refused: the walk uses coin 0 as often as any solution can, then
    coin 1 as often as the rest allows, and so on.  For kappa = 1 both give
    k = 0, and for kappa > 1 the spectrum is empty and the criterion holds.
    """
    if spectrum and spectrum[-1].value == 0:
        return CriterionDecision(False, CriterionWitness(spectrum[-1].k, Fraction(1)))
    return CriterionDecision(True, None)


@dataclass(frozen=True)
class ResidueReport:
    """What the pipeline printed or could not derive for one singular point.

    s, g and the weights determine the rest, which verify() recomputes: the
    spectrum values and the witness, the obstruction component, the blow-up
    exponent, the verdict, the charts and the relations of both residues.
    The residue forms themselves are checked by their defining identities.
    """

    s: Polynomial
    g: Polynomial
    weight_system: WeightSystem
    criterion: CriterionDecision
    spectrum: Tuple[SpectrumEntry, ...]
    leray: ChartForm
    blowup_exponent: Optional[int]
    second_residue: Optional[ChartForm]
    obstruction_component: Polynomial
    verdict: LiftVerdict
    warnings: Tuple[str, ...] = ()
    prefactor_tag: str = PREFACTOR_TAG

    @property
    def kappa(self) -> Fraction:
        return self.weight_system.kappa

    @property
    def cover_order(self) -> int:
        return self.weight_system.cover_order

    @property
    def jacobian_constant(self) -> Fraction:
        return self.weight_system.jacobian_constant

    @property
    def obstruction_nonzero(self) -> bool:
        return not self.obstruction_component.is_zero

    def verify(self) -> bool:
        """Recompute the report from s, g and the weights; raise on failure.

        The two form identities (the Leray and the second residue) are checked
        on cleared denominators (forms._Cleared): no RationalFunction is built
        and nothing is divided.  Everything else is recomputed on integers
        over the cover order l, or by the exponent arithmetic of the chart map.
        """
        s, g, leray = self.s, self.g, self.leray
        if (
            leray.relation != s
            or leray.form.variables != s.variables
            or leray.chart_index is None
            or not _chart_index_matches(leray)
        ):
            raise ResidueError("Leray residue is not a chart form of s")
        lhs = _Cleared().add_d_wedge(s, leray.form)
        if lhs != _Cleared().add(tuple(range(len(s.variables))), g):
            raise ResidueError("stored residue fails its defining identity")
        # the witness and the spectrum, on integers over the cover order l
        l = self.cover_order
        exponents = self.weight_system.cover_exponents
        base = sum(exponents) - l
        witness = self.criterion.witness
        if witness is not None:
            if sum(map(mul, witness.k, exponents)) != -base or witness.value != 1:
                raise ResidueError("criterion witness does not recompute")
        for entry in self.spectrum:
            v = base + sum(map(mul, entry.k, exponents))
            value = entry.value
            if v > 0 or value.numerator * l != v * value.denominator:
                raise ResidueError("spectrum entry does not recompute")
        # the component is exactly the terms of g of l-scaled degree l - sum(e)
        component = self.obstruction_component
        degrees = {m: sum(map(mul, m, exponents)) for m in g.terms}
        part = {m: c for m, c in g.terms.items() if degrees[m] == -base}
        if component.variables != g.variables or component.terms != part:
            raise ResidueError(
                "obstruction component is not the weight-(1 - kappa) part of g"
            )
        # the blow-up exponent l(alpha - 1 + kappa) - 1 = v + sum(e) - l - 1 for
        # the scaled degree v of g when it is pure, else of the component
        distinct = set(degrees.values())
        v = distinct.pop() if len(distinct) == 1 else -base if part else None
        if self.blowup_exponent != (None if v is None else v + base - 1):
            raise ResidueError("blow-up exponent does not recompute")
        # the criterion is the spectrum's zero test, and the verdict follows
        # from the criterion and the component
        holds = self.criterion.holds
        if self.criterion != _criterion_from_spectrum(self.spectrum):
            raise ResidueError("criterion disagrees with the spectrum")
        second = self.second_residue
        if (second is None) != holds:
            raise ResidueError(
                "a second residue is present exactly when the criterion fails"
            )
        expected = LIFTS if holds else OBSTRUCTED if part else INCONCLUSIVE
        if self.verdict.kind != expected:
            raise ResidueError(
                f"verdict {self.verdict.kind} does not follow from the criterion "
                f"and the obstruction component (expected {expected})"
            )
        if second is not None:
            self._verify_second_residue(second, component)
        return True

    def _verify_second_residue(self, second: ChartForm, component: Polynomial):
        """The second residue lives on the chart image of s, is zero exactly
        when the component is, and otherwise solves its defining identity for
        the chart image of the component."""
        w = self.weight_system
        relation = _chart_image(self.s, w)
        certificate = second.certificate
        nonzero = not component.is_zero
        if (
            second.relation != relation
            or second.form.variables != relation.variables
            or not _chart_index_matches(second)
            or second.form.is_zero == nonzero
            or (certificate is None) == nonzero
        ):
            raise ResidueError(
                "second residue is not a chart form on the chart image of s, "
                "nonzero exactly when the obstruction component is"
            )
        if not nonzero:
            return
        chart_vars = relation.variables
        factor = _single_term(
            chart_vars, [e - 1 for e in w.cover_exponents[1:]], self.jacobian_constant
        )
        lhs = _Cleared().add_d_wedge(relation, second.form)
        rhs = _Cleared().add(
            tuple(range(len(chart_vars))), certificate.numerator * factor
        )
        if lhs != rhs:
            raise ResidueError("second residue fails its defining identity")
        if certificate.relation != relation or (
            certificate.numerator != _chart_image(component, w)
        ):
            raise ResidueError(
                "second residue certificate is not the chart image of s and of "
                "the obstruction component"
            )


def analyze(
    s: Polynomial,
    g: Polynomial,
    w: WeightSystem,
    rescale_weights: bool = False,
) -> ResidueReport:
    """Run the whole symbolic pipeline for one singular point.

    With ``rescale_weights`` the weights are divided by the valuation of s
    first, which is the explicit opt-in for equations of valuation other
    than 1.  A numerator mixing weights is decomposed; the single component
    of weight 1 - kappa drives the blow-up and obstruction stages, and the
    remaining components are reported as spectators in the warnings.

    The criterion is read off the nonpositive spectrum, and the blow-up
    exponent is blowup_exponent_formula of the weight of g_a (g when g is
    pure, else its weight-(1 - kappa) component); no form is pulled back.
    Tests compare both with the staged functions.
    """
    g._check_same_variables(s)
    warnings = []
    ok = False
    if rescale_weights:
        # a quasihomogeneous s has valuation exactly 1 under the rescaled
        # weights, so only a failed probe goes on to require_normalized
        ok, weight = is_quasihomogeneous(s, w)
        if ok and weight != 1:
            w = _divide_weights(s, w, weight)
            warnings.append(
                f"weights rescaled by 1/{weight} to normalize the equation"
            )
    if not ok:
        require_normalized(s, w)
    _require_pole(s, g)
    spectrum = spectrum_nonpositive(w)
    criterion = _criterion_from_spectrum(spectrum)
    leray = _leray_residue(g, s, *_first_usable_chart(s))

    # g is nonzero, since s does not divide it
    alpha = 1 - w.kappa
    components = quasi_decompose(g, w).components
    component = components.get(alpha)
    if len(components) == 1:  # pure: g itself is blown up
        (g_weight,) = components
    elif component is not None:
        listed = ", ".join(str(x) for x in sorted(components) if x != alpha)
        warnings.append(
            f"numerator mixes weights; the weight-{alpha} component drives "
            f"the blow-up and obstruction stages, spectator weights: {listed}"
        )
        g_weight = alpha
    else:
        g_weight = None
        warnings.append(
            "numerator mixes weights and has no component of weight "
            f"{alpha}; blow-up stage skipped"
        )

    if criterion.holds:
        kind, second = LIFTS, None
    else:
        kind = INCONCLUSIVE if component is None else OBSTRUCTED
        second = _second_residue(s, w, component)
    return ResidueReport(
        s=s,
        g=g,
        weight_system=w,
        criterion=criterion,
        spectrum=spectrum,
        leray=leray,
        blowup_exponent=(
            None if g_weight is None else blowup_exponent_formula(g_weight, w)
        ),
        second_residue=second,
        obstruction_component=(
            Polynomial.zero(g.variables) if component is None else component
        ),
        verdict=LiftVerdict(kind),
        warnings=tuple(warnings),
    )
