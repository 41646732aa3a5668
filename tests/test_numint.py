"""Curve tracing and numerical integration of 1-forms along traces."""

import dataclasses
import math
import random
import struct
from fractions import Fraction

import pytest

from resilift import numint
from resilift.algebra import Polynomial, RationalFunction
from resilift.cli import DEFAULT_STEP, _find_seed
from resilift.forms import differential
from resilift.numint import (
    CurveTrace,
    DivergenceError,
    NumericError,
    SeedingError,
    SingularPointError,
    _float_evaluator,
    _strict_floats,
    export_trace_csv,
    integrate_1form,
    trace_real_curve,
)
from resilift.parser import parse_polynomial
from resilift.residue import analyze
from resilift.weights import WeightSystem

F = Fraction
UV = ("u1", "u2")

# frozen independent quadrature value for the unbounded chart integral
REFERENCE = 1.76663875028190811


@pytest.fixture(scope="module")
def fermat_trace():
    u1, u2 = Polynomial.generators(UV)
    curve = Polynomial.one(UV) + u1**3 + u2**3
    return trace_real_curve(curve, (0.0, -1.0), F(1, 100), 1200)


def test_closed_circle_trace():
    u1, u2 = Polynomial.generators(UV)
    circle = u1**2 + u2**2 - 1
    trace = trace_real_curve(circle, (1.0, 0.0), F(1, 20), 400)
    assert trace.closed
    assert len(trace) < 140
    assert (trace.samples[-1] == trace.samples[0]).all()


def test_exact_form_integrates_to_zero_on_loop():
    u1, u2 = Polynomial.generators(UV)
    circle = u1**2 + u2**2 - 1
    trace = trace_real_curve(circle, (1.0, 0.0), F(1, 20), 400)
    exact = differential(UV, "u1") * u2 + differential(UV, "u2") * u1
    result = integrate_1form(exact, trace)
    assert abs(result.value) < 1e-8


def test_segment_endpoints_and_value():
    line = Polynomial.variable(UV, "u2")
    trace = trace_real_curve(line, (0.5, 0.0), F(1, 100), 50)
    assert not trace.closed
    assert abs(trace.samples[0][0]) < 1e-9
    assert abs(trace.samples[-1][0] - 1.0) < 1e-9
    result = integrate_1form(differential(UV, "u1"), trace)
    assert result.value == pytest.approx(1.0, abs=1e-8)


def test_vertical_line_trace():
    vert = Polynomial.variable(UV, "u1")
    trace = trace_real_curve(vert, (0.0, 3.0), F(1, 10), 30)
    assert not trace.closed
    assert len(trace) == 61
    assert all(abs(p[0]) < 1e-12 for p in trace.samples)


def test_fermat_branch_reaches_both_ends(fermat_trace):
    assert not fermat_trace.closed
    # marching orientation: u1 increases along the stitched trace
    assert fermat_trace.samples[0][0] < -5
    assert fermat_trace.samples[-1][0] > 5


def test_unbounded_integral_with_tails(fermat_trace):
    u1, u2 = Polynomial.generators(UV)
    rep = (differential(UV, "u2") * u1 - differential(UV, "u1") * u2) * F(1, 3)
    result = integrate_1form(rep, fermat_trace)
    assert result.value > 0
    assert abs(result.value - REFERENCE) < 5e-3
    assert result.tail_start > 0
    assert result.tail_end > 0
    assert result.error_estimate < 1e-2


def test_second_residue_integral_and_reversal(fermat_trace):
    z = ("z0", "z1", "z2")
    z0, z1, z2 = Polynomial.generators(z)
    report = analyze(
        z0**3 + z1**3 + z2**3, Polynomial.one(z), WeightSystem(("1/3", "1/3", "1/3"))
    )
    form = report.second_residue.form
    forward = integrate_1form(form, fermat_trace)
    # the near-pole chords around (0, -1) are regularized on the curve
    assert forward.value < 0
    assert abs(forward.value + REFERENCE) < 5e-3
    backward = integrate_1form(form, fermat_trace.reversed())
    assert backward.value == pytest.approx(-forward.value, abs=1e-12)


def test_step_halving_stability(fermat_trace):
    u1, u2 = Polynomial.generators(UV)
    curve = Polynomial.one(UV) + u1**3 + u2**3
    rep = (differential(UV, "u2") * u1 - differential(UV, "u1") * u2) * F(1, 3)
    coarse = integrate_1form(rep, fermat_trace)
    halved_trace = trace_real_curve(curve, (0.0, -1.0), F(1, 200), 2400)
    halved = integrate_1form(rep, halved_trace)
    assert abs(halved.value - coarse.value) / abs(coarse.value) < 1e-4
    assert abs(halved.value - coarse.value) < coarse.error_estimate


def test_divergent_integrand_detected(fermat_trace):
    u1, _ = Polynomial.generators(UV)
    bad = differential(UV, "u1") * RationalFunction(
        Polynomial.one(UV), (u1 + 1) ** 2
    )
    with pytest.raises(DivergenceError):
        integrate_1form(bad, fermat_trace)


def test_seeding_errors():
    u1, u2 = Polynomial.generators(UV)
    with pytest.raises(SeedingError):
        trace_real_curve(u1**2 + u2**2 + 1, (0.3, 0.2), F(1, 10), 10)
    with pytest.raises(SeedingError):
        trace_real_curve(u1**2 + u2**2, (0.0, 0.0), F(1, 10), 10)


def test_integrand_must_be_one_form():
    from resilift.forms import volume_form

    line = Polynomial.variable(UV, "u2")
    trace = trace_real_curve(line, (0.5, 0.0), F(1, 100), 50)
    with pytest.raises(Exception) as info:
        integrate_1form(volume_form(UV, 1), trace)
    assert "1-form" in str(info.value)


def test_export_trace_csv(tmp_path):
    u1, u2 = Polynomial.generators(UV)
    circle = u1**2 + u2**2 - 1
    trace = trace_real_curve(circle, (1.0, 0.0), F(1, 20), 400)
    path = tmp_path / "circle.csv"
    export_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "u1,u2"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1.0, abs=1e-12)


def _outcome(fn, *args):
    """The bits of float(fn(*args)), or the type and message of its error."""
    try:
        return struct.pack("<d", float(fn(*args)))
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


def _random_polynomial(rng):
    # the constant term, when drawn, can sit anywhere in the term order
    exponents = [(i, j) for i in range(5) for j in range(5)]
    chosen = rng.sample(exponents, rng.randint(1, 7))
    return Polynomial(
        UV,
        [
            (e, F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice([1, 3, 7, 10, 64])))
            for e in chosen
        ],
    )


def _evaluator_cases():
    """Polynomials, rational functions and points on which the compiled
    evaluators are compared: -0.0, zero denominators and overflow all occur."""
    rng = random.Random(1811)
    u1, u2 = Polynomial.generators(UV)
    polys = [_random_polynomial(rng) for _ in range(40)]
    polys += [
        Polynomial.zero(UV),
        Polynomial.constant(UV, F(-7, 10)),
        F(-1, 3) * u1,  # -0.0 at u1 = 0
        u1 * u2 - F(1, 3) * u2**3 + F(5, 7),
    ]
    # an unnormalized constant quotient: evaluate divides the Fractions exactly
    # first, and float(1/10) / float(3/10) differs from float(1/3) in the last bit
    exact_quotient = object.__new__(RationalFunction)
    object.__setattr__(exact_quotient, "num", Polynomial.constant(UV, F(1, 10)))
    object.__setattr__(exact_quotient, "den", Polynomial.constant(UV, F(3, 10)))
    rationals = [
        RationalFunction(_random_polynomial(rng), _random_polynomial(rng))
        for _ in range(15)
    ]
    rationals += [
        exact_quotient,
        RationalFunction(Polynomial.constant(UV, F(2, 3)), 7),  # constant / constant
        RationalFunction(Polynomial.constant(UV, F(1, 3)), u1**2 - F(1, 3) * u2),
        RationalFunction(u1**3 - F(2, 7) * u2, 3),  # variable / constant
        RationalFunction(u2 - 1, u1),  # zero denominator on u1 = 0
        RationalFunction(Polynomial.constant(UV, F(-1, 3)), u1 - u2),
    ]
    coords = [0.0, -0.0, 1.0, -2.5, 1e200] + [rng.uniform(-3, 3) for _ in range(7)]
    points = [(x, y) for x in coords for y in coords]
    return polys + rationals, points


def test_float_evaluator_is_bit_identical_to_evaluate():
    import numpy as np

    cases, points = _evaluator_cases()
    seen = set()
    with np.errstate(all="ignore"):
        for p in cases:
            compiled = _float_evaluator(p)
            for x, y in points:
                for values in ((x, y), (np.float64(x), np.float64(y))):
                    expected = _outcome(lambda: p.evaluate(values))
                    assert _outcome(compiled, *values) == expected, (p, values)
                    seen.add(expected)
    # the cases the comparison is meant to cover did occur
    assert struct.pack("<d", -0.0) in seen
    assert {o[0] for o in seen if isinstance(o, tuple)} == {ZeroDivisionError, OverflowError}


def test_coefficient_beyond_the_float_range_is_refused():
    """Every float evaluation of such a coefficient would overflow, so both
    evaluator forms refuse it when they are built."""
    u1, u2 = Polynomial.generators(UV)
    huge = Polynomial.constant(UV, 10**400)
    for p in (huge + u1, RationalFunction(u2, huge + u1), RationalFunction(huge, 3)):
        for array in (False, True):
            with pytest.raises(NumericError, match="beyond the float range"):
                _float_evaluator(u2, p, array=array)


def _array_outcome(vector, xs, ys):
    """The bits of each value of vector(xs, ys) under _strict_floats, or None
    when it raises FloatingPointError."""
    try:
        with _strict_floats():
            values = vector(xs, ys)
    except FloatingPointError:
        return None
    return [struct.pack("<d", v) for v in values.tolist()]


def test_array_evaluator_matches_scalar_form():
    """The array spelling equals the scalar form bit for bit, or raises
    FloatingPointError; it raises wherever the scalar form raises."""
    import numpy as np

    cases, points = _evaluator_cases()
    counts = {"equal": 0, "raised": 0}
    for p in cases:
        scalar = _float_evaluator(p)
        vector = _float_evaluator(p, array=True)
        expected = [_outcome(scalar, x, y) for x, y in points]
        for (x, y), want in zip(points, expected):
            got = _array_outcome(vector, np.array([x]), np.array([y]))
            if got is None:
                counts["raised"] += 1
                # away from 1e200 nothing overflows that the scalar form survives
                assert isinstance(want, tuple) or 1e200 in (x, y), (p, x, y)
            else:
                counts["equal"] += 1
                assert got == [want], (p, x, y)
        # long arrays take numpy's vectorized loops, where np.power would differ
        rng = random.Random(29)
        batch = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2000)]
        for rows in (points, batch):
            wanted = [_outcome(scalar, x, y) for x, y in rows]
            whole = _array_outcome(vector, *(np.array(c) for c in zip(*rows)))
            if whole is None:
                assert any(isinstance(w, tuple) or 1e200 in xy for xy, w in zip(rows, wanted))
            else:
                assert whole == wanted, p
    assert counts["equal"] > counts["raised"] > 0


def test_fused_evaluator_returns_each_value_in_order():
    """Several polynomials compile to one function returning the tuple of
    their values; the first one that raises decides the error."""
    import numpy as np

    cases, points = _evaluator_cases()
    for k in range(0, len(cases) - 2, 3):
        group = cases[k : k + 3]
        singles = [_float_evaluator(p) for p in group]
        fused = _float_evaluator(*group)
        fused_vector = _float_evaluator(*group, array=True)
        for x, y in points:
            outcomes = [_outcome(single, x, y) for single in singles]
            errors = [o for o in outcomes if isinstance(o, tuple)]
            try:
                got = [struct.pack("<d", v) for v in fused(x, y)]
            except (ZeroDivisionError, OverflowError) as exc:
                got = (type(exc), str(exc))
                assert got == errors[0]
            else:
                assert got == outcomes
            try:
                with _strict_floats():
                    columns = fused_vector(np.array([x]), np.array([y]))
            except FloatingPointError:
                assert errors or 1e200 in (x, y)
            else:
                assert [struct.pack("<d", c[0]) for c in columns] == outcomes


def _bits(result):
    """The repr of every field; the numbers are plain floats on every path."""
    fields = dataclasses.astuple(result)
    assert [type(v) for v in fields[:5]] == [float] * 5, fields
    return repr(fields)


def _loop_gauss(ig, dens, index):
    """Reference for ``numint._vector_gauss``: each chord's two-point Gauss
    value in Python floats, one chord at a time, nan for a chord near a
    pole of a denominator in ``dens``."""
    P, Q, points = ig.P, ig.Q, ig.rows.tolist()
    values = []
    for i, j in zip(index, index[1:]):
        (ax, ay), (bx, by) = points[i], points[j]
        dx, dy = bx - ax, by - ay
        nodes = [(ax + t * dx, ay + t * dy) for t in numint._GAUSS_NODES]
        near_pole = False
        for den in dens:
            ends = (abs(den(ax, ay)), abs(den(bx, by)))
            low = min(*ends, *(abs(den(x, y)) for x, y in nodes))
            near_pole |= low < 0.05 * max(ends) or min(ends) == 0.0
        gauss = math.nan
        if not near_pole:
            gauss = 0.0
            for x, y in nodes:
                gauss += 0.5 * (P(x, y) * dx + Q(x, y) * dy)
        values.append(gauss)
    return values


@pytest.mark.parametrize("hesse", [False, True], ids=["fermat", "hesse"])
def test_vector_and_scalar_chord_passes_agree(hesse, fermat_trace):
    """The array chord pass gives, bit for bit, the values of the loop over
    chords in Python floats, and an integral's fields are plain floats."""
    import numpy as np

    z = ("z0", "z1", "z2")
    z0, z1, z2 = Polynomial.generators(z)
    s = z0**3 + z1**3 + z2**3
    if hesse:
        s = s - z0 * z1 * z2
    second = analyze(s, Polynomial.one(z), WeightSystem(("1/3", "1/3", "1/3"))).second_residue
    trace = fermat_trace
    if hesse:
        trace = trace_real_curve(second.relation, _find_seed(second.relation), F(1, 100), 1200)
    u1, u2 = Polynomial.generators(UV)
    rotation = (differential(UV, "u2") * u1 - differential(UV, "u1") * u2) * F(1, 3)
    n = len(trace)
    for form in (second.form, rotation):
        ig = numint._Integrand(form, trace)
        coefficients = numint._form_coefficients(form, UV)
        dens = [_float_evaluator(c.den) for c in coefficients if not c.den.is_constant]
        for index in (np.arange(n), np.arange(0, n, 2)):
            with _strict_floats():
                vector = numint._vector_gauss(ig, index)
            scalar = _loop_gauss(ig, dens, index.tolist())
            assert [struct.pack("<d", v) for v in vector] == [
                struct.pack("<d", v) for v in scalar
            ]
            if form is second.form and not hesse:
                # the Fermat pole lies on the curve: some chords are regularized
                assert any(math.isnan(v) for v in vector)
        _bits(integrate_1form(form, trace))


def test_chord_pass_overflow_raises_numeric_error():
    """Along u2 = 0 out to u1 = 1e200, the denominator u1^3 overflows: the
    core chord pass fails and says so."""
    import numpy as np

    u1, u2 = Polynomial.generators(UV)
    samples = np.array([(x, 0.0) for x in np.geomspace(0.5, 1e200, 40)])
    trace = CurveTrace(u2, samples, False)
    form = differential(UV, "u1") * RationalFunction(Polynomial.one(UV), u1**3)
    with pytest.raises(NumericError, match="^core chord pass failed: overflow"):
        integrate_1form(form, trace)


def test_trace_recheck_names_the_first_offender():
    """The re-check reports the first off-curve sample, also one whose
    residual overflows."""
    import numpy as np

    u1, u2 = Polynomial.generators(UV)
    curve = u2 + u1**3
    on, off, huge = (0.0, 0.0), (1.0, 5.0), (1e200, 0.0)
    for rows in ([on, off, (2.0, 3.0)], [on, off, huge], [on, huge, off]):
        samples = np.array(rows)
        with pytest.raises(NumericError) as info:
            CurveTrace(curve, samples, False)
        assert str(info.value) == f"trace sample {tuple(samples[1])} is off the curve"


def test_float_failures_leave_the_public_functions_as_numeric_errors(
    fermat_trace, monkeypatch
):
    """An OverflowError or ZeroDivisionError from the floats of a trace or an
    integral reaches the caller as NumericError."""
    u1, u2 = Polynomial.generators(UV)
    fermat = Polynomial.one(UV) + u1**3 + u2**3
    # the first predictor step lands at u1 = 1e300, whose cube overflows
    with pytest.raises(NumericError, match="^trace_real_curve: OverflowError"):
        trace_real_curve(fermat, (0.0, -1.0), 1e300, 10)
    with pytest.raises(NumericError, match="^trace_real_curve: OverflowError"):
        trace_real_curve(fermat, (0.0, -1.0), "1e400", 10)

    def divide_by_zero(ig, at_start):
        return 1.0 / 0.0

    monkeypatch.setattr(numint, "_tail_contribution", divide_by_zero)
    rep = (differential(UV, "u2") * u1 - differential(UV, "u1") * u2) * F(1, 3)
    with pytest.raises(NumericError, match="^integrate_1form: ZeroDivisionError"):
        integrate_1form(rep, fermat_trace)


def _reference_trace(f, seed, step, max_steps):
    """``trace_real_curve`` as a march of one call per helper and step.

    Each step calls ``_newton_project`` and ``_unit_tangent``, and the samples
    are built from a list of point tuples.  This is the oracle of the march
    that runs every step in one frame.  The seed must project.
    """
    import numpy as np

    h = float(F(step))
    evaluate = _float_evaluator(f, f.partial_derivative(0), f.partial_derivative(1))
    start, start_gradient = numint._newton_project(evaluate, seed)
    tangent0 = numint._unit_tangent(start_gradient, start)

    def march(direction):
        points = []
        x, y = start
        tx, ty = tangent0[0] * direction, tangent0[1] * direction
        for count in range(max_steps):
            nxt = numint._newton_project(evaluate, (x + h * tx, y + h * ty))
            if nxt is None:
                raise SingularPointError(f"Newton correction failed near ({x:.6g}, {y:.6g})")
            (x, y), gradient = nxt
            tangent = numint._unit_tangent(gradient, (x, y))
            if tangent is None:
                raise SingularPointError(
                    f"gradient vanishes on the trace near ({x:.6g}, {y:.6g})"
                )
            dot = tangent[0] * tx + tangent[1] * ty
            if abs(dot) < 0.1:
                raise SingularPointError(f"tangent direction ambiguous near ({x:.6g}, {y:.6g})")
            sign = 1.0 if dot > 0 else -1.0
            tx, ty = tangent[0] * sign, tangent[1] * sign
            if count >= 4 and math.hypot(x - start[0], y - start[1]) < numint.CLOSURE_FACTOR * h:
                return points, True
            points.append((x, y))
            if math.hypot(x, y) > numint.ESCAPE_RADIUS:
                break
        return points, False

    forward, closed = march(+1)
    if closed:
        return CurveTrace(f, np.array([start] + forward + [start], dtype=float), True)
    backward, _ = march(-1)
    return CurveTrace(f, np.array(backward[::-1] + [start] + forward, dtype=float), False)


def _trace_outcome(trace, *args):
    """The sample bytes, shape and closed flag of a trace, or its error."""
    try:
        result = trace(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result.samples.tobytes(), result.samples.shape, result.closed


# (s, g, weights): the obstructed plane cubics of the integrate-chart
# benchmark, then the inputs it probes because integrate fails on them
CHART_JOBS = [
    (s, "1", ("1/3", "1/3", "1/3"))
    for s in (
        "z0^3+z1^3+z2^3",
        "z0^3+2*z1^3+3*z2^3",
        "2*z0^3+z1^3+5*z2^3",
        "5*z0^3+3*z1^3+z2^3",
        "z0^3+z1^3+z2^3-z0*z1*z2",
        "z0^3+z1^3+z2^3+2*z0*z1*z2",
        "z0^3+z1^3+z2^3+1/2*z0^2*z1",
        "z0^3+z1^3+z2^3+z0*z1*z2",
        "z0^3+z1^3+z2^3+z0^2*z1",
        "2*z0^3+5*z1^3+5*z2^3",
        "3*z0^3+3*z1^3+3*z2^3",
    )
] + [
    ("z0^5+z1^5+z2^5", "z0*z1", ("1/5", "1/5", "1/5")),
    ("z0^7+z1^7+z2^7", "z0^2*z1^2", ("1/7", "1/7", "1/7")),
    ("z0^3+z1^5+z2^15", "z1^2", ("1/3", "1/5", "1/15")),
    ("z0^9+z1^9+z2^9", "z0^3*z1^3", ("1/9", "1/9", "1/9")),
]


@pytest.fixture(scope="module")
def chart_curves():
    z = ("z0", "z1", "z2")
    curves = []
    for s, g, weights in CHART_JOBS:
        report = analyze(parse_polynomial(s, z), parse_polynomial(g, z), WeightSystem(weights))
        curve = report.second_residue.relation
        curves.append((curve, _find_seed(curve)))
    return curves


@pytest.mark.parametrize("steps", [50, 300, 1200, 2400])
def test_fused_march_matches_reference_march(steps, chart_curves):
    """On the benchmark's chart curves the one-frame march gives the same
    sample bytes and closed flag, or the same error, as the reference."""
    outcomes = []
    for curve, seed in chart_curves:
        args = (curve, seed, DEFAULT_STEP, steps)
        outcome = _trace_outcome(trace_real_curve, *args)
        assert outcome == _trace_outcome(_reference_trace, *args), (curve, steps)
        outcomes.append(outcome[0])
    # all are traced at 50 steps, some fail from 300 and all at 2400
    if steps < 2400:
        assert bytes in {type(o) for o in outcomes}
    if steps >= 300:
        assert SingularPointError in outcomes


def test_fused_march_raises_each_singular_point_error():
    """Each SingularPointError branch of the march, on a small curve, and a
    closed, an open and an escaping trace, all as the reference gives them."""
    u1, u2 = Polynomial.generators(UV)
    cases = [
        # the cusp of u2^2 = u1^3: Newton cannot reach the curve
        (u2**2 - u1**3, (1.0, 1.0), F(1, 10), 40, "Newton correction failed near"),
        # on the double parabola Newton converges linearly: a step accepted
        # only at the 31st evaluation, after the loop, comes before the failure
        (F(10**8) * (u2 - u1**2) ** 2, (0.0, 1e-13), F(1, 50), 40, "Newton correction failed near"),
        # a step lands on the node of u1*u2 = 0, where the gradient is 0
        (u1 * u2, (-0.5, 0.0), F(1, 10), 20, "gradient vanishes on the trace near"),
        # on a circle of radius 1/10, a step of 6/5 turns the tangent by 85 degrees
        (u1**2 + u2**2 - F(1, 100), (0.1, 0.0), F(6, 5), 10, "tangent direction ambiguous near"),
        (u1**2 + u2**2 - 1, (1.0, 0.0), F(1, 20), 400, None),
        (u2 - u1**3, (0.5, 0.0), F(1, 20), 60, None),
        (u2, (0.0, 0.0), F(10**5), 40, None),
    ]
    for curve, seed, step, max_steps, message in cases:
        args = (curve, seed, step, max_steps)
        outcome = _trace_outcome(trace_real_curve, *args)
        assert outcome == _trace_outcome(_reference_trace, *args), curve
        if message is None:
            assert type(outcome[0]) is bytes
        else:
            assert outcome[0] is SingularPointError and outcome[1].startswith(message)
    closed = [_trace_outcome(trace_real_curve, *case[:4])[2] for case in cases[4:]]
    assert closed == [True, False, False]


@pytest.mark.filterwarnings("error")
def test_chord_sum_adds_left_to_right(monkeypatch):
    """The array pass totals its chord values strictly left to right from
    0.0, bit for bit as a Python loop adds them, also where the sum
    overflows to inf or meets inf + -inf, and no numpy warning escapes."""
    import numpy as np

    rng = random.Random(1213)
    cases = [
        [-0.0],
        [-0.0, -0.0, 2.5],
        [1e308, 1e308, -1e308],
        [1e308, 1e308, -math.inf, 1.0],
        [math.inf, -math.inf],
    ]
    for n in (2400, 100_000):
        cases.append([rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12) for _ in range(n)])
    pairwise_differs = False
    for values in cases:
        monkeypatch.setattr(numint, "_vector_gauss", lambda ig, index: np.array(values))
        total = 0.0
        for v in values:
            total += v
        got = numint._chord_sum(None, np.arange(len(values) + 1), "core")
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", total), values[:4]
        if len(values) > 100:
            pairwise_differs |= float(np.sum(values)) != total
    # np.sum adds pairwise: the long cases tell the two orders apart
    assert pairwise_differs
