"""Curve tracing and numerical integration of 1-forms along traces."""

import dataclasses
import math
import random
import struct
from fractions import Fraction

import pytest

from resilift import numint
from resilift.algebra import Polynomial, RationalFunction
from resilift.cli import _find_seed
from resilift.forms import differential
from resilift.numint import (
    CurveTrace,
    DivergenceError,
    NumericError,
    SeedingError,
    _float_evaluator,
    _strict_floats,
    export_trace_csv,
    integrate_1form,
    trace_real_curve,
)
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
    evaluators are compared: -0.0, zero denominators, overflow and a
    coefficient beyond the float range all occur."""
    rng = random.Random(1811)
    u1, u2 = Polynomial.generators(UV)
    polys = [_random_polynomial(rng) for _ in range(40)]
    polys += [
        Polynomial.zero(UV),
        Polynomial.constant(UV, F(-7, 10)),
        F(-1, 3) * u1,  # -0.0 at u1 = 0
        u1 * u2 - F(1, 3) * u2**3 + F(5, 7),
        Polynomial.constant(UV, 10**400) + u1,  # a coefficient beyond float range
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
    return repr(dataclasses.astuple(result))


@pytest.mark.parametrize("hesse", [False, True], ids=["fermat", "hesse"])
def test_vector_and_scalar_chord_passes_agree(hesse, fermat_trace, monkeypatch):
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
    results = []
    for form in (second.form, rotation):
        ig = numint._Integrand(form, trace)
        for index in (np.arange(n), np.arange(0, n, 2)):
            with _strict_floats():
                vector = numint._vector_gauss(ig, index)
            scalar = list(numint._scalar_gauss(ig, index.tolist()))
            assert [struct.pack("<d", v) for v in vector] == [
                struct.pack("<d", v) for v in scalar
            ]
            if form is second.form and not hesse:
                # the Fermat pole lies on the curve: some chords are regularized
                assert any(math.isnan(v) for v in vector)
        results.append(_bits(integrate_1form(form, trace)))

    def scalar_only(ig, index):
        raise FloatingPointError("scalar loop forced")

    monkeypatch.setattr(numint, "_vector_gauss", scalar_only)
    assert [_bits(integrate_1form(form, trace)) for form in (second.form, rotation)] == results


def test_overflow_raises_the_same_error_both_ways(monkeypatch):
    """Along u2 = 0 out to u1 = 1e200, the denominator u1^3 overflows: the
    array pass falls back and the scalar loop raises its OverflowError."""
    import numpy as np

    u1, u2 = Polynomial.generators(UV)
    samples = np.array([(x, 0.0) for x in np.geomspace(0.5, 1e200, 40)])
    trace = CurveTrace(u2, samples, False)
    form = differential(UV, "u1") * RationalFunction(Polynomial.one(UV), u1**3)
    vector_gauss = numint._vector_gauss
    fallbacks = []

    def spy(ig, index):
        try:
            return vector_gauss(ig, index)
        except FloatingPointError:
            fallbacks.append(len(index))
            raise

    monkeypatch.setattr(numint, "_vector_gauss", spy)
    with pytest.raises(OverflowError) as vector:
        integrate_1form(form, trace)
    assert fallbacks == [len(trace)]

    def scalar_only(ig, index):
        raise FloatingPointError("scalar loop forced")

    monkeypatch.setattr(numint, "_vector_gauss", scalar_only)
    with pytest.raises(OverflowError) as scalar:
        integrate_1form(form, trace)
    assert str(vector.value) == str(scalar.value)


def test_trace_recheck_names_the_first_offender():
    """The re-check reports the first off-curve sample, or raises where the
    scalar loop raises when the array check falls back on an overflow."""
    import numpy as np

    u1, u2 = Polynomial.generators(UV)
    curve = u2 + u1**3
    on, off, huge = (0.0, 0.0), (1.0, 5.0), (1e200, 0.0)
    for rows in ([on, off, (2.0, 3.0)], [on, off, huge]):
        samples = np.array(rows)
        with pytest.raises(NumericError) as info:
            CurveTrace(curve, samples, False)
        assert str(info.value) == f"trace sample {tuple(samples[1])} is off the curve"
    with pytest.raises(OverflowError):
        CurveTrace(curve, np.array([on, huge, off]), False)
