"""Floating point oracle: trace real plane curves and integrate 1-forms.

All exact computation lives in the symbolic modules; this module is the
one place double precision is allowed.  It traces {f = 0} in a chart by
predictor-corrector marching with Newton projection, and integrates a
1-form along the trace by per-chord Gauss quadrature with a Richardson
style error estimate.  Open ends whose integrand visibly decays get a
fitted power-law tail out to chart infinity, which is how an improper
integral over an unbounded real branch is finished off.

Floats enter through ``_float_evaluator``, which turns polynomials and
rational functions once into a plain Python function of their variables:
each coefficient becomes a float once, and the terms run in the order and
with the operations of ``Polynomial.evaluate``, so its values are bit for
bit ``float(p.evaluate(values))`` at a fraction of its cost.  A coefficient
beyond the float range raises NumericError when the function is built.

Each use has one float path.  The tracer and the seed scan call the
compiled scalar function; the tracer evaluates the curve and both partials
in one call, and runs each step of its march, Newton correction and tangent
test included, in one Python frame.  The trace re-check and the quadrature
passes call the array form, which walks the same terms with the same numpy
operations and gives the same bits.  A chord pass runs under
``_strict_floats()``; where its floats overflow or divide by zero it raises
NumericError rather than return a non-finite sum.  The chord values are
added strictly left to right by ``np.add.accumulate``, which rounds as a
Python loop does.  An OverflowError or ZeroDivisionError that escapes
``trace_real_curve`` or ``integrate_1form`` is raised as NumericError, so
every failure of this module is typed.  A trace compiles its curve once, an
integral its scalar coefficients and gradient once; the denominators are
evaluated once per integral at all samples, and nothing is cached across
calls.

numpy is imported by the functions that use it, on first numerical use, so
importing this module (and the command line front end) does not load it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import wraps
from fractions import Fraction
from typing import Optional, Tuple

from .algebra import Polynomial, RationalFunction

NEWTON_TOL = 1e-12
SAMPLE_TOL = 1e-9
GRADIENT_TOL = 1e-8
CLOSURE_FACTOR = 0.75
ESCAPE_RADIUS = 1e6
_NEWTON_ITERATIONS = 30
# Gauss-Legendre nodes on [0, 1], two points
_GAUSS_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


class NumericError(Exception):
    """Base error for the numerical oracle."""


class SeedingError(NumericError):
    """The seed point failed to project onto the curve."""


class SingularPointError(NumericError):
    """The gradient vanished or the tangent became ambiguous along the trace."""


class DivergenceError(NumericError):
    """The integrand has a non-integrable singularity on the trace."""


def _float_terms(poly):
    """The terms of poly in term order as (float coefficient, ((variable
    index, exponent), ...)), zero exponents left out; the zero polynomial
    is one zero term."""
    terms = [
        (float(coeff), tuple((i, e) for i, e in enumerate(mono) if e))
        for mono, coeff in poly.terms.items()
    ]
    return terms or [(0.0, ())]


def _float_program(p):
    """(numerator terms, denominator terms or None, whether p is constant)."""
    if not isinstance(p, RationalFunction):
        return _float_terms(p), None, p.is_constant
    if p.num.is_constant and p.den.is_constant:
        # a constant over a constant divides exactly before rounding
        return [(float(p.num.constant_value() / p.den.constant_value()), ())], None, True
    return _float_terms(p.num), _float_terms(p.den), False


def _float_evaluator(*polys, array: bool = False):
    """Build one float function of their variables from Polynomials or RationalFunctions.

    With one argument the function returns its value, with several the tuple
    of their values, computed left to right.  Each value equals
    ``float(p.evaluate(values))`` bit for bit, for float and numpy.float64
    values alike, and a call raises the same ZeroDivisionError or
    OverflowError: ``Fraction * float`` is ``float(coeff) * float``, so the
    coefficients are converted once and the same products and sums run in
    the same order.  A constant over a constant divides exactly before
    rounding, as ``RationalFunction.evaluate`` does.  A coefficient beyond
    the float range raises NumericError here, since every float evaluation
    of it would raise OverflowError.  The scalar function is compiled from
    generated source.

    ``array=True`` gives the same function for numpy arrays of values and
    returns arrays.  It is not compiled: it walks the same terms with the
    same Python operators, so the same numpy operations run in the same
    order.  A power ``v**e`` becomes ``np.float_power(v, e)``, which calls
    the C ``pow`` that ``float.__pow__`` calls; ``np.power`` and ``**`` on
    arrays take a SIMD path that differs in the last bit.  Every finite
    element then equals the scalar value.  Where a scalar call raises, or
    a product overflows, the element is not finite, or under
    ``_strict_floats()`` the call raises FloatingPointError.
    """
    try:
        programs = [_float_program(p) for p in polys]
    except OverflowError as exc:
        raise NumericError(f"a coefficient is beyond the float range ({exc})") from exc
    if array:
        return _array_evaluator(programs)
    coeffs = []

    def spell(terms) -> str:
        out = []
        for coeff, factors in terms:
            # x**1 is x for every float, so a first power is the variable itself
            powers = [f"v{i}" if e == 1 else f"v{i}**{e}" for i, e in factors]
            out.append(" * ".join([f"c{len(coeffs)}", *powers]))
            coeffs.append(coeff)
        return " + ".join(out)

    body = ", ".join(
        spell(num) if den is None else f"({spell(num)}) / ({spell(den)})"
        for num, den, _ in programs
    )
    names = ", ".join(f"c{k}" for k in range(len(coeffs)))
    args = ", ".join(f"v{i}" for i in range(len(polys[0].variables)))
    namespace = {}
    exec(
        f"def bind({names}):\n def evaluate({args}):\n  return {body}\n return evaluate",
        namespace,
    )
    return namespace["bind"](*coeffs)


def _array_evaluator(programs):
    """The array form of ``_float_evaluator``, interpreting its programs.

    Each term is ``coeff * v_i * float_power(v_j, e) ...`` and the terms are
    added left to right, exactly as the scalar source spells them.
    """
    import numpy as np

    float_power, full_like = np.float_power, np.full_like

    def total(terms, values):
        acc = None
        for coeff, factors in terms:
            term = coeff
            for i, e in factors:
                term = term * (values[i] if e == 1 else float_power(values[i], e))
            acc = term if acc is None else acc + term
        return acc

    def value(program, values):
        num, den, constant = program
        out = total(num, values)
        if den is not None:
            out = out / total(den, values)
        # an array form returns an array even where the value is constant
        return full_like(values[0], out) if constant else out

    if len(programs) == 1:
        (program,) = programs
        return lambda *values: value(program, values)
    return lambda *values: tuple(value(program, values) for program in programs)


def _strict_floats():
    """The numpy error state of the chord passes.

    Overflow, division by zero and invalid operations raise
    FloatingPointError; underflow is ignored, as Python ignores it.
    """
    import numpy as np

    return np.errstate(over="raise", divide="raise", invalid="raise", under="ignore")


def _first_off_curve(curve: Polynomial, pts) -> Optional[int]:
    """Index of the first row of pts where |curve| < SAMPLE_TOL fails, or None.

    A residual that overflows or is nan fails the test too, so a sample the
    floats cannot place on the curve is named like any other offender.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        residual = _float_evaluator(curve, array=True)(pts[:, 0], pts[:, 1])
        off = np.flatnonzero(~(np.abs(residual) < SAMPLE_TOL))
    return int(off[0]) if off.size else None


def _typed_float_errors(fn):
    """fn, raising NumericError where its float arithmetic raises
    OverflowError or ZeroDivisionError."""

    @wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NumericError(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc

    return checked


@dataclass(frozen=True, eq=False)
class CurveTrace:
    """An ordered polyline of points on {curve = 0}; closed when it loops.

    Every sample satisfies |curve(u1, u2)| < 1e-9 after Newton correction;
    this is re-checked on construction.
    """

    curve: Polynomial
    samples: "numpy.ndarray"
    closed: bool

    def __post_init__(self):
        import numpy as np

        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise NumericError("trace needs at least two points in two coordinates")
        object.__setattr__(self, "samples", pts)
        off = _first_off_curve(self.curve, pts)
        if off is not None:
            raise NumericError(f"trace sample {tuple(pts[off])} is off the curve")

    def __len__(self):
        return len(self.samples)

    def reversed(self) -> "CurveTrace":
        return CurveTrace(self.curve, self.samples[::-1].copy(), self.closed)


def _newton_project(evaluate, point, max_iter: int = _NEWTON_ITERATIONS):
    """Pull a nearby point onto {f = 0} along the gradient direction.

    evaluate is the compiled evaluator of the curve and its two partials.
    Returns the accepted point with the gradient there, or None.
    """
    x, y = float(point[0]), float(point[1])
    for _ in range(max_iter):
        value, gx, gy = evaluate(x, y)
        if abs(value) < NEWTON_TOL:
            return (x, y), (gx, gy)
        norm2 = gx * gx + gy * gy
        if norm2 < GRADIENT_TOL**2:
            return None
        x -= value * gx / norm2
        y -= value * gy / norm2
    value, gx, gy = evaluate(x, y)
    if abs(value) < NEWTON_TOL:
        return (x, y), (gx, gy)
    return None


def _unit_tangent(gradient, point):
    gx, gy = gradient
    norm = math.hypot(gx, gy)
    if norm < GRADIENT_TOL * (1.0 + math.hypot(*point)):
        return None
    return (gy / norm, -gx / norm)


@_typed_float_errors
def trace_real_curve(
    f: Polynomial, seed, step, max_steps: int
) -> CurveTrace:
    """March along {f = 0} from seed, both directions, fixed chord step.

    Predictor: unit tangent times step.  Corrector: Newton projection back
    onto the curve.  A return to the start point closes the trace; running
    out of steps leaves it open.  The samples are ordered along the curve
    with the seed in the middle (or first, for a closed loop).
    """
    import numpy as np

    if len(f.variables) != 2:
        raise NumericError(f"tracing needs two variables, got {f.variables}")
    h = float(Fraction(step)) if not isinstance(step, float) else step
    if not h > 0:
        raise NumericError("step must be positive")
    if max_steps < 1:
        raise NumericError("max_steps must be at least 1")
    evaluate = _float_evaluator(f, f.partial_derivative(0), f.partial_derivative(1))
    projected = _newton_project(evaluate, (float(seed[0]), float(seed[1])))
    if projected is None:
        raise SeedingError(f"seed {tuple(seed)} did not project onto the curve")
    start, start_gradient = projected
    tangent0 = _unit_tangent(start_gradient, start)
    if tangent0 is None:
        raise SeedingError(f"gradient vanishes at the projected seed {start}")
    gradient_tol2 = GRADIENT_TOL**2
    reach = CLOSURE_FACTOR * h

    def march(direction: int):
        """The points after the start, as one flat list of coordinates, and
        whether the trace closed.

        One frame runs every step: the Newton loop is ``_newton_project``
        and the tangent test ``_unit_tangent``, with their float operations
        in their order.
        """
        coords = []
        x, y = start
        tx, ty = tangent0[0] * direction, tangent0[1] * direction
        for count in range(max_steps):
            px, py = x + h * tx, y + h * ty
            for _ in range(_NEWTON_ITERATIONS):
                value, gx, gy = evaluate(px, py)
                if abs(value) < NEWTON_TOL:
                    break
                norm2 = gx * gx + gy * gy
                if norm2 < gradient_tol2:
                    break
                px -= value * gx / norm2
                py -= value * gy / norm2
            else:
                value, gx, gy = evaluate(px, py)
            if not abs(value) < NEWTON_TOL:
                raise SingularPointError(
                    f"Newton correction failed near ({x:.6g}, {y:.6g})"
                )
            x, y = px, py
            radius = math.hypot(x, y)
            norm = math.hypot(gx, gy)
            if norm < GRADIENT_TOL * (1.0 + radius):
                raise SingularPointError(
                    f"gradient vanishes on the trace near ({x:.6g}, {y:.6g})"
                )
            ux, uy = gy / norm, -gx / norm
            dot = ux * tx + uy * ty
            if abs(dot) < 0.1:
                raise SingularPointError(
                    f"tangent direction ambiguous near ({x:.6g}, {y:.6g})"
                )
            sign = 1.0 if dot > 0 else -1.0
            tx, ty = ux * sign, uy * sign
            if count >= 4 and math.hypot(x - start[0], y - start[1]) < reach:
                return coords, True
            coords += (x, y)
            if radius > ESCAPE_RADIUS:
                break
        return coords, False

    def rows(coords):
        return np.fromiter(coords, dtype=float, count=len(coords)).reshape(-1, 2)

    forward, closed = march(+1)
    if closed:
        return CurveTrace(f, rows([*start, *forward, *start]), True)
    backward, _ = march(-1)
    samples = np.concatenate((rows(backward)[::-1], [start], rows(forward)))
    return CurveTrace(f, samples, False)


@dataclass(frozen=True)
class IntegralResult:
    """A quadrature value with a conservative error estimate."""

    value: float
    error_estimate: float
    core_value: float
    tail_start: float
    tail_end: float
    warnings: Tuple[str, ...] = ()


def _form_coefficients(form, variables):
    if form.variables != variables:
        raise NumericError(
            f"form variables {form.variables} do not match trace variables {variables}"
        )
    if form.degrees() not in ((), (1,)):
        raise NumericError("integration expects a 1-form")
    return form.component((0,)), form.component((1,))


class _Integrand:
    """P du1 + Q du2 on one trace, with everything built once.

    The scalar coefficients and gradient, which the regularized chords and
    the tails call, take plain floats, so a vanishing denominator raises
    instead of producing a numpy inf with a warning.  ``vector_pq`` and
    ``vector_dens`` are the array forms the chord passes use.
    ``den_samples[k]`` is |vector_dens[k]| at every sample, an array the
    first chord pass fills and the core and coarse passes share.
    """

    def __init__(self, form, trace: CurveTrace):
        P, Q = _form_coefficients(form, trace.curve.variables)
        self.P, self.Q = _float_evaluator(P), _float_evaluator(Q)
        self.gradient = _float_evaluator(
            trace.curve.partial_derivative(0), trace.curve.partial_derivative(1)
        )
        self.vector_pq = _float_evaluator(P, Q, array=True)
        self.vector_dens = [
            _float_evaluator(c.den, array=True) for c in (P, Q) if not c.den.is_constant
        ]
        self.den_samples = None
        self.rows = trace.samples

    def slope_form(self, c: int, x: float, y: float, gx: float, gy: float) -> float:
        """P + Q du2/du1 (c = 0) or Q + P du1/du2 (c = 1) on the curve."""
        if c == 0:
            return self.P(x, y) + self.Q(x, y) * (-gx / gy)
        return self.Q(x, y) + self.P(x, y) * (-gy / gx)


def _regularized_chord(ig: _Integrand, i: int, j: int) -> float:
    """On-curve endpoint value of the chord integral from sample i to j via
    the implicit slope.

    In the chord's dominant coordinate, P du1 + Q du2 reduces on the curve
    to (P + Q * du2/du1) du1 (or the symmetric form); the slope comes from
    implicit differentiation, and the product cancels a coefficient pole
    that is transverse to the curve.  Raises DivergenceError when both
    endpoints sit exactly on a pole.
    """
    a, b = ig.rows[[i, j]].tolist()
    dx, dy = b[0] - a[0], b[1] - a[1]
    c = 0 if abs(dx) >= abs(dy) else 1
    dc = dx if c == 0 else dy
    if dc == 0:
        return 0.0
    values = []
    for x, y in (a, b):
        gx, gy = ig.gradient(x, y)
        if (gy if c == 0 else gx) == 0:
            continue
        try:
            value = ig.slope_form(c, x, y, gx, gy)
            if math.isfinite(value):
                values.append(value)
        except (ZeroDivisionError, OverflowError):
            continue
    if not values:
        raise DivergenceError(f"integrand is unbounded near ({a[0]:.6g}, {a[1]:.6g})")
    return sum(values) / len(values) * dc


def _vector_gauss(ig: _Integrand, index):
    """Two-point Gauss value of each chord between consecutive samples of
    ``index``, as an array; nan marks a chord near a coefficient pole.

    Call under ``_strict_floats()``.  A chord is near a pole when some
    denominator's magnitude at an endpoint is 0, or at an endpoint or
    Gauss node falls below 0.05 times the larger endpoint magnitude.  P and
    Q are evaluated only at the nodes of the other chords.  Every node and
    value is built with the operations, in the order, that one chord at a
    time in Python floats would use, so each finite value is the one that
    loop gives; a pass whose floats overflow or divide by zero raises
    FloatingPointError.
    """
    import numpy as np

    rows = ig.rows
    if not np.isfinite(rows).all():
        raise FloatingPointError("a trace sample is not finite")
    start, end = index[:-1], index[1:]
    ax, ay = rows[start, 0], rows[start, 1]
    dx, dy = rows[end, 0] - ax, rows[end, 1] - ay
    nodes = [(ax + t * dx, ay + t * dy) for t in _GAUSS_NODES]
    if ig.den_samples is None:
        ig.den_samples = [np.abs(den(rows[:, 0], rows[:, 1])) for den in ig.vector_dens]
    pole = np.zeros(len(start), dtype=bool)
    for den, at in zip(ig.vector_dens, ig.den_samples):
        ends = (at[start], at[end])
        low = np.minimum(*ends)
        for x, y in nodes:
            low = np.minimum(low, np.abs(den(x, y)))
        pole |= (low < 0.05 * np.maximum(*ends)) | (np.minimum(*ends) == 0.0)
    keep = np.flatnonzero(~pole)
    dx, dy = dx[keep], dy[keep]
    gauss = 0.0
    for x, y in nodes:
        p, q = ig.vector_pq(x[keep], y[keep])
        gauss = gauss + 0.5 * (p * dx + q * dy)
    values = np.full(len(start), math.nan)
    values[keep] = gauss
    return values


def _chord_sum(ig: _Integrand, index, name: str) -> float:
    """Composite two-point Gauss quadrature of P du1 + Q du2 over the chords
    between consecutive samples of ``index``, an integer array.

    A chord whose interior nodes stray near a coefficient pole that the
    curve itself passes through integrably is replaced by the on-curve
    regularized endpoint value; everywhere else plain Gauss keeps exact
    forms telescoping around closed traces.  The Gauss values come from
    one array pass, the regularized ones are filled in chord order, and
    ``np.add.accumulate`` adds them all strictly left to right from 0.0, as
    a Python loop adds them (``np.sum`` adds pairwise, with other
    roundings).  A FloatingPointError from the array pass is raised as a
    NumericError that names the pass, ``name``.
    """
    import numpy as np

    try:
        with _strict_floats():
            values = _vector_gauss(ig, index)
    except FloatingPointError as exc:
        raise NumericError(f"{name} chord pass failed: {exc}") from exc
    for k in np.flatnonzero(np.isnan(values)).tolist():
        values[k] = _regularized_chord(ig, index[k], index[k + 1])
    # a sum that overflows to inf, or meets inf + -inf, is not an error in
    # the loop either
    with np.errstate(all="ignore"):
        return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def _tail_contribution(ig: _Integrand, at_start: bool):
    """Fitted power-law tail for one open end; (value, uncertainty, note).

    The trailing integrand is reparametrized by the dominant coordinate c
    and modeled as A*|c|^(-p); with p > 1 the remaining integral out to
    chart infinity is psi*|c|/(p-1) at the end sample.  No certified decay
    means no tail, and a note says so.
    """
    pts = ig.rows
    n = len(pts)
    gap = max(4, n // 50)
    if n < 3 * gap + 1:
        return 0.0, 0.0, "end too short to fit a tail"
    if at_start:
        e0, e1, e2 = pts[0], pts[gap], pts[2 * gap]
        chord = pts[1] - pts[0]
    else:
        e0, e1, e2 = pts[-1], pts[-1 - gap], pts[-1 - 2 * gap]
        chord = pts[-1] - pts[-2]
    e0, e1, e2, chord = (row.tolist() for row in (e0, e1, e2, chord))
    c = 0 if abs(chord[0]) >= abs(chord[1]) else 1
    sigma = 1.0 if chord[c] > 0 else -1.0
    # motion must point outward at the far end, inward at the start
    outward = sigma * e0[c] > 0
    if outward == at_start:
        return 0.0, 0.0, "end does not move away from the chart origin"

    def psi(point):
        x, y = point
        gx, gy = ig.gradient(x, y)
        if abs(gy if c == 0 else gx) < GRADIENT_TOL:
            raise ZeroDivisionError
        return ig.slope_form(c, x, y, gx, gy)

    try:
        p0, p1, p2 = psi(e0), psi(e1), psi(e2)
    except ZeroDivisionError:
        return 0.0, 0.0, "integrand undefined at the trace end"
    if abs(p0) < 1e-14:
        return 0.0, 0.0, None
    c0, c1, c2 = abs(e0[c]), abs(e1[c]), abs(e2[c])
    if not (c0 > c1 > c2 > 0) or not (abs(p0) < abs(p1) < abs(p2)):
        return 0.0, 0.0, "no decay at the open end; tail skipped"
    power_a = math.log(abs(p1) / abs(p0)) / math.log(c0 / c1)
    power_b = math.log(abs(p2) / abs(p1)) / math.log(c1 / c2)
    if min(power_a, power_b) <= 1.05:
        return 0.0, 0.0, "decay too slow to integrate to chart infinity"
    value = sigma * p0 * c0 / (power_a - 1.0)
    other = sigma * p0 * c0 / (power_b - 1.0)
    return value, abs(value - other), None


@_typed_float_errors
def integrate_1form(form, trace: CurveTrace) -> IntegralResult:
    """Integrate a 1-form along a trace; value plus conservative estimate.

    Composite two-point Gauss quadrature over the chords, compared against
    the half-resolution sum for the error estimate.  Open ends with
    decaying integrand receive power-law tails; a blow-up that dominates
    the sum or destabilizes the estimate raises DivergenceError.
    """
    import numpy as np

    ig = _Integrand(form, trace)
    n = len(trace)
    core = _chord_sum(ig, np.arange(n), "core")
    coarse_index = np.arange(0, n, 2)
    if (n - 1) % 2:
        coarse_index = np.append(coarse_index, n - 1)
    coarse = _chord_sum(ig, coarse_index, "coarse")
    estimate = abs(core - coarse)
    if estimate > max(1e-6, 0.25 * abs(core)):
        raise DivergenceError(
            "quadrature does not stabilize under coarsening; "
            "non-integrable singularity on the trace"
        )
    warnings = []
    tail_start = tail_end = 0.0
    if not trace.closed:
        tail_start, err_s, note_s = _tail_contribution(ig, True)
        tail_end, err_e, note_e = _tail_contribution(ig, False)
        estimate += err_s + err_e
        for note in (note_s, note_e):
            if note:
                warnings.append(note)
    return IntegralResult(
        value=core + tail_start + tail_end,
        error_estimate=estimate,
        core_value=core,
        tail_start=tail_start,
        tail_end=tail_end,
        warnings=tuple(warnings),
    )


def export_trace_csv(trace: CurveTrace, path) -> None:
    """Write the trace as CSV, one u1,u2 pair per line, for external plotting."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(trace.curve.variables))
        for x, y in trace.samples.tolist():
            writer.writerow([repr(x), repr(y)])
