"""Floating point oracle: trace real plane curves and integrate 1-forms.

All exact computation lives in the symbolic modules; this module is the
one place double precision is allowed.  It traces {f = 0} in a chart by
predictor-corrector marching with Newton projection, and integrates a
1-form along the trace by per-chord Gauss quadrature with a Richardson
style error estimate.  Open ends whose integrand visibly decays get a
fitted power-law tail out to chart infinity, which is how an improper
integral over an unbounded real branch is finished off.

Floats enter through ``_float_evaluator``, which compiles a polynomial or a
rational function once into a plain Python function of its variables: each
coefficient becomes a float once, and the terms run in the order and with
the operations of ``Polynomial.evaluate``.  The compiled functions are bit
for bit ``float(p.evaluate(values))``, errors included, so tracing and
quadrature give the values they gave through the exact ``evaluate``, at a
fraction of its cost.  A trace compiles its curve and gradient once, an
integral its coefficients and their denominators once; nothing is cached
across calls.

numpy is imported by the functions that use it, on first numerical use, so
importing this module (and the command line front end) does not load it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .algebra import Polynomial, RationalFunction

NEWTON_TOL = 1e-12
SAMPLE_TOL = 1e-9
GRADIENT_TOL = 1e-8
CLOSURE_FACTOR = 0.75
ESCAPE_RADIUS = 1e6
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


def _float_evaluator(p):
    """Compile a Polynomial or RationalFunction to a float function of its variables.

    The result equals ``float(p.evaluate(values))`` bit for bit, for float and
    numpy.float64 values alike, and raises the same ZeroDivisionError or
    OverflowError: ``Fraction * float`` is ``float(coeff) * float``, so the
    coefficients are converted once and the same products and sums run in
    the same order.  A constant over a constant divides exactly before
    rounding, as ``RationalFunction.evaluate`` does.  A coefficient beyond
    the float range keeps the exact path, whose calls raise OverflowError.
    """
    coeffs = []

    def terms(poly) -> str:
        out = []
        for mono, coeff in poly.terms.items():
            factors = [f"c{len(coeffs)}"]
            coeffs.append(float(coeff))
            factors += [f"v{i}**{e}" for i, e in enumerate(mono.exponents) if e]
            out.append(" * ".join(factors))
        if not out:
            out.append(f"c{len(coeffs)}")
            coeffs.append(0.0)
        return " + ".join(out)

    try:
        if not isinstance(p, RationalFunction):
            body = terms(p)
        elif p.num.is_constant and p.den.is_constant:
            coeffs.append(float(p.num.constant_value() / p.den.constant_value()))
            body = "c0"
        else:
            body = f"({terms(p.num)}) / ({terms(p.den)})"
    except OverflowError:
        return lambda *values: float(p.evaluate(values))
    names = ", ".join(f"c{k}" for k in range(len(coeffs)))
    args = ", ".join(f"v{i}" for i in range(len(p.variables)))
    namespace = {}
    exec(
        f"def bind({names}):\n def evaluate({args}):\n  return {body}\n return evaluate",
        namespace,
    )
    return namespace["bind"](*coeffs)


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
        curve = _float_evaluator(self.curve)
        for k, (x, y) in enumerate(pts.tolist()):
            if abs(curve(x, y)) >= SAMPLE_TOL:
                raise NumericError(f"trace sample {tuple(pts[k])} is off the curve")

    def __len__(self):
        return len(self.samples)

    def reversed(self) -> "CurveTrace":
        return CurveTrace(self.curve, self.samples[::-1].copy(), self.closed)


def _gradient(f1, f2, point) -> Tuple[float, float]:
    return (float(f1(*point)), float(f2(*point)))


def _newton_project(f, f1, f2, point, max_iter: int = 30):
    """Pull a nearby point onto {f = 0} along the gradient direction.

    f, f1 and f2 are compiled evaluators of the curve and its partials.
    """
    x, y = float(point[0]), float(point[1])
    for _ in range(max_iter):
        value = f(x, y)
        if abs(value) < NEWTON_TOL:
            return x, y
        gx, gy = _gradient(f1, f2, (x, y))
        norm2 = gx * gx + gy * gy
        if norm2 < GRADIENT_TOL**2:
            return None
        x -= value * gx / norm2
        y -= value * gy / norm2
    if abs(f(x, y)) < NEWTON_TOL:
        return x, y
    return None


def _unit_tangent(f1, f2, point):
    gx, gy = _gradient(f1, f2, point)
    norm = math.hypot(gx, gy)
    if norm < GRADIENT_TOL * (1.0 + math.hypot(*point)):
        return None
    return (gy / norm, -gx / norm)


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
    curve = _float_evaluator(f)
    f1 = _float_evaluator(f.partial_derivative(0))
    f2 = _float_evaluator(f.partial_derivative(1))
    start = _newton_project(curve, f1, f2, (float(seed[0]), float(seed[1])))
    if start is None:
        raise SeedingError(f"seed {tuple(seed)} did not project onto the curve")
    tangent0 = _unit_tangent(f1, f2, start)
    if tangent0 is None:
        raise SeedingError(f"gradient vanishes at the projected seed {start}")

    def march(direction: int):
        points = []
        x, y = start
        tx, ty = tangent0[0] * direction, tangent0[1] * direction
        closed = False
        for count in range(max_steps):
            nxt = _newton_project(curve, f1, f2, (x + h * tx, y + h * ty))
            if nxt is None:
                raise SingularPointError(
                    f"Newton correction failed near ({x:.6g}, {y:.6g})"
                )
            x, y = nxt
            tangent = _unit_tangent(f1, f2, (x, y))
            if tangent is None:
                raise SingularPointError(
                    f"gradient vanishes on the trace near ({x:.6g}, {y:.6g})"
                )
            dot = tangent[0] * tx + tangent[1] * ty
            if abs(dot) < 0.1:
                raise SingularPointError(
                    f"tangent direction ambiguous near ({x:.6g}, {y:.6g})"
                )
            sign = 1.0 if dot > 0 else -1.0
            tx, ty = tangent[0] * sign, tangent[1] * sign
            if count >= 4 and math.hypot(x - start[0], y - start[1]) < CLOSURE_FACTOR * h:
                closed = True
                break
            points.append((x, y))
            if math.hypot(x, y) > ESCAPE_RADIUS:
                break
        return points, closed

    forward, closed = march(+1)
    if closed:
        samples = [start] + forward + [start]
        return CurveTrace(f, np.array(samples, dtype=float), True)
    backward, _ = march(-1)
    samples = list(reversed(backward)) + [start] + forward
    return CurveTrace(f, np.array(samples, dtype=float), False)


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
    """P du1 + Q du2 on one trace, with everything compiled once.

    The coefficients are called with plain floats, so a vanishing
    denominator raises instead of producing a numpy inf with a warning.
    ``den_at[k][i]`` is |dens[k]| at sample i, filled when a chord first
    needs it: a sample shared by two chords, or by the core and the coarse
    pass, is evaluated once, and in the order the chords reach it.
    """

    def __init__(self, form, trace: CurveTrace):
        P, Q = _form_coefficients(form, trace.curve.variables)
        self.P, self.Q = _float_evaluator(P), _float_evaluator(Q)
        self.f1 = _float_evaluator(trace.curve.partial_derivative(0))
        self.f2 = _float_evaluator(trace.curve.partial_derivative(1))
        self.dens = [_float_evaluator(c.den) for c in (P, Q) if not c.den.is_constant]
        self.rows = trace.samples
        self.points = trace.samples.tolist()
        self.den_at = [[None] * len(self.points) for _ in self.dens]

    def slope_form(self, c: int, x, y, gx: float, gy: float) -> float:
        """P + Q du2/du1 (c = 0) or Q + P du1/du2 (c = 1) on the curve."""
        x, y = float(x), float(y)
        if c == 0:
            return self.P(x, y) + self.Q(x, y) * (-gx / gy)
        return self.Q(x, y) + self.P(x, y) * (-gy / gx)


def _regularized_chord(ig: _Integrand, a, b):
    """On-curve endpoint value of the chord integral via the implicit slope.

    In the chord's dominant coordinate, P du1 + Q du2 reduces on the curve
    to (P + Q * du2/du1) du1 (or the symmetric form); the slope comes from
    implicit differentiation, and the product cancels a coefficient pole
    that is transverse to the curve.  Returns None when both endpoints sit
    exactly on a pole.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    c = 0 if abs(dx) >= abs(dy) else 1
    dc = dx if c == 0 else dy
    if dc == 0:
        return 0.0
    values = []
    for x, y in (a, b):
        gx, gy = _gradient(ig.f1, ig.f2, (x, y))
        if (gy if c == 0 else gx) == 0:
            continue
        try:
            value = ig.slope_form(c, x, y, gx, gy)
            if math.isfinite(value):
                values.append(value)
        except (ZeroDivisionError, OverflowError):
            continue
    if not values:
        return None
    return sum(values) / len(values) * dc


def _near_pole(ig: _Integrand, i: int, j: int, nodes) -> bool:
    """True when some coefficient denominator collapses across chord i -> j."""
    for den, at in zip(ig.dens, ig.den_at):
        for k in (i, j):
            if at[k] is None:
                at[k] = abs(den(*ig.points[k]))
        ends = (at[i], at[j])
        magnitudes = [*ends, *(abs(den(x, y)) for x, y in nodes)]
        if min(magnitudes) < 0.05 * max(ends):
            return True
        if ends[0] == 0.0 or ends[1] == 0.0:
            return True
    return False


def _chord_sum(ig: _Integrand, index) -> float:
    """Composite two-point Gauss quadrature of P du1 + Q du2 over the chords
    between consecutive samples of ``index``.

    A chord whose interior nodes stray near a coefficient pole that the
    curve itself passes through integrably is replaced by the on-curve
    regularized endpoint value; everywhere else plain Gauss keeps exact
    forms telescoping around closed traces.
    """
    P, Q, points = ig.P, ig.Q, ig.points
    total = 0.0
    for i, j in zip(index, index[1:]):
        (ax, ay), (bx, by) = points[i], points[j]
        dx, dy = bx - ax, by - ay
        nodes = [(ax + t * dx, ay + t * dy) for t in _GAUSS_NODES]
        if ig.dens and _near_pole(ig, i, j, nodes):
            gauss = None
        else:
            try:
                gauss = 0.0
                for x, y in nodes:
                    gauss += 0.5 * (P(x, y) * dx + Q(x, y) * dy)
                if not math.isfinite(gauss):
                    gauss = None
            except (ZeroDivisionError, OverflowError):
                gauss = None
        if gauss is not None:
            total += gauss
            continue
        flat = _regularized_chord(ig, ig.rows[i], ig.rows[j])
        if flat is None:
            raise DivergenceError(
                f"integrand is unbounded near ({ax:.6g}, {ay:.6g})"
            )
        total += flat
    return total


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
    c = 0 if abs(chord[0]) >= abs(chord[1]) else 1
    sigma = 1.0 if chord[c] > 0 else -1.0
    # motion must point outward at the far end, inward at the start
    outward = sigma * e0[c] > 0
    if outward == at_start:
        return 0.0, 0.0, "end does not move away from the chart origin"

    def psi(point):
        x, y = float(point[0]), float(point[1])
        gx, gy = _gradient(ig.f1, ig.f2, (x, y))
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


def integrate_1form(form, trace: CurveTrace) -> IntegralResult:
    """Integrate a 1-form along a trace; value plus conservative estimate.

    Composite two-point Gauss quadrature over the chords, compared against
    the half-resolution sum for the error estimate.  Open ends with
    decaying integrand receive power-law tails; a blow-up that dominates
    the sum or destabilizes the estimate raises DivergenceError.
    """
    ig = _Integrand(form, trace)
    n = len(ig.points)
    core = _chord_sum(ig, range(n))
    coarse_index = list(range(0, n, 2))
    if (n - 1) % 2:
        coarse_index.append(n - 1)
    coarse = _chord_sum(ig, coarse_index)
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
        for x, y in trace.samples:
            writer.writerow([repr(float(x)), repr(float(y))])
