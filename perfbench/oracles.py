"""Output oracles, written independently of the code they check.

Each returns None when the output is right and a one-line reason when it is
not; the benchmark counts every reason as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional

from catalog import Job, brute_witness

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- analyze ----------------------------------------------------------------


def brute_verdict(job: Job) -> str:
    """LIFTS / OBSTRUCTED / INCONCLUSIVE from first principles.

    The class lifts unless some k >= 0 has kappa + sum k_i a_i == 1 (found by
    enumerating k); otherwise it is obstructed exactly when a term of g has
    weighted degree 1 - kappa.
    """
    kappa = sum(job.weights, Fraction(0))
    target = 1 - kappa
    if brute_witness(job.weights, target) is None:
        return "LIFTS"
    degrees = {
        sum((e * a for e, a in zip(exps, job.weights)), Fraction(0))
        for exps in job.g_exponents
    }
    return "OBSTRUCTED" if target in degrees else "INCONCLUSIVE"


def check_report(text: str, expected_verdict: str, digest: Optional[str]) -> Optional[str]:
    """Report bytes against the recorded digest and the brute-force verdict."""
    verdict = json.loads(text)["verdict"]
    if verdict != expected_verdict:
        return f"verdict {verdict}, brute force says {expected_verdict}"
    if digest is None:
        return "no recorded digest for this job"
    if sha256(text) != digest:
        return "report bytes differ from the recorded digest"
    return None


# -- criterion and spectrum -------------------------------------------------


def check_criterion(weights, decision, entries, brute_holds: Optional[bool]) -> Optional[str]:
    """The criterion fails exactly when 0 is a nonpositive spectrum value."""
    kappa = sum(weights, Fraction(0))
    if decision.holds == any(entry.value == 0 for entry in entries):
        return f"criterion holds={decision.holds} contradicts the spectrum zero test"
    if brute_holds is not None and decision.holds != brute_holds:
        return f"criterion holds={decision.holds}, brute force says {brute_holds}"
    if not decision.holds:
        k = decision.witness.k
        if any(c < 0 for c in k) or kappa + sum(
            (c * a for c, a in zip(k, weights)), Fraction(0)
        ) != 1:
            return f"witness {k} does not reach 1 - kappa"
    return None


# -- integration ------------------------------------------------------------

REFERENCE_DIGITS = 30
# value must sit within this share of the reference; the measured error is
# a metric, this only catches a wrong integral
INTEGRAL_TOLERANCE = 0.05


def _mp_poly(poly, mp):
    terms = [
        (mp.mpf(c.numerator) / c.denominator, m.exponents)
        for m, c in poly.terms.items()
    ]

    def value(x, y):
        return mp.fsum(c * x ** e[0] * y ** e[1] for c, e in terms)

    return value


def diagonal_reference(a: int, b: int, c: int, form) -> float:
    """Integral of a 1-form on {a + b u1^3 + c u2^3 = 0}, at 30 digits.

    Uses the explicit real branch u1 = -((a + c u2^3)/b)^(1/3) over the whole
    u2 line, split where u1 = 0.  The orientation is the one the tracer
    follows, tangent (df/du2, -df/du1): du2/dt = -3 b u1^2 has the sign of
    -b, so for b > 0 the branch runs from u2 = +inf to u2 = -inf.
    """
    import mpmath

    mp = mpmath.mp
    saved = mp.dps
    mp.dps = REFERENCE_DIGITS
    try:
        P = form.component((0,))
        Q = form.component((1,))
        p_num, p_den = _mp_poly(P.num, mp), _mp_poly(P.den, mp)
        q_num, q_den = _mp_poly(Q.num, mp), _mp_poly(Q.den, mp)
        a_, b_, c_ = mp.mpf(a), mp.mpf(b), mp.mpf(c)

        def integrand(t):
            w = (a_ + c_ * t**3) / b_
            u1 = -mp.sign(w) * mp.cbrt(abs(w))
            du1 = -(c_ * t**2 / b_) / mp.cbrt(w * w)
            return p_num(u1, t) / p_den(u1, t) * du1 + q_num(u1, t) / q_den(u1, t)

        t0 = -mp.cbrt(a_ / c_)
        total = mp.quad(integrand, [-mp.inf, t0, mp.inf])
        return float(-total if b > 0 else total)
    finally:
        mp.dps = saved


def check_integral(payload: dict, reference: Optional[float]) -> Optional[str]:
    value = payload["value"]
    estimate = payload["error_estimate"]
    if payload["verdict"] != "OBSTRUCTED":
        return f"verdict {payload['verdict']}, expected OBSTRUCTED"
    if not (math.isfinite(value) and math.isfinite(estimate) and estimate >= 0):
        return f"value {value} or estimate {estimate} is not finite"
    if not payload["nonzero"]:
        return "an obstructed class integrated to zero"
    if reference is not None and abs(value - reference) > INTEGRAL_TOLERANCE * abs(reference):
        return f"value {value} is not within {INTEGRAL_TOLERANCE} of the reference {reference}"
    return None
