r"""Liftability criterion, nonpositive spectrum, and the obstruction component.

The computable core of the analysis.  For a weight system with total weight
kappa, the residue class of (g/s) dz0 /\ ... /\ dzn lifts whenever no
nonnegative integer combination of the weights equals 1 - kappa; this
module decides that by dynamic programming on the cleared-denominator
integers.  The same quantity indexes the nonpositive part of the
singularity spectrum, {kappa + sum k_i a_i - 1 <= 0}, which is enumerated
exactly.  The criterion holds precisely when 0 is absent from that list;
when it fails, 0 is the last value, and the last entry's k is the witness
lift_criterion reconstructs (both are the lexicographically largest k).
The spectrum runs on integers over the cover order l: with e_i = l a_i an
entry is the integer v = sum(e) - l + sum k_i e_i <= 0, and becomes the
Fraction v / l only once it is sorted.  ResidueReport.verify checks the
entries and the criterion witness on the same integers.

When the criterion fails, the weight-(1 - kappa) component of the
numerator decides between a certified obstruction and an inconclusive
verdict.  The residue module's analyze assembles that verdict and produces
the symbolic obstruction form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .algebra import Polynomial, _single_term
from .weights import (
    WeightSystem,
    is_quasihomogeneous,
    quasi_decompose,
    require_normalized,
)

LIFTS = "LIFTS"
OBSTRUCTED = "OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"

ISOLATED = "ISOLATED"
UNKNOWN = "UNKNOWN"


class CriteriaError(Exception):
    """Base error for the criterion and verdict stages."""


class RemovablePoleError(CriteriaError):
    """The denominator divides the numerator, so the form has no pole."""


@dataclass(frozen=True)
class CriterionWitness:
    """A nonnegative integer exponent vector with kappa + sum k_i a_i = 1."""

    k: Tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class CriterionDecision:
    holds: bool
    witness: Optional[CriterionWitness]


@dataclass(frozen=True)
class SpectrumEntry:
    """A nonpositive spectrum value kappa + sum k_i a_i - 1 with its witness."""

    value: Fraction
    k: Tuple[int, ...]


@dataclass(frozen=True)
class LiftVerdict:
    """LIFTS, OBSTRUCTED or INCONCLUSIVE for one singular point."""

    kind: str


def lift_criterion(w: WeightSystem) -> CriterionDecision:
    """Decide whether any nonnegative integer combination of the weights is 1 - kappa.

    Holds (no combination exists) means the residue class lifts.  For
    kappa > 1 the target is negative and the criterion holds vacuously; for
    kappa = 1 the empty combination is a witness.  For kappa < 1 the weights
    are scaled by their common denominator D and reachability of the integer
    D*(1 - kappa) by coins D*a_i is decided by dynamic programming, with the
    witness reconstructed from the reachability table.
    """
    kappa = w.kappa
    if kappa > 1:
        return CriterionDecision(True, None)
    if kappa == 1:
        return CriterionDecision(
            False, CriterionWitness((0,) * len(w), kappa)
        )
    scale = math.lcm(*(a.denominator for a in w.weights))
    target = int(scale * (1 - kappa))
    coins = [int(scale * a) for a in w.weights]
    # parent[t] = index of a coin completing t, -2 at the origin, -1 unreachable
    parent = [-1] * (target + 1)
    parent[0] = -2
    for t in range(1, target + 1):
        for ci, coin in enumerate(coins):
            if coin <= t and parent[t - coin] != -1:
                parent[t] = ci
                break
    if parent[target] == -1:
        return CriterionDecision(True, None)
    k = [0] * len(w)
    t = target
    while t:
        ci = parent[t]
        k[ci] += 1
        t -= coins[ci]
    value = kappa + sum(
        (Fraction(c) * a for c, a in zip(k, w.weights)), Fraction(0)
    )
    return CriterionDecision(False, CriterionWitness(tuple(k), value))


def spectrum_nonpositive(w: WeightSystem) -> Tuple[SpectrumEntry, ...]:
    """All spectrum values kappa + sum k_i a_i - 1 that are <= 0, with witnesses.

    One entry per exponent vector (witnesses are not deduplicated by value);
    sorted ascending by value, then lexicographically by witness.  Empty
    when kappa > 1.  Runs on integers over the cover order l: with
    e_i = l a_i, the value of k is v / l for v = sum(e) - l + sum k_i e_i.
    """
    if w.kappa > 1:
        return ()
    l = w.cover_order
    exponents = w.cover_exponents
    # (v, k) rows, extended one coordinate at a time; c e_i <= -v keeps v <= 0
    rows = [(sum(exponents) - l, ())]
    for e in exponents:
        rows = [
            (v + c * e, k + (c,)) for v, k in rows for c in range(-v // e + 1)
        ]
    rows.sort()
    # l > 0, so the int order is the (value, k) order; entries replace rows
    for j, (v, k) in enumerate(rows):
        rows[j] = SpectrumEntry(Fraction(v, l), k)
    return tuple(rows)


def cover_image(p: Polynomial, w: WeightSystem) -> Polynomial:
    """Image of p under the branched cover z_i -> z_i^(cover_order * a_i)."""
    return p.substitute(_cover_images(p.variables, w))


def _cover_images(variables: Sequence[str], w: WeightSystem) -> List[Polynomial]:
    """The cover as single-term images, z_i -> z_i^(cover_order * a_i)."""
    n = len(variables)
    return [
        _single_term(variables, [e if j == i else 0 for j in range(n)])
        for i, e in enumerate(w.cover_exponents)
    ]


def obstruction_component(
    s: Polynomial, g: Polynomial, w: WeightSystem
) -> Tuple[bool, Polynomial]:
    """The weight-(1 - kappa) component of g; its nonvanishing certifies obstruction."""
    require_normalized(s, w)
    if g.is_zero:
        return False, Polynomial.zero(g.variables)
    component = quasi_decompose(g, w).component(1 - w.kappa)
    if component is None:
        return False, Polynomial.zero(g.variables)
    return True, component


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the one-sided isolatedness probe on the cover image."""

    status: str
    pullback: Polynomial
    missing: Tuple[str, ...]


def pullback_singularity_probe(s: Polynomial, w: WeightSystem) -> ProbeReport:
    """Probe whether the cover image of s has an isolated singularity at 0.

    Reports ISOLATED when, for every variable, the corresponding partial
    derivative of the cover image contains a monomial in that variable
    alone.  This is a heuristic positive signal only: UNKNOWN never asserts
    non-isolatedness, and ISOLATED is not a proof for degenerate inputs
    (the check looks at single monomials, not at the ideal the derivatives
    generate).
    """
    ok, _ = is_quasihomogeneous(s, w)
    if not ok:
        raise CriteriaError(f"{s} is not quasihomogeneous under {w}")
    image = cover_image(s, w)
    missing = []
    for i, name in enumerate(s.variables):
        derivative = image.partial_derivative(i)
        pure = any(
            all(e == 0 for j, e in enumerate(mono) if j != i)
            for mono in derivative.terms
        )
        if not pure:
            missing.append(name)
    status = ISOLATED if not missing else UNKNOWN
    return ProbeReport(status=status, pullback=image, missing=tuple(missing))
