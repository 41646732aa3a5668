r"""Weight systems, valuations, and quasihomogeneous decompositions.

A weight system assigns a positive rational weight to each variable.  The
valuation of a monomial is its weighted degree, and the valuation of a
polynomial is the maximum over its monomials.  The product rule is
additive, v(p*q) = v(p) + v(q); additivity is what every computation here
relies on (weighted degrees add when monomials multiply).

Derived data: kappa is the total weight (the valuation of the top form
dz0 /\ ... /\ dzn), cover_order is the least positive integer clearing all
weight denominators, cover_exponents are the integers cover_order * a_i,
and jacobian_constant is their product, the constant picked up when the
volume form is pulled back through the cover z_i -> z_i^(cover_order*a_i).

Weighted degrees are computed on integers over the cover order l: l times
the degree of z^e is sum e_i * cover_exponents_i.  valuation_poly,
is_quasihomogeneous and quasi_decompose build one Fraction(v, l) per
distinct degree, so weights, valuations and decomposition keys are still
Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Dict, Optional, Sequence, Tuple

from .algebra import Polynomial, _polynomial
from .forms import DifferentialForm


class WeightError(Exception):
    """Base error for weight and valuation operations."""


class NonQuasihomogeneousError(WeightError):
    """An operation required a quasihomogeneous polynomial."""


class UnnormalizedEquationError(WeightError):
    """The equation has valuation different from 1.

    Carries the actual valuation and the rescaled weights that would fix it,
    so callers can surface a concrete hint.
    """

    def __init__(self, weight: Fraction, rescaled: Tuple[Fraction, ...]):
        self.weight = weight
        self.rescaled = rescaled
        hint = ", ".join(str(w) for w in rescaled)
        super().__init__(
            f"equation has valuation {weight}, not 1; "
            f"rescaling the weights to ({hint}) would normalize it"
        )


def _coerce_weight(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):  # JSON true is not the weight 1
            raise WeightError(f"cannot read {value!r} as a rational weight")
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise WeightError(f"cannot read {value!r} as a rational weight")


@dataclass(frozen=True)
class WeightSystem:
    """Positive rational weights for an ordered tuple of variables."""

    weights: Tuple[Fraction, ...]

    def __init__(self, weights: Sequence):
        coerced = tuple(_coerce_weight(w) for w in weights)
        if not coerced:
            raise WeightError("a weight system needs at least one weight")
        for w in coerced:
            if w <= 0:
                raise WeightError(f"weights must be positive rationals, got {w}")
        object.__setattr__(self, "weights", coerced)
        # derived once, in integers over the common denominator l
        l = math.lcm(*(w.denominator for w in coerced))
        exponents = tuple(w.numerator * (l // w.denominator) for w in coerced)
        object.__setattr__(self, "_cover_order", l)
        object.__setattr__(self, "_cover_exponents", exponents)
        object.__setattr__(self, "_kappa", Fraction(sum(exponents), l))

    def __len__(self):
        return len(self.weights)

    @property
    def kappa(self) -> Fraction:
        """Total weight: the valuation of the volume form."""
        return self._kappa

    @property
    def cover_order(self) -> int:
        """Least positive integer l with l * a_i integral for every weight."""
        return self._cover_order

    @property
    def cover_exponents(self) -> Tuple[int, ...]:
        return self._cover_exponents

    @property
    def jacobian_constant(self) -> Fraction:
        return Fraction(math.prod(self.cover_exponents))

    def __str__(self):
        return "(" + ", ".join(str(w) for w in self.weights) + ")"


@dataclass(frozen=True)
class QuasiDecomposition:
    """Partition of a polynomial into quasihomogeneous components by weight."""

    components: Dict[Fraction, Polynomial] = field(default_factory=dict)

    def weights(self) -> Tuple[Fraction, ...]:
        return tuple(sorted(self.components))

    def component(self, weight: Fraction) -> Optional[Polynomial]:
        return self.components.get(Fraction(weight))


def _check_arity(p: Polynomial, w: WeightSystem):
    if len(p.variables) != len(w):
        raise WeightError(
            f"weight system of size {len(w)} does not match variables {p.variables}"
        )


def _scaled_degree(mono, exponents: Tuple[int, ...]) -> int:
    """cover_order times the weighted degree of a monomial, as an int."""
    return sum(map(mul, mono, exponents))


def valuation_poly(p: Polynomial, w: WeightSystem) -> Fraction:
    """Max over monomials of the weighted degree; undefined for zero."""
    _check_arity(p, w)
    if p.is_zero:
        raise WeightError("valuation of the zero polynomial is undefined")
    e = w.cover_exponents
    return Fraction(max(_scaled_degree(m, e) for m in p.terms), w.cover_order)


def valuation_form(f: DifferentialForm, w: WeightSystem) -> Tuple[Fraction, bool]:
    """Valuation of a form and a purity flag.

    Each term contributes the valuation of its coefficient (valuation of
    numerator minus valuation of denominator) plus the sum of the weights of
    its wedge indices.  Returns (max over terms, all terms equal).
    """
    if len(f.variables) != len(w):
        raise WeightError(
            f"weight system of size {len(w)} does not match variables {f.variables}"
        )
    if f.is_zero:
        raise WeightError("valuation of the zero form is undefined")
    values = []
    for key, coeff in f.components.items():
        v = valuation_poly(coeff.num, w) - valuation_poly(coeff.den, w)
        v += sum((w.weights[i] for i in key), Fraction(0))
        values.append(v)
    return max(values), len(set(values)) == 1


def is_quasihomogeneous(
    p: Polynomial, w: WeightSystem
) -> Tuple[bool, Optional[Fraction]]:
    """Whether all monomials of p share one weighted degree; returns it if so."""
    _check_arity(p, w)
    if p.is_zero:
        raise WeightError("quasihomogeneity of the zero polynomial is undefined")
    e = w.cover_exponents
    degrees = {_scaled_degree(m, e) for m in p.terms}
    if len(degrees) == 1:
        return True, Fraction(degrees.pop(), w.cover_order)
    return False, None


def quasi_decompose(p: Polynomial, w: WeightSystem) -> QuasiDecomposition:
    """Partition the terms of p by weighted degree."""
    _check_arity(p, w)
    if p.is_zero:
        raise WeightError("cannot decompose the zero polynomial")
    e = w.cover_exponents
    buckets: Dict[int, dict] = {}
    for mono, coeff in p.terms.items():
        buckets.setdefault(_scaled_degree(mono, e), {})[mono] = coeff
    # the buckets split the clean terms of p, so they need no second check
    l = w.cover_order
    return QuasiDecomposition(
        {Fraction(v, l): _polynomial(p.variables, terms) for v, terms in buckets.items()}
    )


def euler_check(s: Polynomial, w: WeightSystem) -> bool:
    """Verify sum_i a_i z_i ds/dz_i = weight * s exactly.

    The identity characterizes quasihomogeneity, so this is a consistency
    check on both the decomposition machinery and the derivative code.
    """
    _check_arity(s, w)
    if s.is_zero:
        return True
    ok, weight = is_quasihomogeneous(s, w)
    if not ok:
        raise NonQuasihomogeneousError(f"{s} is not quasihomogeneous under {w}")
    gens = Polynomial.generators(s.variables)
    acc = Polynomial.zero(s.variables)
    for i, (a, z) in enumerate(zip(w.weights, gens)):
        acc = acc + a * z * s.partial_derivative(i)
    return acc == weight * s


def rescaled_weights(s: Polynomial, w: WeightSystem) -> WeightSystem:
    """Weights divided by the valuation of s, making s have valuation 1."""
    ok, weight = is_quasihomogeneous(s, w)
    if not ok:
        raise NonQuasihomogeneousError(f"{s} is not quasihomogeneous under {w}")
    return _divide_weights(s, w, weight)


def _divide_weights(s: Polynomial, w: WeightSystem, weight: Fraction) -> WeightSystem:
    """w divided by weight, the valuation of the quasihomogeneous s."""
    if weight == 0:
        raise WeightError(
            f"equation {s} is constant: its valuation is 0 under any weights, never 1"
        )
    return WeightSystem(tuple(a / weight for a in w.weights))


def require_normalized(s: Polynomial, w: WeightSystem) -> Fraction:
    """Insist that s is quasihomogeneous of valuation exactly 1.

    Raises NonQuasihomogeneousError, WeightError for a constant s, or
    UnnormalizedEquationError (carrying the rescaled weights as a hint), and
    returns the valuation 1.
    """
    ok, weight = is_quasihomogeneous(s, w)
    if not ok:
        raise NonQuasihomogeneousError(f"{s} is not quasihomogeneous under {w}")
    if weight != 1:
        raise UnnormalizedEquationError(weight, _divide_weights(s, w, weight).weights)
    return weight
