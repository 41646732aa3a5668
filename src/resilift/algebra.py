"""Exact sparse multivariate polynomial and rational function arithmetic.

Coefficients are `fractions.Fraction` values throughout, so nothing in this
module ever rounds.  Polynomials are sparse maps from exponent vectors to
nonzero coefficients over a fixed, ordered tuple of variable names.  Rational
functions hold an exact numerator/denominator pair; on construction they
cancel common monomial content, cancel exact polynomial factors found by
division probes, and scale the denominator so its leading coefficient under
the graded lexicographic order is 1.  Equality of rational functions is
decided by cross multiplication, never by comparing representations.

Scalar prefactors that are not rational (2*pi*i and friends) never enter
this layer; higher layers carry them as symbolic tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AlgebraError(Exception):
    """Base error for the exact-arithmetic layer."""


class ArityError(AlgebraError):
    """A variable list, exponent vector, or substitution map has the wrong length."""


class ZeroDenominatorError(AlgebraError):
    """A rational function was given, or acquired, a zero denominator."""


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise AlgebraError(f"expected an integer or Fraction coefficient, got {value!r}")


@dataclass(frozen=True)
class Monomial:
    """An exponent vector; variable names live on the owning polynomial."""

    exponents: Tuple[int, ...]

    def __post_init__(self):
        exps = tuple(self.exponents)
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise AlgebraError(f"exponents must be nonnegative integers: {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exponents) != len(other.exponents):
            raise ArityError("cannot multiply monomials of different arity")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        if len(self.exponents) != len(other.exponents):
            raise ArityError("cannot compare monomials of different arity")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise AlgebraError(f"{other.exponents} does not divide {self.exponents}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def weighted_degree(self, weights: Sequence[Fraction]) -> Fraction:
        if len(weights) != len(self.exponents):
            raise ArityError("weight vector arity does not match monomial")
        return sum((w * e for w, e in zip(weights, self.exponents)), _ZERO)


def _grlex_key(mono: Monomial):
    return (mono.degree, mono.exponents)


class Polynomial:
    """Sparse polynomial over the rationals with a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping = ()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise AlgebraError(f"duplicate variable names: {variables}")
        clean: Dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, value in items:
            mono = key if isinstance(key, Monomial) else Monomial(tuple(key))
            if len(mono.exponents) != len(variables):
                raise ArityError(
                    f"exponent vector {mono.exponents} does not match variables {variables}"
                )
            coeff = _coerce_fraction(value)
            if coeff:
                total = clean.get(mono, _ZERO) + coeff
                if total:
                    clean[mono] = total
                else:
                    clean.pop(mono, None)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AlgebraError("Polynomial instances are immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Scalar) -> "Polynomial":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Polynomial":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise AlgebraError(f"unknown variable {name!r} among {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    @classmethod
    def generators(cls, variables: Sequence[str]) -> Tuple["Polynomial", ...]:
        return tuple(cls.variable(variables, v) for v in variables)

    @classmethod
    def single_term(
        cls, variables: Sequence[str], exponents: Sequence[int], coeff: Scalar = 1
    ) -> "Polynomial":
        return cls(variables, {tuple(exponents): coeff})

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(m.degree == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise AlgebraError(f"{self} is not a constant")
        for coeff in self.terms.values():
            return coeff
        return _ZERO

    def total_degree(self) -> int:
        if self.is_zero:
            raise AlgebraError("degree of the zero polynomial is undefined")
        return max(m.degree for m in self.terms)

    def leading_term(self) -> Tuple[Monomial, Fraction]:
        """Largest term under graded lexicographic order on the declared variables."""
        if self.is_zero:
            raise AlgebraError("the zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def monomial_content(self) -> Monomial:
        """Componentwise minimum exponent vector over all terms."""
        if self.is_zero:
            return Monomial((0,) * len(self.variables))
        mins = None
        for mono in self.terms:
            if mins is None:
                mins = list(mono.exponents)
            else:
                mins = [min(a, b) for a, b in zip(mins, mono.exponents)]
        return Monomial(tuple(mins))

    def uses_variable(self, index: int) -> bool:
        return any(m.exponents[index] for m in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _check_same_variables(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise ArityError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            self._check_same_variables(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            total = merged.get(mono, _ZERO) + coeff
            if total:
                merged[mono] = total
            else:
                merged.pop(mono, None)
        return Polynomial(self.variables, merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 * m2
                total = out.get(key, _ZERO) + c1 * c2
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise AlgebraError("polynomial powers take nonnegative integer exponents")
        result = Polynomial.one(self.variables)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None

    # -- calculus and substitution --------------------------------------

    def partial_derivative(self, var: Union[int, str]) -> "Polynomial":
        index = self.variables.index(var) if isinstance(var, str) else var
        if not 0 <= index < len(self.variables):
            raise ArityError(f"variable index {index} out of range for {self.variables}")
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono.exponents[index]
            if e == 0:
                continue
            dropped = list(mono.exponents)
            dropped[index] = e - 1
            key = Monomial(tuple(dropped))
            total = out.get(key, _ZERO) + coeff * e
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return Polynomial(self.variables, out)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace the i-th variable by images[i]; images share one variable tuple."""
        images = list(images)
        if len(images) != len(self.variables):
            raise ArityError(
                f"expected {len(self.variables)} substitution images, got {len(images)}"
            )
        if not images:
            target = ()
        else:
            target = images[0].variables
            for im in images[1:]:
                if im.variables != target:
                    raise ArityError("substitution images use different variable tuples")
        if all(len(im.terms) == 1 for im in images):
            return self._substitute_monomials(images, target)
        acc = Polynomial.zero(target)
        # cache of incremental powers, one list per variable
        powers = [[Polynomial.one(target), im] for im in images]
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(target, coeff)
            for i, e in enumerate(mono.exponents):
                if e == 0:
                    continue
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * cache[1])
                term = term * cache[e]
            acc = acc + term
        return acc

    def _substitute_monomials(
        self, images: Sequence["Polynomial"], target: Tuple[str, ...]
    ) -> "Polynomial":
        """Substitution of single-term images c_i * u^(M_i), by exponent arithmetic.

        A term c * z^e goes to c * prod c_i^(e_i) * u^(sum e_i M_i); no power
        of an image is built.  Terms accumulate in the order of self.terms.
        """
        rows = []
        for im in images:
            ((mono, c),) = im.terms.items()
            row = tuple((j, m) for j, m in enumerate(mono.exponents) if m)
            rows.append((row, None if c == 1 else c))
        width = len(target)
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            exps = [0] * width
            for e, (row, c) in zip(mono.exponents, rows):
                if e == 0:
                    continue
                for j, m in row:
                    exps[j] += e * m
                if c is not None:
                    coeff = coeff * c**e
            key = Monomial(tuple(exps))
            total = out.get(key, _ZERO) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return Polynomial(target, out)

    def evaluate(self, values: Sequence):
        if len(values) != len(self.variables):
            raise ArityError(
                f"expected {len(self.variables)} values, got {len(values)}"
            )
        total = None
        for mono, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(values, mono.exponents):
                if e:
                    prod = prod * v**e
            total = prod if total is None else total + prod
        if total is None:
            return _ZERO
        return total

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        pieces = []
        for pos, (mono, coeff) in enumerate(ordered):
            factors = []
            for name, e in zip(self.variables, mono.exponents):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if pos == 0:
                if coeff < 0:
                    # a leading minus must attach to a literal, never to a powered
                    # variable, so here the coefficient is always written out
                    explicit = str(mag) + ("*" + "*".join(factors) if factors else "")
                    pieces.append("-" + explicit)
                else:
                    pieces.append(body)
            else:
                pieces.append(("-" if coeff < 0 else "+") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({str(self)!r}, variables={self.variables})"


def partial_derivative(p: Polynomial, var_index: int) -> Polynomial:
    """Exact partial derivative with respect to the variable at var_index."""
    return p.partial_derivative(var_index)


def divide_with_remainder(p: Polynomial, d: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """Division of p by the single divisor d under graded lexicographic order.

    Returns (q, r) with p = q*d + r and no term of r divisible by the leading
    monomial of d.  For a single divisor the remainder is unique, so r == 0
    exactly when d divides p.
    """
    if d.is_zero:
        raise AlgebraError("division by the zero polynomial")
    p._check_same_variables(d)
    lead_mono, lead_coeff = d.leading_term()
    work: Dict[Monomial, Fraction] = dict(p.terms)
    quot: Dict[Monomial, Fraction] = {}
    rem: Dict[Monomial, Fraction] = {}
    while work:
        mono = max(work, key=_grlex_key)
        coeff = work[mono]
        if lead_mono.divides(mono):
            qm = mono / lead_mono
            qc = coeff / lead_coeff
            quot[qm] = quot.get(qm, _ZERO) + qc
            for dm, dc in d.terms.items():
                key = qm * dm
                total = work.get(key, _ZERO) - qc * dc
                if total:
                    work[key] = total
                else:
                    work.pop(key, None)
        else:
            rem[mono] = coeff
            del work[mono]
    return Polynomial(p.variables, quot), Polynomial(p.variables, rem)


def divides(d: Polynomial, p: Polynomial) -> Tuple[bool, Polynomial]:
    """Exact divisibility probe; returns (True, quotient) or (False, None)."""
    if d.is_zero:
        raise AlgebraError("divisibility by the zero polynomial is undefined")
    q, r = divide_with_remainder(p, d)
    if r.is_zero:
        return True, q
    return False, None


def with_variables(p: Polynomial, variables: Sequence[str]) -> Polynomial:
    """Re-express p over another variable tuple.

    New variables may be added freely; a variable may be dropped only if no
    term of p uses it.
    """
    variables = tuple(variables)
    positions = {name: i for i, name in enumerate(variables)}
    for i, name in enumerate(p.variables):
        if name not in positions and p.uses_variable(i):
            raise ArityError(f"variable {name!r} is used by {p} but absent from {variables}")
    out = {}
    for mono, coeff in p.terms.items():
        exps = [0] * len(variables)
        for name, e in zip(p.variables, mono.exponents):
            if e:
                exps[positions[name]] = e
        out[tuple(exps)] = coeff
    return Polynomial(variables, out)


class RationalFunction:
    """Quotient of two polynomials, normalized but not fully reduced.

    Normalization cancels the common monomial content of numerator and
    denominator, cancels an exact polynomial factor whenever a division
    probe detects one, folds constant denominators into the numerator, and
    scales so the denominator's graded-lex leading coefficient is 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, (int, Fraction)):
            if isinstance(den, Polynomial):
                num = Polynomial.constant(den.variables, num)
            else:
                raise AlgebraError(
                    "a bare scalar numerator needs a Polynomial denominator for context"
                )
        if isinstance(den, (int, Fraction)):
            den = Polynomial.constant(num.variables, den)
        num._check_same_variables(den)
        if den.is_zero:
            raise ZeroDenominatorError("zero denominator")
        num, den = self._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AlgebraError("RationalFunction instances are immutable")

    @staticmethod
    def _normalize(num: Polynomial, den: Polynomial):
        if num.is_zero:
            return num, Polynomial.one(num.variables)
        ncont = num.monomial_content().exponents
        dcont = den.monomial_content().exponents
        common = tuple(min(a, b) for a, b in zip(ncont, dcont))
        if any(common):
            shift = Monomial(common)
            num = Polynomial(num.variables, {m / shift: c for m, c in num.terms.items()})
            den = Polynomial(den.variables, {m / shift: c for m, c in den.terms.items()})
        if not den.is_constant:
            ok, q = divides(den, num)
            if ok:
                num, den = q, Polynomial.one(num.variables)
            else:
                ok, q = divides(num, den)
                if ok and not q.is_constant:
                    # num/den = 1/q, up to the constant normalization below
                    num, den = Polynomial.one(num.variables), q
        if den.is_constant:
            num = num * (1 / den.constant_value())
            den = Polynomial.one(num.variables)
        else:
            lead = den.leading_term()[1]
            if lead != 1:
                num = num * (1 / lead)
                den = den * (1 / lead)
        return num, den

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.one(p.variables))

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.num.variables

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == Polynomial.one(self.den.variables)

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise AlgebraError(f"{self} is not a polynomial")
        return self.num

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.variables != self.variables:
                raise ArityError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ArityError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return RationalFunction.from_polynomial(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_polynomial(
                Polynomial.constant(self.variables, other)
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero:
            raise ZeroDenominatorError("zero has no inverse")
        return RationalFunction(self.den, self.num)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise AlgebraError("rational function powers take integer exponents")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return RationalFunction(self.num**exponent, self.den**exponent)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def partial_derivative(self, var: Union[int, str]) -> "RationalFunction":
        dn = self.num.partial_derivative(var)
        dd = self.den.partial_derivative(var)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, images: Sequence[Polynomial]) -> "RationalFunction":
        num = self.num.substitute(images)
        den = self.den.substitute(images)
        if den.is_zero:
            raise ZeroDenominatorError("substitution sends the denominator to zero")
        return RationalFunction(num, den)

    def evaluate(self, values: Sequence):
        return self.num.evaluate(values) / self.den.evaluate(values)

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({str(self)!r})"


def rational_with_variables(rf: RationalFunction, variables: Sequence[str]) -> RationalFunction:
    return RationalFunction(
        with_variables(rf.num, variables), with_variables(rf.den, variables)
    )
