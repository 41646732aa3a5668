"""Exact sparse multivariate polynomial and rational function arithmetic.

Coefficients are exact rationals, so nothing in this module ever rounds: an
int when the value is integral and a `fractions.Fraction` otherwise, so ring
operations on integral data run on int.  The constructor stores a bool or an
integral Fraction as its int.  Every coefficient division goes through
`_divide`, which divides exactly and gives back an int for an integral
quotient (int / int would be a float).  A sum or product of Fractions that
happens to be integral may stay a Fraction; it equals, hashes and renders as
the int.  `evaluate` at exact inputs returns a Fraction.  Polynomials are
sparse maps from exponent vectors to nonzero coefficients over a fixed,
ordered tuple of variable names.  Rational
functions hold an exact numerator/denominator pair; on construction they
cancel common monomial content, cancel exact polynomial factors found by
division probes, and scale the denominator so its leading coefficient under
the graded lexicographic order is 1.  Equality of rational functions is
decided by cross multiplication, never by comparing representations.

The public constructors `Monomial(...)` and `Polynomial(...)` check what
they are given.  Results built inside this module (ring operations,
derivatives, substitutions, division, the monomial shift of a rational
function) are already clean, so they are wrapped without a second check,
and so are single terms built elsewhere in the package (`_single_term`).
The private term kernels `_add_terms`, `_mul_terms`, `_pow_terms`,
`_shifted` (times a scalar and a monomial) and `_map_terms` (a monomial
map) are the only exponent arithmetic in the package, apart from division
and derivatives in this module.  They work on {exponent tuple: coefficient}
dicts.  A `Monomial` is a tuple, so a polynomial's `terms` goes into them
as it is, and hashing and comparing keys run as for plain tuples.  The
kernels build plain tuples; `_wrap` makes the terms that survive into
`Monomial` keys.  `Polynomial`'s operations, the parser and the forms
layer all call them, so one operation gives the same terms in the same
order wherever it runs.

Division by one polynomial takes terms from a graded-lex max-heap, in the
same order a scan for the largest term would.  `divides`
first compares exponent ranges: for p = q*d the Newton polytope of p is the
Minkowski sum of those of q and d (Ostrowski), so along each variable and
along the total degree the range max - min of p is that of q plus that of d,
and a smaller range of p proves d does not divide p without dividing.  For
the same reason the affine hull of p's exponents contains a translate of d's,
so a difference of two exponent vectors of d outside the span of p's
differences rejects as well.  A single term c*u^a needs no division: it
divides p exactly when a is at most the monomial content of p.

A rational function runs its division probes only when, after the common
monomial content is shifted out, the numerator is constant or both sides
have at least two terms.  Otherwise both probes return (False, None):
after the shift min(ncont_i, dcont_i) = 0 for every variable, a multi-term
polynomial never divides a single term (its exponent ranges are not all 0),
and a non-constant single term u^a never divides the other side, whose
content is 0 in each u_i with a_i > 0.  A constant numerator runs only the
second probe, num dividing den: a non-constant den never divides a nonzero
constant.  That probe always succeeds and is kept: it rewrites the
denominator in graded-lex descending order, which the float evaluators of
numint follow.

Scalar prefactors that are not rational (2*pi*i and friends) never enter
this layer; higher layers carry them as symbolic tags.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, gt, neg, sub
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


class AlgebraError(Exception):
    """Base error for the exact-arithmetic layer."""


class ArityError(AlgebraError):
    """A variable list, exponent vector, or substitution map has the wrong length."""


class ZeroDenominatorError(AlgebraError):
    """A rational function was given, or acquired, a zero denominator."""


def _coerce_coefficient(value) -> Scalar:
    """An int for integral values (bools included), a Fraction otherwise."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise AlgebraError(f"expected an integer or Fraction coefficient, got {value!r}")


def _divide(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: an int when the quotient is integral, else a Fraction.

    The one place coefficients divide; int / int would give a float.
    """
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


class Monomial(tuple):
    """An exponent vector; variable names live on the owning polynomial.

    A tuple of nonnegative ints, so it hashes and compares as the plain
    tuple of its exponents.
    """

    __slots__ = ()

    def __new__(cls, exponents: Sequence[int]):
        exps = tuple(exponents)
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise AlgebraError(f"exponents must be nonnegative integers: {exps}")
        return tuple.__new__(cls, exps)

    @property
    def exponents(self) -> Tuple[int, ...]:
        return tuple(self)

    @property
    def degree(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Monomial(exponents={self.exponents!r})"


def _monomial(exps: Tuple[int, ...]) -> Monomial:
    """A Monomial from a tuple already known to hold nonnegative ints."""
    return tuple.__new__(Monomial, exps)


def _grlex_key(mono: Monomial):
    return (sum(mono), mono)


class Polynomial:
    """Sparse polynomial over the rationals with a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping = ()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise AlgebraError(f"duplicate variable names: {variables}")
        clean: Dict[Monomial, Scalar] = {}
        items = (
            terms.items()
            if terms.__class__ is dict or isinstance(terms, Mapping)
            else terms
        )
        for key, value in items:
            mono = key if isinstance(key, Monomial) else Monomial(key)
            if len(mono) != len(variables):
                raise ArityError(
                    f"exponent vector {tuple(mono)} does not match variables {variables}"
                )
            coeff = _coerce_coefficient(value)
            if coeff:
                _accumulate(clean, mono, coeff)
        _set_variables(self, variables)
        _set_terms(self, clean)

    def __setattr__(self, name, value):
        raise AlgebraError("Polynomial instances are immutable")

    def __reduce__(self):
        # unpickling would restore the slots through the refusing __setattr__
        return self.__class__, (self.variables, self.terms)

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
        # distinct monomials: at most one term can have degree 0
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise AlgebraError(f"{self} is not a constant")
        for coeff in self.terms.values():
            return coeff
        return 0

    def total_degree(self) -> int:
        if self.is_zero:
            raise AlgebraError("degree of the zero polynomial is undefined")
        return max(map(sum, self.terms))

    def leading_term(self) -> Tuple[Monomial, Scalar]:
        """Largest term under graded lexicographic order on the declared variables."""
        if self.is_zero:
            raise AlgebraError("the zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def monomial_content(self) -> Monomial:
        """Componentwise minimum exponent vector over all terms."""
        if self.is_zero:
            return _monomial((0,) * len(self.variables))
        return _monomial(tuple(map(min, zip(*self.terms))))

    def uses_variable(self, index: int) -> bool:
        return any(m[index] for m in self.terms)

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

    def _merge(self, other: "Polynomial", negate: bool) -> "Polynomial":
        """self + other, or self - other, in the term order of self then other."""
        return _polynomial(self.variables, _add_terms(dict(self.terms), other.terms, negate))

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _polynomial(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self._merge(other, True)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return other._merge(self, True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            if other == 0:
                return _polynomial(self.variables, {})
            return _polynomial(self.variables, {m: c * other for m, c in self.terms.items()})
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return _wrap(self.variables, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise AlgebraError("polynomial powers take nonnegative integer exponents")
        return _wrap(self.variables, _pow_terms(self.terms, exponent, len(self.variables)))

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
        # lowering one exponent is injective on the terms it keeps: no collisions
        out: Dict[Monomial, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                out[_monomial(exps[:index] + (e - 1,) + exps[index + 1 :])] = coeff * e
        return _polynomial(self.variables, out)

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
            rows = _monomial_rows(images)
            return _wrap(target, _map_terms(self.terms, rows, len(target)))
        acc = Polynomial.zero(target)
        # cache of incremental powers, one list per variable
        powers = [[Polynomial.one(target), im] for im in images]
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(target, coeff)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * cache[1])
                term = term * cache[e]
            acc = acc + term
        return acc

    def evaluate(self, values: Sequence):
        if len(values) != len(self.variables):
            raise ArityError(
                f"expected {len(self.variables)} values, got {len(values)}"
            )
        total = None
        for mono, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(values, mono):
                if e:
                    prod = prod * v**e
            total = prod if total is None else total + prod
        if total is None:
            return _ZERO
        # exact inputs give a Fraction, also when every coefficient and value is an int
        return Fraction(total) if total.__class__ is int else total

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        pieces = []
        for pos, (mono, coeff) in enumerate(ordered):
            factors = []
            for name, e in zip(self.variables, mono):
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


def _polynomial(variables: Tuple[str, ...], terms: Dict[Monomial, Scalar]) -> Polynomial:
    """Wrap a clean {Monomial: nonzero coefficient} dict over checked variables.

    The trusted counterpart of Polynomial(...), for results built here.
    """
    poly = object.__new__(Polynomial)
    _set_variables(poly, variables)
    _set_terms(poly, terms)
    return poly


_set_variables = Polynomial.variables.__set__
_set_terms = Polynomial.terms.__set__


def _single_term(
    variables: Tuple[str, ...], exponents: Sequence[int], coeff: Scalar = 1
) -> Polynomial:
    """coeff * u^exponents over checked variables, for exponents known to be
    nonnegative ints of the right length.

    The trusted counterpart of Polynomial.single_term: like the constructor,
    it stores an integral Fraction as its int and a zero coefficient as no term.
    """
    if coeff.__class__ is Fraction and coeff.denominator == 1:
        coeff = coeff.numerator
    return _polynomial(variables, {_monomial(tuple(exponents)): coeff} if coeff else {})


def _accumulate(out: dict, key, value: Scalar) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    old = out.get(key)
    if old is None:
        out[key] = value
    else:
        total = old + value
        if total:
            out[key] = total
        else:
            del out[key]


# -- term kernels on {exponent tuple: nonzero coefficient} dicts ------------


def _wrap(variables: Tuple[str, ...], terms: Dict[Tuple[int, ...], Scalar]) -> Polynomial:
    """A term dict over checked variables as its Polynomial, without a check."""
    return _polynomial(variables, {_monomial(e): c for e, c in terms.items()})


def _add_terms(acc: dict, terms: Mapping, negate: bool = False) -> dict:
    """acc += terms, or acc -= terms, in place and in the order of terms."""
    for key, coeff in terms.items():
        _accumulate(acc, key, -coeff if negate else coeff)
    return acc


def _mul_terms(left: Mapping, right: Mapping) -> Dict[Tuple[int, ...], Scalar]:
    """The product of two term dicts, accumulated left term by left term."""
    out: Dict[Tuple[int, ...], Scalar] = {}
    pairs = list(right.items())
    for e1, c1 in left.items():
        for e2, c2 in pairs:
            _accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
    return out


def _pow_terms(base: Mapping, n: int, width: int) -> Dict[Tuple[int, ...], Scalar]:
    """base ** n for a term dict in width variables.

    A single term is raised directly.  Otherwise square-and-multiply from the
    constant 1: one product per set bit of n, one squaring per later bit.
    """
    if len(base) == 1:
        ((exps, coeff),) = base.items()
        return {tuple(e * n for e in exps): coeff**n}
    result = {(0,) * width: 1}
    while n:
        if n & 1:
            result = _mul_terms(result, base)
        n >>= 1
        if n:
            base = _mul_terms(base, base)
    return result


def _shifted(
    terms: Mapping, shift: Sequence[int], scale: Optional[Scalar] = None
) -> Dict[Tuple[int, ...], Scalar]:
    """terms times scale * u^shift, for a nonzero scale.

    A shift may have negative entries, down to minus the monomial content of
    the terms.  Without a scale the coefficients are kept as they are; with
    one, an integral product is stored as its int, as Polynomial(...) does.
    """
    if scale is None:
        return {tuple(map(add, e, shift)): c for e, c in terms.items()}
    return {tuple(map(add, e, shift)): _coerce_coefficient(c * scale) for e, c in terms.items()}


def _monomial_rows(images: Sequence[Polynomial]):
    """The single-term images c_i * u^(M_i) of a monomial map as rows: the
    nonzero entries (j, M_ij) of M_i, and c_i, or None when c_i is 1."""
    rows = []
    for im in images:
        ((mono, c),) = im.terms.items()
        row = tuple((j, m) for j, m in enumerate(mono) if m)
        rows.append((row, None if c == 1 else c))
    return rows


def _map_terms(terms: Mapping, rows, width: int) -> Dict[Tuple[int, ...], Scalar]:
    """The image of a term dict under the monomial map of _monomial_rows.

    A term c * z^e goes to c * prod c_i^(e_i) * u^(sum e_i M_i); no power of an
    image is built.  Terms accumulate in the order of terms.
    """
    out: Dict[Tuple[int, ...], Scalar] = {}
    for exps_in, coeff in terms.items():
        exps = [0] * width
        for e, (row, c) in zip(exps_in, rows):
            if e == 0:
                continue
            for j, m in row:
                exps[j] += e * m
            if c is not None:
                coeff = coeff * c**e
        if coeff:
            _accumulate(out, tuple(exps), coeff)
    return out


def divide_with_remainder(p: Polynomial, d: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """Division of p by the single divisor d under graded lexicographic order.

    Returns (q, r) with p = q*d + r and no term of r divisible by the leading
    monomial of d.  For a single divisor the remainder is unique, so r == 0
    exactly when d divides p.
    """
    if d.is_zero:
        raise AlgebraError("division by the zero polynomial")
    p._check_same_variables(d)
    lead, lead_coeff = d.leading_term()
    rest = [(m, c) for m, c in d.terms.items() if m is not lead]
    # work maps exponent tuples to coefficients; the heap holds (-degree,
    # negated exponents, exponents) for every key inserted into work, so its
    # top is the graded-lex largest term.  Every term a step adds is below the
    # one it removes, so an entry whose key has left work is stale for good.
    work: Dict[Tuple[int, ...], Scalar] = {}
    heap = []
    for exps, coeff in p.terms.items():
        work[exps] = coeff
        heap.append((-sum(exps), tuple(map(neg, exps)), exps))
    heapq.heapify(heap)
    quot: Dict[Monomial, Scalar] = {}
    rem: Dict[Monomial, Scalar] = {}
    while heap:
        exps = heapq.heappop(heap)[2]
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        qe = tuple(map(sub, exps, lead))
        if min(qe, default=0) < 0:
            rem[_monomial(exps)] = coeff
            continue
        qc = _divide(coeff, lead_coeff)
        quot[_monomial(qe)] = qc
        for de, dc in rest:
            key = tuple(map(add, qe, de))
            old = work.get(key)
            if old is None:
                work[key] = -qc * dc
                heapq.heappush(heap, (-sum(key), tuple(map(neg, key)), key))
            else:
                total = old - qc * dc
                if total:
                    work[key] = total
                else:
                    del work[key]
    return _polynomial(p.variables, quot), _polynomial(p.variables, rem)


def _exponent_ranges(p: Polynomial) -> Tuple[int, ...]:
    """max - min of each exponent and of the total degree over the terms of p."""
    columns = list(zip(*p.terms))
    columns.append(list(map(sum, p.terms)))
    return tuple(max(col) - min(col) for col in columns)


def _reduce(row, basis):
    """row minus integer combinations of the echelon basis; zero iff in its span."""
    for pivot, b in basis:
        c = row[pivot]
        if c:
            row = [b[pivot] * x - c * y for x, y in zip(row, b)]
    return row


def _outside_hull(d: Polynomial, p: Polynomial) -> bool:
    """Whether some difference of d's exponent vectors leaves the span of p's.

    The span of p's differences is the direction of the affine hull of its
    Newton polytope.  For p = q*d that polytope contains a translate of d's,
    so the differences of d lie in it.  Fraction-free elimination on the
    integer difference rows of p builds an echelon basis of that span.
    """
    if len(d.terms) < 2:
        return False
    width = len(p.variables)
    base, *rest = p.terms
    basis = []
    for exps in rest:
        row = _reduce(list(map(sub, exps, base)), basis)
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, row))
            if len(basis) == width:
                return False
    base, *rest = d.terms
    return any(any(_reduce(list(map(sub, exps, base)), basis)) for exps in rest)


def divides(d: Polynomial, p: Polynomial) -> Tuple[bool, Polynomial]:
    """Exact divisibility probe; returns (True, quotient) or (False, None).

    A single term c*u^a divides p exactly when a is at most the monomial
    content of p; the quotient is then built directly, in the graded-lex
    descending order the division emits.  A nonzero p = q*d has every
    exponent range of d plus that of q, and the affine hull of its Newton
    polytope contains a translate of d's (see the module docstring), so a
    range of p below that of d, or a difference of d's exponents outside the
    span of p's, rejects at once.
    """
    if d.is_zero:
        raise AlgebraError("divisibility by the zero polynomial is undefined")
    p._check_same_variables(d)
    if len(d.terms) == 1:
        return _divides_by_term(d, p)
    if p.terms and (
        any(rp < rd for rp, rd in zip(_exponent_ranges(p), _exponent_ranges(d)))
        or _outside_hull(d, p)
    ):
        return False, None
    q, r = divide_with_remainder(p, d)
    if r.is_zero:
        return True, q
    return False, None


def _divides_by_term(d: Polynomial, p: Polynomial) -> Tuple[bool, Polynomial]:
    """divides(d, p) for a single-term d, by comparing exponents."""
    ((shift, c),) = d.terms.items()
    if p.terms and any(map(gt, shift, p.monomial_content())):
        return False, None
    quot = {}
    for m in sorted(p.terms, key=_grlex_key, reverse=True):
        quot[_monomial(tuple(map(sub, m, shift)))] = _divide(p.terms[m], c)
    return True, _polynomial(p.variables, quot)


def poly_with_variables(p: Polynomial, variables: Sequence[str]) -> Polynomial:
    """Re-express p over another variable tuple; p itself if it is p's own.

    New variables may be added freely; a variable may be dropped only if no
    term of p uses it.
    """
    variables = tuple(variables)
    if variables == p.variables:
        return p
    positions = {name: i for i, name in enumerate(variables)}
    for i, name in enumerate(p.variables):
        if name not in positions and p.uses_variable(i):
            raise ArityError(f"variable {name!r} is used by {p} but absent from {variables}")
    out = {}
    for mono, coeff in p.terms.items():
        exps = [0] * len(variables)
        for name, e in zip(p.variables, mono):
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

    def __reduce__(self):
        # a normalized pair normalizes to itself
        return self.__class__, (self.num, self.den)

    @staticmethod
    def _normalize(num: Polynomial, den: Polynomial):
        variables = num.variables
        if num.is_zero:
            return num, _single_term(variables, (0,) * len(variables))
        common = tuple(map(min, num.monomial_content(), den.monomial_content()))
        if any(common):
            shift = tuple(map(neg, common))
            num = _wrap(variables, _shifted(num.terms, shift))
            den = _wrap(variables, _shifted(den.terms, shift))
        # the probe rule of the module docstring: with the content shifted
        # out, no other probe can succeed, and a non-constant den never
        # divides a constant num
        if not den.is_constant and (
            num.is_constant or (len(num.terms) > 1 and len(den.terms) > 1)
        ):
            ok, q = (False, None) if num.is_constant else divides(den, num)
            if ok:
                num, den = q, _single_term(variables, (0,) * len(variables))
            else:
                ok, q = divides(num, den)
                if ok and not q.is_constant:
                    # num/den = 1/q, up to the constant normalization below
                    num, den = _single_term(variables, (0,) * len(variables)), q
        if den.is_constant:
            value = den.constant_value()
            if value != 1:
                num = _divided(num, value)
                den = _single_term(variables, (0,) * len(variables))
        else:
            lead = den.leading_term()[1]
            if lead != 1:
                num = _divided(num, lead)
                den = _divided(den, lead)
        return num, den

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, _single_term(p.variables, (0,) * len(p.variables)))

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.num.variables

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        # a normalized constant denominator is 1
        return self.den.is_constant

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


def _divided(p: Polynomial, value: Scalar) -> Polynomial:
    """p / value, coefficient by coefficient, for a nonzero scalar value."""
    return _polynomial(p.variables, {m: _divide(c, value) for m, c in p.terms.items()})
