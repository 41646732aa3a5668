"""Exterior algebra with rational function coefficients.

A differential form is stored over a fixed ordered variable tuple as a map
from strictly increasing index tuples (the wedge basis) to coefficients.
Forms may mix degrees.  Chart changes never mutate a form; they produce a
new form over a new variable tuple.

Besides the standard operations (wedge, exterior derivative, pullback) this
module provides three more specialised tools used by the residue pipeline:

* ``split_du0`` factors a form as u^e du /\\ r + theta with respect to a
  chosen variable u, insisting that the du-part carries one pure power of u.
* ``equal_mod_hypersurface`` compares two forms as residue representatives
  on a hypersurface {f=0}: it checks that every top coefficient of
  df /\\ (a-b) is divisible by f once denominators (required coprime to f)
  are cleared.  This deliberately avoids general ideal membership; the
  divisibility probe is exact for the comparisons performed here.
* the private ``_Cleared`` accumulator checks exact form identities, such
  as df /\\ r = eta or the recombination of a split, on cleared
  denominators, without normalizing any coefficient.

``pullback`` accepts any polynomial images.  When every image is a single
term c_i * u^(M_i), a monomial map such as the branched cover or a blow-up
chart, it works on the integer exponent matrix M instead: coefficients are
substituted by exponent arithmetic, and dz_I goes straight to the sum over J
of det M[I,J] times a monomial times du_J, with no wedge products.

All exponent arithmetic here (that monomial map, the shifts of the pulled
back numerators and of ``split_du0``) runs on the term kernels of
``algebra``, and what they build is wrapped without a second check.  Sums,
wedge products and exterior derivatives hand their (basis key, coefficient)
pieces to the ``DifferentialForm`` constructor, which adds the pieces on one
key and drops zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Optional, Sequence, Tuple, Union

from .algebra import (
    ArityError,
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
    _divide,
    _divided,
    _map_terms,
    _monomial_rows,
    _shifted,
    _single_term,
    _wrap,
    divide_with_remainder,
    divides,
    poly_with_variables,
)

Coefficient = Union[int, Fraction, Polynomial, RationalFunction]


class FormError(Exception):
    """Base error for differential form operations."""


class SplitError(FormError):
    """The du0-part of a form does not carry a single pure power of u0."""

    def __init__(self, message, exponents=()):
        super().__init__(message)
        self.exponents = tuple(exponents)


class PoleError(FormError):
    """A residue representative has a pole on the comparison hypersurface."""


def _merge_signed(left: Tuple[int, ...], right: Tuple[int, ...]):
    """Merge two strictly increasing tuples with the wedge permutation sign."""
    sign = 1
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return 0, None
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


class DifferentialForm:
    """A possibly degree-mixed exterior form over an ordered variable tuple."""

    __slots__ = ("variables", "components")

    def __init__(self, variables: Sequence[str], components: Dict = ()):
        variables = tuple(variables)
        n = len(variables)
        clean: Dict[Tuple[int, ...], RationalFunction] = {}
        items = components.items() if hasattr(components, "items") else components
        for key, value in items:
            key = tuple(key)
            if any(not isinstance(i, int) or not 0 <= i < n for i in key):
                raise FormError(f"basis indices {key} out of range for {variables}")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise FormError(f"basis indices {key} must be strictly increasing")
            coeff = _coerce_coefficient(value, variables)
            if coeff.is_zero:
                continue
            if key in clean:
                total = clean[key] + coeff
                if total.is_zero:
                    del clean[key]
                else:
                    clean[key] = total
            else:
                clean[key] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise FormError("DifferentialForm instances are immutable")

    def __reduce__(self):
        return self.__class__, (self.variables, self.components)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "DifferentialForm":
        return cls(variables, {})

    @property
    def is_zero(self) -> bool:
        return not self.components

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted({len(key) for key in self.components}))

    def pure_degree(self) -> Optional[int]:
        """The single degree of a degree-homogeneous nonzero form, else None."""
        degs = self.degrees()
        return degs[0] if len(degs) == 1 else None

    def component(self, key: Sequence[int]) -> RationalFunction:
        key = tuple(key)
        if key in self.components:
            return self.components[key]
        return _coerce_coefficient(0, self.variables)

    # -- linear structure ------------------------------------------------

    def _check_same_variables(self, other: "DifferentialForm"):
        if self.variables != other.variables:
            raise ArityError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def __add__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        self._check_same_variables(other)
        return DifferentialForm(
            self.variables, chain(self.components.items(), other.components.items())
        )

    def __neg__(self):
        return DifferentialForm(
            self.variables, {k: -c for k, c in self.components.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DifferentialForm):
            raise FormError("use wedge for products of forms")
        scalar = _coerce_coefficient(other, self.variables)
        return DifferentialForm(
            self.variables, {k: c * scalar for k, c in self.components.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return self.variables == other.variables and self.components == other.components

    __hash__ = None

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        return wedge(self, other)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if not self.components:
            return "0"
        parts = []
        for key in sorted(self.components):
            coeff = self.components[key]
            if len(key) > 1:
                # parenthesized so the loose-binding wedge re-parses correctly
                basis = " /\\ ".join("d" + self.variables[i] for i in key)
                parts.append(f"({coeff})*({basis})")
            elif key:
                parts.append(f"({coeff})*d{self.variables[key[0]]}")
            else:
                parts.append(f"({coeff})")
        return " + ".join(parts)

    def __repr__(self):
        return f"DifferentialForm({str(self)!r}, variables={self.variables})"


def _coerce_coefficient(value, variables: Tuple[str, ...]) -> RationalFunction:
    if isinstance(value, RationalFunction):
        if value.variables != variables:
            raise ArityError(
                f"coefficient variables {value.variables} do not match {variables}"
            )
        return value
    if isinstance(value, Polynomial):
        if value.variables != variables:
            raise ArityError(
                f"coefficient variables {value.variables} do not match {variables}"
            )
        return RationalFunction.from_polynomial(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_polynomial(
            Polynomial.constant(variables, value)
        )
    raise FormError(f"cannot use {value!r} as a form coefficient")


def function_form(value: Coefficient, variables: Sequence[str]) -> DifferentialForm:
    """The 0-form with the given coefficient."""
    return DifferentialForm(variables, {(): value})


def basis_form(
    variables: Sequence[str], indices: Sequence[int], coeff: Coefficient = 1
) -> DifferentialForm:
    """coeff * dz_{i1} /\\ ... /\\ dz_{ip} for strictly increasing indices."""
    return DifferentialForm(variables, {tuple(indices): coeff})


def differential(variables: Sequence[str], name: str) -> DifferentialForm:
    variables = tuple(variables)
    return basis_form(variables, (variables.index(name),))

def volume_form(variables: Sequence[str], coeff: Coefficient = 1) -> DifferentialForm:
    variables = tuple(variables)
    return basis_form(variables, tuple(range(len(variables))), coeff)


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product; repeated basis indices annihilate."""
    a._check_same_variables(b)
    pieces = []
    for ka, ca in a.components.items():
        for kb, cb in b.components.items():
            sign, merged = _merge_signed(ka, kb)
            if sign:
                coeff = ca * cb
                pieces.append((merged, coeff if sign > 0 else -coeff))
    # the constructor sums pieces landing on one key and drops zeros
    return DifferentialForm(a.variables, pieces)


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """d(f dz_I) = sum_i (df/dz_i) dz_i /\\ dz_I, via the quotient rule."""
    pieces = []
    for key, coeff in a.components.items():
        for i in range(len(a.variables)):
            if i in key:
                continue
            dc = coeff.partial_derivative(i)
            if dc.is_zero:
                continue
            sign, merged = _merge_signed((i,), key)
            if sign:
                pieces.append((merged, dc if sign > 0 else -dc))
    return DifferentialForm(a.variables, pieces)


def d_of_polynomial(p: Polynomial) -> DifferentialForm:
    """The exterior derivative of a polynomial, as a 1-form over its variables."""
    return exterior_derivative(function_form(p, p.variables))


class _Cleared:
    """A form held as unnormalized (num, den) polynomial pairs per basis key.

    Built from sums and wedge products without building, normalizing or
    dividing any RationalFunction, so exact identities are checked on
    cleared denominators.  Pairs with equal denominators at one key share
    one numerator; a den of None stands for 1.
    """

    __slots__ = ("parts",)

    def __init__(self):
        self.parts: Dict[Tuple[int, ...], list] = {}

    def add(self, key, num: Polynomial, den: Optional[Polynomial] = None):
        """Add num/den at the basis key; returns self."""
        if den is not None and den.is_constant:
            num, den = _divided(num, den.constant_value()), None
        pairs = self.parts.setdefault(key, [])
        for pair in pairs:
            if pair[1] == den:
                pair[0] = pair[0] + num
                return self
        pairs.append([num, den])
        return self

    def add_form(self, a: DifferentialForm):
        for key, coeff in a.components.items():
            self.add(key, coeff.num, coeff.den)
        return self

    def add_d_wedge(self, f: Polynomial, a: DifferentialForm):
        """Add df /\\ a for a polynomial f."""
        f = poly_with_variables(f, a.variables)
        for i in range(len(a.variables)):
            f_i = f.partial_derivative(i)
            if f_i.is_zero:
                continue
            for key, coeff in a.components.items():
                sign, merged = _merge_signed((i,), key)
                if sign:
                    num = f_i * coeff.num
                    self.add(merged, num if sign > 0 else -num, coeff.den)
        return self

    def __eq__(self, other):
        if not isinstance(other, _Cleared):
            return NotImplemented
        diff = _Cleared()
        for side, sign in ((self, 1), (other, -1)):
            for key, pairs in side.parts.items():
                for num, den in pairs:
                    diff.add(key, num * sign, den)
        return all(_vanishes(pairs) for pairs in diff.parts.values())


def _times(p: Polynomial, den: Optional[Polynomial]) -> Polynomial:
    return p if den is None else p * den


def _vanishes(pairs) -> bool:
    """Whether the sum of num/den over the pairs is zero.

    num/den + m/e = (num*e + m*den)/(den*e), and every den is nonzero, so
    the sum vanishes exactly when the accumulated numerator does.
    """
    (num, den), rest = pairs[0], pairs[1:]
    for i, (m, e) in enumerate(rest, 1):
        num = _times(num, e) + _times(m, den)
        if i < len(rest):
            den = e if den is None else _times(den, e)
    return num.is_zero


def pullback(
    a: DifferentialForm, images: Sequence[Polynomial]
) -> DifferentialForm:
    """Substitute images into coefficients and map each dz_i to d(image_i).

    One polynomial image per ambient variable; all images must share one
    target variable tuple, which becomes the variable tuple of the result.
    Commutes with wedge and with the exterior derivative.
    """
    images = list(images)
    if len(images) != len(a.variables):
        raise ArityError(
            f"expected {len(a.variables)} images, got {len(images)}"
        )
    if images:
        target = images[0].variables
        for im in images[1:]:
            if im.variables != target:
                raise ArityError("pullback images use different variable tuples")
    else:
        target = ()
    if all(len(im.terms) == 1 for im in images):
        return _pullback_monomial(a, images, target)
    d_images = [d_of_polynomial(im) for im in images]
    out = DifferentialForm.zero(target)
    for key, coeff in a.components.items():
        piece = function_form(coeff.substitute(images), target)
        for i in key:
            piece = wedge(piece, d_images[i])
            if piece.is_zero:
                break
        out = out + piece
    return out


def _pullback_monomial(
    a: DifferentialForm, images: Sequence[Polynomial], target: Tuple[str, ...]
) -> DifferentialForm:
    """Pullback through single-term images z_i -> c_i * u^(M_i).

    d(c_i u^(M_i)) = c_i sum_j M_ij u^(M_i - e_j) du_j, so f dz_I pulls back
    to the sum over J of (f o phi) * prod_{i in I} c_i * det M[I,J] *
    u^(sum_{i in I} M_i - sum_{j in J} e_j) du_J.  A nonzero minor puts a
    positive entry in every column j of J, so those exponents stay
    nonnegative.  The images are unpacked once; each component maps its num
    and den once, and each nonzero minor costs one `_shifted` copy of the
    mapped num and one RationalFunction construction.
    """
    rows = _monomial_rows(images)
    width = len(target)
    pieces = []
    for key, coeff in a.components.items():
        num = _map_terms(coeff.num.terms, rows, width)
        den = _map_terms(coeff.den.terms, rows, width)
        if not den:
            raise ZeroDenominatorError("substitution sends the denominator to zero")
        den = _wrap(target, den)
        scale = 1
        base = [0] * width
        for i in key:
            row, c = rows[i]
            if c is not None:
                scale *= c
            for j, m in row:
                base[j] += m
        for cols, minor in _minors([rows[i][0] for i in key]).items():
            shift = list(base)
            for j in cols:
                shift[j] -= 1
            shifted = _wrap(target, _shifted(num, shift, scale * minor))
            pieces.append((cols, RationalFunction(shifted, den)))
    # the constructor sums pieces landing on one du_J and drops zeros
    return DifferentialForm(target, pieces)


def _minors(rows) -> Dict[Tuple[int, ...], int]:
    """Nonzero maximal minors det M[I, J] of the given exponent rows, keyed by J.

    Each row lists its nonzero entries (j, M_ij), as `algebra._monomial_rows`
    gives them.  Expands the wedge of the rows' supports: each choice of one
    nonzero entry per row contributes its product, signed by sorting its
    columns.
    """
    minors: Dict[Tuple[int, ...], int] = {(): 1}
    for row in rows:
        grown: Dict[Tuple[int, ...], int] = {}
        for cols, value in minors.items():
            for j, m in row:
                sign, merged = _merge_signed(cols, (j,))
                if sign:
                    grown[merged] = grown.get(merged, 0) + sign * value * m
        minors = {cols: v for cols, v in grown.items() if v}
    return minors


@dataclass(frozen=True)
class SplitResult:
    """Decomposition a = u^e du /\\ du0_factor + remainder for a chart variable u.

    ``exponent`` is None exactly when the du-part vanishes; ``du0_factor``
    contains neither u nor du, while ``remainder`` merely contains no du.
    """

    exponent: Optional[int]
    du0_factor: DifferentialForm
    remainder: DifferentialForm


def _strip_variable_power(coeff: RationalFunction, index: int):
    """Write coeff = u^e * rest with rest free of the variable at index.

    Returns (e, rest) or raises SplitError when no pure power factors out.
    """
    num, den = coeff.num, coeff.den
    cn = num.monomial_content()[index]
    cd = den.monomial_content()[index]
    shift = [0] * len(num.variables)
    if cn:
        shift[index] = -cn
        num = _wrap(num.variables, _shifted(num.terms, shift))
    if cd:
        shift[index] = -cd
        den = _wrap(den.variables, _shifted(den.terms, shift))
    if num.uses_variable(index) or den.uses_variable(index):
        raise SplitError(
            "coefficient is not a pure power of the chart variable times a "
            f"variable-free factor: {coeff}",
            exponents=(cn, cd),
        )
    return cn - cd, RationalFunction(num, den)


def split_du0(a: DifferentialForm, var_index: int = 0) -> SplitResult:
    """Split a as u^e du /\\ r + theta along the chart variable at var_index.

    Every du-component coefficient must be a single pure power of u times a
    u-free factor, and all those powers must agree; otherwise a SplitError
    reports the offending exponents.  theta collects the du-free components
    unchanged (they may still involve u).
    """
    radial: Dict[Tuple[int, ...], RationalFunction] = {}
    rest: Dict[Tuple[int, ...], RationalFunction] = {}
    exponents = {}
    for key, coeff in a.components.items():
        if var_index not in key:
            rest[key] = coeff
            continue
        pos = key.index(var_index)
        e, stripped = _strip_variable_power(coeff, var_index)
        exponents[key] = e
        reduced = tuple(i for i in key if i != var_index)
        if pos % 2:
            stripped = -stripped
        radial[reduced] = stripped
    distinct = sorted(set(exponents.values()))
    if len(distinct) > 1:
        raise SplitError(
            f"mixed powers {distinct} of the chart variable in the du-part",
            exponents=distinct,
        )
    exponent = distinct[0] if distinct else None
    return SplitResult(
        exponent=exponent,
        du0_factor=DifferentialForm(a.variables, radial),
        remainder=DifferentialForm(a.variables, rest),
    )


def _recombines(
    split: SplitResult, a: DifferentialForm, var_index: int = 0
) -> bool:
    """Whether u^e du /\\ du0_factor + remainder re-expands to a; the inverse
    of split_du0, checked on cleared denominators."""
    variables = a.variables
    if {split.du0_factor.variables, split.remainder.variables} != {variables}:
        return False
    rebuilt = _Cleared().add_form(split.remainder)
    if split.exponent is not None:
        e = split.exponent
        exponents = [0] * len(variables)
        exponents[var_index] = abs(e)
        power = _single_term(variables, exponents)
        for key, coeff in split.du0_factor.components.items():
            sign, merged = _merge_signed((var_index,), key)
            if sign == 0:
                continue
            num, den = coeff.num, coeff.den
            if e >= 0:
                num = num * power
            else:
                den = den * power
            rebuilt.add(merged, num if sign > 0 else -num, den)
    return rebuilt == _Cleared().add_form(a)


def _require_comparable(a: DifferentialForm, b: DifferentialForm, f: Polynomial):
    a._check_same_variables(b)
    if f.is_zero:
        raise FormError("comparison hypersurface polynomial is zero")
    da, db = a.pure_degree(), b.pure_degree()
    if not a.is_zero and da is None:
        raise FormError("left form mixes degrees")
    if not b.is_zero and db is None:
        raise FormError("right form mixes degrees")
    if da is not None and db is not None and da != db:
        raise FormError(f"degree mismatch: {da} vs {db}")
    for form in (a, b):
        for coeff in form.components.values():
            if not coeff.den.is_constant and divides(f, coeff.den)[0]:
                raise PoleError(
                    "representative has a pole on the hypersurface"
                )


def equal_mod_hypersurface(
    a: DifferentialForm, b: DifferentialForm, f: Polynomial
) -> bool:
    """Equality of residue representatives on {f=0}.

    True iff every coefficient of df /\\ (a-b), after clearing its
    denominator, has numerator divisible by f.  Denominators divisible by f
    raise PoleError instead of producing a verdict.
    """
    f = poly_with_variables(f, a.variables)
    _require_comparable(a, b, f)
    diff = a - b
    if diff.is_zero:
        return True
    top = wedge(d_of_polynomial_over(f, a.variables), diff)
    for coeff in top.components.values():
        if not coeff.den.is_constant and divides(f, coeff.den)[0]:
            raise PoleError("representative has a pole on the hypersurface")
        if not divides(f, coeff.num)[0]:
            return False
    return True


def scalar_mod_hypersurface(
    a: DifferentialForm, b: DifferentialForm, f: Polynomial
) -> Optional[Fraction]:
    """The unique rational scalar with a = scalar * b on {f=0}, if one exists.

    Returns None when no scalar works or when every scalar works (b a
    multiple of f times anything, say), since then no scalar is determined.
    """
    f = poly_with_variables(f, a.variables)
    _require_comparable(a, b, f)
    wa = wedge(d_of_polynomial_over(f, a.variables), a)
    wb = wedge(d_of_polynomial_over(f, a.variables), b)
    keys = set(wa.components) | set(wb.components)
    candidate = None
    for key in sorted(keys):
        ca = wa.component(key)
        cb = wb.component(key)
        # clear both denominators; vanishing mod f is then a statement
        # about the cross numerators
        u = divide_with_remainder(ca.num * cb.den, f)[1]
        v = divide_with_remainder(cb.num * ca.den, f)[1]
        if v.is_zero:
            if u.is_zero:
                continue
            return None
        mono, coeff = v.leading_term()
        if mono not in u.terms:
            return None
        ratio = _divide(u.terms[mono], coeff)
        if u != v * ratio:
            return None
        if candidate is None:
            candidate = ratio
        elif candidate != ratio:
            return None
    return candidate


def d_of_polynomial_over(
    p: Polynomial, variables: Tuple[str, ...]
) -> DifferentialForm:
    return d_of_polynomial(poly_with_variables(p, variables))
