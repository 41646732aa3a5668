"""Weight systems, valuations, and normalization."""

from fractions import Fraction

import pytest

from resilift.algebra import Polynomial
from resilift.forms import basis_form, differential, volume_form
from resilift.weights import (
    UnnormalizedEquationError,
    WeightError,
    WeightSystem,
    euler_check,
    is_quasihomogeneous,
    quasi_decompose,
    require_normalized,
    rescaled_weights,
    valuation_form,
    valuation_poly,
)

F = Fraction
XYZ = ("x", "y", "z")


def test_weight_system_derived_quantities():
    w = WeightSystem(("1/3", "1/3", "1/4"))
    assert w.kappa == F(11, 12)
    assert w.cover_order == 12
    assert w.cover_exponents == (4, 4, 3)
    assert w.jacobian_constant == 48
    assert len(w) == 3
    assert str(w) == "(1/3, 1/3, 1/4)"


def test_weight_system_coercion_and_validation():
    assert WeightSystem([F(1, 2), 1]).weights == (F(1, 2), F(1))
    assert WeightSystem(["2/4"]).weights == (F(1, 2),)
    with pytest.raises(WeightError):
        WeightSystem([])
    with pytest.raises(WeightError):
        WeightSystem(["0"])
    with pytest.raises(WeightError):
        WeightSystem(["-1/3"])
    with pytest.raises(WeightError):
        WeightSystem([1.5])


def test_weight_system_rejects_bools():
    # a bool is an int to Python, but JSON true is not the weight 1
    for weights in ([True, "1/3", "1/3"], [F(1, 3), False], [True]):
        with pytest.raises(WeightError, match="cannot read (True|False) as a rational weight"):
            WeightSystem(weights)
    assert WeightSystem([1, F(1, 3), "1/3"]).weights == (F(1), F(1, 3), F(1, 3))


def test_valuation_poly_takes_the_max():
    x, y, z = Polynomial.generators(XYZ)
    w = WeightSystem(("1/3", "1/3", "1/4"))
    assert valuation_poly(x**3, w) == 1
    assert valuation_poly(x * y + z**2, w) == F(2, 3)
    assert valuation_poly(Polynomial.one(XYZ), w) == 0
    with pytest.raises(WeightError):
        valuation_poly(Polynomial.zero(XYZ), w)


def test_valuation_form_counts_basis_weights():
    w = WeightSystem(("1/3", "1/3", "1/4"))
    x, y, z = Polynomial.generators(XYZ)
    vol = volume_form(XYZ, 1)
    value, pure = valuation_form(vol, w)
    assert value == F(11, 12)
    assert pure
    mixed = differential(XYZ, "x") + differential(XYZ, "z")
    value, pure = valuation_form(mixed, w)
    assert value == F(1, 3)
    assert not pure
    weighted = basis_form(XYZ, (0,), x**2)
    assert valuation_form(weighted, w) == (F(1), True)


def test_is_quasihomogeneous():
    x, y, z = Polynomial.generators(XYZ)
    w = WeightSystem(("1/3", "1/3", "1/4"))
    assert is_quasihomogeneous(x**3 + y**3 + z**4, w) == (True, F(1))
    ok, _ = is_quasihomogeneous(x**3 + z**3, w)
    assert not ok


def test_quasi_decompose():
    x, y, z = Polynomial.generators(XYZ)
    w = WeightSystem(("1/3", "1/3", "1/4"))
    g = x * y + z**2 + x**2 * y**2
    dec = quasi_decompose(g, w)
    assert dec.weights() == (F(1, 2), F(2, 3), F(4, 3))
    assert dec.component(F(2, 3)) == x * y
    assert dec.component(F(1, 2)) == z**2
    assert dec.component(F(7)) is None
    assert sum(dec.components.values(), Polynomial.zero(XYZ)) == g


def test_euler_check():
    x, y, z = Polynomial.generators(XYZ)
    w = WeightSystem(("1/3", "1/3", "1/4"))
    assert euler_check(x**3 + y**3 + z**4, w)
    with pytest.raises(WeightError):
        euler_check(x**3 + y**3 + z**3, w)


def test_require_normalized_and_rescale():
    x, y, z = Polynomial.generators(XYZ)
    s = x**3 + y**3 + z**4
    good = WeightSystem(("1/3", "1/3", "1/4"))
    assert require_normalized(s, good) == 1
    doubled = WeightSystem(("2/3", "2/3", "1/2"))
    with pytest.raises(UnnormalizedEquationError) as info:
        require_normalized(s, doubled)
    assert "rescal" in str(info.value)
    assert rescaled_weights(s, doubled).weights == good.weights


def test_rescale_rejects_non_quasihomogeneous():
    x, y, z = Polynomial.generators(XYZ)
    w = WeightSystem(("1/3", "1/3", "1/4"))
    with pytest.raises(WeightError):
        rescaled_weights(x**3 + z**3, w)


def test_arity_checked():
    x, _, _ = Polynomial.generators(XYZ)
    with pytest.raises(WeightError):
        valuation_poly(x, WeightSystem(("1/2",)))
