"""Exact integer polynomial arithmetic, gcd, rendering."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from rayleigh_sums import (
    FactoredRationalFn,
    PoleError,
    Poly,
    poly_gcd,
)
from rayleigh_sums.exact_algebra import (
    _iadd,
    _imul,
    _imul_linear,
    _iscale,
    _isyndiv,
)

from golden_forms import golden_frf

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(
    lambda cs: Poly(tuple(cs))
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


def test_mul_binomial_square():
    assert _imul([1, 1], [1, 1]) == [1, 2, 1]


def test_add_identity():
    assert _iadd([3, 0, 2], []) == [3, 0, 2]


def test_expand_and_cancel():
    lhs = _imul([2, 1], [1, 1])
    assert _iadd(lhs, _iscale([0, 3, 1], -1)) == [2]


def test_poly_is_a_value_without_arithmetic():
    # the kernels above do all polynomial arithmetic
    for name in ("__add__", "__sub__", "__mul__", "scale", "content"):
        assert not hasattr(Poly, name), name


def test_trailing_zeros_stripped():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).is_zero
    assert Poly((0, 0)).degree == -1


@given(small_polys, small_polys, small_polys)
def test_mul_distributes_over_add(a, b, c):
    a, b, c = a.coeffs, b.coeffs, c.coeffs
    assert _imul(_iadd(a, b), c) == _iadd(_imul(a, c), _imul(b, c))


@given(st.integers(-9, 9), nonzero_polys)
def test_syndiv_inverts_linear_multiply(m, p):
    coeffs = list(p.coeffs)
    assert _isyndiv(_imul_linear(list(coeffs), m), m) == coeffs
    # an exact quotient exists iff -m is a root
    assert (_isyndiv(coeffs, m) is None) == (p.evaluate(-m) != 0)


@given(
    st.fractions(max_denominator=40),
    st.fractions(max_denominator=40).filter(lambda y: y != 0),
)
def test_rational_roundtrip(x, y):
    assert (x / y) * y == x


def test_gcd_shared_factor():
    a = Poly(tuple(_imul([1, 1], [1, 1])))
    b = Poly(tuple(_imul([1, 1], [2, 1])))
    assert poly_gcd(a, b) == Poly((1, 1))
    assert poly_gcd(Poly((2, 2)), Poly((4, 4))) == Poly((1, 1))


def test_gcd_coprime_shifts():
    assert poly_gcd(Poly((1, 1)), Poly((2, 1))) == Poly.one()


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError, match="gcd undefined"):
        poly_gcd(Poly(), Poly())


def test_gcd_p9_numerator_denominator_coprime():
    f = golden_frf(9)
    assert poly_gcd(f.numerator, f.denominator_expanded()) == Poly.one()
    nu = Fraction(27, 10)
    assert f.numerator.evaluate(nu) / f.denominator_expanded().evaluate(nu) == f.evaluate(nu)


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_associate_of_common_factor(a, b, g):
    assume(poly_gcd(a, b) == Poly.one())
    got = poly_gcd(Poly(tuple(_imul(a.coeffs, g.coeffs))), Poly(tuple(_imul(b.coeffs, g.coeffs))))
    # the primitive associate: content 1, positive leading coefficient
    h = _imul(g.coeffs, poly_gcd(a, b).coeffs)
    unit = math.gcd(*h) if h[-1] > 0 else -math.gcd(*h)
    assert got == Poly(tuple(c // unit for c in h))


def test_frf_evaluate_and_pole():
    f = golden_frf(2)
    assert f.evaluate(Fraction(1, 2)) == Fraction(1, 90)
    with pytest.raises(PoleError, match="pole"):
        f.evaluate(-1)
    with pytest.raises(PoleError):
        f.evaluate(-2)


def test_frf_constructor_validation():
    with pytest.raises(ValueError):
        FactoredRationalFn(Poly.one(), -1, ())
    with pytest.raises(ValueError):
        FactoredRationalFn(Poly.one(), 0, ((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        FactoredRationalFn(Poly.one(), 0, ((1, 0),))


def test_json_roundtrip():
    f = golden_frf(9)
    d = f.to_json_dict()
    assert d["numerator"][0] == "1893046"
    assert d["two_exponent"] == 17
    assert d["shift_factors"][0] == [1, 9]
    rebuilt = FactoredRationalFn(
        numerator=Poly(tuple(int(c) for c in d["numerator"])),
        two_exponent=d["two_exponent"],
        shift_factors=tuple((m, e) for m, e in d["shift_factors"]),
    )
    assert d["residual"] == ["1"]
    assert rebuilt == f


def test_json_rejects_non_integer_numerator():
    with pytest.raises(ValueError, match="non-integer"):
        Poly((Fraction(1, 2),))


def test_text_rendering():
    assert golden_frf(1).to_text() == "1 / (2^2 (v+1))"
    assert golden_frf(6).to_text() == (
        "(21v^3 + 181v^2 + 513v + 473)"
        " / (2^11 (v+1)^6 (v+2)^3 (v+3)^2 (v+4) (v+5) (v+6))"
    )
    # a bare 2, and no denominator at all
    assert FactoredRationalFn(Poly((3, 1)), 1, ((2, 1),)).to_text() == "(v + 3) / (2 (v+2))"
    assert FactoredRationalFn(Poly((3, 1)), 0, ()).to_text() == "v + 3"
    assert FactoredRationalFn(Poly((-4, 0, 1)), 0, ()).to_text() == "v^2 - 4"
    assert FactoredRationalFn(Poly((0, -1)), 0, ()).to_text() == "-v"


def test_latex_rendering():
    assert golden_frf(2).to_latex() == r"\frac{1}{2^{4}(\nu+1)^{2}(\nu+2)}"
    assert golden_frf(7).to_latex() == (
        r"\frac{33\nu^{3}+329\nu^{2}+1081\nu+1145}"
        r"{2^{12}(\nu+1)^{7}(\nu+2)^{3}(\nu+3)^{2}(\nu+4)(\nu+5)(\nu+6)(\nu+7)}"
    )
    assert FactoredRationalFn(Poly((3, 1)), 1, ((2, 1),)).to_latex() == r"\frac{\nu+3}{2(\nu+2)}"
    assert FactoredRationalFn(Poly((3, 1)), 0, ()).to_latex() == r"\nu+3"
    assert FactoredRationalFn(Poly((-4, 0, 1)), 0, ()).to_latex() == r"\nu^{2}-4"

