"""Exact even zeta values, their factoring and their decimal rendering."""

import math
from fractions import Fraction

import mpmath
import pytest

from rayleigh_sums import (
    PI_50,
    ZetaValue,
    numeric_sigma,
    zeta_even,
    zeta_float_str,
)
from rayleigh_sums.zeta import _trial_factor

from golden_forms import ZETA12_FACTORS, ZETA14_FACTORS, ZETA_COEFF


@pytest.mark.parametrize("p", sorted(ZETA_COEFF))
def test_zeta_even_coefficients(p):
    z = zeta_even(p)
    assert z.two_p == 2 * p
    assert z.coefficient == ZETA_COEFF[p]


def test_zeta_even_factored_denominators():
    assert zeta_even(1).factored_denominator == ((2, 1), (3, 1))
    assert zeta_even(6).factored_denominator == ZETA12_FACTORS
    assert zeta_even(7).factored_denominator == ZETA14_FACTORS


def test_factored_denominator_remultiplies():
    for p in range(1, 13):
        z = zeta_even(p)
        prod = 1
        for prime, e in z.factored_denominator:
            assert prime > 1 and e >= 1
            prod *= prime**e
        assert prod == z.coefficient.denominator
        primes = [q for q, _ in z.factored_denominator]
        assert primes == sorted(primes)


def test_denominator_primes_are_at_most_2p_plus_1():
    # von Staudt-Clausen: zeta(2p)/pi^(2p) = |B_2p| 2^(2p-1)/(2p)! has no
    # denominator prime above 2p + 1, which bounds _trial_factor's loop
    for p in range(1, 61):
        for q, _ in zeta_even(p).factored_denominator:
            assert q <= 2 * p + 1
            assert all(q % d for d in range(2, math.isqrt(q) + 1)), q


def test_zeta_decreases_toward_one():
    vals = [float(zeta_even(p).coefficient) * math.pi ** (2 * p) for p in range(1, 11)]
    assert all(v > 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] - 1.0 < 1e-6


def test_zeta_against_numeric_sigma(zero_cache):
    zs = zero_cache(0.5, 10**4)
    for p in range(1, 6):
        exact = float(zeta_even(p).coefficient) * math.pi ** (2 * p)
        numeric = numeric_sigma(0.5, p, zs).value * math.pi ** (2 * p)
        assert abs(exact - numeric) < 1e-10 * exact


def test_zeta_float_str_thirty_digits():
    z = zeta_even(1)
    assert zeta_float_str(z, 30) == "1.64493406684822643647241516665"


def test_zeta_float_str_short():
    assert zeta_float_str(zeta_even(2), 10) == "1.082323234"


def test_zeta_float_str_digit_bounds():
    z = zeta_even(1)
    with pytest.raises(ValueError):
        zeta_float_str(z, 0)
    with pytest.raises(ValueError):
        zeta_float_str(z, 46)


def test_pi_constant_is_correctly_rounded():
    mpmath.mp.dps = 60
    assert abs(mpmath.mpf(PI_50) - mpmath.pi) < mpmath.mpf("1e-50")


def test_trial_factor_basics():
    assert _trial_factor(1) == ()
    assert _trial_factor(360) == ((2, 3), (3, 2), (5, 1))
    assert _trial_factor(638512875) == ZETA12_FACTORS
    with pytest.raises(ValueError):
        _trial_factor(0)


def test_zeta_value_validation():
    with pytest.raises(ValueError):
        ZetaValue(two_p=2, coefficient=Fraction(-1, 6), factored_denominator=((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        ZetaValue(two_p=2, coefficient=Fraction(1, 6), factored_denominator=((2, 1),))
