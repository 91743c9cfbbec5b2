"""Every printed bound checked against the truth: each sigma bound must hold,
|sigma(p, nu) - value| <= tail_bound, against the exact closed form."""

from fractions import Fraction

import pytest

from rayleigh_sums import bessel_zeros, numeric_sigma, sigma_value
from rayleigh_sums.bessel_numeric import _sigma_sum, _zero_blocks

NUS = (Fraction(0), Fraction(1, 2), Fraction(27, 10), Fraction(50), Fraction(600), Fraction(1000))
# with 2 and 10 zeros McMahon's expansion fails just past the last one at
# these orders, so the sums must reach K0 on real zeros before the tail
FEW_ZEROS = [(Fraction(nu), count) for nu in (50, 200, 1000) for count in (2, 10)]


@pytest.mark.parametrize(
    "nu, count", [(nu, count) for nu in NUS for count in (300, 2000)] + FEW_ZEROS, ids=str
)
def test_sigma_bound_holds(nu, count):
    # both entry points: the CLI's sum over the streamed blocks, and
    # numeric_sigma over a zero set
    zeros = bessel_zeros(float(nu), count)
    for p in (1, 2, 5):
        exact = sigma_value(p, nu)
        streamed = _sigma_sum(float(nu), float(p), _zero_blocks(float(nu), count))
        for ts in (streamed, numeric_sigma(float(nu), p, zeros)):
            assert abs(Fraction(ts.value) - exact) <= ts.tail_bound, (p, ts)
