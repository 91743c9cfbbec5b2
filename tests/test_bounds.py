"""Every printed bound checked against the truth: each sigma bound must hold,
|sigma(p, nu) - value| <= tail_bound < sigma(p, nu), against the exact
closed form; each ratio budget must cover the ratio's error and the
expansion's, against mpmath at 60 digits; and each residues budget must
cover both the residual and the distance of rhs from the Gamma ratio."""

from fractions import Fraction
from math import prod

import mpmath
import pytest

from rayleigh_sums import bessel_zeros, numeric_sigma, sigma_value
from rayleigh_sums.bessel_numeric import (
    NumericError,
    _lhs_error,
    _ratio_check,
    _residue_check,
    _sigma_sum,
    _summed_zeros,
    _zero_blocks,
    residue_identity_lhs,
)

NUS = (Fraction(0), Fraction(1, 2), Fraction(27, 10), Fraction(50), Fraction(600), Fraction(1000))
# with 2 and 10 zeros McMahon's expansion fails just past the last one at
# these orders, so the sums must reach K0 on real zeros before the tail
FEW_ZEROS = [(Fraction(nu), count) for nu in (50, 200, 1000) for count in (2, 10)]


@pytest.mark.parametrize(
    "nu, count", [(nu, count) for nu in NUS for count in (300, 2000)] + FEW_ZEROS, ids=str
)
def test_sigma_bound_holds(nu, count):
    # both entry points: the CLI's sum over the finder's blocks to K0, found
    # once for all p, and numeric_sigma over a zero set
    zeros = bessel_zeros(float(nu), count)
    blocks = list(_zero_blocks(float(nu), _summed_zeros(float(nu), count)))
    for p in (1, 2, 5):
        exact = sigma_value(p, nu)
        streamed = _sigma_sum(float(nu), float(p), blocks)
        for ts in (streamed, numeric_sigma(float(nu), p, zeros)):
            assert abs(Fraction(ts.value) - exact) <= ts.tail_bound < exact, (p, ts)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.7, 10.0, 50.0])
def test_ratio_budget_holds(nu):
    # A_p comes from the three-term chain started at (r_0, r_1) = (0, 1), a
    # route independent of the expansion, so rhs must be it rounded once and
    # the residual its distance from the kernel's ratio, rounded once
    refused = []
    for p in (2, 5, 10, 20):
        for k in (1, 3, 10):
            try:
                check = _ratio_check(nu, p, k)
            except NumericError as e:
                assert "cannot be checked in binary64" in str(e)
                refused.append((p, k))
                continue
            x = float(bessel_zeros(nu, k).zeros[-1])
            nu_q, x_q = Fraction(nu), Fraction(x)
            r0, r1 = Fraction(0), Fraction(1)
            for n in range(1, p):
                r0, r1 = r1, 2 * (nu_q + n) / x_q * r1 - r0
            assert check.residual == float(abs(Fraction(check.lhs) - r1)), (p, k)
            assert check.rhs == float(r1), (p, k)
            with mpmath.workdps(60):
                true = mpmath.besselj(nu + p, x) / mpmath.besselj(nu + 1, x)
                expansion = mpmath.mpf(r1.numerator) / r1.denominator
                error = abs(true - expansion) + abs(mpmath.mpf(check.lhs) - true)
                assert error <= check.budget, (p, k, error, check.budget)
    # at the first zero of J_nu, nu <= 2.7, |B_20| times the zero's accuracy
    # alone reaches |ratio|
    assert refused == ([(20, 1)] if nu < 10 else [])


# the grid p in {1/2, 1, 3/2, 2, 3, 5} x nu in {0, 2.7, 10, 50, 200} x
# N in {10, 100, 1000} at the points where a budget that guessed the tail
# failed the correct identity or refused it, a point for every p and nu
# besides, and nu = 2000, where a series built on floats would cancel
RESIDUE_POINTS = [
    (0.5, 50.0, 10), (0.5, 200.0, 10), (0.5, 200.0, 100),
    (1.0, 50.0, 10), (1.0, 50.0, 100), (1.0, 200.0, 10), (1.0, 200.0, 100), (1.0, 200.0, 1000),
    (1.5, 50.0, 10), (1.5, 200.0, 10), (2.0, 200.0, 10), (3.0, 50.0, 10),
    (5.0, 50.0, 10), (5.0, 200.0, 10),
    (0.5, 0.0, 10), (1.0, 10.0, 100), (1.5, 2.7, 100), (2.0, 0.0, 1000), (3.0, 10.0, 1000),
    (5.0, 2.7, 10), (0.5, 2000.0, 10),
]


@pytest.mark.parametrize("p, nu, terms", RESIDUE_POINTS, ids=str)
def test_residue_budget_holds(p, nu, terms):
    # the truth is Gamma(nu+1) / (2^(p+1) Gamma(nu+p+1)) at the binary64 nu,
    # 1 / (2^(p+1) (nu+1)...(nu+p)) exactly at integer p
    if p.is_integer():
        truth = 1 / (2 ** (int(p) + 1) * prod(Fraction(nu) + m for m in range(1, int(p) + 1)))
    else:
        with mpmath.workdps(30):
            nu_m, p_m = mpmath.mpf(nu), mpmath.mpf(p)
            truth = mpmath.gamma(nu_m + 1) / (2 ** (p_m + 1) * mpmath.gamma(nu_m + p_m + 1))
    check = _residue_check(nu, p, terms)
    assert check.residual <= check.budget
    assert abs(check.rhs - truth) <= check.budget, (check, truth)
    if nu >= 1000:
        # past beta = 40 nu the tail is known to within binary64; a series
        # built on floats inflates its own bound 70-fold at nu = 2000
        named = dict(check.terms)
        assert named["tail_bound"] <= named["rounding"], check


@pytest.mark.parametrize(
    "nu, p", [(1.5205884373228686, 0.5), (1.0000000000000004, 1.0000000000000002)]
)
def test_residue_lhs_error_holds(nu, p):
    # where math.lgamma errs most against the ulps of its value: the lhs's own
    # share of rounding must cover its distance from the Gamma ratio
    lhs = residue_identity_lhs(nu, p)
    with mpmath.workdps(50):
        nu_m, p_m = mpmath.mpf(nu), mpmath.mpf(p)
        truth = mpmath.gamma(nu_m + 1) / (2 ** (p_m + 1) * mpmath.gamma(nu_m + p_m + 1))
        assert abs(lhs - truth) <= _lhs_error(nu, p, lhs)
