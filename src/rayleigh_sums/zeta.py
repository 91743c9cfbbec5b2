"""Exact even-argument Riemann zeta values.

The zeros of J_{1/2} are exactly k*pi, so specializing sigma at nu = 1/2
turns the zero sum into zeta(2p)/pi**(2p):

    zeta(2p) = pi**(2p) * sigma(p, 1/2).

The exact value at nu = 1/2 comes from rayleigh_core.sigma_value, so no
closed form is derived here. Values are kept symbolic as (rational
coefficient) * pi**(2p); floating rendering goes through a fixed 50-digit pi
so binary64 pi never enters the exact pipeline.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .exact_algebra import _Record
from .rayleigh_core import SigmaTable, sigma_value

PI_50 = "3.14159265358979323846264338327950288419716939937511"


def _trial_factor(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n > 0 by trial division with d = 2, 3, 4, ...; once d*d > n,
    what is left of n is prime and the last divisor tried.

    For a zeta denominator no d above 2p + 1 is tried: zeta(2p)/pi**(2p) =
    |B_2p| 2**(2p-1)/(2p)!, the primes of (2p)! are at most 2p, and by von
    Staudt-Clausen those of B_2p's denominator are the q with (q-1) | 2p."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    out: list[tuple[int, int]] = []
    d = 2
    while n > 1:
        if d * d > n:
            d = n
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out)


class ZetaValue(_Record):
    """zeta(two_p) = coefficient * pi**two_p, denominator factored for display."""

    __slots__ = ("two_p", "coefficient", "factored_denominator")

    def __init__(
        self,
        two_p: int,
        coefficient: Fraction,
        factored_denominator: tuple[tuple[int, int], ...],
    ) -> None:
        super().__init__(two_p, coefficient, factored_denominator)
        if self.coefficient <= 0:
            raise ValueError("zeta coefficient must be positive")
        prod = 1
        for prime, e in self.factored_denominator:
            prod *= prime**e
        if prod != self.coefficient.denominator:
            raise ValueError("factored denominator does not re-multiply")


def zeta_even(p: int, table: SigmaTable | None = None) -> ZetaValue:
    """Exact zeta(2p) from sigma(p, 1/2), by sigma_value.

    `table` is ignored: it is accepted only because callers written when
    zeta_even read the closed form from a table (the acceptance tests
    among them) still pass one."""
    coeff = sigma_value(p, Fraction(1, 2))
    return ZetaValue(
        two_p=2 * p,
        coefficient=coeff,
        factored_denominator=_trial_factor(coeff.denominator),
    )


def zeta_float_str(z: ZetaValue, digits: int = 30) -> str:
    """Decimal rendering of zeta(two_p) using the 50-digit pi constant."""
    if not 1 <= digits <= 45:
        raise ValueError("digits must be in 1..45")
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        pi = decimal.Decimal(PI_50)
        val = (
            decimal.Decimal(z.coefficient.numerator)
            / decimal.Decimal(z.coefficient.denominator)
            * pi**z.two_p
        )
        ctx.prec = digits
        return str(+val)
