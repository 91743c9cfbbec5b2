"""Floating-point oracle for the symbolic results: Bessel evaluation, zero
finding, tail-corrected zero sums, and numerical checks of the two
identities the solver is built on.

All routines work in binary64, which is enough to check the closed forms
away from nu = 0 too: with 100 zeros the p = 9 form matches to 1e-9
relative at nu in {0, 1/2, 1, 27/10, 10, 50} (acceptance criterion 4).
Everything here is pure given its inputs; ZeroSet wraps numpy arrays that
are treated as immutable after construction.

J_nu is evaluated by one kernel, `_jv_pair_at`, that returns J_mu and
J_{mu+1} from one three-term recurrence: Hankel's expansion and upward
steps where x >= 30 and x >= mu, Miller's backward recurrence elsewhere.
It takes one Python float, on `math` alone, or a float64 array, on numpy,
and gives a point the same bits either way. Against mpmath it is within
8 eps of the envelope for mu <= 50 and within 46 eps at x ~ mu = 1000, where
scipy.special.jv is off by up to 1.6e5 eps (at mu = 1000, x = 67385). Its
test stops there: above mu = 1000 it was measured at 143 eps (mu = 2000,
the third zero) and 277 eps (mu = 4999, the first zero). An order above
_JV_ORDER_CAP = 5000, past that measured range, raises NumericError, and so
does a count whose last zero lies past _X_MAX = 1.25e8, where binary64 cannot
certify zeros, so no zero, sum or check here is taken at such an order or
count (ROADMAP item 15 (a) is the way back above 5000, with a tested bound).

The zero finder has two engines with the same checks and the same bits.
Where count * (nu + 30) <= _SCALAR_WORK = 2e5 it runs one zero at a time on
Python floats, in at most about 25-55 ms, and loads no numpy, whose import
costs about 0.1 s of a fresh process; so do the zero sums, the residue terms
and the ratio check over its zeros. So `zeros` and the three `verify`
commands load numpy exactly when the zeros they take (`--count`, `--k`, or a
sum's max(terms, K0) from `_summed_zeros`) pass that threshold. Those calls
take the numpy engine, which yields blocks of _BLOCK = 8192 zeros, each once
it is certified and gap-checked, and raises at the first block with a fault;
its temporaries take a constant of about 1.2 MB whatever the count. The
callers take the blocks as they come (`_zero_blocks`), so what grows with
the count is what each keeps, as tracemalloc measures it: nothing for the
sums of `verify sigma` and `verify residues` (1.2 and 1.5 MB in all, at 5e4
and at 4e5 zeros alike); 1 float64 word per zero for the `zeros` subcommand,
which holds the zeros until every check has passed; and 2 for bessel_zeros,
which returns the zeros and their accuracies (2.78 at 2e5, with
numeric_sigma).

numpy is imported only by the code that works on arrays, never inside
a per-point loop, so importing this module (and the package) does not load
it: the exact routes, and with them the `derive`, `eval`, `zeta` and
`table` subcommands, run on the standard library alone. `bessel_zeros`
returns float64 arrays whatever the engine, so it loads numpy; the CLI
takes the engines' blocks from `_zero_blocks`, and each `verify` command's
`Check` from `_sigma_check`, `_residue_check` or `_ratio_check`, where its
budget rule lives.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import truediv
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .exact_algebra import _Record
from .rayleigh_core import _sigma_enclosure

if TYPE_CHECKING:
    import numpy as np

_EPS = sys.float_info.epsilon
# Every per-zero quantity is computed over blocks of this many points, so
# each float64 temporary takes 64 KB whatever the zero count (8192 timed at
# or near the best of 4096 to 32768).
_BLOCK = 8192


class NumericError(RuntimeError):
    """Numeric breakdown: bad certification or index, bad input."""


def _require_budget_below(budget: float, reference: float, check: str, name: str) -> None:
    """Raise NumericError, as "<check>: its error budget reaches |<name>| =
    ...", unless budget < |reference|: a check whose error budget reaches
    the value it checks would pass a computed 0 too, so it decides nothing.
    The one refusal rule of the three `verify` checks."""
    if not budget < abs(reference):
        raise NumericError(f"{check}: its error budget reaches |{name}| = {abs(reference):.3e}")


class Check(_Record):
    """A `verify` check: lhs, the reference, against rhs; residual, their
    distance; terms, the (name, value) pairs printed after it, in order; and
    budget. It passes where residual <= budget; a budget that reaches |lhs|
    is refused (`_require_budget_below`) before a Check is made."""

    __slots__ = ("lhs", "rhs", "residual", "terms", "budget")


def bessel_j(order: float, x: float) -> float:
    """J_order(x) for finite order >= 0 and x > 0, to near machine precision.

    From `_jv_pair_at` (the standard library alone), which raises
    NumericError for an order above _JV_ORDER_CAP. Below x = 1e-150 the
    first term of the power series, (x/2)^order / Gamma(order+1), is J to
    rounding at any finite order; Miller's recurrence, whose steps multiply
    by 2(order+i)/x, would overflow there.
    """
    if not 0 <= order < math.inf:
        raise NumericError(f"order must be finite and >= 0, got {order}")
    if not 0 < x < math.inf:
        raise NumericError(f"x must be finite and > 0, got {x}")
    if x < 1e-150:
        try:
            return math.exp(order * math.log(0.5 * x) - math.lgamma(order + 1.0))
        except OverflowError:  # lgamma past order ~2.5e305, where J underflows
            return 0.0
    return _jv_pair_at(order)(float(x))[0]


# The highest order at which the kernel's error was measured (277 eps of
# the envelope at the first zero of J_4999); above it the error grows (362
# at order 6000, 8.7e3 at 1e5, near the first zeros), and J is not evaluated.
_JV_ORDER_CAP = 5000.0
# Hankel's expansion is used where x >= _HANKEL_X and x >= mu; with
# _HANKEL_TERMS terms in each of P and Q its truncation error is below one
# ulp there.
_HANKEL_X = 30.0
_HANKEL_TERMS = 10
# Miller's recurrence scales a point down by 1/_BIG (exact, a power of two)
# whenever its value passes _BIG.
_BIG = 2.0**500
# Error bound of the J kernel, for a float and an array alike, in units of
# eps * hypot(J_mu(x), J_{mu+1}(x)), as its test against mpmath asserts in
# every regime for mu <= 1000 (worst measured: 46, at x ~ mu = 1000; 7.6
# for mu <= 50). Above mu = 1000 it is not a bound: 143 at the third zero
# of J_2000 and 277 at the first zero of J_4999.
_JV_PAIR_ERROR = 64.0


def _jv_pair_at(mu: float) -> Callable:
    """x -> (J_mu(x), J_{mu+1}(x)) for mu >= 0 and x > 0: one Python float,
    which gives Python floats and loads no numpy, or a float64 array.

    With mu = m0 + n, n = floor(mu), both come from one three-term
    recurrence over the orders m0 + i,
    J_(v-1)(x) + J_(v+1)(x) = (2v/x) J_v(x) (DLMF 10.6.1):
    - where x >= 30 and x >= mu, Hankel's expansion
      J_v(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - (v/2 + 1/4) pi,
      gives J at orders m0 and m0 + 1, whose w differ by pi/2, and n upward
      steps, stable for orders below x, reach mu and mu + 1. cos w and
      sin w come from cos x and sin x, which math and numpy reduce
      accurately, so the rounding of x - (v/2 + 1/4) pi never enters. Each
      step divides by x afresh, since a rounded 2/x used in every step
      would add up to hundreds of eps over a thousand steps;
    - elsewhere, Miller's backward recurrence runs from above both mu and x
      down to m0 and is normalised by a Neumann series (`_miller`, on
      Python floats, one point at a time).
    The same operators run on either kind of x, with cos, sin and sqrt from
    `math` for a float and from numpy for an array, which round alike. Each
    value depends on its own (mu, x) alone, never on the other points of
    an array, so a zero comes out the same whatever the count or the zero
    engine. The Hankel coefficients are computed once per order. An order
    above _JV_ORDER_CAP, or nan, raises NumericError before any step is built.
    """
    if not mu <= _JV_ORDER_CAP:
        raise NumericError(f"J_{mu}: the kernel's error is measured to order {_JV_ORDER_CAP:g} only")
    n = math.floor(mu)
    m0 = mu - n
    # P and Q at orders m0 and m0 + 1 side by side, from the highest power
    # of 1/x^2 down, for one Horner pass over all four
    polys = (*_hankel_coefficients(m0), *_hankel_coefficients(m0 + 1.0))
    highest, *lower = zip(*(c[::-1] for c in polys))
    phase = (0.5 * m0 + 0.25) * math.pi
    cp, sp = math.cos(phase), math.sin(phase)
    steps = [2.0 * (m0 + i) for i in range(1, n + 1)]

    def pair(x):
        if isinstance(x, float):
            if x < _HANKEL_X or x < mu:
                (ja,), (jb,) = _miller(m0, n, [x])
                return ja, jb
            ops = math
        else:
            import numpy as np

            near = (x < _HANKEL_X) | (x < mu)
            if near.any():
                ja, jb = np.empty_like(x), np.empty_like(x)
                ja[near], jb[near] = _miller(m0, n, x[near].tolist())
                far = ~near
                if far.any():
                    ja[far], jb[far] = pair(x[far])
                return ja, jb
            ops = np
        # P and Q are updated in place, which on a float only rebinds the
        # name; on an array, a fresh array per operation made the Hankel
        # pass over a block about 30 % slower at mu = 0
        y = 1.0 / (x * x)
        p0, q0, p1, q1 = highest
        for a, b, c, d in lower:
            p0 *= y
            p0 += a
            q0 *= y
            q0 += b
            p1 *= y
            p1 += c
            q1 *= y
            q1 += d
        cx, sx = ops.cos(x), ops.sin(x)
        cos_w = cx * cp + sx * sp
        sin_w = sx * cp - cx * sp
        amp = ops.sqrt((2.0 / math.pi) / x)
        ja = amp * (p0 * cos_w - q0 / x * sin_w)
        jb = amp * (p1 * sin_w + q1 / x * cos_w)
        for c in steps:
            ja, jb = jb, jb * c / x - ja
        return ja, jb

    return pair


def _hankel_coefficients(nu):
    """Coefficients of P and Q in Hankel's expansion (DLMF 10.17.3) as
    polynomials in 1/x^2: P = sum_k (-1)^k a_2k x^-2k and
    x Q = sum_k (-1)^k a_(2k+1) x^-2k, with a_0 = 1 and
    a_k = a_(k-1) (4 nu^2 - (2k-1)^2) / (8k), exact for a Fraction nu."""
    a = [1]
    for k in range(1, 2 * _HANKEL_TERMS):
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
    signed = [c if k % 4 < 2 else -c for k, c in enumerate(a)]
    return signed[0::2], signed[1::2]


def _miller(m0: float, n: int, xs: list[float]) -> tuple[list[float], list[float]]:
    """J_(m0+n)(x) and J_(m0+n+1)(x), 0 <= m0 < 1, at each x in xs, by
    Miller's backward recurrence (DLMF 3.6(iii)) on Python floats.

    Each point starts the recurrence with 1 at an offset i0 at least
    16 + 8 x^(1/3) orders above both m0 + n + 1 and x, where J has fallen
    far below an ulp of its size at the turning point, and scales its
    values by 1/_BIG whenever they pass _BIG. The values are then
    normalised by the Neumann series
        (x/2)^m0 = sum_k w_k J_(m0+2k)(x),
        w_0 = Gamma(m0+1), w_k = (m0+2k) Gamma(m0+k) / k!,
    which at m0 = 0 is 1 = J_0 + 2 J_2 + 2 J_4 + ...
    The points of an array come here too, one at a time, since numpy's
    cbrt and power do not round as `math` and `**` do.
    """
    tops = [math.floor(max(m0 + n + 1.0, x) + 16.0 + 8.0 * x ** (1.0 / 3.0)) for x in xs]
    w = [math.gamma(m0 + 1.0)]
    g = w[0]  # Gamma(m0+k)/k!, from k = 1
    for k in range(1, max(tops, default=0) // 2 + 1):
        w.append((m0 + 2 * k) * g)
        g *= (m0 + k) / (k + 1)

    ja, jb = [], []
    for x, top in zip(xs, tops):
        cur, above, total = 1.0, 0.0, 0.0  # J at offsets i and i + 1
        a = b = 0.0
        for i in range(top, 0, -1):
            if i == n + 1:
                b = cur
            elif i == n:
                a = cur
            if not i & 1:
                total += w[i >> 1] * cur
            cur, above = (2.0 * (m0 + i)) * cur / x - above, cur
            if abs(cur) > _BIG:
                cur, above, total = cur / _BIG, above / _BIG, total / _BIG
                a, b = a / _BIG, b / _BIG
        if n == 0:
            a = cur
        total += w[0] * cur
        scale = (0.5 * x) ** m0 / total
        ja.append(a * scale)
        jb.append(b * scale)
    return ja, jb


class ZeroSet(_Record):
    """Ordered positive zeros of J_nu with per-zero absolute error estimates:
    nu: float, and zeros and accuracy, float64 arrays. Zero sets compare by
    identity, since arrays have no single truth value for ==."""

    __slots__ = ("nu", "zeros", "accuracy")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, nu: float, zeros: np.ndarray, accuracy: np.ndarray) -> None:
        import numpy as np

        super().__init__(nu, zeros, accuracy)
        z = self.zeros
        if len(z) == 0 or z[0] <= 0:
            raise NumericError("zero set must start with a positive zero")
        if not np.all(z[1:] > z[:-1]):
            raise NumericError("zeros must be strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)


def _mcmahon(nu: float, k):
    """McMahon's large-k approximation to the k-th zero (DLMF 10.21.19),
    beta - (mu-1)/(8 beta) with beta = pi(k + nu/2 - 1/4) and mu = 4 nu^2,
    and the size of its next term, |4(mu-1)(7mu-31)| / (3 (8 beta)^3), for
    one index k (a float) or an array of them."""
    mu = 4.0 * nu * nu
    beta = math.pi * (k + nu / 2.0 - 0.25)
    next_term = abs(4.0 * (mu - 1.0) * (7.0 * mu - 31.0)) / (3.0 * (8.0 * beta) ** 3)
    return beta - (mu - 1.0) / (8.0 * beta), next_term


def _olver_applies(nu: float, k: float) -> bool:
    """Whether zero k takes Olver's seed: nu > 1 and McMahon's next term
    is at least 1e-3."""
    return nu > 1.0 and _mcmahon(nu, k)[1] >= 1e-3


def _olver_seed(nu: float, k: float) -> float:
    """The leading term of Olver's uniform expansion for zero k (DLMF 10.20,
    10.21(viii)): nu z(zeta) with zeta = nu^(-2/3) a_k, a_k the k-th Airy
    zero from its asymptotic series (DLMF 9.9.6). With q = sqrt(z^2 - 1),
    z solves q - arctan q = w, w = (2/3)(-zeta)^(3/2), whose left side is
    convex and increasing; Newton from q = (3w)^(1/3), below the root,
    crosses it in one step and then falls onto it, to rounding in four
    steps."""
    # (2/3)(-zeta)^(3/2) = (2/3) t T(t)^(3/2) / nu with a_k = -T(t),
    # t = (3 pi/8)(4k - 1), and (2/3) t = pi(k - 1/4)
    t2 = (3.0 * math.pi / 8.0 * (4.0 * k - 1.0)) ** -2
    series = 1.0 + t2 * (5.0 / 48.0 + t2 * (-5.0 / 36.0 + t2 * (77125.0 / 82944.0)))
    w = math.pi * (k - 0.25) * series**1.5 / nu
    q = (3.0 * w) ** (1.0 / 3.0)
    for _ in range(4):
        q -= (q - math.atan(q) - w) * (1.0 + q * q) / (q * q)
    return nu * math.hypot(1.0, q)


def _seeds(nu: float, k):
    """Starting points for the zeros of J_nu with indices k: one index (a
    float) or an ascending array of them.

    McMahon's expansion where nu <= 1 or its next term is below 1e-3;
    elsewhere, which is a prefix of k since that term falls with k, the
    leading term of Olver's uniform expansion. Both the choice and Olver's
    seeds come from Python floats for either kind of k, so the two zero
    engines start from the same bits.
    """
    seeds = _mcmahon(nu, k)[0]
    if isinstance(k, float):
        return _olver_seed(nu, k) if _olver_applies(nu, k) else seeds
    n = bisect_left(k, True, key=lambda i: not _olver_applies(nu, float(i)))
    seeds[:n] = [_olver_seed(nu, i) for i in k[:n].tolist()]
    return seeds


# The zero finder runs on Python floats, without numpy, where
# count * (nu + 30) <= _SCALAR_WORK, and on numpy in blocks of _BLOCK
# otherwise. A scalar zero costs about two pair evaluations: Hankel's
# expansion, then nu upward steps. Measured at the bound (CPU time, best of
# 5, 2-core x86-64, Python 3.11): 4-10 us per zero for nu <= 10, 18 at 50,
# 35 at 200, 128 at 1000, so 25-55 ms per call from nu = 0 to 3000, about
# half of the 0.10-0.13 s a fresh process takes to import numpy.
_SCALAR_WORK = 2e5
# No zero is sought past _X_MAX: Newton stops at |J| <= eps/2 x |J'|, |J'| ~
# sqrt(2/(pi x)), so |J| may reach eps/2 sqrt(2x/pi), past the certificate's 1e-12
# from x = 2 pi (1e-12/eps)^2 = 1.2744e8 on at any order (first failures measured
# at 1.2747e8-1.2752e8, nu = 50, 200, 1000, 4999). At 1.25e8 it is 0.99e-12.
# With nu <= _JV_ORDER_CAP as well, every seed below it is finite, so the
# finder has no path for a seed or gap past binary64: McMahon's
# beta = pi(k + nu/2 - 1/4) >= 3 pi/4 and mu = 4 nu^2 <= 1e8 keep both of its
# terms finite, and Olver's (nu > 1 only) has w in (0, inf) and
# q0 = (3w)^(1/3) > 0, from which Newton on the convex, increasing
# q - atan q - w overshoots the positive root once and then falls onto it,
# so q stays positive and finite.
_X_MAX = 1.25e8


def bessel_zeros(nu: float, count: int) -> ZeroSet:
    """First `count` positive zeros of J_nu.

    Every zero starts from an asymptotic seed (`_seeds`): McMahon's
    expansion where it is accurate, the leading term of Olver's uniform
    expansion elsewhere, both well within a quarter of the spacing of the
    true zero. Newton steps, at most 6, polish each zero only until its
    step |J/J'| is within half an ulp of x, typically 0 to 3 steps. Each
    zero's last evaluation certifies it against
    |J_nu(xi)| < 1e-12 * max(1, |J'_nu(xi)|), with
    J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x), and gives its accuracy
    |J/J'| + 4 eps xi. Then the index is checked twice. By Sturm
    comparison the gaps xi_{k+1} - xi_k are non-increasing for nu > 1/2,
    non-decreasing for nu < 1/2 and constant for nu = 1/2, so a gap that
    breaks this beyond the zeros' accuracy means a skipped or repeated
    zero. And the exact sums sigma(p, nu) prove that the first two zeros
    found are j_{nu,1} and j_{nu,2} (`_check_index`), with no J evaluated;
    the gaps cannot see zero 2 skipped, since a first gap may be the
    largest. An order above _JV_ORDER_CAP, a count whose last seed passes
    _X_MAX (where binary64 cannot certify zeros), a failed certificate or
    either failed index check raises NumericError at the first fault met,
    the first two before any zero is found. The checks run in that order
    block by block, the sigma test after the first block, and a failed
    certificate or gap check names the first zero that fails it.

    Two engines do this work (`_zero_blocks` picks one): `_zeros_scalar`,
    one zero at a time on Python floats, for small counts and orders, and
    `_zeros_blocks`, over numpy blocks, for the rest. Both give the same
    bits and raise the same errors, and their blocks are collected here into
    two float64 arrays.
    """
    import numpy as np

    blocks = _zero_blocks(nu, count)  # checks nu and count before np.empty
    zeros, accuracy = np.empty(count), np.empty(count)
    start = 0
    for z, acc in blocks:
        stop = start + len(z)
        zeros[start:stop], accuracy[start:stop] = z, acc
        start = stop
    return ZeroSet(nu=float(nu), zeros=zeros, accuracy=accuracy)


def _zero_blocks(
    nu: float, count: int
) -> Iterator[tuple[list[float], list[float]]] | Iterator[tuple[np.ndarray, np.ndarray]]:
    """The zeros of `bessel_zeros` and their accuracies, block by block in
    order: one pair of lists of Python floats where
    count * (nu + 30) <= _SCALAR_WORK, which loads no numpy, and pairs of
    float64 arrays of up to _BLOCK zeros otherwise. A check that fails
    raises NumericError from the iterator in place of the block where it
    failed, and no block is yielded before it is checked, so a caller that
    acts only after the last block acts on checked zeros alone. Both engines
    take the kernel at nu, `pair`, built here, so an order past _JV_ORDER_CAP,
    or a last seed past _X_MAX (zeros binary64 cannot certify), raises first."""
    if nu < 0:
        raise NumericError(f"nu must be >= 0, got {nu}")
    if count < 1:
        raise NumericError(f"count must be >= 1, got {count}")
    pair = _jv_pair_at(nu)
    if count > _X_MAX or _seeds(nu, float(count)) > _X_MAX:  # the int first: it may pass binary64
        raise NumericError(f"zero {count} of J_{nu} lies past the certificate's x_max = {_X_MAX:g}")
    engine = _zeros_scalar if count * (nu + 30.0) <= _SCALAR_WORK else _zeros_blocks
    return engine(nu, count, pair)


def _zeros_scalar(
    nu: float, count: int, pair: Callable
) -> Iterator[tuple[list[float], list[float]]]:
    """`bessel_zeros` one zero at a time, on Python floats, as one block."""
    half_ulp, four_ulps = 0.5 * _EPS, 4.0 * _EPS
    zeros, accuracy = [], []
    for k in range(count):
        x = _seeds(nu, k + 1.0)
        f, g = pair(x)
        d = (nu / x) * f - g
        for _ in range(6):
            if not abs(f) > half_ulp * x * abs(d):
                break
            x -= f / d
            f, g = pair(x)
            d = (nu / x) * f - g
        # max(abs(d), 1.0) is nan for a nan d, as np.maximum(1.0, |d|) is
        if not abs(f) < 1e-12 * max(abs(d), 1.0):
            raise _certificate_error(nu, k, abs(f), x)
        zeros.append(x)
        accuracy.append(abs(f / d) + four_ulps * x)

    for k in range(count - 2):
        g0, g1 = zeros[k + 1] - zeros[k], zeros[k + 2] - zeros[k + 1]
        if _gap_breaks(nu, g1 - g0, accuracy[k], accuracy[k + 1], accuracy[k + 2]):
            raise _gap_error(nu, k, g1, g0, zeros[k + 2])
    _check_index(nu, zeros[:2], accuracy[:2])
    yield zeros, accuracy


def _zeros_blocks(
    nu: float, count: int, pair: Callable
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`bessel_zeros` over numpy blocks of _BLOCK zeros, yielding each block
    once it is polished, certified and gap-checked, and the first once the
    sigma test has checked its index too.

    The gap check runs over windows that reach two zeros into the block
    before, so only those two are kept past their block. Every value
    depends on its own zero alone, so the result does not depend on the
    block size, and the first block with a fault raises the error one pass
    over all the zeros would: the first uncertified zero, then the first
    broken gap, then the index.
    """
    import numpy as np

    tail = [], []  # the last two zeros so far and their accuracies
    for start in range(0, count, _BLOCK):
        x, accuracy = _polish_block(nu, pair, start, min(start + _BLOCK, count))
        zeros, acc = np.concatenate((tail[0], x)), np.concatenate((tail[1], accuracy))
        _check_gaps(nu, zeros, acc, start - len(tail[0]))
        if start == 0:
            _check_index(nu, x[:2].tolist(), accuracy[:2].tolist())
        tail = zeros[-2:].tolist(), acc[-2:].tolist()
        yield x, accuracy


def _polish_block(
    nu: float, pair: Callable, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Zeros start + 1 to stop of J_nu, seeded and polished by Newton, and
    their accuracies; the first zero that does not certify raises
    NumericError. Its temporaries are freed on return, before the block is
    handed on."""
    import numpy as np

    x = _seeds(nu, np.arange(start + 1, stop + 1, dtype=float))

    # one pass over the block gives every zero its J and J', then Newton
    # moves only the seeds whose step would still exceed half an ulp
    f, g = pair(x)
    d = (nu / x) * f - g
    moving = np.flatnonzero(np.abs(f) > 0.5 * _EPS * x * np.abs(d))
    for _ in range(6):
        if moving.size == 0:
            break
        xs = x[moving] - f[moving] / d[moving]
        fs, gs = pair(xs)
        ds = (nu / xs) * fs - gs
        x[moving], f[moving], d[moving] = xs, fs, ds
        moving = moving[np.abs(fs) > 0.5 * _EPS * xs * np.abs(ds)]

    size = np.abs(f)
    bad = ~(size < 1e-12 * np.maximum(1.0, np.abs(d)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise _certificate_error(nu, start + i, size[i], x[i])
    return x, np.abs(f / d) + 4.0 * _EPS * x


def _certificate_error(nu: float, k: int, size: float, x: float) -> NumericError:
    """zero k + 1 (from 1), at x, has |J| = size beyond the certificate"""
    return NumericError(
        f"zero {k + 1} of J_{nu} failed certification: |J|={size:.3e} at x={x:.6f}"
    )


def _gap_error(nu: float, k: int, gap: float, before: float, x: float) -> NumericError:
    """zero k + 3 (from 1) ends the gap that broke the Sturm direction"""
    return NumericError(
        f"zero {k + 3} of J_{nu} failed the index check: gap "
        f"{gap:.6f} after {before:.6f} at x={x:.6f}"
    )


def _gap_breaks(nu: float, change, a0, a1, a2):
    """Whether the change g_{k+1} - g_k of two neighbouring gaps breaks the
    direction Sturm comparison fixes for this order (the gaps shrink for
    nu > 1/2, grow for nu < 1/2 and are equal at 1/2), to within a
    tolerance built from the accuracies a0, a1, a2 of the three zeros that
    define them. On floats, or elementwise on float64 arrays."""
    tol = 2.0 * (a0 + 2.0 * a1 + a2)
    if nu > 0.5:
        return change > tol
    if nu < 0.5:
        return change < -tol
    return abs(change) > tol


def _check_gaps(nu: float, zeros: np.ndarray, accuracy: np.ndarray, offset: int) -> None:
    """Raise NumericError unless the gaps between consecutive zeros change
    monotonically in the direction Sturm comparison fixes for this order,
    to within a tolerance built from the accuracy of the three zeros that
    define two neighbouring gaps. zeros[0] is zero offset + 1 of J_nu."""
    import numpy as np

    gaps = np.diff(zeros)
    bad = _gap_breaks(nu, np.diff(gaps), accuracy[:-2], accuracy[1:-1], accuracy[2:])
    if np.any(bad):
        k = int(np.argmax(bad))
        raise _gap_error(nu, offset + k, gaps[k + 1], gaps[k], zeros[k + 2])


def _check_index(nu: float, zeros: list[float], accuracy: list[float]) -> None:
    """Raise NumericError unless the first one or two zeros found (Python
    floats) are j_{nu,1} and j_{nu,2}, by sigma(p) = sum_k j_{nu,k}**(-2p).

    With X_k = xi_k + acc_k, above the true zero near xi_k, sigma(p)
    X_1**(2p) <= 2 leaves no room for a zero below xi_1, and xi_2 - acc_2 >
    X_1 with (sigma(p) - X_1**(-2p)) X_2**(2p) <= 2 none between xi_1 and
    xi_2, with the upper end of rayleigh_core._sigma_enclosure at nu for
    sigma. A wrong index fails these exact tests at every p; p starts where
    the seeds' (xi_1/xi_2)**(2p) <= 1/e and is raised once, by half."""
    x1 = Fraction(zeros[0]) + Fraction(accuracy[0])
    p = math.ceil(0.5 / math.log(_seeds(nu, 2.0) / _seeds(nu, 1.0)))
    for p in (p, math.ceil(1.5 * p)):
        _, hi, e = _sigma_enclosure(p, nu)
        w1 = x1 ** (2 * p)
        rest = hi * Fraction(2) ** e * w1 - 1  # (sigma(p) - X_1**(-2p)) X_1**(2p), or more
        if rest > 1:
            k = 1
        elif zeros[1:] and not (
            Fraction(zeros[1]) - Fraction(accuracy[1]) > x1
            and rest * (Fraction(zeros[1]) + Fraction(accuracy[1])) ** (2 * p) <= 2 * w1
        ):
            k = 2
        else:
            return
    room = f"sigma(p={p}) leaves room for a zero below x={zeros[k - 1]:.6f}"
    raise NumericError(f"zero {k} of J_{nu} failed the index check: {room}")


class TailedSum(_Record):
    """Truncated zero sum with its tail added on; all four fields are
    floats. value = partial + tail_estimate, and tail_bound bounds
    |sigma - value|: the tail's truncation, the zeros' accuracy and the
    roundings (see `_sigma_sum`)."""

    __slots__ = ("partial", "tail_estimate", "tail_bound", "value")


def numeric_sigma(nu: float, p: float, zeros: ZeroSet) -> TailedSum:
    """sum_k xi_k**(-2p) over a zero set plus the tail past it, with a bound
    on its error (`_sigma_sum`). A set shorter than K0 (`_summed_zeros`) must
    be the first zeros `bessel_zeros` finds, bit for bit, and the sum is then
    over zeros 1..K0 found again; any other short set raises NumericError."""
    if p < 1:
        raise NumericError(f"p must be >= 1 for convergence, got {p}")
    if abs(nu - zeros.nu) > 1e-12 * max(1.0, abs(nu)):
        raise NumericError(f"order mismatch: nu={nu} but zero set has nu={zeros.nu}")
    z, acc = zeros.zeros, zeros.accuracy
    count = _summed_zeros(nu, len(z))
    if count > len(z):  # the finder's index checks start at zero 1
        found = bessel_zeros(nu, count)
        z, acc = found.zeros, found.accuracy
        if (z[: len(zeros)] != zeros.zeros).any() or (acc[: len(zeros)] != zeros.accuracy).any():
            raise NumericError(f"zeros of J_{nu} short of K0 = {count} must be the finder's own")
    blocks = ((z[i : i + _BLOCK], acc[i : i + _BLOCK]) for i in range(0, count, _BLOCK))
    return _sigma_sum(nu, p, blocks)


# B_2k / (2k)! for k = 1..7 (DLMF 24.2.1)
_BERNOULLI = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600
)


def _hurwitz_zeta(s: float, q: float) -> tuple[float, float]:
    """zeta(s, q) = sum_{n>=0} (q + n)**(-s) for s > 1, q > 0, and the size
    of the last term it adds. The terms are added until q + n >= s + 10,
    and the rest is Euler-Maclaurin's sum (DLMF 2.10.1) to the B_14 term,
    whose terms shrink there, so the last bounds the remainder. A power
    that underflows is 0.0."""
    n = max(0, math.ceil(s + 10.0 - q))
    terms = [(q + i) ** -s for i in range(n)]
    x = q + n
    power = x**-s
    terms += [x * power / (s - 1.0), 0.5 * power]
    rising, power = s, power / x  # s(s+1)...(s+2k-2) and x**(1-s-2k)
    for k, b in enumerate(_BERNOULLI, 1):
        terms.append(b * rising * power)
        rising, power = rising * (s + 2 * k - 1) * (s + 2 * k), power / (x * x)
    return math.fsum(terms), abs(terms[-1])


def _summed_zeros(nu: float, count: int, reach: float = 0.0) -> int:
    """The real zeros a zero sum of J_nu sums when it is given `count`: at
    least K0 = ceil(max(40 max(nu, 1), reach) / pi - (nu/2 - 1/4)), so that
    its tail starts where beta_k = pi(k + nu/2 - 1/4) passes 40 max(nu, 1)
    and reach; `_zero_blocks` refuses a count past _X_MAX (uncertifiable zeros)."""
    return max(count, math.ceil(max(40.0 * max(nu, 1.0), reach) / math.pi - (nu / 2.0 - 0.25)))


def _sigma_sum(nu: float, p: float, blocks: Iterable[tuple]) -> TailedSum:
    """sum_k xi_k**(-2p) over the zero finder's (zeros, accuracy) blocks of
    J_nu, p >= 1, in order, on Python floats for lists from the scalar zero
    finder and on numpy for arrays, plus the tail past them. No block is kept
    past its powers. The blocks must reach K0 (`_summed_zeros`), where the
    tail holds, and raise NumericError once summed where they end before.
    partial is their sum, tail_estimate `_power_tail` past them at s = 2p,
    and tail_bound adds its bound, s max_k(acc_k / xi_k) value (the zeros'
    accuracy through xi**-s) and 2 eps value (the roundings); a max does not
    depend on the block size."""
    e = -2.0 * p
    count, worst = 0, 0.0  # the zeros summed, and max_k acc_k / xi_k

    def powers():
        nonlocal count, worst
        for z, acc in blocks:
            count += len(z)
            scalar = isinstance(z, list)
            worst = max(worst, max(map(truediv, acc, z)) if scalar else float((acc / z).max()))
            # fsum reads a float64 array fastest through a memoryview
            yield [x**e for x in z] if scalar else memoryview(z**e)

    partial = math.fsum(chain.from_iterable(powers()))
    if (k0 := _summed_zeros(nu, count)) > count:
        raise NumericError(f"the zero sum of J_{nu} needs its first {k0} zeros (K0), given {count}")
    tail_estimate, bound = _power_tail(nu, -e, count)
    value = partial + tail_estimate
    bound += (-e * worst + 2.0 * _EPS) * value
    return TailedSum(partial=partial, tail_estimate=tail_estimate, tail_bound=bound, value=value)


def _power_tail(nu: float, s: float, count: int) -> tuple[float, float]:
    """sum_{k > count} xi_k**-s over the zeros of J_nu, s > 1, from where
    beta_k = pi(k + nu/2 - 1/4) is large against nu (`_summed_zeros`), and a
    bound on its truncation. McMahon's expansion (DLMF 10.21.19) to beta**-5,
    xi_k = beta_k (1 - a1 beta_k**-2 - a2 beta_k**-4 - a3 beta_k**-6), gives
    xi_k**-s = sum_{j<=3} d_j beta_k**(-s-2j), and each power summed is
    pi**(-s-2j) zeta(s+2j, count + 3/4 + nu/2). The bound adds the last of
    those terms and the Euler-Maclaurin remainders."""
    mu = 4.0 * nu * nu
    a1, a2 = (mu - 1.0) / 8.0, (mu - 1.0) * (7.0 * mu - 31.0) / 384.0
    a3 = (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / 15360.0
    # s, b2 and b3 are the coefficients of u, u**2 and u**3 in (1 - u)**-s
    b2, b3 = s * (s + 1.0) / 2.0, s * (s + 1.0) * (s + 2.0) / 6.0
    d = (1.0, s * a1, s * a2 + b2 * a1 * a1, s * a3 + 2.0 * b2 * a1 * a2 + b3 * a1 * a1 * a1)
    tail, remainder = [], 0.0
    for j, dj in enumerate(d):
        zeta, last = _hurwitz_zeta(s + 2 * j, count + 0.75 + nu / 2.0)
        scale = dj * math.pi ** (-s - 2 * j)
        tail.append(scale * zeta)
        remainder += abs(scale) * last
    return math.fsum(tail), abs(tail[-1]) + remainder


def _sigma_check(nu: Fraction, p: int, terms: int, exact: Fraction) -> Check:
    """sigma(p, nu) = exact > 0 against `_sigma_sum` over the first `terms`
    zeros of J_nu, or K0 (`_summed_zeros`) where that is more, with budget
    tail_bound; the residual is exact, rounded once."""
    nu_f = float(nu)
    _jv_pair_at(nu_f)  # the order limit first: K0 passes binary64 above nu = 1.4e307
    count = _summed_zeros(nu_f, terms)
    ts = _sigma_sum(nu_f, float(p), _zero_blocks(nu_f, count))
    check = f"sigma(p={p}, nu={nu}) cannot be checked on {count} zeros"
    _require_budget_below(ts.tail_bound, float(exact), check, "lhs")
    residual = float(abs(Fraction(ts.value) - exact))
    return Check(exact, ts.value, residual, (("tail_bound", ts.tail_bound),), ts.tail_bound)


def _lgamma(x: float) -> float:
    """math.lgamma, raising NumericError where it overflows (x above about
    2.55e305) instead of OverflowError."""
    try:
        return math.lgamma(x)
    except OverflowError:
        raise NumericError(f"log Gamma({x!r}) overflows binary64") from None


def residue_identity_lhs(nu: float, p: float) -> float:
    """Gamma(nu+1) / (2**(p+1) Gamma(nu+p+1)) via real log-gamma."""
    return math.exp(_lgamma(nu + 1.0) - (p + 1.0) * math.log(2.0) - _lgamma(nu + p + 1.0))


def _lhs_error(nu: float, p: float, lhs: float) -> float:
    """A first-order bound on the error of lhs = residue_identity_lhs(nu, p):
    eps (4 |lgamma(x)| + 10) for each lgamma, at least 1.24 times its error
    plus eps x |psi(x)| for two roundings of x, on 141203 points x in [1, 5002]
    against mpmath; three roundings of (p+1) log 2; eps E for each subtraction,
    E = |lgamma(nu+1)| + (p+1) log 2 + |lgamma(nu+p+1)|; and one for exp."""
    logs = abs(_lgamma(nu + 1.0)) + abs(_lgamma(nu + p + 1.0))
    return lhs * _EPS * (5.0 * logs + 2.5 * (p + 1.0) * math.log(2.0) + 21.0)


def residue_tail_scale(nu: float, p: float, terms: int) -> float:
    """Scale of the neglected remainder after `terms` zeros in the residue
    sum: the terms behave like xi**-(p+1) with |ratio factor| <= 1, and
    integrating (pi(k+c))**-(p+1) past k = terms gives
    pi**-(p+1) (terms + c)**(-p) / p."""
    c = nu / 2.0 - 0.25
    return math.pi ** (-(p + 1.0)) * (terms + c) ** (-p) / p


class ResidueReport(_Record):
    """Result of a residue-identity check: lhs; partial_rhs, the sum over the
    count zeros summed, and residual, |lhs - partial_rhs|; tail_estimate and
    tail_bound (`_residue_tail`); and rounding, a bound on the error of lhs and
    of every summed term, from the kernel's stated accuracy and each zero's."""

    __slots__ = (
        "lhs", "partial_rhs", "residual", "tail_estimate", "tail_bound", "rounding", "count"
    )


def verify_residue_identity(nu: float, p: float, terms: int) -> ResidueReport:
    """Check Gamma(nu+1)/(2**(p+1) Gamma(nu+p+1))
    = sum_k xi_k**-(p+1) J_{nu+p}(xi_k)/J_{nu+1}(xi_k) numerically.

    Valid for any real p > 0, which is what makes it an independent check:
    the symbolic route needs integer p, this one does not. The zeros are
    summed to max(terms, K0), K0 from `_summed_zeros` with reach
    p (2 nu + p), and `_residue_tail` gives the sum past them.

    rounding adds up, to first order:
    - lhs: `_lhs_error`;
    - each term t = xi**-(p+1) A/B, A = J_{nu+p}(xi), B = J_{nu+1}(xi):
      the kernel's error on A/B (`_kernel_ratio_error`, with
      A1 = J_{nu+p+1}(xi), B1 = J_{nu+2}(xi)); the zero's accuracy times
      |dt/dxi| = xi**-(p+1) |A B1/B - A1 - 2A/xi| / |B|;
      and three roundings for the power, product and quotient;
    - one rounding of the fsum.
    The terms and their error bounds (`_residue_terms`) are computed over
    the zero finder's blocks as they come, zero by zero on the scalar
    engine's lists, and nothing is kept per zero. The terms' sum is exact,
    rounded once, and so is the bounds' sum, rounded up, whatever the blocks:
    `_exact_sum` per block, or fsum over the scalar engine's one block.
    Above an order of about 1000 rounding is not a bound, since the kernel's
    is not. An lhs below the smallest normal binary64 number raises
    NumericError, since no sum can be checked against it, and so does an
    nu + p + 1 past lgamma's range (2.55e305), an nu + p past _JV_ORDER_CAP
    or a last zero past _X_MAX (uncertifiable), before any zero is found.
    """
    if p <= 0:
        raise NumericError(f"p must be > 0, got {p}")
    if terms < 2:
        raise NumericError(f"terms must be >= 2, got {terms}")
    lhs = residue_identity_lhs(nu, p)
    if not lhs >= sys.float_info.min:
        raise NumericError(
            f"Gamma(nu+1) / (2^(p+1) Gamma(nu+p+1)) at p={p}, nu={nu} underflows binary64"
        )
    term = partial(_residue_terms, _jv_pair_at(nu + p), _jv_pair_at(nu + 1.0), p)
    count = _summed_zeros(nu, terms, p * (2.0 * nu + p))
    errors = []  # one sum of the terms' error bounds per block

    def values():
        for z, accuracy in _zero_blocks(nu, count):
            if isinstance(z, list):  # the scalar engine's one block
                v, err = zip(*map(term, z, accuracy, repeat(math.hypot)))
                errors.append(math.fsum(err))
            else:
                import numpy as np

                v, err = term(z, accuracy, np.hypot)
                errors.append(_exact_sum(err))
                v = memoryview(v)
            yield v

    total = math.fsum(chain.from_iterable(values()))
    error = math.nextafter(float(sum(errors)), math.inf)
    rounding = _lhs_error(nu, p, lhs) + error + _EPS * abs(total)
    tail = _residue_tail(nu, p, count)
    return ResidueReport(lhs, total, abs(lhs - total), *tail, rounding, count)


def _exact_sum(x: np.ndarray) -> Fraction | float:
    """The exact sum of a float64 array >= 0: each x = q 2**(e - 53), q < 2**53
    an integer, and each 18-bit slice of q sums by exponent exactly in floats.
    An inf or nan gives its fsum, a float."""
    import numpy as np

    if not np.isfinite(x).all():
        return math.fsum(x)
    m, e = np.frexp(x)
    q = (m * 2.0**53).astype(np.int64)
    low = int(e.min())
    total = 0
    for shift in (36, 18, 0):
        part = np.bincount(e - low, weights=(q >> shift) & 0x3FFFF)
        total += sum(int(part[k]) << (k + shift) for k in np.flatnonzero(part).tolist())
    return total * Fraction(2) ** (low - 53)


def _residue_check(nu: float, p: float, terms: int) -> Check:
    """`verify_residue_identity` as a check: rhs = partial + tail, budget =
    rounding + tail_bound."""
    report = verify_residue_identity(nu, p, terms)
    budget = report.rounding + report.tail_bound
    check = f"the residue identity for p={p}, nu={nu} cannot be checked on {report.count} zeros"
    _require_budget_below(budget, report.lhs, check, "lhs")
    rhs = report.partial_rhs + report.tail_estimate
    named = ("tail_bound", report.tail_bound), ("rounding", report.rounding)
    return Check(report.lhs, rhs, abs(report.lhs - rhs), named, budget)


def _residue_tail(nu: float, p: float, count: int) -> tuple[float, float]:
    """sum_{k > count} xi_k**-(p+1) R(xi_k), R = J_{nu+p}/J_{nu+1}, over the
    zeros of J_nu, and a bound on its error. At a zero Hankel's expansion
    (DLMF 10.17.3) gives P_nu cos w = Q_nu sin w, and w falls by p pi/2 from
    order nu to nu + p. So with c = cos(p pi/2), s = sin(p pi/2) and h = P + Q,
    whose P is even and Q odd in t = 1/xi, R = sum_j r_j t^j, r_j = s V_j for
    even j and -c V_j for odd j: V = U / D, U is the even part of
    h_{nu+p}(t) h_nu(t) plus the odd part of h_{nu+p}(t) h_nu(-t), and D the
    even part of h_{nu+1}(t) h_nu(t). V is exact on the binary64 nu and p (on
    floats it cancels: r_6 is 13 times off at nu = 2000), and each r_j is
    rounded once; c and s are exact at integer p, where R ends at j = p - 1.
    The tail is sum_j r_j T_j, T_j the `_power_tail` at e = p + 1 + j. Its
    bound adds the last two terms (one of each parity), |r_j| times T_j's
    bound, 8 eps |V_j| T_j for the roundings, and eps e |r_j| T_j
    (log beta + 1/(e - 1)), beta = beta_(count+1), for the rounding of e. Where
    p + 1 rounds to 1 the bound is infinite."""
    if p + 1.0 == 1.0:
        return 0.0, math.inf
    angle = math.fmod(p, 4.0) * math.pi / 2.0  # fmod is exact, and c, s have period 4 in p
    c, s = (round(f(angle)) if p == int(p) else f(angle) for f in (math.cos, math.sin))
    # the terms of R kept: where beta passes 40 max(nu, 1) and p (2 nu + p),
    # the last two are about 100 times below the two before (p <= 30.5, nu <= 1000)
    n, nu_q = 9, Fraction(nu)

    def h(mu):  # from t**0 up
        return [a for pair in zip(*_hankel_coefficients(nu_q + mu)) for a in pair][:n]

    def times_h_nu(a, sign):  # a(t) h_nu(sign t), to t**(n-1)
        return [sum(a[i] * h_nu[k - i] * sign ** (k - i) for i in range(k + 1)) for k in range(n)]

    h_nu, h_p = h(0), h(Fraction(p))
    u = [x if k % 2 else y for k, x, y in zip(range(n), times_h_nu(h_p, -1), times_h_nu(h_p, 1))]
    d = [0 if k % 2 else x for k, x in enumerate(times_h_nu(h(1), 1))]
    v = []  # U / D, where D starts with 1
    for k in range(n):
        v.append(u[k] - sum(d[i] * v[k - i] for i in range(1, k + 1)))
    log_beta = math.log(math.pi * (count + 0.75 + nu / 2.0))
    parts, bound = [], 0.0
    for j, vj in enumerate(v):
        r, e = float((-Fraction(c) if j % 2 else Fraction(s)) * vj), p + 1.0 + j
        t, t_bound = _power_tail(nu, e, count)
        parts.append(r * t)
        slope = abs(r) * e * (log_beta + 1.0 / (e - 1.0))
        bound += abs(r) * t_bound + _EPS * t * (8.0 * float(abs(vj)) + slope)
    return math.fsum(parts), bound + abs(parts[-1]) + abs(parts[-2])


def _residue_terms(pair_a: Callable, pair_b: Callable, p: float, z, accuracy, hypot: Callable):
    """The term of the residue sum at a zero z of J_nu and its error bound,
    pair_a and pair_b the J kernels at nu + p and nu + 1: at one Python float
    with math.hypot, or elementwise at a float64 array with np.hypot."""
    a, a1 = pair_a(z)
    b, b1 = pair_b(z)
    power = z ** (-(p + 1.0))
    v = power * a / b
    kernel = _kernel_ratio_error(hypot, a, a1, b, b1)
    slope = abs(a * b1 / b - a1 - 2.0 * a / z)
    err = power / abs(b) * (kernel + accuracy * slope) + 3.0 * _EPS * abs(v)
    return v, err


def _kernel_ratio_error(hypot: Callable, a, a1, b, b1):
    """|b| times the J kernel's error bound on a / b, for pairs (a, a1) and
    (b, b1) from `_jv_pair_at`: floats with math.hypot, as from the scalar
    zero finder's zeros, arrays with np.hypot, as from the block engine's.
    It is a bound up to order 1000, where the kernel's test reaches; from
    there to _JV_ORDER_CAP it is assumed, though 277 eps was measured at the
    first zero of J_4999."""
    return _JV_PAIR_ERROR * _EPS * (hypot(a, a1) + abs(a / b) * hypot(b, b1))


def verify_ratio_formula(nu: float, p: int, k: int) -> float:
    """|direct Bessel ratio - closed-form expansion| at the k-th zero of J_nu:
    the residual of `_ratio_check`, which raises where binary64 cannot check it."""
    return _ratio_check(nu, p, k).residual


def _ratio_check(nu: float, p: int, k: int) -> Check:
    """The ratio expansion at the k-th zero x of J_nu: lhs is ratio =
    J_{nu+p}(x) / J_{nu+1}(x) from the kernel, rhs the paper's expansion A_p
    exact at the binary64 nu and x (`_lommel`), and the residual
    |ratio - A_p(x)|, both rounded once.

    J_{nu+p}/J_{nu+1} = A_p + B_p J_nu/J_{nu+1} at every x (Lommel, DLMF
    10.6(ii)). As J_{nu+1} = -J'_nu at a zero of J_nu, A_p errs at x by at
    most |B_p(x)| times the zero's accuracy, to first order; the budget adds
    `_kernel_ratio_error` and two roundings. Where it reaches |ratio| no
    binary64 zero can check A_p, and NumericError is raised (`verify ratio
    --p 170 --nu 2.5` exits 4 in 0.08 s as a fresh process on a 2-core
    x86-64). Those two terms are known before A_p and B_p and are checked
    first, so where J_{nu+p} underflows at x, and ratio is 0, the check
    refuses before their exact sums, about 1 s at p = 4999, nu = 0, k = 1."""
    if k < 1 or p < 1:
        raise NumericError(f"p and k must be >= 1, got p={p}, k={k}")
    pair_a, pair_b = _jv_pair_at(nu + p), _jv_pair_at(nu + 1.0)
    for zeros, accuracy in _zero_blocks(nu, k):
        x, acc = float(zeros[-1]), float(accuracy[-1])
    (a, a1), (b, b1) = pair_a(x), pair_b(x)
    ratio = a / b
    kernel, rounding = _kernel_ratio_error(math.hypot, a, a1, b, b1) / abs(b), 2 * _EPS * abs(ratio)
    check = f"the ratio expansion for p={p} cannot be checked in binary64 at x={x:.6f}"
    _require_budget_below(kernel + rounding, ratio, check, "ratio")
    expansion, lommel = _lommel(p, nu, x)
    # capped at |ratio|, which is refused anyway, so that a B_p past binary64
    # (p = 400 at nu = 2.5) never meets a float
    budget = float(min(abs(lommel) * Fraction(acc), abs(ratio))) + kernel + rounding
    _require_budget_below(budget, ratio, check, "ratio")
    residual = float(abs(Fraction(ratio) - expansion))
    return Check(ratio, float(expansion), residual, (("budget", budget),), budget)


def _lommel(p: int, nu: float, x: float) -> tuple[Fraction, Fraction]:
    """A_p(x) and B_p(x) exact at the binary64 nu = c/e and x = xn/xd, each one
    integer over a power of t = e xn. Over t^(p-1) A_p's term q is (-1)^q
    C(p-1-q, q) P_q (2 xd)^(p-1-2q) t^(2q), P_q = prod_{i=q+1}^{p-q-1} (c + i e):
    as P_{q-1} = P_q (c + q e)(c + (p-q) e), one integer walked down from q_M
    gives every P_q (2 xd)^(p-1-2q), and Horner in t^2 sums the terms. B_p's
    chain r_{n+1} = (2(nu+n)/x) r_n - r_{n-1} from (1, 0) is r_n = s_n / t^n,
    s_{n+1} = 2(c + n e) xd s_n - t^2 s_{n-1}, so no step takes a gcd."""
    (c, e), (xn, xd) = nu.as_integer_ratio(), x.as_integer_ratio()
    t = e * xn
    t2, s, s0, s1 = t * t, 0, 1, 0
    prod = 1 if p % 2 else 2 * xd * (c + p // 2 * e)
    for q in range((p - 1) // 2, -1, -1):
        term = math.comb(p - 1 - q, q) * prod
        s = s * t2 + (-term if q % 2 else term)
        prod *= 4 * xd * xd * (c + q * e) * (c + (p - q) * e)
    for n in range(1, p):
        s0, s1 = s1, 2 * (c + n * e) * xd * s1 - t2 * s0
    return Fraction(s, t ** (p - 1)), Fraction(s1, t**p)
