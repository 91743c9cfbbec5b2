"""Floating-point oracle for the symbolic results: Bessel evaluation, zero
finding, tail-corrected zero sums, and numerical checks of the two
identities the solver is built on.

All routines work in binary64, which is enough to check the closed forms
away from nu = 0 too: with 100 zeros the p = 9 form matches to 1e-9
relative at nu in {0, 1/2, 1, 27/10, 10, 50} (acceptance criterion 4).
Everything here is pure given its inputs; ZeroSet wraps numpy arrays that
are treated as immutable after construction.

J_nu is evaluated by `_jv_pair`, a numpy kernel that returns J_mu and
J_{mu+1} from one three-term recurrence: Hankel's expansion and upward
steps where x >= 30 and x >= mu, Miller's backward recurrence elsewhere.
Against mpmath it is within 8 eps of the envelope for mu <= 50 and within
46 eps at x ~ mu = 1000, where scipy.special.jv is off by up to 1.6e5 eps
(at mu = 1000, x = 67385). It also spares the `zeros` and `verify`
subcommands the import of scipy.special, about 0.33 s after numpy's 0.17 s.
Its cost grows with the order, so above _JV_ORDER_CAP = 5000, where it
becomes slower than jv, scipy.special.jv is used instead; that path is
the only one to the largest orders (the zeros certify up to nu = 1e10).

The zero finder and the zero sums work over blocks of _BLOCK = 8192 zeros,
so their temporaries take a constant of about 1.2 MB whatever the count.
What grows with the count is measured by tracemalloc: 2 float64 words per
zero for bessel_zeros plus numeric_sigma (the zeros and their accuracy;
2.75 words per zero in all at 2e5 zeros) and 4 for verify_residue_identity,
which keeps each term and its error bound for the sums (4.75 at 2e5).

numpy is imported at the top of the functions that use it, never inside a
loop, and scipy only on the path above the cap, so importing this module
(and the package) loads neither: the exact routes, and with them the
`derive`, `eval`, `zeta` and `table` subcommands, run on the standard
library alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .rayleigh_core import build_ratio_expansion

if TYPE_CHECKING:
    import numpy as np

_EPS = sys.float_info.epsilon
# Every per-zero quantity is computed over blocks of this many points, so
# each float64 temporary takes 64 KB whatever the zero count (8192 timed at
# or near the best of 4096 to 32768).
_BLOCK = 8192


class NumericError(RuntimeError):
    """Numeric breakdown: bad seed, bad certification or index, bad input."""


def bessel_j(order: float, x: float) -> float:
    """J_order(x) for order >= 0, x > 0, to near machine precision.

    From `_jv_pair` (numpy alone) for order <= _JV_ORDER_CAP and from
    scipy.special.jv above it. Below x = 1e-150 the first term of the power
    series, (x/2)^order / Gamma(order+1), is J to rounding; Miller's
    recurrence, whose steps multiply by 2(order+i)/x, would overflow there.
    """
    if order < 0:
        raise NumericError(f"order must be >= 0, got {order}")
    if x <= 0:
        raise NumericError(f"x must be > 0, got {x}")
    if x < 1e-150:
        return math.exp(order * math.log(0.5 * x) - math.lgamma(order + 1.0))
    import numpy as np

    return float(_jv_pair(order, np.array([x], dtype=float))[0][0])


# Orders above this are left to scipy.special.jv. The kernel below takes
# one array step per unit of order, and at order 5000 one pair evaluation
# over 10^4 zeros costs as much as the two jv calls it replaces (0.10 s
# each on a 2-core x86-64, numpy 2.4, scipy 1.17).
_JV_ORDER_CAP = 5000.0
# Hankel's expansion is used where x >= _HANKEL_X and x >= mu; with
# _HANKEL_TERMS terms in each of P and Q its truncation error is below one
# ulp there.
_HANKEL_X = 30.0
_HANKEL_TERMS = 10
# Miller's recurrence scales a point down by 1/_BIG (exact, a power of two)
# whenever its value passes _BIG.
_BIG = 2.0**500
# Error bound of _jv_pair in units of eps * hypot(J_mu(x), J_{mu+1}(x)), as
# its test against mpmath asserts in every regime (worst measured: 46, at
# x ~ mu = 1000; 7.6 for mu <= 50).
_JV_PAIR_ERROR = 64.0


def _jv_pair(mu: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_mu(x) and J_{mu+1}(x) for mu >= 0 and an array of x > 0.

    With mu = m0 + n, n = floor(mu), both come from one three-term
    recurrence over the orders m0 + i,
    J_(v-1)(x) + J_(v+1)(x) = (2v/x) J_v(x) (DLMF 10.6.1):
    - where x >= 30 and x >= mu, Hankel's expansion gives J at orders m0 and
      m0 + 1 and n upward steps reach mu and mu + 1 (`_hankel_upward`);
    - elsewhere, Miller's backward recurrence runs from above both mu and x
      down to m0 and is normalised by a Neumann series (`_miller`).
    Each value depends on its own (mu, x) alone, never on the other points
    of the array, so a zero comes out the same whatever the count. Orders
    above _JV_ORDER_CAP go to scipy.special.jv, imported only then.
    """
    import numpy as np

    if mu > _JV_ORDER_CAP:
        from scipy.special import jv

        return jv(mu, x), jv(mu + 1.0, x)
    n = math.floor(mu)
    m0 = mu - n
    near = (x < _HANKEL_X) | (x < mu)
    if not near.any():
        return _hankel_upward(m0, n, x)
    ja, jb = np.empty_like(x), np.empty_like(x)
    ja[near], jb[near] = _miller(m0, n, x[near])
    far = ~near
    if far.any():
        ja[far], jb[far] = _hankel_upward(m0, n, x[far])
    return ja, jb


def _hankel_coefficients(nu: float) -> tuple[list[float], list[float]]:
    """Coefficients of P and Q in Hankel's expansion (DLMF 10.17.3) as
    polynomials in 1/x^2: P = sum_k (-1)^k a_2k x^-2k and
    x Q = sum_k (-1)^k a_(2k+1) x^-2k, with a_0 = 1 and
    a_k = a_(k-1) (4 nu^2 - (2k-1)^2) / (8k)."""
    a = [1.0]
    for k in range(1, 2 * _HANKEL_TERMS):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    signed = [c if k % 4 < 2 else -c for k, c in enumerate(a)]
    return signed[0::2], signed[1::2]


def _horner(coefficients: list[float], y: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] y^k"""
    out = coefficients[-1] * y
    for c in reversed(coefficients[1:-1]):
        out += c
        out *= y
    out += coefficients[0]
    return out


def _hankel_upward(m0: float, n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_(m0+n)(x) and J_(m0+n+1)(x), 0 <= m0 < 1, for x >= 30 and x >= m0 + n.

    J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - (nu/2 + 1/4) pi,
    at nu = m0 and m0 + 1, whose w differ by pi/2. cos w and sin w come from
    cos x and sin x, which numpy reduces accurately, so the rounding of
    x - (nu/2 + 1/4) pi never enters. Then n upward steps, stable for orders below
    x; each divides by x afresh, since a rounded 2/x used in every step
    would add up to hundreds of eps over a thousand steps.
    """
    import numpy as np

    y = 1.0 / (x * x)
    phase = (0.5 * m0 + 0.25) * math.pi
    cp, sp = math.cos(phase), math.sin(phase)
    cx, sx = np.cos(x), np.sin(x)
    cos_w = cx * cp + sx * sp
    sin_w = sx * cp - cx * sp
    amp = np.sqrt((2.0 / math.pi) / x)
    p0, q0 = _hankel_coefficients(m0)
    p1, q1 = _hankel_coefficients(m0 + 1.0)
    ja = amp * (_horner(p0, y) * cos_w - _horner(q0, y) / x * sin_w)
    jb = amp * (_horner(p1, y) * sin_w + _horner(q1, y) / x * cos_w)
    t = np.empty_like(x)
    for i in range(1, n + 1):
        # in place, in the order of (2 (m0 + i)) jb / x - ja
        np.multiply(jb, 2.0 * (m0 + i), out=t)
        t /= x
        t -= ja
        ja, jb, t = jb, t, ja
    return ja, jb


def _miller(m0: float, n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_(m0+n)(x) and J_(m0+n+1)(x), 0 <= m0 < 1, by Miller's backward
    recurrence (DLMF 3.6(iii)).

    Each point starts the recurrence with 1 at an offset i0 at least
    16 + 8 x^(1/3) orders above both m0 + n + 1 and x, where J has fallen
    far below an ulp of its size at the turning point, and 0 above it.
    Points that have not started yet hold 0, which the recurrence keeps
    exactly, so each point sees its own start alone. The values are then
    normalised by the Neumann series
        (x/2)^m0 = sum_k w_k J_(m0+2k)(x),
        w_0 = Gamma(m0+1), w_k = (m0+2k) Gamma(m0+k) / k!,
    which at m0 = 0 is 1 = J_0 + 2 J_2 + 2 J_4 + ...
    """
    import numpy as np

    i0 = np.floor(np.maximum(m0 + n + 1.0, x) + 16.0 + 8.0 * np.cbrt(x)).astype(np.int64)
    starts = {int(i): np.flatnonzero(i0 == i) for i in np.unique(i0)}
    top = int(i0.max())
    w = [math.gamma(m0 + 1.0)]
    g = w[0]  # Gamma(m0+k)/k!, from k = 1
    for k in range(1, top // 2 + 1):
        w.append((m0 + 2 * k) * g)
        g *= (m0 + k) / (k + 1)

    cur, above = np.zeros_like(x), np.zeros_like(x)  # J at offsets i and i + 1
    total = np.zeros_like(x)
    ja, jb = np.zeros_like(x), np.zeros_like(x)
    for i in range(top, -1, -1):
        if i in starts:
            cur[starts[i]] = 1.0
        if i == n + 1:
            jb = cur.copy()
        elif i == n:
            ja = cur.copy()
        if i % 2 == 0:
            total += w[i // 2] * cur
        if i == 0:
            break
        cur, above = (2.0 * (m0 + i)) * cur / x - above, cur
        big = np.abs(cur) > _BIG
        if big.any():
            for values in (cur, above, total, ja, jb):
                values[big] /= _BIG
    scale = (0.5 * x) ** m0 / total
    return ja * scale, jb * scale


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Ordered positive zeros of J_nu with per-zero absolute error estimates."""

    nu: float
    zeros: np.ndarray
    accuracy: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        z = self.zeros
        if len(z) == 0 or z[0] <= 0:
            raise NumericError("zero set must start with a positive zero")
        if not np.all(z[1:] > z[:-1]):
            raise NumericError("zeros must be strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)


def _mcmahon(nu: float, k) -> tuple[np.ndarray, np.ndarray]:
    """McMahon's large-k approximation to the k-th zero (DLMF 10.21.19),
    beta - (mu-1)/(8 beta) with beta = pi(k + nu/2 - 1/4) and mu = 4 nu^2,
    and the size of its next term, |4(mu-1)(7mu-31)| / (3 (8 beta)^3)."""
    import numpy as np

    mu = 4.0 * nu * nu
    beta = math.pi * (np.asarray(k, dtype=float) + nu / 2.0 - 0.25)
    next_term = np.abs(4.0 * (mu - 1.0) * (7.0 * mu - 31.0)) / (3.0 * (8.0 * beta) ** 3)
    return beta - (mu - 1.0) / (8.0 * beta), next_term


def _seeds(nu: float, k: np.ndarray) -> np.ndarray:
    """Starting points for the zeros of J_nu with indices k (ascending).

    McMahon's expansion where nu <= 1 or its next term is below 1e-3;
    elsewhere, which is a prefix of k since that term falls with k, the
    leading term of Olver's uniform expansion (DLMF 10.20, 10.21(viii)):
    nu z(zeta) with zeta = nu^(-2/3) a_k, a_k the k-th Airy zero from its
    asymptotic series (DLMF 9.9.6). With q = sqrt(z^2 - 1), z solves
    q - arctan q = w, w = (2/3)(-zeta)^(3/2), whose left side is convex and
    increasing; Newton from q = (3w)^(1/3), below the root, crosses it in
    one step and then falls onto it, to rounding in four steps.
    """
    import numpy as np

    seeds, next_term = _mcmahon(nu, k)
    if nu > 1.0:
        n = int(np.count_nonzero(next_term >= 1e-3))
        # (2/3)(-zeta)^(3/2) = (2/3) t T(t)^(3/2) / nu with a_k = -T(t),
        # t = (3 pi/8)(4k - 1), and (2/3) t = pi(k - 1/4)
        t2 = (3.0 * math.pi / 8.0 * (4.0 * k[:n] - 1.0)) ** -2
        series = 1.0 + t2 * (5.0 / 48.0 + t2 * (-5.0 / 36.0 + t2 * (77125.0 / 82944.0)))
        w = math.pi * (k[:n] - 0.25) * series**1.5 / nu
        q = np.cbrt(3.0 * w)
        for _ in range(4):
            q -= (q - np.arctan(q) - w) * (1.0 + q * q) / (q * q)
        seeds[:n] = nu * np.hypot(1.0, q)
    return seeds


def bessel_zeros(nu: float, count: int) -> ZeroSet:
    """First `count` positive zeros of J_nu.

    Every zero starts from an asymptotic seed (`_seeds`): McMahon's
    expansion where it is accurate, the leading term of Olver's uniform
    expansion elsewhere, both well within a quarter of the spacing of the
    true zero. Newton steps, at most 6, polish each zero only until its
    step |J/J'| is within half an ulp of x, typically 0 to 3 steps; each
    pass over the zeros of a block still moving is one `_jv_pair` call.
    Each zero's last evaluation certifies it against
    |J_nu(xi)| < 1e-12 * max(1, |J'_nu(xi)|), with
    J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x), and gives its accuracy
    |J/J'| + 4 eps xi. Then the index is checked twice. By Sturm
    comparison the gaps xi_{k+1} - xi_k are non-increasing for nu > 1/2,
    non-decreasing for nu < 1/2 and constant for nu = 1/2, so a gap that
    breaks this beyond the zeros' accuracy means a skipped or repeated
    zero. And since j_{nu,1} > nu (DLMF 10.21(i)), J_nu must stay positive
    from max(nu, 1) up to xi_1, which one J_nu evaluation on a grid of step
    pi/8 (less than any gap) confirms. Either failure, a seed that is not
    finite, or an order so large that a step of pi/8 no longer advances x
    in binary64, raises NumericError; a failed certificate names the worst
    zero, a failed gap check the first.

    All of this but the grid runs over blocks of _BLOCK zeros, the gap
    check over windows that reach two zeros into the block before. Every
    value depends on its own zero alone, so the result does not depend on
    the block size, and the errors are raised after the last block in the
    order one pass over all the zeros would raise them.
    """
    if nu < 0:
        raise NumericError(f"nu must be >= 0, got {nu}")
    if count < 1:
        raise NumericError(f"count must be >= 1, got {count}")
    import numpy as np

    zeros, accuracy = np.empty(count), np.empty(count)
    worst = []  # per block: the largest |J| / max(1, |J'|), its index, |J| and x
    uncertified = False
    bad_gap = None
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        x = zeros[start:stop]
        with np.errstate(all="ignore"):  # an order past binary64 seeds inf or nan
            x[:] = _seeds(nu, np.arange(start + 1, stop + 1, dtype=float))
        if not np.all(np.isfinite(x)):
            raise NumericError(f"the zeros of J_{nu} cannot be seeded in binary64")

        # one pass over the block gives every zero its J and J', then Newton
        # moves only the seeds whose step would still exceed half an ulp
        f, g = _jv_pair(nu, x)
        d = (nu / x) * f - g
        moving = np.flatnonzero(np.abs(f) > 0.5 * _EPS * x * np.abs(d))
        for _ in range(6):
            if moving.size == 0:
                break
            xs = x[moving] - f[moving] / d[moving]
            fs, gs = _jv_pair(nu, xs)
            ds = (nu / xs) * fs - gs
            x[moving], f[moving], d[moving] = xs, fs, ds
            moving = moving[np.abs(fs) > 0.5 * _EPS * xs * np.abs(ds)]

        size, scale = np.abs(f), np.maximum(1.0, np.abs(d))
        uncertified |= not np.all(size < 1e-12 * scale)
        ratio = size / scale
        i = int(np.argmax(ratio))
        worst.append((ratio[i], start + i, size[i], x[i]))
        accuracy[start:stop] = np.abs(f / d) + 4.0 * _EPS * x
        if bad_gap is None:
            lo = max(start - 2, 0)
            try:
                _check_gaps(nu, zeros[lo:stop], accuracy[lo:stop], lo)
            except NumericError as e:
                bad_gap = e

    if uncertified:
        # argmax over the block maxima: the first nan, else the first largest
        _, k, size, x = worst[int(np.argmax([w[0] for w in worst]))]
        raise NumericError(
            f"zero {k + 1} of J_{nu} failed certification: |J|={size:.3e} at x={x:.6f}"
        )
    if bad_gap is not None:
        raise bad_gap

    x0 = max(nu, 1.0)
    step = math.pi / 8.0
    if x0 + step == x0:
        raise NumericError(
            f"cannot anchor the zeros of J_{nu}: a step of pi/8 does not "
            f"advance x={x0:.6g} in binary64"
        )
    # the grid ends at least pi/16 short of xi_1, clear of the rounding of J there
    grid = x0 + step * np.arange(math.ceil((zeros[0] - x0) / step - 0.5))
    positive = _jv_pair(nu, grid)[0] > 0.0
    if not np.all(positive):
        x = grid[np.argmin(positive)]
        raise NumericError(
            f"zero 1 of J_{nu} failed the index check: J_nu is not positive "
            f"at x={x:.6f} below it"
        )
    return ZeroSet(nu=float(nu), zeros=zeros, accuracy=accuracy)


def _check_gaps(nu: float, zeros: np.ndarray, accuracy: np.ndarray, offset: int = 0) -> None:
    """Raise NumericError unless the gaps between consecutive zeros change
    monotonically in the direction Sturm comparison fixes for this order,
    to within a tolerance built from the accuracy of the three zeros that
    define two neighbouring gaps. zeros[0] is zero offset + 1 of J_nu."""
    import numpy as np

    gaps = np.diff(zeros)
    change = np.diff(gaps)  # g_{k+1} - g_k
    tol = 2.0 * (accuracy[:-2] + 2.0 * accuracy[1:-1] + accuracy[2:])
    if nu > 0.5:
        bad = change > tol
    elif nu < 0.5:
        bad = change < -tol
    else:
        bad = np.abs(change) > tol
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericError(
            f"zero {offset + k + 3} of J_{nu} failed the index check: gap "
            f"{gaps[k + 1]:.6f} after {gaps[k]:.6f} at x={zeros[k + 2]:.6f}"
        )


@dataclass(frozen=True)
class TailedSum:
    """Truncated zero sum with an estimated tail added on.

    value = partial + tail_estimate; tail_bound is a best-effort bound on
    |true tail - tail_estimate| from the integral bracket of the remainder
    plus an allowance for the asymptotic zero approximation used in the
    explicit continuation terms.
    """

    partial: float
    tail_estimate: float
    tail_bound: float
    value: float


# Zeros past the last computed one that numeric_sigma sums from McMahon's
# expansion before it integrates the rest of the tail.
_TAIL_TERMS = 2000


def numeric_sigma(nu: float, p: float, zeros: ZeroSet) -> TailedSum:
    """sum_k xi_k**(-2p) from computed zeros plus a tail correction.

    The tail beyond the last computed zero is summed explicitly for
    _TAIL_TERMS further zeros approximated by the asymptotic formula, and
    the remainder beyond those is integrated: with g(k) = (pi(k+c))**(-2p),
    c = nu/2 - 1/4, the midpoint rule gives
    sum_{k>N} g(k) ~ pi**(-2p) (N + c + 1/2)**(1-2p) / (2p - 1),
    bracketed above and below by shifting the start point by half a step.
    """
    if p < 1:
        raise NumericError(f"p must be >= 1 for convergence, got {p}")
    if abs(nu - zeros.nu) > 1e-12 * max(1.0, abs(nu)):
        raise NumericError(f"order mismatch: nu={nu} but zero set has nu={zeros.nu}")
    import numpy as np

    z = zeros.zeros
    big_k = len(z)
    powers = ((z[i : i + _BLOCK] ** (-2.0 * p)).tolist() for i in range(0, big_k, _BLOCK))
    partial = math.fsum(chain.from_iterable(powers))
    c = nu / 2.0 - 0.25

    ks = np.arange(big_k + 1, big_k + _TAIL_TERMS + 1, dtype=float)
    xt, delta = _mcmahon(nu, ks)
    explicit = math.fsum(xt ** (-2.0 * p))
    # error allowance: next asymptotic correction, propagated through x**(-2p)
    allowance = float(np.sum(2.0 * p * xt ** (-2.0 * p - 1.0) * delta))

    n_rest = big_k + _TAIL_TERMS
    scale = math.pi ** (-2.0 * p) / (2.0 * p - 1.0)
    mid = scale * (n_rest + c + 0.5) ** (1.0 - 2.0 * p)
    upper = scale * (n_rest + c) ** (1.0 - 2.0 * p)
    lower = scale * (n_rest + c + 1.0) ** (1.0 - 2.0 * p)

    tail_estimate = explicit + mid
    tail_bound = (upper - lower) + allowance
    return TailedSum(
        partial=partial,
        tail_estimate=tail_estimate,
        tail_bound=tail_bound,
        value=partial + tail_estimate,
    )


def ratio_at_zero(nu: float, p: int, zero: float) -> float:
    """J_{nu+p}(zero) / J_{nu+1}(zero) for a zero of J_nu.

    At a true simple zero of J_nu the denominator equals -J'_nu(zero) and
    sits on the oscillation envelope, so a tiny denominator means the input
    was not actually a zero of J_nu.
    """
    if p < 1:
        raise NumericError(f"p must be a positive integer, got {p}")
    den = bessel_j(nu + 1, zero)
    if abs(den) < 1e-6:
        raise NumericError(
            f"denominator underflow: |J_(nu+1)({zero})| = {abs(den):.3e}; "
            "input is not a zero of J_nu"
        )
    return bessel_j(nu + p, zero) / den


def residue_identity_lhs(nu: float, p: float) -> float:
    """Gamma(nu+1) / (2**(p+1) Gamma(nu+p+1)) via real log-gamma."""
    return math.exp(
        math.lgamma(nu + 1.0) - (p + 1.0) * math.log(2.0) - math.lgamma(nu + p + 1.0)
    )


def residue_tail_scale(nu: float, p: float, terms: int) -> float:
    """Scale of the neglected remainder after `terms` zeros in the residue
    sum: the terms behave like xi**-(p+1) with |ratio factor| <= 1, and
    integrating (pi(k+c))**-(p+1) past k = terms gives
    pi**-(p+1) (terms + c)**(-p) / p."""
    c = nu / 2.0 - 0.25
    return math.pi ** (-(p + 1.0)) * (terms + c) ** (-p) / p


@dataclass(frozen=True)
class ResidueReport:
    """Result of a residue-identity check.

    rounding bounds the part of the residual that binary64 evaluation
    explains: the error of lhs and of every summed term, from the
    kernel's stated accuracy and each zero's accuracy estimate."""

    lhs: float
    partial_rhs: float
    residual: float
    converging: bool
    rounding: float


def verify_residue_identity(nu: float, p: float, terms: int) -> ResidueReport:
    """Check Gamma(nu+1)/(2**(p+1) Gamma(nu+p+1))
    = sum_k xi_k**-(p+1) J_{nu+p}(xi_k)/J_{nu+1}(xi_k) numerically.

    Valid for any real p > 0, which is what makes it an independent check:
    the symbolic route needs integer p, this one does not. converging is
    True when the residual shrank on doubling the number of terms from
    terms//2 to terms.

    rounding adds up, to first order:
    - lhs: eps * (2 E + 1) relative, E = |lgamma(nu+1)| + (p+1) log 2 +
      |lgamma(nu+p+1)|: an ulp of each of the three parts of the exponent,
      as much again for the two subtractions, and one rounding of exp;
    - each term t = xi**-(p+1) A/B, A = J_{nu+p}(xi), B = J_{nu+1}(xi):
      the kernel's error, _JV_PAIR_ERROR eps times hypot(A, A1) and
      hypot(B, B1) with A1 = J_{nu+p+1}(xi), B1 = J_{nu+2}(xi), through
      A/B; the zero's accuracy times
      |dt/dxi| = xi**-(p+1) |A B1/B - A1 - 2A/xi| / |B|;
      and three roundings for the power, product and quotient;
    - one rounding of the fsum.
    Above _JV_ORDER_CAP, where scipy's jv has no stated bound, the same
    kernel bound is assumed.
    """
    if p <= 0:
        raise NumericError(f"p must be > 0, got {p}")
    if terms < 2:
        raise NumericError(f"terms must be >= 2, got {terms}")
    import numpy as np

    zs = bessel_zeros(nu, terms)
    vals, terms_err = np.empty(terms), np.empty(terms)
    for i in range(0, terms, _BLOCK):
        block = slice(i, i + _BLOCK)
        z = zs.zeros[block]
        a, a1 = _jv_pair(nu + p, z)
        b, b1 = _jv_pair(nu + 1.0, z)
        power = z ** (-(p + 1.0))
        v = vals[block] = power * a / b
        kernel = _JV_PAIR_ERROR * _EPS * (np.hypot(a, a1) + np.abs(a / b) * np.hypot(b, b1))
        slope = np.abs(a * b1 / b - a1 - 2.0 * a / z)
        terms_err[block] = (
            power / np.abs(b) * (kernel + zs.accuracy[block] * slope) + 3.0 * _EPS * np.abs(v)
        )
    lhs = residue_identity_lhs(nu, p)
    half = terms // 2
    partial_half = math.fsum(vals[:half])
    partial = math.fsum(vals)
    residual_half = abs(lhs - partial_half)
    residual = abs(lhs - partial)

    exponent = abs(math.lgamma(nu + 1.0)) + (p + 1.0) * math.log(2.0) + abs(
        math.lgamma(nu + p + 1.0)
    )
    lhs_err = lhs * _EPS * (2.0 * exponent + 1.0)
    rounding = lhs_err + float(np.sum(terms_err)) + _EPS * abs(partial)
    return ResidueReport(
        lhs=lhs,
        partial_rhs=partial,
        residual=residual,
        converging=residual < residual_half,
        rounding=rounding,
    )


def verify_ratio_formula(nu: float, p: int, k: int) -> float:
    """|direct Bessel ratio - closed-form expansion| at the k-th zero of J_nu."""
    if k < 1:
        raise NumericError(f"k must be >= 1, got {k}")
    zs = bessel_zeros(nu, k)
    xi = float(zs.zeros[k - 1])
    expansion = build_ratio_expansion(p)
    return abs(ratio_at_zero(nu, p, xi) - expansion.evaluate_float(nu, xi))
