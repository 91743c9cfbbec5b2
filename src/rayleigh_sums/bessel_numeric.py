"""Floating-point oracle for the symbolic results: Bessel evaluation, zero
finding, tail-corrected zero sums, and numerical checks of the two
identities the solver is built on.

All routines work in binary64, which is enough to check the closed forms
away from nu = 0 too: with 100 zeros the p = 9 form matches to 1e-9
relative at nu in {0, 1/2, 1, 27/10, 10, 50} (acceptance criterion 4).
Everything here is pure given its inputs; ZeroSet wraps numpy arrays that
are treated as immutable after construction.

numpy and scipy.special are imported at the top of the functions that use
them, never inside a scan or Newton loop, so importing this module (and the
package) loads neither: the exact routes, and with them the `derive`,
`eval`, `zeta` and `table` subcommands, run on the standard library alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .rayleigh_core import build_ratio_expansion

if TYPE_CHECKING:
    import numpy as np

_EPS = sys.float_info.epsilon


class NumericError(RuntimeError):
    """Numeric breakdown: bracketing failure, bad certification, bad input."""


def bessel_j(order: float, x: float) -> float:
    """J_order(x) for order >= 0, x > 0, to near machine precision."""
    if order < 0:
        raise NumericError(f"order must be >= 0, got {order}")
    if x <= 0:
        raise NumericError(f"x must be > 0, got {x}")
    from scipy.special import jv

    return float(jv(order, x))


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
        if not np.all(np.diff(z) > 0):
            raise NumericError("zeros must be strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)


def _mcmahon(nu: float, k) -> np.ndarray:
    """Large-k zero approximation pi(k + nu/2 - 1/4) - (mu-1)/(8 beta)."""
    import numpy as np

    mu = 4.0 * nu * nu
    beta = math.pi * (np.asarray(k, dtype=float) + nu / 2.0 - 0.25)
    return beta - (mu - 1.0) / (8.0 * beta)


def bessel_zeros(nu: float, count: int) -> ZeroSet:
    """First `count` positive zeros of J_nu.

    Small k: bracket by scanning for sign changes from max(nu, 1) in steps
    of pi/8, then polish with Newton iterations safeguarded by the bracket
    (the sign at the bracket's low end is pinned at scan time, so a step
    that leaves the open interval falls back to bisection without ever
    re-testing the sign at a converged point). An order so large that a
    step of pi/8 no longer advances x raises NumericError. Large k: start
    from McMahon's expansion and take Newton steps, at most 6, on each zero
    only until its step |J/J'| is within half an ulp of x; the seeds are
    within a few percent of the spacing, so 0 to 3 steps suffice. Each
    zero's last evaluation certifies it against
    |J_nu(xi)| < 1e-12 * max(1, |J'_nu(xi)|), with
    J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x), and gives its accuracy
    |J/J'| + 4 eps xi. Finally the index is checked: by Sturm comparison
    the gaps xi_{k+1} - xi_k are non-increasing for nu > 1/2,
    non-decreasing for nu < 1/2 and constant for nu = 1/2, so a gap that
    breaks this beyond the zeros' accuracy means a skipped or repeated
    zero and raises NumericError.
    """
    if nu < 0:
        raise NumericError(f"nu must be >= 0, got {nu}")
    if count < 1:
        raise NumericError(f"count must be >= 1, got {count}")
    import numpy as np
    from scipy.special import jv

    zeros = np.empty(count)
    n_scan = min(count, max(10, int(math.ceil(nu)) + 5))

    # bracket the first n_scan zeros by scanning
    found: list[tuple[float, float, float]] = []
    x = max(nu, 1.0)
    step = math.pi / 8.0
    f_prev = float(jv(nu, x))
    limit = x + math.pi * (n_scan + nu / 2.0 + 4.0) + 16.0
    while len(found) < n_scan:
        if x > limit:
            raise NumericError(
                f"failed to bracket zero {len(found) + 1} of J_{nu}: "
                f"no sign change up to x={x:.3f}"
            )
        x2 = x + step
        if x2 == x:
            raise NumericError(
                f"cannot scan for zeros of J_{nu}: a step of pi/8 does not "
                f"advance x={x:.6g} in binary64"
            )
        f2 = float(jv(nu, x2))
        if f_prev == 0.0:
            found.append((x - step / 2.0, x + step / 2.0, float(jv(nu, x - step / 2.0))))
        elif f_prev * f2 < 0.0:
            found.append((x, x2, f_prev))
        x, f_prev = x2, f2

    for i, (lo, hi, flo) in enumerate(found):
        xk = 0.5 * (lo + hi)
        for _ in range(80):
            f = float(jv(nu, xk))
            if f == 0.0:
                break
            if (f > 0.0) == (flo > 0.0):
                lo = xk
            else:
                hi = xk
            d = (nu / xk) * f - float(jv(nu + 1, xk))
            xn = xk - f / d if d != 0.0 else 0.5 * (lo + hi)
            if not (lo < xn < hi):
                xn = 0.5 * (lo + hi)
            # sub-ulp step: the iterate stopped moving at float resolution
            if abs(xn - xk) <= 0.25 * _EPS * xk:
                xk = xn
                break
            xk = xn
        zeros[i] = xk

    # remaining zeros from asymptotic seeds; one pass over the whole array
    # gives every zero its J and J', then Newton moves only the seeds whose
    # step would still exceed half an ulp
    zeros[n_scan:] = _mcmahon(nu, np.arange(n_scan + 1, count + 1, dtype=float))
    f = jv(nu, zeros)
    d = (nu / zeros) * f - jv(nu + 1, zeros)
    tail = slice(n_scan, count)
    moving = np.flatnonzero(np.abs(f[tail]) > 0.5 * _EPS * zeros[tail] * np.abs(d[tail]))
    moving += n_scan
    for _ in range(6):
        if moving.size == 0:
            break
        xs = zeros[moving] - f[moving] / d[moving]
        fs = jv(nu, xs)
        ds = (nu / xs) * fs - jv(nu + 1, xs)
        zeros[moving], f[moving], d[moving] = xs, fs, ds
        moving = moving[np.abs(fs) > 0.5 * _EPS * xs * np.abs(ds)]

    if not np.all(np.abs(f) < 1e-12 * np.maximum(1.0, np.abs(d))):
        worst = int(np.argmax(np.abs(f) / np.maximum(1.0, np.abs(d))))
        raise NumericError(
            f"zero {worst + 1} of J_{nu} failed certification: "
            f"|J|={abs(f[worst]):.3e} at x={zeros[worst]:.6f}"
        )
    accuracy = np.abs(f / d) + 4.0 * _EPS * zeros
    _check_gaps(nu, zeros, accuracy)
    return ZeroSet(nu=float(nu), zeros=zeros, accuracy=accuracy)


def _check_gaps(nu: float, zeros: np.ndarray, accuracy: np.ndarray) -> None:
    """Raise NumericError unless the gaps between consecutive zeros change
    monotonically in the direction Sturm comparison fixes for this order,
    to within a tolerance built from the accuracy of the three zeros that
    define two neighbouring gaps."""
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
            f"zero {k + 3} of J_{nu} failed the index check: gap "
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


def numeric_sigma(nu: float, p: float, zeros: ZeroSet, tail_terms: int = 2000) -> TailedSum:
    """sum_k xi_k**(-2p) from computed zeros plus a tail correction.

    The tail beyond the last computed zero is summed explicitly for
    `tail_terms` further zeros approximated by the asymptotic formula, and
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
    partial = math.fsum(z ** (-2.0 * p))
    big_k = len(z)
    c = nu / 2.0 - 0.25
    mu = 4.0 * nu * nu

    ks = np.arange(big_k + 1, big_k + tail_terms + 1, dtype=float)
    beta = math.pi * (ks + c)
    xt = _mcmahon(nu, ks)
    explicit = math.fsum(xt ** (-2.0 * p))
    # error allowance: next asymptotic correction, propagated through x**(-2p)
    delta = np.abs(4.0 * (mu - 1.0) * (7.0 * mu - 31.0)) / (3.0 * (8.0 * beta) ** 3)
    allowance = float(np.sum(2.0 * p * xt ** (-2.0 * p - 1.0) * delta))

    n_rest = big_k + tail_terms
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
    """Result of a residue-identity check."""

    lhs: float
    partial_rhs: float
    residual: float
    converging: bool


def verify_residue_identity(nu: float, p: float, terms: int) -> ResidueReport:
    """Check Gamma(nu+1)/(2**(p+1) Gamma(nu+p+1))
    = sum_k xi_k**-(p+1) J_{nu+p}(xi_k)/J_{nu+1}(xi_k) numerically.

    Valid for any real p > 0, which is what makes it an independent check:
    the symbolic route needs integer p, this one does not. converging is
    True when the residual shrank on doubling the number of terms from
    terms//2 to terms.
    """
    if p <= 0:
        raise NumericError(f"p must be > 0, got {p}")
    if terms < 2:
        raise NumericError(f"terms must be >= 2, got {terms}")
    from scipy.special import jv

    zs = bessel_zeros(nu, terms)
    z = zs.zeros
    vals = z ** (-(p + 1.0)) * jv(nu + p, z) / jv(nu + 1, z)
    lhs = residue_identity_lhs(nu, p)
    half = terms // 2
    partial_half = math.fsum(vals[:half])
    partial = math.fsum(vals)
    residual_half = abs(lhs - partial_half)
    residual = abs(lhs - partial)
    return ResidueReport(
        lhs=lhs,
        partial_rhs=partial,
        residual=residual,
        converging=residual < residual_half,
    )


def verify_ratio_formula(nu: float, p: int, k: int) -> float:
    """|direct Bessel ratio - closed-form expansion| at the k-th zero of J_nu."""
    if k < 1:
        raise NumericError(f"k must be >= 1, got {k}")
    zs = bessel_zeros(nu, k)
    xi = float(zs.zeros[k - 1])
    expansion = build_ratio_expansion(p)
    return abs(ratio_at_zero(nu, p, xi) - expansion.evaluate_float(nu, xi))
