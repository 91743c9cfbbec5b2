"""Closed forms for sigma(p, nu) = sum_k xi_{nu,k}**(-2p) over the positive
zeros xi_{nu,k} of the Bessel function J_nu.

The paper's method combines two exact ingredients. First, at any zero xi of
J_nu the ratio J_{nu+p}(xi)/J_{nu+1}(xi) expands as a polynomial in 2/xi,

    sum_{q=0}^{q_M} (-1)^q [(p-1)-q]! / ([(p-1)-2q]! q!)
                    * prod_{i=q+1}^{p-q-1}(nu+i) * (2/xi)**((p-1)-2q),

with q_M = floor((p-1)/2). Second, summing the
weighted ratios over all zeros ties a linear combination of the sigma(p-q)
to a Gamma-function constant:

    sum_{q=0}^{q_M} (-1)^q 4**(-q) c_q(nu) sigma(p-q, nu)
        = 4**(-p) / prod_{i=1}^{p}(nu+i),
    c_q(nu) = [(p-1)-q]! / ([(p-1)-2q]! q!) * prod_{i=q+1}^{p-q-1}(nu+i).

Each new p introduces exactly one new unknown, so the system is triangular
and solves iteratively (derive_sigma_triangular). That solve is kept as the
reproduced method and as the oracle of the tests. build_ratio_expansion is
the one place that builds the (-1)^q c_q(nu) polynomials: the solve and the
identity check (sums_identity_defect) take them from there. The products
nest, c_q's being c_{q+1}'s times (nu+q+1)(nu+p-q-1), so one integer list
walked down from q_M builds them all with fewer than p multiplications by a
(nu+m); bessel_numeric._lommel sums the same terms at a point on integers.
The solve and the identity check share the identity's terms
(_identity_terms) and their combination over the factored common denominator
(_over_lcd): the check keeps the q = 0 term the solve isolates, so it costs
about one solve step, not a product of every expanded denominator.

Everything else runs one recurrence, Kishore's (N. Kishore, "The Rayleigh
function", Proc. AMS 14 (1963) 527-533), over one known denominator:

    (nu+n) sigma(n, nu) = sum_{k=1}^{n-1} sigma(k, nu) sigma(n-k, nu),
    sigma(n, nu) = x_n / (4**n prod_{m<=n} (nu+m)**floor(n/m)), x_n integral.

derive_sigma runs it on integer polynomials in nu for `derive` and `table`
(the layer rayleigh_core.derive_p60_s reads 0.28-0.32 s in BENCH_54.json), and
sigma_value on integers for `eval --exact`, `verify sigma` and zeta (about
2 ms for sigma(60, 17/3)). _sigma_enclosure runs it on intervals rounded
outward, for float `eval` and the zeros' index check. Both solvers end in
one normalisation, and the reduced denominator is 2**a times that product
of shifts (checked to p = 80 by the tests). So nu alone decides whether
sigma(p, nu) has a pole, at nu in {-1..-p}, and sigma_value refuses one
before any arithmetic.

Every polynomial loop here, the solvers' and the ratio routes', runs on plain
integer coefficient lists with the kernels of exact_algebra, multiplying by
each (nu+m) in place, and wraps only its results in Poly, a value with no
arithmetic. The solvers write their results into a SigmaTable, a dict from
p to closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_algebra import (
    FactoredRationalFn,
    PoleError,
    Poly,
    _iadd,
    _imul,
    _imul_linear,
    _iscale,
    _isyndiv,
    _Record,
)

# ---------------------------------------------------------------------------
# ratio expansion


class RatioExpansion(_Record):
    """J_{nu+p}(xi)/J_{nu+1}(xi) at a zero xi of J_nu, as
    sum over terms (q, coeff, power) of coeff(nu) * (2/xi)**power.

    Fields: p: int, terms: tuple[tuple[int, Poly, int], ...]."""

    __slots__ = ("p", "terms")

    def u_coefficients(self) -> tuple[Poly, ...]:
        """Polynomial in u = 1/xi: entry j is the nu-polynomial at u**j."""
        # entry p-1, the q = 0 term prod(nu+i), is never zero
        out = [Poly()] * self.p
        for _, coeff, power in self.terms:
            out[power] = Poly(tuple(_iscale(coeff.coeffs, 2**power)))
        return tuple(out)


def build_ratio_expansion(p: int) -> RatioExpansion:
    """The expansion's terms (q, (-1)^q c_q(nu), (p-1)-2q) for q = 0..q_M.

    The products nest, so one list walked down from q_M builds them all: it
    starts as q_M's, 1 for odd p and (nu+q_M+1) for even p, and each lower
    q multiplies it in place by (nu+q+1)(nu+p-q-1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    qm = (p - 1) // 2
    prod = [1] if p % 2 else [qm + 1, 1]
    terms = []
    for q in range(qm, -1, -1):
        if q < qm:
            _imul_linear(_imul_linear(prod, q + 1), p - q - 1)
        c = (-1) ** q * math.comb((p - 1) - q, q)
        terms.append((q, Poly(tuple(_iscale(prod, c))), (p - 1) - 2 * q))
    return RatioExpansion(p=p, terms=tuple(reversed(terms)))


def ratio_by_recurrence(p: int) -> tuple[Poly, ...]:
    """Independent route to the same ratio: iterate the three-term recurrence
    J_{nu+n+1}(xi) = (2(nu+n)/xi) J_{nu+n}(xi) - J_{nu+n-1}(xi) on ratio
    chains started from r_0 = J_nu/J_{nu+1} = 0 (xi is a zero of J_nu) and
    r_1 = 1. Returns the u-coefficient list matching u_coefficients()."""
    if p < 1:
        raise ValueError("p must be >= 1")
    rprev: list[list[int]] = []
    rcur: list[list[int]] = [[1]]
    for n in range(1, p):
        # r_{n+1} = 2(nu+n) u r_n - r_{n-1}: its top entry, 2(nu+n) times
        # r_n's, is never zero, and r_{n-1} is two entries shorter
        nxt = [[]] + [_imul_linear(_iscale(c, 2), n) for c in rcur]
        for i, c in enumerate(rprev):
            nxt[i] = _iadd(nxt[i], _iscale(c, -1))
        rprev, rcur = rcur, nxt
    return tuple(Poly(tuple(c)) for c in rcur)


# ---------------------------------------------------------------------------
# closed-form table


class SigmaTable(dict):
    """A dict p -> closed form of sigma(p, nu), extended on demand by the
    solvers.

    Keys stay contiguous 1..len(table) because the solvers fill every gap
    they need. Values, once written, are immutable FactoredRationalFn safe
    to share."""


# a term num / (2**two * prod_m (nu+m)**sh[m]) as (num, two, sh)
_Term = tuple[list[int], int, dict[int, int]]


def _entry_parts(f: FactoredRationalFn) -> _Term:
    return list(f.numerator.int_coeffs()), f.two_exponent, dict(f.shift_factors)


def _normal_form(num: list[int], two: int, sh: dict[int, int], p: int) -> FactoredRationalFn:
    """Reduce num / (2**two * prod_m (nu+m)**sh[m]) to the solver normal form.

    Both derivation routes end here, so the normal form is decided in one
    place: the numerator must be nonzero with a positive leading coefficient
    (ArithmeticError otherwise), every shift (nu+m) that divides it exactly
    is cancelled by synthetic division, and the largest power of two shared
    by its coefficients and the denominator is cancelled.
    """
    if not num or num[-1] < 0:
        raise ArithmeticError(f"normalization failed at p={p}: bad numerator")
    for m in sorted(sh):
        while sh[m] > 0:
            qt = _isyndiv(num, m)
            if qt is None:
                break
            num = qt
            sh[m] -= 1
    g = 0
    for c in num:
        g = math.gcd(g, c)
    k = min((g & -g).bit_length() - 1, two)
    if k:
        num = [c >> k for c in num]
        two -= k
    return FactoredRationalFn(
        numerator=Poly(tuple(num)),
        two_exponent=two,
        shift_factors=tuple(sorted((m, e) for m, e in sh.items() if e > 0)),
    )


# ---------------------------------------------------------------------------
# Kishore's recurrence


def _term_shares(n: int) -> list[tuple[int, list[int], list[int]]]:
    """Term k's share of the known denominator at step n of Kishore's
    recurrence, as (k, joins, leaves) for k = n//2 down to 1: the shifts
    m <= n/2 that term k lacks and term k+1 does not, and those that term
    k+1 lacks and term k does not. Term n//2 lacks exactly its joins.

    If sigma(j) = x_j / (4**j prod_m (nu+m)**floor(j/m)) for j < n, then
    sigma(k) sigma(n-k) carries (nu+m)**(floor(k/m) + floor((n-k)/m)). That
    is floor(n/m) - 1 when term k lacks (nu+m), i.e. when floor(n/m) >
    floor(k/m) + floor((n-k)/m), i.e. when k mod m > n mod m, and
    floor(n/m) otherwise; dividing by (nu+n) supplies m = n. So x_n is
    integral: the sum over k <= n-k of x_k x_{n-k} (doubled unless
    k == n-k) times the shifts term k lacks. Above n/2 those are exactly
    n-k < m < n, one factor (nu+n-k) more for term k+1 than for term k, so
    derive_sigma (on integer polynomials) and sigma_value (on integers) sum
    Horner-style from k = n//2 down, multiplying by (nu+n-k) at step k.

    For m <= n/2 the k that lack (nu+m) are the runs q m + r < k < (q+1) m,
    r = n mod m, so walking k down, m joins at the top of each run and
    leaves below its bottom: O(n log n) changes in all, where testing every
    (k, m) pair takes O(n^2).
    """
    half = n // 2
    joins: list[list[int]] = [[] for _ in range(half + 1)]
    leaves: list[list[int]] = [[] for _ in range(half + 1)]
    for m in range(2, half + 1):
        r = n % m
        if r == m - 1:  # no run
            continue
        # joins at each top, k = -1 mod m, and at n//2 inside a run; leaves
        # just below each bottom, at k = r mod m
        for shifts in joins[m - 1 :: m]:
            shifts.append(m)
        if r < half % m < m - 1:
            joins[half].append(m)
        for shifts in leaves[r or m : half : m]:
            shifts.append(m)
    return [(k, joins[k], leaves[k]) for k in range(half, 0, -1)]


def derive_sigma(table: SigmaTable, p: int) -> FactoredRationalFn:
    """Fill the table up through p and return sigma(p, nu), by Kishore's
    recurrence (see _term_shares) on integer polynomials in nu.

    The paper's triangular solve is kept as derive_sigma_triangular, the
    test oracle; both end in _normal_form, so they return identical forms.
    Only new entries are reduced: entries already in the table are lifted
    back over the known denominator, so extending a table costs only the
    new steps.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p in table:
        return table[p]
    x: list[list[int]] = [[]]
    for n in range(1, p + 1):
        if n in table:
            num, two, sh = _entry_parts(table[n])
            for m in range(1, n + 1):
                for _ in range(n // m - sh.get(m, 0)):
                    _imul_linear(num, m)
            x.append([c << (2 * n - two) for c in num])
            continue
        xn = [1] if n == 1 else []
        lower: set[int] = set()
        for k, joins, leaves in _term_shares(n):
            lower.difference_update(leaves)
            lower.update(joins)
            _imul_linear(xn, n - k)
            term = _imul(x[k], x[n - k])
            for m in lower:
                _imul_linear(term, m)
            xn = _iadd(xn, term if 2 * k == n else [c << 1 for c in term])
        x.append(xn)
        table[n] = _normal_form(xn, 2 * n, {m: n // m for m in range(1, n + 1)}, n)
    return table[p]


def sigma_value(p: int, nu: Fraction | int) -> Fraction:
    """Exact sigma(p, nu) at one rational nu, without deriving its closed form.

    Runs derive_sigma's recurrence on integers. With nu = a/b in lowest terms
    and c_m = a + m b = b (nu+m), sigma(n) = b**n x_n / (4**n prod_{m<=n}
    c_m**floor(n/m)), where x_1 = 1 and x_n is b times the sum of
    _term_shares with each (nu+m) taken as c_m. Only the result is reduced,
    3 to 5 times faster than the recurrence on Fractions, whose every
    operation takes a gcd.

    That denominator has every floor(p/m) >= 1, so nu alone decides whether
    sigma(p) has a pole: it does exactly at nu in {-1..-p}, where some
    c_m == 0. Such a nu raises PoleError(nu), with nu as the caller gave it,
    before any step of the recurrence runs.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a, b = Fraction(nu).as_integer_ratio()
    c = [a + m * b for m in range(p + 1)]
    if 0 in c[1:]:
        raise PoleError(nu)
    x = [0, 1]
    for n in range(2, p + 1):
        total = 0
        share = 1  # the product of c_m over the shifts term k lacks
        for k, joins, leaves in _term_shares(n):
            for m in leaves:
                share //= c[m]
            for m in joins:
                share *= c[m]
            term = x[k] * x[n - k] * share
            total = total * c[n - k] + (term if 2 * k == n else 2 * term)
        x.append(b * total)
    den = 4**p
    for m in range(1, p + 1):
        den *= c[m] ** (p // m)
    return Fraction(b**p * x[p], den)


def _sigma_enclosure(p: int, nu: Fraction | float, doublings: int = 0) -> tuple[int, int, int]:
    """Integers (lo, hi, e) with lo 2**e <= sigma(p, nu) <= hi 2**e, nu = a/b > -1.

    Kishore's recurrence on s_n = 4**n sigma(n): s_1 = b/(a + b), (a + n b) s_n
    = b sum_{k<n} s_k s_{n-k}. All s_k > 0, so it runs on each end alone, exact
    but for a floor (lo) or ceiling (hi) at the division, which also scales hi_n
    to (64 + bit_length(p)) 2**doublings bits; the ends stay a few p units apart.
    16 ms at p = 330, nu = 1e-20, where sigma_value takes 18 s (in process)."""
    a, b = nu.as_integer_ratio()
    bits = (64 + p.bit_length()) << doublings
    lo, hi, ex = [0], [0], [0]
    for n in range(1, p + 1):
        half = range(1, n // 2 + 1)
        low = min((ex[k] + ex[n - k] for k in half), default=0)
        slo = shi = int(n == 1)
        for k in half:
            w = (1 if 2 * k == n else 2) << ex[k] + ex[n - k] - low
            slo += w * lo[k] * lo[n - k]
            shi += w * hi[k] * hi[n - k]
        t = bits - (shi * b).bit_length() + (a + n * b).bit_length()
        num, den = (b << t, a + n * b) if t >= 0 else (b, (a + n * b) << -t)
        lo.append(slo * num // den)
        hi.append(-(-shi * num // den))
        ex.append(low - t)
    return lo[p], hi[p], ex[p] - 2 * p


# ---------------------------------------------------------------------------
# the paper's triangular solve, and the checks


def _identity_terms(table: SigmaTable, p: int, q0: int) -> list[_Term]:
    """The identity at p as terms that sum to zero: the Gamma constant
    4**(-p) / prod_{i=1}^{p}(nu+i) and, for q0 <= q <= q_M, the table's
    -(-1)^q 4**(-q) c_q(nu) sigma(p-q). With q0 = 1 they sum to
    c_0(nu) sigma(p) instead, which is what the triangular solve needs."""
    terms = [([1], 2 * p, dict.fromkeys(range(1, p + 1), 1))]
    for q, coeff, _ in build_ratio_expansion(p).terms[q0:]:
        num, two, sh = _entry_parts(table[p - q])
        c = _iscale(coeff.coeffs, -1)
        terms.append((_imul(c, num), two + 2 * q, sh))
    return terms


def _over_lcd(terms: list[_Term]) -> _Term:
    """Sum terms over their least common denominator, 2**(max two) times
    prod_m (nu+m)**(max multiplicity): each numerator is multiplied, in
    place, only by the factors its own denominator lacks, never by another
    denominator."""
    two = max(t[1] for t in terms)
    sh: dict[int, int] = {}
    for _, _, tsh in terms:
        for m, e in tsh.items():
            sh[m] = max(sh.get(m, 0), e)
    num: list[int] = []
    for tnum, ta, tsh in terms:
        for m, e in sh.items():
            for _ in range(e - tsh.get(m, 0)):
                _imul_linear(tnum, m)
        num = _iadd(num, [c << (two - ta) for c in tnum])
    return num, two, sh


def derive_sigma_triangular(table: SigmaTable, p: int) -> FactoredRationalFn:
    """Solve the paper's triangular system up through p and return sigma(p, nu).

    This is the reproduced method, kept as the oracle for derive_sigma. Each
    step isolates the newest unknown:

        sigma(p) = [ 4**(-p) / prod_{i=1}^{p}(nu+i)
                     - sum_{q=1}^{q_M} (-1)^q 4**(-q) c_q(nu) sigma(p-q) ]
                   / prod_{i=1}^{p-1}(nu+i)

    carried out over the factored common denominator of _over_lcd, so that
    the only divisions are exact: synthetic division by the shifts (nu+m)
    and cancellation of a shared power of two.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    for j in range(1, p + 1):
        if j in table:
            continue
        num, two, sh = _over_lcd(_identity_terms(table, j, 1))
        # divide by c_0 = prod_{i=1}^{j-1}(nu+i): push it into the denominator
        for i in range(1, j):
            sh[i] = sh.get(i, 0) + 1
        table[j] = _normal_form(num, two, sh, j)
    return table[p]


def eval_sigma_exact(f: FactoredRationalFn, nu: Fraction | int) -> Fraction:
    """Exact rational value of a derived closed form at nu (PoleError at
    poles). The tests use it on derive_sigma's forms as the oracle for
    sigma_value."""
    return f.evaluate(nu)


def sums_identity_defect(table: SigmaTable, p: int) -> Poly:
    """Back-substitution check of the identity that defines sigma(p): fill
    the table through p, combine all its terms (q = 0 included) over their
    factored common denominator as the triangular solve does, and return
    the combined numerator. Only its is_zero is the contract: it holds iff
    the table satisfies the identity exactly.
    """
    derive_sigma(table, p)
    return Poly(tuple(_over_lcd(_identity_terms(table, p, 0))[0]))
