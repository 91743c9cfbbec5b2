"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every test computes its own inputs (no shared session caches) so the timed
criteria measure the real cost, records its verdict through the `criterion`
fixture, and then asserts it. A test that blows up still reports a FAIL
line before the traceback.
"""

import math
import time
from fractions import Fraction

import numpy as np

from rayleigh_sums import (
    Poly,
    SigmaTable,
    bessel_j,
    bessel_zeros,
    build_ratio_expansion,
    derive_sigma,
    eval_sigma_exact,
    numeric_sigma,
    poly_gcd,
    ratio_by_recurrence,
    residue_tail_scale,
    sums_identity_defect,
    verify_ratio_formula,
    verify_residue_identity,
    zeta_even,
)

from golden_forms import (
    GOLDEN_SIGMA,
    SIGMA9_AT_0,
    ZETA12_FACTORS,
    ZETA14_FACTORS,
    golden_frf,
)


def _run(criterion, num, desc, body):
    t0 = time.perf_counter()
    try:
        problems, extra = body()
    except Exception as e:
        criterion(num, desc, False, f"error: {e}")
        raise
    elapsed = time.perf_counter() - t0
    tail = f"{extra}, " if extra else ""
    ok = criterion(num, desc, not problems, f"{tail}{elapsed:.2f}s")
    assert ok, problems
    return elapsed


def test_criterion_1_golden_closed_forms(criterion):
    def body():
        table = SigmaTable()
        derive_sigma(table, 9)
        problems = [
            f"p={p} mismatch" for p in sorted(GOLDEN_SIGMA) if table[p] != golden_frf(p)
        ]
        return problems, f"{len(GOLDEN_SIGMA)} forms"

    elapsed = _run(
        criterion,
        1,
        "derived closed forms for p in {1,2,3,6,7,9} equal the golden forms",
        body,
    )
    assert elapsed < 1.0


def test_criterion_2_exact_zeta_values(criterion):
    def body():
        table = SigmaTable()
        expect = {
            1: (Fraction(1, 6), ((2, 1), (3, 1))),
            2: (Fraction(1, 90), ((2, 1), (3, 2), (5, 1))),
            6: (Fraction(691, 638512875), ZETA12_FACTORS),
            7: (Fraction(2, 18243225), ZETA14_FACTORS),
        }
        problems = []
        for p, (coeff, factors) in expect.items():
            z = zeta_even(p, table)
            if (z.coefficient, z.factored_denominator) != (coeff, factors):
                problems.append(f"zeta({2 * p}) mismatch")
        return problems, "zeta(2), zeta(4), zeta(12), zeta(14)"

    elapsed = _run(
        criterion,
        2,
        "zeta(2), zeta(4), zeta(12), zeta(14) come out exactly with factored denominators",
        body,
    )
    assert elapsed < 1.0


def test_criterion_3_closed_forms_match_zero_sums(criterion):
    def body():
        table = SigmaTable()
        derive_sigma(table, 5)
        worst = 0.0
        problems = []
        for nu in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(27, 10)):
            zeros = bessel_zeros(float(nu), 10**4)
            for p in range(1, 6):
                exact = float(eval_sigma_exact(table[p], nu))
                got = numeric_sigma(float(nu), p, zeros).value
                rel = abs(got - exact) / abs(exact)
                worst = max(worst, rel)
                if rel > 1e-10:
                    problems.append(f"p={p} nu={nu}: rel={rel:.3e}")
        return problems, f"worst rel {worst:.2e}"

    elapsed = _run(
        criterion,
        3,
        "closed forms match 10^4-zero sums to rel 1e-10 for p <= 5, nu in {0, 1/2, 1, 2.7}",
        body,
    )
    assert elapsed < 30.0


def test_criterion_4_p9_numeric_check_over_nu_grid(criterion):
    def body():
        # the first zeros carry sigma(9, nu) and the tail past zero 100 is far
        # below 1e-9 relative, so binary64 checks it at every grid point, not
        # only at nu = 0 (measured: worst rel about 3e-15)
        form = golden_frf(9)
        problems = []
        worst = 0.0
        grid = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(27, 10), Fraction(10), Fraction(50))
        for nu in grid:
            exact = float(SIGMA9_AT_0 if nu == 0 else eval_sigma_exact(form, nu))
            got = numeric_sigma(float(nu), 9, bessel_zeros(float(nu), 100)).value
            rel = abs(got - exact) / exact
            worst = max(worst, rel)
            if rel > 1e-9:
                problems.append(f"nu={nu}: rel={rel:.3e}")
        return problems, f"worst rel {worst:.2e} with 100 zeros"

    _run(
        criterion,
        4,
        "sigma(9, nu) matches a 100-zero sum to rel 1e-9 at nu in {0, 1/2, 1, 2.7, 10, 50}",
        body,
    )


def test_criterion_5_residue_identity_noninteger(criterion):
    def body():
        problems = []
        finals = []
        for p, nu in ((1.5, 0.25), (2.5, 0.0), (3.2, 1.7)):
            residuals = [
                verify_residue_identity(nu, p, terms).residual
                for terms in (2500, 5000, 10000)
            ]
            if not residuals[0] > residuals[1] > residuals[2]:
                problems.append(f"(p={p}, nu={nu}) residuals not decreasing: {residuals}")
            scale = residue_tail_scale(nu, p, 10000)
            if not residuals[2] < scale:
                problems.append(f"(p={p}, nu={nu}) final {residuals[2]:.2e} >= {scale:.2e}")
            finals.append(residuals[2])
        return problems, "finals " + ", ".join(f"{r:.1e}" for r in finals)

    _run(
        criterion,
        5,
        "residue identity residuals decrease over 2500/5000/10000 terms, final below tail scale",
        body,
    )


def test_criterion_6_ratio_expansion_equals_recurrence(criterion):
    def body():
        problems = []
        for p in range(2, 13):
            if build_ratio_expansion(p).u_coefficients() != ratio_by_recurrence(p):
                problems.append(f"p={p} symbolic mismatch")
        worst = 0.0
        for p in range(1, 7):
            for nu in (0.0, 0.5, 2.0):
                for k in range(1, 6):
                    r = verify_ratio_formula(nu, p, k)
                    worst = max(worst, r)
                    if r > 1e-8:
                        problems.append(f"p={p} nu={nu} k={k}: {r:.3e}")
        return problems, f"worst numeric {worst:.2e}"

    _run(
        criterion,
        6,
        "ratio expansion equals the recurrence route symbolically (p <= 12) and at zeros to 1e-8",
        body,
    )


def test_criterion_7_structure_of_the_table_to_p40(criterion):
    def body():
        table = SigmaTable()
        derive_sigma(table, 40)
        problems = []
        for p in range(1, 41):
            f = table[p]
            coeffs = f.numerator.int_coeffs()
            if math.gcd(*coeffs) != 1:
                problems.append(f"p={p}: numerator content != 1")
            if f.residual != Poly.one():
                problems.append(f"p={p}: leftover denominator factor")
            shifts = dict(f.shift_factors)
            if shifts.get(1) != p:
                problems.append(f"p={p}: (nu+1) exponent {shifts.get(1)} != p")
            if max(shifts) > p:
                problems.append(f"p={p}: shift beyond nu+{p}")
            # the denominator's only roots are nu = -m; a numerator that
            # vanishes at none of them is coprime to it
            for m in shifts:
                if f.numerator.evaluate(Fraction(-m)) == 0:
                    problems.append(f"p={p}: common root at nu=-{m}")
        for p in (4, 6, 9, 15):
            g = poly_gcd(table[p].numerator, table[p].denominator_expanded())
            if g.degree != 0:
                problems.append(f"p={p}: nontrivial gcd {g}")
        return problems, "p <= 40"

    elapsed = _run(
        criterion,
        7,
        "every form to p = 40 is coprime and integral with denominator 2^a prod (nu+m)^e_m, "
        "e_1 = p",
        body,
    )
    assert elapsed < 5.0


def test_criterion_8_back_substitution_is_exact(criterion):
    def body():
        table = SigmaTable()
        derive_sigma(table, 15)
        problems = [
            f"p={p}: nonzero defect" for p in range(1, 16) if not sums_identity_defect(table, p).is_zero
        ]
        return problems, "p <= 15, exact"

    _run(
        criterion,
        8,
        "back-substituting the derived table into its defining identity leaves a zero polynomial",
        body,
    )


def test_criterion_9_zero_oracle(criterion):
    def body():
        problems = []
        sets = {nu: bessel_zeros(nu, 21) for nu in (0.0, 0.5, 1.0, 2.0, 3.0, 3.6)}
        for nu in (0.0, 0.5, 1.0, 3.6):
            z20 = sets[nu].zeros[:20]
            residuals = np.abs([bessel_j(nu, x) for x in z20])
            if residuals.max() >= 1e-11:
                problems.append(f"nu={nu}: |J| up to {residuals.max():.2e}")
        # interlacing holds between orders at most 1 apart; the 1 -> 3.6 gap
        # is covered by chaining through 2 and 3, which also orders the pair
        for lo, hi in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 3.6)):
            a, b = sets[lo].zeros, sets[hi].zeros
            if not all(a[k] < b[k] < a[k + 1] for k in range(20)):
                problems.append(f"interlacing failed between nu={lo} and nu={hi}")
        if not np.all(sets[1.0].zeros[:20] < sets[3.6].zeros[:20]):
            problems.append("ordering failed between nu=1 and nu=3.6")
        half_dev = np.abs(sets[0.5].zeros[:20] - np.arange(1, 21) * math.pi).max()
        if half_dev > 1e-12:
            problems.append(f"nu=1/2 zeros off k pi by {half_dev:.2e}")
        return problems, f"nu=1/2 max deviation {half_dev:.1e}"

    _run(
        criterion,
        9,
        "first 20 zeros: |J_nu| < 1e-11, strict interlacing in nu, nu = 1/2 zeros are k pi "
        "to 1e-12",
        body,
    )
