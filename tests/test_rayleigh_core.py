"""Ratio expansion coefficients and the two exact sigma solvers."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_sums import (
    FactoredRationalFn,
    PoleError,
    Poly,
    SigmaTable,
    build_ratio_expansion,
    derive_sigma,
    derive_sigma_triangular,
    eval_sigma_exact,
    numeric_sigma,
    poly_gcd,
    ratio_by_recurrence,
    sigma_value,
    sums_identity_defect,
)

from rayleigh_sums import exact_algebra, rayleigh_core
from rayleigh_sums.exact_algebra import _imul
from rayleigh_sums.rayleigh_core import _sigma_enclosure, _term_shares

from golden_forms import SIGMA9_AT_0, golden_frf


def test_ratio_terms_match_the_from_scratch_definition():
    # each term is (-1)^q C(p-1-q, q) prod_{i=q+1}^{p-q-1}(nu+i), built here
    # per q from [1], independently of the nested build
    assert build_ratio_expansion(1).terms[0][1] == Poly.one()
    assert build_ratio_expansion(2).terms[0][1] == Poly((1, 1))
    assert build_ratio_expansion(3).terms[1][1] == Poly((-1,))
    # q_M = floor((p-1)/2): (p-1)/2 for odd p, (p-2)/2 for even
    assert [build_ratio_expansion(p).terms[-1][0] for p in range(1, 9)] == [0, 0, 1, 1, 2, 2, 3, 3]
    for p in range(1, 61):
        terms = build_ratio_expansion(p).terms
        assert [t[0] for t in terms] == list(range((p - 1) // 2 + 1))
        for q, coeff, _ in terms:
            prod = [1]
            for i in range(q + 1, p - q):
                prod = _imul(prod, [i, 1])
            c = (-1) ** q * math.comb(p - 1 - q, q)
            assert coeff == Poly(tuple(c * x for x in prod)), (p, q)


@pytest.mark.parametrize("p", [10, 100, 400])
def test_ratio_build_multiplies_at_most_p_times(monkeypatch, p):
    # nested products take p - 2 or p - 1 in-place multiplications by a
    # (nu + m); rebuilding each of the q_M + 1 products takes about p**2 / 4.
    # Both modules' names are counted, so a rebuild through a kernel helper
    # is seen too
    imul_linear = exact_algebra._imul_linear
    calls = 0

    def counting_imul_linear(a, m):
        nonlocal calls
        calls += 1
        return imul_linear(a, m)

    for module in (rayleigh_core, exact_algebra):
        monkeypatch.setattr(module, "_imul_linear", counting_imul_linear)
    build_ratio_expansion(p)
    assert 0 < calls <= p


def test_build_ratio_expansion_structure():
    e1 = build_ratio_expansion(1)
    assert e1.terms == ((0, Poly.one(), 0),)
    e2 = build_ratio_expansion(2)
    assert e2.terms == ((0, Poly((1, 1)), 1),)
    e4 = build_ratio_expansion(4)
    assert [t[2] for t in e4.terms] == [3, 1]
    for p in range(1, 13):
        powers = [t[2] for t in build_ratio_expansion(p).terms]
        assert powers == list(range(p - 1, -1 if p % 2 else 0, -2))
        assert powers[-1] == (0 if p % 2 else 1)


def test_derive_matches_printed_forms_small():
    t = SigmaTable()
    for p in (1, 2, 3):
        assert derive_sigma(t, p) == golden_frf(p)


def test_table_extends_contiguously():
    t = SigmaTable()
    derive_sigma(t, 9)
    assert sorted(t) == list(range(1, 10))
    assert len(t) == 9
    assert 5 in t
    assert t[1] == golden_frf(1)


def test_derive_rejects_bad_p():
    with pytest.raises(ValueError):
        derive_sigma(SigmaTable(), 0)
    with pytest.raises(ValueError):
        derive_sigma_triangular(SigmaTable(), 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_ratio_expansion(0),
        lambda: ratio_by_recurrence(0),
        lambda: sums_identity_defect(SigmaTable(), 0),
    ],
    ids=["build_ratio_expansion", "ratio_by_recurrence", "sums_identity_defect"],
)
def test_p0_is_rejected_with_one_message(call):
    with pytest.raises(ValueError, match=r"^p must be >= 1$"):
        call()


def test_recurrence_route_equals_expansion_to_p60():
    for p in range(1, 61):
        assert ratio_by_recurrence(p) == build_ratio_expansion(p).u_coefficients(), p


def test_derive_deterministic():
    a, b = SigmaTable(), SigmaTable()
    derive_sigma(a, 12)
    derive_sigma(b, 12)
    for p in range(1, 13):
        assert json.dumps(a[p].to_json_dict(), sort_keys=True) == json.dumps(
            b[p].to_json_dict(), sort_keys=True
        )


def test_eval_sigma_exact_values(table15):
    assert eval_sigma_exact(table15[1], 0) == Fraction(1, 4)
    assert eval_sigma_exact(table15[1], Fraction(1, 2)) == Fraction(1, 6)
    assert eval_sigma_exact(table15[2], Fraction(1, 2)) == Fraction(1, 90)
    assert eval_sigma_exact(table15[9], 0) == SIGMA9_AT_0
    with pytest.raises(PoleError):
        eval_sigma_exact(table15[3], -3)


@given(st.integers(1, 12), st.fractions(min_value=0, max_value=50, max_denominator=30))
@settings(max_examples=120)
def test_sigma_positive_on_nonnegative_axis(p, nu):
    t = SigmaTable()
    assert eval_sigma_exact(derive_sigma(t, p), nu) > 0


def test_normal_form_invariants_to_p20():
    t = SigmaTable()
    derive_sigma(t, 20)
    for p in range(1, 21):
        f = t[p]
        coeffs = f.numerator.int_coeffs()
        assert math.gcd(*coeffs) == 1
        assert coeffs[-1] > 0
        assert f.residual == Poly.one()
        shifts = dict(f.shift_factors)
        assert shifts[1] == p
        assert max(shifts) == p
        # coprimality: denominator roots are exactly -m for the shifts
        for m in shifts:
            assert f.numerator.evaluate(-m) != 0


def test_gcd_confirms_coprimality_small(table15):
    for p in (4, 6, 9):
        f = table15[p]
        assert poly_gcd(f.numerator, f.denominator_expanded()) == Poly.one()


@pytest.fixture(scope="module")
def table80():
    t = SigmaTable()
    derive_sigma(t, 80)
    return t


def test_back_substitution_zero_defect(table80):
    for p in range(1, 61):
        assert sums_identity_defect(table80, p).is_zero, p


def test_identity_defect_sees_one_perturbed_entry(table80):
    # the identity at p reads sigma(p-q) for q = 0..(p-1)//2, so sigma(n)
    # is read at p = n..2n-1, and a defect check that returned zero without
    # looking would pass everywhere
    for n in (10, 30):
        t = SigmaTable(table80)
        f = t[n]
        coeffs = list(f.numerator.coeffs)
        coeffs[0] += 1
        t[n] = FactoredRationalFn(Poly(tuple(coeffs)), f.two_exponent, f.shift_factors)
        nonzero = {p for p in range(1, 2 * n + 2) if not sums_identity_defect(t, p).is_zero}
        assert nonzero == set(range(n, 2 * n)), n


def test_unprinted_orders_match_numeric_oracle(table15, zero_cache):
    # the p = 4 and 5 closed forms are not independently printed anywhere,
    # so the zero-summation oracle is the reference for them
    for nu_f, nu_q in ((0.0, Fraction(0)), (0.5, Fraction(1, 2)),
                       (1.0, Fraction(1)), (2.5, Fraction(5, 2))):
        zeros = zero_cache(nu_f, 10**4)
        for p in (4, 5):
            exact = float(eval_sigma_exact(table15[p], nu_q))
            got = numeric_sigma(nu_f, p, zeros).value
            assert abs(got - exact) <= 1e-12 * abs(exact)


def test_kishore_route_matches_triangular_solve_to_p40():
    fast, oracle = SigmaTable(), SigmaTable()
    derive_sigma(fast, 40)
    derive_sigma_triangular(oracle, 40)
    for p in range(1, 41):
        assert json.dumps(fast[p].to_json_dict(), sort_keys=True) == json.dumps(
            oracle[p].to_json_dict(), sort_keys=True
        ), p


def test_derive_extends_prefilled_tables():
    # entries already in a table are lifted back over the known denominator,
    # whichever route wrote them, and the extension must not show it
    def dumped(t, p):
        return json.dumps([t[j].to_json_dict() for j in range(1, p + 1)], sort_keys=True)

    def one_shot(p):
        t = SigmaTable()
        derive_sigma(t, p)
        return dumped(t, p)

    mixed = SigmaTable()
    derive_sigma_triangular(mixed, 10)
    derive_sigma(mixed, 30)
    assert dumped(mixed, 30) == one_shot(30)
    stepped = SigmaTable()
    for p in range(1, 41):
        derive_sigma(stepped, p)
    assert dumped(stepped, 40) == one_shot(40)


@pytest.mark.parametrize("nu", [Fraction(0), Fraction(1, 2), Fraction(27, 10)])
def test_residue_identity_holds_exactly_to_p80(table80, nu):
    # sum_{q=0}^{q_M} (-1)^q 4^(-q) c_q(nu) sigma(p-q, nu) = 4^(-p) / prod_{i<=p}(nu+i)
    # in exact scalars, with c_q(nu) = C(p-1-q, q) prod_{i=q+1}^{p-q-1}(nu+i)
    # written out here rather than taken from either polynomial route
    sigma = {p: table80[p].evaluate(nu) for p in range(1, 81)}
    rising = [Fraction(1)]  # rising[i] = prod_{i'=1}^{i}(nu+i')
    for i in range(1, 81):
        rising.append(rising[-1] * (nu + i))
    for p in range(1, 81):
        lhs = sum(
            (-1) ** q * Fraction(math.comb(p - 1 - q, q), 4**q)
            * (rising[p - q - 1] / rising[q]) * sigma[p - q]
            for q in range((p - 1) // 2 + 1)
        )
        assert lhs == 1 / (4**p * rising[p]), p


def test_denominator_exponents_are_floor_p_over_m_to_p80(table80):
    for p in range(1, 81):
        assert dict(table80[p].shift_factors) == {m: p // m for m in range(1, p + 1)}, p


@pytest.mark.parametrize(
    "nu", [Fraction(0), Fraction(1, 2), Fraction(27, 10), Fraction(359, 7), Fraction(-7, 3),
           Fraction(-61)],
)
def test_sigma_value_matches_closed_forms_to_p60(table80, nu):
    # sigma_value never builds a form; the derived closed forms are its oracle
    for p in range(1, 61):
        assert sigma_value(p, nu) == eval_sigma_exact(table80[p], nu), p


def _sigma_value_identity_defect(p, nu):
    """The paper's identity at p on sigma_value's values: sum over the
    expansion's terms of (-1)^q 4^(-q) c_q(nu) sigma(p-q, nu), minus
    4^(-p) / prod_{i<=p}(nu+i). Kishore's recurrence gives the sigmas, the
    ratio expansion the c_q, so the two routes check each other."""
    lhs = sum(
        coeff.evaluate(nu) / 4**q * sigma_value(p - q, nu)
        for q, coeff, _ in build_ratio_expansion(p).terms
    )
    return lhs - 1 / (4**p * math.prod(nu + i for i in range(1, p + 1)))


def test_sigma_value_satisfies_the_identity_past_the_forms(monkeypatch):
    # the forms stop at p = 80; at p = 100 the identity reads sigma(51..100)
    for nu in (Fraction(0), Fraction(1, 3), Fraction(27, 10), Fraction(1000, 3), Fraction(-7, 3)):
        assert _sigma_value_identity_defect(100, nu) == 0, nu

    # a step that drops one share, as a faulty recurrence would, is seen
    def drop_one(n):
        shares = _term_shares(n)
        return shares[:-1] if n == 77 else shares

    monkeypatch.setattr(rayleigh_core, "_term_shares", drop_one)
    assert _sigma_value_identity_defect(100, Fraction(1, 3)) != 0


def test_sigma_value_poles_are_exactly_minus_1_to_minus_p(table80, monkeypatch):
    for p in range(1, 31):
        for m in range(1, p + 4):
            if m <= p:
                with pytest.raises(PoleError) as e:
                    sigma_value(p, -m)
                assert e.value.nu == -m
                with pytest.raises(PoleError):
                    eval_sigma_exact(table80[p], -m)
            else:
                assert sigma_value(p, -m) == eval_sigma_exact(table80[p], -m)

    # nu alone decides a pole, so it is refused before any step runs
    def no_step(n):
        raise AssertionError(f"step {n} ran")

    monkeypatch.setattr(rayleigh_core, "_term_shares", no_step)
    with pytest.raises(PoleError) as e:
        sigma_value(800, -799)
    assert e.value.nu == -799


def test_sigma_value_rejects_p0():
    with pytest.raises(ValueError):
        sigma_value(0, Fraction(1, 2))


def test_sigma_at_minus_half_is_dirichlet_lambda():
    # the zeros of J_{-1/2} are (k - 1/2) pi, so sigma(p, -1/2) is
    # (2/pi)^(2p) lambda(2p) = (4^p - 1) zeta(2p) / pi^(2p) = (4^p - 1) sigma(p, 1/2)
    for p in range(1, 61):
        assert sigma_value(p, Fraction(-1, 2)) == (4**p - 1) * sigma_value(p, Fraction(1, 2)), p


@pytest.mark.parametrize(
    "nu",
    [Fraction(0), Fraction(1, 3), Fraction(27, 10), Fraction(1, 10**20), Fraction(10**6, 7), 4999.7,
     Fraction(-1, 2), Fraction(-9, 10), Fraction(-999, 1000)],
    ids=str,
)
def test_sigma_enclosure_holds_the_exact_value(nu):
    # lo 2**e <= sigma <= hi 2**e at every precision, for nu on both sides of
    # 0 (a float at its exact value), with the ends a few units of hi's last
    # place apart, so that where they round to one float it is sigma's
    for p in (1, 2, 3, 7, 30, 61, 120):
        exact = sigma_value(p, Fraction(nu))
        for doublings in (0, 1):
            lo, hi, e = _sigma_enclosure(p, nu, doublings)
            assert lo * Fraction(2) ** e <= exact <= hi * Fraction(2) ** e, (p, doublings)
            assert hi - lo <= 4 * p and hi.bit_length() > 64 << doublings, (p, doublings)
        if e < 0 and lo / (1 << -e) == hi / (1 << -e):
            assert hi / (1 << -e) == float(exact), p


def test_term_shares_follow_the_mod_rule():
    # walking k down from n//2, the running set of joins minus leaves is
    # exactly the shifts m <= n/2 with k mod m > n mod m
    for n in range(1, 200):
        lacking: set[int] = set()
        for k, joins, leaves in _term_shares(n):
            assert set(leaves) <= lacking and not set(joins) & lacking, (n, k)
            lacking = (lacking - set(leaves)) | set(joins)
            assert lacking == {m for m in range(2, n // 2 + 1) if k % m > n % m}, (n, k)
