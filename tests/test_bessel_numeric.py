"""Zero finder, tail-corrected sums, and the numeric identity checks."""

import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayleigh_sums import (
    NumericError,
    ZeroSet,
    bessel_j,
    bessel_numeric,
    bessel_zeros,
    build_ratio_expansion,
    cli,
    numeric_sigma,
    residue_identity_lhs,
    residue_tail_scale,
    verify_ratio_formula,
    verify_residue_identity,
)

from rayleigh_sums.bessel_numeric import (
    _check_gaps,
    _check_index,
    _lommel,
    _mcmahon,
    _seeds,
    _sigma_sum,
    _summed_zeros,
    _zero_blocks,
)
from rayleigh_sums.bessel_numeric import _hurwitz_zeta

from golden_forms import J0_ZEROS, SIGMA9_AT_0, ZERO_ABS_TOL


def test_bessel_j_near_origin():
    assert abs(bessel_j(0, 1e-8) - 1.0) < 1e-15
    # below 1e-150, where Miller's recurrence would overflow, J is its first series term
    assert bessel_j(0, 1e-300) == 1.0
    assert bessel_j(1, 1e-300) == pytest.approx(5e-301, rel=1e-15)
    assert bessel_j(0.5, 1e-149) == pytest.approx(math.sqrt(2e-149 / math.pi), rel=1e-14)
    # past lgamma's range the power series' first term has long underflowed
    assert bessel_j(1e306, 1e-200) == 0.0


def test_bessel_j_at_first_zero():
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-12


def test_bessel_j_takes_int_arguments():
    # Miller, Hankel with upward steps, and both at the order limit
    for order, x in ((0, 1), (3, 45), (5000, 6000), (5000, 4000)):
        assert bessel_j(order, x) == bessel_j(float(order), float(x))
        assert isinstance(bessel_j(order, x), float)
    with pytest.raises(NumericError, match="measured to order 5000 only"):
        bessel_j(6000, 7000)


def test_bessel_j_refuses_non_finite_input():
    # each was returned as nan or 0.0, or raised a math domain error
    for order, x in ((1.0, math.nan), (math.nan, 1e-200), (0, math.inf), (math.inf, 1e-200),
                     (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(NumericError, match="must be finite"):
            bessel_j(order, x)
    # the power series' first term holds at any finite order
    assert bessel_j(1e306, 1e-200) == 0.0


def test_orders_past_the_limit_are_refused_before_any_zero(monkeypatch):
    def no_seeds(nu, k):
        raise AssertionError(f"J_{nu} was seeded")

    monkeypatch.setattr(bessel_numeric, "_seeds", no_seeds)
    cap = bessel_numeric._JV_ORDER_CAP
    assert cap == 5000.0
    past = math.nextafter(cap, math.inf)
    for nu in (past, 1e20, math.inf, math.nan):
        with pytest.raises(NumericError, match="measured to order 5000 only"):
            bessel_numeric._jv_pair_at(nu)
        with pytest.raises(NumericError, match="measured to order 5000 only"):
            bessel_zeros(nu, 3)
    # K0 passes binary64 above nu = 1.4e307, where verify sigma refuses the
    # subnormal sigma first; the check itself names the order
    with pytest.raises(NumericError, match=r"^J_1e\+308: the kernel's error"):
        bessel_numeric._sigma_check(Fraction(10**308), 1, 2, Fraction(1, 4 * 10**308 + 4))


def test_bessel_j_half_order_is_sine():
    for x in (1.0, 2.0, 5.0):
        expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - expected) < 1e-12


def test_bessel_j_domain_errors():
    with pytest.raises(NumericError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(NumericError):
        bessel_j(0.0, 0.0)
    with pytest.raises(NumericError):
        bessel_j(0.0, -2.0)


def test_first_zeros_of_j0(zero_cache):
    zs = zero_cache(0.0, 3)
    for got, ref in zip(zs.zeros, J0_ZEROS):
        assert abs(got - ref) < ZERO_ABS_TOL


def test_half_order_zeros_are_k_pi(zero_cache):
    zs = zero_cache(0.5, 20)
    ks = np.arange(1, 21)
    assert np.max(np.abs(zs.zeros - ks * math.pi)) < 1e-12


def test_interlacing_orders_0_and_1(zero_cache):
    a = zero_cache(0.0, 21).zeros
    b = zero_cache(1.0, 21).zeros
    assert all(a[k] < b[k] < a[k + 1] for k in range(20))


def test_spacing_approaches_pi(zero_cache):
    zs = zero_cache(2.7, 200).zeros
    gaps = np.diff(zs)
    late = np.abs(gaps[50:] - math.pi)
    assert late.max() < 2e-3
    # deviation shrinks with k
    assert late[100:].max() < late[:50].max()


def test_certification_bound_holds(zero_cache):
    for nu in (0.0, 2.7):
        zs = zero_cache(nu, 500)
        f = np.array([bessel_j(nu, x) for x in zs.zeros])
        dp = (nu / zs.zeros) * f - np.array([bessel_j(nu + 1, x) for x in zs.zeros])
        assert np.all(np.abs(f) < 1e-12 * np.maximum(1.0, np.abs(dp)))


def test_derivative_identity_at_zeros(zero_cache):
    # J'_nu(xi_k) = -J_{nu+1}(xi_k) at zeros of J_nu
    for nu in (0.0, 0.5, 2.7):
        zs = zero_cache(nu, 50)
        for x in zs.zeros:
            jp = (nu / x) * bessel_j(nu, x) - bessel_j(nu + 1, x)
            assert abs(jp + bessel_j(nu + 1, x)) < 1e-10


def test_zeros_match_mpmath_reference(zero_cache):
    mpmath.mp.dps = 25
    for nu in (0.0, 3.6):
        zs = zero_cache(nu, 20)
        for k in (1, 2, 3, 10, 20):
            ref = float(mpmath.besseljzero(mpmath.mpf(nu), k))
            got = zs.zeros[k - 1]
            assert abs(got - ref) < ZERO_ABS_TOL
            assert abs(got - ref) <= zs.accuracy[k - 1] + np.spacing(ref)


def _dense_zeros(nu, ks):
    """Reference zeros of J_nu with indices ks: count the sign changes of
    J_nu on a grid of step pi/32 from max(nu, 1), then bisect each bracket
    to rounding. Neither the seeds nor Newton enter it."""
    kmax = max(ks)
    x = np.arange(max(nu, 1.0), math.pi * (kmax + nu / 2.0 + 1.0) + 2.0, math.pi / 32.0)
    f = scipy.special.jv(nu, x)
    brackets = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    assert len(brackets) >= kmax
    idx = brackets[np.asarray(ks) - 1]
    lo, hi, flo = x[idx], x[idx + 1], f[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = np.signbit(scipy.special.jv(nu, mid)) == np.signbit(flo)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _switch_index(nu, count):
    """Number of leading zeros seeded by the uniform expansion, not McMahon's."""
    ks = np.arange(1, count + 1, dtype=float)
    return int(np.count_nonzero(_seeds(nu, ks) != _mcmahon(nu, ks)[0]))


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.7, 50.0, 200.0, 600.0, 1000.0])
def test_zeros_match_mpmath_at_seam_and_end(zero_cache, nu):
    # k = 1, the last uniform seed and the first McMahon seed after it, and
    # the last zero; mpmath at k <= 2, the dense-grid reference everywhere
    # (mpmath's besseljzero takes minutes at nu = 600)
    count = {200.0: 3000, 600.0: 11000, 1000.0: 21000}.get(nu, 10**4)
    n = _switch_index(nu, count)
    assert (n == 0) == (nu <= 1.0) and n < count
    zs = zero_cache(nu, count)
    ks = sorted({1, 2, max(n, 1), n + 1, count})
    with mpmath.workdps(25):
        for k in (1, 2):
            ref = float(mpmath.findroot(lambda x: mpmath.besselj(nu, x), zs.zeros[k - 1]))
            assert abs(zs.zeros[k - 1] - ref) <= zs.accuracy[k - 1] + np.spacing(ref)
    got = zs.zeros[np.asarray(ks) - 1]
    ref = _dense_zeros(nu, ks)
    assert np.all(np.abs(got - ref) <= zs.accuracy[np.asarray(ks) - 1] + 2 * np.spacing(ref))


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.7, 50.0, 600.0, 1000.0])
def test_newton_stops_once_a_zero_has_converged(monkeypatch, nu):
    # a fixed 6 Newton steps plus a certification pass evaluate the pair
    # J_nu, J_{nu+1} at 7 points per zero; polishing only the seeds that
    # still move needs at most 3, also at large nu; the index check evaluates
    # no J
    jv_pair_at = bessel_numeric._jv_pair_at
    points = 0

    def counting_jv_pair_at(mu):
        pair = jv_pair_at(mu)

        def counted(x):
            nonlocal points
            points += np.size(x)
            return pair(x)

        return counted

    monkeypatch.setattr(bessel_numeric, "_jv_pair_at", counting_jv_pair_at)
    count = 10**4
    bessel_zeros(nu, count)
    assert count <= points <= 3 * count


# the six orders of perfbench's NU_SET, and two large ones
@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.7, 10.0, 50.0, 200.0, 1000.0])
def test_zeros_do_not_depend_on_the_count(zero_cache, nu):
    first = bessel_zeros(nu, 3).zeros
    assert np.array_equal(bessel_zeros(nu, 300).zeros[:3], first)
    assert np.array_equal(zero_cache(nu, 10**4).zeros[:3], first)


def _kernel_error(mu, xs):
    """Worst error of the J kernel over the array xs against mpmath, in
    units of eps times the envelope sqrt(J_mu(x)^2 + J_{mu+1}(x)^2) at each
    x. Also checks that each value is the one the kernel gives for a
    one-point array of its x, and for its x as a Python float."""
    xs = np.asarray(xs, dtype=float)
    pair = bessel_numeric._jv_pair_at(mu)
    ja, jb = pair(xs)
    worst = 0.0
    with mpmath.workdps(30):
        for i, x in enumerate(xs):
            alone = pair(xs[i : i + 1])
            assert (alone[0][0], alone[1][0]) == (ja[i], jb[i])
            assert pair(float(x)) == (ja[i], jb[i])  # a float, bit for bit
            ra, rb = mpmath.besselj(mu, x), mpmath.besselj(mu + 1, x)
            err = max(abs(ja[i] - float(ra)), abs(jb[i] - float(rb)))
            worst = max(worst, err / (np.finfo(float).eps * float(mpmath.hypot(ra, rb))))
    return worst


# the orders of perfbench's NU_SET
_NU_SET = (0.0, 0.5, 1.0, 2.7, 10.0, 50.0)


def test_jv_pair_matches_mpmath_in_every_regime():
    # measured worst: 7.6 (Miller), 5.5 (Hankel), 4.8 (order above x), 46 (x ~ nu = 1000)
    for mu in _NU_SET:
        assert _kernel_error(mu, [0.1, 1.0, 2.5, 7.0, 15.0, 29.9]) < 16.0  # Miller
        assert _kernel_error(mu, [30.0, 55.0, 100.0, 1000.3, 10000.7]) < 16.0  # Hankel
    # order above x, as for J_{nu+p} at the first zeros in `verify residues --p 20`
    for mu, xs in ((20.0, [2.4, 5.5, 8.7]), (22.7, [5.0, 8.6, 11.7]), (60.0, [35.0, 45.0, 59.0])):
        assert _kernel_error(mu, xs) < 16.0
    near = 1000.0 + np.array([-100.0, -10.0, 0.0, 1.0, 5.0, 10.0, 18.66, 40.0, 100.0])
    assert _kernel_error(1000.0, near) < bessel_numeric._JV_PAIR_ERROR


def test_first_zeros_are_within_an_ulp_of_mpmath():
    with mpmath.workdps(30):
        for nu in _NU_SET:
            got = bessel_zeros(nu, 3).zeros
            ref = [float(mpmath.besseljzero(mpmath.mpf(nu), k)) for k in (1, 2, 3)]
            assert np.all(np.abs(got - ref) <= np.spacing(ref)), nu


@settings(max_examples=25, deadline=None)
@given(nu=st.floats(0.0, 300.0), count=st.integers(1, 2000))
def test_gaps_are_monotone_in_the_sturm_direction(nu, count):
    zs = bessel_zeros(nu, count)
    change = np.diff(np.diff(zs.zeros))
    tol = 8.0 * np.max(zs.accuracy)
    if nu > 0.5:
        assert np.all(change <= tol)
    elif nu < 0.5:
        assert np.all(change >= -tol)
    else:
        assert np.all(np.abs(change) <= tol)


def test_mis_indexed_zeros_raise():
    # a set with zero 10 missing has one gap of about 2 pi among gaps of pi
    zs = bessel_zeros(1000.0, 1010)
    keep = np.arange(1010) != 9
    with pytest.raises(NumericError, match="zero 10 of J_1000.0 failed the index check"):
        _check_gaps(1000.0, zs.zeros[keep], zs.accuracy[keep], 0)


# thresholds that force each zero engine whatever the count and order
_ENGINES = {"scalar": math.inf, "blocks": -1.0}


def test_first_zero_is_anchored(monkeypatch):
    # seeds one index ahead give a set that passes certification and the gap
    # check, but J_nu changes sign below its first zero; in either engine
    seeds = bessel_numeric._seeds
    monkeypatch.setattr(bessel_numeric, "_seeds", lambda nu, k: seeds(nu, k + 1))
    for threshold in _ENGINES.values():
        monkeypatch.setattr(bessel_numeric, "_SCALAR_WORK", threshold)
        for nu in (0.0, 2.7, 1000.0):
            with pytest.raises(NumericError, match=f"zero 1 of J_{nu} failed the index check"):
                bessel_zeros(nu, 20)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.7, 50.0, 1000.0, 4999.0, 4999.7])
def test_index_check_passes_on_the_finders_zeros(monkeypatch, nu):
    # an upper bound on sigma(p) at nu proves the first one or two indices,
    # and no J is evaluated to do so
    zs = bessel_zeros(nu, 2)
    assert bessel_zeros(nu, 1).zeros[0] == zs.zeros[0]
    monkeypatch.setattr(bessel_numeric, "_jv_pair_at", None)
    for count in (1, 2):
        _check_index(nu, zs.zeros[:count].tolist(), zs.accuracy[:count].tolist())


@pytest.mark.parametrize("engine", list(_ENGINES))
@pytest.mark.parametrize("k0", [1, 2], ids=["seeds-one-ahead", "zero-2-skipped"])
def test_index_check_refuses_a_wrong_index_in_time(monkeypatch, engine, k0):
    # the zeros pass certification and the gaps, and a wrong index fails
    # both sigma tests at every p, so the check refuses after sigma at its
    # first p and at its one retry (p = 130 and 195 at nu = 4999)
    seeds, enclosure = bessel_numeric._seeds, bessel_numeric._sigma_enclosure
    monkeypatch.setattr(bessel_numeric, "_seeds", lambda nu, k: seeds(nu, k + (k >= k0)))
    monkeypatch.setattr(bessel_numeric, "_SCALAR_WORK", _ENGINES[engine])
    ps = []  # the p of each sigma taken
    monkeypatch.setattr(
        bessel_numeric, "_sigma_enclosure", lambda p, v: ps.append(p) or enclosure(p, v)
    )
    for nu in (2.7, 1000.0, 4999.0):
        ps.clear()
        start = time.perf_counter()
        with pytest.raises(NumericError, match=f"^zero {k0} of J_{nu} failed the index check"):
            bessel_zeros(nu, 3)
        assert time.perf_counter() - start < 1.0
        assert len(ps) == 2 and ps[1] == math.ceil(1.5 * ps[0])


def _engine_result(engine, nu, count):
    """(zeros bytes, accuracy bytes) from one engine, or its error message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bessel_numeric, "_SCALAR_WORK", _ENGINES[engine])
        try:
            zs = bessel_zeros(nu, count)
        except NumericError as e:
            return str(e)
    return zs.zeros.tobytes(), zs.accuracy.tobytes()


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(0.0, 300.0), count=st.integers(1, 2000))
@example(nu=4.3, count=12)
@example(nu=0.0, count=2000)
@example(nu=2.7, count=2000)
@example(nu=50.0, count=2000)
@example(nu=600.0, count=620)
@example(nu=5000.0, count=30)  # the largest order the kernel takes
def test_engines_give_the_same_bits(nu, count):
    scalar = _engine_result("scalar", nu, count)
    assert not isinstance(scalar, str)
    assert _engine_result("blocks", nu, count) == scalar


def _break_near(monkeypatch, faults):
    """Make the J kernel return J_mu = value within 1 of xi, for each
    (xi, value) in faults, for a float and an array alike."""
    jv_pair_at = bessel_numeric._jv_pair_at

    def broken_at(mu):
        pair = jv_pair_at(mu)

        def broken(x):
            ja, jb = pair(x)
            for xi, value in faults:
                if isinstance(x, float):
                    ja = value if abs(x - xi) < 1.0 else ja
                else:
                    ja[np.abs(x - xi) < 1.0] = value
            return ja, jb

        return broken

    monkeypatch.setattr(bessel_numeric, "_jv_pair_at", broken_at)


@pytest.mark.parametrize("k0", [1, 2, 3, 7, 300])
def test_engines_raise_the_same_errors(monkeypatch, k0):
    # a skipped zero k0 fails the gap check (or the anchor, at k0 = 1 and
    # 2); a nan seed there, which no seed within the limits is, fails the
    # certificate, and so do a nan J near zero k0 and a small |J| there ahead
    # of a larger one at zero k0 + 5
    seeds = bessel_numeric._seeds
    xi, *_, xi_later = bessel_zeros(2.7, k0 + 5).zeros[k0 - 1 :]

    def results():
        out = {e: _engine_result(e, 2.7, 400) for e in _ENGINES}
        assert out["scalar"] == out["blocks"]
        return out["scalar"]

    monkeypatch.setattr(bessel_numeric, "_seeds", lambda nu, k: seeds(nu, k + (k >= k0)))
    assert results().startswith(f"zero {k0} of J_2.7 failed the index check")

    def nan_seed(nu, k):
        if isinstance(k, float):
            return math.nan if k == k0 else seeds(nu, k)
        out = seeds(nu, k)
        out[k == k0] = math.nan
        return out

    monkeypatch.setattr(bessel_numeric, "_seeds", nan_seed)
    assert results() == f"zero {k0} of J_2.7 failed certification: |J|=nan at x=nan"

    monkeypatch.setattr(bessel_numeric, "_seeds", seeds)
    _break_near(monkeypatch, [(xi, math.nan)])
    assert results().startswith(f"zero {k0} of J_2.7 failed certification")

    monkeypatch.undo()
    _break_near(monkeypatch, [(xi, 1e-11), (xi_later, 1e-6)])
    assert results().startswith(f"zero {k0} of J_2.7 failed certification: |J|=1.000e-11")


@pytest.mark.parametrize("p", [0.5, 1.46, 3.0])
@pytest.mark.parametrize("nu", [0.0, 2.7, 50.0])
def test_engines_give_the_same_residue_check(monkeypatch, nu, p):
    # the scalar engine's zeros are summed one at a time on math, the block
    # engine's as arrays on numpy, whose ** and hypot may round otherwise
    def check():
        report = verify_residue_identity(nu, p, 100)
        c = bessel_numeric._residue_check(nu, p, 100)
        return report, c.residual <= c.budget

    scalar, verdict = check()
    assert scalar.count * (nu + 30.0) <= bessel_numeric._SCALAR_WORK
    monkeypatch.setattr(bessel_numeric, "_SCALAR_WORK", _ENGINES["blocks"])
    blocks, block_verdict = check()
    for name in ("lhs", "count", "tail_estimate", "tail_bound"):
        assert getattr(blocks, name) == getattr(scalar, name), name
    eps = np.finfo(float).eps
    for name in ("partial_rhs", "rounding"):
        assert getattr(blocks, name) == pytest.approx(getattr(scalar, name), rel=8 * eps), name
    assert block_verdict == verdict


def test_engine_threshold_is_count_times_nu_plus_30(monkeypatch):
    found = []
    # each engine yields blocks; these yield none
    monkeypatch.setattr(bessel_numeric, "_zeros_scalar", lambda *_: found.append("scalar") or ())
    monkeypatch.setattr(bessel_numeric, "_zeros_blocks", lambda *_: found.append("blocks") or ())
    limit = bessel_numeric._SCALAR_WORK
    cases = ((0.0, int(limit / 30)), (0.0, int(limit / 30) + 1), (170.0, 1000), (170.0, 1001))
    for nu, count in cases:
        bessel_numeric._zero_blocks(nu, count)
    assert found == ["scalar", "blocks", "scalar", "blocks"]


@pytest.mark.parametrize("nu", [0.0, 50.0, 4999.0])
def test_counts_whose_last_seed_passes_x_max_are_refused(monkeypatch, nu):
    # past x_max Newton's stop rule lets |J| pass the certificate's 1e-12
    x_max = bessel_numeric._X_MAX
    assert 0.5 * bessel_numeric._EPS * math.sqrt(2 * x_max / math.pi) < 1e-12

    def no_zeros(*_):
        raise AssertionError("a zero was found")

    monkeypatch.setattr(bessel_numeric, "_polish_block", no_zeros)
    monkeypatch.setattr(bessel_numeric, "_zeros_scalar", no_zeros)
    lo, hi = 1, 2**27  # the last seed of count lo lies below x_max, of hi past it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _seeds(nu, float(mid)) > x_max else (mid, hi)
    with pytest.raises(NumericError) as info:
        _zero_blocks(nu, hi)
    assert str(info.value) == f"zero {hi} of J_{nu} lies past the certificate's x_max = 1.25e+08"
    blocks = _zero_blocks(nu, lo)  # the block engine's generator, not yet started
    assert blocks.__name__ == "_zeros_blocks"


@pytest.mark.parametrize("nu", [0.0, 1.0, math.nextafter(1.0, 2.0), 2.7, 1000.0, 4999.999, 5000.0])
def test_seeds_are_finite_and_increasing_up_to_the_last_count(nu):
    # the zero finder has no path for a seed past binary64: within the order
    # and count limits there is none
    lo, hi = 1, 2**27  # the last count _zero_blocks accepts is lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _seeds(nu, float(mid)) > bessel_numeric._X_MAX else (mid, hi)
    k = np.unique(np.concatenate((np.arange(1, 2001), np.linspace(2001, lo, 2000).round())))
    seeds = _seeds(nu, k)
    assert np.all(np.isfinite(seeds)) and np.all(np.diff(seeds) > 0)
    assert [_seeds(nu, i) for i in k.tolist()] == seeds.tolist()


def test_accuracy_estimates_are_small(zero_cache):
    zs = zero_cache(1.0, 1000)
    assert np.all(zs.accuracy > 0)
    assert np.all(zs.accuracy < 1e-10)


def test_zero_finder_input_validation():
    with pytest.raises(NumericError):
        bessel_zeros(-1.0, 5)
    with pytest.raises(NumericError):
        bessel_zeros(0.0, 0)
    with pytest.raises(NumericError, match="^count must be >= 1, got -1$"):
        bessel_zeros(0.0, -1)


def test_zeroset_rejects_unsorted():
    bad = np.array([1.0, 0.5])
    with pytest.raises(NumericError):
        ZeroSet(nu=0.0, zeros=bad, accuracy=np.zeros(2))


@pytest.mark.parametrize("zeros", [[], [0.0, 1.0], [-1.0, 1.0]])
def test_zeroset_must_start_with_a_positive_zero(zeros):
    with pytest.raises(NumericError, match="^zero set must start with a positive zero$"):
        ZeroSet(nu=0.0, zeros=np.array(zeros), accuracy=np.zeros(len(zeros)))


_B = bessel_numeric._BLOCK


def _streamed_sigma(nu, p, count):
    """The sum `verify sigma` takes: over the zero finder's blocks to K0 as
    they come, without a ZeroSet."""
    return _sigma_sum(nu, p, _zero_blocks(nu, _summed_zeros(nu, count)))


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.7, 50.0])
def test_results_do_not_depend_on_the_block_size(monkeypatch, nu):
    counts = (_B - 1, _B, _B + 1, 2 * _B + 3)

    def results():
        out = []
        for n in counts:
            zs = bessel_zeros(nu, n)
            out.append((zs.zeros.tobytes(), zs.accuracy.tobytes()))
            out.append((numeric_sigma(nu, 1.0, zs), numeric_sigma(nu, 3.5, zs)))
            out.append(_streamed_sigma(nu, 1.0, n))
            out.append(verify_residue_identity(nu, 1.46, n))
        return out

    blocked = results()
    monkeypatch.setattr(bessel_numeric, "_BLOCK", 10**9)
    assert results() == blocked


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_residue_rounding_bounds_the_exact_error_sum(monkeypatch, engine):
    # rounding sums the terms' error bounds exactly and rounds up: the float
    # expression with the exact sum of every zero's bound, rounded up, must
    # not exceed it, and it is the same at every block size
    nu, p, count = 2.7, 1.46, 200
    eps = np.finfo(float).eps
    term = bessel_numeric._residue_terms
    pairs = bessel_numeric._jv_pair_at(nu + p), bessel_numeric._jv_pair_at(nu + 1.0)
    monkeypatch.setattr(bessel_numeric, "_SCALAR_WORK", _ENGINES[engine])
    roundings = []
    for block in (7, 64, 10**9):  # 29, 4 and 1 blocks of the 200 zeros
        monkeypatch.setattr(bessel_numeric, "_BLOCK", block)
        report = verify_residue_identity(nu, p, count)
        assert report.count == count
        exact = Fraction(0)
        for z, acc in _zero_blocks(nu, count):
            if isinstance(z, list):
                err = [term(*pairs, p, x, a, math.hypot)[1] for x, a in zip(z, acc)]
            else:
                err = term(*pairs, p, z, acc, np.hypot)[1].tolist()
            exact += sum(map(Fraction, err))
        up = float(exact)
        if Fraction(up) < exact:
            up = math.nextafter(up, math.inf)
        floor = bessel_numeric._lhs_error(nu, p, report.lhs) + up + eps * abs(report.partial_rhs)
        assert report.rounding >= floor, block
        roundings.append(report.rounding)
    assert roundings == [roundings[-1]] * 3


def test_exact_sum_is_the_sum_of_its_floats():
    # over twenty binades, with zeros and subnormals, and on many equal
    # terms, whose float sum rounds
    rng = np.random.default_rng(7)
    for x in (
        rng.random(8192) * 2.0 ** rng.integers(-60, -40, 8192),
        np.array([0.0, 5e-324, 2.5e-310, 1.0, 0.0]),
    ):
        assert bessel_numeric._exact_sum(x) == sum(map(Fraction, x.tolist())), x
    x = np.full(10**5, 1.0 - 2.0**-53)
    assert bessel_numeric._exact_sum(x) == 10**5 * Fraction(x[0]) != Fraction(x.sum())
    assert bessel_numeric._exact_sum(np.array([1.0, np.inf])) == math.inf


def test_certificate_failure_names_the_global_index(monkeypatch):
    # zero _B + 6, in the second block, fails its certificate, and zero
    # 2 _B + 2, in the third, fails it by more; the second block raises, and
    # the third is never polished
    target = _B + 6
    zeros = bessel_zeros(2.7, 2 * _B + 2).zeros
    _break_near(monkeypatch, [(zeros[target - 1], 1e-11), (zeros[-1], 1e-6)])
    polish_block, polished = bessel_numeric._polish_block, []
    monkeypatch.setattr(
        bessel_numeric, "_polish_block", lambda *a: polished.append(a) or polish_block(*a)
    )
    with pytest.raises(NumericError, match=f"^zero {target} of J_2.7 failed certification"):
        bessel_zeros(2.7, 2 * _B + 3)
    assert len(polished) == 2


def test_cli_prints_nothing_when_a_later_block_fails(monkeypatch, capsys):
    # the blocks before zero _B + 6 have passed, but nothing is printed
    # until every check has
    xi = bessel_zeros(2.7, _B + 6).zeros[-1]
    _break_near(monkeypatch, [(xi, math.nan)])
    count = str(2 * _B + 3)
    for argv in (
        ["zeros", "--nu", "2.7", "--count", count],
        ["verify", "sigma", "--p", "1", "--nu", "2.7", "--terms", count],
    ):
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"numeric breakdown: zero {_B + 6} of J_2.7 failed certification")


@pytest.mark.parametrize("missing", [_B - 1, _B, _B + 1, _B + 2])
def test_gap_check_spans_the_block_edges(monkeypatch, missing):
    # seeds one index ahead from zero `missing` on skip that zero; the gap
    # check sees it through the window that straddles the edge
    seeds = bessel_numeric._seeds
    monkeypatch.setattr(bessel_numeric, "_seeds", lambda nu, k: seeds(nu, k + (k >= missing)))
    with pytest.raises(NumericError, match=f"^zero {missing} of J_2.7 failed the index check"):
        bessel_zeros(2.7, _B + 10)


@pytest.mark.parametrize(
    "streamed_sum, p",
    [(_streamed_sigma, 1.0), (verify_residue_identity, 1.46)],
    ids=["sigma", "residues"],
)
def test_streamed_sum_memory_does_not_grow_with_the_count(streamed_sum, p):
    # the sums `verify sigma` and `verify residues` take keep no zero past
    # its block
    streamed_sum(2.7, p, 10**4)  # imports and caches outside the trace
    peaks = []
    for n in (5 * 10**4, 4 * 10**5):
        tracemalloc.start()
        try:
            streamed_sum(2.7, p, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.3 * 2**20


def test_memory_per_zero_is_a_few_words():
    # tracemalloc sees numpy's buffers; the count is many blocks, so the
    # fixed block temporaries are a small share of the peak
    n = 2 * 10**5
    verify_residue_identity(2.7, 1.46, 10)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        numeric_sigma(2.7, 1.0, bessel_zeros(2.7, n))
        zeros_and_sum = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        verify_residue_identity(2.7, 1.46, n)
        residues = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zeros_and_sum <= 4 * 8 * n
    assert residues <= 2 * 8 * n


def test_numeric_sigma_basic_values(zero_cache):
    zs0 = zero_cache(0.0, 10**4)
    assert abs(numeric_sigma(0.0, 1, zs0).value - 0.25) < 1e-10 * 0.25
    zsh = zero_cache(0.5, 10**4)
    assert abs(numeric_sigma(0.5, 1, zsh).value - 1.0 / 6.0) < 1e-10 / 6.0


def test_numeric_sigma_p9_at_zero_order(zero_cache):
    zs = zero_cache(0.0, 100)
    exact = float(SIGMA9_AT_0)
    got = numeric_sigma(0.0, 9, zs).value
    assert abs(got - exact) < 1e-9 * exact


def test_tail_correction_is_load_bearing(zero_cache):
    # without the tail the truncated sum is wrong at the 1e-5 scale; with it
    # the value lands inside 1e-10 relative
    zs = zero_cache(0.0, 10**4)
    ts = numeric_sigma(0.0, 1, zs)
    assert abs(ts.partial - 0.25) > 1e-6 * 0.25
    assert abs(ts.value - 0.25) < 1e-10 * 0.25
    assert ts.tail_estimate > 0
    assert ts.tail_bound >= 0
    assert ts.value == ts.partial + ts.tail_estimate
    assert abs(0.25 - ts.value) < ts.tail_bound


def test_numeric_sigma_validation(zero_cache):
    zs = zero_cache(0.0, 10)
    with pytest.raises(NumericError):
        numeric_sigma(0.0, 0.5, zs)
    with pytest.raises(NumericError):
        numeric_sigma(1.0, 2, zs)


def test_sigma_sum_refuses_blocks_that_end_before_k0():
    # McMahon's tail fails just past 10 zeros of J_50; the caller asks the
    # finder for K0 = 612 zeros, the sum finds none itself
    assert _summed_zeros(50.0, 10) == 612
    with pytest.raises(NumericError, match=r"needs its first 612 zeros \(K0\), given 10$"):
        _sigma_sum(50.0, 1.0, _zero_blocks(50.0, 10))


def test_numeric_sigma_on_a_short_set_sums_the_finders_zeros_to_k0():
    # a bessel_zeros set shorter than K0 is the finder's prefix, bit for
    # bit, so its sum is the one over zeros 1..K0; any other short set is
    # refused, not topped up
    zs, to_k0 = bessel_zeros(50.0, 10), bessel_zeros(50.0, 612)
    for p in (1.0, 3.5):
        assert numeric_sigma(50.0, p, zs) == numeric_sigma(50.0, p, to_k0)
    for field in ("zeros", "accuracy"):
        values = {"zeros": zs.zeros.copy(), "accuracy": zs.accuracy.copy()}
        values[field][4] = np.nextafter(values[field][4], np.inf)
        nudged = ZeroSet(50.0, values["zeros"], values["accuracy"])
        with pytest.raises(NumericError, match="short of K0 = 612 must be the finder's own$"):
            numeric_sigma(50.0, 1.0, nudged)


def _hurwitz_reference(s, q):
    """zeta(s, q) to 80 digits: the terms to q + 2000, then Euler-Maclaurin
    to the B_38 term, all in mpmath arithmetic. mpmath.zeta itself is not
    used: at s = 40, q = 300.75 it gives 6.1204688601e-99 at 50 digits and
    6.1204688592e-99 at 60, against 6.12046885891e-99."""
    with mpmath.workdps(80):
        s, q = mpmath.mpf(s), mpmath.mpf(q)
        head = mpmath.fsum((q + n) ** -s for n in range(2000))
        x = q + 2000
        rest = x ** (1 - s) / (s - 1) + x**-s / 2
        for k in range(1, 20):
            coefficient = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
            rest += coefficient * mpmath.rf(s, 2 * k - 1) * x ** (1 - s - 2 * k)
        return float(head + rest)


@pytest.mark.parametrize("s", [2.0, 2.5, 4.0, 40.0])
def test_hurwitz_zeta_is_within_its_last_term(s):
    eps = np.finfo(float).eps
    for q in (2.75, 3.0, 25.75, 300.75, 100000.75):
        value, last = _hurwitz_zeta(s, q)
        ref = _hurwitz_reference(s, q)
        assert abs(value - ref) <= last + 8 * eps * abs(ref), (q, value, ref, last)


def test_hurwitz_zeta_underflows_to_zero():
    assert _hurwitz_zeta(850.0, 2.75)[0] == 0.0


def _rhs_within_budget(r):
    return abs(r.lhs - (r.partial_rhs + r.tail_estimate)) <= r.rounding + r.tail_bound


def test_residue_identity_integer_cases():
    r = verify_residue_identity(0.0, 1.0, 2000)
    assert abs(r.lhs - 0.25) < 1e-15
    assert _rhs_within_budget(r)
    assert r.residual < 1e-4
    r2 = verify_residue_identity(0.0, 2.0, 2000)
    assert abs(r2.lhs - 1.0 / 16.0) < 1e-15


def test_residue_identity_noninteger_p():
    terms = 2000
    r = verify_residue_identity(0.25, 1.5, terms)
    assert _rhs_within_budget(r)
    assert r.residual < residue_tail_scale(0.25, 1.5, terms)


@pytest.mark.parametrize("nu", [0.0, 2.7, 50.0])
def test_residue_tail_at_p1_is_the_sigma_tail(nu):
    # at p = 1 the ratio is J_{nu+1}/J_{nu+1} = 1, so the residue sum is
    # sigma(1, nu): both tails must come from the one power-tail rule, with
    # the series' c = 0 and s = 1 exact
    for n in (10, 1000):
        r = verify_residue_identity(nu, 1.0, n)
        assert r.tail_estimate == numeric_sigma(nu, 1, bessel_zeros(nu, n)).tail_estimate


def test_residue_residual_decreases_with_terms():
    residuals = [verify_residue_identity(1.7, 3.2, n).residual for n in (500, 1000, 2000)]
    assert residuals[0] > residuals[1] > residuals[2]


def test_residue_identity_validation():
    with pytest.raises(NumericError):
        verify_residue_identity(0.0, 0.0, 100)
    with pytest.raises(NumericError):
        verify_residue_identity(0.0, 1.0, 1)


def test_lgamma_matches_integer_factorials():
    for n in range(1, 171):
        got = math.lgamma(n + 1)
        ref = math.log(math.factorial(n))
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))
    assert abs(residue_identity_lhs(0.0, 1.0) - 0.25) < 1e-15


@pytest.mark.parametrize("p, k", [(0, 1), (2, 0)])
def test_verify_ratio_formula_validation(p, k):
    with pytest.raises(NumericError, match=f"^p and k must be >= 1, got p={p}, k={k}$"):
        verify_ratio_formula(0.0, p, k)


def test_verify_ratio_formula_residuals():
    assert verify_ratio_formula(0.0, 1, 1) < 1e-15
    for k in range(1, 6):
        assert verify_ratio_formula(0.0, 5, k) < 1e-8
    assert verify_ratio_formula(1.7, 3, 3) < 1e-9


def test_lommel_sums_the_ratio_expansion_and_the_chain_exactly():
    # A_p is the sum of build_ratio_expansion's terms at the exact nu and x,
    # B_p the Fraction chain r_{n+1} = (2(nu+n)/x) r_n - r_{n-1} from (1, 0);
    # 0.1, 7.3 and 5003.3 have a long binary64 denominator, 1000/3 a long
    # numerator, and each nu takes one x to keep the Fraction sums short
    ps = (*range(1, 61), 199)
    terms = {p: build_ratio_expansion(p).terms for p in ps}
    for nu, x in ((0.0, 0.1), (0.5, 7.3), (2.7, 2.5), (1000 / 3, 1234.5678), (4999.5, 5003.3)):
        nu_q, u = Fraction(nu), 2 / Fraction(x)
        r0, r1 = Fraction(1), Fraction(0)
        for p in range(1, ps[-1] + 1):
            if p in terms:
                a = sum(c.evaluate(nu_q) * u**m for _, c, m in terms[p])
                assert _lommel(p, nu, x) == (a, r1), (p, nu, x)
            r0, r1 = r1, (nu_q + p) * u * r1 - r0
