"""End-to-end coverage of the command-line interface via main(argv)."""

import hashlib
import io
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rayleigh_sums import (
    SigmaTable,
    bessel_numeric,
    cli,
    derive_sigma,
    eval_sigma_exact,
    sigma_value,
    zeta,
)
from rayleigh_sums.cli import main

from golden_forms import golden_frf

# the sha256 of each closed-form output the benchmark's workloads can ask for,
# keyed by argv; read here, written only by perfbench/make_references.py
REFERENCE_SHA256 = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text()
)["sha256"]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_derive_text_p1(capsys):
    rc, out, err = run(capsys, "derive", "--p", "1")
    assert rc == 0
    assert out == "1 / (2^2 (v+1))\n"
    assert err == ""


def test_derive_latex_p6(capsys):
    rc, out, _ = run(capsys, "derive", "--p", "6", "--format", "latex")
    assert rc == 0
    assert out.rstrip("\n") == (
        "\\frac{21\\nu^{3}+181\\nu^{2}+513\\nu+473}"
        "{2^{11}(\\nu+1)^{6}(\\nu+2)^{3}(\\nu+3)^{2}(\\nu+4)(\\nu+5)(\\nu+6)}"
    )


def test_derive_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "derive", "--p", "7", "--format", "json")
    assert rc == 0
    assert json.loads(out) == golden_frf(7).to_json_dict()


def test_derive_rejects_p0(capsys):
    rc, out, err = run(capsys, "derive", "--p", "0")
    assert rc == 2
    assert err.startswith("error:")


def test_eval_exact_values(capsys):
    assert run(capsys, "eval", "--p", "1", "--nu", "0", "--exact") == (0, "1/4\n", "")
    assert run(capsys, "eval", "--p", "9", "--nu", "0", "--exact") == (
        0,
        "946523/6849130659840\n",
        "",
    )
    assert run(capsys, "eval", "--p", "2", "--nu", "1/2", "--exact") == (0, "1/90\n", "")


def test_eval_float_mode(capsys):
    rc, out, _ = run(capsys, "eval", "--p", "1", "--nu", "0")
    assert rc == 0
    assert out == "0.25\n"


def test_eval_float_underflow_is_numeric_breakdown(capsys):
    for p, nu in (("40", "1000000"), ("60", "100000")):
        rc, out, err = run(capsys, "eval", "--p", p, "--nu", nu)
        assert rc == 4
        assert out == ""
        assert err == f"numeric breakdown: sigma(p={p}, nu={nu}) underflows binary64\n"
    rc, out, _ = run(capsys, "eval", "--p", "40", "--nu", "1000000", "--exact")
    assert rc == 0
    assert 0 < Fraction(out) < 1e-300


def test_float_sigma_that_must_underflow_fails_fast(capsys):
    # for nu >= 0, sigma(p, nu) <= max(nu, 2.4)**(-2(p-1)) / (4(nu+1)), which
    # is below 2**-1075 from p = 426 on at nu = 0, so the float is refused
    # before the exact value is computed
    assert float(sigma_value(426, 0)) == 0.0
    assert cli._sigma_underflows(426, Fraction(0)) and not cli._sigma_underflows(425, Fraction(0))
    assert run(capsys, "eval", "--p", "300", "--nu", "0") == (0, "2.237962041795577e-229\n", "")
    rc, out, err = run(capsys, "verify", "sigma", "--p", "1000", "--nu", "1", "--terms", "2")
    assert (rc, out) == (4, "")
    assert err == "numeric breakdown: sigma(p=1000, nu=1) underflows binary64\n"
    proc = subprocess.run(
        [sys.executable, "-m", "rayleigh_sums", "eval", "--p", "100000", "--nu", "0"],
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "numeric breakdown: sigma(p=100000, nu=0) underflows binary64\n"


def test_float_sigma_underflow_bound_follows_nu(capsys, monkeypatch):
    # at nu = 1000 the bound is below 2**-1075 from p = 55 on, since
    # j_{nu,1} > nu; p = 53 is a subnormal
    assert run(capsys, "eval", "--p", "53", "--nu", "1000") == (0, "1.8961e-319\n", "")

    def refuse(*_):
        raise AssertionError("sigma_value called for a sigma that must underflow")

    monkeypatch.setattr(cli, "sigma_value", refuse)
    # each message names nu as typed, not reduced to 27/10
    for argv in (
        ("eval", "--p", "55", "--nu", "1000"),
        ("verify", "sigma", "--p", "425", "--nu", "1000", "--terms", "2"),
        ("eval", "--p", "426", "--nu", "0"),
        ("eval", "--p", "1000", "--nu", "2.7"),
        ("verify", "sigma", "--p", "1000", "--nu", "2.70", "--terms", "2"),
    ):
        p = argv[argv.index("--p") + 1]
        nu = argv[argv.index("--nu") + 1]
        assert run(capsys, *argv) == (
            4, "", f"numeric breakdown: sigma(p={p}, nu={nu}) underflows binary64\n"
        )
    # an order beyond binary64's range, and one just below 2**1073 at p = 1
    assert cli._sigma_underflows(1, Fraction(10**400))
    assert cli._sigma_underflows(2, Fraction(2**1000))
    assert not cli._sigma_underflows(1, Fraction(2**1072))


def test_float_sigma_underflow_bound_uses_sigma_2(capsys, monkeypatch):
    # j_{nu,1}**-4 <= sigma(2, nu) = 1/(16(nu+1)^2(nu+2)) puts j_{2,1} above
    # 576**(1/4) = 4.90, where nu and 2.4 give only 2.4, so at nu = 2 the
    # float is refused from p = 235 on, not from p = 426; p = 227 is a
    # subnormal
    assert run(capsys, "eval", "--p", "227", "--nu", "2") == (0, "2.5e-323\n", "")

    def refuse(*_):
        raise AssertionError("sigma_value called for a sigma that must underflow")

    monkeypatch.setattr(cli, "sigma_value", refuse)
    for argv in (
        ("eval", "--p", "235", "--nu", "2"),
        ("verify", "sigma", "--p", "235", "--nu", "2", "--terms", "2"),
    ):
        assert run(capsys, *argv) == (
            4, "", "numeric breakdown: sigma(p=235, nu=2) underflows binary64\n"
        )


@pytest.mark.parametrize(
    "nu, first",
    [("0", 426), ("1/2", 332), ("1", 284), ("2", 235), ("3", 209), ("4", 192), ("10", 149),
     ("16", 132), ("20", 125)],
)
def test_float_sigma_underflow_bound_is_sound(nu, first):
    # the first p the bound refuses, and the two after it, really round to 0
    nu = Fraction(nu)
    assert next(p for p in itertools.count(1) if cli._sigma_underflows(p, nu)) == first
    for p in range(first, first + 3):
        assert float(sigma_value(p, nu)) == 0.0


def test_eval_pole_exit_code(capsys):
    rc, out, err = run(capsys, "eval", "--p", "1", "--nu", "-1", "--exact")
    assert rc == 3
    assert err == "pole at nu=-1\n"


def test_point_values_do_not_derive_closed_forms(capsys, monkeypatch):
    # eval, zeta and verify sigma need sigma at one nu; their lines must
    # still be the ones the derived closed forms give
    table = SigmaTable()
    derive_sigma(table, 60)
    s60 = eval_sigma_exact(table[60], Fraction(17, 3))
    z40 = eval_sigma_exact(table[40], Fraction(1, 2))
    s25 = eval_sigma_exact(table[25], Fraction(27, 10))

    def refuse(*_):
        raise AssertionError("derive_sigma called")

    for module in (cli, zeta):
        monkeypatch.setattr(module, "derive_sigma", refuse, raising=False)
    assert run(capsys, "eval", "--p", "60", "--nu", "17/3", "--exact") == (0, f"{s60}\n", "")
    assert run(capsys, "eval", "--p", "60", "--nu", "17/3") == (0, f"{float(s60)!r}\n", "")
    z80 = zeta.ZetaValue(80, z40, zeta._trial_factor(z40.denominator))
    assert run(capsys, "zeta", "--p", "40") == (0, cli._format_zeta(z80) + "\n", "")
    rc, out, _ = run(capsys, "verify", "sigma", "--p", "25", "--nu", "2.7", "--terms", "300")
    assert rc == 0
    assert out.splitlines()[0] == f"lhs = {float(s25)!r} (exact {s25})"
    assert run(capsys, "eval", "--p", "5", "--nu", "-5", "--exact") == (3, "", "pole at nu=-5\n")


def test_eval_negative_fraction_nu_needs_equals_form(capsys):
    # argparse reads "-7/3" after a space as an option, so the README asks
    # for --nu=-7/3
    expected = (0, f"{sigma_value(5, Fraction(-7, 3))}\n", "")
    assert run(capsys, "eval", "--p", "5", "--nu=-7/3", "--exact") == expected
    assert run(capsys, "eval", "--p", "5", "--nu", "-7/3", "--exact")[0] == 2


def test_eval_rejects_bad_nu(capsys):
    rc, _, err = run(capsys, "eval", "--p", "1", "--nu", "abc", "--exact")
    assert rc == 2
    assert "cannot parse rational" in err


def test_eval_float_rejects_negative_nu(capsys):
    rc, _, err = run(capsys, "eval", "--p", "1", "--nu", "-0.5")
    assert rc == 2


def test_verify_sigma_pass(capsys):
    rc, out, _ = run(capsys, "verify", "sigma", "--p", "3", "--nu", "1", "--terms", "5000")
    assert rc == 0
    assert "result: PASS" in out
    assert "tail_bound" in out


def test_verify_sigma_underflow_is_numeric_breakdown(capsys):
    rc, out, err = run(capsys, "verify", "sigma", "--p", "40", "--nu", "1000000", "--terms", "2")
    assert rc == 4
    assert out == ""
    assert err == "numeric breakdown: sigma(p=40, nu=1000000) underflows binary64\n"


@pytest.mark.parametrize("p, nu", [("2", "50"), ("9", "1000")])
def test_verify_sigma_passes_with_few_zeros_at_large_order(capsys, p, nu):
    # two zeros ask for a tail where McMahon's expansion fails; the sum
    # reaches K0 on real zeros first, so the budget holds and is met
    rc, out, _ = run(capsys, "verify", "sigma", "--p", p, "--nu", nu, "--terms", "2")
    assert (rc, out.splitlines()[-1]) == (0, "result: PASS")


def test_verify_sigma_budget_rejects_a_wrong_sigma(capsys, monkeypatch):
    # the verdict reads tail_bound, far below 1e-12 relative here, so a
    # sigma off by that much fails
    argv = ("verify", "sigma", "--p", "3", "--nu", "1", "--terms", "300")
    assert run(capsys, *argv)[0] == 0
    exact = cli.sigma_value
    monkeypatch.setattr(
        cli, "sigma_value", lambda p, nu: exact(p, nu) * (1 + Fraction(1, 10**12))
    )
    rc, out, _ = run(capsys, *argv)
    assert (rc, out.splitlines()[-1]) == (1, "result: FAIL")


def test_verify_sigma_refuses_a_budget_that_reaches_sigma(capsys, monkeypatch):
    # a tail_bound above sigma = 3.3e-4 would pass a sum of 0 too: no
    # verdict, exit 4
    tailed = bessel_numeric._sigma_sum

    def loose(*args):
        ts = tailed(*args)
        return bessel_numeric.TailedSum(
            partial=ts.partial, tail_estimate=ts.tail_estimate, tail_bound=1.0, value=ts.value
        )

    monkeypatch.setattr(bessel_numeric, "_sigma_sum", loose)
    assert run(capsys, "verify", "sigma", "--p", "3", "--nu", "1", "--terms", "300") == (
        4,
        "",
        "numeric breakdown: sigma(p=3, nu=1) cannot be checked on 300 zeros: "
        "its error budget reaches |lhs| = 3.255e-04\n",
    )


_VERIFY_FIELDS = {
    "sigma --p 3 --nu 1 --terms 300": ("lhs", "rhs", "residual", "tail_bound"),
    "residues --p 1.5 --nu 0.25 --terms 2000": ("lhs", "rhs", "residual", "tail_bound", "rounding"),
    "ratio --p 5 --nu 0 --k 3": ("lhs", "rhs", "residual", "budget"),
}

# the check each command's lines must print, for the same arguments
_VERIFY_CHECKS = {
    "sigma": lambda: bessel_numeric._sigma_check(Fraction(1), 3, 300, sigma_value(3, 1)),
    "residues": lambda: bessel_numeric._residue_check(0.25, 1.5, 2000),
    "ratio": lambda: bessel_numeric._ratio_check(0.0, 5, 3),
}


@pytest.mark.parametrize("command", list(_VERIFY_FIELDS))
def test_verify_output_fields(capsys, command):
    # what perfbench/checks.py parses: "name = value" lines, sigma's lhs as
    # "<float> (exact <fraction>)", and a last line "result: PASS"; the lines
    # are the check's record, and its budget alone decides the exit code
    rc, out, _ = run(capsys, "verify", *command.split())
    *lines, last = out.splitlines()
    assert [line.split(" = ")[0] for line in lines] == list(_VERIFY_FIELDS[command])
    fields = dict(line.split(" = ") for line in lines)
    if command.startswith("sigma"):
        fields["lhs"], exact = fields["lhs"].split(" (exact ")
        assert float(fields["lhs"]) == float(Fraction(exact.removesuffix(")")))
    for name in ("lhs", "rhs", "residual"):
        float(fields[name])
    check = _VERIFY_CHECKS[command.split()[0]]()
    exact = f" (exact {check.lhs})" if isinstance(check.lhs, Fraction) else ""
    assert lines == [
        f"lhs = {float(check.lhs)!r}{exact}",
        f"rhs = {check.rhs!r}",
        f"residual = {check.residual:.6e}",
        *(f"{n} = {v:.6e}" for n, v in check.terms),
    ]
    assert rc == (0 if check.residual <= check.budget else 1)
    assert (rc, last) == (0, "result: PASS")


@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", "--nu", "inf", "--count", "2"),
        ("zeros", "--nu", "nan", "--count", "2"),
        ("verify", "residues", "--p", "1", "--nu", "nan"),
        ("verify", "residues", "--p", "inf", "--nu", "0"),
        ("verify", "ratio", "--p", "2", "--nu", "nan", "--k", "1"),
        ("verify", "sigma", "--p", "1", "--nu", "1e400"),
    ],
    ids=["zeros-nu-inf", "zeros-nu-nan", "residues-nu-nan", "residues-p-inf",
         "ratio-nu-nan", "sigma-nu-overflow"],
)
def test_out_of_range_float_inputs_are_usage_errors(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


# one bad value per flag per subcommand, and the whole of stderr it gives;
# --tol, which no verify command takes, is an unrecognized argument
_USAGE_MESSAGES = {
    "derive --p 0": "error: p must be >= 1\n",
    "derive --p abc": (
        "usage: rayleigh derive [-h] --p P [--format {text,json,latex}]\n"
        "rayleigh derive: error: argument --p: invalid int value: 'abc'\n"
    ),
    "eval --p 0 --nu 1": "error: p must be >= 1\n",
    "eval --p 1 --nu 1/0": "error: cannot parse rational '1/0': Fraction(1, 0)\n",
    "eval --p 1 --nu -0.5": "error: nu must be >= 0 unless --exact is given\n",
    "verify sigma --p 0 --nu 1": "error: p must be >= 1\n",
    "verify sigma --p 1 --nu -1": "error: nu must be >= 0\n",
    "verify sigma --p 1 --nu 1e400": "error: nu=1e400 is out of binary64 range\n",
    "verify sigma --p 1 --nu 1 --terms 1": "error: terms must be >= 2\n",
    "verify sigma --p 1 --nu 1 --tol -0.5": (
        "usage: rayleigh [-h] {derive,eval,verify,zeta,zeros,table} ...\n"
        "rayleigh: error: unrecognized arguments: --tol -0.5\n"
    ),
    "verify residues --p 0 --nu 0": "error: p must be > 0\n",
    "verify residues --p x --nu 0": (
        "usage: rayleigh verify residues [-h] --p P --nu NU [--terms TERMS]\n"
        "rayleigh verify residues: error: argument --p: invalid float value: 'x'\n"
    ),
    "verify residues --p 1 --nu -1": "error: nu must be >= 0\n",
    "verify residues --p 1 --nu 0 --terms 1": "error: terms must be >= 2\n",
    "verify residues --p 1 --nu 0 --tol nan": (
        "usage: rayleigh [-h] {derive,eval,verify,zeta,zeros,table} ...\n"
        "rayleigh: error: unrecognized arguments: --tol nan\n"
    ),
    "verify ratio --p 0 --nu 0": "error: p must be >= 1\n",
    "verify ratio --p 2 --nu -1": "error: nu must be >= 0\n",
    "verify ratio --p 2 --nu 0 --k 0": "error: k must be >= 1\n",
    "verify ratio --p 2 --nu 0 --tol -1": (
        "usage: rayleigh [-h] {derive,eval,verify,zeta,zeros,table} ...\n"
        "rayleigh: error: unrecognized arguments: --tol -1\n"
    ),
    "zeta --p 0": "error: p must be >= 1\n",
    "zeta --p 1 --digits 46": "error: digits must be in 1..45\n",
    "zeros --nu -1 --count 2": "error: nu must be >= 0\n",
    "zeros --nu nan --count 2": "error: nu must be finite, got nan\n",
    "zeros --nu 0 --count 0": "error: count must be >= 1\n",
    "zeros --nu 0 --count 2 --digits 18": "error: digits must be in 1..17\n",
    "table --pmax 0": "error: pmax must be >= 1\n",
}


@pytest.mark.parametrize("command", list(_USAGE_MESSAGES))
def test_usage_messages(capsys, command):
    assert run(capsys, *command.split()) == (2, "", _USAGE_MESSAGES[command])


def test_verify_residues_pass(capsys):
    # at p = 0.01 the tail past 100 zeros is most of lhs, and its bound keeps
    # the budget far below it
    for p, nu, terms in (("1.5", "0.25", "20000"), ("0.01", "1", "100")):
        rc, out, _ = run(capsys, "verify", "residues", "--p", p, "--nu", nu, "--terms", terms)
        assert rc == 0
        assert "result: PASS" in out


def test_verify_residues_allows_for_rounding(capsys, monkeypatch):
    # at p = 20 the tail scale is 1.7e-78 against lhs 2e-28, so only the
    # rounding allowance (6e-13 relative here) separates a correct sum, off
    # by 2.7e-15, from one whose lhs is off by 1e-12
    argv = ("verify", "residues", "--p", "20", "--nu", "2.7", "--terms", "2000")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "result: PASS" in out
    lhs = bessel_numeric.residue_identity_lhs
    monkeypatch.setattr(
        bessel_numeric, "residue_identity_lhs", lambda nu, p: lhs(nu, p) * (1.0 + 1e-12)
    )
    rc, out, _ = run(capsys, *argv)
    assert rc == 1
    assert "result: FAIL" in out


@pytest.mark.parametrize(
    "p, nu, terms, summed, lhs, loose",
    [
        ("1e-300", "1", "100", 100, "5.000e-01", False),
        ("0.01", "1", "100", 100, "4.944e-01", True),
        ("1e-300", "50", "10", 612, "5.000e-01", False),
    ],
    ids=["1e-300", "0.01", "1e-300-k0"],
)
def test_verify_residues_refuses_a_budget_that_reaches_lhs(
    capsys, monkeypatch, p, nu, terms, summed, lhs, loose
):
    # where p + 1 rounds to 1 the tail's bound is infinite, so a sum of 0
    # would pass the budget too: no verdict. At p = 0.01 the real bound
    # passes (test_verify_residues_pass); one of 1 must meet the same refusal.
    # The refusal names the zeros summed: at nu = 50, K0 = 612 past 10 asked
    if loose:
        tail = bessel_numeric._residue_tail
        monkeypatch.setattr(bessel_numeric, "_residue_tail", lambda *args: (tail(*args)[0], 1.0))
    assert run(capsys, "verify", "residues", "--p", p, "--nu", nu, "--terms", terms) == (
        4,
        "",
        f"numeric breakdown: the residue identity for p={float(p)}, nu={float(nu)} cannot be "
        f"checked on {summed} zeros: its error budget reaches |lhs| = {lhs}\n",
    )


def test_verify_residues_underflowing_lhs_is_numeric_breakdown(capsys):
    # lhs = Gamma(2) / (2^201 Gamma(202)) is about 1e-437, which rounds to 0
    # in binary64, so no sum can be checked against it
    for p in ("200", "1e300"):
        rc, out, err = run(capsys, "verify", "residues", "--p", p, "--nu", "1", "--terms", "1000")
        assert rc == 4
        assert out == ""
        assert err == (
            f"numeric breakdown: Gamma(nu+1) / (2^(p+1) Gamma(nu+p+1)) at p={float(p)}, "
            "nu=1.0 underflows binary64\n"
        )


def test_verify_residues_past_lgamma_range_is_numeric_breakdown(capsys):
    # math.lgamma overflows above about 2.55e305, here at nu + 1 and at
    # nu + p + 1; that is a numeric breakdown, not a failed verification
    for p, nu, arg in (("0.5", "3e305", "3e+305"), ("1e306", "1", "1e+306")):
        rc, out, err = run(capsys, "verify", "residues", "--p", p, "--nu", nu, "--terms", "2")
        assert rc == 4
        assert out == ""
        assert err == f"numeric breakdown: log Gamma({arg}) overflows binary64\n"


def test_verify_ratio_expansion_past_binary64_is_numeric_breakdown(capsys):
    # the budget is refused before the expansion is evaluated; at p = 400
    # |B_p| passes 1.8e308 and J_{nu+p} underflows to 0, and at p = 2000 it is
    # refused before B_p's exact chain too, which took 10 s
    for p, ratio in (
        ("170", "2.090e-233"), ("200", "7.979e-288"), ("400", "0.000e+00"), ("2000", "0.000e+00")
    ):
        assert run(capsys, "verify", "ratio", "--p", p, "--nu", "2.5") == (
            4,
            "",
            f"numeric breakdown: the ratio expansion for p={p} cannot be checked in "
            f"binary64 at x=5.763459: its error budget reaches |ratio| = {ratio}\n",
        )


@pytest.mark.parametrize(
    "p, nu, x, ratio",
    [("20", "0", "2.404826", "2.949e-17"), ("30", "10", "14.475501", "4.523e-14"),
     ("60", "50", "57.116899", "5.701e-21")],
)
def test_verify_ratio_budget_past_ratio_is_numeric_breakdown(capsys, p, nu, x, ratio):
    # at the first zero |B_p| times the zero's accuracy reaches |ratio|, so
    # no binary64 zero can check the expansion
    assert run(capsys, "verify", "ratio", "--p", p, "--nu", nu, "--k", "1") == (
        4,
        "",
        f"numeric breakdown: the ratio expansion for p={p} cannot be checked in "
        f"binary64 at x={x}: its error budget reaches |ratio| = {ratio}\n",
    )


def test_verify_ratio_pass(capsys):
    for p in ("5", "20"):
        rc, out, _ = run(capsys, "verify", "ratio", "--p", p, "--nu", "0", "--k", "3")
        fields = dict(line.split(" = ") for line in out.splitlines()[:-1])
        assert float(fields["residual"]) <= float(fields["budget"])
        assert (rc, out.splitlines()[-1]) == (0, "result: PASS")


def test_verify_ratio_budget_rejects_a_wrong_expansion(capsys, monkeypatch):
    # the budget is 2.4e-14 against a ratio of 0.107 here, so an expansion
    # off by 1e-12 relative fails
    argv = ("verify", "ratio", "--p", "5", "--nu", "0", "--k", "3")
    assert run(capsys, *argv)[0] == 0
    exact = bessel_numeric.build_ratio_expansion

    class Off:
        def __init__(self, coefficient):
            self.coefficient = coefficient

        def evaluate(self, nu):
            return self.coefficient.evaluate(nu) * (1 + Fraction(1, 10**12))

    def wrong(p):
        expansion = exact(p)
        terms = tuple((q, Off(c), m) for q, c, m in expansion.terms)
        return type(expansion)(p=p, terms=terms)

    monkeypatch.setattr(bessel_numeric, "build_ratio_expansion", wrong)
    rc, out, _ = run(capsys, *argv)
    assert (rc, out.splitlines()[-1]) == (1, "result: FAIL")


def test_zeta_exact_strings(capsys):
    assert run(capsys, "zeta", "--p", "6")[1] == (
        "zeta(12) = 691 * pi^12 / (3^6 * 5^3 * 7^2 * 11 * 13)\n"
    )
    assert run(capsys, "zeta", "--p", "1")[1] == "zeta(2) = pi^2 / (2 * 3)\n"
    assert run(capsys, "zeta", "--p", "7")[1] == (
        "zeta(14) = 2 * pi^14 / (3^6 * 5^2 * 7 * 11 * 13)\n"
    )


def test_zeta_float_line(capsys):
    rc, out, _ = run(capsys, "zeta", "--p", "1", "--float", "--digits", "30")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "zeta(2) = pi^2 / (2 * 3)"
    assert lines[1] == "zeta(2) ~= 1.64493406684822643647241516665"


def test_zeta_digits_out_of_range_is_usage_error(capsys):
    for digits in ("60", "0"):
        rc, out, err = run(capsys, "zeta", "--p", "3", "--float", "--digits", digits)
        assert rc == 2
        assert out == ""
        assert err == "error: digits must be in 1..45\n"
    rc, out, _ = run(capsys, "zeta", "--p", "1", "--float", "--digits", "45")
    assert rc == 0
    assert out.splitlines()[1] == "zeta(2) ~= 1.64493406684822643647241516664602518921894990"


def test_zeros_output(capsys):
    rc, out, _ = run(capsys, "zeros", "--nu", "0", "--count", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "2.404825557695773"
    assert lines[1] == "5.520078110286311"
    assert lines[2] == "8.653727912911013"


def test_zeros_digit_control(capsys):
    rc, out, _ = run(capsys, "zeros", "--nu", "0", "--count", "1", "--digits", "6")
    assert rc == 0
    assert out == "2.404826\n"
    rc, _, _ = run(capsys, "zeros", "--nu", "0", "--count", "1", "--digits", "18")
    assert rc == 2


@pytest.mark.parametrize("digits", [1, 15, 17])
def test_zeros_output_is_fixed_point_at_every_digit_count(capsys, digits):
    # more than one block of output
    count = bessel_numeric._BLOCK + 5
    rc, out, _ = run(
        capsys, "zeros", "--nu", "2.7", "--count", str(count), "--digits", str(digits)
    )
    assert rc == 0
    zeros = bessel_numeric.bessel_zeros(2.7, count).zeros
    assert out == "".join(f"{z:.{digits}f}\n" for z in map(float, zeros))


def test_zeros_out_of_reach_fail_loudly(capsys):
    # zeros 1004..1010 of J_1000 come from uniform seeds, since McMahon's are
    # more than pi/4 off there; the values are mpmath's, to 20 digits
    rc, out, err = run(capsys, "zeros", "--nu", "1000", "--count", "1010")
    assert rc == 0
    assert err == ""
    refs = (4615.4072871084876346, 4618.6252660918566645, 4621.8431348032469258,
            4625.0608934878884693, 4628.278542390265604, 4631.4960817541197987,
            4634.71351182245257)
    got = [float(line) for line in out.splitlines()]
    assert len(got) == 1010
    assert all(abs(g - r) <= 1e-12 * r for g, r in zip(got[1003:], refs))
    # J_nu at nu = 1e20 is past the kernel's order limit; in a subprocess so
    # that a search that never ends fails the test instead of hanging it
    proc = subprocess.run(
        [sys.executable, "-m", "rayleigh_sums", "zeros", "--nu", "1e20", "--count", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == (
        "numeric breakdown: J_1e+20: the kernel's error is measured to order 5000 only\n"
    )


def test_zeros_past_binary64_print_only_the_breakdown():
    # the order is refused before any seed, Newton step or gap could turn
    # inf or nan, and nothing but the message reaches stderr
    proc = subprocess.run(
        [sys.executable, "-m", "rayleigh_sums", "zeros", "--nu", "1e50", "--count", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0] == (
        "numeric breakdown: J_1e+50: the kernel's error is measured to order 5000 only"
    )


@pytest.mark.parametrize(
    "argv, order",
    [
        (("zeros", "--nu", "5000.5", "--count", "3"), "5000.5"),
        (("verify", "residues", "--p", "1.5", "--nu", "4999", "--terms", "10"), "5000.5"),
        (("verify", "residues", "--p", "0.3", "--nu", "4999.5", "--terms", "10"), "5000.5"),
        (("verify", "ratio", "--p", "3", "--nu", "4999", "--k", "1"), "5002.0"),
        (("verify", "sigma", "--p", "2", "--nu", "6000", "--terms", "2"), "6000.0"),
        (("verify", "sigma", "--p", "1", "--nu", "30000", "--terms", "2"), "30000.0"),
        (("verify", "residues", "--p", "1", "--nu", "30000", "--terms", "2"), "30001.0"),
        (("verify", "sigma", "--p", "1", "--nu", "1e8", "--terms", "2"), "100000000.0"),
        (("verify", "sigma", "--p", "1", "--nu", "1e308", "--terms", "2"), "1e+308"),
    ],
    ids=[
        "zeros", "residues-nu-plus-p", "residues-nu-plus-1", "ratio-nu-plus-p", "sigma",
        "sigma-k0", "residues-k0", "sigma-nu-1e8", "sigma-k0-past-binary64",
    ],
)
def test_orders_past_the_limit_exit_4(capsys, argv, order):
    # the order of J each call would first evaluate past 5000 is named, also
    # where K0 = 12.2 nu would take hours of zero finding (nu = 30000, 1e8)
    # or pass binary64 (nu = 1e308)
    assert run(capsys, *argv) == (
        4, "", f"numeric breakdown: J_{order}: the kernel's error is measured to order 5000 only\n"
    )


_PAST_BINARY64 = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", "--nu", "0", "--count", _PAST_BINARY64),
        ("verify", "sigma", "--p", "1", "--nu", "0", "--terms", _PAST_BINARY64),
        ("verify", "residues", "--p", "1", "--nu", "0", "--terms", _PAST_BINARY64),
        ("verify", "ratio", "--p", "2", "--nu", "0", "--k", _PAST_BINARY64),
        None,
    ],
    ids=["zeros", "sigma", "residues", "ratio", "bessel_zeros"],
)
def test_counts_past_binary64_are_refused_at_x_max(capsys, argv):
    # the count is compared with x_max as an int, before count * (nu + 30)
    # could overflow a float
    message = f"zero {_PAST_BINARY64} of J_0.0 lies past the certificate's x_max = 1.25e+08"
    if argv is None:
        with pytest.raises(bessel_numeric.NumericError) as info:
            bessel_numeric.bessel_zeros(0.0, 10**400)
        assert str(info.value) == message
    else:
        assert run(capsys, *argv) == (4, "", f"numeric breakdown: {message}\n")


def test_zeros_at_the_order_limit(capsys):
    rc, out, err = run(capsys, "zeros", "--nu", "5000", "--count", "3")
    assert (rc, err) == (0, "")
    assert out == "".join(f"{z:.15f}\n" for z in bessel_numeric.bessel_zeros(5000.0, 3).zeros)


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("count", [20, 2 * bessel_numeric._BLOCK + 5], ids=["scalar", "blocks"])
def test_zeros_writes_once_per_block(monkeypatch, count):
    # an unbuffered stdout makes a system call of every write
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["zeros", "--nu", "0", "--count", str(count)]) == 0
    assert len(out.getvalue().splitlines()) == count
    assert out.writes <= -(-count // bessel_numeric._BLOCK)


def test_table_text(capsys):
    rc, out, _ = run(capsys, "table", "--pmax", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "sigma(1) = 1 / (2^2 (v+1))"
    assert lines[1] == "sigma(2) = 1 / (2^4 (v+1)^2 (v+2))"
    assert lines[2] == "sigma(3) = 1 / (2^5 (v+1)^3 (v+2) (v+3))"


def test_table_latex(capsys):
    rc, out, _ = run(capsys, "table", "--pmax", "2", "--format", "latex")
    assert rc == 0
    assert out.splitlines() == [
        "\\sigma(1,\\nu) = \\frac{1}{2^{2}(\\nu+1)}",
        "\\sigma(2,\\nu) = \\frac{1}{2^{4}(\\nu+1)^{2}(\\nu+2)}",
    ]


def test_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--pmax", "3", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert [d["p"] for d in doc] == [1, 2, 3]
    for d in doc:
        p = d.pop("p")
        assert d == golden_frf(p).to_json_dict()


@pytest.mark.parametrize("argv", sorted(REFERENCE_SHA256))
def test_closed_form_bytes_match_the_reference_hashes(capsys, argv):
    rc, out, err = run(capsys, *argv.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REFERENCE_SHA256[argv]


def test_unknown_arguments_are_usage_errors(capsys):
    assert run(capsys, "derive", "--p", "1", "--bogus")[0] == 2
    assert run(capsys, "derive", "--p", "1", "--cache", "x")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    for command in ("sigma --p 3 --nu 1", "residues --p 1 --nu 0", "ratio --p 2 --nu 0"):
        assert run(capsys, "verify", *command.split(), "--tol", "1")[0] == 2
    assert run(capsys)[0] == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rayleigh_sums", "derive", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 / (2^2 (v+1))\n"
