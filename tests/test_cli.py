"""End-to-end coverage of the command-line interface via main(argv)."""

import hashlib
import io
import itertools
import json
import math
import os
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
    rayleigh_core,
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
    # sigma(p, nu) <= sigma(p, 0) for nu >= 0, and float(sigma(425, 0)) is
    # already 0, so a p past 425 is refused before any arithmetic
    assert float(sigma_value(426, 0)) == 0.0
    assert cli._FLOAT_P_MAX == 425
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
    # the interval's upper end rounds to 0 from p = 54 on at nu = 1000; p = 53
    # is a subnormal
    assert run(capsys, "eval", "--p", "53", "--nu", "1000") == (0, "1.8961e-319\n", "")

    def refuse(*_):
        raise AssertionError("sigma_value called for a sigma that must underflow")

    monkeypatch.setattr(cli, "sigma_value", refuse)
    # each message names nu as typed, not reduced to 27/10
    for argv in (
        ("eval", "--p", "55", "--nu", "1000"),
        ("verify", "sigma", "--p", "425", "--nu", "1000", "--terms", "2"),
        # a subnormal sigma, whose relative budget underflows: 0 at p = 409,
        # and at nu = 1e308, where K0 passes binary64
        ("verify", "sigma", "--p", "409", "--nu", "0", "--terms", "2"),
        ("verify", "sigma", "--p", "1", "--nu", "1e308", "--terms", "2"),
        # past the exact work limit too, but the underflow is refused first
        ("verify", "sigma", "--p", "400", "--nu", "1000.000000000000000001", "--terms", "2"),
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
    for p, nu in ((1, 10**400), (2, 2**1000)):
        with pytest.raises(bessel_numeric.NumericError, match="underflows binary64$"):
            cli._sigma_binary64(p, Fraction(nu))
    assert cli._sigma_binary64(1, Fraction(2**1072)) == 5e-324


def test_float_sigma_underflow_bound_uses_sigma_2(capsys, monkeypatch):
    # the recurrence's second step is sigma(2, nu) = 1/(16(nu+1)^2(nu+2)) itself,
    # so the bound falls with nu as sigma does: at nu = 2 the float is refused
    # from p = 228 on, not from p = 426 as at nu = 0; p = 227 is a subnormal
    lo, hi, e = rayleigh_core._sigma_enclosure(2, Fraction(2))
    assert Fraction(lo) * Fraction(2) ** e <= Fraction(1, 576) <= Fraction(hi) * Fraction(2) ** e
    assert run(capsys, "eval", "--p", "227", "--nu", "2") == (0, "2.5e-323\n", "")

    def refuse(*_):
        raise AssertionError("sigma_value called for a sigma that must underflow")

    monkeypatch.setattr(cli, "sigma_value", refuse)
    for argv in (
        ("eval", "--p", "228", "--nu", "2"),
        ("eval", "--p", "235", "--nu", "2"),
        ("verify", "sigma", "--p", "235", "--nu", "2", "--terms", "2"),
    ):
        p = argv[argv.index("--p") + 1]
        assert run(capsys, *argv) == (
            4, "", f"numeric breakdown: sigma(p={p}, nu=2) underflows binary64\n"
        )


@pytest.mark.parametrize(
    "nu, refused",
    [("0", 426), ("1/2", 332), ("1", 284), ("2", 235), ("3", 209), ("4", 192), ("10", 149),
     ("16", 132), ("20", 125)],
)
def test_float_sigma_underflow_bound_is_sound(nu, refused):
    # sigma(p, nu) falls with p (j_{nu,1} > 1), so the float route must refuse
    # from the first p whose float is 0 on, and only there; refused is one p
    # past it, from which the first refused p is sought downwards
    nu = Fraction(nu)

    def refuses(p):
        try:
            cli._sigma_binary64(p, nu)
        except bessel_numeric.NumericError:
            return True
        return False

    first = refused
    while refuses(first - 1):
        first -= 1
    assert refuses(refused) and first < refused
    assert float(sigma_value(first, nu)) == 0.0 < float(sigma_value(first - 1, nu))


def test_float_sigma_falls_back_to_the_exact_value_where_the_ends_straddle_a_float(monkeypatch):
    # ends that round to two floats at every precision: after two doublings
    # the exact value decides
    calls = []
    exact = cli.sigma_value
    monkeypatch.setattr(
        cli, "_sigma_enclosure", lambda p, nu, doublings=0: calls.append(doublings) or (1, 3, -3)
    )
    monkeypatch.setattr(cli, "sigma_value", lambda p, nu: calls.append("exact") or exact(p, nu))
    assert cli._sigma_binary64(1, Fraction(0)) == 0.25
    assert calls == [0, 1, 2, "exact"]


def test_float_eval_does_not_take_the_exact_route(tmp_path):
    # sigma_value takes 3-18 s on each of these where nu has many digits, and
    # 0.4 s at p = 424; one process that prints all five in 5 s must have read
    # them off the interval (values from the exact route)
    cases = [
        (("--p", "300", "--nu", "1e-20"), "2.237962041795577e-229"),
        (("--p", "330", "--nu", "1e-20"), "3.053781696814582e-252"),
        (("--p", "300", "--nu", "123456789/1000000007"), "5.476899502003188e-249"),
        (("--p", "100", "--nu", "0." + "3" * 200), "2.773149770322705e-93"),
        (("--p", "424", "--nu", "0"), "5e-324"),
    ]
    code = (
        "import sys; from rayleigh_sums.cli import main\n"
        f"for argv in {[list(argv) for argv, _ in cases]!r}:\n"
        "    assert main(['eval', *argv]) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=5
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == [value for _, value in cases]


def test_eval_pole_exit_code(capsys):
    # the message names nu as it was typed, unreduced
    # (1000, -999) is past the exact work limit, but a pole is refused first
    for p, nu in (("1", "-1"), ("3", "-4/2"), ("3", "-2.0"), ("1000", "-999")):
        assert run(capsys, "eval", "--p", p, f"--nu={nu}", "--exact") == (
            3, "", f"pole at nu={nu}\n"
        )


def test_exact_routes_refuse_a_p_past_their_limit_before_any_step(capsys, monkeypatch):
    # past a route's limit the call exits 2 before Kishore's loop runs (at p =
    # 10**23 sigma_value's list of shifts alone would not fit); at the limit the
    # loop is reached; float eval keeps its underflow refusal past the limit
    def no_step(n):
        raise AssertionError(f"step {n} ran")

    monkeypatch.setattr(rayleigh_core, "_term_shares", no_step)
    routes = (
        (("derive", "--p"), (), cli._DERIVE_P_MAX, "p", "derive"),
        (("table", "--pmax"), (), cli._DERIVE_P_MAX, "pmax", "table"),
    )
    for head, tail, limit, name, route in routes:
        assert run(capsys, *head, str(limit + 1), *tail) == (
            2, "", f"error: {name} must be <= {limit} for {route}\n"
        )
        with pytest.raises(AssertionError, match="^step [12] ran$"):
            main([*head, str(limit), *tail])
    assert cli._DERIVE_P_MAX == 150
    # exact sigma's work limit is its work at (p, nu) = (1000, 1/2), zeta's nu
    for argv in (("eval", "--p", "1000", "--nu", "1/2", "--exact"), ("zeta", "--p", "1000")):
        with pytest.raises(AssertionError, match="^step 2 ran$"):
            main(list(argv))
    for p, nu, argv in (
        (1001, "1/2", ("eval", "--p", "1001", "--nu", "1/2", "--exact")),
        (1001, "1/2", ("zeta", "--p", "1001")),
        (10**23, "1/2", ("eval", "--p", str(10**23), "--nu", "1/2", "--exact")),
        (500, "1e-20", ("eval", "--p", "500", "--nu", "1e-20", "--exact")),
        (300, "1e-4000", ("verify", "sigma", "--p", "300", "--nu", "1e-4000", "--terms", "2")),
    ):
        assert run(capsys, *argv) == (
            2, "", f"error: exact sigma(p={p}, nu={nu}) is past the work limit\n"
        )
    assert run(capsys, "eval", "--p", "1001", "--nu", "2.7") == (
        4, "", "numeric breakdown: sigma(p=1001, nu=2.7) underflows binary64\n"
    )


def test_exact_sigma_past_the_work_limit_fails_fast():
    # each of these passed every check before the work limit saw nu's digits,
    # and ran 82-85 s (the first two) or far longer; one process that refuses
    # all four in 10 s must refuse them before any exact arithmetic
    cases = [
        (500, "1e-20", ["eval", "--p", "500", "--nu", "1e-20", "--exact"]),
        (100, "1e-1000", ["verify", "sigma", "--p", "100", "--nu", "1e-1000", "--terms", "2"]),
        (1000, "1e-20", ["eval", "--p", "1000", "--nu", "1e-20", "--exact"]),
        (300, "1e-4000", ["verify", "sigma", "--p", "300", "--nu", "1e-4000", "--terms", "2"]),
    ]
    code = (
        "from rayleigh_sums.cli import main\n"
        f"for argv in {[argv for _, _, argv in cases]!r}:\n"
        "    assert main(argv) == 2\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
    )
    assert (proc.returncode, proc.stdout) == (0, "")
    assert proc.stderr.splitlines() == [
        f"error: exact sigma(p={p}, nu={nu}) is past the work limit" for p, nu, _ in cases
    ]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("zeros", "--nu", "0", "--count", "100000"), 1),
        (("table", "--pmax", "60", "--format", "json"), 1),
        # closed before the output, still in stdout's buffer, is flushed
        (("derive", "--p", "20"), 0),
    ],
)
def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(argv, lines):
    # as `| head -1` does: the call exits 0, and stderr stays empty
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rayleigh_sums", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    assert proc.stderr.read() == b""
    proc.stderr.close()


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
    "eval --p 2 --nu 1e-4301": (
        "error: cannot parse rational '1e-4301': past 4300 digits with its exponent\n"
    ),
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


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("--p", "60", "--nu", "1000", "--k", "40"),
         ("lhs = 0.6890283009557943", "rhs = 0.6890283009558233",
          "residual = 2.911598e-14", "budget = 5.545828e-13")),
        (("--p", "100", "--nu", "0", "--k", "5000"),
         ("lhs = -0.31298110467306606", "rhs = -0.3129811046729503",
          "residual = 1.157210e-13", "budget = 1.338479e-11")),
        (("--p", "1000", "--nu", "0", "--k", "2000"),
         ("lhs = 0.9440789099489244", "rhs = 0.9440789099490392",
          "residual = 1.148506e-13", "budget = 2.088479e-12")),
        (("--p", "301", "--nu", "2.7", "--k", "3000"),
         ("lhs = 0.1780951848018752", "rhs = 0.17809518480263706",
          "residual = 7.618614e-13", "budget = 9.038491e-12")),
    ],
)
def test_verify_ratio_lines_are_pinned(capsys, argv, lines):
    # every call runs on the scalar zero finder; the budget's |B_p| term comes
    # from the Lommel chain, here with nu = 1000, at the 5000th zero, at a
    # large p and at an odd p with a non-dyadic nu
    assert run(capsys, "verify", "ratio", *argv) == (0, "\n".join((*lines, "result: PASS\n")), "")


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("--p", "1.46", "--nu", "2.7", "--terms", "100000"),
         ("lhs = 0.02475067309371875", "rhs = 0.024750673093718752",
          "residual = 3.469447e-18", "tail_bound = 1.487947e-23", "rounding = 1.357654e-15")),
        (("--p", "0.5", "--nu", "0", "--terms", "10"),
         ("lhs = 0.3989422804014328", "rhs = 0.3989422804014317",
          "residual = 1.110223e-15", "tail_bound = 4.608317e-13", "rounding = 1.842643e-14")),
        (("--p", "3", "--nu", "50", "--terms", "1000"),
         ("lhs = 4.446626255727321e-07", "rhs = 4.4466262557272546e-07",
          "residual = 6.617445e-21", "tail_bound = 1.008733e-22", "rounding = 2.211328e-19")),
    ],
)
def test_verify_residues_lines_are_pinned(capsys, argv, lines):
    # 10^5 zeros run on the block engine, 13 blocks; the other two on the
    # scalar zero finder, the last at an integer p, where the tail's cos and
    # sin are exact
    assert run(capsys, "verify", "residues", *argv) == (
        0, "\n".join((*lines, "result: PASS\n")), ""
    )


def test_verify_ratio_budget_rejects_a_wrong_expansion(capsys, monkeypatch):
    # the budget is 2.4e-14 against a ratio of 0.107 here, so an expansion
    # off by 1e-12 relative fails
    argv = ("verify", "ratio", "--p", "5", "--nu", "0", "--k", "3")
    assert run(capsys, *argv)[0] == 0
    exact = bessel_numeric._lommel

    def wrong(p, nu, x):
        a, b = exact(p, nu, x)
        return a * (1 + Fraction(1, 10**12)), b

    monkeypatch.setattr(bessel_numeric, "_lommel", wrong)
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
    ],
    ids=[
        "zeros", "residues-nu-plus-p", "residues-nu-plus-1", "ratio-nu-plus-p", "sigma",
        "sigma-k0", "residues-k0", "sigma-nu-1e8",
    ],
)
def test_orders_past_the_limit_exit_4(capsys, argv, order):
    # the order of J each call would first evaluate past 5000 is named, also
    # where K0 = 12.2 nu would take hours of zero finding (nu = 30000, 1e8)
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


# each count with the _SCALAR_WORK that forces the other engine
@pytest.mark.parametrize(
    "count, other", [(20, -1.0), (2 * bessel_numeric._BLOCK + 5, math.inf)], ids=["scalar", "blocks"]
)
def test_zeros_writes_once_per_block(monkeypatch, count, other):
    # an unbuffered stdout makes a system call of every write
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["zeros", "--nu", "0", "--count", str(count), "--digits", "17"]
    assert main(argv) == 0
    assert len(out.getvalue().splitlines()) == count
    assert out.writes <= -(-count // bessel_numeric._BLOCK)
    # the other engine's blocks, lists or arrays, print the same text
    again = io.StringIO()
    monkeypatch.setattr(sys, "stdout", again)
    monkeypatch.setattr(bessel_numeric, "_SCALAR_WORK", other)
    assert main(argv) == 0
    same = again.getvalue() == out.getvalue()  # a bool: pytest would diff 0.4 MB of text
    assert same


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


# exact results past CPython's 4300-digit limit on int-str conversion, a
# 10^6-digit flag, which must still be refused as it is parsed, and the edge
# values of nu on each kind of subcommand: all cheap, about 0.2 s in all
_EDGE_ARGVS = [
    ["eval", "--p", "60", "--nu", "1e-20", "--exact"],
    ["verify", "sigma", "--p", "60", "--nu", "1e-20", "--terms", "3"],
    ["eval", "--p", "1" * 10**6, "--nu", "1"],
] + [
    argv
    for nu in ("0", "5e-324", "1/3", "4999.5", "5000.0000001", "1e308", "1e309", "nan", "inf")
    for argv in (
        ["eval", "--p", "2", "--nu", nu],
        ["eval", "--p", "2", "--nu", nu, "--exact"],
        ["zeros", "--nu", nu, "--count", "2"],
        ["verify", "ratio", "--p", "2", "--nu", nu, "--k", "1"],
    )
]


def test_edge_argvs_exit_with_a_documented_code(capsys):
    # no exception escapes main, exit 1 is only verify's FAIL, exit 0 writes
    # nothing to stderr, and the caller's digit limit is kept
    limit = sys.get_int_max_str_digits()
    results = []
    for argv in _EDGE_ARGVS:
        rc, out, err = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == limit
        assert rc in (0, 1, 2, 3, 4), argv[:4]
        if rc == 1:
            assert argv[0] == "verify" and out.splitlines()[-1] == "result: FAIL", argv
        if rc == 0:
            assert err == "", argv
        results.append((rc, out))
    # the two exact results past 4300 digits print in full
    (rc0, out0), (rc1, out1), (rc2, _) = results[:3]
    assert (rc0, rc1, rc2) == (0, 0, 2)
    assert len(out0) > 4300 and out1.endswith("result: PASS\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rayleigh_sums", "derive", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 / (2^2 (v+1))\n"
