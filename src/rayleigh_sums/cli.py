"""Command-line interface.

Subcommands: derive, eval, verify (residues | ratio | sigma), zeta, zeros,
table. Text output is UTF-8, one result per line; closed forms render with
'v' for nu in text mode and in display math in latex mode. Exit codes:
0 success or verification pass, 1 verification failure, 2 usage error,
3 evaluation at a pole, 4 numeric breakdown (a zero that cannot be certified
or indexed, or lies past x = 1.25e8, where binary64 cannot certify it, a value
binary64 cannot carry, a verify sigma value it carries only as a subnormal, or
a verify check whose error budget reaches its value).

Each flag's range is checked by its argparse type, as the command line is
parsed; only eval's nu >= 0 without --exact is a rule on two flags. Then
each exact route refuses work past its limit, before any exact arithmetic:
`derive` and `table` a p past 150, and `_admit` any sigma_value(p, a/b)
whose p**4 B**3 passes its value at (1000, 1/2). B = 2p + p bits(b) +
sum_{m<=p} floor(p/m) bits(|a + m b|), the bits of the known denominator,
models a fresh call's time as 5.9e-12 p**1.98 B**1.42 s, within a factor of
1.6 on 40 calls of 0.3-53 s (2-core x86-64, Python 3.11).

`derive` and `table` print closed forms from rayleigh_core.derive_sigma;
`eval --exact`, `zeta` and `verify sigma`'s lhs take sigma at one rational
nu from rayleigh_core.sigma_value, and float `eval` from `_sigma_binary64`.

The three `verify` commands are one, `cmd_verify`, over the checks in
bessel_numeric (`_sigma_check`, `_residue_check`, `_ratio_check`), where
each budget rule and its refusal (exit 4) live. It prints the `Check` that
one returns as "name = value" lines and passes it where residual <= budget,
or fails it (exit 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction

from .bessel_numeric import (
    NumericError,
    _ratio_check,
    _residue_check,
    _sigma_check,
    _zero_blocks,
)
from .exact_algebra import FactoredRationalFn, PoleError
from .rayleigh_core import SigmaTable, _sigma_enclosure, derive_sigma, sigma_value
from .zeta import ZetaValue, zeta_even, zeta_float_str

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_POLE = 3
EXIT_NUMERIC = 4

_DERIVE_P_MAX = 150  # derive and table: a fresh call takes 29 s there, growing as p**6
_FLOAT_P_MAX = 425  # float eval and verify sigma refuse any p past it (exit 4)
_SIGMA_WORK = 1000**4 * 46358**3  # _admit: p**4 B**3 at (p, nu) = (1000, 1/2), B = 46358


class UsageError(Exception):
    """A flag value that does not parse or is out of its range."""


def _number_type(parse: type, name: str, bad: Callable, rule: str) -> Callable[[str], float]:
    """The argparse type of a flag read by parse (int or float): a float must
    be finite, and "<name> must be <rule>" refuses a value where bad(value)
    holds. It is named as parse is, since argparse names the type in its
    own message: "invalid int value"."""

    def convert(s: str) -> float:
        value = parse(s)
        if parse is float and not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")
        if bad(value):
            raise UsageError(f"{name} must be {rule}")
        return value

    convert.__name__ = parse.__name__
    return convert


class _Typed(Fraction):
    """A rational flag value that prints as it was typed, "2.7" and not
    27/10, in every message that names it; arithmetic on it gives plain
    Fractions."""

    __slots__ = ("_text",)

    def __new__(cls, text: str) -> _Typed:
        self = super().__new__(cls, text)
        self._text = text.strip()
        return self

    def __str__(self) -> str:
        return self._text


def _rational(s: str) -> Fraction:
    """Exact rational from 'a/b' or a decimal string (scaled integer, never
    a binary float), printed as typed. CPython's int-str limit bounds the
    mantissa's digits plus |exponent|, read before Fraction builds 10**e."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        e = re.search(r"e([-+]?\d+(_\d+)*)\s*\Z", s, re.IGNORECASE)
        if e and limit and abs(int(e[1])) + sum(map(str.isdigit, s[: e.start()])) > limit:
            raise ValueError(f"past {limit} digits with its exponent")
        return _Typed(s)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"cannot parse rational {s!r}: {e}") from None


def _sigma_nu(s: str) -> Fraction:
    """verify sigma's nu: a rational >= 0 that binary64 can carry."""
    nu = _rational(s)
    if nu < 0:
        raise UsageError("nu must be >= 0")
    try:
        float(nu)
    except OverflowError:
        raise UsageError(f"nu={s} is out of binary64 range") from None
    return nu


def _within_limit(name: str, p: int, limit: int, route: str) -> None:
    """Refuse a p past its route's work limit, before any exact arithmetic."""
    if p > limit:
        raise UsageError(f"{name} must be <= {limit} for {route}")


def _admit(p: int, nu: Fraction) -> Fraction:
    """nu, once sigma_value(p, nu) is within the work limit (module docstring).
    A pole raises PoleError first; B is summed only until it passes the limit."""
    a, b = nu.as_integer_ratio()
    if b == 1 and -p <= a < 0:
        raise PoleError(nu)
    room, bits = _SIGMA_WORK // p**4, 2 * p + p * b.bit_length()
    for m in range(1, p + 1):
        bits += p // m * abs(a + m * b).bit_length()
        if bits**3 > room:
            raise UsageError(f"exact sigma(p={p}, nu={nu}) is past the work limit")
    return nu


def _sigma_binary64(p: int, nu: Fraction, least: float = math.ulp(0.0)) -> float:
    """float(sigma(p, nu)) for nu >= 0; a float below least (0 by default) is refused.

    Ziv's test: where both ends of _sigma_enclosure round to one float, sigma
    does too. Else the precision doubles, twice, and then sigma_value decides.
    An upper end that rounds below least refuses before any exact arithmetic,
    as does a p past _FLOAT_P_MAX: sigma(p, nu) <= sigma(p, 0), float(sigma(425, 0)) = 0."""
    value = 0.0
    if p <= _FLOAT_P_MAX:
        for doublings in range(3):
            lo, hi, e = _sigma_enclosure(p, nu, doublings)  # e < 0, since sigma < 1/4
            value = hi / (1 << -e)
            if value < least or lo / (1 << -e) == value:
                break
        else:
            value = float(sigma_value(p, _admit(p, nu)))
    if value < least:
        raise NumericError(f"sigma(p={p}, nu={nu}) underflows binary64")
    return value


def _render(f: FactoredRationalFn, fmt: str) -> str:
    if fmt == "text":
        return f.to_text()
    if fmt == "json":
        return json.dumps(f.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return f.to_latex()


def cmd_derive(args: argparse.Namespace) -> int:
    _within_limit("p", args.p, _DERIVE_P_MAX, "derive")
    print(_render(derive_sigma(SigmaTable(), args.p), args.format))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.exact and args.nu < 0:
        raise UsageError("nu must be >= 0 unless --exact is given")
    if args.exact:
        print(sigma_value(args.p, _admit(args.p, args.nu)))
    else:
        print(repr(_sigma_binary64(args.p, args.nu)))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    check = args.check(args)
    exact = f" (exact {check.lhs})" if isinstance(check.lhs, Fraction) else ""
    print(f"lhs = {float(check.lhs)!r}{exact}")
    print(f"rhs = {check.rhs!r}")
    print(f"residual = {check.residual:.6e}")
    for name, value in check.terms:
        print(f"{name} = {value:.6e}")
    ok = check.residual <= check.budget
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_sigma(args: argparse.Namespace):
    """verify sigma's Check, refused first (exit 4) where sigma, so its budget, is subnormal."""
    _sigma_binary64(args.p, args.nu, sys.float_info.min)
    return _sigma_check(args.nu, args.p, args.terms, sigma_value(args.p, _admit(args.p, args.nu)))


def _format_zeta(z: ZetaValue) -> str:
    num = z.coefficient.numerator
    pi_part = f"pi^{z.two_p}" if num == 1 else f"{num} * pi^{z.two_p}"
    # zeta(2p) / pi^(2p) <= 1/6, so the denominator is never 1
    den = " * ".join(
        f"{prime}^{e}" if e > 1 else f"{prime}" for prime, e in z.factored_denominator
    )
    return f"zeta({z.two_p}) = {pi_part} / ({den})"


def cmd_zeta(args: argparse.Namespace) -> int:
    _admit(args.p, Fraction(1, 2))
    z = zeta_even(args.p)
    print(_format_zeta(z))
    if args.float:
        print(f"zeta({z.two_p}) ~= {zeta_float_str(z, args.digits)}")
    return EXIT_OK


def cmd_zeros(args: argparse.Namespace) -> int:
    # the zeros are kept until every check has passed, so a failed one
    # prints nothing
    blocks = [zeros for zeros, _ in _zero_blocks(args.nu, args.count)]
    spec = f"%.{args.digits}f\n"
    # one write per block, since an unbuffered stdout makes a system call of
    # every write
    for block in blocks:
        sys.stdout.write("".join(map(spec.__mod__, block)))
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    _within_limit("pmax", args.pmax, _DERIVE_P_MAX, "table")
    table = SigmaTable()
    derive_sigma(table, args.pmax)
    if args.format == "json":
        doc = [
            {"p": p, **table[p].to_json_dict()} for p in range(1, args.pmax + 1)
        ]
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        label = "\\sigma({},\\nu)" if args.format == "latex" else "sigma({})"
        for p in range(1, args.pmax + 1):
            print(f"{label.format(p)} = {_render(table[p], args.format)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayleigh",
        description="Exact closed forms for sums of inverse even powers of "
        "Bessel-function zeros, their numerical verification, and exact "
        "even-argument zeta values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_type = _number_type(int, "p", lambda p: p < 1, ">= 1")
    terms_type = _number_type(int, "terms", lambda n: n < 2, ">= 2")
    nu_type = _number_type(float, "nu", lambda nu: nu < 0, ">= 0")
    rational = "rational 'a/b' or decimal string"

    p_derive = sub.add_parser("derive", help="derive the closed form of sigma(p, nu)")
    p_derive.add_argument("--p", type=p_type, required=True)
    p_derive.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_derive.set_defaults(func=cmd_derive)

    p_eval = sub.add_parser("eval", help="evaluate sigma(p, nu) at a rational nu")
    p_eval.add_argument("--p", type=p_type, required=True)
    p_eval.add_argument("--nu", type=_rational, required=True, help=rational)
    p_eval.add_argument("--exact", action="store_true", help="print an exact fraction")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="numeric verification of the identities")
    p_verify.set_defaults(func=cmd_verify)
    vsub = p_verify.add_subparsers(dest="kind", required=True)

    v_res = vsub.add_parser("residues", help="Gamma constant vs weighted ratio sum")
    real_p = _number_type(float, "p", lambda p: p <= 0, "> 0")
    v_res.add_argument("--p", type=real_p, required=True, help="any real p > 0")
    v_res.add_argument("--nu", type=nu_type, required=True)
    v_res.add_argument("--terms", type=terms_type, default=10000)
    v_res.set_defaults(check=lambda a: _residue_check(a.nu, a.p, a.terms))

    v_ratio = vsub.add_parser("ratio", help="ratio expansion vs direct evaluation")
    v_ratio.add_argument("--p", type=p_type, required=True)
    v_ratio.add_argument("--nu", type=nu_type, required=True)
    k_type = _number_type(int, "k", lambda k: k < 1, ">= 1")
    v_ratio.add_argument("--k", type=k_type, default=1, help="index of the zero to test")
    v_ratio.set_defaults(check=lambda a: _ratio_check(a.nu, a.p, a.k))

    v_sigma = vsub.add_parser("sigma", help="closed form vs direct zero summation")
    v_sigma.add_argument("--p", type=p_type, required=True)
    v_sigma.add_argument("--nu", type=_sigma_nu, required=True, help=rational)
    v_sigma.add_argument("--terms", type=terms_type, default=10000)
    v_sigma.set_defaults(check=_verify_sigma)

    p_zeta = sub.add_parser("zeta", help="exact zeta(2p)")
    p_zeta.add_argument("--p", type=p_type, required=True)
    p_zeta.add_argument("--float", action="store_true", help="also print a decimal value")
    digits_45 = _number_type(int, "digits", lambda d: not 1 <= d <= 45, "in 1..45")
    p_zeta.add_argument("--digits", type=digits_45, default=30)
    p_zeta.set_defaults(func=cmd_zeta)

    p_zeros = sub.add_parser("zeros", help="list the first zeros of J_nu")
    p_zeros.add_argument("--nu", type=nu_type, required=True)
    count_type = _number_type(int, "count", lambda n: n < 1, ">= 1")
    p_zeros.add_argument("--count", type=count_type, required=True)
    digits_17 = _number_type(int, "digits", lambda d: not 1 <= d <= 17, "in 1..17")
    p_zeros.add_argument("--digits", type=digits_17, default=15, help="decimal places")
    p_zeros.set_defaults(func=cmd_zeros)

    p_table = sub.add_parser("table", help="closed forms for p = 1..pmax")
    pmax_type = _number_type(int, "pmax", lambda n: n < 1, ">= 1")
    p_table.add_argument("--pmax", type=pmax_type, required=True)
    p_table.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    # before numpy can load: no subcommand calls BLAS, and OpenBLAS's thread
    # pool costs start-up time; a value the user has set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    # CPython (3.10.7 on) limits int-str conversion to 4300 digits: the flags
    # are parsed under it, the exact results printed without it (8944
    # characters at eval --p 425 --nu 2.7 --exact), and the caller's kept
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = parser.parse_args(argv)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except SystemExit as e:  # argparse's own errors and --help
        return int(e.code or 0)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PoleError as e:
        print(f"pole at nu={e.nu}", file=sys.stderr)
        return EXIT_POLE
    except NumericError as e:
        print(f"numeric breakdown: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    code = EXIT_OK  # where the reader closed the pipe, as head does, before main returned
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # Python's recipe: so that the final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
