"""Independent references for every output the benchmark sees.

None of these use the package under test:

- sigma(p, nu) at a rational nu from Kishore's convolution recurrence
  (nu+n) sigma_n = sum_{k<n} sigma_k sigma_{n-k}, sigma_1 = 1/(4(nu+1))
  (N. Kishore, Proc. AMS 14 (1963) 527-533), in exact fractions;
- zeta(2p) / pi^(2p) from Bernoulli numbers;
- zeros of J_nu from ``mpmath.besseljzero``, with the slow large-order ones
  read from ``references.json``;
- closed-form text, LaTeX and JSON as the sha256 of the bytes the baseline
  program (0.1.0) printed, also kept in ``references.json``.

``check`` returns a verdict for one call and is always run outside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath

REFERENCES = Path(__file__).with_name("references.json")

ZERO_RTOL = 1e-11
RESIDUE_LHS_RTOL = 1e-12


@dataclass
class Verdict:
    ok: bool
    note: str = ""
    digits: float | None = None  # -log10 relative residual, verify sigma only


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def seam_index(nu: float, count: int) -> int:
    """Last zero the baseline zero finder brackets by scanning; zeros past it
    come from asymptotic seeds, so n_scan and n_scan + 1 straddle the seam."""
    return min(count, max(10, math.ceil(nu) + 5))


class References:
    def __init__(self, sha256: dict[str, str] | None = None,
                 zeros: dict[str, str] | None = None) -> None:
        self.sha256 = sha256 or {}
        self.stored_zeros = zeros or {}  # "nu:n" -> decimal string
        self._sigma: dict[Fraction, list[Fraction]] = {}
        self._bernoulli: list[Fraction] = [Fraction(1)]
        self._zeros: dict[tuple[str, int], float] = {}

    @classmethod
    def load(cls, path: Path = REFERENCES) -> "References":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data["sha256"], data["zeros"])

    def stored_indices(self, nu: str) -> list[int]:
        return sorted(int(k.partition(":")[2]) for k in self.stored_zeros
                      if k.partition(":")[0] == nu)

    def sigma(self, p: int, nu: Fraction) -> Fraction:
        """sigma(p, nu) by Kishore's recurrence, extended on demand."""
        s = self._sigma.setdefault(nu, [Fraction(0), 1 / (4 * (nu + 1))])
        for n in range(len(s), p + 1):
            s.append(sum(s[k] * s[n - k] for k in range(1, n)) / (nu + n))
        return s[p]

    def bernoulli(self, n: int) -> Fraction:
        b = self._bernoulli
        for m in range(len(b), n + 1):
            b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
        return b[n]

    def zeta_coefficient(self, p: int) -> Fraction:
        """zeta(2p) / pi^(2p) = (-1)^(p+1) B_2p 2^(2p-1) / (2p)!."""
        return (-1) ** (p + 1) * self.bernoulli(2 * p) * 2 ** (2 * p - 1) / math.factorial(2 * p)

    def zero(self, nu: str, n: int) -> float:
        key = (nu, n)
        if key not in self._zeros:
            stored = self.stored_zeros.get(f"{nu}:{n}")
            if stored is not None:
                self._zeros[key] = float(stored)
            else:
                with mpmath.workdps(25):
                    self._zeros[key] = float(mpmath.besseljzero(mpmath.mpf(nu), n))
        return self._zeros[key]


def _check_hash(refs: References, argv: list[str], stdout: str) -> Verdict:
    key = " ".join(argv)
    want = refs.sha256.get(key)
    if want is None:
        return Verdict(False, f"no stored baseline output for {key!r}")
    got = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return Verdict(got == want, "" if got == want else "output differs from the baseline bytes")


def _check_eval(refs: References, argv: list[str], stdout: str) -> Verdict:
    ref = refs.sigma(int(_flag(argv, "--p")), Fraction(_flag(argv, "--nu")))
    want = str(ref) if "--exact" in argv else repr(float(ref))
    got = stdout.strip()
    note = "" if got == want else f"printed {got[:40]!r}, expected {want[:40]!r}"
    return Verdict(got == want, note)


_ZETA_RE = re.compile(r"zeta\((\d+)\) = (?:(\d+) \* )?pi\^(\d+)(?: / \((.+)\))?$")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _check_zeta(refs: References, argv: list[str], stdout: str) -> Verdict:
    p = int(_flag(argv, "--p"))
    lines = stdout.splitlines()
    m = _ZETA_RE.match(lines[0]) if lines else None
    if not m or int(m[1]) != 2 * p or int(m[3]) != 2 * p:
        return Verdict(False, "malformed zeta line")
    den, primes = 1, []
    for part in (m[4].split(" * ") if m[4] else []):
        base, _, exp = part.partition("^")
        primes.append(int(base))
        den *= int(base) ** int(exp or 1)
    if primes != sorted(set(primes)) or not all(map(_is_prime, primes)):
        return Verdict(False, "denominator is not a factorisation into primes")
    if Fraction(int(m[2] or 1), den) != refs.zeta_coefficient(p):
        return Verdict(False, "zeta coefficient differs from the Bernoulli value")
    if "--float" in argv:
        digits = int(_flag(argv, "--digits", "30"))
        if len(lines) != 2 or not lines[1].startswith(f"zeta({2 * p}) ~= "):
            return Verdict(False, "missing decimal zeta line")
        got = Decimal(lines[1].split("~= ")[1])
        with mpmath.workdps(digits + 20):
            want = Decimal(mpmath.nstr(mpmath.zeta(2 * p), digits + 15))
        if abs(got - want) > want * Decimal(10) ** (1 - digits):
            return Verdict(False, f"decimal zeta({2 * p}) off by {abs(got - want):.3e}")
    elif len(lines) != 1:
        return Verdict(False, "unexpected extra output")
    return Verdict(True)


def _check_zeros(refs: References, argv: list[str], stdout: str, rng: random.Random) -> Verdict:
    nu, count = _flag(argv, "--nu"), int(_flag(argv, "--count"))
    zs = [float(s) for s in stdout.splitlines()]
    if len(zs) != count:
        return Verdict(False, f"{len(zs)} zeros printed, {count} asked for")
    if any(b <= a for a, b in zip(zs, zs[1:])) or zs[0] <= 0:
        return Verdict(False, "zeros not positive and strictly increasing")
    stored = refs.stored_indices(nu)
    if stored:
        sample = [n for n in stored if n <= count]
    elif count <= 25:
        sample = range(1, count + 1)
    else:
        n_scan = seam_index(float(nu), count)
        sample = sorted({1, n_scan, min(n_scan + 1, count), count,
                         *rng.sample(range(1, count + 1), 6)})
    worst_n, worst = 0, 0.0
    for n in sample:
        err = abs(zs[n - 1] - refs.zero(nu, n))
        if err > worst:
            worst_n, worst = n, err
        if err > ZERO_RTOL * refs.zero(nu, n):
            return Verdict(False, f"zero {n} is {err:.4e} off mpmath")
    return Verdict(True, f"worst zero {worst_n} off by {worst:.2e}")


def _field(lines: list[str], name: str) -> str:
    for line in lines:
        if line.startswith(name + " = "):
            return line[len(name) + 3:]
    raise ValueError(f"missing {name}")


def _check_verify(refs: References, argv: list[str], stdout: str) -> Verdict:
    kind = argv[1]
    lines = stdout.splitlines()
    passed = bool(lines) and lines[-1].startswith("result: PASS")
    if kind == "sigma":
        p, nu = int(_flag(argv, "--p")), Fraction(_flag(argv, "--nu"))
        tol = float(_flag(argv, "--tol", "1e-10"))
        ref = refs.sigma(p, nu)
        exact = _field(lines, "lhs").split("(exact ")[1].rstrip(")")
        if Fraction(exact) != ref:
            return Verdict(False, "exact lhs differs from Kishore's recurrence")
        rel = abs(float(_field(lines, "rhs")) - float(ref)) / float(ref)
        digits = -math.log10(max(rel, 2.0**-53))
        ok = passed and rel <= tol
        return Verdict(ok, f"relative residual {rel:.3e}", digits)
    if kind == "residues":
        p, nu = float(_flag(argv, "--p")), float(_flag(argv, "--nu"))
        terms = int(_flag(argv, "--terms", "10000"))
        with mpmath.workdps(30):
            ref = float(mpmath.gamma(nu + 1) / (2 ** (p + 1) * mpmath.gamma(nu + p + 1)))
        if abs(float(_field(lines, "lhs")) - ref) > RESIDUE_LHS_RTOL * ref:
            return Verdict(False, "lhs differs from the mpmath Gamma ratio")
        c = nu / 2.0 - 0.25
        scale = math.pi ** (-(p + 1.0)) * (terms + c) ** (-p) / p
        err = abs(float(_field(lines, "rhs")) - ref)
        return Verdict(passed and err <= scale, f"partial sum {err:.3e} from the limit")
    if kind == "ratio":
        tol = float(_flag(argv, "--tol", "1e-8"))
        ok = passed and float(_field(lines, "residual")) <= tol
        return Verdict(ok)
    return Verdict(False, f"unknown verify kind {kind!r}")


def check(refs: References, argv: list[str], returncode: int, stdout: str,
          rng: random.Random) -> Verdict:
    """Verdict for one call: exit code 0 and output equal to the reference."""
    if returncode != 0:
        return Verdict(False, f"exit code {returncode}")
    try:
        cmd = argv[0]
        if cmd in ("table", "derive"):
            return _check_hash(refs, argv, stdout)
        if cmd == "eval":
            return _check_eval(refs, argv, stdout)
        if cmd == "zeta":
            return _check_zeta(refs, argv, stdout)
        if cmd == "zeros":
            return _check_zeros(refs, argv, stdout, rng)
        if cmd == "verify":
            return _check_verify(refs, argv, stdout)
    except (ValueError, IndexError, ArithmeticError) as e:
        return Verdict(False, f"unparseable output: {e}")
    return Verdict(False, f"no check for {cmd!r}")
