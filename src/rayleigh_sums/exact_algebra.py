"""Exact rational scalars, integer-coefficient polynomials in nu, and rational
functions kept in factored-denominator normal form.

Everything here is pure and exact. Scalars are fractions.Fraction, used
as they are. Polynomials have Python int coefficients: every closed form the
solver produces is an integer, content-free numerator over a denominator of
the shape

    2**a * prod_m (nu + m)**e_m.

Each polynomial operation has one implementation, the underscore kernels
below, which work on plain lists of ints (dense, ascending powers, no
trailing zero, [] == zero). rayleigh_core and poly_gcd compute on them
alone and wrap each result once in Poly, the immutable public type: a value
that holds and evaluates coefficients, with no arithmetic of its own.

The package's immutable value types are `_Record`s: slotted classes with
field-wise equality, hashing and repr, whose fields cannot be reassigned.
Building them needs no `dataclasses`, whose import (with `inspect` and
`ast`) and class generation cost about 15 ms of every fresh process.
"""

from __future__ import annotations

import math
from fractions import Fraction


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a denominator root."""

    def __init__(self, nu: Fraction) -> None:
        self.nu = nu
        super().__init__(f"evaluation at pole nu={nu}")


class _Record:
    """Immutable value: the fields are the subclass's __slots__, set once by
    __init__ (positionally or by name); ==, hash and repr go field by field,
    and assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


# ---------------------------------------------------------------------------
# integer coefficient-list kernels


def _istrip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _iadd(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return _istrip([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ])


def _imul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _istrip(out)


def _iscale(a: list[int], c: int) -> list[int]:
    return _istrip([c * x for x in a])


def _isyndiv(a: list[int], m: int) -> list[int] | None:
    """Quotient of a by (nu + m) if the division is exact, else None."""
    q = [0] * (len(a) - 1)
    rem = a[-1]
    for i in range(len(a) - 2, -1, -1):
        q[i] = rem
        rem = a[i] - m * rem
    if rem != 0:
        return None
    return _istrip(q)


def _imul_linear(a: list[int], m: int) -> list[int]:
    """Multiply a by (nu + m) in place and return it."""
    if a:
        a[:] = [m * x + y for x, y in zip(a + [0], [0] + a)]
    return a


def _igamma_ratio(upper: int, lower: int) -> list[int]:
    """prod_{i=lower}^{upper-1}(nu+i) as an integer coefficient list."""
    out = [1]
    for i in range(lower, upper):
        _imul_linear(out, i)
    return out


def _iprimitive(a: list[int]) -> list[int]:
    """a divided by its content, signed so the leading coefficient is positive."""
    if not a:
        return a
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


# ---------------------------------------------------------------------------
# polynomials


class Poly(_Record):
    """Dense univariate polynomial with int coefficients; coeffs[i] is the
    coefficient of nu**i.

    The zero polynomial is the empty tuple. Trailing zero coefficients are
    stripped on construction, so equal polynomials compare equal; any
    coefficient that is not an int raises ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()) -> None:
        if any(type(c) is not int for c in coeffs):
            raise ValueError(f"non-integer coefficient in {coeffs!r}")
        object.__setattr__(self, "coeffs", tuple(_istrip(list(coeffs))))

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) == -1."""
        return len(self.coeffs) - 1

    def evaluate(self, x: Fraction | int) -> Fraction:
        v = Fraction(0)
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def int_coeffs(self) -> tuple[int, ...]:
        """Coefficients as plain ints."""
        return self.coeffs


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor over the integers, up to content: Euclid on
    primitive pseudo-remainders. The result has content 1 and a positive
    leading coefficient, so coprime inputs give Poly.one()."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        # pseudo-remainder of x by y: scale by lead(y), cancel lead(x)
        while len(x) >= len(y):
            shift = [0] * (len(x) - len(y))
            x = _iadd(_iscale(x, y[-1]), shift + _iscale(y, -x[-1]))
        x, y = y, _iprimitive(x)
    return Poly(tuple(_iprimitive(x)))


def _poly_terms(p: Poly, fmt: tuple[str, ...]) -> str:
    # descending powers; sign_fmt places the sign between terms
    var, pow_fmt, sign_fmt = fmt[:3]
    out = ""
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            v = var if i == 1 else var + pow_fmt.format(i)
            body = v if abs(c) == 1 else f"{abs(c)}{v}"
        sign = "-" if c < 0 else "+"
        if out:
            out += sign_fmt.format(sign) + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


# a format: the variable, an exponent, the sign between terms, a numerator of
# degree >= 1 over a denominator, the join of the denominator's parts, and
# the fraction of the numerator and the joined parts
_TEXT = ("v", "^{}", " {} ", "({})", " ", "{} / ({})")
_LATEX = (r"\nu", "^{{{}}}", "{}", "{}", "", r"\frac{{{}}}{{{}}}")


class FactoredRationalFn(_Record):
    """numerator / (2**two_exponent * prod (nu+m)**e_m), with
    numerator: Poly, two_exponent: int and
    shift_factors: tuple[tuple[int, int], ...] the pairs (m, e_m).

    shift_factors is sorted by m with distinct entries. In the normal form
    emitted by the solver the numerator has content 1 and positive leading
    coefficient, and numerator and denominator are coprime; those are
    verified properties of the outputs, not constructor requirements.
    """

    __slots__ = ("numerator", "two_exponent", "shift_factors")

    def __init__(
        self,
        numerator: Poly,
        two_exponent: int,
        shift_factors: tuple[tuple[int, int], ...],
    ) -> None:
        super().__init__(numerator, two_exponent, shift_factors)
        if self.two_exponent < 0:
            raise ValueError("two_exponent must be non-negative")
        ms = [m for m, _ in self.shift_factors]
        if ms != sorted(set(ms)) or any(m < 1 for m in ms):
            raise ValueError("shift_factors must be distinct positive m, ascending")
        if any(e < 1 for _, e in self.shift_factors):
            raise ValueError("shift multiplicities must be positive")

    @property
    def residual(self) -> Poly:
        """The denominator part that does not split into integer shifts:
        always 1, kept for readers of the residual field and the JSON form."""
        return Poly.one()

    def denominator_expanded(self) -> Poly:
        den = [2**self.two_exponent]
        for m, e in self.shift_factors:
            for _ in range(e):
                _imul_linear(den, m)
        return Poly(tuple(den))

    def evaluate(self, nu: Fraction | int) -> Fraction:
        """Exact value at nu; raises PoleError at a denominator root."""
        nu = Fraction(nu)
        den = Fraction(2) ** self.two_exponent
        for m, e in self.shift_factors:
            den *= (nu + m) ** e
        if den == 0:
            raise PoleError(nu)
        return self.numerator.evaluate(nu) / den

    def to_json_dict(self) -> dict:
        """JSON form: coefficients as decimal strings, shifts as [m, e] pairs."""
        return {
            "numerator": [str(c) for c in self.numerator.int_coeffs()],
            "two_exponent": self.two_exponent,
            "shift_factors": [[m, e] for m, e in self.shift_factors],
            "residual": ["1"],
        }

    def _assemble(self, fmt: tuple[str, ...]) -> str:
        # the numerator, then the denominator's parts, joined per format
        var, pow_fmt, _, bracket, sep, frac = fmt
        num = _poly_terms(self.numerator, fmt)
        parts = [("2", self.two_exponent)] if self.two_exponent else []
        parts += [(f"({var}+{m})", e) for m, e in self.shift_factors]
        if not parts:
            return num
        if self.numerator.degree >= 1:
            num = bracket.format(num)
        den = sep.join(base if e == 1 else base + pow_fmt.format(e) for base, e in parts)
        return frac.format(num, den)

    def to_text(self) -> str:
        """Plain text, e.g. '1 / (2^2 (v+1))'."""
        return self._assemble(_TEXT)

    def to_latex(self) -> str:
        """LaTeX, e.g. '\\frac{1}{2^{4}(\\nu+1)^{2}(\\nu+2)}'."""
        return self._assemble(_LATEX)
