"""Seeded call generators for the three benchmark workloads.

Each generator takes the ``Draws`` of one pass and returns the pass: a list
of argv lists for ``python -m rayleigh_sums``. The program only ever sees
these argv lists. The inputs change with the seed while the cost of a pass
stays nearly fixed, so runs with different seeds can be compared.
"""

from __future__ import annotations

import random

# The orders at which the numeric checks run: integer, half-integer (zeros
# are k*pi), the Bessel J_1 case, a non-integer, and two large orders where
# the asymptotic tail correction works hardest.
NU_SET = ("0", "1/2", "1", "27/10", "10", "50")

# Known defects of the baseline program, 0.1.0 (ROADMAP item 4): at
# nu = 600 the zero finder exits 4, at nu = 1000 it exits 0 with zero 1006
# one index ahead. They stay in every numeric_checks pass and count as
# failed calls; they are the only calls whose failure does not make a
# run's "correct" false.
LARGE_ORDER_PROBES = (
    ("zeros", "--nu", "600", "--count", "620"),
    ("zeros", "--nu", "1000", "--count", "1010"),
)


class Draws:
    """The seeded draws of one pass.

    Parameters that set a call's cost are drawn by stratified sampling: the
    range is cut into as many contiguous slices as there are calls and one
    value is drawn from each slice. A mirrored pass makes exactly the same
    draws but reflects each stratified value within its slice, so a pass and
    its mirror together cost nearly the same whatever the seed.
    """

    def __init__(self, state: int, mirror: bool) -> None:
        self.rng = random.Random(state)
        self.mirror = mirror

    def stratified(self, lo: int, hi: int, k: int) -> list[int]:
        """k integers from lo..hi, one per contiguous slice, in random order."""
        span = hi - lo + 1
        edges = [lo + (i * span) // k for i in range(k + 1)]
        vals = []
        for a, b in zip(edges, edges[1:]):
            b = max(a + 1, b)
            v = self.rng.randrange(a, b)
            vals.append(a + b - 1 - v if self.mirror else v)
        self.rng.shuffle(vals)
        return vals

    def rational(self) -> str:
        b = self.rng.randint(1, 7)
        return f"{self.rng.randint(0, 60 * b)}/{b}"

    def decimal(self, hi: float) -> str:
        return f"{self.rng.uniform(0.0, hi):.2f}"


def closed_forms(d: Draws) -> list[list[str]]:
    """Deep exact derivations: every call re-derives from an empty table."""
    rest = [
        ["eval", "--p", str(p), "--nu", d.rational(), "--exact"]
        for p in d.stratified(40, 60, 2)
    ]
    # Six zetas in narrow slices put the median and the tail of the call
    # times inside one group of calls of similar cost.
    rest += [["zeta", "--p", str(p), "--float"] for p in d.stratified(20, 40, 6)]
    # Deep forms checked against a short zero sum; this is what gives the
    # workload its sigma_digits_min.
    rest += [
        ["verify", "sigma", "--p", str(p), "--nu", nu, "--terms", "300"]
        for p, nu in zip(d.stratified(20, 30, 2), d.rng.sample(NU_SET, 2))
    ]
    d.rng.shuffle(rest)
    return [["table", "--pmax", "60", "--format", "json"], *rest]


def numeric_checks(d: Draws) -> list[list[str]]:
    """Zero finding and tail-corrected summation over 10^5 zeros."""
    # p = 1 is the tail-limited case, checked at every order so that the
    # worst digits of a pass do not hang on which p the seed pairs with
    # nu = 50; two more checks take seed-drawn p and nu.
    calls = [["verify", "sigma", "--p", "1", "--nu", nu, "--terms", "100000"] for nu in NU_SET]
    calls += [
        ["verify", "sigma", "--p", str(p), "--nu", d.rng.choice(NU_SET), "--terms", "100000"]
        for p in d.stratified(2, 12, 2)
    ]
    p = d.rng.uniform(0.3, 2.4)
    if abs(p - round(p)) < 0.05:
        p += 0.1
    calls.append(["verify", "residues", "--p", f"{p:.2f}", "--nu", d.decimal(10.0),
                  "--terms", "100000"])
    calls.append(["zeros", "--nu", "50", "--count", "100000"])
    calls += [list(c) for c in LARGE_ORDER_PROBES]
    d.rng.shuffle(calls)
    return calls


def short_calls(d: Draws) -> list[list[str]]:
    """24 small calls, where interpreter start and import dominate."""
    calls: list[list[str]] = []
    for i, p in enumerate(d.stratified(1, 10, 6)):
        calls.append(["derive", "--p", str(p), "--format", ("text", "latex", "json")[i % 3]])
    for i, p in enumerate(d.stratified(1, 10, 4)):
        calls.append(["eval", "--p", str(p), "--nu", d.rational()] + (["--exact"] if i % 2 else []))
    for i, p in enumerate(d.stratified(1, 10, 4)):
        calls.append(["zeta", "--p", str(p)] + (["--float"] if i % 2 else []))
    for _ in range(4):
        calls.append(["zeros", "--nu", d.decimal(10.0), "--count", str(d.rng.randint(1, 20))])
    for _ in range(2):
        calls.append(
            ["verify", "ratio", "--p", str(d.rng.randint(1, 10)), "--nu", d.decimal(10.0),
             "--k", str(d.rng.randint(1, 5))]
        )
    # p >= 3: with 2000 terms, p = 1 and 2 are limited by the tail and are
    # covered at 10^5 terms by numeric_checks instead.
    for p in d.stratified(3, 10, 4):
        calls.append(["verify", "sigma", "--p", str(p), "--nu", d.rng.choice(NU_SET),
                      "--terms", "2000"])
    d.rng.shuffle(calls)
    return calls


WORKLOADS = {
    "closed_forms": closed_forms,
    "numeric_checks": numeric_checks,
    "short_calls": short_calls,
}
