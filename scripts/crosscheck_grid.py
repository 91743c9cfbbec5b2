#!/usr/bin/env python3
"""Cross-check closed forms against direct zero summation over a (p, nu) grid.

For each order in --nu-list the script computes one batch of zeros, at
least the K0 that `rayleigh verify sigma` sums before its tail, and
compares the tail-corrected sums for p = 1..pmax against the exact rational
evaluations, printing the error |exact - value|, the reported tail bound and
their ratio. A point passes where error <= tail_bound < exact, the rule of
`rayleigh verify sigma`; the script exits nonzero if any point fails.
"""

from __future__ import annotations

import argparse
import math
import time
from fractions import Fraction

from rayleigh_sums import SigmaTable, bessel_zeros, derive_sigma, eval_sigma_exact, numeric_sigma
from rayleigh_sums.bessel_numeric import _summed_zeros


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=5)
    parser.add_argument(
        "--nu-list",
        default="0,1/2,1,2.7",
        help="comma-separated rational orders, e.g. '0,1/2,1,2.7'",
    )
    parser.add_argument("--terms", type=int, default=10000, help="zeros per order (K0 where that is more)")
    args = parser.parse_args(argv)
    if args.pmax < 1:
        parser.error("--pmax must be >= 1")
    try:
        args.nus = tuple(Fraction(s) for s in args.nu_list.split(","))
    except (ValueError, ZeroDivisionError) as e:
        parser.error(f"bad --nu-list: {e}")
    if any(nu < 0 for nu in args.nus):
        parser.error("orders must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    table = SigmaTable()
    derive_sigma(table, args.pmax)
    failures = 0
    print(f"{'nu':>6} {'p':>3} {'exact':>24} {'error':>12} {'tail bound':>12} {'err/bound':>10}")
    for nu in args.nus:
        t0 = time.perf_counter()
        # at least K0 zeros, which numeric_sigma would otherwise find again for each p
        zeros = bessel_zeros(float(nu), _summed_zeros(float(nu), args.terms))
        for p in range(1, args.pmax + 1):
            exact = eval_sigma_exact(table[p], nu)
            ts = numeric_sigma(float(nu), p, zeros)
            err = abs(Fraction(ts.value) - exact)
            # a bound of 0 comes with a value of 0, which misses sigma > 0
            ratio = float(err / Fraction(ts.tail_bound)) if ts.tail_bound else math.inf
            ok = err <= ts.tail_bound < exact
            failures += not ok
            print(
                f"{str(nu):>6} {p:>3} {float(exact):>24.17g} {float(err):>12.3e}"
                f" {ts.tail_bound:>12.3e} {ratio:>10.3g}{'' if ok else '  FAIL'}"
            )
        print(f"       ({len(zeros.zeros)} zeros of J_{nu} in {time.perf_counter() - t0:.2f}s)")
    if failures:
        print(f"{failures} grid points outside their tail bound")
        return 1
    print("all points within their tail bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
