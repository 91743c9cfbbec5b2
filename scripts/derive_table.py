#!/usr/bin/env python3
"""Derive the closed-form table up to a chosen p and report growth stats.

Prints one row per p: numerator degree, decimal digits of the largest
numerator coefficient, and the power of two and the largest shift in the
denominator. `scripts/bench.py` times the solver.
"""

from __future__ import annotations

import argparse

from rayleigh_sums import SigmaTable, derive_sigma


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=40, help="largest p to derive")
    args = parser.parse_args(argv)
    if args.pmax < 1:
        parser.error("--pmax must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    table = SigmaTable()
    print(f"{'p':>3} {'deg num':>8} {'digits':>7} {'2^a':>5} {'max m':>6}")
    for p in range(1, args.pmax + 1):
        f = derive_sigma(table, p)
        digits = len(str(max(abs(c) for c in f.numerator.int_coeffs())))
        print(
            f"{p:>3} {f.numerator.degree:>8} {digits:>7} {f.two_exponent:>5} "
            f"{f.shift_factors[-1][0]:>6}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
