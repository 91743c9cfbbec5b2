#!/usr/bin/env python3
"""Trace residue-identity residuals as the number of zeros doubles.

The identity holds for any real p > 0, so it exercises the numeric stack at
parameters the symbolic route cannot reach. For each (p, nu) pair the script
prints the residual at a doubling ladder of term counts next to the computed
tail scale; the residual should track the scale and shrink roughly like
terms**-p.
"""

from __future__ import annotations

import argparse

from rayleigh_sums import residue_tail_scale, verify_residue_identity


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs",
        default="1.5:0.25,2.5:0,3.2:1.7",
        help="comma-separated p:nu pairs, e.g. '1.5:0.25,2.5:0'",
    )
    parser.add_argument("--start", type=int, default=1250, help="smallest term count")
    parser.add_argument("--doublings", type=int, default=4)
    args = parser.parse_args(argv)
    try:
        args.pairs = tuple(
            (float(p), float(nu))
            for p, nu in (item.split(":") for item in args.pairs.split(","))
        )
    except ValueError as e:
        parser.error(f"bad --pairs: {e}")
    if any(p <= 0 or nu < 0 for p, nu in args.pairs):
        parser.error("pairs need p > 0 and nu >= 0")
    if args.start < 2 or args.doublings < 1:
        parser.error("--start must be >= 2 and --doublings >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for p, nu in args.pairs:
        print(f"p = {p}, nu = {nu}")
        print(f"{'terms':>8} {'residual':>12} {'tail scale':>12} {'ratio':>8} {'conv':>5}")
        prev = None
        for i in range(args.doublings + 1):
            terms = args.start * 2**i
            report = verify_residue_identity(nu, p, terms)
            scale = residue_tail_scale(nu, p, terms)
            shrink = f"{prev / report.residual:>8.1f}" if prev else f"{'-':>8}"
            print(
                f"{terms:>8} {report.residual:>12.3e} {scale:>12.3e} {shrink} "
                f"{str(report.converging):>5}"
            )
            prev = report.residual
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
