"""Write references.json: the stored half of the benchmark's references.

Usage (from the repository root, on the baseline program whose outputs are
the reference):

    PYTHONPATH=src python3 perfbench/make_references.py

It records the sha256 of every closed-form output the workloads can ask
for (``table --pmax 60 --format json`` and ``derive --p 1..10`` in text,
LaTeX and JSON), after checking each JSON form against Kishore's recurrence
at several nu, and the mpmath zeros of the two large-order probes, which
take seconds each to compute. The closed-form bytes are meant to stay
identical, so rerun this only for a deliberate change of output format.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from checks import References, seam_index
from workloads import LARGE_ORDER_PROBES

HERE = Path(__file__).resolve().parent


def _cli(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "rayleigh_sums", *argv],
                          capture_output=True, text=True, check=True)
    return proc.stdout


def _check_form(refs: References, p: int, form: dict) -> None:
    num = [int(c) for c in form["numerator"]]
    for nu in (Fraction(0), Fraction(1, 2), Fraction(27, 10), Fraction(-1, 3)):
        den = Fraction(2) ** form["two_exponent"]
        for m, e in form["shift_factors"]:
            den *= (nu + m) ** e
        value = sum(c * nu**i for i, c in enumerate(num)) / den
        if value != refs.sigma(p, nu):
            raise SystemExit(f"sigma({p}) at nu={nu} disagrees with Kishore's recurrence")


def main() -> None:
    refs = References()

    sha: dict[str, str] = {}
    table_argv = ["table", "--pmax", "60", "--format", "json"]
    out = _cli(table_argv)
    for entry in json.loads(out):
        _check_form(refs, entry["p"], entry)
    sha[" ".join(table_argv)] = hashlib.sha256(out.encode()).hexdigest()
    for p in range(1, 11):
        for fmt in ("text", "latex", "json"):
            argv = ["derive", "--p", str(p), "--format", fmt]
            out = _cli(argv)
            if fmt == "json":
                _check_form(refs, p, json.loads(out))
            sha[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()

    zeros: dict[str, str] = {}
    for probe in LARGE_ORDER_PROBES:
        nu, count = probe[2], int(probe[4])
        n_scan = seam_index(float(nu), count)
        mid = (n_scan + count) // 2
        for n in sorted({n_scan - 1, n_scan, n_scan + 1, n_scan + 2, mid, count}):
            with mpmath.workdps(25):
                zeros[f"{nu}:{n}"] = mpmath.nstr(mpmath.besseljzero(mpmath.mpf(nu), n), 20)

    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump({"sha256": sha, "zeros": zeros}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
