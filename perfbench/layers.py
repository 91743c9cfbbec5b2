"""Per-layer timings and counters, measured directly on each module's
public functions in the benchmark's own process.

These back the traced run's per-layer metrics beside the span self times:
each one isolates a single layer at a fixed input, so a change to that
layer shows here even when a workload's mix hides it. ``measure`` returns
{metric name: value}; names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import jv

from checks import seam_index

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def _timed(fn, repeats: int = 1):
    """(median seconds over repeats, last result)."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def import_profile(env: dict, cwd: str, repeats: int = 3) -> dict[str, float]:
    """import.* from ``python -X importtime``: the package's cumulative
    import time, the cumulative time of the scipy imports within it, and
    whether the import loads scipy at all. Medians over fresh interpreters."""
    code = "import sys, rayleigh_sums; print(int('scipy' in sys.modules))"
    total, scipy_s, loaded = [], [], 0
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
        )
        matches = map(_IMPORTTIME.match, proc.stderr.splitlines())
        rows = [(len(m[3]), m[4], int(m[2])) for m in matches if m]
        pkg = sum(cum for _, name, cum in rows if name == "rayleigh_sums")
        # a module's importer is the next row printed at a shallower depth;
        # count the cumulative time of each scipy module not imported by scipy
        sp = 0
        for i, (depth, name, cum) in enumerate(rows):
            if _is_scipy(name):
                parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
                if not _is_scipy(parent):
                    sp += cum
        total.append(pkg * 1e-6)
        scipy_s.append(sp * 1e-6)
        loaded = int(proc.stdout.strip())
    return {
        "import.total_s": statistics.median(total),
        "import.scipy_s": statistics.median(scipy_s),
        "import.scipy_loaded": loaded,
    }


def measure(problems: list[str]) -> dict[str, float]:
    """Layer timings and counters; a failed self-check is appended to
    problems rather than raised, so the run still reports its numbers."""
    from rayleigh_sums import (
        SigmaTable,
        bessel_zeros,
        derive_sigma,
        numeric_sigma,
        sums_identity_defect,
        verify_residue_identity,
        zeta_even,
    )

    out: dict[str, float] = {}

    # rayleigh_core: the triangular solve, one p at a time from an empty table
    table = SigmaTable()
    cumulative = 0.0
    for p in range(1, 61):
        step, _ = _timed(lambda: derive_sigma(table, p))
        cumulative += step
        if p in (20, 40, 60):
            out[f"rayleigh_core.derive_p{p}_s"] = cumulative
    out["rayleigh_core.step_p60_s"] = step
    num = table[60].numerator.int_coeffs()
    out["rayleigh_core.num_digits_p60"] = max(len(str(abs(c))) for c in num)
    out["rayleigh_core.num_degree_p60"] = len(num) - 1
    defect_s, defect = _timed(lambda: sums_identity_defect(table, 20))
    if not defect.is_zero:
        problems.append("sums_identity_defect(table, 20) is not the zero polynomial")
    out["rayleigh_core.defect_p20_s"] = defect_s

    # exact_algebra: evaluation and rendering on the prebuilt table
    forms = [table[p] for p in range(1, 61)]
    nu = Fraction(27, 10)
    out["exact_algebra.evaluate_s"], _ = _timed(lambda: [f.evaluate(nu) for f in forms], 3)
    out["exact_algebra.render_s"], _ = _timed(
        lambda: [(json.dumps(f.to_json_dict()), f.to_text(), f.to_latex()) for f in forms], 3
    )

    # zeta: exact zeta(2p) for p <= 40 on the prebuilt table
    out["zeta.zeta_even_s"], _ = _timed(lambda: [zeta_even(p, table) for p in range(1, 41)], 3)

    # bessel_numeric: zero finding, summation, residue check
    sets = {}
    for label, nu_f, count in (("nu0", 0.0, 100000), ("nu2.7", 2.7, 100000),
                               ("nu50", 50.0, 100000), ("scan_nu200", 200.0, 210)):
        out[f"bessel_numeric.zeros_{label}_s"], sets[nu_f] = _timed(
            lambda: bessel_zeros(nu_f, count), 3
        )
    cert, err = 0.0, 0.0
    for nu_f, zs in sets.items():
        z = zs.zeros
        f = jv(nu_f, z)
        d = (nu_f / z) * f - jv(nu_f + 1, z)
        cert = max(cert, float(np.max(np.abs(f) / (1e-12 * np.maximum(1.0, np.abs(d))))))
        n_scan = seam_index(nu_f, len(z))
        with mpmath.workdps(25):
            for n in {n_scan, min(n_scan + 1, len(z)), len(z)}:
                ref = float(mpmath.besseljzero(mpmath.mpf(nu_f), n))
                err = max(err, abs(float(z[n - 1]) - ref))
    out["bessel_numeric.cert_ratio_max"] = cert
    out["bessel_numeric.zero_err_max"] = err
    sums = []
    out["bessel_numeric.numeric_sigma_s"], _ = _timed(
        lambda: sums.extend(numeric_sigma(0.0, float(p), sets[0.0]) for p in range(1, 13))
    )
    out["bessel_numeric.tail_share"] = max(abs(s.tail_estimate / s.value) for s in sums)
    out["bessel_numeric.residue_s"], _ = _timed(
        lambda: verify_residue_identity(0.25, 1.5, 100000), 3
    )
    return out
