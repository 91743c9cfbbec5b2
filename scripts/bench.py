#!/usr/bin/env python3
"""Write one JSON record of an interleaved A/B of the per-layer benchmark metrics.

    python3 scripts/bench.py --repeats 10 --against ../base/src --out ab.json

compares this checkout's src/ (the change) with another tree's src/ (the
base), for example a clone of the parent commit. To measure one tree, pass
its own src/ as the base: the spread between the two sides is then the
noise floor. Each of the ``--repeats`` rounds measures both sides once,
each in a fresh interpreter with PYTHONPATH set to that side's src/,
alternating which side goes first, so that drift of the machine reaches
both sides alike; this script itself imports neither tree.

Every layer timing comes from this checkout's perfbench/layers.py
(``measure`` and ``import_profile``), so those metric names are the
per-layer names in BENCHMARK.json. Beside them each side has the wall time
and peak RSS of three fresh ``python -m rayleigh_sums`` calls at 10^6 zeros,
of one small call whose cost is interpreter start, imports and parsing, of
a small ``verify residues`` call on the scalar zero finder, of 100 zeros
at order 4999, near the order limit, where the index check costs most, of
``verify ratio`` at p = 1000, whose two exact sums grow with p, of two
float ``eval`` calls, at a 20-digit nu and at p = 424, and of ``eval
--exact`` at a 100-digit nu, inside the exact work limit (``CALLS``), as
``fresh.<call>.wall_s`` and ``fresh.<call>.peak_rss_mb``. Each call is
started from a small helper interpreter, since a child started by
vfork/exec inherits its parent's RSS high-water mark: started from this
script, whose numpy and perfbench imports take more, its ``ru_maxrss``
would read this script's. The record also holds the git commit of each
side's checkout (and whether its tracked files differ from it), the
platform, and the Python, numpy and scipy versions, so that two records
compare only when they come from one machine. Every child reads and writes
its bytecode under one PYTHONPYCACHEPREFIX directory, empty at the start of
each run of this script and filled by one untimed call per tree, so no side
reads the bytecode left in its tree's __pycache__ (PYTHONDONTWRITEBYTECODE
stops the writing of a cache, not the reading of a stale one) and no timed
call compiles. The record reads

    {"commit", "dirty",                      # the change
     "platform", ..., "scipy",
     "base": {"src", "commit", "dirty"},
     "rounds",
     "problems": ["base: ...", "change: ..."],
     "metrics": {name: {"base":   {"min", "q1", "median", "q3"},
                        "change": {"min", "q1", "median", "q3"},
                        "change_lower": rounds in which the change read
                                        strictly lower than the base}},
     "above_q3": [name, ...]}

with the quartiles over the rounds (inclusive method; one round gives
min = q1 = median = q3). "above_q3" lists, sorted, the metrics whose change
median lies above the base's q3; every metric here is better lower, so
these are the ones to look at for a layer made slower. It is printed to
stderr too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402


# the fresh-process calls: three at 10^6 zeros, the floor of any call, a
# residue check small enough for the scalar zero finder, zeros near the
# largest order, a ratio check at a large p on the scalar zero finder, float
# eval where nu has many digits and where p is the largest it takes, and
# exact eval at a long nu; each must exit 0, so no call past a limit is here
CALLS = {
    "derive_p1": ("derive", "--p", "1"),
    "verify_residues_small": ("verify", "residues", "--p", "1.5", "--nu", "2.7", "--terms", "10"),
    "verify_sigma_1e6": ("verify", "sigma", "--p", "1", "--nu", "0", "--terms", "1000000"),
    "verify_residues_1e6": (
        "verify", "residues", "--p", "1.37", "--nu", "4.2", "--terms", "1000000",
    ),
    "zeros_1e6": ("zeros", "--nu", "0", "--count", "1000000"),
    "zeros_nu4999_100": ("zeros", "--nu", "4999", "--count", "100"),
    "verify_ratio_p1000": ("verify", "ratio", "--p", "1000", "--nu", "0", "--k", "2000"),
    "eval_p330_nu1e-20": ("eval", "--p", "330", "--nu", "1e-20"),
    "eval_p424_nu0": ("eval", "--p", "424", "--nu", "0"),
    "eval_p60_nu1e-100_exact": ("eval", "--p", "60", "--nu", "1e-100", "--exact"),
}

# the small helper: runs the call in argv[1:] with its stdout on /dev/null
# and prints its wall time, its own ru_maxrss (kB) and its exit code
_SPAWN = (
    "import os, sys, time; "
    "out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]; "
    "argv = [sys.executable, '-m', 'rayleigh_sums', *sys.argv[1:]]; "
    "t = time.perf_counter(); "
    "pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=out); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(time.perf_counter() - t, usage.ru_maxrss, os.waitstatus_to_exitcode(status))"
)

# run in a fresh interpreter per side: argv[1] is this checkout's perfbench/
_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
    "problems = []; metrics = layers.measure(problems); "
    "print(json.dumps({'metrics': metrics, 'problems': problems}))"
)


def _git(*argv: str, cwd: Path = ROOT) -> str | None:
    proc = subprocess.run(["git", *argv], cwd=cwd, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _checkout(cwd: Path) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no", cwd=cwd)
    return {
        "commit": _git("rev-parse", "HEAD", cwd=cwd),
        "dirty": bool(status) if status is not None else None,
    }


def fresh_calls(env: dict, problems: list[str]) -> dict[str, float]:
    """Wall time and peak RSS of each of CALLS in a fresh process, started
    from the helper interpreter; a call that exits non-zero is a problem."""
    metrics = {}
    for name, argv in CALLS.items():
        proc = subprocess.run(
            [sys.executable, "-c", _SPAWN, *argv],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        wall, rss_kb, code = proc.stdout.split()
        if code != "0":
            problems.append(f"{' '.join(argv)} exited {code}: {proc.stderr.strip()}")
        metrics[f"fresh.{name}.wall_s"] = float(wall)
        metrics[f"fresh.{name}.peak_rss_mb"] = int(rss_kb) / 1024
    return metrics


def _warm_env(src: Path, cache: str) -> dict:
    """The environment of a child that imports the package from src. All
    its bytecode, the standard library's and numpy's too, is read from and
    written to cache, which one call of `zeros` on the numpy engine fills
    first; so no call compiles what the timed calls import, and none reads
    the bytecode left in a tree's __pycache__."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run(
        [sys.executable, "-m", "rayleigh_sums", "zeros", "--nu", "0", "--count", "10000"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    return env


def _measure_side(env: dict) -> tuple[dict[str, float], list[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "perfbench")],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    out["metrics"].update(layers.import_profile(env, str(ROOT), 1))
    out["metrics"].update(fresh_calls(env, out["problems"]))
    return out["metrics"], out["problems"]


def _summary(xs: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if xs[1:] else xs * 3
    return {"min": min(xs), "q1": q1, "median": median, "q3": q3}


def above_q3(metrics: dict) -> list[str]:
    """The names of the metrics whose change median lies above the base's q3, sorted."""
    return sorted(name for name, m in metrics.items() if m["change"]["median"] > m["base"]["q3"])


def compare(rounds: int, base: Path, cache: str) -> dict:
    """The interleaved A/B part of the record: base, rounds, problems,
    metrics and above_q3."""
    envs = {"base": _warm_env(base, cache), "change": _warm_env(SRC, cache)}
    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    problems: set[str] = set()
    for i in range(rounds):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            metrics, found = _measure_side(envs[side])
            runs[side].append(metrics)
            problems.update(f"{side}: {problem}" for problem in found)
    metrics = {
        name: {
            "base": _summary([run[name] for run in runs["base"]]),
            "change": _summary([run[name] for run in runs["change"]]),
            "change_lower": sum(c[name] < b[name] for b, c in zip(runs["base"], runs["change"])),
        }
        for name in sorted(runs["change"][0])
    }
    return {
        "base": {"src": str(base), **_checkout(base.parent)},
        "rounds": rounds,
        "problems": sorted(problems),
        "metrics": metrics,
        "above_q3": above_q3(metrics),
    }


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="rounds of the A/B")
    parser.add_argument(
        "--against", metavar="DIR", required=True,
        help="the base tree's src/, measured round by round against this checkout's",
    )
    parser.add_argument("--out", required=True, help="path of the JSON record to write")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    base = Path(args.against).resolve()
    if not (base / "rayleigh_sums").is_dir():
        parser.error(f"--against {args.against}: no rayleigh_sums package there")
    with tempfile.TemporaryDirectory() as cache:
        measured = compare(args.repeats, base, cache)
    rec = {**_checkout(ROOT), **machine(), **measured}
    Path(args.out).write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
    print(f"above the base's q3: {', '.join(rec['above_q3']) or 'none'}", file=sys.stderr)
    for problem in rec["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if rec["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
