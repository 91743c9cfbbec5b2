#!/usr/bin/env python3
"""Write one JSON record of the per-layer benchmark metrics.

Every timing comes from perfbench/layers.py (``measure`` and
``import_profile``), so the metric names are the per-layer names in
BENCHMARK.json. Each metric is the median over ``--repeats`` runs. The
record also holds the git commit of this checkout (and whether its tracked
files differ from it), the platform, and the Python, numpy and scipy
versions, so that two records compare only when they come from one machine.
The package measured is the one in this checkout's src/.

    python3 scripts/bench.py --repeats 5 --out bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT / "perfbench"), str(SRC)]

import layers  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402


def _git(*argv: str) -> str | None:
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(repeats: int) -> dict:
    problems: list[str] = []
    runs = [layers.measure(problems) for _ in range(repeats)]
    metrics = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    metrics.update(layers.import_profile(env, str(ROOT), repeats))
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repeats": repeats,
        "problems": sorted(set(problems)),
        "metrics": dict(sorted(metrics.items())),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="runs to take the median of")
    parser.add_argument("--out", required=True, help="path of the JSON record to write")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    rec = record(args.repeats)
    Path(args.out).write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
    for problem in rec["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if rec["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
