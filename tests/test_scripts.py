"""Tests of the A/B harness, scripts/bench.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_against_same_tree_writes_both_sides(tmp_path):
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--repeats", "1",
         "--against", str(src), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text(encoding="utf-8"))
    assert set(rec) == {
        "commit", "dirty", "platform", "machine", "cpu_count", "python", "numpy", "scipy",
        "base", "rounds", "problems", "metrics",
    }
    assert rec["rounds"] == 1
    assert rec["base"]["src"] == str(src)
    assert rec["problems"] == []
    derive = rec["metrics"]["rayleigh_core.derive_p60_s"]
    for side in ("base", "change"):
        stats = derive[side]
        assert 0 < stats["min"] == stats["q1"] == stats["median"] == stats["q3"]
    assert derive["change_lower"] in (0, 1)
    assert "import.total_s" in rec["metrics"]
    # the fresh-process calls, each side's own
    fresh = {name for name in rec["metrics"] if name.startswith("fresh.")}
    assert fresh == {
        f"fresh.{call}.{metric}"
        for call in (
            "derive_p1", "verify_residues_small", "verify_sigma_1e6", "verify_residues_1e6",
            "zeros_1e6",
        )
        for metric in ("wall_s", "peak_rss_mb")
    }
    for name in fresh:
        for side in ("base", "change"):
            assert rec["metrics"][name][side]["min"] > 0


def test_bench_requires_a_base(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--repeats", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "the following arguments are required: --against" in proc.stderr
    assert not out.exists()
