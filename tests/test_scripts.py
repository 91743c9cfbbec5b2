"""Tests of the A/B harness, scripts/bench.py."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# what layers.measure and layers.import_profile give each side
_LAYERS = {
    "bessel_numeric.cert_ratio_max", "bessel_numeric.numeric_sigma_s",
    "bessel_numeric.residue_s", "bessel_numeric.tail_share", "bessel_numeric.zero_err_max",
    "bessel_numeric.zeros_nu0_s", "bessel_numeric.zeros_nu2.7_s", "bessel_numeric.zeros_nu50_s",
    "bessel_numeric.zeros_scan_nu200_s", "exact_algebra.evaluate_s", "exact_algebra.render_s",
    "import.scipy_loaded", "import.scipy_s", "import.total_s", "rayleigh_core.defect_p20_s",
    "rayleigh_core.derive_p20_s", "rayleigh_core.derive_p40_s", "rayleigh_core.derive_p60_s",
    "rayleigh_core.num_degree_p60", "rayleigh_core.num_digits_p60", "rayleigh_core.step_p60_s",
    "zeta.zeta_even_s",
}
_CALLS = (
    "derive_p1", "verify_residues_small", "verify_sigma_1e6", "verify_residues_1e6", "zeros_1e6",
    "zeros_nu4999_100", "verify_ratio_p1000", "eval_p330_nu1e-20", "eval_p424_nu0",
    "eval_p60_nu1e-100_exact",
)


@pytest.fixture
def bench(monkeypatch):
    """scripts/bench.py as a module; the perfbench/ it puts on sys.path is
    taken off again after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_against_same_tree_writes_both_sides(bench, monkeypatch, tmp_path, capsys):
    # the fresh calls at 10^4 zeros, not 10^6, so that a round stays short
    calls = {
        name: tuple("10000" if a == "1000000" else a for a in argv)
        for name, argv in bench.CALLS.items()
    }
    assert tuple(calls) == _CALLS and sum("10000" in argv for argv in calls.values()) == 3
    monkeypatch.setattr(bench, "CALLS", calls)
    src = ROOT / "src"
    out = tmp_path / "ab.json"
    rc = bench.main(["--repeats", "1", "--against", str(src), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 0, err
    rec = json.loads(out.read_text(encoding="utf-8"))
    assert set(rec) == {
        "commit", "dirty", "platform", "machine", "cpu_count", "python", "numpy", "scipy",
        "base", "rounds", "problems", "metrics", "above_q3",
    }
    assert rec["rounds"] == 1
    assert rec["base"]["src"] == str(src)
    assert rec["problems"] == []
    fresh = {f"fresh.{call}.{metric}" for call in _CALLS for metric in ("wall_s", "peak_rss_mb")}
    assert set(rec["metrics"]) == _LAYERS | fresh
    for name, stats in rec["metrics"].items():
        assert set(stats) == {"base", "change", "change_lower"}, name
        assert stats["change_lower"] in (0, 1), name
        for side in ("base", "change"):
            assert set(stats[side]) == {"min", "q1", "median", "q3"}, name
            assert stats[side]["min"] == stats[side]["q1"] == stats[side]["median"]
            assert stats[side]["median"] == stats[side]["q3"], name
    for name in fresh | {"rayleigh_core.derive_p60_s"}:
        for side in ("base", "change"):
            assert rec["metrics"][name][side]["min"] > 0
    assert rec["above_q3"] == bench.above_q3(rec["metrics"])
    assert f"above the base's q3: {', '.join(rec['above_q3']) or 'none'}\n" in err


def test_above_q3_lists_the_change_medians_past_the_base_q3(bench):
    def summary(median, q3):
        return {"min": median / 2, "q1": median / 2, "median": median, "q3": q3}

    metrics = {
        "b.slower_s": {"base": summary(1.0, 1.1), "change": summary(1.2, 1.3)},
        "a.slower_s": {"base": summary(2.0, 2.5), "change": summary(2.6, 2.6)},
        "c.within_s": {"base": summary(1.0, 1.1), "change": summary(1.1, 1.4)},
        "d.faster_s": {"base": summary(1.0, 1.1), "change": summary(0.5, 0.6)},
    }
    assert bench.above_q3(metrics) == ["a.slower_s", "b.slower_s"]
    assert bench.above_q3({}) == []


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
