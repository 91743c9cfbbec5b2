"""The exact subcommands run without numpy or scipy, and so do the small
numeric ones, whose zeros come from the scalar zero finder below its work
threshold; larger numeric calls load numpy, and only orders above the cap
of the numpy Bessel kernel load scipy. The CLI runs OpenBLAS on one thread
unless the environment says otherwise.

The pytest process has numpy loaded already, so each check runs a fresh
interpreter with PYTHONPATH=src and reads its sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rayleigh_sums import bessel_numeric

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import contextlib, io, json, sys
import rayleigh_sums
from rayleigh_sums import cli

def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

seen = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    seen[" ".join(argv)] = loaded() if rc == 0 else f"exit {rc}"
print(json.dumps(seen))
"""


def _probe(code: str, *args: str, env: dict | None = None) -> str:
    """Stdout of `code` run in a fresh interpreter with src on its path."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(*argvs: list[str]) -> dict:
    return json.loads(_probe(_PROBE, json.dumps(argvs)))


def test_exact_subcommands_load_neither_numpy_nor_scipy():
    seen = _loaded_after(
        ["derive", "--p", "6"],
        ["eval", "--p", "9", "--nu", "27/10"],
        ["eval", "--p", "3", "--nu", "1/2", "--exact"],
        ["zeta", "--p", "7", "--float"],
        ["table", "--pmax", "8", "--format", "json"],
    )
    assert seen == {stage: [] for stage in seen}
    assert len(seen) == 6


def test_small_numeric_calls_load_neither_numpy_nor_scipy():
    # count * (nu + 30) is at most the scalar engine's threshold in each call
    seen = _loaded_after(
        ["zeros", "--nu", "0", "--count", "3"],
        ["zeros", "--nu", "4.3", "--count", "20"],
        ["verify", "sigma", "--p", "25", "--nu", "27/10", "--terms", "300"],
        ["verify", "sigma", "--p", "5", "--nu", "50", "--terms", "2000"],
        ["verify", "ratio", "--p", "3", "--nu", "1.7", "--k", "3"],
    )
    assert seen == {stage: [] for stage in seen}
    assert len(seen) == 6


def test_zeros_loads_numpy_and_scipy():
    # numpy above the scalar engine's threshold and for the residue check,
    # scipy only for an order above the kernel's cap; this also confirms
    # the probe sees a lazy import when one happens
    assert 10**4 * 30 > bessel_numeric._SCALAR_WORK
    assert bessel_numeric._JV_ORDER_CAP < 6000
    seen = _loaded_after(
        ["zeros", "--nu", "0", "--count", "10000"],
        ["verify", "residues", "--p", "1.5", "--nu", "2.7", "--terms", "100"],
        ["zeros", "--nu", "6000", "--count", "3"],
    )
    assert seen == {
        "import": [],
        "zeros --nu 0 --count 10000": ["numpy"],
        "verify residues --p 1.5 --nu 2.7 --terms 100": ["numpy"],
        "zeros --nu 6000 --count 3": ["numpy", "scipy"],
    }


_THREADS_PROBE = """
import contextlib, io, os
from rayleigh_sums import cli

with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["zeros", "--nu", "0", "--count", "3"])
print(rc, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
def test_cli_runs_openblas_on_one_thread_unless_told_otherwise(preset, seen):
    # no subcommand calls BLAS; the variable must be set before numpy loads
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    assert _probe(_THREADS_PROBE, env=env) == f"0 {seen}\n"
