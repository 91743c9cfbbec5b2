"""What each process loads. Importing the package loads none of its
modules, and the CLI loads its four layers but not `dataclasses` or
`inspect`; of bessel_numeric it takes the verify checks, not their rules.
The exact subcommands run without numpy, and so do the small numeric ones,
whose zeros come from the scalar zero finder below its work threshold:
`zeros` and the three `verify` commands load numpy exactly when the zeros
they take (the count, k, or a sum's max(terms, K0)) pass it. No subcommand
loads scipy, which the package does not use. The CLI runs OpenBLAS on one
thread unless the environment says otherwise.

The pytest process has numpy loaded already, so each check runs a fresh
interpreter with PYTHONPATH=src and reads its sys.modules.
"""

import ast
import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rayleigh_sums
from rayleigh_sums import (
    FactoredRationalFn,
    Poly,
    RatioExpansion,
    ResidueReport,
    TailedSum,
    ZeroSet,
    ZetaValue,
    bessel_numeric,
    cli,
)

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import contextlib, io, json, sys
import rayleigh_sums
from rayleigh_sums import cli

def loaded():
    return sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules)

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


# numpy loads inspect itself, so the last two are watched only where numpy
# is not loaded
_HEAVY = ("numpy", "scipy", "dataclasses", "inspect")


def _loaded_after(*argvs: list[str], watch: tuple[str, ...] = _HEAVY) -> dict:
    """The watched modules loaded after `import rayleigh_sums.cli` and after
    each CLI call in turn, in one fresh interpreter."""
    return json.loads(_probe(_PROBE, json.dumps(argvs), json.dumps(watch)))


def test_package_import_loads_no_module_of_the_package():
    code = "import sys, rayleigh_sums; print(sorted(m for m in sys.modules if 'rayleigh' in m))"
    assert _probe(code) == "['rayleigh_sums']\n"


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
        ["verify", "residues", "--p", "1.5", "--nu", "2.7", "--terms", "100"],
    )
    assert seen == {stage: [] for stage in seen}
    assert len(seen) == 7


def test_cli_takes_only_the_checks_from_bessel_numeric():
    # the K0 rule, _sigma_sum and each budget rule live in the checks
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "bessel_numeric" in ast.unparse(node)
    ]
    assert [(n.level, n.module) for n in imported] == [(1, "bessel_numeric")]
    assert {a.name for a in imported[0].names} == {
        "NumericError", "_zero_blocks", "_sigma_check", "_residue_check", "_ratio_check"
    }


def test_numeric_calls_load_numpy_but_never_scipy():
    # numpy above the scalar engine's threshold, reached by the zeros a call
    # takes: a residue sum of 10^4 zeros, a count of 10^4, a sigma sum whose
    # K0 (1836 zeros at nu = 150) passes its --terms, or a ratio check at
    # zero 2000; the lazy numpy import shows that the probe sees one when it
    # happens. scipy loads on no path, at the order limit or past it
    assert 10**4 * 30 > bessel_numeric._SCALAR_WORK
    assert bessel_numeric._summed_zeros(150.0, 2) * 180 > bessel_numeric._SCALAR_WORK
    seen = _loaded_after(
        ["verify", "residues", "--p", "1.5", "--nu", "2.7", "--terms", "10000"],
        ["zeros", "--nu", "0", "--count", "10000"],
        ["verify", "sigma", "--p", "1", "--nu", "150", "--terms", "2"],
        ["verify", "ratio", "--p", "3", "--nu", "150", "--k", "2000"],
        ["zeros", "--nu", "5000", "--count", "3"],
        ["zeros", "--nu", "6000", "--count", "3"],
        watch=("numpy", "scipy"),
    )
    assert seen == {
        "import": [],
        "verify residues --p 1.5 --nu 2.7 --terms 10000": ["numpy"],
        "zeros --nu 0 --count 10000": ["numpy"],
        "verify sigma --p 1 --nu 150 --terms 2": ["numpy"],
        "verify ratio --p 3 --nu 150 --k 2000": ["numpy"],
        "zeros --nu 5000 --count 3": ["numpy"],
        "zeros --nu 6000 --count 3": "exit 4",
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


def test_every_public_name_is_its_home_modules_object():
    homes = rayleigh_sums._HOME
    assert set(homes) | {"__version__"} == set(rayleigh_sums.__all__)
    for name, module in homes.items():
        home = importlib.import_module(f"rayleigh_sums.{module}")
        assert getattr(rayleigh_sums, name) is getattr(home, name), name
    assert set(rayleigh_sums.__all__) <= set(dir(rayleigh_sums))
    namespace: dict = {}
    exec("from rayleigh_sums import *", namespace)
    assert set(rayleigh_sums.__all__) <= set(namespace)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        rayleigh_sums.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from rayleigh_sums import no_such_name  # noqa: F401


# each immutable record type, the fields of one value and of an unequal one
_RECORDS = [
    (Poly, ((1, 2),), ((1, 3),)),
    (FactoredRationalFn, (Poly((3, 1)), 2, ((1, 1),)), (Poly((3, 1)), 3, ((1, 1),))),
    (RatioExpansion, (3, ((0, Poly((2, 1)), 2),)), (2, ())),
    (
        ZetaValue,
        (2, Fraction(1, 6), ((2, 1), (3, 1))),
        (4, Fraction(1, 90), ((2, 1), (3, 2), (5, 1))),
    ),
    (TailedSum, (1.0, 0.5, 1e-9, 1.5), (1.0, 0.5, 1e-9, 1.25)),
    (
        ResidueReport,
        (0.25, 0.24, 0.01, 0.01, 1e-14, 1e-15, 612),
        (0.25, 0.24, 0.01, 0.01, 2e-14, 1e-15, 612),
    ),
    (
        bessel_numeric.Check,
        (0.25, 0.24, 0.01, (("budget", 0.02),), 0.02),
        (0.25, 0.24, 0.01, (("budget", 0.005),), 0.005),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, other_fields", _RECORDS, ids=[r[0].__name__ for r in _RECORDS]
)
def test_records_are_immutable_values(cls, fields, other_fields):
    a = cls(*fields)
    b = cls(**dict(zip(cls.__slots__, fields)))
    other = cls(*other_fields)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != other and a != fields
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(cls.__slots__, fields))
    assert repr(a) == f"{cls.__name__}({shown})"
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    with pytest.raises(TypeError):
        cls(*fields, 0)


def test_zero_sets_compare_by_identity_and_stay_immutable():
    zeros = np.array([2.404825557695773, 5.520078110286311])
    a = ZeroSet(0.0, zeros, np.zeros(2))
    b = ZeroSet(nu=0.0, zeros=zeros, accuracy=np.zeros(2))
    assert a == a and a != b and hash(a) != hash(b)
    with pytest.raises(AttributeError):
        a.nu = 1.0
