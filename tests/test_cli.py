"""End-to-end coverage of the command-line interface via main(argv)."""

import json
import subprocess
import sys

import pytest

from rayleigh_sums.cli import main
from rayleigh_sums.exact_algebra import FactoredRationalFn

from golden_forms import golden_frf


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_derive_text_p1(capsys):
    rc, out, err = run(capsys, "derive", "--p", "1")
    assert rc == 0
    assert out == "1 / (2^2 (v+1))\n"
    assert err == ""


def test_derive_latex_p6(capsys):
    rc, out, _ = run(capsys, "derive", "--p", "6", "--format", "latex")
    assert rc == 0
    assert out.rstrip("\n") == (
        "\\frac{21\\nu^{3}+181\\nu^{2}+513\\nu+473}"
        "{2^{11}(\\nu+1)^{6}(\\nu+2)^{3}(\\nu+3)^{2}(\\nu+4)(\\nu+5)(\\nu+6)}"
    )


def test_derive_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "derive", "--p", "7", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert FactoredRationalFn.from_json_dict(doc) == golden_frf(7)


def test_derive_rejects_p0(capsys):
    rc, out, err = run(capsys, "derive", "--p", "0")
    assert rc == 2
    assert err.startswith("error:")


def test_eval_exact_values(capsys):
    assert run(capsys, "eval", "--p", "1", "--nu", "0", "--exact") == (0, "1/4\n", "")
    assert run(capsys, "eval", "--p", "9", "--nu", "0", "--exact") == (
        0,
        "946523/6849130659840\n",
        "",
    )
    assert run(capsys, "eval", "--p", "2", "--nu", "1/2", "--exact") == (0, "1/90\n", "")


def test_eval_float_mode(capsys):
    rc, out, _ = run(capsys, "eval", "--p", "1", "--nu", "0")
    assert rc == 0
    assert out == "0.25\n"


def test_eval_pole_exit_code(capsys):
    rc, out, err = run(capsys, "eval", "--p", "1", "--nu", "-1", "--exact")
    assert rc == 3
    assert err == "pole at nu=-1\n"


def test_eval_rejects_bad_nu(capsys):
    rc, _, err = run(capsys, "eval", "--p", "1", "--nu", "abc", "--exact")
    assert rc == 2
    assert "cannot parse rational" in err


def test_eval_float_rejects_negative_nu(capsys):
    rc, _, err = run(capsys, "eval", "--p", "1", "--nu", "-0.5")
    assert rc == 2


def test_verify_sigma_pass(capsys):
    rc, out, _ = run(
        capsys, "verify", "sigma", "--p", "3", "--nu", "1", "--terms", "5000", "--tol", "1e-10"
    )
    assert rc == 0
    assert "result: PASS" in out
    assert "tail_bound" in out


def test_verify_sigma_fail_on_impossible_tol(capsys):
    rc, out, _ = run(
        capsys, "verify", "sigma", "--p", "3", "--nu", "1", "--terms", "200", "--tol", "1e-30"
    )
    assert rc == 1
    assert "result: FAIL" in out


def test_verify_residues_pass(capsys):
    rc, out, _ = run(
        capsys, "verify", "residues", "--p", "1.5", "--nu", "0.25", "--terms", "20000"
    )
    assert rc == 0
    assert "converging = True" in out
    assert "result: PASS" in out


def test_verify_ratio_pass(capsys):
    rc, out, _ = run(capsys, "verify", "ratio", "--p", "5", "--nu", "0", "--k", "3")
    assert rc == 0
    assert "result: PASS" in out


def test_verify_ratio_fail_tiny_tol(capsys):
    rc, out, _ = run(
        capsys, "verify", "ratio", "--p", "5", "--nu", "0", "--k", "3", "--tol", "1e-300"
    )
    assert rc == 1


def test_zeta_exact_strings(capsys):
    assert run(capsys, "zeta", "--p", "6")[1] == (
        "zeta(12) = 691 * pi^12 / (3^6 * 5^3 * 7^2 * 11 * 13)\n"
    )
    assert run(capsys, "zeta", "--p", "1")[1] == "zeta(2) = pi^2 / (2 * 3)\n"
    assert run(capsys, "zeta", "--p", "7")[1] == (
        "zeta(14) = 2 * pi^14 / (3^6 * 5^2 * 7 * 11 * 13)\n"
    )


def test_zeta_float_line(capsys):
    rc, out, _ = run(capsys, "zeta", "--p", "1", "--float", "--digits", "30")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "zeta(2) = pi^2 / (2 * 3)"
    assert lines[1] == "zeta(2) ~= 1.64493406684822643647241516665"


def test_zeta_digits_out_of_range_is_usage_error(capsys):
    for digits in ("60", "0"):
        rc, out, err = run(capsys, "zeta", "--p", "3", "--float", "--digits", digits)
        assert rc == 2
        assert out == ""
        assert err == "error: digits must be in 1..45\n"
    rc, out, _ = run(capsys, "zeta", "--p", "1", "--float", "--digits", "45")
    assert rc == 0
    assert out.splitlines()[1] == "zeta(2) ~= 1.64493406684822643647241516664602518921894990"


def test_zeros_output(capsys):
    rc, out, _ = run(capsys, "zeros", "--nu", "0", "--count", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "2.404825557695773"
    assert lines[1] == "5.520078110286311"
    assert lines[2] == "8.653727912911013"


def test_zeros_digit_control(capsys):
    rc, out, _ = run(capsys, "zeros", "--nu", "0", "--count", "1", "--digits", "6")
    assert rc == 0
    assert out == "2.404826\n"
    rc, _, _ = run(capsys, "zeros", "--nu", "0", "--count", "1", "--digits", "18")
    assert rc == 2


def test_table_text(capsys):
    rc, out, _ = run(capsys, "table", "--pmax", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "sigma(1) = 1 / (2^2 (v+1))"
    assert lines[1] == "sigma(2) = 1 / (2^4 (v+1)^2 (v+2))"
    assert lines[2] == "sigma(3) = 1 / (2^5 (v+1)^3 (v+2) (v+3))"


def test_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--pmax", "3", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert [d["p"] for d in doc] == [1, 2, 3]
    for d in doc:
        p = d.pop("p")
        assert FactoredRationalFn.from_json_dict(d) == golden_frf(p)


def test_cache_roundtrip_and_extension(capsys, tmp_path):
    cache = tmp_path / "sigma.json"
    rc, _, _ = run(capsys, "derive", "--p", "3", "--cache", str(cache))
    assert rc == 0
    first = cache.read_bytes()
    doc = json.loads(first)
    assert doc["format_version"] == 1
    assert sorted(doc["entries"]) == ["1", "2", "3"]
    # reuse without change is byte-stable
    rc, _, _ = run(capsys, "derive", "--p", "3", "--cache", str(cache))
    assert rc == 0
    assert cache.read_bytes() == first
    # extension keeps the old entries verbatim
    rc, _, _ = run(capsys, "derive", "--p", "5", "--cache", str(cache))
    assert rc == 0
    doc5 = json.loads(cache.read_bytes())
    assert sorted(doc5["entries"]) == ["1", "2", "3", "4", "5"]
    for k, v in doc["entries"].items():
        assert doc5["entries"][k] == v


def test_cache_tamper_detected(capsys, tmp_path):
    cache = tmp_path / "sigma.json"
    run(capsys, "derive", "--p", "3", "--cache", str(cache))
    doc = json.loads(cache.read_text())
    doc["entries"]["2"]["numerator"] = ["7"]
    cache.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "derive", "--p", "2", "--cache", str(cache))
    assert rc == 4
    assert "cache error:" in err
    assert "differs from fresh derivation" in err


def test_cache_bad_format_version(capsys, tmp_path):
    cache = tmp_path / "sigma.json"
    cache.write_text(json.dumps({"format_version": 99, "entries": {}}))
    rc, _, err = run(capsys, "derive", "--p", "1", "--cache", str(cache))
    assert rc == 4
    assert "format_version" in err


def test_cache_noncontiguous_rejected(capsys, tmp_path):
    cache = tmp_path / "sigma.json"
    run(capsys, "derive", "--p", "2", "--cache", str(cache))
    doc = json.loads(cache.read_text())
    del doc["entries"]["1"]
    cache.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "derive", "--p", "2", "--cache", str(cache))
    assert rc == 4
    assert "contiguous" in err


def test_unknown_arguments_are_usage_errors(capsys):
    assert run(capsys, "derive", "--p", "1", "--bogus")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rayleigh_sums", "derive", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 / (2^2 (v+1))\n"
