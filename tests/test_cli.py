"""Command-line interface: contracts, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luinv import cli, molien, reference
from luinv.molien import quadrature_grid
from luinv.states import random_state

from conftest import coprime_denominators_payload, state_to_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, rho):
    path = tmp_path / name
    path.write_text(state_to_json(rho))
    return str(path)


def assert_advised_degree_runs(capsys, subcommand, degree, budget):
    """Over budget: exit 2 with an advisory degree that runs in that budget."""
    args = ("--memory-budget", str(budget), "--format", "json")
    code, _, err = run_cli(capsys, subcommand, "--max-degree", str(degree), *args)
    assert code == 2
    match = re.search(r"feasible max degree is (\d+)", err)
    assert match, err
    advised = match.group(1)
    code, out, _ = run_cli(capsys, subcommand, "--max-degree", advised, *args)
    assert code == 0 and json.loads(out)["schema"]
    code, _, _ = run_cli(
        capsys, subcommand, "--max-degree", str(int(advised) + 1), *args
    )
    assert code == 2


def pure_product_file(tmp_path):
    matrix = [
        [["1" if i == j == 0 else "0", "0"] for j in range(6)] for i in range(6)
    ]
    payload = {"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}
    path = tmp_path / "pure.json"
    path.write_text(json.dumps(payload))
    return str(path)


def float_state_payload(entry):
    """A valid float state file payload with entry (0, 1) replaced."""
    matrix = [[[1 / 6 if i == j else 0, 0] for j in range(6)] for i in range(6)]
    matrix[0][1] = entry
    return {"schema": "luinv.state.v1", "scalar": "float", "matrix": matrix}


class TestSeries:
    def test_plain_low_degrees(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--max-degree", "4")
        assert code == 0
        assert out == "1 0 3 4 15\n"

    def test_degree_zero(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--max-degree", "0")
        assert code == 0 and out == "1\n"

    def test_json_coefficient_14(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--max-degree", "14", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "luinv.series.v1"
        assert payload["coefficients"][14] == 57990

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--max-degree", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["degree,coefficient", "0,1", "1,0", "2,3"]

    def test_memory_budget_exit_2_with_advisory(self, capsys):
        assert_advised_degree_runs(capsys, "series", 19, 20000)

    def test_huge_degree_over_default_budget_exit_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "series", "--max-degree", "10000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "feasible max degree is 985" in err

    def test_huge_degree_and_budget_exit_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "series", "--max-degree", str(10**12), "--memory-budget", str(10**30)
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "feasible max degree is" in err and "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["series", "verify", "multigraded"])
    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_nonpositive_memory_budget_rejected(self, capsys, subcommand, budget):
        with pytest.raises(SystemExit) as exc:
            cli.main([subcommand, "--max-degree", "3", "--memory-budget", budget])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--memory-budget" in err and "Traceback" not in err


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-degree", "8")
        assert code == 0
        assert "all checks passed" in out

    def test_degree_zero_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-degree", "0")
        assert code == 0
        assert "series_head: pass" in out
        assert "all checks passed" in out

    def test_with_quadrature(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-degree", "6", "--with-quadrature"
        )
        assert code == 0
        assert "quadrature_match: pass" in out

    def test_quadrature_past_degree_15(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-degree", "16", "--with-quadrature", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0 and payload["passed"]
        quad = payload["quadrature"]
        assert quad["passed"] and quad["max_residual"] == quad["tolerance"] == 0
        assert quad["prime"] == quadrature_grid(16)[1]

    @pytest.mark.long
    def test_quadrature_at_degree_110_within_a_minute(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "verify", "--max-degree", "110", "--with-quadrature", "--format", "json"
        )
        elapsed = time.perf_counter() - start
        payload = json.loads(out)
        assert code == 0 and payload["checks"]["quadrature_match"]
        assert payload["quadrature"]["max_residual"] == 0
        assert elapsed < 60, elapsed

    def test_quadrature_over_memory_budget_exit_2(self, capsys):
        # the engine alone fits degree 896 in 1 GiB; the quadrature, run first, refuses
        # it before the engine's minute of work
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--max-degree", "896", "--with-quadrature")
        elapsed = time.perf_counter() - start
        assert code == 2 and out == ""
        assert "quadrature at max degree 896" in err and "feasible max degree is 895" in err
        assert "Traceback" not in err
        assert elapsed < 5, elapsed

    def test_refused_allocation_exit_2(self, capsys):
        # within the budget, but numpy refuses the engine's 32 PiB grid at once: M = 2^26
        code, out, err = run_cli(
            capsys, "verify", "--max-degree", str(2**26 - 3), "--memory-budget", str(10**30)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_no_quadrature_prime_exit_2(self, capsys):
        # M = 2^31: no p < 2^31 is 1 mod M, and the quadrature says so before the engine runs
        code, out, err = run_cli(
            capsys, "verify", "--max-degree", str(2**31 - 3), "--with-quadrature",
            "--memory-budget", str(10**60),
        )
        assert code == 2 and out == ""
        assert err == "error: no prime below 2^31 is 1 mod the grid size 2147483648\n"

    def test_huge_degree_with_quadrature_exit_2_quickly(self, capsys):
        # the quadrature's prime search is refused before it factors M = 10^18 + 3
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--max-degree", str(10**18), "--with-quadrature")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: no prime below 2^31 is 1 mod the grid size {10**18 + 3}\n"

    def test_quadrature_memory_budget_advisory_degree_runs(self, capsys):
        args = ("--with-quadrature", "--memory-budget", "2000000", "--format", "json")
        code, _, err = run_cli(capsys, "verify", "--max-degree", "40", *args)
        assert code == 2 and "quadrature" in err
        assert "feasible max degree is 36" in err
        code, out, _ = run_cli(capsys, "verify", "--max-degree", "36", *args)
        assert code == 0 and json.loads(out)["checks"]["quadrature_match"]

    def test_grid_size_is_a_usage_error(self, capsys):
        # the quadrature's grid is always max-degree + 3
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--max-degree", "3", "--with-quadrature", "--grid-size", "6"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --grid-size 6" in captured.err

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-degree", "6", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0 and payload["passed"]
        assert payload["schema"] == "luinv.report.v1"
        assert payload["degree_gap"] == 35
        assert len(payload["hsop_degrees"]) == 24
        assert payload["first_mismatch"] is None
        assert payload["checks"]["series_head"] is True

    def test_corrupted_fixture_names_degree(self, capsys, monkeypatch):
        tampered = list(reference.NUMERATOR)
        tampered[5] += 1
        monkeypatch.setattr(reference, "NUMERATOR", tuple(tampered))
        code, out, _ = run_cli(capsys, "verify", "--max-degree", "8")
        assert code == 1
        assert "first mismatch at degree 5" in out
        assert "verification FAILED" in out

    def test_quadrature_mismatch_exit_1(self, capsys, monkeypatch):
        def shifted(max_degree, memory_budget=None):
            exact = molien.quadrature_coefficients(max_degree, memory_budget)
            return [a + 0.5 for a in exact]

        monkeypatch.setattr(cli, "quadrature_coefficients", shifted)
        argv = ("verify", "--max-degree", "6", "--with-quadrature")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert "quadrature_match: FAIL" in out and "verification FAILED" in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert payload["quadrature"]["passed"] is False

    def test_quadrature_catches_an_error_mod_the_engines_primes(self, capsys, monkeypatch):
        # c + q agrees with c mod q: had the quadrature's prime been the engine's
        # first CRT prime q, the lift's error would pass it
        q = molien._crt_primes(len(molien.WEIGHTS), 15)[0][0]

        def shifted(max_degree, **kw):
            return [c + q for c in molien.poincare_coefficients(max_degree, **kw)]

        monkeypatch.setattr(cli, "poincare_coefficients", shifted)
        argv = ("verify", "--max-degree", "15", "--with-quadrature", "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out)["checks"]["quadrature_match"] is False

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-degree", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check,result"
        assert "theorem_match,pass" in lines
        assert "series_head,pass" in lines


class TestInvariants:
    def test_pure_product_plain(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "invariants", "--state", pure_product_file(tmp_path)
        )
        assert code == 0
        assert out.strip() == "-1/36 1/6 1/3 1/108 0 1/18 1/18"

    def test_maximally_mixed_all_zero(self, capsys, tmp_path):
        matrix = [
            [["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)
        ]
        payload = {"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 0
        assert out.strip() == "0 0 0 0 0 0 0"

    def test_json_values_are_fraction_strings(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "invariants",
            "--state",
            pure_product_file(tmp_path),
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "luinv.invariants.v1"
        assert payload["scalar"] == "rational"
        assert payload["values"]["i1"] == "-1/36"

    def test_random_exact_deterministic(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "invariants", "--random", "--seed", "11")
        code_b, out_b, _ = run_cli(capsys, "invariants", "--random", "--seed", "11")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_random_float_path(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "invariants",
            "--random",
            "--seed",
            "3",
            "--scalar",
            "float",
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["scalar"] == "float"
        assert all(isinstance(v, float) for v in payload["values"].values())

    def test_float_file_on_exact_path_rejected(self, capsys, tmp_path):
        path = write_state(tmp_path, "f.json", random_state(0, "psd_float"))
        code, _, err = run_cli(
            capsys, "invariants", "--state", path, "--scalar", "exact"
        )
        assert code == 2
        assert "exact" in err

    def test_exact_file_demoted_to_float(self, capsys, tmp_path):
        path = write_state(tmp_path, "r.json", random_state(0, "rational"))
        code, out, _ = run_cli(
            capsys, "invariants", "--state", path, "--scalar", "float", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["scalar"] == "float"

    def test_wide_state_evaluates_on_both_routes(self, capsys, tmp_path):
        # in floats the trace is 1 + 2.9e-12: rounding at the scale of the entries
        diagonal = ["100000.1", "-100000.3", "0.2", "0.5", "0.3", "0.2"]
        matrix = [[[diagonal[i] if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}))
        values = {}
        for scalar in ("exact", "float"):
            code, out, err = run_cli(
                capsys, "invariants", "--state", str(path), "--scalar", scalar, "--format", "json"
            )
            assert code == 0, err
            values[scalar] = json.loads(out)["values"]
        exact = {name: Fraction(v) for name, v in values["exact"].items()}
        scale = max(abs(v) for v in exact.values())
        assert scale > 1e9
        for name, v in exact.items():
            assert abs(values["float"][name] - v) <= 1e-9 * scale, name

    def test_bad_trace_exit_2(self, capsys, tmp_path):
        matrix = [[["1" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        payload = {"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2 and "trace" in err

    def test_unknown_scalar_exit_2(self, capsys, tmp_path):
        matrix = [[["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        payload = {"schema": "luinv.state.v1", "scalar": "complex", "matrix": matrix}
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2 and out == ""
        assert "scalar must be 'rational' or 'float'" in err

    def test_null_float_entry_exit_2(self, capsys, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps(float_state_payload([None, 0])))
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2 and out == ""
        assert "bad float entry (0, 1)" in err and "Traceback" not in err

    @pytest.mark.parametrize("scalar", ["rational", "float"])
    def test_boolean_entry_exit_2_on_both_routes(self, capsys, tmp_path, scalar):
        # float() would read true and false as 1.0 and 0.0
        sixth, zero = ("1/6", "0") if scalar == "rational" else (1 / 6, 0)
        matrix = [[[sixth if i == j else zero, zero] for j in range(6)] for i in range(6)]
        matrix[0][1] = matrix[1][0] = [True, False]
        path = tmp_path / "bool.json"
        path.write_text(
            json.dumps({"schema": "luinv.state.v1", "scalar": scalar, "matrix": matrix})
        )
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and f"bad {scalar} entry (0, 1)" in err

    def test_string_float_part_exit_2(self, capsys, tmp_path):
        # float() would read "0.01" and "1e-2" as numbers
        payload = float_state_payload(["0.01", "0"])
        payload["matrix"][1][0] = ["1e-2", "0"]
        path = tmp_path / "string.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2 and out == ""
        assert err == "error: bad float entry (0, 1) ['0.01', '0']: a string is not a number\n"

    def test_deeply_nested_state_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: state file is not valid JSON")

    @pytest.mark.parametrize("part", [float("nan"), float("inf")])
    def test_non_finite_float_entry_exit_2(self, capsys, tmp_path, part):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(float_state_payload([part, 0])))  # NaN / Infinity literals
        code, _, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2
        assert "non-finite float entry" in err and "hermitian" not in err

    def test_overflowing_float_state_exit_2(self, capsys, tmp_path):
        payload = float_state_payload([1e200, 0])
        payload["matrix"][1][0] = [1e200, 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "invariants", "--state", str(path), "--format", "json"
        )
        assert code == 2 and out == ""
        assert "not finite" in err and "Traceback" not in err
        # numpy's overflow warnings stay silent: the error line is all there is
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_huge_rational_exponent_exit_2_quickly(self, capsys, tmp_path):
        matrix = [[["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        matrix[2][5] = ["1e10000000", "0"]
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix})
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "bad rational entry (2, 5)" in err and "Traceback" not in err

    def test_huge_common_denominator_exit_2_quickly(self, capsys, tmp_path):
        # 30 off-diagonal parts, each within the digit limit, with coprime
        # denominators of 3900 digits: about 117k digits in common
        matrix = [[["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        dens = iter(10**3899 + k for k in range(1, 31))
        for i in range(6):
            for j in range(i + 1, 6):
                re_den, im_den = next(dens), next(dens)
                matrix[i][j] = [f"1/{re_den}", f"1/{im_den}"]
                matrix[j][i] = [f"1/{re_den}", f"-1/{im_den}"]
        path = tmp_path / "coprime.json"
        path.write_text(
            json.dumps({"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix})
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "common denominator" in err and "8600 digits" in err

    def test_huge_common_denominator_runs_in_floats(self, capsys, tmp_path):
        # the cap guards exact arithmetic only: as floats the state is the maximally mixed one
        path = tmp_path / "coprime.json"
        path.write_text(json.dumps(coprime_denominators_payload(3900, 30)))
        code, out, err = run_cli(
            capsys, "invariants", "--state", str(path), "--scalar", "float", "--format", "json"
        )
        assert code == 0 and err == ""
        values = json.loads(out)["values"]
        assert len(values) == 7 and all(math.isfinite(v) for v in values.values())

    @pytest.mark.parametrize(
        "scalar, entry, message",
        [
            ("rational", ["1" * 4301, "1" * 4301], "bad rational entry (2, 5)"),
            ("rational", ["1" * 5000], "entry (2, 5) must be an [re, im] pair"),
            ("float", ["x" * 5000, 0], "bad float entry (2, 5)"),
        ],
    )
    def test_long_entry_echo_is_cut(self, capsys, tmp_path, scalar, entry, message):
        sixth, zero = ("1/6", "0") if scalar == "rational" else (1 / 6, 0)
        matrix = [[[sixth if i == j else zero, zero] for j in range(6)] for i in range(6)]
        matrix[2][5] = entry
        path = tmp_path / "long.json"
        path.write_text(
            json.dumps({"schema": "luinv.state.v1", "scalar": scalar, "matrix": matrix})
        )
        code, out, err = run_cli(capsys, "invariants", "--state", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert len(err.encode()) < 300 and message in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--state", "/nonexistent.json")
        assert code == 2 and "state file" in err

    def test_battery_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", "--battery", "--trials", "10", "--seed", "7"
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_battery_does_not_import_numpy_random(self):
        # a fresh process: importing numpy.random alone takes about 12 ms and 5 MB;
        # the random float state and the battery both draw from random.Random
        script = (
            "import contextlib, io, sys\n"
            "import luinv, luinv.cli\n"
            "print('numpy.random' in sys.modules)\n"
            "for mode in (['--random', '--scalar', 'float'], ['--battery', '--trials', '5']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = luinv.cli.main(['invariants', *mode, '--seed', '7'])\n"
            "    print(code, 'numpy.random' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.split() == ["False", "0", "False", "0", "False"], result.stderr

    def test_battery_json_deterministic(self, capsys):
        args = (
            "invariants", "--battery", "--trials", "5", "--seed", "21",
            "--format", "json",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert payload["schema"] == "luinv.battery.v1"
        assert payload["passed"] is True

    def test_pure_product_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "invariants", "--state", pure_product_file(tmp_path), "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "invariant,value", "i1,-1/36", "i2,1/6", "i3,1/3", "i4,1/108",
            "i5,0", "i6,1/18", "i7,1/18",
        ]

    def test_random_exact_seed_7_plain(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--random", "--seed", "7")
        assert code == 0
        assert out == (
            "-297/357604 355/41262 10079/89401 -7081/222072084 238557/26730899 "
            "15881/53461798 201767/160385394\n"
        )

    def test_random_exact_seed_7_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", "--random", "--seed", "7", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "invariant,value", "i1,-297/357604", "i2,355/41262", "i3,10079/89401",
            "i4,-7081/222072084", "i5,238557/26730899", "i6,15881/53461798",
            "i7,201767/160385394",
        ]

    def test_random_float_csv_matches_json(self, capsys):
        args = ("invariants", "--random", "--seed", "7", "--scalar", "float")
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert header == ["invariant", "value"]
        assert [name for name, _ in rows] == ["i1", "i2", "i3", "i4", "i5", "i6", "i7"]
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        values = json.loads(out)["values"]
        assert dict(rows) == {name: str(v) for name, v in values.items()}

    def test_battery_csv_matches_json(self, capsys):
        args = ("invariants", "--battery", "--trials", "5", "--seed", "21")
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert header == ["field", "value"]
        assert [name for name, _ in rows] == [
            "trials", "tolerance", "max_deviation", "worst_component", "worst_trial", "passed",
        ]
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(out)
        assert dict(rows) == {name: str(payload[name]) for name, _ in rows}

    def test_battery_with_exact_scalar_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "invariants", "--battery", "--seed", "1", "--scalar", "exact"
        )
        assert code == 2 and out == ""
        assert err == "error: --battery runs in floats only; drop --scalar exact\n"

    def test_source_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["invariants"])
        assert exc.value.code == 2

    def test_battery_without_trials_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "--battery", "--trials", "0", "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: need at least one trial\n"

    def test_seed_required_for_random(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "--random")
        assert code == 2 and out == ""
        assert err == "error: randomized modes require --seed\n"

    def test_seed_required_for_battery(self, capsys):
        code, out, err = run_cli(capsys, "invariants", "--battery")
        assert code == 2 and out == ""
        assert err == "error: randomized modes require --seed\n"

    @pytest.mark.parametrize("argv", [["--random"], ["--battery", "--seed", "1", "--scalar", "exact"]])
    def test_randomized_mode_errors_are_one_line_without_the_root_usage(self, argv):
        # a separate process, as a user runs it: the exit code, both streams, no traceback
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "luinv.cli", "invariants", *argv],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 2 and result.stdout == ""
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr and "usage: luinv [-h]" not in result.stderr

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    @pytest.mark.parametrize(
        "mode",
        [
            ["--battery"],
            ["--random", "--scalar", "float"],
            ["--random", "--scalar", "exact"],
            ["--random"],
        ],
    )
    def test_bad_seed_is_a_usage_error_naming_the_option(self, capsys, mode, seed):
        with pytest.raises(SystemExit) as exc:
            cli.main(["invariants", *mode, "--seed", seed])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --seed: must be an integer >= 0" in captured.err
        assert "Traceback" not in captured.err

    def test_seed_zero_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--random", "--seed", "0")
        assert code == 0 and len(out.split()) == 7


class TestMultigraded:
    def test_degree_zero(self, capsys):
        code, out, _ = run_cli(capsys, "multigraded", "--max-degree", "0")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "0 0 0 1"
        assert "row sums consistent with series: yes" in lines[1]

    def test_degree_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "multigraded", "--max-degree", "2")
        assert code == 0
        rows = [l for l in out.splitlines() if l[:1].isdigit()]
        assert "2 0 0 1" in rows and "0 2 0 1" in rows and "0 0 2 1" in rows

    def test_row_sums_at_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "multigraded", "--max-degree", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "luinv.multigraded.v1"
        assert payload["row_sums"] == [1, 0, 3, 4]
        assert payload["row_sums_match"] is True

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "multigraded", "--max-degree", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "d1,d2,d3,dimension"

    def test_note_present_in_plain(self, capsys):
        _, out, _ = run_cli(capsys, "multigraded", "--max-degree", "0")
        assert "note:" in out

    def test_memory_budget_exit_2_with_advisory(self, capsys):
        assert_advised_degree_runs(capsys, "multigraded", 12, 20000)

    def test_huge_degree_over_default_budget_exit_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "multigraded", "--max-degree", "10000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "feasible max degree is 175\n" in err

    def test_row_sum_mismatch_exit_1(self, capsys, monkeypatch):
        def bumped(max_total_degree, **kw):
            table = molien.poincare_multigraded(max_total_degree, **kw)
            table.entries[(0, 2, 0)] += 1
            return table

        monkeypatch.setattr(cli, "poincare_multigraded", bumped)
        code, out, _ = run_cli(capsys, "multigraded", "--max-degree", "3")
        assert code == 1
        assert "row sums consistent with series: NO" in out
        code, out, _ = run_cli(capsys, "multigraded", "--max-degree", "3", "--format", "json")
        assert code == 1 and json.loads(out)["row_sums_match"] is False


    def test_row_sums_checked_against_the_closed_form(self, capsys, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("multigraded must not run the single-graded engine")

        monkeypatch.setattr(cli, "poincare_coefficients", engine)
        code, out, _ = run_cli(capsys, "multigraded", "--max-degree", "6", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["row_sums_match"] is True
        assert payload["row_sums"] == list(reference.TAYLOR_COEFFS[:7])


class TestDeterminism:
    def test_byte_identical_series_json(self, capsys):
        _, out_a, _ = run_cli(capsys, "series", "--max-degree", "8", "--format", "json")
        _, out_b, _ = run_cli(capsys, "series", "--max-degree", "8", "--format", "json")
        assert out_a == out_b

    def test_one_parser_serves_every_command_in_either_order(self, capsys, state_files):
        # the parser is built once per process, so no run may leave anything in it for the next
        commands = [
            ["series", "--max-degree", "6"],
            ["verify", "--max-degree", "8", "--with-quadrature", "--format", "json"],
            ["invariants", "--random", "--seed", "3", "--format", "csv"],
            ["invariants", "--state", state_files["rational"], "--scalar", "float"],
            ["invariants", "--battery", "--trials", "5", "--seed", "1"],
            ["multigraded", "--max-degree", "4"],
            ["verify", "-h"],
            ["series", "--max-degree", "x"],  # an argparse usage error
            ["invariants", "--random"],  # a randomized mode without --seed
        ]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # help and usage errors
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cli.build_parser.cache_clear()
        first = [run(argv) for argv in commands]
        assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0, 0, 2, 2]
        assert all(out or err for _, out, err in first)
        assert [run(argv) for argv in commands] == first
        assert [run(argv) for argv in commands[::-1]] == first[::-1]
        assert cli.build_parser.cache_info().misses == 1


ENGINE_OPTIONS = ["--max-degree MAX_DEGREE", "--memory-budget BYTES", "--format {plain,csv,json}"]

# usage block and option order of `luinv [sub] -h` at 80 columns
HELP = {
    (): (
        "usage: luinv [-h] {series,verify,invariants,multigraded} ...",
        ["-h, --help"],
    ),
    ("series",): (
        "usage: luinv series [-h] [--max-degree MAX_DEGREE] [--memory-budget BYTES]\n"
        "                    [--format {plain,csv,json}]",
        ["-h, --help", *ENGINE_OPTIONS],
    ),
    ("verify",): (
        "usage: luinv verify [-h] [--max-degree MAX_DEGREE] [--memory-budget BYTES]\n"
        "                    [--format {plain,csv,json}] [--with-quadrature]",
        ["-h, --help", *ENGINE_OPTIONS, "--with-quadrature"],
    ),
    ("invariants",): (
        "usage: luinv invariants [-h] [--format {plain,csv,json}]\n"
        "                        (--state FILE | --random | --battery)\n"
        "                        [--scalar {exact,float}] [--seed SEED]\n"
        "                        [--trials TRIALS]",
        [
            "-h, --help", "--format {plain,csv,json}", "--state FILE", "--random",
            "--battery", "--scalar {exact,float}", "--seed SEED", "--trials TRIALS",
        ],
    ),
    ("multigraded",): (
        "usage: luinv multigraded [-h] [--max-degree MAX_DEGREE]\n"
        "                         [--memory-budget BYTES] [--format {plain,csv,json}]",
        ["-h, --help", *ENGINE_OPTIONS],
    ),
}


class TestHelp:
    @pytest.mark.parametrize("sub", list(HELP), ids=lambda s: " ".join(s) or "root")
    def test_usage_and_option_order(self, capsys, monkeypatch, sub):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main([*sub, "-h"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        usage, options = HELP[sub]
        assert captured.out.split("\n\n")[0] == usage
        assert re.findall(r"^  (-\S+(?: \S+)*)", captured.out, re.MULTILINE) == options

    def test_root_lists_subcommands_in_order(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["-h"])
        out = capsys.readouterr().out
        assert re.findall(r"^    (\w+) +(.+)$", out, re.MULTILINE) == [
            ("series", "exact series coefficients"),
            ("verify", "check the closed form and identities"),
            ("invariants", "evaluate the seven invariants"),
            ("multigraded", "dimensions refined by multidegree"),
        ]


def _state_files(root):
    """Named state files, good and malformed, written under root."""
    good_rational = [[["1" if i == j == 0 else "0", "0"] for j in range(6)] for i in range(6)]
    texts = {
        "rational": {"schema": "luinv.state.v1", "scalar": "rational", "matrix": good_rational},
        "float": float_state_payload([0, 0]),
        "null_entry": float_state_payload([None, 0]),
        "nan_entry": float_state_payload([float("nan"), 0]),
        "string_entry": float_state_payload(["x", 0]),
        "list_entry": float_state_payload([[1], 0]),
        "short_entry": float_state_payload([0]),
        "not_hermitian": float_state_payload([1, 0]),
        "bad_rational": {"schema": "luinv.state.v1", "scalar": "rational",
                         "matrix": [[[None, "1/0"]] * 6] * 6},
        "wrong_schema": {"schema": "luinv.state.v0"},
        "bad_shape": {"schema": "luinv.state.v1", "scalar": "float", "matrix": [[0] * 6] * 6},
        "top_level_list": [1, 2, 3],
    }
    paths = {}
    for name, payload in texts.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    paths["garbage"] = root / "garbage.json"
    paths["garbage"].write_text("{nope")
    paths["not_utf8"] = root / "not_utf8.json"
    paths["not_utf8"].write_bytes(b"\xff\xfe\x00")
    paths["missing"] = root / "missing.json"
    paths["directory"] = root
    return {name: str(path) for name, path in paths.items()}


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    return _state_files(tmp_path_factory.mktemp("states"))


@st.composite
def cli_argv(draw, state_files):
    sub = draw(st.sampled_from(["series", "verify", "multigraded", "invariants"]))
    argv = [sub]
    if sub == "invariants":
        source = draw(st.sampled_from(["--state", "--random", "--battery", None]))
        if source == "--state":
            argv += ["--state", state_files[draw(st.sampled_from(sorted(state_files)))]]
        elif source is not None:
            argv.append(source)
        if source == "--battery":
            argv += ["--trials", str(draw(st.integers(-1, 3)))]
        scalar = draw(st.sampled_from([None, "exact", "float"]))
        if scalar is not None:
            argv += ["--scalar", scalar]
        seed = draw(st.one_of(st.none(), st.integers(-2, 2**40).map(str), st.just("x")))
        if seed is not None:
            argv += ["--seed", seed]
    else:
        argv += ["--max-degree", str(draw(st.integers(-2, 4)))]
        budget = draw(st.sampled_from([None, "-5", "0", "1", "777", "1e3", "abc", str(10**9)]))
        if budget is not None:
            argv += ["--memory-budget", budget]
        if sub == "verify" and draw(st.booleans()):
            argv.append("--with-quadrature")
    fmt = draw(st.sampled_from([None, "plain", "csv", "json"]))
    if fmt is not None:
        argv += ["--format", fmt]
    return argv


class TestContract:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--max-degree", "30"],
            ["verify", "--format", "json"],
            ["invariants", "--random", "--seed", "3"],
            ["series", "--help"],  # help is printed inside parse_args
            ["-h"],
        ],
    )
    def test_closed_stdout_is_a_resource_error(self, argv, buffered):
        # the read end of stdout is closed before the process starts, so its first write
        # fails, whether it goes out at once or at the last flush
        src = str(Path(cli.__file__).resolve().parents[1])
        # an empty PYTHONUNBUFFERED leaves stdout buffered
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "" if buffered else "1"}
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "luinv.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
            )
        finally:
            os.close(write)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr

    @settings(deadline=None)
    @given(data=st.data())
    def test_every_command_line_keeps_the_exit_contract(self, state_files, data):
        argv = data.draw(cli_argv(state_files))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if "json" in argv and code in (0, 1):
            payload = json.loads(out.getvalue())
            assert "schema" in payload
