"""Smoke test of the benchmark itself, at tiny sizes (degree 4, 2 states).

    python3 bench/smoke.py        (from the checkout root; about a minute)

Checks that every workload prints every metric of ``BENCHMARK.json`` with
its unit in both modes, that the gate trips on deliberately corrupted
results, that the tracer lists a name it cannot wrap instead of crashing,
and that the benchmark refuses a directory with no luinv to run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import luinv  # noqa: E402
import luinv.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = worker.SIZES["tiny"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_every_metric_prints_with_its_unit() -> None:
    for workload in run.WORKLOADS:
        for trace, group in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            *lines, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in group]
            for metric in group:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"] and isinstance(got["value"], float)
                assert any(line.split()[:1] == [metric["name"]] and f" {metric['unit']}" in line
                           for line in lines), metric["name"]
            for name in ("ops_failed_ratio", "exact_states_per_s", "float_states_per_s"):
                assert any(line.split()[:1] == [name] for line in lines), name
            assert any(line.startswith("machine ") for line in lines)


def _failed(workload: str, inputs=None) -> int:
    return worker.run_workload(workload, TINY, inputs, None).failed


def test_gate_trips_on_corrupted_results() -> None:
    assert _failed("series-d22") == 0

    def off_by_one(max_degree, **kwargs):
        coeffs = luinv.poincare_coefficients(max_degree, **kwargs)
        return coeffs[:-1] + [coeffs[-1] + 1]

    with mock.patch.object(luinv.cli, "poincare_coefficients", off_by_one):
        assert _failed("series-d22") == 1

    def bent_quadrature(max_degree, grid_size=None):
        return [v + 0.5 for v in luinv.quadrature_coefficients(max_degree, grid_size)]

    with mock.patch.object(luinv.cli, "quadrature_coefficients", bent_quadrature):
        assert _failed("crosscheck-d15") == 1

    def bumped_table(max_degree, **kwargs):
        table = luinv.poincare_multigraded(max_degree, **kwargs)
        entries = dict(table.entries)
        entries[(0, 0, 2)] += 1
        return dataclasses.replace(table, entries=entries)

    with mock.patch.object(luinv.cli, "poincare_multigraded", bumped_table):
        assert _failed("crosscheck-d15") == 1

    inputs = worker.prepare("invariants-mixed", 7, TINY)
    assert _failed("invariants-mixed", inputs) == 0
    basis_form = luinv.eval_basis_form

    def shifted_basis_form(dec):
        vec = basis_form(dec)
        return dataclasses.replace(vec, i1=vec.i1 + 1)

    with mock.patch.object(luinv, "eval_basis_form", shifted_basis_form):
        assert _failed("invariants-mixed", inputs) == len(inputs[0])

    battery = luinv.invariance_battery

    def failing_battery(trials, seed, tolerance):
        return dataclasses.replace(battery(trials, seed, tolerance), passed=False)

    with mock.patch.object(luinv, "invariance_battery", failing_battery):
        assert _failed("invariants-mixed", inputs) == 1


def test_tracer_lists_names_it_cannot_wrap() -> None:
    tracer = Tracer()
    tracer.install((
        ("gone.method", "luinv.molien", "NoSuchClass.character", None, None),
        ("gone.module", "luinv.no_such_module", "anything", None, None),
    ))
    assert tracer.missing == ["luinv.molien.NoSuchClass.character", "luinv.no_such_module.anything"]


def test_refuses_a_directory_without_luinv() -> None:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("series-d22", 0, cwd=bare, script=bare / "bench" / "run.py")
    (ROOT / ".bench_work").rmdir()
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
