"""The benchmark's calls into luinv still run and pass its gate.

Imports ``bench/worker.py`` and runs each workload once in-process at the
tiny size, so a change that breaks a function, name or return type the
benchmark uses fails here rather than only in ``bench/smoke.py``.  The
two in-process checks of ``bench/smoke.py`` run here too: its gate must
trip when the names it mocks in ``luinv.cli`` return corrupted results,
and its tracer must list the names it cannot wrap.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))
import smoke  # noqa: E402  (bench/ is not a package)
import worker  # noqa: E402


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_workload_passes_its_gate_at_tiny_size(workload):
    size = worker.SIZES["tiny"]
    inputs = worker.prepare(workload, 7, size)
    outcome = worker.run_workload(workload, size, inputs, None)
    assert outcome.attempted >= 1
    assert outcome.failed == 0, outcome.failures


def test_gate_trips_on_corrupted_results():
    smoke.test_gate_trips_on_corrupted_results()


def test_tracer_lists_names_it_cannot_wrap():
    smoke.test_tracer_lists_names_it_cannot_wrap()
