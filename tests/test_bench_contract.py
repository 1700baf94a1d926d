"""The benchmark's calls into luinv still run and pass its gate.

Imports ``bench/worker.py`` and runs each workload once in-process at the
tiny size, so a change that breaks a function, name or return type the
benchmark uses fails here rather than only in ``bench/smoke.py``.  The
two in-process checks of ``bench/smoke.py`` run here too: its gate must
trip when the names it mocks in ``luinv.cli`` return corrupted results,
and its tracer must list the names it cannot wrap.  The tracer's list
of names it cannot wrap on today's luinv is pinned too, so that a
refactor which deletes another traced layer fails here instead of
quietly lowering the trace coverage.
"""

import sys
from pathlib import Path

import pytest

import luinv.cli  # noqa: F401  (loads every module the tracer wraps)

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))
import smoke  # noqa: E402  (bench/ is not a package)
import tracing  # noqa: E402
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


def test_tracer_misses_only_the_stale_spans():
    # layers deleted since the spans were written; the next benchmark
    # change retargets the spans and empties this list
    stale = [
        "luinv.molien.CharacterCache.character",
        "luinv.molien._ct_against_weyl",
        "luinv.laurent.LaurentPoly3.mul",
        "luinv.states.random_local_unitary",
    ]
    saved = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("luinv")}
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:  # unwrap every traced name for the tests that follow
        for name, names in saved.items():
            vars(sys.modules[name]).update(names)
    assert tracer.missing == stale
