"""luinv benchmark: run one workload in fresh worker processes and report.

    python3 bench/run.py --workload series-d22 --seed 1 --seconds 40 --trace 0

Run from a checkout root (the directory holding ``src/luinv`` and
``BENCHMARK.json``).  Each sample is one new worker process
(``bench/worker.py``) in a new empty working directory under
``.bench_work/``, with bytecode caching off and BLAS pinned to one thread,
so no in-process or on-disk cache carries from one sample to the next.
Samples run one at a time for ``--seconds`` (at least ``MIN_SAMPLES``; no
sample starts that would end past ``--seconds`` at the pace of the one
before); metrics are medians over samples.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics: layer figures come from the traced samples, the
tracing overhead is the difference of the two medians.  The last line of
stdout is one JSON object; the lines before it print every metric with
its unit, the gate's verdict and the machine's facts.  The exit code is
0 when every checked operation was correct, 1 when the gate tripped or a
worker failed, 2 when the checkout has no luinv to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.dont_write_bytecode = True  # workers must not find cached bytecode in the checkout
from worker import SIZES, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_SAMPLES = 3
WORKER_TIMEOUT_S = 150.0
#: No new sample starts once a run is this old; keeps a run under 180 s.
RUN_BUDGET_S = 120.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def machine_facts() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        load = round(os.getloadavg()[0], 2)
    except OSError:
        load = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "loadavg_start": load}


def run_worker(workload: str, seed: int, traced: bool, size: str, work_root: Path) -> dict:
    """One sample: spawn a worker in a fresh directory; its result plus setup_s."""
    workdir = Path(tempfile.mkdtemp(prefix="w", dir=work_root))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               TMPDIR=str(workdir))
    env.update({name: "1" for name in THREAD_PINS})
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--size", size]
    try:
        with open(workdir / "stderr.txt", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                rest = proc.stdout.read()
                code = proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
                proc.stdout.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in rest.splitlines() if line.startswith("result ")]
    if ready.strip() != "ready" or code != 0 or len(lines) != 1:
        raise WorkerError(f"worker for {workload} exited {code}:\n{stderr[-2000:]}")
    result = json.loads(lines[0][len("result "):])
    result["setup_s"] = setup_s
    return result


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def rate(samples: List[dict], count: str, seconds: str) -> List[float]:
    return [s["facts"][count] / s["facts"][seconds] for s in samples
            if s["facts"].get(seconds)]


def end_to_end(samples: List[dict]) -> Dict[str, List[float]]:
    return {
        "setup_s": [s["setup_s"] for s in samples],
        "wall_s": [s["wall_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "exact_states_per_s": rate(samples, "exact_states", "exact_s"),
        "float_states_per_s": rate(samples, "float_states", "float_s"),
    }


def per_layer(names: List[str], traced: List[dict], untraced: List[dict]) -> Dict[str, List[float]]:
    """Per-layer values by metric name, one value per traced sample."""

    def layer_value(trace: dict, name: str) -> float:
        key, _, field = name.rpartition(".")
        if field == "s":
            return trace["self_s"].get(key, 0.0)
        return trace["counts"].get(name, 0.0)

    out = {name: [layer_value(t["trace"], name) for t in traced] for name in names}
    out["cli.self_s"] = [t["trace"]["self_s"].get("cli.main", 0.0) for t in traced]
    out["import.s"] = [s["import_s"] for s in traced + untraced]
    out["trace.coverage"] = [t["trace"]["coverage"] for t in traced]
    out["trace.overhead_s"] = [median([t["wall_s"] for t in traced])
                               - median([u["wall_s"] for u in untraced])]
    out["trace.missing_spans"] = [float(len(t["trace"]["missing"])) for t in traced]
    out["molien.quadrature.max_residual"] = [
        t["facts"]["quadrature_max_residual"] for t in traced if "quadrature_max_residual" in t["facts"]
    ]
    rates = end_to_end(untraced)
    out["exact_states_per_s"] = rates["exact_states_per_s"]
    out["float_states_per_s"] = rates["float_states_per_s"]
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny: degree 4 and 2 states, for the smoke test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "luinv" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/luinv package and BENCHMARK.json to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    machine = machine_facts()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="run", dir=ROOT / ".bench_work"))
    untraced: List[dict] = []
    traced: List[dict] = []
    start = last = time.perf_counter()
    try:
        while True:
            now = time.perf_counter()
            # Start no sample that would, at the last sample's duration, end past --seconds.
            finishes = now + (now - last) - start
            last = now
            enough = len(untraced) >= MIN_SAMPLES and (not args.trace or len(traced) >= MIN_SAMPLES)
            if (enough and finishes > args.seconds) or (untraced and now - start >= RUN_BUDGET_S):
                break
            trace_turn = bool(args.trace) and len(traced) < len(untraced)
            sample = run_worker(args.workload, args.seed, trace_turn, args.size, work_root)
            (traced if trace_turn else untraced).append(sample)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run or the smoke test still uses it
            pass

    samples = untraced + traced
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    machine["numpy"] = samples[0]["numpy"]
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(untraced)} untraced and {len(traced)} traced worker processes")
    print("machine " + json.dumps(machine))
    all_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, values in end_to_end(untraced).items():
        shown = f"{median(values):.6g}" if values else "n/a (no such route in this workload)"
        print(f"  {name:<34} {shown} {all_units[name]}  ({spread(values)})")
    print(f"  {'ops_failed_ratio':<34} {failed / attempted:.6g} ratio  "
          f"({failed} failed of {attempted} checked operations)")
    for failure in sorted({f for s in samples for f in s["failures"]}):
        print(f"  GATE FAILED: {failure}")

    if args.trace:
        values = per_layer(list(units), traced, untraced)
        missing = sorted({m for t in traced for m in t["trace"]["missing"]})
        if missing:
            print("  spans not installed (name not found): " + ", ".join(missing))
    else:
        values = end_to_end(untraced)
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": median(values[name]), "unit": unit}
        if args.trace:
            print(f"  {name:<34} {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
