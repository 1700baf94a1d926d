"""One benchmark worker: a fresh process that runs one workload once.

Protocol on stdout: the line ``ready`` once luinv is imported and the
inputs are built (the parent times spawn-to-ready as ``setup_s``), then
one line ``result <json>`` with the timings, the gate's verdicts and,
when traced, the per-layer summary.  Output of the luinv CLI is captured
in memory and never reaches stdout.

Run by ``bench/run.py``; by hand:
    PYTHONPATH=src python3 bench/worker.py --workload series-d22 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from tracing import Tracer, maybe_span

# --- the gate's reference data ---------------------------------------------
# Copied from the paper's tables, so the gate does not read the package it checks.

#: Coefficients of t^0 .. t^22 of the numerator N of P(t) = N(t) / D(t).
NUMERATOR_PREFIX = (
    1, 1, 0, -2, 2, 13, 50, 102, 216, 422,
    874, 1691, 3305, 6037, 10779, 18312, 30318, 48209, 74858, 112294,
    164391, 233394, 323332,
)
#: D = (1 + t) * prod (1 - t^e)^m over these (e, m).
DENOMINATOR_FACTORS = ((2, 3), (3, 6), (4, 5), (5, 4), (6, 3), (7, 2), (8, 1))
#: The tabulated series prefix, degrees 0 .. 19.
TAYLOR_PREFIX = (
    1, 0, 3, 4, 15, 25, 90, 170, 489, 1059,
    2600, 5641, 12872, 27099, 57990, 118254, 240187, 472273, 919432, 1745295,
)

BATTERY_TOLERANCE = 1e-9

WORKLOADS = ("series-d22", "crosscheck-d15", "invariants-mixed")

#: Workload sizes; "tiny" is what the smoke test runs.
SIZES = {
    "full": {"series": 22, "verify": 15, "multigraded": 12, "states": 20, "trials": 300},
    "tiny": {"series": 4, "verify": 4, "multigraded": 4, "states": 2, "trials": 4},
}


def closed_form_series(max_degree: int) -> List[int]:
    """Taylor coefficients of N/D through max_degree, in plain integers."""
    if max_degree >= len(NUMERATOR_PREFIX):
        raise ValueError(f"reference numerator is tabulated through t^{len(NUMERATOR_PREFIX) - 1}")
    n = max_degree + 1
    den = [1, 1] + [0] * n
    for e, m in DENOMINATOR_FACTORS:
        for _ in range(m):
            den = [den[k] - (den[k - e] if k >= e else 0) for k in range(len(den))]
    out: List[int] = []
    for k in range(n):
        acc = NUMERATOR_PREFIX[k] - sum(den[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc)  # den[0] == 1, so the division is exact
    return out


# --- gate ------------------------------------------------------------------
# Each check returns the list of problems with one checked operation; an
# empty list means the operation is correct.


def check_series_report(code: int, payload: dict, max_degree: int) -> List[str]:
    problems = []
    coeffs = payload.get("coefficients")
    if code != 0:
        problems.append(f"verify exited {code}")
    if not payload.get("passed"):
        problems.append("verify did not report passed")
    failed = sorted(k for k, ok in payload.get("checks", {}).items() if not ok)
    if failed:
        problems.append(f"verify checks failed: {failed}")
    if coeffs != closed_form_series(max_degree):
        problems.append("coefficients differ from the expansion of the closed form")
    prefix = min(len(TAYLOR_PREFIX), max_degree + 1)
    if not coeffs or list(coeffs[:prefix]) != list(TAYLOR_PREFIX[:prefix]):
        problems.append("coefficients differ from the tabulated series prefix")
    return problems


def check_quadrature(payload: dict) -> List[str]:
    quad = payload.get("quadrature") or {}
    if payload.get("checks", {}).get("quadrature_match") is not True or not quad.get("passed"):
        return ["quadrature_match does not hold"]
    return []


def check_multigraded(code: int, payload: dict, max_degree: int) -> List[str]:
    problems = []
    if code != 0:
        problems.append(f"multigraded exited {code}")
    sums = [0] * (max_degree + 1)
    for entry in payload.get("entries", []):
        total = sum(entry["degrees"])
        if total <= max_degree:
            sums[total] += entry["dimension"]
    expected = closed_form_series(max_degree)
    if sums != expected:
        problems.append("multigraded entries do not sum to the series")
    if payload.get("row_sums") != expected or payload.get("row_sums_match") is not True:
        problems.append("multigraded row sums do not match the series")
    return problems


def check_exact_invariants(matrix_form, basis_form) -> List[str]:
    m, b = tuple(matrix_form.as_tuple()), tuple(basis_form.as_tuple())
    if not all(isinstance(v, Fraction) for v in m + b):
        return ["exact invariants are not all Fractions"]
    if m != b:
        return ["matrix form and basis form differ"]
    return []


def check_battery(report, trials: int) -> List[str]:
    if report.trials != trials or not report.passed:
        return [f"invariance battery failed: max deviation {report.max_deviation:.3e}"]
    return []


# --- workloads ---------------------------------------------------------------


class Outcome:
    """Checked operations of one workload pass, plus its route timings."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.facts: Dict[str, float] = {}

    def record(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(problems)


def run_cli(argv: List[str], tracer: Optional[Tracer]):
    """luinv.cli.main(argv) with its JSON output captured; (exit code, payload)."""
    import luinv.cli

    out = io.StringIO()
    with maybe_span(tracer, "cli.main"), contextlib.redirect_stdout(out):
        code = luinv.cli.main(argv)
    try:
        return code, json.loads(out.getvalue())
    except json.JSONDecodeError:
        return code, {}


def prepare(workload: str, seed: int, size: dict):
    """Inputs built before ``ready``: the exact states and the battery seed."""
    if workload != "invariants-mixed":
        return None
    import luinv

    rng = random.Random(seed)
    states = [luinv.states.random_state(rng.randrange(2 ** 31), "rational")
              for _ in range(size["states"])]
    return states, rng.randrange(2 ** 31)


def run_workload(workload: str, size: dict, inputs, tracer: Optional[Tracer]) -> Outcome:
    import luinv

    outcome = Outcome()
    if workload == "series-d22":
        d = size["series"]
        code, payload = run_cli(["verify", "--max-degree", str(d), "--format", "json"], tracer)
        outcome.record(check_series_report(code, payload, d))
    elif workload == "crosscheck-d15":
        d = size["verify"]
        code, payload = run_cli(
            ["verify", "--max-degree", str(d), "--with-quadrature", "--format", "json"], tracer
        )
        outcome.record(check_series_report(code, payload, d) + check_quadrature(payload))
        outcome.facts["quadrature_max_residual"] = (payload.get("quadrature") or {}).get(
            "max_residual", float("nan"))
        d = size["multigraded"]
        code, payload = run_cli(["multigraded", "--max-degree", str(d), "--format", "json"], tracer)
        outcome.record(check_multigraded(code, payload, d))
    elif workload == "invariants-mixed":
        states, battery_seed = inputs
        start = time.perf_counter()
        for rho in states:
            dec = luinv.decompose_state(rho)
            outcome.record(check_exact_invariants(luinv.eval_matrix_form(dec), luinv.eval_basis_form(dec)))
        mid = time.perf_counter()
        report = luinv.invariance_battery(size["trials"], battery_seed, BATTERY_TOLERANCE)
        outcome.record(check_battery(report, size["trials"]))
        end = time.perf_counter()
        outcome.facts.update(
            exact_states=len(states), exact_s=mid - start,
            float_states=2 * size["trials"], float_s=end - mid,  # two states per trial
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    size = SIZES[args.size]

    start = time.perf_counter()
    import luinv  # noqa: F401  (the import is what is timed)
    import luinv.cli  # noqa: F401
    import_s = time.perf_counter() - start
    inputs = prepare(args.workload, args.seed, size)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    print("ready", flush=True)

    start = time.perf_counter()
    outcome = run_workload(args.workload, size, inputs, tracer)
    wall_s = time.perf_counter() - start

    import numpy

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "facts": outcome.facts,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "trace": tracer.summary(wall_s) if tracer is not None else None,
    }
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
