"""Command-line front end: series, verify, invariants, multigraded.

Every subcommand is deterministic for a fixed command line (randomized
modes require an explicit seed), emits plain, csv or json output (json
payloads carry a versioned "schema" field), and follows one exit-code
contract: 0 for success or all checks passing, 1 for a verification
failure, 2 for usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

import numpy as np

from luinv.invariants import (
    COMPONENTS,
    InvariantVector,
    eval_matrix_form,
    invariance_battery,
)
from luinv.molien import (
    MemoryBudgetError,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    verify_theorem,
)
from luinv.states import _fraction_str, decompose_state, random_state, state_from_json

QUADRATURE_TOLERANCE = 1e-6
BATTERY_TOLERANCE = 1e-9


def _value_str(v) -> str:
    return _fraction_str(v) if isinstance(v, Fraction) else repr(v)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_series(args) -> int:
    coeffs = poincare_coefficients(args.max_degree, memory_budget=args.memory_budget)
    if args.format == "plain":
        print(" ".join(str(c) for c in coeffs))
    elif args.format == "csv":
        print("degree,coefficient")
        for d, c in enumerate(coeffs):
            print(f"{d},{c}")
    else:
        _emit_json(
            {
                "schema": "luinv.series.v1",
                "max_degree": args.max_degree,
                "coefficients": coeffs,
            }
        )
    return 0


def _quadrature_check(
    coeffs: List[int], grid_size: Optional[int], memory_budget: Optional[int]
) -> dict:
    # without a budget the call keeps its two-argument form and the default cap
    budget = {} if memory_budget is None else {"memory_budget": memory_budget}
    approx = quadrature_coefficients(len(coeffs) - 1, grid_size, **budget)
    # relative, since the float error grows with the coefficients
    residual = max(abs(a - c) / max(1, abs(c)) for a, c in zip(approx, coeffs))
    rounded_ok = [round(a) for a in approx] == list(coeffs)
    return {
        "max_residual": residual,
        "tolerance": QUADRATURE_TOLERANCE,
        "passed": rounded_ok and residual < QUADRATURE_TOLERANCE,
    }


def cmd_verify(args) -> int:
    coeffs = poincare_coefficients(args.max_degree, memory_budget=args.memory_budget)
    report = verify_theorem(coeffs)
    quad = (
        _quadrature_check(coeffs, args.grid_size, args.memory_budget)
        if args.with_quadrature
        else None
    )
    passed = report.all_passed and (quad is None or quad["passed"])

    checks = report.checks()
    if quad is not None:
        checks["quadrature_match"] = quad["passed"]

    if args.format == "plain":
        for name, ok in checks.items():
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        if report.first_mismatch is not None:
            print(f"first mismatch at degree {report.first_mismatch}")
        if quad is not None:
            print(f"quadrature max residual: {quad['max_residual']:.3e}")
        print("all checks passed" if passed else "verification FAILED")
    elif args.format == "csv":
        print("check,result")
        for name, ok in checks.items():
            print(f"{name},{'pass' if ok else 'fail'}")
    else:
        _emit_json(
            {
                "schema": "luinv.report.v1",
                "max_degree": report.max_degree,
                "coefficients": list(report.coefficients),
                "checks": checks,
                "first_mismatch": report.first_mismatch,
                "degree_gap": report.degree_gap,
                "hsop_degrees": list(report.hsop_degrees),
                "quadrature": quad,
                "passed": passed,
            }
        )
    return 0 if passed else 1


def _load_state(args) -> np.ndarray:
    if args.state is not None:
        try:
            with open(args.state, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ValueError(f"cannot read state file: {err}") from err
        rho = state_from_json(text)
        exact = rho.dtype == object
        if args.scalar == "float" and exact:
            rho = rho.astype(complex)
        elif args.scalar == "exact" and not exact:
            raise ValueError("cannot promote float state data to the exact path")
        return rho
    kind = "rational" if args.scalar != "float" else "psd_float"
    return random_state(args.seed, kind)


def _print_invariants(vec: InvariantVector, scalar: str, fmt: str) -> None:
    values = vec.as_dict()
    if fmt == "plain":
        print(" ".join(_value_str(values[name]) for name in COMPONENTS))
    elif fmt == "csv":
        print("invariant,value")
        for name in COMPONENTS:
            print(f"{name},{_value_str(values[name])}")
    else:
        encoded = {
            name: _value_str(v) if isinstance(v, Fraction) else v
            for name, v in values.items()
        }
        _emit_json(
            {"schema": "luinv.invariants.v1", "scalar": scalar, "values": encoded}
        )


def cmd_invariants(args) -> int:
    if args.battery:
        report = invariance_battery(args.trials, args.seed, BATTERY_TOLERANCE)
        if args.format == "plain":
            verdict = "PASS" if report.passed else "FAIL"
            print(
                f"{verdict} max_deviation={report.max_deviation:.3e} "
                f"({report.trials} trials, tolerance {report.tolerance:.1e}, "
                f"worst {report.worst_component} at trial {report.worst_trial})"
            )
        elif args.format == "csv":
            print("field,value")
            print(f"trials,{report.trials}")
            print(f"tolerance,{report.tolerance}")
            print(f"max_deviation,{report.max_deviation}")
            print(f"worst_component,{report.worst_component}")
            print(f"worst_trial,{report.worst_trial}")
            print(f"passed,{report.passed}")
        else:
            _emit_json(
                {
                    "schema": "luinv.battery.v1",
                    "trials": report.trials,
                    "tolerance": report.tolerance,
                    "max_deviation": report.max_deviation,
                    "worst_component": report.worst_component,
                    "worst_trial": report.worst_trial,
                    "passed": report.passed,
                }
            )
        return 0 if report.passed else 1

    rho = _load_state(args)
    # a huge float state overflows quietly: _realize rejects the non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        vec = eval_matrix_form(decompose_state(rho))
    _print_invariants(vec, "rational" if rho.dtype == object else "float", args.format)
    return 0


def cmd_multigraded(args) -> int:
    table = poincare_multigraded(
        args.max_degree, memory_budget=args.memory_budget
    )
    single = poincare_coefficients(args.max_degree, memory_budget=args.memory_budget)
    row_sums = table.row_sums()
    consistent = row_sums == single
    entries = sorted(table.entries.items())

    if args.format == "plain":
        for (d1, d2, d3), value in entries:
            print(f"{d1} {d2} {d3} {value}")
        print(f"row sums consistent with series: {'yes' if consistent else 'NO'}")
        print(f"note: {table.note}")
    elif args.format == "csv":
        print("d1,d2,d3,dimension")
        for (d1, d2, d3), value in entries:
            print(f"{d1},{d2},{d3},{value}")
    else:
        _emit_json(
            {
                "schema": "luinv.multigraded.v1",
                "max_total_degree": table.max_total_degree,
                "entries": [
                    {"degrees": list(k), "dimension": v} for k, v in entries
                ],
                "row_sums": row_sums,
                "row_sums_match": consistent,
                "note": table.note,
            }
        )
    return 0 if consistent else 1


def _memory_budget(text: str) -> int:
    """argparse type for --memory-budget: a positive byte count."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luinv",
        description=(
            "Exact Poincare series and low-degree invariants of the "
            "local-unitary action on qubit-qutrit states"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common_fmt = dict(choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("series", help="exact series coefficients")
    p.add_argument("--max-degree", type=int, default=14)
    p.add_argument("--format", **common_fmt)
    p.add_argument("--memory-budget", type=_memory_budget, default=None, metavar="BYTES")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="check the closed form and identities")
    p.add_argument("--max-degree", type=int, default=14)
    p.add_argument("--with-quadrature", action="store_true")
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--format", **common_fmt)
    p.add_argument("--memory-budget", type=_memory_budget, default=None, metavar="BYTES")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariants", help="evaluate the seven invariants")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--state", metavar="FILE", help="JSON state file")
    source.add_argument("--random", action="store_true", help="random state (needs --seed)")
    source.add_argument("--battery", action="store_true", help="invariance trials (needs --seed)")
    p.add_argument("--scalar", choices=("exact", "float"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--format", **common_fmt)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("multigraded", help="dimensions refined by multidegree")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--format", **common_fmt)
    p.add_argument("--memory-budget", type=_memory_budget, default=None, metavar="BYTES")
    p.set_defaults(func=cmd_multigraded)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "invariants":
        if not (args.state or args.random or args.battery):
            parser.error("pick one of --state, --random, --battery")
        if (args.random or args.battery) and args.seed is None:
            parser.error("randomized modes require --seed")
        if args.battery and args.trials < 1:
            parser.error("--trials must be positive")
    try:
        return args.func(args)
    except MemoryBudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
