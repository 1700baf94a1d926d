"""Command-line front end: series, verify, invariants, multigraded.

Every subcommand is deterministic for a fixed command line (randomized
modes require an explicit seed) and follows one exit-code contract: 0
for success or all checks passing, 1 for a verification failure, 2 for
usage or resource errors.  Each builds its result once, and ``_emit``,
the one place that reads ``--format``, prints it: json is the whole
payload with a versioned "schema" field, csv one table with its header
(verify's leaves out first_mismatch and max_residual), plain a few lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from luinv.invariants import eval_matrix_form, invariance_battery
from luinv.molien import (
    MULTIGRADED_NOTE,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    quadrature_grid,
    verify_theorem,
)
from luinv.states import _fraction_str, decompose_state, random_state, state_from_json

BATTERY_TOLERANCE = 1e-9


def _emit(fmt: str, payload: dict, table: List[Sequence], plain: List[str]) -> None:
    """Print the payload as json, the table as csv, or the plain lines."""
    if fmt == "json":
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    elif fmt == "csv":
        lines = [",".join(str(v) for v in row) for row in table]
    else:
        lines = plain
    print("\n".join(lines))


def cmd_series(args) -> int:
    coeffs = poincare_coefficients(args.max_degree, memory_budget=args.memory_budget)
    _emit(
        args.format,
        {"schema": "luinv.series.v1", "max_degree": args.max_degree, "coefficients": coeffs},
        [("degree", "coefficient"), *enumerate(coeffs)],
        [" ".join(str(c) for c in coeffs)],
    )
    return 0


def _quadrature_check(
    coeffs: List[int], grid_size: Optional[int], memory_budget: Optional[int]
) -> dict:
    # without a budget the call keeps its two-argument form and the default cap
    budget = {} if memory_budget is None else {"memory_budget": memory_budget}
    residues = quadrature_coefficients(len(coeffs) - 1, grid_size, **budget)
    p = quadrature_grid(len(coeffs) - 1, grid_size)[1]
    # the largest |c_d - r_d| mod p, with the difference taken in (-p/2, p/2]
    residual = max(min((c % p - r) % p, (r - c % p) % p) for r, c in zip(residues, coeffs))
    return {
        "max_residual": float(residual),  # a float, 0.0 on a pass, as the key always was
        "prime": p,
        "tolerance": 0.0,
        "passed": residual == 0,
    }


def cmd_verify(args) -> int:
    coeffs = poincare_coefficients(args.max_degree, memory_budget=args.memory_budget)
    report = verify_theorem(coeffs)
    checks = dict(report.checks)
    quad = None
    if args.with_quadrature:
        quad = _quadrature_check(coeffs, args.grid_size, args.memory_budget)
        checks["quadrature_match"] = quad["passed"]
    passed = all(checks.values())
    plain = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks.items()]
    if report.first_mismatch is not None:
        plain.append(f"first mismatch at degree {report.first_mismatch}")
    if quad is not None:
        plain.append(f"quadrature max residual: {quad['max_residual']:g} mod {quad['prime']}")
    plain.append("all checks passed" if passed else "verification FAILED")
    _emit(
        args.format,
        {
            "schema": "luinv.report.v1",
            "max_degree": args.max_degree,
            "coefficients": coeffs,
            "checks": checks,
            "first_mismatch": report.first_mismatch,
            "degree_gap": report.degree_gap,
            "hsop_degrees": list(report.hsop_degrees),
            "quadrature": quad,
            "passed": passed,
        },
        [("check", "result"), *((name, "pass" if ok else "fail") for name, ok in checks.items())],
        plain,
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
            rho = rho.astype(float)
        elif args.scalar == "exact" and not exact:
            raise ValueError("cannot promote float state data to the exact path")
        return rho
    kind = "rational" if args.scalar != "float" else "psd_float"
    return random_state(args.seed, kind)


def cmd_invariants(args) -> int:
    if args.battery:
        report = invariance_battery(args.trials, args.seed, BATTERY_TOLERANCE)
        fields = dataclasses.asdict(report)
        _emit(
            args.format,
            {"schema": "luinv.battery.v1", **fields},
            [("field", "value"), *fields.items()],
            [
                f"{'PASS' if report.passed else 'FAIL'} "
                f"max_deviation={report.max_deviation:.3e} "
                f"({report.trials} trials, tolerance {report.tolerance:.1e}, "
                f"worst {report.worst_component} at trial {report.worst_trial})"
            ],
        )
        return 0 if report.passed else 1

    rho = _load_state(args)
    # a huge float state overflows quietly: _realize rejects the non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        vec = eval_matrix_form(decompose_state(rho))
    values = {
        name: _fraction_str(v) if isinstance(v, Fraction) else v
        for name, v in vec.as_dict().items()
    }
    _emit(
        args.format,
        {
            "schema": "luinv.invariants.v1",
            "scalar": "rational" if rho.dtype == object else "float",
            "values": values,
        },
        [("invariant", "value"), *values.items()],
        [" ".join(str(v) for v in values.values())],
    )
    return 0


def cmd_multigraded(args) -> int:
    table = poincare_multigraded(args.max_degree, memory_budget=args.memory_budget)
    row_sums = table.row_sums()
    consistent = verify_theorem(row_sums).checks["theorem_match"]
    entries = sorted(table.entries.items())
    _emit(
        args.format,
        {
            "schema": "luinv.multigraded.v1",
            "max_total_degree": table.max_total_degree,
            "entries": [{"degrees": list(k), "dimension": v} for k, v in entries],
            "row_sums": row_sums,
            "row_sums_match": consistent,
            "note": MULTIGRADED_NOTE,
        },
        [("d1", "d2", "d3", "dimension"), *((*k, v) for k, v in entries)],
        [
            *(f"{d1} {d2} {d3} {value}" for (d1, d2, d3), value in entries),
            f"row sums consistent with series: {'yes' if consistent else 'NO'}",
            f"note: {MULTIGRADED_NOTE}",
        ],
    )
    return 0 if consistent else 1


def _integer(minimum: int):
    """argparse type for --seed and --memory-budget: an integer of at least minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _engine_options(max_degree: int) -> argparse.ArgumentParser:
    """--max-degree and --memory-budget of the series, verify and multigraded commands."""
    # one per subcommand: set_defaults on a shared parent's action moves them all
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--max-degree", type=int, default=max_degree)
    options.add_argument("--memory-budget", type=_integer(1), default=None, metavar="BYTES")
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luinv",
        description=(
            "Exact Poincare series and low-degree invariants of the "
            "local-unitary action on qubit-qutrit states"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    p = sub.add_parser("series", parents=[_engine_options(14), fmt], help="exact series coefficients")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser(
        "verify", parents=[_engine_options(14), fmt], help="check the closed form and identities"
    )
    p.add_argument("--with-quadrature", action="store_true")
    p.add_argument("--grid-size", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariants", parents=[fmt], help="evaluate the seven invariants")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--state", metavar="FILE", help="JSON state file")
    source.add_argument("--random", action="store_true", help="random state (needs --seed)")
    source.add_argument("--battery", action="store_true", help="invariance trials (needs --seed)")
    p.add_argument("--scalar", choices=("exact", "float"), default=None)
    p.add_argument("--seed", type=_integer(0), default=None)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser(
        "multigraded", parents=[_engine_options(6), fmt], help="dimensions refined by multidegree"
    )
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
        if args.battery and args.scalar == "exact":
            parser.error("--battery runs in floats only; drop --scalar exact")
    if args.subcommand == "verify" and args.grid_size is not None and not args.with_quadrature:
        parser.error("--grid-size needs --with-quadrature")
    try:
        return args.func(args)
    # MemoryError covers MemoryBudgetError and an allocation refused outright
    except (MemoryError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
