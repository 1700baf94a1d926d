"""Command-line front end: series, verify, invariants, multigraded.

Every subcommand is deterministic for a fixed command line (randomized
modes require an explicit seed) and follows one exit-code contract: 0
for success or all checks passing, 1 for a verification failure, 2 for
usage or resource errors, a closed stdout among them, also under --help.
The argparse tree is built once per process.  Each subcommand builds its
result once, and ``_emit``, the one place that reads ``--format``,
prints it: json is the whole payload on one line with a versioned
"schema" field, csv one table with its header (verify's leaves out
first_mismatch and max_residual), plain a few lines; multigraded builds
its csv rows or plain lines only when printed.
verify --with-quadrature runs the quadrature before the series engine, so
a degree over the memory budget is refused before any work.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

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
from luinv.states import decompose_state, random_state, state_from_json


def _emit(fmt: str, payload: dict, table: Iterable[Sequence], plain: Iterable[str]) -> None:
    """Print the payload as compact json, the table as csv, or the plain lines; of table and
    plain, only the chosen one is read."""
    if fmt == "json":
        lines: Iterable[str] = [json.dumps(payload, sort_keys=True)]
    elif fmt == "csv":
        lines = (",".join(str(v) for v in row) for row in table)
    else:
        lines = plain
    print("\n".join(lines), flush=True)  # a closed stdout fails here, not at exit


def cmd_series(args) -> int:
    coeffs = poincare_coefficients(args.max_degree, memory_budget=args.memory_budget)
    _emit(
        args.format,
        {"schema": "luinv.series.v1", "max_degree": args.max_degree, "coefficients": coeffs},
        [("degree", "coefficient"), *enumerate(coeffs)],
        [" ".join(str(c) for c in coeffs)],
    )
    return 0


def _quadrature_check(coeffs: List[int], residues: List[int]) -> dict:
    p = quadrature_grid(len(coeffs) - 1)[1]
    # the largest |c_d - r_d| mod p, with the difference taken in (-p/2, p/2]
    residual = max(min((c % p - r) % p, (r - c % p) % p) for r, c in zip(residues, coeffs))
    return {
        "max_residual": float(residual),  # a float, 0.0 on a pass, as the key always was
        "prime": p,
        "tolerance": 0.0,
        "passed": residual == 0,
    }


def cmd_verify(args) -> int:
    # the quadrature first: no budget fits it a higher degree than the engine
    residues = (
        quadrature_coefficients(args.max_degree, args.memory_budget)
        if args.with_quadrature
        else None
    )
    coeffs = poincare_coefficients(args.max_degree, memory_budget=args.memory_budget)
    report = verify_theorem(coeffs)
    checks = dict(report.checks)
    quad = None
    if residues is not None:
        quad = _quadrature_check(coeffs, residues)
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


def _printed(name: str, value):
    """An exact value as its Fraction string, a float as it is.

    Python refuses to print an int past its int-string limit, and an exact
    state within the common-denominator cap can still have such values.
    """
    if not isinstance(value, Fraction):
        return value
    try:
        return str(value)
    except ValueError as err:
        raise ValueError(
            f"invariant {name} is too long to print: its numerator or denominator has more "
            f"than {sys.get_int_max_str_digits()} digits; --scalar float evaluates the state"
        ) from err


def cmd_invariants(args) -> int:
    if (args.random or args.battery) and args.seed is None:
        raise ValueError("randomized modes require --seed")
    if args.battery:
        if args.scalar == "exact":
            raise ValueError("--battery runs in floats only; drop --scalar exact")
        report = invariance_battery(args.trials, args.seed)
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
    values = {name: _printed(name, v) for name, v in vec.as_dict().items()}
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
        itertools.chain([("d1", "d2", "d3", "dimension")], ((*k, v) for k, v in entries)),
        itertools.chain(
            (f"{d1} {d2} {d3} {value}" for (d1, d2, d3), value in entries),
            [
                f"row sums consistent with series: {'yes' if consistent else 'NO'}",
                f"note: {MULTIGRADED_NOTE}",
            ],
        ),
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that prints help as _emit prints output, flushed at once.

    argparse swallows an OSError from writing help, and a buffered write
    fails only at the interpreter's last flush; this way a closed stdout
    raises BrokenPipeError inside parse_args, in cli.main's try.  The
    subparsers are of this class too.
    """

    def print_help(self, file=None) -> None:
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(
        prog="luinv",
        description=(
            "Exact Poincare series and low-degree invariants of the "
            "local-unitary action on qubit-qutrit states"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    formats = ("plain", "csv", "json")

    p = sub.add_parser("series", help="exact series coefficients")
    p.add_argument("--max-degree", type=int, default=14)
    p.add_argument("--memory-budget", type=_integer(1), default=None, metavar="BYTES")
    p.add_argument("--format", choices=formats, default="plain")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="check the closed form and identities")
    p.add_argument("--max-degree", type=int, default=14)
    p.add_argument("--memory-budget", type=_integer(1), default=None, metavar="BYTES")
    p.add_argument("--format", choices=formats, default="plain")
    p.add_argument("--with-quadrature", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariants", help="evaluate the seven invariants")
    p.add_argument("--format", choices=formats, default="plain")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", metavar="FILE", help="JSON state file")
    source.add_argument("--random", action="store_true", help="random state (needs --seed)")
    source.add_argument("--battery", action="store_true", help="invariance trials (needs --seed)")
    p.add_argument("--scalar", choices=("exact", "float"), default=None)
    p.add_argument("--seed", type=_integer(0), default=None)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("multigraded", help="dimensions refined by multidegree")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--memory-budget", type=_integer(1), default=None, metavar="BYTES")
    p.add_argument("--format", choices=formats, default="plain")
    p.set_defaults(func=cmd_multigraded)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # which prints --help, so inside the try
        return args.func(args)
    # MemoryError covers MemoryBudgetError and an allocation refused outright
    except (MemoryError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left: what is still buffered goes to devnull, so the last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
