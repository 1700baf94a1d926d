"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
go by; without ``-s`` pytest shows them for failing criteria only.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from luinv import reference
from luinv.exact import GaussianRational
from luinv.invariants import (
    COMPONENTS,
    MULTIDEGREES,
    eval_basis_form,
    eval_matrix_form,
    independence_rank,
    invariance_battery,
)
from luinv.molien import (
    _character_windows,
    _palindromic,
    _taylor_head,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    verify_theorem,
    weight_system,
)
from luinv.states import decompose_state, scale_components

EXPECTED_14 = [
    1, 0, 3, 4, 15, 25, 90, 170, 489, 1059, 2600, 5641, 12872, 27099, 57990,
]
EXPECTED_19 = EXPECTED_14 + [118254, 240187, 472273, 919432, 1745295]


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_exact_series_reproduction():
    start = time.perf_counter()
    got14 = poincare_coefficients(14)
    fast = time.perf_counter() - start
    start = time.perf_counter()
    got19 = poincare_coefficients(19)
    long_mode = time.perf_counter() - start
    ok = got14 == EXPECTED_14 and fast <= 60.0
    ok = ok and got19 == EXPECTED_19 and long_mode <= 900.0
    _criterion(
        1,
        f"series through degree 14 in {fast:.2f}s and 19 in {long_mode:.2f}s, "
        "coefficients exact",
        ok,
    )


def test_criterion_2_closed_form_verification(coeffs19):
    report = verify_theorem(coeffs19)
    num = reference.numerator_poly()
    den = reference.denominator_poly()
    num_star = reference.nonneg_numerator_poly()
    den_star = reference.nonneg_denominator_poly()
    factor = np.convolve([1, -1, 1], [1, 0, 0, 1])

    ok = _taylor_head(num, den, 19) == coeffs19
    # apart from the recurrence: the series times D is N through t^19
    ok = ok and list(np.convolve(coeffs19, den)[:20]) == list(num[:20])
    ok = ok and _palindromic(num, 70) and _palindromic(num_star, 75)
    ok = ok and tuple(np.convolve(den, factor)) == den_star
    ok = ok and tuple(np.convolve(num, factor)) == num_star
    ok = ok and all(c >= 0 for c in num_star)
    # every table ends in a nonzero coefficient, so its length is its degree + 1
    ok = ok and all(p[-1] != 0 for p in (num, den, num_star, den_star))
    ok = ok and len(den) - len(num) == 35
    ok = ok and len(den_star) - len(num_star) == 35
    ok = ok and report.all_passed
    _criterion(
        2,
        "closed form expands to the computed series; palindromes, the "
        "(1-t+t^2)(1+t^3) transform, nonnegativity and degree gaps all hold",
        ok,
    )


def test_criterion_3_quadrature_oracle(coeffs19):
    exact = coeffs19[:7]
    start = time.perf_counter()
    approx = quadrature_coefficients(6)
    elapsed = time.perf_counter() - start
    residual = max(abs(a - e) for a, e in zip(approx, exact))
    ok = [round(a) for a in approx] == exact
    ok = ok and residual < 1e-6 and elapsed <= 60.0
    _criterion(
        3,
        f"torus quadrature matches exact degrees 0..6 (residual {residual:.2e}, "
        f"{elapsed:.2f}s)",
        ok,
    )


def test_criterion_4_brute_force_character_oracle():
    weights = []
    for entry in weight_system().entries:
        weights.extend([entry.weight] * entry.multiplicity)
    ok = len(weights) == 35
    # a run to degree 6 keeps the full window [-d, d]^3 for every d <= 3
    engine = _character_windows([weights], 6)
    for d in range(4):
        expected = np.zeros((2 * d + 1,) * 3, dtype=object)
        for combo in itertools.combinations_with_replacement(range(35), d):
            expected[
                sum(weights[i][0] for i in combo) + d,
                sum(weights[i][1] for i in combo) + d,
                sum(weights[i][2] for i in combo) + d,
            ] += 1
        block = engine[(d,)]
        ok = ok and block.shape == expected.shape and bool((block == expected).all())
    _criterion(
        4,
        "symmetric-power characters by multiset enumeration equal the "
        "engine's coefficient arrays cell by cell for degrees 0..3",
        ok,
    )


def _diagonal_oracle():
    """Seven invariant values of diag(1,0,...,0) from first principles.

    Plain Fraction arithmetic on nested lists; shares no code with the
    package beyond the stdlib.  Index (i, j) of the qubit-major 6x6
    layout is row 3*i + j.
    """
    rho = [[Fraction(int(r == 0 and c == 0)) for c in range(6)] for r in range(6)]
    ptr_b = [
        [sum(rho[3 * i + j][3 * k + j] for j in range(3)) for k in range(2)]
        for i in range(2)
    ]
    ptr_a = [
        [sum(rho[3 * i + j][3 * i + l] for i in range(2)) for l in range(3)]
        for j in range(3)
    ]
    x = [
        [(ptr_b[i][k] - Fraction(int(i == k), 2)) / 3 for k in range(2)]
        for i in range(2)
    ]
    y = [
        [(ptr_a[j][l] - Fraction(int(j == l), 3)) / 2 for l in range(3)]
        for j in range(3)
    ]
    z = [
        [
            rho[r][c]
            - Fraction(int(r == c), 6)
            - (x[r // 3][c // 3] if r % 3 == c % 3 else 0)
            - (y[r % 3][c % 3] if r // 3 == c // 3 else 0)
            for c in range(6)
        ]
        for r in range(6)
    ]
    i1 = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    i2 = sum(y[j][l] * y[l][j] for j in range(3) for l in range(3))
    i3 = sum(z[r][c] * z[c][r] for r in range(6) for c in range(6))
    i4 = (
        y[0][0] * (y[1][1] * y[2][2] - y[1][2] * y[2][1])
        - y[0][1] * (y[1][0] * y[2][2] - y[1][2] * y[2][0])
        + y[0][2] * (y[1][0] * y[2][1] - y[1][1] * y[2][0])
    )
    i5 = sum(
        z[r][c] * z[c][d] * z[d][r]
        for r in range(6)
        for c in range(6)
        for d in range(6)
    )
    xy = [[x[r // 3][c // 3] * y[r % 3][c % 3] for c in range(6)] for r in range(6)]
    i6 = sum(xy[r][c] * z[c][r] for r in range(6) for c in range(6))
    iy = [
        [(y[r % 3][c % 3] if r // 3 == c // 3 else Fraction(0)) for c in range(6)]
        for r in range(6)
    ]
    z2 = [
        [sum(z[r][m] * z[m][c] for m in range(6)) for c in range(6)]
        for r in range(6)
    ]
    i7 = sum(iy[r][c] * z2[c][r] for r in range(6) for c in range(6))
    return (i1, i2, i3, i4, i5, i6, i7)


def test_criterion_5_invariant_identities(rational_states):
    oracle = _diagonal_oracle()
    expected = (
        Fraction(-1, 36),
        Fraction(1, 6),
        Fraction(1, 3),
        Fraction(1, 108),
        Fraction(0),
        Fraction(1, 18),
        Fraction(1, 18),
    )
    pure = np.array(
        [[GaussianRational(int(r == 0 and c == 0)) for c in range(6)] for r in range(6)],
        dtype=object,
    )
    ok = oracle == expected
    ok = ok and eval_matrix_form(decompose_state(pure)).as_tuple() == oracle
    agree = 0
    for rho in rational_states:
        dec = decompose_state(rho)
        if eval_matrix_form(dec).as_tuple() == eval_basis_form(dec).as_tuple():
            agree += 1
    ok = ok and agree == len(rational_states) >= 100
    _criterion(
        5,
        f"matrix and basis evaluation agree exactly on {agree} random exact "
        "states; the pure-product fixture matches the independent oracle",
        ok,
    )


def test_criterion_6_invariance_battery():
    report = invariance_battery(trials=100, seed=20260815)
    ok = report.passed and report.trials == 100 and report.max_deviation <= 1e-9
    _criterion(
        6,
        f"100 Haar local-unitary trials, max relative deviation "
        f"{report.max_deviation:.2e} <= 1e-9",
        ok,
    )


def test_criterion_7_multidegree_homogeneity(rational_states):
    scalings = (
        (Fraction(2), Fraction(-1, 3), Fraction(5, 2)),
        (Fraction(-3), Fraction(7), Fraction(1, 4)),
    )
    checked = 0
    ok = True
    for rho in rational_states[:20]:
        dec = decompose_state(rho)
        base = eval_matrix_form(dec)
        for a, b, c in scalings:
            scaled = eval_matrix_form(scale_components(dec, a, b, c))
            for name in COMPONENTS:
                d1, d2, d3 = MULTIDEGREES[name]
                ok = ok and scaled.component(name) == (
                    a**d1 * b**d2 * c**d3 * base.component(name)
                )
        checked += 1
    ok = ok and checked >= 20
    _criterion(
        7,
        f"exact scaling law with the documented multidegrees on {checked} states",
        ok,
    )


def test_criterion_8_dimension_cross_checks(rational_states, coeffs19):
    sample = rational_states[:12]
    rank2 = independence_rank(sample, 2)
    rank3 = independence_rank(sample, 3)
    table = poincare_multigraded(6)
    ok = rank2 == 3 == coeffs19[2]
    ok = ok and rank3 == 4 == coeffs19[3]
    ok = ok and table.row_sums() == coeffs19[:7]
    _criterion(
        8,
        f"evaluation ranks ({rank2}, {rank3}) equal the series coefficients "
        "at t^2, t^3; multigraded row sums match through degree 6",
        ok,
    )


def test_criterion_9_structural_constants():
    ws = weight_system()
    expected_hsop = {2: 3, 3: 4, 4: 5, 5: 4, 6: 5, 7: 2, 8: 1}
    degrees = reference.hsop_degrees()
    counts = {d: degrees.count(d) for d in set(degrees)}
    ok = ws.total_multiplicity() == 35
    ok = ok and len(degrees) == 24 and counts == expected_hsop
    _criterion(
        9,
        "weight system has total multiplicity 35; hsop degree multiset is "
        "{2^3, 3^4, 4^5, 5^4, 6^5, 7^2, 8^1} with 24 members",
        ok,
    )


@pytest.mark.long
def test_stretch_full_numerator_reconstruction():
    """Beyond the gate: the series through t^35 pins down all of N.

    The denominator has degree 105 and the numerator degree 70 with a
    palindromic coefficient vector, so coefficients 0..35 of the series
    determine N completely; matching them against the tabulated closed
    form checks every numerator entry, not just the degree-19 head.
    """
    computed = poincare_coefficients(35)
    expansion = _taylor_head(
        reference.numerator_poly(), reference.denominator_poly(), 35
    )
    assert computed == expansion
    print(
        "[PASS] stretch: series through degree 35 matches the closed form "
        f"(c35 = {computed[35]})"
    )
