"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
go by; without ``-s`` pytest shows them for failing criteria only.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from luinv import reference
from luinv.invariants import (
    COMPONENTS,
    MULTIDEGREES,
    eval_basis_form,
    eval_matrix_form,
    invariance_battery,
)
from luinv.molien import (
    WEIGHTS,
    _divide,
    _grid_primes,
    _levels,
    _palindromic,
    _steps,
    _taylor_head,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    quadrature_grid,
    verify_theorem,
)
from luinv.states import decompose_state, embed

from conftest import scale_components

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
    num = reference.NUMERATOR
    den = reference.DENOMINATOR
    num_star = reference.NONNEG_NUMERATOR
    den_star = reference.NONNEG_DENOMINATOR
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
    ok = ok and all(report.checks.values())
    _criterion(
        2,
        "closed form expands to the computed series; palindromes, the "
        "(1-t+t^2)(1+t^3) transform, nonnegativity and degree gaps all hold",
        ok,
    )


def test_criterion_3_quadrature_oracle(coeffs19):
    p = quadrature_grid(19)[1]
    start = time.perf_counter()
    residues = quadrature_coefficients(19)
    elapsed = time.perf_counter() - start
    ok = residues == [c % p for c in coeffs19] and elapsed <= 60.0
    _criterion(
        3,
        f"exact torus quadrature mod {p} matches the exact degrees 0..19 ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_4_brute_force_character_oracle():
    weights = WEIGHTS
    ok = len(weights) == 35
    # the engine's series at every point of the m^3 grid of m-th roots of
    # unity in F_p; m = 7 is prime and at least 2d + 1 for every d <= 3, so
    # these values fix every cell of a character on [-d, d]^3
    m = 7
    p, omega = next(_grid_primes(m))
    ok = ok and all(p % q for q in range(2, math.isqrt(p) + 1))
    ok = ok and omega != 1 and pow(omega, m, p) == 1
    powers = np.array([pow(omega, a, p) for a in range(m)], dtype=np.int64)
    points = np.indices((m, m, m)).reshape(3, -1)
    series = np.zeros((4, m**3), dtype=np.int64)
    series[0] = 1
    values = np.stack([powers[np.dot(w, points) % m] for w in weights][::-1])
    _divide(series, [(values, _steps(_levels(np.arange(4), np.arange(-1, 3)), 35))], p)
    for d in range(4):
        expected = np.zeros((2 * d + 1,) * 3, dtype=object)
        for combo in itertools.combinations_with_replacement(range(35), d):
            expected[
                sum(weights[i][0] for i in combo) + d,
                sum(weights[i][1] for i in combo) + d,
                sum(weights[i][2] for i in combo) + d,
            ] += 1
        # the enumerated character at the grid points, one axis at a time
        transform = np.array(
            [[pow(omega, e * a, p) for e in range(-d, d + 1)] for a in range(m)],
            dtype=object,
        )
        values = expected
        for _ in range(3):
            values = np.tensordot(values, transform, axes=(0, 1)) % p
        ok = ok and bool((values.reshape(-1) == series[d]).all())
    _criterion(
        4,
        "symmetric-power characters by multiset enumeration equal the "
        "engine's series at every point of an F_p torus grid that fixes "
        "every cell, for degrees 0..3",
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


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cmul(a, b):
    # the real part of a product needs Re*Re - Im*Im
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _csum(values):
    total = (Fraction(0), Fraction(0))
    for v in values:
        total = _cadd(total, v)
    return total


def _complex_oracle(rho):
    """Seven invariant values of a 6x6 matrix of (re, im) Fraction pairs.

    First principles on nested lists, like _diagonal_oracle, but with
    complex entries held as (re, im) pairs and multiplied out by hand:
    the partial traces, X, Y, Z, the two determinants by cofactors and
    the traces of products.  Shares no code with the package beyond the
    stdlib.  Returns (re, im) pairs.
    """
    zero = (Fraction(0), Fraction(0))

    def real(q):
        return (Fraction(q), Fraction(0))

    def matmul(a, b):
        n = len(a)
        return [
            [_csum(_cmul(a[r][m], b[m][c]) for m in range(n)) for c in range(n)]
            for r in range(n)
        ]

    def trace(a):
        return _csum(a[r][r] for r in range(len(a)))

    ptr_b = [
        [_csum(rho[3 * i + j][3 * k + j] for j in range(3)) for k in range(2)]
        for i in range(2)
    ]
    ptr_a = [
        [_csum(rho[3 * i + j][3 * i + l] for i in range(2)) for l in range(3)]
        for j in range(3)
    ]
    x = [
        [_cmul(_csub(ptr_b[i][k], real(Fraction(int(i == k), 2))), real(Fraction(1, 3)))
         for k in range(2)]
        for i in range(2)
    ]
    y = [
        [_cmul(_csub(ptr_a[j][l], real(Fraction(int(j == l), 3))), real(Fraction(1, 2)))
         for l in range(3)]
        for j in range(3)
    ]
    xi = [[x[r // 3][c // 3] if r % 3 == c % 3 else zero for c in range(6)] for r in range(6)]
    iy = [[y[r % 3][c % 3] if r // 3 == c // 3 else zero for c in range(6)] for r in range(6)]
    z = [
        [
            _csub(_csub(_csub(rho[r][c], real(Fraction(int(r == c), 6))), xi[r][c]), iy[r][c])
            for c in range(6)
        ]
        for r in range(6)
    ]

    def minor(a, b):  # rows 1 and 2 of Y, columns a and b
        return _csub(_cmul(y[1][a], y[2][b]), _cmul(y[1][b], y[2][a]))

    i1 = _csub(_cmul(x[0][0], x[1][1]), _cmul(x[0][1], x[1][0]))
    i4 = _cadd(
        _csub(_cmul(y[0][0], minor(1, 2)), _cmul(y[0][1], minor(0, 2))),
        _cmul(y[0][2], minor(0, 1)),
    )
    xy = [[_cmul(x[r // 3][c // 3], y[r % 3][c % 3]) for c in range(6)] for r in range(6)]
    z2 = matmul(z, z)
    return (
        i1,
        trace(matmul(y, y)),
        trace(z2),
        i4,
        trace(matmul(z2, z)),
        trace(matmul(xy, z)),
        trace(matmul(iy, z2)),
    )


def _non_real_fixture():
    """A A^dagger / tr(A A^dagger) for a fixed Gaussian-integer A, as (re, im) pairs."""
    a = [
        [((r * 5 + c * 3) % 7 - 3, (r * 2 + c * 5 + 1) % 5 - 2) for c in range(6)]
        for r in range(6)
    ]
    gram = [
        [_csum(_cmul(a[r][m], (a[c][m][0], -a[c][m][1])) for m in range(6)) for c in range(6)]
        for r in range(6)
    ]
    tr = sum(gram[r][r][0] for r in range(6))
    return [[(v[0] / tr, v[1] / tr) for v in row] for row in gram]


def test_non_real_state_matches_first_principles_oracle():
    rho = _non_real_fixture()
    oracle = _complex_oracle(rho)
    re = np.array([[v[0] for v in row] for row in rho], dtype=object)
    im = np.array([[v[1] for v in row] for row in rho], dtype=object)
    dec = decompose_state(embed(re, im))
    matrix, basis = eval_matrix_form(dec).as_tuple(), eval_basis_form(dec).as_tuple()
    ok = any(v[1] != 0 for row in rho for v in row)
    ok = ok and all(v[1] == 0 for v in oracle)
    ok = ok and matrix == basis == tuple(v[0] for v in oracle)
    # tr(E_k E_l E_m) is imaginary, so a product of real parts alone makes the
    # basis form's i5 zero; the fixture's is not
    ok = ok and oracle[4][0] != 0
    print(f"[{'PASS' if ok else 'FAIL'}] non-real fixture: both forms equal the (re, im) oracle")
    assert ok


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
    pure_re = np.array(
        [[int(r == 0 and c == 0) for c in range(6)] for r in range(6)], dtype=object
    )
    pure = embed(pure_re, np.zeros_like(pure_re))
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
                ok = ok and scaled.as_dict()[name] == (
                    a**d1 * b**d2 * c**d3 * base.as_dict()[name]
                )
        checked += 1
    ok = ok and checked >= 20
    _criterion(
        7,
        f"exact scaling law with the documented multidegrees on {checked} states",
        ok,
    )


def test_criterion_8_dimension_cross_checks(rational_states, coeffs19):
    # Linear independence from the multidegrees.  If sum l_i f_i = 0 over the
    # invariants f_i of one degree, scaling (X, Y, Z) by (a, b, c) gives
    # sum l_i f_i a^d1 b^d2 c^d3 = 0 for all a, b, c.  Distinct monomials
    # a^d1 b^d2 c^d3 then force each l_i f_i = 0, so l_i = 0 where f_i is
    # nonzero at some state.
    values = [eval_matrix_form(decompose_state(rho)).as_dict() for rho in rational_states]
    counts = []
    ok = True
    for d in (2, 3):
        names = [name for name in COMPONENTS if sum(MULTIDEGREES[name]) == d]
        counts.append(len(names))
        ok = ok and len(names) == coeffs19[d]
        ok = ok and len({MULTIDEGREES[name] for name in names}) == len(names)
        ok = ok and all(any(v[name] != 0 for v in values) for name in names)
    ok = ok and counts == [3, 4]
    table = poincare_multigraded(6)
    ok = ok and table.row_sums() == coeffs19[:7]
    _criterion(
        8,
        f"{counts[0]} and {counts[1]} invariants of degrees 2 and 3, with distinct "
        "multidegrees and each nonzero at an exact state, are linearly independent and "
        "equal the series coefficients at t^2, t^3; multigraded row sums match through "
        "degree 6",
        ok,
    )


def test_criterion_9_structural_constants():
    expected_hsop = {2: 3, 3: 4, 4: 5, 5: 4, 6: 5, 7: 2, 8: 1}
    degrees = reference.HSOP_DEGREES
    counts = {d: degrees.count(d) for d in set(degrees)}
    ok = len(WEIGHTS) == 35
    ok = ok and len(degrees) == 24 and counts == expected_hsop
    _criterion(
        9,
        "weight system has total multiplicity 35; hsop degree multiset is "
        "{2^3, 3^4, 4^5, 5^4, 6^5, 7^2, 8^1} with 24 members",
        ok,
    )


@pytest.mark.long
def test_stretch_full_numerator_reconstruction():
    """Beyond the gate: the series through t^110, past the denominator.

    The denominator has degree 105 and the numerator degree 70 with a
    palindromic coefficient vector, so coefficients 0..35 of the series
    already determine N.  Going on past deg D = 105, under the default
    memory budget, also checks the coefficients that the closed form's
    denominator recurrence produces, not just the degree-19 head.
    """
    computed = poincare_coefficients(110)
    expansion = _taylor_head(
        reference.NUMERATOR, reference.DENOMINATOR, 110
    )
    assert computed == expansion
    print(
        "[PASS] stretch: series through degree 110 matches the closed form "
        f"(c110 = {computed[110]})"
    )
