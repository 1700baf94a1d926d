"""Constant-term engine: weights, characters, series, quadrature."""

import ast
import collections
import functools
import inspect
import itertools
import math
import re
import textwrap
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from luinv import molien, reference
from luinv.molien import (
    A2_MAPS,
    DEFAULT_MEMORY_BUDGET,
    MULTIGRADED_NOTE,
    GRADES,
    WEIGHTS,
    MemoryBudgetError,
    _contract,
    _crt_primes,
    _dimensions,
    _divide,
    _estimated_bytes,
    _free_of_p,
    _grid_primes,
    _is_prime,
    _multidegrees,
    _orbit_count,
    _orbits,
    _p_rows,
    _steps,
    _s3_orbit_count,
    _s3_orbits,
    _taylor_head,
    _weyl_sums,
    _quadrature_bytes,
    _slice_sums,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    quadrature_grid,
    verify_theorem,
)

# Independent transcription of the 21 distinct weights with their
# multiplicities: five zeros, x^{+-1} three times each, the six nonzero
# qutrit weights twice each, and the twelve mixed products once each.
EXPECTED_MULTIPLICITIES = {
    (0, 0, 0): 5,
    (1, 0, 0): 3,
    (-1, 0, 0): 3,
    (0, 1, 0): 2,
    (0, 0, 1): 2,
    (0, 1, 1): 2,
    (0, -1, 0): 2,
    (0, 0, -1): 2,
    (0, -1, -1): 2,
    (1, 1, 0): 1,
    (1, 0, 1): 1,
    (1, 1, 1): 1,
    (1, -1, 0): 1,
    (1, 0, -1): 1,
    (1, -1, -1): 1,
    (-1, 1, 0): 1,
    (-1, 0, 1): 1,
    (-1, 1, 1): 1,
    (-1, -1, 0): 1,
    (-1, 0, -1): 1,
    (-1, -1, -1): 1,
}


class TestWeightSystem:
    def test_total_multiplicity_is_35(self):
        assert len(WEIGHTS) == 35

    def test_distinct_weight_multiset(self):
        assert dict(collections.Counter(WEIGHTS)) == EXPECTED_MULTIPLICITIES

    def test_subsystem_dimensions(self):
        dims = {tag: len(weights) for tag, weights in GRADES.items()}
        assert dims == {"qubit": 3, "qutrit": 8, "corr": 24}
        assert WEIGHTS == GRADES["qubit"] + GRADES["qutrit"] + GRADES["corr"]

    def test_character_at_ones_is_dimension(self):
        assert engine_character(WEIGHTS, 1).sum() == 35

    def test_weights_are_closed_under_negation(self):
        # conjugation-invariance of the representation
        for weight, mult in EXPECTED_MULTIPLICITIES.items():
            negated = (-weight[0], -weight[1], -weight[2])
            assert EXPECTED_MULTIPLICITIES[negated] == mult


ROOTS = {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
#: A grade that meets the engine's precondition: with each x-exponent s, 0-2
#: zero weights (s, 0, 0) and 0-1 copies of the six roots at s, one count for
#: s = +1 and s = -1 together, so that the weights at -1 mirror those at +1.
A2_CLOSED_GRADES = st.lists(
    st.tuples(*[st.tuples(st.integers(0, 2), st.integers(0, 1))] * 2).map(
        lambda counts: [
            w
            for s, (zeros, roots) in zip((1, -1, 0), counts[:1] + counts)
            for w in [(s, 0, 0)] * zeros + [(s, *r) for r in sorted(ROOTS)] * roots
        ]
    ),
    min_size=1,
    max_size=3,
)


def dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def weyl_by_expansion() -> dict:
    """The Weyl factor multiplied out from its four linear factors."""
    out = {(0, 0, 0): 1}
    for e in ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, -1, -1)):
        out = dict_mul(out, {(0, 0, 0): 1, e: -1})
    return out


def brute_force_character(weights, d: int) -> dict:
    """h_d by direct enumeration of weight multisets (oracle)."""
    terms = {}
    for combo in itertools.combinations_with_replacement(weights, d):
        key = tuple(map(sum, zip((0, 0, 0), *combo)))
        terms[key] = terms.get(key, 0) + 1
    return terms


def dense(terms: dict, d: int) -> np.ndarray:
    """terms laid out on the full window [-d, d]^3."""
    block = np.zeros((2 * d + 1,) * 3, dtype=object)
    for (a, b, c), coeff in terms.items():
        block[a + d, b + d, c + d] = coeff
    return block


def sparse(block: np.ndarray, d: int) -> dict:
    """The nonzero terms of a block laid out on [-d, d]^3."""
    return {
        (a - d, b - d, c - d): coeff
        for (a, b, c), coeff in np.ndenumerate(block)
        if coeff != 0
    }


def power_sum(weights, k: int) -> dict:
    """p_k = sum over the weights w of x^(k*w)."""
    terms = {}
    for w in weights:
        key = (k * w[0], k * w[1], k * w[2])
        terms[key] = terms.get(key, 0) + 1
    return terms


def is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def engine_character(weights, d: int) -> np.ndarray:
    """The engine's h_d on the full window [-d, d]^3, cell by cell.

    The engine's series builder runs at every point of the m^3 grid of
    m-th roots of unity in F_p, m = 2d + 1.  There the values of a
    Laurent polynomial with exponents in [-d, d]^3 fix every cell, and
    the inverse transform, one axis at a time, recovers them.
    """
    m = 2 * d + 1
    p, omega = next(_grid_primes(m))
    assert is_prime(p) and pow(omega, m, p) == 1
    assert all(pow(omega, m // q, p) != 1 for q in range(2, m + 1) if m % q == 0 and is_prime(q))
    powers = np.array([pow(omega, a, p) for a in range(m)], dtype=np.int64)
    points = np.indices((m, m, m)).reshape(3, -1)
    series = np.zeros((d + 1, m**3), dtype=np.int64)
    series[0] = 1
    values = np.stack([powers[np.dot(w, points) % m] for w in weights][::-1])
    _divide(series, [(values, _steps(np.arange(d + 1), np.arange(-1, d), len(weights)))], p)
    inverse = np.array(
        [[pow(omega, -e * a, p) for a in range(m)] for e in range(-d, d + 1)], dtype=object
    )
    block = series[d].astype(object).reshape(m, m, m)
    for _ in range(3):
        block = np.tensordot(block, inverse, axes=(0, 1)) % p
    # cells are below p / 2 in absolute value; lift them to the integers
    return (block * pow(m**3, -1, p) + p // 2) % p - p // 2


def ct_of_product(a: dict, b: dict) -> int:
    """CT(a * b) of two Laurent polynomials held as dicts."""
    return sum(c * b.get((-e[0], -e[1], -e[2]), 0) for e, c in a.items())


def brute_force_dimensions(grades, max_degree: int) -> dict:
    """CT(weyl * prod_g h_{delta_g}) of the grades' characters, for each
    multidegree delta of total degree at most max_degree (oracle)."""
    chars = [[brute_force_character(ws, d) for d in range(max_degree + 1)] for ws in grades]
    expected = {}
    for delta in itertools.product(range(max_degree + 1), repeat=len(grades)):
        if sum(delta) <= max_degree:
            product = weyl_by_expansion()
            for g, d in enumerate(delta[:-1]):
                product = dict_mul(product, chars[g][d])
            expected[delta] = ct_of_product(product, chars[-1][delta[-1]])
    return expected


class TestCharacters:
    def test_h0_and_h1(self):
        weights = WEIGHTS
        assert (engine_character(weights, 0) == dense({(0, 0, 0): 1}, 0)).all()
        h1 = engine_character(weights, 1)
        assert (h1 == dense(EXPECTED_MULTIPLICITIES, 1)).all()

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_newton_matches_brute_force(self, d):
        # the engine's h_d equals enumeration, and satisfies Newton's
        # identity d*h_d = sum_k p_k*h_{d-k} that it no longer relies on
        weights = WEIGHTS
        assert len(weights) == 35
        h_d = engine_character(weights, d)
        assert (h_d == dense(brute_force_character(weights, d), d)).all()
        newton = {}
        for k in range(1, d + 1):
            h = sparse(engine_character(weights, d - k), d - k)
            for key, coeff in dict_mul(power_sum(weights, k), h).items():
                newton[key] = newton.get(key, 0) + coeff
        assert (d * h_d == dense(newton, d)).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_dimension_via_stars_and_bars(self, d):
        # dim Sym^d of a 35-dim space, independently of any weights
        h = engine_character(WEIGHTS, d)
        assert h.sum() == math.comb(34 + d, d)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            _dimensions([WEIGHTS], -1, None)

    def test_small_system_by_hand(self):
        # {x, 1/x}: size-3 multisets give x^3 + x + 1/x + 1/x^3
        h3 = engine_character([(1, 0, 0), (-1, 0, 0)], 3)
        expected = {(3, 0, 0): 1, (1, 0, 0): 1, (-1, 0, 0): 1, (-3, 0, 0): 1}
        assert (h3 == dense(expected, 3)).all()

    def test_split_multiplicity_entries_are_equivalent(self):
        # a multiplicity held as adjacent copies, or as copies spread
        # between other weights, gives the same character
        merged = [(1, 0, 0)] * 3 + [(0, 1, 0)]
        split = [(1, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 0)]
        h2 = engine_character(merged, 2)
        assert (h2 == engine_character(split, 2)).all()
        # six size-2 multisets of three copies of x, three with one y, one y^2
        assert (h2 == dense({(2, 0, 0): 6, (1, 1, 0): 3, (0, 2, 0): 1}, 2)).all()

    @given(A2_CLOSED_GRADES, st.integers(0, 4))
    def test_dimensions_match_brute_force_ct(self, grades, max_degree):
        assert _dimensions(grades, max_degree, None) == brute_force_dimensions(grades, max_degree)

    @pytest.mark.parametrize(
        "grades",
        [
            [[(1, 0, 0), (-1, 0, 0)] + [(0, *r) for r in sorted(ROOTS)]],
            [[(1, 0, 0), (-1, 0, 0)], [(0, *r) for r in sorted(ROOTS)] + [(1, 0, 0), (-1, 0, 0)]],
            [[(1, 0, 0), (-1, 0, 0)], [(0, *r) for r in sorted(ROOTS)]],
            [[(0, *r) for r in sorted(ROOTS)], [(1, 0, 0), (-1, 0, 0)] + [(0, *r) for r in sorted(ROOTS)]],
            [[(1, 0, 0), (-1, 0, 0)], [(0, *r) for r in sorted(ROOTS)], [(0, *r) for r in sorted(ROOTS)]],
        ],
    )
    def test_x_elimination_at_depth(self, grades):
        # x-exponents +1, -1 and 0 in every system, far past the hypothesis depth; in the
        # last three a grade has no weight with x-exponent +1, so P and E are free of its t
        # and F holds it: that grade last, first, and two such grades
        max_degree = 12
        expected = brute_force_dimensions(grades, max_degree)
        assert len(set(expected.values())) >= 5  # not a trivial answer
        assert _dimensions(grades, max_degree, None) == expected

    def test_orbit_reduction_matches_brute_force(self):
        # roots at x, 1/x and x^0, fixed by all twelve maps, so the engine
        # evaluates one point per orbit of the whole group; x and 1/x sit
        # in the second grade, which keeps the enumeration at twelve weights
        grades = [
            [(s, *r) for s in (1, -1) for r in sorted(ROOTS)],
            [(0, *r) for r in sorted(ROOTS)] + [(1, 0, 0), (-1, 0, 0)],
        ]
        max_degree = 10
        expected = brute_force_dimensions(grades, max_degree)
        assert len(set(expected.values())) >= 5  # not a trivial answer
        assert _dimensions(grades, max_degree, None) == expected


def divide_row_by_row(series: np.ndarray, stacks: list, p: int) -> np.ndarray:
    """series divided by each weight of each stack (stored last first) in turn, one row of
    the chain after another (oracle)."""
    out = series.copy()
    for stack in stacks:
        for w in stack[::-1]:
            for r in range(1, len(out)):
                out[r] = (out[r] + w * out[r - 1]) % p
    return out


#: Weight systems with no, one and two grades free of P, as (grades, u, f): u of their
#: grades are outside _free_of_p and f inside.
GROUPED = {
    "weights": ([WEIGHTS], 1, 0),
    "grades": (list(GRADES.values()), 2, 1),
    "free-first": ([[(0, *r) for r in sorted(ROOTS)], [(1, 0, 0), (-1, 0, 0)]], 1, 1),
    "two-free": (
        [[(1, 0, 0), (-1, 0, 0)], [(0, *r) for r in sorted(ROOTS)], [(0, 0, 0), (0, 0, 0)]], 1, 2
    ),
    "empty": ([[]], 0, 1),
}


class TestDivide:
    @given(
        n=st.integers(1, 30),
        runs=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wavefront_matches_per_depth_levels(self, n, runs, seed):
        # runs of weights dividing one chain, whose steps are slices, or index arrays on the
        # same chain stored last first; K > n, K < n and n = 1 all occur
        p = next(_grid_primes(7))[0]
        rng = np.random.default_rng(seed)
        start = rng.integers(0, p, size=(n, 5))
        stacks = [rng.integers(0, p, size=(k, 5)) for k in runs]
        chain = np.arange(n), np.arange(-1, n - 1)
        last_first = np.arange(n)[::-1], np.arange(1, n + 1)
        if n > 1:
            assert {type(rows) for rows, _, _ in _steps(*chain, 2)} == {slice}
            assert {type(rows) for rows, _, _ in _steps(*last_first, 2)} == {np.ndarray}
        wavefront, reversed_ = start.copy(), start[::-1].copy()
        _divide(wavefront, [(s, _steps(*chain, len(s))) for s in stacks], p)
        _divide(reversed_, [(s, _steps(*last_first, len(s))) for s in stacks], p)
        assert (wavefront == reversed_[::-1]).all()
        assert (wavefront == divide_row_by_row(start, stacks, p)).all()

    @pytest.mark.parametrize("k, n", [(1, 1), (9, 1), (1, 2), (1, 30), (5, 3), (17, 23), (40, 2)])
    def test_wavefront_writes_once_per_step(self, k, n):
        # K + n - 2 writes for one grade on a chain of n >= 2 rows, not K (n - 1), whether the
        # steps are slices or index arrays
        class Counting(np.ndarray):
            writes = 0

            def __setitem__(self, key, value):
                Counting.writes += 1
                super().__setitem__(key, value)

        p = next(_grid_primes(7))[0]
        stack = np.full((k, 5), 2)
        expected = divide_row_by_row(np.ones((n, 5), dtype=np.int64), [stack], p)
        # the chain, then the same chain stored last first
        for depth, source, order in (
            (np.arange(n), np.arange(-1, n - 1), slice(None)),
            (np.arange(n)[::-1], np.arange(1, n + 1), slice(None, None, -1)),
        ):
            Counting.writes = 0
            series = np.ones((n, 5), dtype=np.int64).view(Counting)
            _divide(series, [(stack, _steps(depth, source, k))], p)
            assert Counting.writes == (k + n - 2 if n > 1 else 0)
            assert (np.asarray(series)[order] == expected).all()

    @pytest.mark.parametrize(
        "grades, d",
        [([WEIGHTS], 22), (list(GRADES.values()), 6), ([WEIGHTS], 60), (list(GRADES.values()), 12)],
    )
    def test_one_division_of_p_and_one_of_e_per_pass(self, monkeypatch, grades, d):
        # P(1/x), the factor of the weights with x-exponent -1, is P(x) mirrored, so no pass
        # divides by those weights; a pass is one CRT prime and divides P, E and F once each,
        # E by the x-exponent 0 weights of the grades with x-weights, F by the free grades'
        calls, passes = [], []

        def spy(series, runs, p):
            runs = list(runs)
            calls.append(sum(len(values) for values, _ in runs))
            return _divide(series, runs, p)

        def count(*args):
            passes.append(args)
            return _weyl_sums(*args)

        monkeypatch.setattr(molien, "_divide", spy)
        monkeypatch.setattr(molien, "_weyl_sums", count)
        _dimensions(grades, d, None)
        free = _free_of_p(grades)
        up = sum(w[0] == 1 for ws in grades for w in ws)
        e_free = sum(w[0] == 0 for g, ws in enumerate(grades) if g not in free for w in ws)
        f_free = sum(len(grades[g]) for g in free)
        assert [p for *_, p in passes] == [q for q, _ in _crt_primes(len(WEIGHTS), d)]
        assert calls == [up, e_free, f_free] * len(passes)

    @pytest.mark.parametrize("d, p_rows", [(0, 1), (1, 3), (12, 28), (13, 36)])
    def test_p_holds_only_the_rows_free_of_the_qutrit_degree(self, monkeypatch, d, p_rows):
        # the qutrit grade has no weight with x-exponent +1, so P's rows are the
        # (qubit, corr) degrees of total at most (d + 1) // 2, comb((d + 1) // 2 + 2, 2),
        # E's those of total at most d, and F's the qutrit degrees 0..d
        rows = []

        def spy(series, runs, p):
            rows.append(len(series))
            return _divide(series, runs, p)

        monkeypatch.setattr(molien, "_divide", spy)
        poincare_multigraded(d)
        assert p_rows == math.comb((d + 1) // 2 + 2, 2)
        assert rows == [p_rows, math.comb(d + 2, 2), d + 1] * (len(rows) // 3)

    @pytest.mark.parametrize(
        "grades", [[WEIGHTS], list(GRADES.values()), [[]]], ids=["weights", "grades", "empty"]
    )
    @pytest.mark.parametrize("d", [0, 1, 12, 13])
    def test_each_pass_divides_the_estimated_p_rows(self, monkeypatch, grades, d):
        # each pass divides P first, on exactly the rows _estimated_bytes counts for P:
        # every half-degree row of one grade, the qutrit-free ones of GRADES, and the
        # single row 1 of a grade with no weights
        rows = []

        def spy(series, runs, p):
            rows.append(len(series))
            return _divide(series, runs, p)

        monkeypatch.setattr(molien, "_divide", spy)
        _dimensions(grades, d, None)
        passes = len(_crt_primes(sum(map(len, grades)), d))
        assert rows[::3] == [_p_rows(grades, d)] * passes

    @pytest.mark.parametrize("name", list(GROUPED))
    @pytest.mark.parametrize("d", [0, 5, 12])
    def test_e_and_f_divide_the_multidegrees_of_their_grades(self, monkeypatch, name, d):
        # E is held on the multidegrees of the u grades with x-weights, comb(d + u, u) rows,
        # and F on those of the f free grades, comb(d + f, f) rows; one grade's F is the row 1
        grades, u, f = GROUPED[name]
        assert len(grades) - len(_free_of_p(grades)) == u
        rows = []

        def spy(series, runs, p):
            rows.append(len(series))
            return _divide(series, runs, p)

        monkeypatch.setattr(molien, "_divide", spy)
        _dimensions(grades, d, None)
        passes = len(_crt_primes(sum(map(len, grades)), d))
        assert rows == [_p_rows(grades, d), math.comb(d + u, u), math.comb(d + f, f)] * passes

    def test_one_grade_divides_chains(self, monkeypatch):
        kinds = []

        def spy(depth, source, k):
            steps = _steps(depth, source, k)
            kinds.append({type(rows) for rows, _, _ in steps})
            return steps

        monkeypatch.setattr(molien, "_steps", spy)
        _dimensions([WEIGHTS], 22, None)
        assert kinds == [{slice}, {slice}]  # the half rows of P, then E
        kinds.clear()
        _dimensions(list(GRADES.values()), 6, None)
        # P and E span the qubit and correlation degrees; F, the qutrit degrees, is a chain
        assert kinds == [{np.ndarray}] * 4 + [{slice}]

    @given(
        counts=st.lists(st.integers(1, 4), min_size=1, max_size=7),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(counts=[1], k=3, seed=0)  # n = 1
    @example(counts=[2, 3, 1, 2], k=9, seed=1)  # k above the deepest depth
    @example(counts=[1, 2, 4, 3, 2, 1, 3], k=2, seed=2)  # k below it
    def test_steps_group_shuffled_rows_by_depth(self, counts, k, seed):
        # several rows per depth, stored in shuffled order, each reading a row one depth lower;
        # the depth-0 rows' sources lie out of range, so reading one would raise
        p = next(_grid_primes(7))[0]
        rng = np.random.default_rng(seed)
        depth = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        source = np.full(len(depth), len(depth) + 10)
        for level in range(1, len(counts)):
            rows = np.flatnonzero(depth == level)
            source[rows] = rng.choice(np.flatnonzero(depth == level - 1), size=len(rows))
        start = rng.integers(0, p, size=(len(depth), 5))
        stack = rng.integers(0, p, size=(k, 5))
        series = start.copy()
        _divide(series, [(stack, _steps(depth, source, k))], p)
        expected = start.copy()
        for w in stack[::-1]:  # depth by depth, one weight after another (oracle)
            for level in range(1, len(counts)):
                for r in np.flatnonzero(depth == level):
                    expected[r] = (expected[r] + w * expected[source[r]]) % p
        assert (series == expected).all()

    @pytest.mark.parametrize("k", range(4))
    def test_multidegrees_by_total_then_lexicographic(self, k):
        # P is E's prefix of low totals, and _contract's counts cut E by total, in this order
        for d in range(9):
            cube = [c for c in itertools.product(range(d + 1), repeat=k) if sum(c) <= d]
            assert _multidegrees(k, d) == sorted(cube, key=lambda c: (sum(c), c)), d


#: The primes up to the square root of 2^31, for trial division.
SMALL_PRIMES = np.array([q for q in range(2, math.isqrt(2**31) + 1) if is_prime(q)])


def trial_division_grid_primes(m: int):
    """Primes p = k*m + 1 < 2^31, largest first, each with the first
    c^((p - 1)/m), c = 2, 3, ..., whose m powers are distinct (oracle)."""
    for p in range((2**31 - 2) // m * m + 1, m, -m):
        if (p % SMALL_PRIMES[SMALL_PRIMES <= math.isqrt(p)]).all():
            roots = (pow(c, (p - 1) // m, p) for c in range(2, p))
            yield p, next(w for w in roots if len({pow(w, j, p) for j in range(m)}) == m)


class TestGridPrimes:
    def test_is_prime_matches_trial_division(self):
        assert [n for n in range(200_000) if _is_prime(n)] == [
            n for n in range(200_000) if is_prime(n)
        ]
        near_top = range(2**31 - 400, 2**31)
        assert [n for n in near_top if _is_prime(n)] == [n for n in near_top if is_prime(n)]

    @pytest.mark.parametrize("n", [2047, 1_373_653, 25_326_001])
    def test_rejects_strong_pseudoprimes(self, n):
        # the least strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5
        assert not is_prime(n) and not _is_prime(n)

    def test_grid_primes_match_trial_division(self):
        for m in range(2, 121):
            got = list(itertools.islice(_grid_primes(m), 3))
            assert got == list(itertools.islice(trial_division_grid_primes(m), 3)), m

    def test_quadrature_prime_is_none_of_the_engines(self):
        # a shared prime would let an error in the engine's other residues or
        # its lift agree with the quadrature
        for d in [*range(121), 230, 500, 900, 985]:
            primes = [p for p, _ in _crt_primes(len(WEIGHTS), d)]
            assert quadrature_grid(d)[1] not in primes, d


def compose(a, b):
    """The matrix product a b of two maps ((a, b), (c, d))."""
    return tuple(
        tuple(sum(a[r][s] * b[s][c] for s in range(2)) for c in range(2)) for r in range(2)
    )


def generated_group(generators):
    """Closure of a set of 2x2 integer matrices under products (oracle)."""
    group = {((1, 0), (0, 1))}
    while True:
        grown = group | {compose(a, g) for a in group for g in generators}
        if grown == group:
            return group
        group = grown


#: The automorphisms of the A2 roots, from the swap of y and z, the map
#: y -> 1/(yz), z -> y of order 3, and negation.
A2_GROUP = generated_group([((0, 1), (1, 0)), ((-1, 1), (-1, 0)), ((-1, 0), (0, -1))])


def apply_map(a, w):
    return tuple(a[r][0] * w[0] + a[r][1] * w[1] for r in range(2))


def orbits_by_enumeration(m: int):
    """The orbits of A2_GROUP on the grid exponents (i, j) mod m; a map
    moves a point by its transpose (oracle)."""
    orbits = set()
    for i in range(m):
        for j in range(m):
            orbits.add(frozenset(
                ((a[0][0] * i + a[1][0] * j) % m, (a[0][1] * i + a[1][1] * j) % m)
                for a in A2_GROUP
            ))
    return orbits


class TestOrbits:
    def test_maps_are_the_root_automorphisms(self):
        assert len(A2_GROUP) == 12 and len(A2_MAPS) == 12
        assert set(A2_MAPS) == A2_GROUP
        for a in A2_MAPS:
            assert {apply_map(a, r) for r in ROOTS} == ROOTS

    def test_grades_meet_the_engine_precondition(self):
        # the engine does not check its grades: the maps fix each grade's
        # weights with each x-exponent, those with x-exponent -1 have the
        # (y, z) parts of those with +1, and every exponent is -1, 0 or 1
        for weights in [WEIGHTS, *GRADES.values()]:
            assert {e for w in weights for e in w} <= {-1, 0, 1}
            parts = {s: collections.Counter(w[1:] for w in weights if w[0] == s) for s in (1, -1, 0)}
            assert parts[1] == parts[-1]
            for s, part in parts.items():
                for a in A2_MAPS:
                    image = collections.Counter(apply_map(a, w) for w in part.elements())
                    assert image == part, (a, s)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7, 12, 25])
    def test_orbits_match_enumeration(self, m):
        reps, perm, starts = _orbits(m)
        found = {
            frozenset(divmod(int(v), m) for v in run)
            for run in np.split(perm, starts[1:])
        }
        expected = orbits_by_enumeration(m)
        assert found == expected
        assert reps.tolist() == sorted(min(i * m + j for i, j in o) for o in expected)
        assert _orbit_count(m) == len(expected)

    def test_orbit_count_is_about_a_twelfth_of_the_grid(self):
        for m in range(1, 300):
            count = _orbit_count(m)
            assert m * m / 12 < count <= m * m / 12 + m, m
        assert len(_orbits(113)[0]) == _orbit_count(113) == 1121

    def test_orbit_count_closed_form_counts_the_orbits(self):
        for m in range(1, 151):
            assert _orbit_count(m) == len(_orbits(m)[0]), m

    @pytest.mark.parametrize("m", [3, 8, 25, 60])
    def test_orbit_weyl_sums_add_up_to_the_grid_sum(self, m):
        p, omega = next(_grid_primes(m))
        powers = np.array([pow(omega, a, p) for a in range(m)], dtype=np.int64)
        reps, perm, starts = _orbits(m)
        sums = _weyl_sums(powers, perm, starts, p)

        def weyl(i, j):
            return (1 - pow(omega, -i, p)) * (1 - pow(omega, -j, p)) * (1 - pow(omega, -i - j, p))

        full = sum(weyl(i, j) for i in range(m) for j in range(m))
        assert int(sums.sum()) % p == full % p
        by_rep = {min(i * m + j for i, j in o): o for o in orbits_by_enumeration(m)}
        for r, s in zip(reps.tolist(), sums.tolist()):
            assert s == sum(weyl(i, j) for i, j in by_rep[r]) % p


#: The transpositions of the eigenvalue exponents (a, b) and (b, c) of an SU(3)
#: torus element, acting on its grid point (i, j) = (a - b, b - c).
TRANSPOSITIONS = (lambda i, j: (-i, i + j), lambda i, j: (i + j, -j))


def s3_orbits_by_closure(m: int) -> set:
    """The orbits of the grid points (i, j) mod m under TRANSPOSITIONS, each
    grown from a point until no transposition adds a new one (oracle)."""
    orbits = set()
    for start in itertools.product(range(m), repeat=2):
        orbit, frontier = {start}, [start]
        while frontier:
            point = frontier.pop()
            for transpose in TRANSPOSITIONS:
                image = tuple(v % m for v in transpose(*point))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        orbits.add(frozenset(orbit))
    return orbits


def names_reached(name: str) -> set:
    """The names in the source of the molien function name and, transitively,
    of every molien function it names."""
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        seen.add(current)
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(molien, current))))
        for node in ast.walk(tree):
            found = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(found, str) and found not in seen:
                if inspect.isfunction(getattr(molien, found, None)):
                    todo.append(found)
                else:
                    seen.add(found)
    return seen


class TestS3Orbits:
    def test_transpositions_fix_every_grade(self):
        # weight w at a transposed point is the weight whose (y, z)-exponents are
        # w's exponents at the images of (1, 0) and (0, 1); x is untouched
        for weights in GRADES.values():
            for transpose in TRANSPOSITIONS:
                (a, b), (c, d) = transpose(1, 0), transpose(0, 1)
                image = [(x, y * a + z * b, y * c + z * d) for x, y, z in weights]
                assert collections.Counter(image) == collections.Counter(weights)

    @pytest.mark.parametrize("m", [3, 4, 6, 9, 18, 25])
    def test_orbits_match_the_closure(self, m):
        reps, inverse = _s3_orbits(m)
        points = np.arange(m * m)
        found = {
            frozenset(divmod(int(v), m) for v in points[inverse == r]) for r in range(len(reps))
        }
        expected = s3_orbits_by_closure(m)
        assert found == expected
        assert reps.tolist() == sorted(min(i * m + j for i, j in o) for o in expected)
        assert _s3_orbit_count(m) == len(expected)

    def test_orbit_count_is_about_a_sixth_of_the_grid(self):
        for m in range(1, 300):
            assert m * m / 6 < _s3_orbit_count(m) <= m * m / 6 + m, m
        assert len(_s3_orbits(113)[0]) == _s3_orbit_count(113) == 2185

    def test_quadrature_names_no_engine_code(self):
        reached = names_reached("quadrature_coefficients")
        assert {"_slice_sums", "_s3_orbits", "_quadrature_bytes"} <= reached
        engine = {"A2_MAPS", "_orbits", "_weyl_sums", "_steps", "_divide", "_crt_primes"}
        assert not reached & engine


class TestSeries:
    def test_low_degrees(self):
        assert poincare_coefficients(6) == [1, 0, 3, 4, 15, 25, 90]

    def test_degree_zero_only(self):
        assert poincare_coefficients(0) == [1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            poincare_coefficients(-1)

    def test_full_head(self, coeffs19):
        assert coeffs19 == [
            1, 0, 3, 4, 15, 25, 90, 170, 489, 1059, 2600, 5641, 12872,
            27099, 57990, 118254, 240187, 472273, 919432, 1745295,
        ]

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_ct_shortcut_matches_full_product(self, d):
        # the engine's dot against the weyl factor on a pruned window ==
        # literal CT of the full product
        h = engine_character(WEIGHTS, d)
        terms = {
            (a - d, b - d, c - d): int(v) for (a, b, c), v in np.ndenumerate(h) if v
        }
        full = dict_mul(weyl_by_expansion(), terms).get((0, 0, 0), 0)
        assert poincare_coefficients(d)[d] == full

    def test_memory_budget_advisory(self):
        with pytest.raises(MemoryBudgetError, match="feasible max degree"):
            poincare_coefficients(19, memory_budget=30_000)

    def test_closed_form_through_230(self):
        # chains longer than the 17 weights of E, several primes, and past
        # the denominator degree 105
        assert verify_theorem(poincare_coefficients(230)).checks["theorem_match"]

    @pytest.mark.parametrize(
        "tags, degrees", [(None, (0, 3, 12, 35, 110)), (tuple(GRADES), (0, 3, 8, 20, 30, 40, 60))]
    )
    def test_estimate_bounds_the_traced_peak(self, tags, degrees):
        grades = [WEIGHTS] if tags is None else [GRADES[t] for t in tags]
        for d in degrees:
            tracemalloc.start()
            try:
                _dimensions(grades, d, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _estimated_bytes(grades, d), (d, peak)


    @pytest.mark.parametrize("n", [1, 27, 65535, 65536, 70000])
    def test_contraction_is_exact(self, n):
        # products of entries up to p - 1 summed over n columns overflow int64 from n = 3 on;
        # 2 limbs hold below 2^16 columns and 3 from there, against Python's integers
        p = 2**31 - 1
        rng = np.random.default_rng(n)
        e = rng.integers(p - 2**20, p, size=(4, n))
        f = rng.integers(p - 2**20, p, size=(3, n))
        e[0], f[0] = p - 1, p - 1
        counts = [4, 2, 1]
        expected = [
            sum(int(a) * int(b) for a, b in zip(e[i], f[j])) % p
            for j, count in enumerate(counts)
            for i in range(count)
        ]
        assert _contract(e, f, counts, p).tolist() == expected

    def test_series_estimate_and_feasible_degrees(self):
        # one grade: F is the row 1 and E a chain, so the series keeps its estimate and 985;
        # the multigraded engine holds E on two grades and F on one
        assert [_estimated_bytes([WEIGHTS], d) for d in (0, 3, 22, 985, 986)] == [
            18108, 22984, 112700, 1071077240, 1073893020
        ]
        for grades, feasible in (([WEIGHTS], 985), (list(GRADES.values()), 175)):
            assert _estimated_bytes(grades, feasible) <= DEFAULT_MEMORY_BUDGET
            assert _estimated_bytes(grades, feasible + 1) > DEFAULT_MEMORY_BUDGET

    def test_estimates_never_decrease_with_the_degree(self):
        # _check_budget bisects on them, which names the largest feasible degree only if
        # no higher degree has a smaller estimate
        for estimate in (
            _quadrature_bytes,
            functools.partial(_estimated_bytes, [WEIGHTS]),
            functools.partial(_estimated_bytes, list(GRADES.values())),
        ):
            values = [estimate(d) for d in range(1001)]
            assert all(a <= b for a, b in zip(values, values[1:]))


#: Weight systems the paper does not cover, each as one grade, with the invariant ring's series
#: (numerator coefficients by degree, denominator factors (e, m) for (1 - t^e)^m) and its
#: source.  The qubit weights are SO(3) on vectors, the qutrit weights SU(3) on traceless
#: hermitian matrices.
CLASSICAL = {
    # one and two vectors: H. Weyl, The Classical Groups (1939), ch. II
    "qubit": (["qubit"], [1], [(2, 1)]),
    "qubit2": (["qubit"] * 2, [1], [(2, 3)]),
    # three vectors: the same, with the determinant in degree 3
    "qubit3": (["qubit"] * 3, [1, 0, 0, 1], [(2, 6)]),
    # one matrix: C. Chevalley, "Invariants of finite groups generated by reflections",
    # Amer. J. Math. 77 (1955); no weight has x-exponent +1, so P is the row 1
    "qutrit": (["qutrit"], [1], [(2, 1), (3, 1)]),
    # two matrices: Y. Teranishi, "The ring of invariants of matrices", Nagoya Math. J. 104 (1986)
    "qutrit2": (["qutrit"] * 2, [1, 0, 0, 0, 0, 0, 1], [(2, 3), (3, 4), (4, 1)]),
    # a vector and a matrix: the product of the first and the fourth
    "qubit-qutrit": (["qubit", "qutrit"], [1], [(2, 2), (3, 1)]),
}


class TestClassicalClosedForms:
    @pytest.mark.parametrize("name", CLASSICAL)
    def test_series_through_degree_200(self, name):
        tags, numerator, factors = CLASSICAL[name]
        dims = _dimensions([sum((GRADES[t] for t in tags), ())], 200, None)
        expected = _taylor_head(numerator, reference._expand_factors(factors), 200)
        assert [dims[(d,)] for d in range(201)] == expected


class TestQuadrature:
    def test_residues_match_the_engine_through_35(self):
        exact = poincare_coefficients(35)
        for d in range(36):
            p = quadrature_grid(d)[1]
            assert quadrature_coefficients(d) == [c % p for c in exact[: d + 1]], d

    def test_matches_exact_through_6(self):
        exact = poincare_coefficients(6)
        p = quadrature_grid(6)[1]
        assert max(exact) < p  # the residues are the coefficients themselves
        assert quadrature_coefficients(6) == exact

    def test_matches_exact_through_22(self):
        exact = poincare_coefficients(22)
        p = quadrature_grid(22)[1]
        assert quadrature_coefficients(22) == [c % p for c in exact]

    @pytest.mark.parametrize("max_degree", [4, 5])  # grids 7 and 8: odd and even
    def test_folded_slices_equal_the_full_x_grid(self, max_degree):
        m, p, omega = quadrature_grid(max_degree)
        sums = _slice_sums(max_degree, p, omega, np.arange(m))
        assert (sums[1:] == sums[:0:-1]).all()  # slice M - a equals slice a
        full = sum((1 - pow(omega, -a, p)) * sums[a].astype(object) for a in range(m))
        expected = [v * pow(m**3, -1, p) % p for v in full]
        assert quadrature_coefficients(max_degree) == expected
        exact = poincare_coefficients(max_degree)
        assert expected == [c % p for c in exact]

    def test_rejects_a_grid_without_a_prime(self):
        # M = 2^31: no p < 2^31 is 1 mod M
        with pytest.raises(ValueError, match=r"no prime below 2\^31 .* grid size 2147483648"):
            quadrature_coefficients(2**31 - 3)

    def test_huge_grid_is_refused_before_factoring(self):
        # M = 10^18 + 3 is past 2^31 - 2, so no p = k*M + 1 < 2^31 exists; factoring M
        # by trial division first would take sqrt(M) steps, over a minute
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"no prime below 2\^31 .* grid size 10{17}3$"):
            quadrature_grid(10**18)
        assert time.perf_counter() - start < 1.0

    def test_largest_grid_with_a_prime(self):
        # M = 2^31 - 2 is the last grid with such a p: 2^31 - 1 itself
        assert next(_grid_primes(2**31 - 2))[0] == 2**31 - 1

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            quadrature_coefficients(-2)

    def test_independent_of_the_engine(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the quadrature must not call the exact engine")

        exact = poincare_coefficients(6)
        for name in ("_dimensions", "_divide", "_orbits", "_weyl_sums", "_steps"):
            monkeypatch.setattr(molien, name, engine)
        with pytest.raises(AssertionError, match="exact engine"):
            poincare_coefficients(6)
        p = quadrature_grid(6)[1]
        assert quadrature_coefficients(6) == [c % p for c in exact]

    def test_memory_budget_refuses_a_large_grid(self):
        with pytest.raises(MemoryBudgetError, match="feasible max degree is 895"):
            quadrature_coefficients(896)
        assert _quadrature_bytes(895) <= DEFAULT_MEMORY_BUDGET < _quadrature_bytes(896)

    def test_memory_budget_advisory_degree_runs(self):
        budget = 2_000_000
        with pytest.raises(MemoryBudgetError, match="feasible max degree is 36"):
            quadrature_coefficients(40, memory_budget=budget)
        assert len(quadrature_coefficients(36, memory_budget=budget)) == 37
        with pytest.raises(MemoryBudgetError):
            quadrature_coefficients(37, memory_budget=budget)

    @pytest.mark.parametrize(
        "max_degree, budget",
        [(0, None), (9, None), (15, None), (36, None), (36, 2_000_000), (60, None), (80, None)],
    )
    def test_estimate_bounds_the_traced_peak(self, max_degree, budget):
        # the budget goes in second and positionally, as verify passes it; from 60 on the
        # orbits split into several blocks
        tracemalloc.start()
        try:
            quadrature_coefficients(max_degree, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _quadrature_bytes(max_degree), peak

    @pytest.mark.parametrize("orbits", [1, 3])
    def test_orbit_blocks_do_not_change_the_residues(self, monkeypatch, orbits):
        # BLOCK_BYTES holds h at every x value for that many orbits per block
        degrees = [*range(13), 22]
        exact = poincare_coefficients(22)
        default = {d: quadrature_coefficients(d) for d in degrees}
        for d in degrees:
            m, p, _ = quadrature_grid(d)
            monkeypatch.setattr(molien, "BLOCK_BYTES", 8 * (d + 1) * (m // 2) * orbits)
            assert quadrature_coefficients(d) == default[d] == [c % p for c in exact[: d + 1]], d

    def test_feasible_degree_never_exceeds_the_engines(self):
        # so verify can run the quadrature first: every degree the engine refuses,
        # the quadrature refuses too, and no refusal follows work
        def feasible(compute, budget):
            with pytest.raises(MemoryBudgetError) as err:
                compute(10**7, memory_budget=budget)
            found = re.search(r"feasible max degree is (\d+)", str(err.value))
            return int(found.group(1)) if found else -1

        for budget in (2**e for e in range(6, 55)):
            quadrature = feasible(quadrature_coefficients, budget)
            engine = feasible(poincare_coefficients, budget)
            assert quadrature <= engine, (budget, quadrature, engine)


class TestVerifyTheorem:
    def test_engine_output_passes(self, coeffs19):
        report = verify_theorem(coeffs19)
        assert all(report.checks.values())
        assert report.checks["theorem_match"] and report.first_mismatch is None
        assert report.degree_gap == 35
        assert len(report.hsop_degrees) == 24

    def test_detects_tampered_coefficient(self, coeffs19):
        tampered = list(coeffs19)
        tampered[7] += 1
        report = verify_theorem(tampered)
        assert not report.checks["theorem_match"]
        assert report.first_mismatch == 7
        assert not all(report.checks.values())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            verify_theorem([])

    def test_series_head_is_a_named_check(self):
        assert all(verify_theorem([1]).checks.values())
        for head in ([2], [1, 1]):
            report = verify_theorem(head)
            assert report.checks["series_head"] is False
            assert not all(report.checks.values())

    @pytest.mark.parametrize(
        "name, index, delta, check",
        [
            pytest.param(
                "NONNEG_NUMERATOR", 10, 1, "transform_identity", id="transform_identity-N_star"
            ),
            pytest.param(
                "NONNEG_DENOMINATOR", 8, 1, "transform_identity", id="transform_identity-D_star"
            ),
            pytest.param(
                "NONNEG_NUMERATOR", 1, -1, "nonneg_coefficients", id="nonneg_coefficients-N_star"
            ),
            # one term past degree 105
            pytest.param("DENOMINATOR", 106, 1, "degree_gap_35", id="degree_gap_35-D"),
        ],
    )
    def test_tampered_table_fails_its_check(self, monkeypatch, name, index, delta, check):
        computed = list(reference.TAYLOR_COEFFS)
        assert verify_theorem(computed).checks[check] is True
        # add delta * t^index to the built polynomial, lengthening it if needed
        tampered = list(getattr(reference, name))
        tampered += [0] * (index + 1 - len(tampered))
        tampered[index] += delta
        monkeypatch.setattr(reference, name, tuple(tampered))
        report = verify_theorem(computed)
        assert report.checks[check] is False
        assert not all(report.checks.values())

    def test_calls_nothing_in_reference(self, monkeypatch, coeffs19):
        # the closed form is read as constants built at import, never rebuilt
        def refuse(*args):
            raise AssertionError("verify_theorem rebuilt the closed form")

        monkeypatch.setattr(reference, "_expand_factors", refuse)
        monkeypatch.setattr(reference, "_mirror_complete", refuse)
        assert all(verify_theorem(coeffs19).checks.values())


class TestMultigraded:
    def test_degree_zero(self):
        table = poincare_multigraded(0)
        assert table.entries == {(0, 0, 0): 1}

    def test_low_degree_entries_are_the_invariant_multidegrees(self):
        table = poincare_multigraded(3)
        assert table.entries == {
            (0, 0, 0): 1,
            (2, 0, 0): 1,
            (0, 2, 0): 1,
            (0, 0, 2): 1,
            (0, 3, 0): 1,
            (0, 0, 3): 1,
            (1, 1, 1): 1,
            (0, 1, 2): 1,
        }

    def test_row_sums_match_series(self):
        table = poincare_multigraded(5)
        assert table.row_sums() == poincare_coefficients(5)

    def test_row_sums_match_closed_form_through_20(self):
        expansion = _taylor_head(reference.NUMERATOR, reference.DENOMINATOR, 20)
        assert poincare_multigraded(20).row_sums() == expansion

    def test_face_without_correlation_degree(self):
        # with d3 = 0 the qubit part is the SO(3) vector, with invariants C[|r|^2],
        # and the qutrit part the adjoint of SU(3), with invariants C[tr Y^2, tr Y^3]
        entries = poincare_multigraded(24).entries
        for d1 in range(25):
            for d2 in range(25 - d1):
                qutrit = sum((d2 - 3 * c) % 2 == 0 for c in range(d2 // 3 + 1))
                assert entries.get((d1, d2, 0), 0) == (d1 % 2 == 0) * qutrit, (d1, d2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            poincare_multigraded(-1)

    def test_note_mentions_missing_closed_form(self):
        assert "closed form" in MULTIGRADED_NOTE
