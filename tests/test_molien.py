"""Constant-term engine: weights, characters, series, quadrature."""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luinv import molien, reference
from luinv.molien import (
    A2_MAPS,
    DEFAULT_MEMORY_BUDGET,
    MULTIGRADED_NOTE,
    GRADES,
    WEIGHTS,
    MemoryBudgetError,
    _dimensions,
    _divide,
    _estimated_bytes,
    _grid_primes,
    _is_prime,
    _levels,
    _orbit_count,
    _orbits,
    _symmetries,
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
        key = tuple(sum(w[i] for w in combo) for i in range(3))
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
    levels = [_levels(np.arange(d + 1), np.arange(-1, d))]
    _divide(series, ((0, powers[np.dot(w, points) % m]) for w in weights), levels, p)
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

    @given(
        st.lists(
            st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        ),
        st.integers(0, 4),
    )
    def test_dimensions_match_brute_force_ct(self, grades, max_degree):
        expected = {}
        for delta in itertools.product(range(max_degree + 1), repeat=len(grades)):
            if sum(delta) > max_degree:
                continue
            product = weyl_by_expansion()
            for weights, d in zip(grades, delta):
                product = dict_mul(product, brute_force_character(weights, d))
            expected[delta] = product.get((0, 0, 0), 0)
        assert _dimensions(grades, max_degree, None) == expected

    @pytest.mark.parametrize(
        "grades",
        [
            [[(1, 1, 0), (-1, -1, 0), (0, 1, -1), (1, 0, 1), (-1, 0, -1), (0, 0, 1)]],
            [[(1, 0, 1), (-1, 1, 0), (0, 0, -1)], [(1, -1, 0), (-1, -1, -1), (0, 1, 1)]],
        ],
    )
    def test_x_elimination_at_depth(self, grades):
        # x-exponents +1, -1 and 0 in every system, far past the hypothesis depth
        max_degree = 20
        expected = brute_force_dimensions(grades, max_degree)
        assert len(set(expected.values())) >= 5  # not a trivial answer
        assert _dimensions(grades, max_degree, None) == expected

    @pytest.mark.parametrize(
        "grades, symmetries",
        [
            ([[(0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, -1, 0), (-1, 0, -1), (0, -1, -1)]], 2),
            (
                [
                    [(1, 1, 0), (1, 0, 1), (1, 1, 1), (1, -1, 0), (1, 0, -1), (1, -1, -1)]
                    + [(-1, 0, 0)],
                    [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0), (0, 0, -1), (0, -1, -1)],
                ],
                12,
            ),
        ],
    )
    def test_orbit_reduction_matches_brute_force(self, grades, symmetries):
        # systems fixed by two and by all twelve maps, so the engine evaluates
        # one point per orbit of the swap of y and z, or of the whole group
        assert len(_symmetries(grades)) == symmetries
        max_degree = 10
        expected = brute_force_dimensions(grades, max_degree)
        assert len(set(expected.values())) >= 5  # not a trivial answer
        assert _dimensions(grades, max_degree, None) == expected


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
ROOTS = {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}


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

    def test_maps_fix_every_grade_and_x_split(self):
        for weights in [WEIGHTS, *GRADES.values()]:
            for s in (1, -1, 0):
                part = collections.Counter(w[1:] for w in weights if w[0] == s)
                for a in A2_MAPS:
                    image = collections.Counter(apply_map(a, w) for w in part.elements())
                    assert image == part, (a, s)
        assert _symmetries([WEIGHTS]) == A2_MAPS
        assert _symmetries(list(GRADES.values())) == A2_MAPS

    def test_symmetries_of_an_asymmetric_system(self):
        # only the swap of y and z, and the identity, fix {y, z, x yz}
        grades = [[(0, 1, 0), (0, 0, 1), (1, 1, 1)]]
        assert set(_symmetries(grades)) == {((1, 0), (0, 1)), ((0, 1), (1, 0))}
        assert _symmetries([[(0, 1, 0), (1, 1, 1)]]) == (((1, 0), (0, 1)),)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7, 12, 25])
    def test_orbits_match_enumeration(self, m):
        reps, perm, starts = _orbits(m, A2_MAPS)
        found = {
            frozenset(divmod(int(v), m) for v in run)
            for run in np.split(perm, starts[1:])
        }
        expected = orbits_by_enumeration(m)
        assert found == expected
        assert reps.tolist() == sorted(min(i * m + j for i, j in o) for o in expected)
        assert _orbit_count(m, A2_MAPS) == len(expected)

    def test_orbit_count_is_about_a_twelfth_of_the_grid(self):
        for m in range(1, 300):
            count = _orbit_count(m, A2_MAPS)
            assert m * m / 12 < count <= m * m / 12 + m, m
        assert len(_orbits(113, A2_MAPS)[0]) == _orbit_count(113, A2_MAPS) == 1121
        assert _orbit_count(113, (((1, 0), (0, 1)),)) == 113**2

    @pytest.mark.parametrize("m", [3, 8, 25, 60])
    def test_orbit_weyl_sums_add_up_to_the_grid_sum(self, m):
        p, omega = next(_grid_primes(m))
        powers = np.array([pow(omega, a, p) for a in range(m)], dtype=np.int64)
        reps, perm, starts = _orbits(m, A2_MAPS)
        sums = _weyl_sums(powers, perm, starts, p)

        def weyl(i, j):
            return (1 - pow(omega, -i, p)) * (1 - pow(omega, -j, p)) * (1 - pow(omega, -i - j, p))

        full = sum(weyl(i, j) for i in range(m) for j in range(m))
        assert int(sums.sum()) % p == full % p
        by_rep = {min(i * m + j for i, j in o): o for o in orbits_by_enumeration(m)}
        for r, s in zip(reps.tolist(), sums.tolist()):
            assert s == sum(weyl(i, j) for i, j in by_rep[r]) % p


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

    @pytest.mark.parametrize(
        "tags, degrees", [(None, (0, 3, 12, 35, 110)), (tuple(GRADES), (0, 3, 8, 20))]
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
            assert peak <= _estimated_bytes(len(grades), d), (d, peak)


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
        sums = _slice_sums(max_degree, m, p, omega, np.arange(m))
        assert (sums[1:] == sums[:0:-1]).all()  # slice M - a equals slice a
        full = sum((1 - pow(omega, -a, p)) * sums[a].astype(object) for a in range(m))
        expected = [v * pow(m**3, -1, p) % p for v in full]
        assert quadrature_coefficients(max_degree) == expected
        exact = poincare_coefficients(max_degree)
        assert expected == [c % p for c in exact]

    def test_explicit_grid_size(self):
        assert quadrature_coefficients(3, grid_size=6) == [1, 0, 3, 4]
        exact = poincare_coefficients(6)
        for grid in (9, 10, 16):
            p = quadrature_grid(6, grid)[1]
            assert p % grid == 1
            assert quadrature_coefficients(6, grid) == [c % p for c in exact]

    def test_rejects_grid_below_exactness_bound(self):
        with pytest.raises(ValueError, match="exactness bound 9"):
            quadrature_coefficients(6, grid_size=8)
        with pytest.raises(ValueError, match="exactness bound"):
            quadrature_grid(6, 8)

    def test_rejects_a_grid_without_a_prime(self):
        with pytest.raises(ValueError, match="no prime"):
            quadrature_coefficients(3, grid_size=2**31)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            quadrature_coefficients(-2)

    def test_independent_of_the_engine(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the quadrature must not call the exact engine")

        exact = poincare_coefficients(6)
        for name in ("_dimensions", "_divide", "_orbits", "_weyl_sums", "_levels"):
            monkeypatch.setattr(molien, name, engine)
        with pytest.raises(AssertionError, match="exact engine"):
            poincare_coefficients(6)
        p = quadrature_grid(6)[1]
        assert quadrature_coefficients(6) == [c % p for c in exact]

    def test_memory_budget_refuses_a_large_grid(self):
        with pytest.raises(MemoryBudgetError, match="feasible max degree is 503"):
            quadrature_coefficients(3, grid_size=20000)
        assert _quadrature_bytes(503, 506) <= DEFAULT_MEMORY_BUDGET < _quadrature_bytes(504, 507)

    def test_memory_budget_advisory_degree_runs(self):
        budget = 2_000_000
        with pytest.raises(MemoryBudgetError, match="feasible max degree is 22"):
            quadrature_coefficients(30, memory_budget=budget)
        assert len(quadrature_coefficients(22, memory_budget=budget)) == 23
        with pytest.raises(MemoryBudgetError):
            quadrature_coefficients(23, memory_budget=budget)

    @pytest.mark.parametrize(
        "max_degree, grid", [(0, None), (9, None), (15, None), (36, None), (10, 100)]
    )
    def test_estimate_bounds_the_traced_peak(self, max_degree, grid):
        tracemalloc.start()
        try:
            quadrature_coefficients(max_degree, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = max_degree + 3 if grid is None else grid
        assert peak <= _quadrature_bytes(max_degree, m), peak


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
        "table, index, value, check",
        [
            ("NONNEG_NUMERATOR_LOW_COEFFS", 10, 734, "transform_identity"),
            ("NONNEG_DENOMINATOR_FACTORS", 6, (9, 1), "transform_identity"),
            ("NONNEG_NUMERATOR_LOW_COEFFS", 1, -1, "nonneg_coefficients"),
            ("DENOMINATOR_FACTORS", 6, (9, 1), "degree_gap_35"),
        ],
    )
    def test_tampered_table_fails_its_check(self, monkeypatch, table, index, value, check):
        computed = list(reference.TAYLOR_COEFFS)
        assert verify_theorem(computed).checks[check] is True
        tampered = list(getattr(reference, table))
        tampered[index] = value
        monkeypatch.setattr(reference, table, tuple(tampered))
        report = verify_theorem(computed)
        assert report.checks[check] is False
        assert not all(report.checks.values())


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
        expansion = _taylor_head(reference.numerator_poly(), reference.denominator_poly(), 20)
        assert poincare_multigraded(20).row_sums() == expansion

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            poincare_multigraded(-1)

    def test_note_mentions_missing_closed_form(self):
        assert "closed form" in MULTIGRADED_NOTE
