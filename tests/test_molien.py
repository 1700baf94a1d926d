"""Constant-term engine: weights, characters, series, quadrature."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luinv import molien, reference
from luinv.molien import (
    DEFAULT_MEMORY_BUDGET,
    TAGS,
    WEYL_TERMS,
    MemoryBudgetError,
    WeightEntry,
    WeightSystem,
    _character_windows,
    _dimensions,
    _distinct_weight_factors,
    _quadrature_bytes,
    _torus_series,
    _window,
    poincare_coefficients,
    poincare_multigraded,
    quadrature_coefficients,
    verify_theorem,
    weight_system,
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
        assert weight_system().total_multiplicity() == 35

    def test_distinct_weight_multiset(self):
        ws = weight_system()
        combined = {}
        for entry in ws.entries:
            combined[entry.weight] = combined.get(entry.weight, 0) + entry.multiplicity
        assert combined == EXPECTED_MULTIPLICITIES

    def test_subsystem_dimensions(self):
        ws = weight_system()
        dims = {tag: ws.subsystem(tag).total_multiplicity() for tag in TAGS}
        assert dims == {"qubit": 3, "qutrit": 8, "corr": 24}

    def test_subsystem_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            weight_system().subsystem("nope")

    def test_character_at_ones_is_dimension(self):
        assert engine_character(weight_system().weights(), 1).sum() == 35

    def test_weights_are_closed_under_negation(self):
        # conjugation-invariance of the representation
        for weight, mult in EXPECTED_MULTIPLICITIES.items():
            negated = (-weight[0], -weight[1], -weight[2])
            assert EXPECTED_MULTIPLICITIES[negated] == mult


class TestWeylFactor:
    def test_constant_term_is_one(self):
        assert dict(WEYL_TERMS)[(0, 0, 0)] == 1

    def test_vanishes_at_ones(self):
        assert sum(c for _, c in WEYL_TERMS) == 0

    def test_known_coefficients(self):
        w = dict(WEYL_TERMS)
        assert w[(-1, 0, 0)] == -1
        assert w[(0, -1, 0)] == -1
        # the product of all four negative factors
        assert w[(-1, -2, -2)] == 1
        assert w[(0, -2, -2)] == -1
        assert len(WEYL_TERMS) == len(w) == 12
        assert w == weyl_by_expansion()


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


def engine_character(weights, d: int) -> np.ndarray:
    """The engine's h_d from a run to degree 2d, where nothing is pruned."""
    assert _window(d, 2 * d) == (-d, d)
    block = _character_windows([weights], 2 * d)[(d,)]
    assert block.shape == (2 * d + 1,) * 3
    return block


class TestCharacters:
    def test_h0_and_h1(self):
        weights = weight_system().weights()
        assert (engine_character(weights, 0) == dense({(0, 0, 0): 1}, 0)).all()
        h1 = engine_character(weights, 1)
        assert (h1 == dense(EXPECTED_MULTIPLICITIES, 1)).all()

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_newton_matches_brute_force(self, d):
        # the engine's h_d equals enumeration, and satisfies Newton's
        # identity d*h_d = sum_k p_k*h_{d-k} that it no longer relies on
        weights = weight_system().weights()
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
        h = engine_character(weight_system().weights(), d)
        assert h.sum() == math.comb(34 + d, d)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            _character_windows([weight_system().weights()], -1)

    def test_small_system_by_hand(self):
        # {x, 1/x}: size-3 multisets give x^3 + x + 1/x + 1/x^3
        h3 = engine_character([(1, 0, 0), (-1, 0, 0)], 3)
        expected = {(3, 0, 0): 1, (1, 0, 0): 1, (-1, 0, 0): 1, (-3, 0, 0): 1}
        assert (h3 == dense(expected, 3)).all()

    def test_split_multiplicity_entries_are_equivalent(self):
        merged = WeightSystem((WeightEntry((1, 0, 0), 3, "qubit"),))
        split = WeightSystem(
            (
                WeightEntry((1, 0, 0), 2, "qubit"),
                WeightEntry((1, 0, 0), 1, "qubit"),
            )
        )
        h2 = engine_character(merged.weights(), 2)
        assert (h2 == engine_character(split.weights(), 2)).all()
        # six size-2 multisets of three copies of x
        assert (h2 == dense({(2, 0, 0): 6}, 2)).all()

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
        h = engine_character(weight_system().weights(), d)
        terms = {
            (a - d, b - d, c - d): int(v) for (a, b, c), v in np.ndenumerate(h) if v
        }
        full = dict_mul(weyl_by_expansion(), terms).get((0, 0, 0), 0)
        assert poincare_coefficients(d)[d] == full

    def test_memory_budget_advisory(self):
        with pytest.raises(MemoryBudgetError, match="feasible max degree"):
            poincare_coefficients(19, memory_budget=30_000)


class TestQuadrature:
    def test_matches_exact_through_6(self):
        exact = poincare_coefficients(6)
        approx = quadrature_coefficients(6)
        assert [round(a) for a in approx] == exact
        assert max(abs(a - e) for a, e in zip(approx, exact)) < 1e-6

    def test_explicit_grid_size(self):
        approx = quadrature_coefficients(3, grid_size=2 * 3 + 5)
        assert [round(a) for a in approx] == [1, 0, 3, 4]

    def test_rejects_grid_below_exactness_bound(self):
        with pytest.raises(ValueError, match="exactness bound"):
            quadrature_coefficients(6, grid_size=16)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            quadrature_coefficients(-2)

    def test_matches_exact_through_22(self):
        exact = poincare_coefficients(22)
        approx = quadrature_coefficients(22)
        assert [round(a) for a in approx] == exact
        assert max(abs(a - e) / max(1, e) for a, e in zip(approx, exact)) < 1e-9

    def test_newton_matches_binomial_product(self):
        """Newton's identity on power sums against the product of the
        21 truncated binomial series, at random torus points."""
        max_degree = 10
        rng = np.random.default_rng(20)
        x, y, z = np.exp(2j * np.pi * rng.random((3, 7)))
        order = max_degree + 1
        product = np.zeros((x.size, order), dtype=np.complex128)
        product[:, 0] = 1.0
        for (ex, ey, ez), mult in _distinct_weight_factors(weight_system()):
            wval = (x ** ex) * (y ** ey) * (z ** ez)
            factor = np.array(
                [math.comb(k + mult - 1, mult - 1) * wval ** k for k in range(order)]
            ).T
            out = np.zeros_like(product)
            for j in range(order):
                out[:, j:] += product[:, [j]] * factor[:, : order - j]
            product = out
        newton = _torus_series(x, y, z, max_degree)
        assert newton.shape == (order, x.size)
        # |h_d| is at most comb(34 + d, d) on the torus; rounding is relative to that
        scale = np.array([math.comb(34 + d, d) for d in range(order)])[:, None]
        assert np.all(np.abs(newton - product.T) <= 1e-12 * scale)

    def test_independent_of_the_engine(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the quadrature must not call the exact engine")

        exact = poincare_coefficients(6)
        monkeypatch.setattr(molien, "_character_windows", engine)
        with pytest.raises(AssertionError, match="exact engine"):
            poincare_coefficients(6)
        assert [round(a) for a in quadrature_coefficients(6)] == exact

    def test_memory_budget_names_the_largest_grid(self):
        with pytest.raises(MemoryBudgetError, match="largest grid within it .* is 161"):
            quadrature_coefficients(3, grid_size=400)
        assert _quadrature_bytes(3, 161) <= DEFAULT_MEMORY_BUDGET < _quadrature_bytes(3, 162)

    def test_memory_budget_advisory_degree_runs(self):
        budget = 10_000_000
        with pytest.raises(MemoryBudgetError, match="feasible max degree is 10"):
            quadrature_coefficients(20, memory_budget=budget)
        assert len(quadrature_coefficients(10, memory_budget=budget)) == 11
        with pytest.raises(MemoryBudgetError):
            quadrature_coefficients(11, memory_budget=budget)


class TestVerifyTheorem:
    def test_engine_output_passes(self, coeffs19):
        report = verify_theorem(coeffs19)
        assert report.all_passed
        assert report.theorem_match and report.first_mismatch is None
        assert report.degree_gap == 35
        assert len(report.hsop_degrees) == 24

    def test_detects_tampered_coefficient(self, coeffs19):
        tampered = list(coeffs19)
        tampered[7] += 1
        report = verify_theorem(tampered)
        assert not report.theorem_match
        assert report.first_mismatch == 7
        assert not report.all_passed

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            verify_theorem([])

    def test_series_head_is_a_named_check(self):
        assert verify_theorem([1]).all_passed
        for head in ([2], [1, 1]):
            report = verify_theorem(head)
            assert not report.series_head
            assert report.checks()["series_head"] is False
            assert not report.all_passed

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
        assert verify_theorem(computed).checks()[check] is True
        tampered = list(getattr(reference, table))
        tampered[index] = value
        monkeypatch.setattr(reference, table, tuple(tampered))
        report = verify_theorem(computed)
        assert report.checks()[check] is False
        assert not report.all_passed


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

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            poincare_multigraded(-1)

    def test_note_mentions_missing_closed_form(self):
        assert "closed form" in poincare_multigraded(0).note
