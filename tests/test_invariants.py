"""Invariant evaluation: dual routes, invariance, homogeneity, ranks."""

from fractions import Fraction

import numpy as np
import pytest

from luinv.exact import GaussianRational
from luinv.invariants import (
    COMPONENTS,
    DEGREE_THREE,
    DEGREE_TWO,
    MULTIDEGREES,
    InvarianceReport,
    InvariantVector,
    _integer_rank,
    eval_basis_form,
    eval_matrix_form,
    independence_rank,
    invariance_battery,
)
from luinv.states import (
    StateDecomposition,
    apply_local_unitary,
    decompose_state,
    random_local_unitary,
    random_state,
    scale_components,
)

PURE_PRODUCT_VALUES = (
    Fraction(-1, 36),
    Fraction(1, 6),
    Fraction(1, 3),
    Fraction(1, 108),
    Fraction(0),
    Fraction(1, 18),
    Fraction(1, 18),
)


def exact(rows) -> np.ndarray:
    """Object array of GaussianRational from nested ints and Fractions."""
    return np.array([[GaussianRational(v) for v in row] for row in rows], dtype=object)


def exact_identity(n: int) -> np.ndarray:
    return exact([[int(i == j) for j in range(n)] for i in range(n)])


def pure_product_state() -> np.ndarray:
    return exact([[int(i == 0 and j == 0) for j in range(6)] for i in range(6)])


class TestInvariantVector:
    def test_component_access(self):
        vec = InvariantVector(*range(7))
        assert vec.as_tuple() == tuple(range(7))
        assert vec.component("i4") == 3
        assert vec.as_dict()["i7"] == 6
        with pytest.raises(KeyError):
            vec.component("i8")

    def test_multidegree_table_is_complete(self):
        assert set(MULTIDEGREES) == set(COMPONENTS)
        assert set(DEGREE_TWO) | set(DEGREE_THREE) == set(COMPONENTS)
        for name in DEGREE_TWO:
            assert sum(MULTIDEGREES[name]) == 2
        for name in DEGREE_THREE:
            assert sum(MULTIDEGREES[name]) == 3


class TestEvaluation:
    def test_pure_product_fixture(self):
        vec = eval_matrix_form(decompose_state(pure_product_state()))
        assert vec.as_tuple() == PURE_PRODUCT_VALUES

    def test_maximally_mixed_vanishes(self):
        rho = exact_identity(6) * Fraction(1, 6)
        assert eval_matrix_form(decompose_state(rho)).as_tuple() == (Fraction(0),) * 7

    def test_exact_values_are_fractions(self):
        vec = eval_matrix_form(decompose_state(random_state(0, "rational")))
        assert all(isinstance(v, Fraction) for v in vec.as_tuple())

    def test_float_values_are_floats(self):
        vec = eval_matrix_form(decompose_state(random_state(0, "psd_float")))
        assert all(isinstance(v, float) for v in vec.as_tuple())

    @pytest.mark.parametrize("seed", range(10))
    def test_matrix_and_basis_forms_agree_exactly(self, seed):
        dec = decompose_state(random_state(seed, "rational"))
        assert eval_matrix_form(dec).as_tuple() == eval_basis_form(dec).as_tuple()

    def test_forms_agree_on_full_battery_of_states(self, rational_states):
        for rho in rational_states:
            dec = decompose_state(rho)
            assert eval_matrix_form(dec).as_tuple() == eval_basis_form(dec).as_tuple()

    @pytest.mark.parametrize("seed", range(3))
    def test_float_tracks_exact_evaluation(self, seed):
        rho = random_state(seed, "rational")
        exact = eval_matrix_form(decompose_state(rho))
        approx = eval_matrix_form(decompose_state(rho.astype(complex)))
        for name in COMPONENTS:
            assert abs(float(exact.component(name)) - approx.component(name)) < 1e-12

    def test_non_hermitian_correlation_is_caught(self):
        # a doctored corr part with a genuinely non-real cubic trace
        dec = decompose_state(pure_product_state())
        corr = exact([[0] * 6 for _ in range(6)])
        corr[0, 1] = GaussianRational(1)
        corr[1, 2] = GaussianRational(1)
        corr[2, 0] = GaussianRational(0, 1)
        bad = StateDecomposition(dec.local_a, dec.local_b, corr, dec.corr_parts)
        with pytest.raises(ArithmeticError, match="imaginary"):
            eval_matrix_form(bad)


class TestHomogeneity:
    @pytest.mark.parametrize("seed", range(20))
    def test_scaling_law(self, seed):
        dec = decompose_state(random_state(seed, "rational"))
        base = eval_matrix_form(dec)
        a, b, c = Fraction(2), Fraction(-1, 3), Fraction(5, 2)
        scaled = eval_matrix_form(scale_components(dec, a, b, c))
        for name in COMPONENTS:
            d1, d2, d3 = MULTIDEGREES[name]
            assert scaled.component(name) == a**d1 * b**d2 * c**d3 * base.component(name)

    def test_zeroing_components_kills_dependent_invariants(self):
        dec = decompose_state(random_state(2, "rational"))
        no_corr = eval_matrix_form(scale_components(dec, 1, 1, 0))
        for name in COMPONENTS:
            if MULTIDEGREES[name][2] > 0:
                assert no_corr.component(name) == 0


class TestInvarianceBattery:
    def test_passes_and_is_deterministic(self):
        a = invariance_battery(trials=25, seed=7)
        b = invariance_battery(trials=25, seed=7)
        assert a == b
        assert a.passed and a.max_deviation <= 1e-9
        assert a.trials == 25

    def test_different_seeds_give_different_worst_cases(self):
        a = invariance_battery(trials=10, seed=1)
        b = invariance_battery(trials=10, seed=2)
        assert a.max_deviation != b.max_deviation

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            invariance_battery(trials=0, seed=1)

    @pytest.mark.parametrize("trials, seed", [(1, 0), (3, 5), (12, 2**40 + 3)])
    def test_matches_spawned_children(self, trials, seed):
        # reference: every child spawned up front, trial t drawing from child t
        children = np.random.SeedSequence(seed).spawn(trials)
        max_dev, worst_trial, worst_component = 0.0, 0, COMPONENTS[0]
        for t, child in enumerate(children):
            rng = np.random.default_rng(child)
            rho = random_state(rng, kind="psd_float")
            before = eval_matrix_form(decompose_state(rho))
            pair = random_local_unitary(rng)
            after = eval_matrix_form(decompose_state(apply_local_unitary(rho, pair)))
            for name in COMPONENTS:
                v, w = before.component(name), after.component(name)
                dev = abs(w - v) / max(1.0, abs(v))
                if dev > max_dev:
                    max_dev, worst_trial, worst_component = dev, t, name
        expected = InvarianceReport(
            trials=trials,
            tolerance=1e-9,
            max_deviation=max_dev,
            worst_trial=worst_trial,
            worst_component=worst_component,
            passed=max_dev <= 1e-9,
        )
        assert invariance_battery(trials, seed) == expected


class TestIndependence:
    def test_integer_rank_known_cases(self):
        assert _integer_rank([[1, 0], [0, 1]]) == 2
        assert _integer_rank([[1, 2], [2, 4]]) == 1
        assert _integer_rank([[0, 0], [0, 0]]) == 0
        assert _integer_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2

    def test_expected_ranks(self, rational_states):
        sample = rational_states[:12]
        assert independence_rank(sample, 2) == 3
        assert independence_rank(sample, 3) == 4

    def test_degenerate_family_has_lower_rank(self):
        # states with only a qubit part: every Y- or Z-dependent
        # invariant vanishes identically
        x = exact([[Fraction(1, 12), 0], [0, Fraction(-1, 12)]])
        rho = exact_identity(6) * Fraction(1, 6) + np.kron(x, exact_identity(3))
        states = [rho]
        assert independence_rank(states, 2) == 1
        assert independence_rank(states, 3) == 0

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            independence_rank([], 4)

    def test_rejects_float_states(self):
        with pytest.raises(ValueError, match="exact"):
            independence_rank([random_state(0, "psd_float")], 2)
