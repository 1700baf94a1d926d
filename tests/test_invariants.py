"""Invariant evaluation: dual routes, stacks, invariance, homogeneity, ranks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from luinv import invariants
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
    LocalUnitaryPair,
    StateDecomposition,
    apply_local_unitary,
    decompose_state,
    embed,
    kron,
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


def exact(re_rows, im_rows=None) -> np.ndarray:
    """Embedded object array from nested ints and Fractions (real, imaginary part)."""
    re = np.array(re_rows, dtype=object)
    im = np.zeros_like(re) if im_rows is None else np.array(im_rows, dtype=object)
    return embed(re, im)


def exact_identity(n: int) -> np.ndarray:
    return exact([[int(i == j) for j in range(n)] for i in range(n)])


def pure_product_state() -> np.ndarray:
    return exact([[int(i == 0 and j == 0) for j in range(6)] for i in range(6)])


class TestInvariantVector:
    def test_component_access(self):
        vec = InvariantVector(*range(7))
        assert vec.as_tuple() == tuple(range(7))
        assert vec.as_dict()["i4"] == 3
        assert vec.as_dict()["i7"] == 6

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
        approx = eval_matrix_form(decompose_state(rho.astype(float)))
        for name in COMPONENTS:
            assert abs(float(exact.as_dict()[name]) - approx.as_dict()[name]) < 1e-12

    def test_non_hermitian_correlation_is_caught(self):
        # a doctored corr part with a genuinely non-real cubic trace
        dec = decompose_state(pure_product_state())
        re = [[0] * 6 for _ in range(6)]
        im = [[0] * 6 for _ in range(6)]
        re[0][1] = re[1][2] = im[2][0] = 1
        corr = exact(re, im)
        bad = StateDecomposition(dec.local_a, dec.local_b, corr, dec.corr_parts, dec.scale)
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
            assert scaled.as_dict()[name] == a**d1 * b**d2 * c**d3 * base.as_dict()[name]

    def test_zeroing_components_kills_dependent_invariants(self):
        dec = decompose_state(random_state(2, "rational"))
        no_corr = eval_matrix_form(scale_components(dec, 1, 1, 0))
        for name in COMPONENTS:
            if MULTIDEGREES[name][2] > 0:
                assert no_corr.as_dict()[name] == 0


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

    @pytest.mark.parametrize("trials, seed", [(1, 0), (3, 5), (12, 2**40 + 3), (130, 9)])
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
                v, w = before.as_dict()[name], after.as_dict()[name]
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

    @pytest.mark.parametrize("chunk", [1, 7, 130, 1000])
    def test_report_does_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        # 130 trials straddle two chunk boundaries at the default size of 64
        expected = invariance_battery(130, 4)
        monkeypatch.setattr(invariants, "BATTERY_CHUNK", chunk)
        assert invariance_battery(130, 4) == expected

    def test_decomposes_chunks_not_trials(self, monkeypatch):
        # a return to one decomposition per state fails here
        calls = []

        def counted(rho):
            calls.append(rho.shape)
            return decompose_state(rho)

        monkeypatch.setattr(invariants, "decompose_state", counted)
        assert invariance_battery(300, 8).passed
        assert len(calls) <= 2 * math.ceil(300 / invariants.BATTERY_CHUNK)
        assert sum(shape[0] for shape in calls) == 600


def float_stack(n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([random_state(rng, "psd_float") for _ in range(n)])


def non_hermitian(rho):
    off = np.zeros((6, 6))
    off[0, 1] = 1e-3
    return rho + embed(off, np.zeros((6, 6)))


def with_nan(rho):
    rho = rho.copy()
    rho[2, 3] = rho[3, 2] = np.nan
    return rho


def overflowing(rho):
    # hermitian with unit trace, but its invariants overflow to inf and nan
    re = np.eye(6) / 6
    re[0, 1] = re[1, 0] = 1e200
    return embed(re, np.zeros((6, 6)))


class TestStacks:
    @pytest.mark.parametrize("n", [1, 7, 64, 65])
    def test_stack_values_equal_each_state_alone_bit_for_bit(self, n):
        stack = float_stack(n)
        values = eval_matrix_form(decompose_state(stack))
        for name in COMPONENTS:
            assert values.as_dict()[name].shape == (n,)
        for i, rho in enumerate(stack):
            alone = eval_matrix_form(decompose_state(rho))
            for name in COMPONENTS:
                assert values.as_dict()[name][i] == alone.as_dict()[name]

    def test_conjugated_stack_equals_each_state_alone(self):
        stack = float_stack(5, seed=2)
        pairs = [random_local_unitary(seed) for seed in range(5)]
        stacked_pair = LocalUnitaryPair(
            np.stack([p.u2 for p in pairs]), np.stack([p.u3 for p in pairs])
        )
        conjugated = apply_local_unitary(stack, stacked_pair)
        for i, pair in enumerate(pairs):
            assert np.array_equal(conjugated[i], apply_local_unitary(stack[i], pair))

    @pytest.mark.parametrize(
        "spoil, error, message",
        [
            (non_hermitian, ValueError, "not hermitian"),
            (lambda rho: rho * 1.5, ValueError, "trace is 1.5"),
            (with_nan, ValueError, "not hermitian"),
            (overflowing, ArithmeticError, "not finite"),
        ],
        ids=["non_hermitian", "trace", "nan", "overflow"],
    )
    def test_one_bad_state_fails_the_stack_as_it_fails_alone(self, spoil, error, message):
        stack = float_stack(6)
        stack[3] = spoil(stack[3])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error, match=message) as alone:
                eval_matrix_form(decompose_state(stack[3]))
            with pytest.raises(error) as stacked:
                eval_matrix_form(decompose_state(stack))
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    def test_basis_form_refuses_a_stack(self):
        with pytest.raises(ValueError, match="one state"):
            eval_basis_form(decompose_state(float_stack(3)))


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
        rho = exact_identity(6) * Fraction(1, 6) + kron(x, exact_identity(3))
        states = [rho]
        assert independence_rank(states, 2) == 1
        assert independence_rank(states, 3) == 0

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            independence_rank([], 4)

    def test_rejects_float_states(self):
        with pytest.raises(ValueError, match="exact"):
            independence_rank([random_state(0, "psd_float")], 2)
