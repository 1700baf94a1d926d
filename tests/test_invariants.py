"""Invariant evaluation: dual routes, stacks, invariance, homogeneity, independence."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from luinv import invariants, states
from luinv.invariants import (
    COMPONENTS,
    MULTIDEGREES,
    InvarianceReport,
    InvariantVector,
    eval_basis_form,
    eval_matrix_form,
    invariance_battery,
)
from luinv.states import (
    StateDecomposition,
    _normals,
    apply_local_unitary,
    decompose_state,
    embed,
    random_state,
)

from conftest import kron, random_local_unitary, scale_components

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


def as_complex(m: np.ndarray) -> np.ndarray:
    """The complex128 matrix an embedding stands for."""
    n = m.shape[-1] // 2
    return m[:n, :n].astype(float) + 1j * m[n:, :n].astype(float)


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
        by_degree = {}
        for name in COMPONENTS:
            by_degree.setdefault(sum(MULTIDEGREES[name]), []).append(name)
        assert by_degree == {2: ["i1", "i2", "i3"], 3: ["i4", "i5", "i6", "i7"]}


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

    @pytest.mark.parametrize("seed", range(20))
    def test_block_identities_match_complex_kronecker_traces(self, seed):
        # i6 = tr((X (x) Y) Z) and i7 = tr((I (x) Y) Z^2), in complex128 with np.kron
        dec = decompose_state(random_state(seed, "psd_float"))
        x, y, z = (as_complex(m) for m in (dec.local_a, dec.local_b, dec.corr))
        i6 = np.trace(np.kron(x, y) @ z) / dec.scale**3
        i7 = np.trace(np.kron(np.eye(2), y) @ z @ z) / dec.scale**3
        values = eval_matrix_form(dec)
        assert abs(values.i6 - i6) <= 1e-12 * abs(i6)
        assert abs(values.i7 - i7) <= 1e-12 * abs(i7)

    def test_non_hermitian_correlation_is_caught(self):
        # a doctored corr part with a genuinely non-real cubic trace
        dec = decompose_state(pure_product_state())
        re = [[0] * 6 for _ in range(6)]
        im = [[0] * 6 for _ in range(6)]
        re[0][1] = re[1][2] = im[2][0] = 1
        corr = exact(re, im)
        bad = StateDecomposition(dec.local_a, dec.local_b, corr, dec.scale)
        with pytest.raises(ArithmeticError, match="imaginary"):
            eval_matrix_form(bad)

    def test_float_non_hermitian_correlation_is_caught(self):
        # a doctored float corr part Z~ + 1e-3 i Re Z~: tr Z~^2 gains 2e-3 i tr (Re Z~)^2
        dec = decompose_state(random_state(0, "psd_float"))
        corr = dec.corr + embed(np.zeros((6, 6)), 1e-3 * dec.corr[:6, :6])
        bad = StateDecomposition(dec.local_a, dec.local_b, corr, dec.scale)
        with pytest.raises(ArithmeticError, match="above tolerance"):
            eval_matrix_form(bad)

    def test_float_route_holds_wide_states_to_their_scale(self):
        # entries up to 300 make values near 1e9, whose rounding leaves imaginary
        # parts above an absolute 1e-9; held relative to the value they pass
        rng = random.Random(0)

        def draw():
            q = rng.randint(1, 7)
            return Fraction(rng.randint(-300 * q, 300 * q), q)

        re = [[0] * 6 for _ in range(6)]
        im = [[0] * 6 for _ in range(6)]
        for i in range(6):
            re[i][i] = draw()
            for j in range(i + 1, 6):
                re[i][j] = re[j][i] = draw()
                im[i][j] = draw()
                im[j][i] = -im[i][j]
        re[5][5] = 1 - sum(re[i][i] for i in range(5))  # hermitian with unit trace, not PSD
        rho = exact(re, im)
        values = eval_matrix_form(decompose_state(rho)).as_tuple()
        approx = eval_matrix_form(decompose_state(rho.astype(float))).as_tuple()
        assert max(abs(v) for v in values) > 1e8
        for v, a in zip(values, approx):
            assert abs(a - float(v)) <= 1e-9 * max(1.0, abs(float(v)))


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

    @pytest.mark.parametrize("seed", [5, 7, 21, 1234])
    def test_deviation_stays_at_rounding_level(self, seed):
        # the tolerance is 1e-9; a less stable Haar draw or conjugation would hide under it,
        # so the precision itself is held, well above the 2.8e-16 to 5e-16 observed
        assert invariance_battery(trials=3000, seed=seed).max_deviation < 1e-14

    def test_different_seeds_give_different_worst_cases(self):
        # the seeds differ in what they draw; max_deviation itself is quantised
        # at a few ulp, so two seeds can share it
        a = _normals(random.Random(1), 980)
        b = _normals(random.Random(2), 980)
        assert a.shape == b.shape == (980,)
        assert not np.isin(a, b).any()

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            invariance_battery(trials=0, seed=1)

    def test_rejects_a_negative_seed(self):
        # random.Random(-3) would draw the stream of seed 3
        with pytest.raises(ValueError, match="nonnegative"):
            invariance_battery(trials=1, seed=-3)

    def test_normals_are_standard(self):
        # 300 trials of 98 normals; each bound is 5 standard errors
        z = _normals(random.Random(12345), 300 * 98)
        assert z.size == 29400 and np.isfinite(z).all()
        assert abs(z.mean()) <= 5 * math.sqrt(1 / z.size)
        assert abs(z.var() - 1) <= 5 * math.sqrt(2 / z.size)

    @pytest.mark.parametrize("trials, seed", [(1, 0), (3, 5), (12, 2**40 + 3), (130, 9)])
    def test_matches_spawned_children(self, trials, seed):
        # reference: trial t alone takes the t-th 8 * 98 bytes of the seed's stream,
        # converted one uniform at a time, and evaluates state by state
        rng = random.Random(seed)
        max_dev, worst_trial, worst_component = 0.0, 0, COMPONENTS[0]
        for t in range(trials):
            raw = rng.randbytes(8 * 98)
            u = [(int.from_bytes(raw[i : i + 8], "little") >> 11) / 2**53 for i in range(0, 8 * 98, 8)]
            normals = []
            for a, b in zip(u[0::2], u[1::2]):
                r = np.sqrt(-2.0 * np.log1p(-np.array([a])))
                angle = 2 * np.pi * np.array([b])
                normals += [(r * np.cos(angle))[0], (r * np.sin(angle))[0]]
            normals = np.array(normals)
            rho = states._gram_state(states._ginibre(normals[:72], 6))
            before = eval_matrix_form(decompose_state(rho))
            u2, u3 = states._local_unitary(normals[72:])
            after = eval_matrix_form(decompose_state(apply_local_unitary(rho, u2, u3)))
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
    return np.stack([random_state(s, "psd_float") for s in range(seed, seed + n)])


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
        conjugated = apply_local_unitary(stack, *map(np.stack, zip(*pairs)))
        for i, pair in enumerate(pairs):
            assert np.array_equal(conjugated[i], apply_local_unitary(stack[i], *pair))

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

    def test_matrix_form_refuses_an_exact_stack(self):
        stack = np.stack([random_state(0, "rational"), pure_product_state()])
        with pytest.raises(ValueError, match="one exact state"):
            eval_matrix_form(decompose_state(stack))

    def test_basis_form_refuses_a_stack(self):
        with pytest.raises(ValueError, match="one state"):
            eval_basis_form(decompose_state(float_stack(3)))


@st.composite
def state_at_the_int64_limit(draw):
    """(rho, top): an exact state whose integer form has entries up to top in
    size, top being INT64_LIMIT or one past it, under any sign pattern."""
    top = states.INT64_LIMIT + draw(st.sampled_from([0, 1]))
    size = st.one_of(st.just(top), st.integers(0, top))
    part = st.tuples(size, st.sampled_from([-1, 1])).map(lambda p: p[0] * p[1])
    re = [[0] * 6 for _ in range(6)]
    im = [[0] * 6 for _ in range(6)]
    for i in range(6):
        re[i][i] = draw(part)
        for j in range(i + 1, 6):
            re[i][j] = re[j][i] = draw(part)
            im[i][j] = draw(part)
            im[j][i] = -im[i][j]
    re[0][0] = top * draw(st.sampled_from([-1, 1]))  # the integer form reaches top
    im[4][5], im[5][4] = 1, -1  # so the entries share no factor with the trace
    trace = sum(re[i][i] for i in range(6))
    assume(trace != 0)
    return exact(re, im) * Fraction(1, trace), top


class TestInt64Route:
    @given(state_at_the_int64_limit())
    def test_matches_the_object_route_at_the_limit(self, case):
        rho, top = case
        _, n = states.validate_state(rho)
        assert abs(n).max() == top
        assert n.dtype == (np.int64 if top <= states.INT64_LIMIT else object)
        dec = decompose_state(rho)
        fast = eval_matrix_form(dec).as_tuple(), eval_basis_form(dec).as_tuple()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(states, "INT64_LIMIT", -1)  # every integer form on Python ints
            slow_dec = decompose_state(rho)
            assert slow_dec.corr.dtype == object
            slow = eval_matrix_form(slow_dec).as_tuple(), eval_basis_form(slow_dec).as_tuple()
        assert all(type(v) is Fraction for form in fast for v in form)
        assert fast == slow
        assert fast[0] == fast[1]

    def test_limit_follows_from_the_pieces(self):
        # The pieces of an integer form n with den = tr n are linear forms in
        # the 36 real parameters of the hermitian n.  The identity has no
        # pieces, so those of a unit input u are the pieces of the state
        # (u + I) / tr(u + I), times tr(u + I) * 12 / scale.
        sums = dict.fromkeys(("local_a", "local_b", "corr", "corr_parts"), 0)
        for i in range(6):
            for j in range(i, 6):
                for imaginary in (False, True) if i < j else (False,):
                    re = [[int(k == l) for l in range(6)] for k in range(6)]
                    im = [[0] * 6 for _ in range(6)]
                    if imaginary:
                        im[i][j], im[j][i] = 1, -1
                    else:
                        re[i][j] = re[j][i] = re[i][j] + 1
                    trace = 6 + (i == j and not imaginary)
                    dec = decompose_state(exact(re, im) * Fraction(1, trace))
                    unscale = Fraction(12 * trace, dec.scale)
                    for name in sums:
                        sums[name] = sums[name] + abs(getattr(dec, name) * unscale)
        bound = {name: max(total.flat) for name, total in sums.items()}
        assert bound == {"local_a": 12, "local_b": 16, "corr": 16, "corr_parts": 32}
        # the basis form's i5 bounds every intermediate: the Pauli traces
        # tr(E_k E_l E_m) weigh 12 in all, and a trace tr(P_k P_l P_m) of
        # embedded 3x3 matrices sums 18 products of entries of P_k P_l, each
        # a sum of 6 products
        weight = sum(abs(part).sum() for part in invariants._PAULI_TR3)
        assert weight == 12
        largest = lambda b: weight * 18 * 6 * (bound["corr_parts"] * b) ** 3
        assert largest(states.INT64_LIMIT) < 2**63 <= largest(states.INT64_LIMIT + 1)

    def test_random_rational_states_decompose_to_int64(self):
        for seed in range(50):
            dec = decompose_state(random_state(seed, "rational"))
            pieces = (dec.local_a, dec.local_b, dec.corr, dec.corr_parts)
            assert all(p.dtype == np.int64 for p in pieces), seed


class TestIndependence:
    def test_degenerate_family_has_lower_rank(self):
        # a state with only a qubit part: every Y- or Z-dependent
        # invariant vanishes identically, and det X does not
        x = exact([[Fraction(1, 12), 0], [0, Fraction(-1, 12)]])
        rho = exact_identity(6) * Fraction(1, 6) + kron(x, exact_identity(3))
        values = eval_matrix_form(decompose_state(rho)).as_dict()
        dependent = [name for name, (_, d2, d3) in MULTIDEGREES.items() if d2 or d3]
        assert len(dependent) == 6 and values["i1"] != 0
        assert all(values[name] == 0 for name in dependent)
