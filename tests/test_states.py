"""Array algebra, state decomposition, sampling, and JSON round-trips."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from luinv.states import (
    apply_local_unitary,
    decompose_state,
    embed,
    kron,
    partial_trace_qubit,
    partial_trace_qutrit,
    pauli_basis,
    random_local_unitary,
    random_state,
    scale_components,
    state_from_json,
    state_to_json,
    validate_state,
)


def exact(re_rows, im_rows=None) -> np.ndarray:
    """Embedded object array from nested ints and Fractions (real, imaginary part)."""
    re = np.array(re_rows, dtype=object)
    im = np.zeros_like(re) if im_rows is None else np.array(im_rows, dtype=object)
    return embed(re, im)


def defining_sum(dec) -> np.ndarray:
    """(s/6) I + X~ (x) I + I (x) Y~ + Z~, which is s rho for the scale s."""
    local = kron(dec.local_a, np.eye(6, dtype=int)) + kron(np.eye(4, dtype=int), dec.local_b)
    return (dec.scale // 6) * np.eye(12, dtype=int) + local + dec.corr


def exact_identity(n: int) -> np.ndarray:
    return exact([[int(i == j) for j in range(n)] for i in range(n)])


def exact_zeros(n: int) -> np.ndarray:
    return exact([[0] * n for _ in range(n)])


def as_complex(m: np.ndarray) -> np.ndarray:
    """The complex128 matrix an embedding stands for."""
    n = m.shape[-1] // 2
    return m[:n, :n].astype(float) + 1j * m[n:, :n].astype(float)


def complex_trace(m: np.ndarray):
    """(re, im) of the trace of the matrix an embedding stands for."""
    n = m.shape[-1] // 2
    return np.trace(m[:n, :n]), np.trace(m[n:, :n])


def times(m: np.ndarray, re, im) -> np.ndarray:
    """The embedding of (re + i im) times the matrix m stands for."""
    n = m.shape[-1] // 2
    eye = np.eye(n, dtype=int).astype(object)
    return m @ embed(eye * re, eye * im)


def random_exact_matrix(seed: int, n: int, m: int = None) -> np.ndarray:
    rng = random.Random(seed)
    m = n if m is None else m
    parts = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2 * n * m)]
    re = np.array(parts[0::2], dtype=object).reshape(n, m)
    im = np.array(parts[1::2], dtype=object).reshape(n, m)
    return embed(re, im)


def random_exact_hermitian(seed: int, n: int) -> np.ndarray:
    a = random_exact_matrix(seed, n)
    return a + a.T


class TestMatrix:
    """Exact embedded object arrays against complex128 numpy."""

    def test_mode_inference(self):
        rho = random_state(3, "rational")
        assert rho.dtype == object and rho.shape == (12, 12)
        assert all(type(v) in (int, Fraction) for v in rho.flat)
        assert random_state(3, "psd_float").dtype == np.float64
        assert rho.astype(float).dtype == np.float64
        assert state_from_json(state_to_json(rho)).dtype == object
        assert state_from_json(state_to_json(rho.astype(float))).dtype == np.float64

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="12x12"):
            validate_state(exact_identity(6).reshape(144))
        with pytest.raises(ValueError, match="12x12"):
            state_to_json(exact_identity(5))

    def test_exact_matmul_known(self):
        a = exact([[1, 2], [3, 4]])
        b = exact([[0, 1], [1, 0]])
        assert np.array_equal(a @ b, exact([[2, 1], [4, 3]]))
        assert all(type(v) is int for v in (a @ b).flat)
        i = exact([[0, 0], [0, 0]], [[1, 0], [0, 1]])
        assert np.array_equal(i @ i, exact([[-1, 0], [0, -1]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_float_ops_match_numpy(self, seed):
        a = random_exact_matrix(seed, 3)
        b = random_exact_matrix(seed + 50, 3)
        af, bf = as_complex(a), as_complex(b)
        assert np.allclose(as_complex(a @ b), af @ bf)
        assert np.allclose(as_complex(a + b), af + bf)
        assert np.allclose(as_complex(a.T), af.conj().T)
        assert np.isclose(complex(*map(float, complex_trace(a))), np.trace(af))
        assert np.array_equal(embed(af.real, af.imag), a.astype(float))

    @pytest.mark.parametrize("seed", range(3))
    def test_kron_matches_numpy(self, seed):
        a = random_exact_matrix(seed, 2)
        b = random_exact_matrix(seed + 9, 3)
        full = kron(a, b)
        assert np.allclose(as_complex(full), np.kron(as_complex(a), as_complex(b)))
        # (re/im, qubit, qutrit) order: row 6*c + 3*i + j, column 6*d + 3*k + l
        for i, j, k, l in np.ndindex(2, 3, 2, 3):
            re = a[i, k] * b[j, l] - a[2 + i, k] * b[3 + j, l]
            im = a[2 + i, k] * b[j, l] + a[i, k] * b[3 + j, l]
            assert full[3 * i + j, 3 * k + l] == full[6 + 3 * i + j, 6 + 3 * k + l] == re
            assert full[6 + 3 * i + j, 3 * k + l] == -full[3 * i + j, 6 + 3 * k + l] == im

    def test_scalar_multiplication_and_promotion(self):
        m = exact_identity(2)
        half = m * Fraction(1, 2)
        assert half.dtype == object
        assert all(type(v) in (int, Fraction) for v in half.flat)
        assert np.array_equal(half.astype(float), m.astype(float) * 0.5)

    def test_hermitian_checks(self):
        h = random_exact_hermitian(3, 6)
        rho = h + exact_identity(6) * ((1 - complex_trace(h)[0]) / 6)
        validate_state(rho)
        bent = rho.copy()
        bent[0, 1] += 1  # R[0, 1] in both diagonal blocks: still an embedding
        bent[6, 7] += 1
        with pytest.raises(ValueError, match="hermitian"):
            validate_state(bent)


class TestBases:
    def test_pauli_orthogonality(self):
        paulis = pauli_basis()
        assert paulis.shape == (3, 4, 4)
        for k, ek in enumerate(paulis):
            assert np.array_equal(ek, ek.T)
            assert complex_trace(ek) == (0, 0)
            for l, el in enumerate(paulis):
                assert complex_trace(ek @ el) == (2 if k == l else 0, 0)

    def test_pauli_squares_are_identity(self):
        for e in pauli_basis():
            assert np.array_equal(e @ e, exact_identity(2))


def is_hermitian(m: np.ndarray) -> bool:
    return np.array_equal(m, m.T)


class TestPartialTraces:
    @pytest.mark.parametrize("seed", range(4))
    def test_kron_identities(self, seed):
        a = random_exact_matrix(seed, 2)
        b = random_exact_matrix(seed + 77, 3)
        full = kron(a, b)
        assert np.array_equal(partial_trace_qutrit(full), times(a, *complex_trace(b)))
        assert np.array_equal(partial_trace_qubit(full), times(b, *complex_trace(a)))

    @pytest.mark.parametrize("seed", range(3))
    def test_linearity_and_full_trace(self, seed):
        m = random_exact_matrix(seed, 6)
        n = random_exact_matrix(seed + 13, 6)
        assert np.array_equal(
            partial_trace_qubit(m + n), partial_trace_qubit(m) + partial_trace_qubit(n)
        )
        assert complex_trace(partial_trace_qutrit(m)) == complex_trace(m)
        assert complex_trace(partial_trace_qubit(m)) == complex_trace(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_explicit_loop(self, seed):
        m = random_exact_matrix(seed + 31, 6)
        qutrit_out = [
            [sum(m[6 * c + 3 * i + j, 6 * d + 3 * k + j] for j in range(3))
             for d in range(2) for k in range(2)]
            for c in range(2) for i in range(2)
        ]
        qubit_out = [
            [sum(m[6 * c + 3 * i + j, 6 * d + 3 * i + l] for i in range(2))
             for d in range(2) for l in range(3)]
            for c in range(2) for j in range(3)
        ]
        assert partial_trace_qutrit(m).tolist() == qutrit_out
        assert partial_trace_qubit(m).tolist() == qubit_out

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            partial_trace_qubit(exact_identity(5))
        with pytest.raises(ValueError):
            partial_trace_qutrit(exact_identity(5))


class TestValidation:
    def test_accepts_maximally_mixed(self):
        validate_state(exact_identity(6) * Fraction(1, 6))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="12x12"):
            validate_state(exact_identity(5) * Fraction(1, 5))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_state(exact_identity(6))

    def test_rejects_non_hermitian(self):
        im = [[int(i == 0 and j == 1) for j in range(6)] for i in range(6)]
        rho = exact_identity(6) * Fraction(1, 6) + exact([[0] * 6] * 6, im)
        with pytest.raises(ValueError, match="hermitian"):
            validate_state(rho)

    def test_rejects_non_gaussian_rational_entries(self):
        rho = exact_identity(6) * Fraction(1, 6)
        rho[0, 0] = rho[6, 6] = 1 / 6  # a float entry in an exact state
        with pytest.raises(ValueError, match="int or Fraction"):
            validate_state(rho)

    def test_rejects_bool_entry(self):
        rho = exact_identity(6) * Fraction(1, 6)
        rho[0, 1] = rho[1, 0] = rho[6, 7] = rho[7, 6] = False
        with pytest.raises(ValueError, match="int or Fraction"):
            validate_state(rho)

    def test_rejects_non_embedding(self):
        # symmetric with unit trace, but the diagonal blocks differ
        rho = np.zeros((12, 12), dtype=object)
        rho[:6, :6] = exact_identity(6)[:6, :6] * Fraction(1, 6)
        with pytest.raises(ValueError, match=r"\[\[R, -I\], \[I, R\]\]"):
            validate_state(rho)
        bent = exact_identity(6) * Fraction(1, 6)
        bent[0, 7] = bent[7, 0] = 1  # -I above, but no I below
        with pytest.raises(ValueError, match="embedding"):
            validate_state(bent)
        with pytest.raises(ValueError, match="embedding"):
            validate_state(bent.astype(float))

    def test_float_tolerance(self):
        rho = (exact_identity(6) * Fraction(1, 6)).astype(float)
        validate_state(rho, tolerance=1e-12)

    def test_float_nan_rejected(self):
        rho = embed(np.eye(6) / 6, np.zeros((6, 6)))
        rho[2, 3] = rho[3, 2] = float("nan")
        with pytest.raises(ValueError, match="hermitian"):
            validate_state(rho)


class TestDecomposition:
    def test_pure_product_diagonal_pieces(self):
        rho = exact([[int(i == 0 and j == 0) for j in range(6)] for i in range(6)])
        dec = decompose_state(rho)
        assert dec.scale == 12
        s = Fraction(1, 6)
        assert np.array_equal(dec.local_a * Fraction(1, 12), exact([[s, 0], [0, -s]]))
        assert np.array_equal(
            dec.local_b * Fraction(1, 12), exact([[Fraction(1, 3), 0, 0], [0, -s, 0], [0, 0, -s]])
        )
        sz = exact([[1, 0], [0, -1]])
        assert np.array_equal(dec.corr, kron(sz, dec.local_b))

    def test_maximally_mixed_has_no_structure(self):
        dec = decompose_state(exact_identity(6) * Fraction(1, 6))
        assert np.array_equal(dec.local_a, exact_zeros(2))
        assert np.array_equal(dec.local_b, exact_zeros(3))
        assert np.array_equal(dec.corr, exact_zeros(6))

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_properties_exact(self, seed):
        rho = random_state(seed, "rational")
        dec = decompose_state(rho)
        assert dec.exact
        pieces = (dec.local_a, dec.local_b, dec.corr, dec.corr_parts)
        # scaled by 12 times the common denominator, every piece is integral
        assert all(type(v) is int for p in pieces for v in p.flat)
        assert all(dec.scale % (12 * v.denominator) == 0 for v in rho.flat)
        # local parts: traceless hermitian of the right sizes
        assert dec.local_a.shape == (4, 4) and is_hermitian(dec.local_a)
        assert dec.local_b.shape == (6, 6) and is_hermitian(dec.local_b)
        assert complex_trace(dec.local_a) == (0, 0)
        assert complex_trace(dec.local_b) == (0, 0)
        # correlation part: hermitian with both partial traces zero
        assert is_hermitian(dec.corr)
        assert np.array_equal(partial_trace_qubit(dec.corr), exact_zeros(3))
        assert np.array_equal(partial_trace_qutrit(dec.corr), exact_zeros(2))
        # the Pauli expansion of the correlation part is exact: P_k = 2 Y_k
        rebuilt = exact_zeros(6)
        for e, y in zip(pauli_basis(), dec.corr_parts):
            assert is_hermitian(y)
            rebuilt = rebuilt + kron(e, y)
        assert np.array_equal(rebuilt, 2 * dec.corr)
        # and the whole thing reassembles to the input
        assert np.array_equal(defining_sum(dec), dec.scale * rho)

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_float(self, seed):
        rho = random_state(seed, "psd_float")
        dec = decompose_state(rho)
        assert not dec.exact
        assert np.abs(defining_sum(dec) / dec.scale - rho).max() < 1e-14

    def test_scale_components(self):
        dec = decompose_state(random_state(5, "rational"))
        scaled = scale_components(dec, 2, Fraction(1, 3), -1)
        assert np.array_equal(scaled.local_a, dec.local_a * 2)
        assert np.array_equal(scaled.local_b, dec.local_b * Fraction(1, 3))
        assert np.array_equal(scaled.corr, -dec.corr)
        assert np.array_equal(scaled.corr_parts[1], -dec.corr_parts[1])
        assert scaled.scale == dec.scale


class TestRandomStates:
    def test_rational_states_are_valid_and_deterministic(self):
        a = random_state(123, "rational")
        assert np.array_equal(a, random_state(123, "rational"))
        assert a.dtype == object
        validate_state(a)

    def test_rational_states_are_psd(self):
        for seed in range(5):
            # J(rho) has the spectrum of rho, each eigenvalue twice
            evs = np.linalg.eigvalsh(random_state(seed, "rational").astype(float))
            assert evs.min() > -1e-12

    def test_float_states_are_valid_and_psd(self):
        rho = random_state(9, "psd_float")
        assert rho.dtype == np.float64
        validate_state(rho, tolerance=1e-9)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(random_state(1, "rational"), random_state(2, "rational"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            random_state(0, "bogus")


class TestLocalUnitaries:
    def test_special_unitarity(self):
        pair = random_local_unitary(31)
        for mat, n in ((pair.u2, 2), (pair.u3, 3)):
            assert np.allclose(mat.conj().T @ mat, np.eye(n), atol=1e-12)
            assert abs(np.linalg.det(mat) - 1) < 1e-12

    def test_determinism(self):
        assert np.array_equal(random_local_unitary(8).u3, random_local_unitary(8).u3)

    def test_conjugation_preserves_state_properties(self):
        rho = random_state(17, "psd_float")
        moved = apply_local_unitary(rho, random_local_unitary(18))
        validate_state(moved, tolerance=1e-9)
        # spectrum is preserved by conjugation
        assert np.allclose(np.linalg.eigvalsh(moved), np.linalg.eigvalsh(rho), atol=1e-10)

    def test_exact_state_is_conjugated_in_floats(self):
        rho = random_state(17, "rational")
        pair = random_local_unitary(18)
        moved = apply_local_unitary(rho, pair)
        assert moved.dtype == np.float64
        assert np.array_equal(moved, apply_local_unitary(rho.astype(float), pair))
        u = np.kron(pair.u2, pair.u3)
        expected = u @ as_complex(rho) @ u.conj().T
        assert np.allclose(as_complex(moved), expected, atol=1e-14)


class TestJsonIO:
    def test_exact_roundtrip_uses_fraction_strings(self):
        rho = random_state(4, "rational")
        text = state_to_json(rho)
        payload = json.loads(text)
        assert payload["schema"] == "luinv.state.v1"
        assert payload["scalar"] == "rational"
        assert all(
            isinstance(part, str) for row in payload["matrix"] for e in row for part in e
        )
        assert np.array_equal(state_from_json(text), rho)

    def test_float_roundtrip(self):
        rho = random_state(4, "psd_float")
        back = state_from_json(state_to_json(rho))
        assert back.dtype == np.float64
        assert np.array_equal(back, rho)

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            state_from_json(json.dumps({"schema": "nope", "scalar": "float", "matrix": []}))

    def test_rejects_bad_shape(self):
        payload = {"schema": "luinv.state.v1", "scalar": "float", "matrix": [[[1, 0]] * 6] * 5}
        with pytest.raises(ValueError, match="6x6"):
            state_from_json(json.dumps(payload))

    def test_rejects_bad_entry(self):
        matrix = [[["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        matrix[0][0] = ["1/0", "0"]
        payload = {"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}
        with pytest.raises(ValueError, match="entry"):
            state_from_json(json.dumps(payload))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="JSON"):
            state_from_json("{nope")

    def test_rejects_non_numeric_float_entry(self):
        matrix = [[[1 / 6 if i == j else 0, 0] for j in range(6)] for i in range(6)]
        matrix[0][1] = [None, 0]
        payload = {"schema": "luinv.state.v1", "scalar": "float", "matrix": matrix}
        with pytest.raises(ValueError, match=r"bad float entry \(0, 1\)"):
            state_from_json(json.dumps(payload))

    @pytest.mark.parametrize("part", [float("nan"), float("inf"), "-inf"])
    def test_rejects_non_finite_float_entry(self, part):
        matrix = [[[1 / 6 if i == j else 0, 0] for j in range(6)] for i in range(6)]
        matrix[2][2] = [part, 0]
        payload = {"schema": "luinv.state.v1", "scalar": "float", "matrix": matrix}
        with pytest.raises(ValueError, match=r"non-finite float entry \(2, 2\)"):
            state_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "part", ["1e10000000", "1E1_000_000", "-2.5e-4301", "1" * 4301, "1/" + "3" * 4301]
    )
    def test_rejects_rational_part_beyond_digit_limit(self, part):
        matrix = [[["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        matrix[3][4] = ["0", part]
        payload = {"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}
        with pytest.raises(ValueError, match=r"bad rational entry \(3, 4\).*4300 digits"):
            state_from_json(json.dumps(payload))

    @pytest.mark.parametrize("part", ["1e4300", "-7e-4300", "1" * 4300, "1.5E+12"])
    def test_accepts_rational_part_at_digit_limit(self, part):
        matrix = [[["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
        matrix[3][4] = matrix[4][3] = [part, "0"]
        payload = {"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}
        assert state_from_json(json.dumps(payload))[3, 4] == Fraction(part)


def coprime_denominators_payload(digits: int, count: int) -> dict:
    """The maximally mixed state with count off-diagonal parts 1/(10^(digits-1) + k).

    Consecutive integers are coprime, so the common denominator has about
    count * digits digits while every part stays within the digit limit.
    """
    matrix = [[["1/6" if i == j else "0", "0"] for j in range(6)] for i in range(6)]
    dens = iter(10 ** (digits - 1) + k for k in range(1, count + 1))
    for i, j in itertools.islice(itertools.combinations(range(6), 2), count // 2):
        re_den, im_den = next(dens), next(dens)
        matrix[i][j] = [f"1/{re_den}", f"1/{im_den}"]
        matrix[j][i] = [f"1/{re_den}", f"-1/{im_den}"]
    return {"schema": "luinv.state.v1", "scalar": "rational", "matrix": matrix}


class TestCommonDenominator:
    def test_rejects_common_denominator_beyond_twice_the_digit_limit(self):
        payload = coprime_denominators_payload(3900, 30)
        with pytest.raises(ValueError, match="common denominator .* more than 8600 digits"):
            state_from_json(json.dumps(payload))

    def test_accepts_common_denominator_within_twice_the_digit_limit(self):
        rho = state_from_json(json.dumps(coprime_denominators_payload(2140, 4)))
        assert rho[0, 1] == rho[1, 0] and rho[6, 1] == -rho[7, 0]
        assert 10**8500 < decompose_state(rho).scale // 12 < 10**8600
