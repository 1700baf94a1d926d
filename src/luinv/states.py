"""Qubit-qutrit density matrices and their Bloch-style decomposition.

A 6x6 density matrix on C^2 (x) C^3 (qubit factor major) splits uniquely
as

    rho = I6/6 + X (x) I3 + I2 (x) Y + Z

with X, Y traceless hermitian of sizes 2 and 3 and Z a 6x6 correlation
part whose partial traces over either factor vanish.  Z further expands
over the Pauli basis of the qubit side as Z = sum_k E_k (x) Y_k with
hermitian 3x3 parts Y_k.  These pieces are exactly the coordinates on
which the local-unitary invariants act, so the decomposition is the
bridge between raw states and invariant evaluation.

A state is a plain 6x6 numpy array, row index 3*i + j for qubit index i
and qutrit index j.  Exact states are ``dtype=object`` arrays of
GaussianRational entries (``rho.dtype == object`` is the exact test),
float states are complex128; ``astype(complex)`` turns the first into
the second.  Exact random states come from A A^dagger / tr(A A^dagger)
with Gaussian-integer A, float ones from the Ginibre ensemble, and Haar
special unitaries from QR with the standard phase fix.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

import numpy as np

from luinv.exact import GaussianRational

STATE_SCHEMA = "luinv.state.v1"

Scalar = Union[int, Fraction, GaussianRational, float, complex]


def pauli_basis() -> np.ndarray:
    """The three Pauli matrices as a (3, 2, 2) exact array, tr(E_k E_l) = 2 delta_kl."""
    g = GaussianRational
    return np.array(
        [
            [[g(0), g(1)], [g(1), g(0)]],
            [[g(0), g(0, -1)], [g(0, 1), g(0)]],
            [[g(1), g(0)], [g(0), g(-1)]],
        ],
        dtype=object,
    )


def partial_trace_qutrit(m: np.ndarray) -> np.ndarray:
    """Trace out the qutrit factor of a 6x6 array, leaving 2x2."""
    return np.trace(m.reshape(2, 3, 2, 3), axis1=1, axis2=3)


def partial_trace_qubit(m: np.ndarray) -> np.ndarray:
    """Trace out the qubit factor of a 6x6 array, leaving 3x3."""
    return np.trace(m.reshape(2, 3, 2, 3), axis1=0, axis2=2)


@dataclass(frozen=True)
class StateDecomposition:
    """Bloch-style pieces of a state: rho = I/6 + X(x)I + I(x)Y + Z."""

    local_a: np.ndarray  # X: 2x2 traceless hermitian, qubit side
    local_b: np.ndarray  # Y: 3x3 traceless hermitian, qutrit side
    corr: np.ndarray  # Z: 6x6, both partial traces vanish
    corr_parts: np.ndarray  # (3, 3, 3): Y_k with Z = sum E_k (x) Y_k

    @property
    def exact(self) -> bool:
        return self.corr.dtype == object


def validate_state(rho: np.ndarray, tolerance: float = 1e-12) -> None:
    """Raise ValueError unless rho is 6x6 hermitian with unit trace.

    Exact states must hold GaussianRational entries only; float states
    are held to the tolerance, and a NaN anywhere fails the checks.
    """
    if rho.shape != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {rho.shape}")
    dagger = np.conjugate(rho).T
    if rho.dtype == object:
        if not all(isinstance(v, GaussianRational) for v in rho.flat):
            raise ValueError("exact states must hold GaussianRational entries")
        if not np.array_equal(rho, dagger):
            raise ValueError("state is not hermitian")
        if np.trace(rho) != 1:
            raise ValueError(f"state trace is {np.trace(rho)}, not 1")
    else:
        if not np.abs(rho - dagger).max() <= tolerance:
            raise ValueError("state is not hermitian within tolerance")
        deviation = abs(np.trace(rho) - 1)
        if not deviation <= tolerance:
            raise ValueError(f"state trace deviates from 1 by {deviation:.3e}")


def _local_sum(local_a: np.ndarray, local_b: np.ndarray, sixth: Scalar) -> np.ndarray:
    """I/6 + X (x) I + I (x) Y in the dtype of the pieces."""
    dtype = local_a.dtype
    return (
        np.eye(6, dtype=dtype) * sixth
        + np.kron(local_a, np.eye(3, dtype=dtype))
        + np.kron(np.eye(2, dtype=dtype), local_b)
    )


def decompose_state(rho: np.ndarray) -> StateDecomposition:
    """Split a state, validated at the default tolerance, into its pieces."""
    validate_state(rho)
    exact = rho.dtype == object
    half, third = (Fraction(1, 2), Fraction(1, 3)) if exact else (0.5, 1.0 / 3.0)
    local_a = (partial_trace_qutrit(rho) - np.eye(2, dtype=rho.dtype) * half) * third
    local_b = (partial_trace_qubit(rho) - np.eye(3, dtype=rho.dtype) * third) * half
    corr = rho - _local_sum(local_a, local_b, third * half)
    paulis = pauli_basis() if exact else pauli_basis().astype(complex)
    # Y_k = tr_qubit((E_k (x) I) Z) / 2
    corr_parts = np.einsum("kab,bjal->kjl", paulis, corr.reshape(2, 3, 2, 3)) * half
    return StateDecomposition(local_a, local_b, corr, corr_parts)


def scale_components(dec: StateDecomposition, a: Scalar, b: Scalar, c: Scalar) -> StateDecomposition:
    """Scale the qubit, qutrit and correlation pieces independently.

    An invariant of multidegree (d1, d2, d3) picks up the factor
    a^d1 b^d2 c^d3 under this scaling, which is how the multidegrees
    are tested.
    """
    return StateDecomposition(
        dec.local_a * a, dec.local_b * b, dec.corr * c, dec.corr_parts * c
    )


def recompose(dec: StateDecomposition) -> np.ndarray:
    """Rebuild the density matrix from its decomposition pieces."""
    sixth = Fraction(1, 6) if dec.exact else 1.0 / 6.0
    return _local_sum(dec.local_a, dec.local_b, sixth) + dec.corr


def random_state(seed: int, kind: str = "rational") -> np.ndarray:
    """Deterministic random density matrix.

    kind="rational": A A^dagger / tr(A A^dagger) with a Gaussian-integer
    A, so the result is exactly positive semidefinite with unit trace.
    kind="psd_float": the same construction from a complex Ginibre draw.
    """
    if kind == "rational":
        rng = random.Random(seed)
        while True:
            a = np.array(
                [
                    [
                        GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(6)
                    ]
                    for _ in range(6)
                ],
                dtype=object,
            )
            gram = a @ np.conjugate(a).T
            tr = np.trace(gram)
            if tr != 0:
                return gram * (1 / tr)
    if kind == "psd_float":
        rng_np = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        g = rng_np.normal(size=(6, 6)) + 1j * rng_np.normal(size=(6, 6))
        gram_np = g @ g.conj().T
        return gram_np / np.trace(gram_np).real
    raise ValueError(f"unknown state kind {kind!r}")


@dataclass(frozen=True)
class LocalUnitaryPair:
    """An element (u2, u3) of SU(2) x SU(3), complex128 arrays."""

    u2: np.ndarray
    u3: np.ndarray


def _haar_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    # divide out an n-th root of the determinant to land in SU(n)
    det = np.linalg.det(q)
    return q / det ** (1.0 / n)


def random_local_unitary(seed) -> LocalUnitaryPair:
    """Haar-distributed SU(2) x SU(3) pair from a seed or Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u2 = _haar_special_unitary(2, rng)
    u3 = _haar_special_unitary(3, rng)
    return LocalUnitaryPair(u2, u3)


def apply_local_unitary(rho: np.ndarray, pair: LocalUnitaryPair) -> np.ndarray:
    """Conjugate a state by u2 (x) u3, in float arithmetic."""
    u = np.kron(pair.u2, pair.u3)
    return u @ rho.astype(complex) @ u.conj().T


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def state_to_json(rho: np.ndarray, indent: Optional[int] = None) -> str:
    """Serialize a 6x6 state to the versioned JSON schema."""
    if rho.shape != (6, 6):
        raise ValueError("expected a 6x6 matrix")
    if rho.dtype == object:
        matrix = [
            [[_fraction_str(v.re), _fraction_str(v.im)] for v in row]
            for row in rho.tolist()
        ]
        scalar = "rational"
    else:
        matrix = [[[v.real, v.imag] for v in row] for row in rho.astype(complex).tolist()]
        scalar = "float"
    payload = {"schema": STATE_SCHEMA, "scalar": scalar, "matrix": matrix}
    return json.dumps(payload, indent=indent)


def _rational(part) -> Fraction:
    """Fraction(str(part)), refused when its digits would outgrow Python's limit.

    Fraction expands a decimal exponent into an integer with that many
    digits, so "1e10000000" alone takes seconds.  The digit count and the
    exponent are both held to the int-string limit, or to its default of
    4300 where the limit is off or the interpreter predates it.
    """
    text = str(part)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    try:
        exponent = abs(int(text.lower().partition("e")[2]))
    except ValueError:  # no exponent, or a malformed one that Fraction rejects
        exponent = 0
    if sum(c.isdigit() for c in text) > limit or exponent > limit:
        raise ValueError(
            f"a part has more than {limit} digits or a decimal exponent "
            f"beyond {limit}"
        )
    return Fraction(text)


def _parse_entry(entry, scalar: str, where: str) -> Scalar:
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValueError(f"entry {where} must be an [re, im] pair, got {entry!r}")
    re_part, im_part = entry
    if scalar == "rational":
        try:
            return GaussianRational(_rational(re_part), _rational(im_part))
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad rational entry {where} {entry!r}: {err}") from err
    try:
        value = complex(float(re_part), float(im_part))
    except (TypeError, ValueError) as err:
        raise ValueError(f"bad float entry {where} {entry!r}: {err}") from err
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite float entry {where} {entry!r}")
    return value


def state_from_json(text: str) -> np.ndarray:
    """Parse a state from the versioned JSON schema, validating shape and entries."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"state file is not valid JSON: {err}") from err
    if not isinstance(payload, dict) or payload.get("schema") != STATE_SCHEMA:
        raise ValueError(f"expected schema {STATE_SCHEMA!r}")
    scalar = payload.get("scalar")
    if scalar not in ("rational", "float"):
        raise ValueError("scalar must be 'rational' or 'float'")
    matrix = payload.get("matrix")
    if (
        not isinstance(matrix, list)
        or len(matrix) != 6
        or any(not isinstance(r, list) or len(r) != 6 for r in matrix)
    ):
        raise ValueError("matrix must be a 6x6 array of [re, im] pairs")
    rows: List[List[Scalar]] = [
        [_parse_entry(entry, scalar, f"({i}, {j})") for j, entry in enumerate(r)]
        for i, r in enumerate(matrix)
    ]
    return np.array(rows, dtype=object if scalar == "rational" else complex)
