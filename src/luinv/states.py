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

Every complex matrix M is held as its real embedding

    J(M) = [[Re M, -Im M], [Im M, Re M]],

which turns products into products and M^dagger into the transpose, so
no complex scalar type is needed.  A state is the 12x12 array J(rho),
index order (re/im, qubit, qutrit): row 6*c + 3*i + j for part c, qubit
index i and qutrit index j.  Exact states are ``dtype=object`` arrays of
ints and Fractions (``rho.dtype == object`` is the exact test), float
states are float64; ``embed(m.real, m.imag)`` embeds a complex array and
``astype(float)`` turns an exact state into a float one.  Exact and float
states take the same code path: the decomposition scales by a common
denominator, so exact pieces are integer arrays.  Exact random states
come from A A^dagger / tr(A A^dagger) with Gaussian-integer A, float
ones from the Ginibre ensemble, and Haar special unitaries from QR with
the standard phase fix.

The array functions act on the last two axes, so a stack (N, 12, 12) of
float states takes the same code as one state, checked state by state.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np

STATE_SCHEMA = "luinv.state.v1"

Scalar = Union[int, Fraction, float]


def embed(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """J(re + i im) = [[re, -im], [im, re]] on the last two axes."""
    return np.concatenate(
        [np.concatenate([re, -im], axis=-1), np.concatenate([im, re], axis=-1)], axis=-2
    )


def pauli_basis() -> np.ndarray:
    """The embedded Pauli matrices, a (3, 4, 4) int array; tr(E_k E_l) = 2 delta_kl."""
    re = np.array([[[0, 1], [1, 0]], [[0, 0], [0, 0]], [[1, 0], [0, -1]]])
    im = np.array([[[0, 0], [0, 0]], [[0, -1], [1, 0]], [[0, 0], [0, 0]]])
    return embed(re, im)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """J(A (x) B) from the 4x4 J(A) and the 6x6 J(B); leading axes broadcast."""
    out = np.einsum(
        "...ciek,...ejdl->...cijdkl",
        a.reshape(*a.shape[:-2], 2, 2, 2, 2),
        b.reshape(*b.shape[:-2], 2, 3, 2, 3),
    )
    return out.reshape(*out.shape[:-6], 12, 12)


def _split(m: np.ndarray) -> np.ndarray:
    """An embedded 6x6 array, or a stack of them, indexed (..., c, i, j, d, k, l)."""
    return m.reshape(*m.shape[:-2], 2, 2, 3, 2, 2, 3)


def partial_trace_qutrit(m: np.ndarray) -> np.ndarray:
    """Trace out the qutrit factor of an embedded 6x6 array, leaving the 4x4 J(2x2)."""
    return np.trace(_split(m), axis1=-4, axis2=-1).reshape(*m.shape[:-2], 4, 4)


def partial_trace_qubit(m: np.ndarray) -> np.ndarray:
    """Trace out the qubit factor of an embedded 6x6 array, leaving the 6x6 J(3x3)."""
    return np.trace(_split(m), axis1=-5, axis2=-2).reshape(*m.shape[:-2], 6, 6)


@dataclass(frozen=True)
class StateDecomposition:
    """Embedded pieces of s*rho = s/6 + X~(x)I + I(x)Y~ + Z~ for the integer scale s.

    The pieces are X~ = sX, Y~ = sY, Z~ = sZ and the parts P_k = 2s Y_k,
    so that for an exact state every entry is an integer; a stack's axes
    come before each piece's shape given below.
    """

    local_a: np.ndarray  # J(X~): 4x4, X traceless hermitian, qubit side
    local_b: np.ndarray  # J(Y~): 6x6, Y traceless hermitian, qutrit side
    corr: np.ndarray  # J(Z~): 12x12, both partial traces vanish
    corr_parts: np.ndarray  # (3, 6, 6): J(P_k), Z~ = sum E_k (x) P_k / 2
    scale: int  # s = 12 * the common denominator of the state's entries

    @property
    def exact(self) -> bool:
        return self.corr.dtype == object


def validate_state(rho: np.ndarray, tolerance: float = 1e-12) -> Tuple[int, np.ndarray]:
    """Raise ValueError unless rho embeds a 6x6 hermitian matrix with unit trace.

    That is: rho is 12x12, symmetric (J(M)^T = J(M^dagger)), of the form
    [[R, -I], [I, R]], and tr R = 1; a stack (..., 12, 12) passes if each
    state does.  Exact states must hold int or Fraction entries only and
    pass exactly, checked on their integer form den * rho; float states
    are held to the tolerance, and a NaN anywhere fails the checks.
    Returns _integer_form(rho).
    """
    if rho.shape[-2:] != (12, 12):
        raise ValueError(f"expected the 12x12 embedding of a 6x6 matrix, got shape {rho.shape}")
    if rho.dtype == object:
        if not all(type(v) in (int, Fraction) for v in rho.flat):
            raise ValueError("exact states must hold int or Fraction entries")
        tolerance = 0
    den, n = _integer_form(rho)
    checked = n if rho.dtype == object else rho
    if not abs(checked - checked.swapaxes(-1, -2)).max() <= tolerance:
        raise ValueError("state is not hermitian")
    re, im = checked[..., :6, :6], checked[..., 6:, :6]
    blocks = abs(checked[..., 6:, 6:] - re).max(), abs(checked[..., :6, 6:] + im).max()
    if not all(b <= tolerance for b in blocks):
        raise ValueError("state is not an embedding [[R, -I], [I, R]] of a complex matrix")
    trace = np.trace(re, axis1=-2, axis2=-1)
    if not np.all(abs(trace - den) <= tolerance):
        worst = np.ravel(trace)[np.argmax(abs(trace - den))]
        raise ValueError(f"state trace is {Fraction(worst, den) if den > 1 else worst}, not 1")
    return den, n


def _integer_form(rho: np.ndarray) -> Tuple[int, np.ndarray]:
    """(den, den * rho): integers over the lcm of the denominators if exact, den = 1 if float."""
    if rho.dtype == object:
        den = math.lcm(*(v.denominator for v in rho.flat))
        ints = [v.numerator * (den // v.denominator) for v in rho.flat]
        return den, np.array(ints, dtype=object).reshape(rho.shape)
    return 1, rho.astype(float, copy=False)


def _add_identity(m: np.ndarray, c) -> np.ndarray:
    """m + c * identity on the last two axes, in place on the contiguous m."""
    m.reshape(*m.shape[:-2], -1)[..., :: m.shape[-1] + 1] += c
    return m


def decompose_state(rho: np.ndarray) -> StateDecomposition:
    """Split a state or a stack of them, validated at the default tolerance, into its pieces."""
    den, n = validate_state(rho)
    local_a = _add_identity(4 * partial_trace_qutrit(n), -2 * den)
    local_b = _add_identity(6 * partial_trace_qubit(n), -2 * den)
    local_sum = kron(local_a, np.eye(6, dtype=int)) + kron(np.eye(4, dtype=int), local_b)
    corr = _add_identity(12 * n, -2 * den) - local_sum
    # P_k = tr_qubit((E_k (x) I) Z~): E_k is indexed (k, c, a, e, b), Z~ (..., e, b, j, d, a, l)
    paulis = pauli_basis().reshape(3, 2, 2, 2, 2)
    corr_parts = np.tensordot(_split(corr), paulis, axes=([-6, -5, -2], [3, 4, 2]))
    corr_parts = np.moveaxis(corr_parts, (-2, -1), (-5, -4)).reshape(*corr.shape[:-2], 3, 6, 6)
    return StateDecomposition(local_a, local_b, corr, corr_parts, 12 * den)


def scale_components(dec: StateDecomposition, a: Scalar, b: Scalar, c: Scalar) -> StateDecomposition:
    """Scale the qubit, qutrit and correlation pieces independently.

    An invariant of multidegree (d1, d2, d3) picks up the factor
    a^d1 b^d2 c^d3 under this scaling, which is how the multidegrees
    are tested.
    """
    return StateDecomposition(
        dec.local_a * a, dec.local_b * b, dec.corr * c, dec.corr_parts * c, dec.scale
    )


def _ginibre(normals: np.ndarray, n: int) -> np.ndarray:
    """Complex n x n Gaussian matrices from 2n^2 normals on the last axis, real parts first."""
    return (normals[..., : n * n] + 1j * normals[..., n * n :]).reshape(*normals.shape[:-1], n, n)


def _gram_state(g: np.ndarray) -> np.ndarray:
    """The embedded state G G^dagger / tr(G G^dagger); leading axes stack."""
    gram = g @ g.conj().swapaxes(-1, -2)
    gram /= np.trace(gram, axis1=-2, axis2=-1).real[..., None, None]
    return embed(gram.real, gram.imag)


def random_state(seed: int, kind: str = "rational") -> np.ndarray:
    """Deterministic random density matrix.

    kind="rational": A A^dagger / tr(A A^dagger) with a Gaussian-integer
    A, so the result is exactly positive semidefinite with unit trace.
    kind="psd_float": the same construction from a complex Ginibre draw.
    """
    if kind == "rational":
        rng = random.Random(seed)
        while True:
            draws = [rng.randint(-3, 3) for _ in range(72)]  # (re, im) of each entry in turn
            pairs = np.array(draws, dtype=object).reshape(6, 6, 2)
            a = embed(pairs[..., 0], pairs[..., 1])
            gram = a @ a.T
            tr = np.trace(gram[:6, :6])
            if tr != 0:
                return gram * Fraction(1, tr)
    if kind == "psd_float":
        rng_np = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return _gram_state(_ginibre(rng_np.normal(size=72), 6))
    raise ValueError(f"unknown state kind {kind!r}")


@dataclass(frozen=True)
class LocalUnitaryPair:
    """An element (u2, u3) of SU(2) x SU(3), complex128 arrays; leading axes stack."""

    u2: np.ndarray
    u3: np.ndarray


def _haar_special_unitary(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)  # g: Ginibre draws, one n x n matrix or a stack
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    # into SU(n) by an n-th root of det q; np.power, as ** rounds arrays differently
    return q / np.power(np.linalg.det(q), 1.0 / g.shape[-1])[..., None, None]


def _local_unitary(normals: np.ndarray) -> LocalUnitaryPair:
    """The pair made of 26 normals on the last axis: u2's 8, then u3's 18."""
    u2 = _haar_special_unitary(_ginibre(normals[..., :8], 2))
    return LocalUnitaryPair(u2, _haar_special_unitary(_ginibre(normals[..., 8:], 3)))


def random_local_unitary(seed) -> LocalUnitaryPair:
    """Haar-distributed SU(2) x SU(3) pair from a seed or Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _local_unitary(rng.normal(size=26))


def apply_local_unitary(rho: np.ndarray, pair: LocalUnitaryPair) -> np.ndarray:
    """Conjugate a state by u2 (x) u3, in float arithmetic; leading axes broadcast."""
    ju = kron(embed(pair.u2.real, pair.u2.imag), embed(pair.u3.real, pair.u3.imag))
    return ju @ rho.astype(float, copy=False) @ ju.swapaxes(-1, -2)


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def state_to_json(rho: np.ndarray, indent: Optional[int] = None) -> str:
    """Serialize an embedded state to the versioned JSON schema of 6x6 [re, im] pairs."""
    if rho.shape != (12, 12):
        raise ValueError("expected the 12x12 embedding of a 6x6 matrix")
    pairs = np.stack([rho[:6, :6], rho[6:, :6]], axis=-1).tolist()
    if rho.dtype == object:
        matrix = [[[_fraction_str(Fraction(v)) for v in pair] for pair in row] for row in pairs]
        scalar = "rational"
    else:
        matrix = pairs
        scalar = "float"
    payload = {"schema": STATE_SCHEMA, "scalar": scalar, "matrix": matrix}
    return json.dumps(payload, indent=indent)


def _digit_limit() -> int:
    """Python's int-string limit, or its default of 4300 where it is off or missing."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _rational(part) -> Fraction:
    """Fraction(str(part)), refused when its digits would outgrow Python's limit.

    Fraction expands a decimal exponent into an integer with that many
    digits, so "1e10000000" alone takes seconds.  The digit count and the
    exponent are both held to the int-string limit.
    """
    text = str(part)
    limit = _digit_limit()
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


def _cut(text: str) -> str:
    """text cut to 80 characters and "...", for an error that echoes input."""
    return text if len(text) <= 80 else text[:80] + "..."


def _parse_entry(entry, scalar: str, where: str) -> Tuple[Scalar, Scalar]:
    shown = _cut(repr(entry))
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValueError(f"entry {where} must be an [re, im] pair, got {shown}")
    if scalar == "rational":
        try:
            return _rational(entry[0]), _rational(entry[1])
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad rational entry {where} {shown}: {_cut(str(err))}") from err
    try:
        re_part, im_part = float(entry[0]), float(entry[1])
    except (TypeError, ValueError) as err:
        raise ValueError(f"bad float entry {where} {shown}: {_cut(str(err))}") from err
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ValueError(f"non-finite float entry {where} {shown}")
    return re_part, im_part


def _check_common_denominator(parts) -> None:
    """Refuse exact parts whose common denominator has more than 2 * limit digits.

    One part may have a denominator of up to about 2 * limit digits, its
    digits and its decimal exponent each held to the limit, and the state
    may have as large a one.  But parts with coprime denominators multiply
    up: thirty of 3900 digits make a common denominator of about 117k
    digits, and the decomposition works over it.  The lcm is built part
    by part and stops as soon as it passes the cap.
    """
    limit = _digit_limit()
    cap, den = 10 ** (2 * limit), 1
    for part in parts:
        den = math.lcm(den, part.denominator)
        if den >= cap:
            raise ValueError(
                f"the common denominator of the entries has more than {2 * limit} digits"
            )


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
    pairs = [
        _parse_entry(entry, scalar, f"({i}, {j})")
        for i, row in enumerate(matrix)
        for j, entry in enumerate(row)
    ]
    if scalar == "rational":
        _check_common_denominator(part for pair in pairs for part in pair)
    parts = np.array(pairs, dtype=object if scalar == "rational" else float).reshape(6, 6, 2)
    return embed(parts[..., 0], parts[..., 1])
