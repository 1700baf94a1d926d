"""The seven low-degree local-unitary invariants of qubit-qutrit states.

In the decomposition rho = I/6 + X (x) I + I (x) Y + Z the polynomial
invariants of degree two and three are spanned by

    i1 = det X        i4 = det Y            i6 = tr((X (x) Y) Z)
    i2 = tr Y^2       i5 = tr Z^3           i7 = tr((I (x) Y) Z^2)
    i3 = tr Z^2

matching the series coefficients 3 and 4 at those degrees.  Each
invariant is homogeneous in (X, Y, Z) separately; the multidegrees are
recorded in MULTIDEGREES and checked by scaling the components.

Two evaluation routes are provided.  The matrix form works directly on
X, Y, Z.  The basis form rewrites everything through Pauli traces and
the correlation parts Y_k of Z = sum_k E_k (x) Y_k, so agreement of the
two routes cross-checks both the algebra and the decomposition.  All
seven values are real; the exact route enforces a vanishing imaginary
part and returns Fractions, the float route holds it to IMAG_TOLERANCE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from luinv.exact import GaussianRational
from luinv.states import (
    StateDecomposition,
    apply_local_unitary,
    decompose_state,
    pauli_basis,
    random_local_unitary,
    random_state,
)

COMPONENTS = ("i1", "i2", "i3", "i4", "i5", "i6", "i7")

#: Homogeneous degree of each invariant in (X, Y, Z) respectively.
MULTIDEGREES: Dict[str, Tuple[int, int, int]] = {
    "i1": (2, 0, 0),
    "i2": (0, 2, 0),
    "i3": (0, 0, 2),
    "i4": (0, 3, 0),
    "i5": (0, 0, 3),
    "i6": (1, 1, 1),
    "i7": (0, 1, 2),
}

DEGREE_TWO = ("i1", "i2", "i3")
DEGREE_THREE = ("i4", "i5", "i6", "i7")

Value = Union[Fraction, float]

#: Largest imaginary part a float invariant may carry before it is refused.
IMAG_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InvariantVector:
    """Values of the seven invariants, exact Fractions or floats."""

    i1: Value
    i2: Value
    i3: Value
    i4: Value
    i5: Value
    i6: Value
    i7: Value

    def as_tuple(self) -> Tuple[Value, ...]:
        return tuple(getattr(self, name) for name in COMPONENTS)

    def as_dict(self) -> Dict[str, Value]:
        return {name: getattr(self, name) for name in COMPONENTS}

    def component(self, name: str) -> Value:
        if name not in COMPONENTS:
            raise KeyError(f"unknown invariant {name!r}")
        return getattr(self, name)


def det(m: np.ndarray):
    """Determinant of a 2x2 or 3x3 array, exact or float.

    np.linalg.det cannot take object arrays, and the cofactor expansion
    keeps Gaussian-rational entries exact.
    """
    if m.shape == (2, 2):
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if m.shape == (3, 3):
        return (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    raise ValueError(f"determinant implemented for 2x2 and 3x3 only, got shape {m.shape}")


def _trace_product(a: np.ndarray, b: np.ndarray):
    """tr(a @ b) without forming the product."""
    return (a * b.T).sum()


def _realize(value) -> Value:
    if isinstance(value, GaussianRational):
        if not value.is_real:
            raise ArithmeticError(
                f"invariant value {value!r} has a nonzero imaginary part"
            )
        return value.re
    v = complex(value)
    # a finite state can overflow to inf or nan, which no output format can carry
    if not (isfinite(v.real) and isfinite(v.imag)):
        raise ArithmeticError(f"invariant value {v!r} is not finite")
    if abs(v.imag) > IMAG_TOLERANCE:
        raise ArithmeticError(
            f"invariant value has imaginary part {v.imag:.3e} above tolerance"
        )
    return v.real


def eval_matrix_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants directly on the pieces X, Y, Z."""
    x, y, z = dec.local_a, dec.local_b, dec.corr
    z2 = z @ z
    values = (
        det(x),
        _trace_product(y, y),
        np.trace(z2),
        det(y),
        _trace_product(z2, z),
        _trace_product(np.kron(x, y), z),
        _trace_product(np.kron(np.eye(2, dtype=y.dtype), y), z2),
    )
    return InvariantVector(*(_realize(v) for v in values))


def eval_basis_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants through Pauli traces and the parts Y_k.

    Independent of eval_matrix_form wherever the correlation part
    enters: i3, i5, i6, i7 are contractions of Pauli trace tensors with
    traces of the Y_k, and i1 comes from the Bloch coefficients of X.
    """
    x, y = dec.local_a, dec.local_b
    parts = dec.corr_parts
    paulis = pauli_basis() if dec.exact else pauli_basis().astype(complex)
    half = Fraction(1, 2) if dec.exact else 0.5

    x_tr = np.einsum("ab,kba->k", x, paulis)  # tr(X E_k)
    # det of a traceless hermitian 2x2 is minus its squared Bloch length
    bloch = x_tr * half
    i1 = -(bloch * bloch).sum()

    # traces of products of two and of three basis elements, k, l, m
    pauli_tr2 = np.einsum("kab,lba->kl", paulis, paulis)
    part_tr2 = np.einsum("kab,lba->kl", parts, parts)
    pauli_tr3 = np.einsum("kab,lbc,mca->klm", paulis, paulis, paulis)
    part_tr3 = np.einsum("klac,mca->klm", parts[:, None] @ parts[None, :], parts)

    i3 = (pauli_tr2 * part_tr2).sum()
    i5 = (pauli_tr3 * part_tr3).sum()
    i6 = (x_tr * np.einsum("ab,kba->k", y, parts)).sum()
    i7 = (pauli_tr2 * np.einsum("ab,kbc,lca->kl", y, parts, parts)).sum()

    values = (i1, _trace_product(y, y), i3, det(y), i5, i6, i7)
    return InvariantVector(*(_realize(v) for v in values))


@dataclass(frozen=True)
class InvarianceReport:
    """Result of the random local-unitary invariance battery."""

    trials: int
    tolerance: float
    max_deviation: float
    worst_component: str
    worst_trial: int
    passed: bool


def invariance_battery(
    trials: int, seed: int, tolerance: float = 1e-9
) -> InvarianceReport:
    """Check invariance under random SU(2) x SU(3) conjugations.

    Each trial draws a Ginibre state and a Haar local unitary from its
    own child of the seed sequence, evaluates the invariants before and
    after conjugation, and records the relative deviation
    |v' - v| / max(1, |v|).  Passes if the worst deviation over all
    trials and components stays within tolerance.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    max_dev, worst_trial, worst_component = 0.0, 0, COMPONENTS[0]
    for t in range(trials):
        # the t-th child of SeedSequence(seed), made only when it is needed
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        rho = random_state(rng, kind="psd_float")
        before = eval_matrix_form(decompose_state(rho))
        pair = random_local_unitary(rng)
        after = eval_matrix_form(decompose_state(apply_local_unitary(rho, pair)))
        for name in COMPONENTS:
            v, w = before.component(name), after.component(name)
            dev = abs(w - v) / max(1.0, abs(v))
            if dev > max_dev:
                max_dev, worst_trial, worst_component = dev, t, name
    return InvarianceReport(
        trials=trials,
        tolerance=tolerance,
        max_deviation=max_dev,
        worst_trial=worst_trial,
        worst_component=worst_component,
        passed=max_dev <= tolerance,
    )


def _integer_rank(rows: List[List[int]]) -> int:
    # Bareiss fraction-free elimination; all divisions are exact.
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    n, m = len(mat), len(mat[0])
    rank, prev = 0, 1
    for col in range(m):
        pivot = next((r for r in range(rank, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, n):
            for c in range(col + 1, m):
                mat[r][c] = (mat[rank][col] * mat[r][c] - mat[r][col] * mat[rank][c]) // prev
            mat[r][col] = 0
        prev = mat[rank][col]
        rank += 1
        if rank == n:
            break
    return rank


def independence_rank(states: Sequence[np.ndarray], degree: int) -> int:
    """Exact rank of the evaluation matrix of one degree's invariants.

    Rows are exact states, columns the invariants of the given degree
    (2 or 3).  Full column rank certifies linear independence; by the
    series the expected ranks are 3 and 4.
    """
    if degree == 2:
        names = DEGREE_TWO
    elif degree == 3:
        names = DEGREE_THREE
    else:
        raise ValueError("degree must be 2 or 3")
    rows: List[List[int]] = []
    for rho in states:
        if rho.dtype != object:
            raise ValueError("independence_rank needs exact states")
        vec = eval_matrix_form(decompose_state(rho))
        values = [vec.component(name) for name in names]
        scale = lcm(*(v.denominator for v in values))
        rows.append([int(v * scale) for v in values])
    return _integer_rank(rows)
