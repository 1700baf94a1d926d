"""The seven low-degree local-unitary invariants of qubit-qutrit states.

In the decomposition rho = I/6 + X (x) I + I (x) Y + Z the polynomial
invariants of degree two and three are spanned by

    i1 = det X        i4 = det Y            i6 = tr((X (x) Y) Z)
    i2 = tr Y^2       i5 = tr Z^3           i7 = tr((I (x) Y) Z^2)
    i3 = tr Z^2

matching the series coefficients 3 and 4 at those degrees.  Each
invariant is homogeneous in (X, Y, Z) separately; the multidegrees are
recorded in MULTIDEGREES and checked by scaling the components.  Since
det X = -tr X^2 / 2 and det Y = tr Y^3 / 3 for traceless X and Y, all
seven are traces of products.

Two evaluation routes are provided.  The matrix form works directly on
X, Y, Z.  The basis form rewrites everything through Pauli traces and
the correlation parts Y_k of Z = sum_k E_k (x) Y_k, so agreement of the
two routes cross-checks both the algebra and the decomposition.  Both
work on the real embeddings of the scaled pieces (see
:mod:`luinv.states`), the same code for exact and float states: a
complex trace is a pair (re, im), the traces of the top-left and
bottom-left blocks, and each invariant is one such raw value divided
once by its constant times scale^degree.  All seven values are real;
the exact route enforces a vanishing imaginary part and returns
Fractions, the float route holds it to IMAG_TOLERANCE.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from luinv.states import (
    StateDecomposition,
    apply_local_unitary,
    decompose_state,
    divide,
    kron,
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


def _trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(re, im) of tr(AB) from the embeddings J(A), J(B) on the last two axes.

    Reads the top-left and bottom-left blocks of J(AB) = J(A) J(B)
    without forming the product; leading axes broadcast.
    """
    n = a.shape[-1] // 2
    return np.einsum("...cik,...ki->...c", a.reshape(*a.shape[:-2], 2, n, 2 * n), b[..., :n])


def _dot(u: np.ndarray, v: np.ndarray) -> Tuple:
    """(re, im) of sum u * v over complex values held as (..., 2) pairs."""
    # the real part needs Re*Re - Im*Im, not Re*Re alone
    return (
        (u[..., 0] * v[..., 0] - u[..., 1] * v[..., 1]).sum(),
        (u[..., 0] * v[..., 1] + u[..., 1] * v[..., 0]).sum(),
    )


def _realize(raw, divisor: int, exact: bool) -> Value:
    """The real invariant raw / divisor from its raw (re, im) pair."""
    re, im = divide(raw[0], divisor, exact), divide(raw[1], divisor, exact)
    if exact:
        if im != 0:
            raise ArithmeticError(f"invariant value has a nonzero imaginary part {im}")
        return re
    # a finite state can overflow to inf or nan, which no output format can carry
    if not (isfinite(re) and isfinite(im)):
        raise ArithmeticError(f"invariant value {complex(re, im)!r} is not finite")
    if abs(im) > IMAG_TOLERANCE:
        raise ArithmeticError(f"invariant value has imaginary part {im:.3e} above tolerance")
    return float(re)


def eval_matrix_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants directly on the pieces X, Y, Z."""
    x, y, z = dec.local_a, dec.local_b, dec.corr
    z2 = z @ z
    s = dec.scale
    values = (
        (_trace(x, x), -2 * s**2),
        (_trace(y, y), s**2),
        (_trace(z, z), s**2),
        (_trace(y @ y, y), 3 * s**3),
        (_trace(z2, z), s**3),
        (_trace(kron(x, y), z), s**3),
        (_trace(kron(np.eye(4, dtype=int), y), z2), s**3),
    )
    return InvariantVector(*(_realize(raw, d, dec.exact) for raw, d in values))


def eval_basis_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants through Pauli traces and the parts Y_k.

    Independent of eval_matrix_form wherever the correlation part
    enters: i3, i5, i6, i7 are contractions of Pauli trace tensors with
    traces of the Y_k, and i1 comes from the Bloch coefficients of X.
    The parts are held as P_k = 2s Y_k.
    """
    x, y, parts = dec.local_a, dec.local_b, dec.corr_parts
    paulis = pauli_basis()
    s = dec.scale

    x_tr = _trace(x, paulis)  # tr(X~ E_k)
    # traces of products of two and of three basis elements, k, l, m
    pauli_tr2 = _trace(paulis[:, None], paulis[None, :])
    part_tr2 = _trace(parts[:, None], parts[None, :])
    pauli_tr3 = _trace((paulis[:, None] @ paulis[None, :])[:, :, None], paulis[None, None, :])
    part_tr3 = _trace((parts[:, None] @ parts[None, :])[:, :, None], parts[None, None, :])

    values = (
        # det of a traceless hermitian 2x2 is minus its squared Bloch length
        (_dot(x_tr, x_tr), -4 * s**2),
        (_trace(y, y), s**2),
        (_dot(pauli_tr2, part_tr2), 4 * s**2),
        (_trace(y @ y, y), 3 * s**3),
        (_dot(pauli_tr3, part_tr3), 8 * s**3),
        (_dot(x_tr, _trace(y, parts)), 2 * s**3),
        (_dot(pauli_tr2, _trace((y @ parts)[:, None], parts[None, :])), 4 * s**3),
    )
    return InvariantVector(*(_realize(raw, d, dec.exact) for raw, d in values))


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
