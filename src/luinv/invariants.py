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

The matrix form also takes a decomposed stack of float states and returns
(N,) arrays, bit for bit each state's values alone; the battery uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from luinv.states import (
    StateDecomposition,
    _ginibre,
    _gram_state,
    _local_unitary,
    apply_local_unitary,
    decompose_state,
    kron,
    pauli_basis,
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

Value = Union[Fraction, float, np.ndarray]

#: Largest imaginary part a float invariant may carry before it is refused.
IMAG_TOLERANCE = 1e-9

#: Trials the invariance battery evaluates as one stack; it bounds the memory held.
BATTERY_CHUNK = 64


@dataclass(frozen=True)
class InvariantVector:
    """Values of the seven invariants: exact Fractions, floats, or (N,) arrays for a stack."""

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


def _trace(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(re, im) of tr(AB) from the embeddings J(A), J(B) on the last two axes.

    Reads the top-left and bottom-left blocks of J(AB) without forming it;
    leading axes broadcast, and unlike einsum a stack sums as one state does.
    """
    n = a.shape[-1] // 2
    t = (a.reshape(*a.shape[:-2], 2, n, 2 * n) * b[..., None, :, :n].swapaxes(-1, -2)).sum((-2, -1))
    return t[..., 0], t[..., 1]


def _dot(u: Tuple, v: Tuple) -> Tuple:
    """(re, im) of sum u * v over complex arrays u, v held as (re, im) pairs."""
    # the real part needs Re*Re - Im*Im, not Re*Re alone
    return (u[0] * v[0] - u[1] * v[1]).sum(), (u[0] * v[1] + u[1] * v[0]).sum()


def _realize(values, exact: bool) -> InvariantVector:
    """The seven real invariants raw / divisor from (raw (re, im), divisor), checked per state."""
    re, im = (
        np.array([raw[k] * Fraction(1, d) if exact else raw[k] / d for raw, d in values])
        for k in (0, 1)
    )
    if exact:
        if np.any(im != 0):
            raise ArithmeticError(f"invariant value has a nonzero imaginary part {im[im != 0][0]}")
        return InvariantVector(*re)
    # a finite state can overflow to inf or nan, which no output format can carry
    overflowed = ~(np.isfinite(re) & np.isfinite(im))
    if overflowed.any():
        value = complex(re[overflowed][0], im[overflowed][0])
        raise ArithmeticError(f"invariant value {value!r} is not finite")
    if not (abs(im) <= IMAG_TOLERANCE).all():
        worst = im.flat[np.argmax(abs(im))]
        raise ArithmeticError(f"invariant value has imaginary part {worst:.3e} above tolerance")
    return InvariantVector(*(re if re.ndim > 1 else map(float, re)))


def eval_matrix_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants directly on the pieces X, Y, Z; a stack gives arrays."""
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
    return _realize(values, dec.exact)


def eval_basis_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants through Pauli traces and the parts Y_k.

    Independent of eval_matrix_form wherever the correlation part
    enters: i3, i5, i6, i7 are contractions of Pauli trace tensors with
    traces of the Y_k, and i1 comes from the Bloch coefficients of X.
    The parts are held as P_k = 2s Y_k.  One state only, not a stack.
    """
    if dec.corr.ndim != 2:
        raise ValueError("eval_basis_form takes one state, not a stack")
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
    return _realize(values, dec.exact)


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
    trials and components stays within tolerance, the worst being the
    first largest in trial order.  Trials run BATTERY_CHUNK at a time.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    max_dev, worst_trial, worst_component = 0.0, 0, COMPONENTS[0]
    for start in range(0, trials, BATTERY_CHUNK):
        # trial t draws its state's 72 normals, then u2's and u3's 26, from child t
        normals = np.stack([
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,))).normal(size=98)
            for t in range(start, min(start + BATTERY_CHUNK, trials))
        ])
        rho = _gram_state(_ginibre(normals[:, :72], 6))
        v, w = (
            np.stack(eval_matrix_form(decompose_state(r)).as_tuple(), axis=-1)
            for r in (rho, apply_local_unitary(rho, _local_unitary(normals[:, 72:])))
        )
        dev = abs(w - v) / np.maximum(1.0, abs(v))  # (trial, component)
        t, c = np.unravel_index(np.argmax(dev), dev.shape)  # the first of equal maxima
        if dev[t, c] > max_dev:
            max_dev, worst_trial, worst_component = float(dev[t, c]), start + int(t), COMPONENTS[c]
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
        values = [getattr(vec, name) for name in names]
        scale = lcm(*(v.denominator for v in values))
        rows.append([int(v * scale) for v in values])
    return _integer_rank(rows)
