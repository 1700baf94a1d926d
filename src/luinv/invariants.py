"""The seven low-degree local-unitary invariants of qubit-qutrit states.

In the decomposition rho = I/6 + X (x) I + I (x) Y + Z the polynomial
invariants of degree two and three are spanned by

    i1 = det X        i4 = det Y            i6 = tr((X (x) Y) Z)
    i2 = tr Y^2       i5 = tr Z^3           i7 = tr((I (x) Y) Z^2)
    i3 = tr Z^2

matching the series coefficients 3 and 4 at those degrees.  Each
invariant is homogeneous in (X, Y, Z) separately; the multidegrees are
recorded in MULTIDEGREES and checked by scaling the components.  Within
each degree they are pairwise distinct, and each invariant is nonzero at
some state, so the invariants of one degree are linearly independent: if
sum l_i f_i = 0, scaling (X, Y, Z) by (a, b, c) gives
sum l_i f_i a^d1 b^d2 c^d3 = 0 for all a, b, c, and the distinct
monomials force each l_i f_i = 0.  Since det X = -tr X^2 / 2 and
det Y = tr Y^3 / 3 for traceless X and Y, all seven are traces of
products.

Two evaluation routes are provided.  The matrix form works directly on
X, Y, Z and forms no Kronecker product: with tr_qubit the partial trace
over the qubit,

    i6 = tr(Y tr_qubit((X (x) I) Z)),    i7 = tr(Y tr_qubit Z^2),

where J(X (x) I) J(Z) is J(X) times J(Z) read as a 4 x 36 array, and i2
and i3 are the traces of the Y^2 and Z^2 built for i4 and i5.  The basis
form rewrites everything through Pauli traces and the correlation parts
Y_k of Z = sum_k E_k (x) Y_k, so agreement of the two routes
cross-checks both the algebra and the decomposition.  Both
work on the real embeddings of the scaled pieces (see
:mod:`luinv.states`), the same code for exact and float states: a
complex trace is a pair (re, im), the traces of the top-left and
bottom-left blocks, and each invariant is one such raw value divided
once by its constant times scale^degree.  Exact raw values are
integers, int64 up to states.INT64_LIMIT and Python ints beyond, and
each becomes one Fraction.  All seven values are real; the exact route
enforces a vanishing imaginary part and returns Fractions, the float
route holds it to IMAG_TOLERANCE times max(1, |real part|).  The Pauli
traces the basis form contracts with are built once, at import.

The matrix form also takes a decomposed stack of float states and returns
(N,) arrays, bit for bit each state's values alone; the battery uses it,
one stack of states and their conjugates per chunk of trials.  The
battery draws its normals from one stdlib random.Random(seed) stream
through states._normals, the package's one source of normals, so it
never imports numpy's random module.  Exact values are scalars: both
forms take one exact state, not a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

import numpy as np

from luinv.states import (
    PAULIS,
    StateDecomposition,
    _ginibre,
    _gram_state,
    _local_unitary,
    _normals,
    _seeded,
    apply_local_unitary,
    decompose_state,
    partial_trace_qubit,
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

Value = Union[Fraction, float, np.ndarray]

#: Largest imaginary part, relative to max(1, |real part|), a float invariant may carry.
IMAG_TOLERANCE = 1e-9

#: Trials the invariance battery evaluates as one stack; it bounds the memory held.
BATTERY_CHUNK = 64


@dataclass(frozen=True)
class InvariantVector:
    """Values of the seven invariants: exact Fractions, floats, or (N,) arrays for a float stack."""

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


def _diagonal_trace(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(re, im) of tr M from J(M): the traces of its top-left and bottom-left blocks."""
    n = m.shape[-1] // 2
    t = np.trace(m[..., :n].reshape(*m.shape[:-2], 2, n, n), axis1=-2, axis2=-1)
    return t[..., 0], t[..., 1]


def _dot(u: Tuple, v: Tuple) -> Tuple:
    """(re, im) of sum u * v over complex arrays u, v held as (re, im) pairs."""
    # the real part needs Re*Re - Im*Im, not Re*Re alone
    return (u[0] * v[0] - u[1] * v[1]).sum(), (u[0] * v[1] + u[1] * v[0]).sum()


# traces of products of two and of three Pauli matrices E_k, E_l, E_m, indexed k, l, m
_PAULI_TR2 = _trace(PAULIS[:, None], PAULIS[None, :])
_PAULI_TR3 = _trace((PAULIS[:, None] @ PAULIS[None, :])[:, :, None], PAULIS[None, None, :])


def _realize(values, exact: bool) -> InvariantVector:
    """The seven real invariants raw / divisor from (raw (re, im), divisor), checked per state.

    Exact raw values are integer scalars, int64 or Python ints, and give Fractions.
    """
    if exact:
        for (_, im), d in values:
            if im:
                raise ArithmeticError(
                    f"invariant value has a nonzero imaginary part {Fraction(int(im), d)}"
                )
        return InvariantVector(*(Fraction(int(re), d) for (re, _), d in values))
    re, im = (np.array([raw[k] / d for raw, d in values]) for k in (0, 1))
    # a finite state can overflow to inf or nan, which no output format can carry
    overflowed = ~(np.isfinite(re) & np.isfinite(im))
    if overflowed.any():
        value = complex(re[overflowed][0], im[overflowed][0])
        raise ArithmeticError(f"invariant value {value!r} is not finite")
    # rounding error grows with the value, so it is held at the battery's scale max(1, |v|)
    excess = abs(im) / np.maximum(1.0, abs(re))
    if not (excess <= IMAG_TOLERANCE).all():
        worst = im.flat[np.argmax(excess)]
        raise ArithmeticError(f"invariant value has imaginary part {worst:.3e} above tolerance")
    return InvariantVector(*(re if re.ndim > 1 else map(float, re)))


def eval_matrix_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants directly on the pieces X, Y, Z; a float stack gives arrays."""
    if dec.exact and dec.corr.ndim != 2:
        raise ValueError("eval_matrix_form takes one exact state, not a stack")
    x, y, z = dec.local_a, dec.local_b, dec.corr
    y2, z2 = y @ y, z @ z
    # tr((X (x) Y) Z) = tr(Y tr_qubit((X (x) I) Z)), with J(X~ (x) I) J(Z~) = J(X~) times J(Z~)
    # read as 4 x 36; (X (x) I) Z is freed at once, so it is not held beside Z^2's traces
    raw_i6 = _trace(y, partial_trace_qubit((x @ z.reshape(*z.shape[:-2], 4, 36)).reshape(z.shape)))
    s = dec.scale
    values = (
        (_trace(x, x), -2 * s**2),
        (_diagonal_trace(y2), s**2),
        (_diagonal_trace(z2), s**2),
        (_trace(y2, y), 3 * s**3),
        (_trace(z2, z), s**3),
        (raw_i6, s**3),
        (_trace(y, partial_trace_qubit(z2)), s**3),  # tr((I (x) Y) Z^2) = tr(Y tr_qubit Z^2)
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
    s = dec.scale

    x_tr = _trace(x, PAULIS)  # tr(X~ E_k)
    # traces of products of two and of three parts, k, l, m
    part_tr2 = _trace(parts[:, None], parts[None, :])
    part_tr3 = _trace((parts[:, None] @ parts[None, :])[:, :, None], parts[None, None, :])

    values = (
        # det of a traceless hermitian 2x2 is minus its squared Bloch length
        (_dot(x_tr, x_tr), -4 * s**2),
        (_trace(y, y), s**2),
        (_dot(_PAULI_TR2, part_tr2), 4 * s**2),
        (_trace(y @ y, y), 3 * s**3),
        (_dot(_PAULI_TR3, part_tr3), 8 * s**3),
        (_dot(x_tr, _trace(y, parts)), 2 * s**3),
        (_dot(_PAULI_TR2, _trace((y @ parts)[:, None], parts[None, :])), 4 * s**3),
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


#: Normals a battery trial draws: 72 for the state, then 8 for u2 and 18 for u3.
_TRIAL_NORMALS = 98


def invariance_battery(
    trials: int, seed: int, tolerance: float = 1e-9
) -> InvarianceReport:
    """Check invariance under random SU(2) x SU(3) conjugations.

    One random.Random(seed) stream feeds the whole battery: trial t takes
    the t-th block of 98 normals from states._normals, draws a Ginibre
    state from the first 72 and a Haar local unitary from the other 26,
    evaluates the invariants before and after conjugation, and records the
    relative deviation |v' - v| / max(1, |v|).  Passes if the worst
    deviation over all trials and components stays within tolerance, the
    worst being the first largest in trial order.  Trials run BATTERY_CHUNK
    at a time, each chunk's states and their conjugates as one stack; the
    report does not depend on the chunk size.  The seed must be a
    nonnegative integer.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = _seeded(seed)
    max_dev, worst_trial, worst_component = 0.0, 0, COMPONENTS[0]
    for start in range(0, trials, BATTERY_CHUNK):
        n = min(BATTERY_CHUNK, trials - start)
        normals = _normals(rng, _TRIAL_NORMALS * n).reshape(n, _TRIAL_NORMALS)
        rho = _gram_state(_ginibre(normals[:, :72], 6))
        both = np.concatenate([rho, apply_local_unitary(rho, *_local_unitary(normals[:, 72:]))])
        values = np.stack(eval_matrix_form(decompose_state(both)).as_tuple(), axis=-1)
        v, w = values[:n], values[n:]
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
