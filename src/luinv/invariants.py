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
and i3 are the traces of the Y^2 and Z^2 built for i4 and i5.  It works
on the real embeddings of the scaled pieces (see :mod:`luinv.states`),
the same code for exact and float states: a complex trace is a pair
(re, im), the traces of the top-left and bottom-left blocks, and each
invariant is one such raw value divided once by its constant times
scale^degree.  Exact raw values are integers, int64 up to
states.INT64_LIMIT and Python ints beyond.

The basis form is compiled.  In the orthogonal integer basis
B_a = E_k (x) G_m of the 6 x 6 hermitian matrices, with E and G the
identity and the traceless hermitian units of the qubit and the qutrit,
the 35 coordinates w_a = tr(B_a M) of M = s(rho - I/6) come from one
integer matmul over the first block columns of the pieces, and each
invariant is a fixed integer combination of monomials of degree 2 or 3
in w: 3, 8, 24, 16, 54, 24 and 105 of them, 234 in all.  The tables are
built once, at import, from the traces tr(B_a B_b B_c), which factor
into traces of the units.  A state's integer coordinates stay int64
when max|w|^degree times the sum of a row's |coefficients| is below
2^63 for every row, and run the same code on Python ints otherwise.
The tables come from the traces of the basis alone, never from
eval_matrix_form, so equal values on the two routes cross-check both
the algebra and the decomposition.

Exact values become one Fraction per invariant.  All seven values are
real: the basis form has no imaginary part, the exact matrix form
enforces a vanishing one, and the float matrix form holds it to
IMAG_TOLERANCE times max(1, |real part|).  Non-finite float values are
refused on both routes.

The matrix form also takes a decomposed stack of float states and returns
(N,) arrays, bit for bit each state's values alone; the battery uses it,
one stack of states and their conjugates per chunk of trials.  The
battery draws its normals from one stdlib random.Random(seed) stream
through states._normals, the package's one source of normals, so it
never imports numpy's random module.  Exact values are scalars: both
forms take one exact state, not a stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

import numpy as np

from luinv.states import (
    StateDecomposition,
    _ginibre,
    _gram_state,
    _local_unitary,
    _normals,
    _seeded,
    apply_local_unitary,
    decompose_state,
    embed,
    partial_trace_qubit,
    partial_trace_qutrit,
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


def _hermitian_units(n: int) -> np.ndarray:
    """J(U_u) for the n^2 trace-orthogonal integer hermitian n x n units U_u.

    I first, then E_jk + E_kj and -i E_jk + i E_kj for j < k, then
    diag(1, ..., 1, -l, 0, ..., 0) with l ones for l = 1 .. n - 1; for n = 2
    these are I and the Pauli matrices x, y, z.
    """
    pairs = list(itertools.combinations(range(n), 2))
    parts = np.zeros((2, n * n, n, n), dtype=np.int64)  # re, im
    parts[0, 0] = np.eye(n, dtype=np.int64)
    for u, (j, k) in enumerate(pairs, 1):
        parts[0, u, j, k] = parts[0, u, k, j] = 1
        parts[1, u + len(pairs), j, k], parts[1, u + len(pairs), k, j] = -1, 1
    for l in range(1, n):
        parts[0, 2 * len(pairs) + l, range(l + 1), range(l + 1)] = [1] * l + [-l]
    return embed(*parts)


def _triple_traces(u: np.ndarray) -> np.ndarray:
    """(2, N, N, N): re and im of tr(U_a U_b U_c) for the N embedded units u.

    What _trace computes, as one matmul of the halves of J(U_a U_b)
    against the first block columns of J(U_c).
    """
    n, count = u.shape[-1] // 2, len(u)
    halves = (u[:, None] @ u[None]).reshape(count * count, 2, 2 * n * n)
    t = (halves @ u[:, :, :n].swapaxes(1, 2).reshape(count, 2 * n * n).T).swapaxes(0, 1)
    return t.reshape(2, count, count, count)


#: Each invariant as c tr(M_p M_q M_r) / s^degree in the pieces of
#: M = X~ (x) I + I (x) Y~ + Z~, piece 0 being I, 1 X~ (x) I, 2 I (x) Y~ and
#: 3 Z~: a row (numerator of c, denominator of c, p, q, r), the pieces in
#: ascending order.  i1 = -tr X^2 / 2 and i4 = tr Y^3 / 3 pick up 1/3 and 1/2
#: from the identity factor's trace.
_TRACE_FORMS = (
    (-1, 6, 0, 1, 1),
    (1, 2, 0, 2, 2),
    (1, 1, 0, 3, 3),
    (1, 6, 2, 2, 2),
    (1, 1, 3, 3, 3),
    (1, 1, 1, 2, 3),
    (1, 1, 2, 3, 3),
)


def _compile():
    """(coordinates, monomials, coefficients, starts, divisors, degrees) of the basis form.

    B_a = E_k (x) G_m for a = 9k + m, with E and G the units of the qubit
    and the qutrit, is an orthogonal basis of the 6 x 6 hermitian matrices.
    coordinates is the (36, 99) integer matrix taking the first block
    columns of J(X~), J(Y~), J(Z~) and a trailing 1 to w, with w_0 = 1 and
    w_a = tr(B_a M) for a > 0, so that M = sum_a w_a B_a / tr(B_a^2).  An
    invariant c tr(M_p M_q M_r) is then the sum over the (a, b, c) whose
    pieces are (p, q, r) of c Re tr(B_a B_b B_c) w_a w_b w_c over
    tr(B_a^2) tr(B_b^2) tr(B_c^2), with B_0 = I padding the quadratics.
    The trace factors as tr(E_k E_l E_n) tr(G_m G_p G_q), so only products
    of nonzero factors are formed.  Column j of monomials and coefficients
    stands for coefficients[j] times the product of w at monomials[:, j];
    invariant i sums its columns from starts[i] and divides by
    divisors[i] * s^degrees[i], in lowest terms.
    """
    forms = np.array(_TRACE_FORMS)
    e, g = _hermitian_units(2), _hermitian_units(3)
    k, m = np.divmod(np.arange(36), 9)  # a = 9k + m
    # J(B_a), the complex Kronecker product E_k (x) G_m on the real and imaginary parts
    er, ei = e[:, None, :2, None, :2, None], e[:, None, 2:, None, :2, None]
    gr, gi = g[None, :, None, :3, None, :3], g[None, :, None, 3:, None, :3]
    basis = embed((er * gr - ei * gi).reshape(36, 6, 6), (er * gi + ei * gr).reshape(36, 6, 6))
    # tr(B_a M) = tr(tr_qutrit(B_a) X~) + tr(tr_qubit(B_a) Y~) + tr(B_a Z~); for a = 0 it
    # is tr M = 0, and the trailing 1 makes w_0 = 1
    coordinates = np.concatenate(
        [
            partial_trace_qutrit(basis)[:, :, :2].reshape(36, 8),
            partial_trace_qubit(basis)[:, :, :3].reshape(36, 18),
            basis[:, :, :6].reshape(36, 72),
            np.eye(36, 1, dtype=np.int64),
        ],
        axis=1,
    )
    # the piece B_a lies in: 0 the identity, 1 X~ (x) I, 2 I (x) Y~, 3 Z~
    piece = np.where(k > 0, 1, 0) + np.where(m > 0, 2, 0)

    e3, g3 = _triple_traces(e), _triple_traces(g)
    norms = e3[0][k, 0, k] * g3[0][m, 0, m]  # tr(B_a^2), each dividing 12
    norms[0] = 1  # w_0 = 1 stands for itself
    # the nonzero factor traces, and every ordered (a, b, c) whose trace is their product
    on_e = np.nonzero(np.where(e3[0] == 0, e3[1], e3[0]))
    on_g = np.nonzero(np.where(g3[0] == 0, g3[1], g3[0]))
    abc = (9 * np.stack(on_e, axis=1)[:, None] + np.stack(on_g, axis=1)).reshape(-1, 3)
    re = (e3[0][on_e][:, None] * g3[0][on_g] - e3[1][on_e][:, None] * g3[1][on_g]).ravel()
    form = np.full(64, 7)
    form[forms[:, 2:] @ np.array([16, 4, 1])] = np.arange(7)
    parts = piece[abc]
    # Re tr(B_a B_b B_c) is cyclic and fixed by reversal, so symmetric in (a, b, c): one
    # ordering per monomial, the one whose (piece, index) pairs ascend, stands for all
    # that spell its form, whose pieces ascend
    key = 36 * parts + abc
    ascending = (key[:, :2] <= key[:, 1:]).all(axis=1)
    which = np.where(ascending, form[parts @ np.array([16, 4, 1])], 7)
    which = np.where(re == 0, 7, which)
    rows = np.nonzero(np.arange(7)[:, None] == which)[1]  # grouped by form
    monomials, parts, re, which = abc[rows], parts[rows], re[rows], which[rows]
    starts = np.flatnonzero(np.concatenate(([True], which[1:] != which[:-1])))
    # a monomial stands for the permutations fixing its pieces over those fixing its
    # indices, equal entries of each being adjacent
    fixing = np.array([1, 2, 6])
    orderings = fixing[(parts[:, :2] == parts[:, 1:]).sum(axis=1)]
    orderings //= fixing[(monomials[:, :2] == monomials[:, 1:]).sum(axis=1)]
    # c * orderings * Re tr / prod norms, over the denominator of c times 12^3
    coefficients = forms[which, 0] * orderings * re * (12**3 // norms[monomials].prod(axis=1))
    lowest = forms[:, 1] * 12**3
    for i, row in enumerate(np.split(coefficients, starts[1:])):
        lowest[i] = math.gcd(lowest[i], *row.tolist())
    coefficients //= lowest[which]
    tables = coordinates, np.ascontiguousarray(monomials.T), coefficients, starts
    for table in tables:
        table.flags.writeable = False
    divisors = forms[:, 1] * 12**3 // lowest
    degrees = 3 - (forms[:, 2] == 0)
    return (*tables, tuple(divisors.tolist()), tuple(degrees.tolist()))


_COORDINATES, _MONOMIALS, _COEFFICIENTS, _STARTS, _DIVISORS, _DEGREES = _compile()
#: (degree, sum of |coefficients|) of each invariant's row, for the int64 check.
_LOADS = tuple(
    (d, sum(map(abs, c.tolist()))) for d, c in zip(_DEGREES, np.split(_COEFFICIENTS, _STARTS[1:]))
)


def _coordinates(dec: StateDecomposition) -> np.ndarray:
    """w (36,) of _compile: 1, then tr(B_a M) for the 35 basis matrices, by one matmul."""
    columns = (dec.local_a[:, :2], dec.local_b[:, :3], dec.corr[:, :6])
    return _COORDINATES @ np.concatenate([*(c.ravel() for c in columns), [1]])


def _fits_int64(w: np.ndarray) -> bool:
    """Whether every invariant's row evaluates within int64 at the integer coordinates w.

    A row of degree d bounds each partial sum by max|w|^d times the sum
    of its |coefficients|.
    """
    top = int(abs(w).max())
    return all(top**d * load < 2**63 for d, load in _LOADS)


def eval_basis_form(dec: StateDecomposition) -> InvariantVector:
    """Evaluate the invariants as sparse integer polynomials in 35 basis coordinates.

    Independent of eval_matrix_form: the coordinates w_a = tr(B_a M) come
    from one matmul, and each invariant is a fixed integer combination of
    the monomials of degree 2 or 3 in w that _compile derives from the
    traces of products of the basis matrices.  Integer coordinates are
    int64 while the check of _fits_int64 passes, Python ints beyond.  One
    state only, not a stack.
    """
    if dec.corr.ndim != 2:
        raise ValueError("eval_basis_form takes one state, not a stack")
    w = _coordinates(dec)
    if w.dtype == np.int64 and not _fits_int64(w):
        w = w.astype(object)
    a, b, c = w[_MONOMIALS]
    raw = np.add.reduceat(_COEFFICIENTS * a * b * c, _STARTS).tolist()
    divisors = [d * dec.scale**n for d, n in zip(_DIVISORS, _DEGREES)]
    if dec.exact:  # real by construction
        return InvariantVector(*map(Fraction, raw, divisors))
    return _realize([((r, 0), d) for r, d in zip(raw, divisors)], False)


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
