"""Qubit-qutrit density matrices and their Bloch-style decomposition.

A 6x6 density matrix on C^2 (x) C^3 (qubit factor major) splits uniquely
as

    rho = I6/6 + X (x) I3 + I2 (x) Y + Z

with X, Y traceless hermitian of sizes 2 and 3 and Z a 6x6 correlation
part whose partial traces over either factor vanish.  These pieces are
exactly the coordinates on which the local-unitary invariants act, so
the decomposition is the bridge between raw states and invariant
evaluation.

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
denominator, so exact pieces are integer arrays, int64 while the integer
form's entries are within INT64_LIMIT and Python ints beyond it.  Exact
random states come from A A^dagger / tr(A A^dagger) with Gaussian-integer
A, float ones from the Ginibre ensemble, and Haar special unitaries from
the QR factor of a Ginibre draw whose R has a positive diagonal (the
phase fix of Mezzadri, Notices AMS 54, 2007), built by Gram-Schmidt run
twice per column, so no LAPACK routine is called.  Every random
draw comes from one stdlib random.Random(seed) stream: the integers of A
directly, the normals by Box-Muller from its bytes (_normals), so numpy's
random module is never imported.

No Kronecker product is formed.  The block identities for A (x) I and
(X (x) I)(I (x) Y) (C. F. Van Loan, "The ubiquitous Kronecker product",
J. Comput. Appl. Math. 123, 2000) stand in for it: split as (re/im,
qubit, qutrit) twice, J(X (x) I3) is J(X) in the blocks (j, l = j) and
zero elsewhere, J(I2 (x) Y) is J(Y) in the blocks (i, k = i), so the
decomposition subtracts the local parts there in place; u2 (x) u3 is
formed in complex128 by broadcasting and embedded once; and each partial
trace is a sum of slices of the split.

The array functions act on the last two axes, so a stack (N, 12, 12) of
float states takes the same code as one state, checked state by state:
every step is elementwise or a matmul per state, so a stack's pieces are
bit for bit those of each state alone.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

import numpy as np

STATE_SCHEMA = "luinv.state.v1"

Scalar = Union[int, Fraction, float]


def embed(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """J(re + i im) = [[re, -im], [im, re]] on the last two axes."""
    return np.concatenate(
        [np.concatenate([re, -im], axis=-1), np.concatenate([im, re], axis=-1)], axis=-2
    )


def _split(m: np.ndarray) -> np.ndarray:
    """An embedded 6x6 array, or a stack of them, indexed (..., c, i, j, d, k, l)."""
    return m.reshape(*m.shape[:-2], 2, 2, 3, 2, 2, 3)


def partial_trace_qutrit(m: np.ndarray) -> np.ndarray:
    """Trace out the qutrit factor of an embedded 6x6 array, leaving the 4x4 J(2x2)."""
    s = _split(m)  # the sum of the blocks (j, l = j)
    traced = s[..., 0, :, :, 0] + s[..., 1, :, :, 1] + s[..., 2, :, :, 2]
    return traced.reshape(*m.shape[:-2], 4, 4)


def partial_trace_qubit(m: np.ndarray) -> np.ndarray:
    """Trace out the qubit factor of an embedded 6x6 array, leaving the 6x6 J(3x3)."""
    s = _split(m)  # the sum of the blocks (i, k = i)
    return (s[..., 0, :, :, 0, :] + s[..., 1, :, :, 1, :]).reshape(*m.shape[:-2], 6, 6)


#: The largest entry size max |den * rho| of an exact state's integer form
#: that decompose_state and eval_matrix_form handle in int64.
#:
#: With entries |n| <= B of the integer form n = den * rho, den = tr n is
#: at most 6B, and each piece entry is a linear form in the 36 real
#: parameters of the hermitian n whose coefficients sum in size to 12 for
#: X~, 16 for Y~ and Z~ and at most 20 for any other intermediate of
#: decompose_state.  A trace tr(A B) of two embedded n x n arrays sums
#: 2n^2 products of entries, and an entry of A B sums 2n.  The largest
#: value, and a bound on every partial sum on the way, is the matrix
#: form's tr Z~^3 <= 72 * 12 * 16^3 * B^3; its i6 and i7, through
#: tr_qubit((X~ (x) I) Z~) and tr_qubit Z~^2, are at most 1/8 and 1/2 of
#: that.  72 * 12 * 16^3 * B^3 is below 2^63 for B <= 13761.  Random
#: rational states have B <= 108.  eval_basis_form checks its own
#: coordinates state by state.
INT64_LIMIT = 13761


@dataclass(frozen=True)
class StateDecomposition:
    """Embedded pieces of s*rho = s/6 + X~(x)I + I(x)Y~ + Z~ for the integer scale s.

    The pieces are X~ = sX, Y~ = sY and Z~ = sZ, so that for an exact state
    every entry is an integer: int64 arrays while the state's integer form
    is within INT64_LIMIT, Python ints (dtype=object) beyond it.  A stack's
    axes come before each piece's shape given below.
    """

    local_a: np.ndarray  # J(X~): 4x4, X traceless hermitian, qubit side
    local_b: np.ndarray  # J(Y~): 6x6, Y traceless hermitian, qutrit side
    corr: np.ndarray  # J(Z~): 12x12, both partial traces vanish
    scale: int  # s = 12 * the common denominator of the state's entries

    @property
    def exact(self) -> bool:
        """Whether the pieces are integers, int64 or object: those of an exact state."""
        return self.corr.dtype.kind in "iO"


def validate_state(rho: np.ndarray) -> Tuple[int, np.ndarray]:
    """Raise ValueError unless rho embeds a 6x6 hermitian matrix with unit trace.

    That is: rho is 12x12, symmetric (J(M)^T = J(M^dagger)), of the form
    [[R, -I], [I, R]], and tr R = 1; a stack (..., 12, 12) passes if each
    state does.  The checks run on the integer form den * rho: exact states
    must hold int or Fraction entries only and pass exactly, float states
    are held to 1e-12 * max(1, max |entry|), each state at its own scale,
    and a NaN anywhere fails the checks.  Returns _integer_form(rho), which
    refuses an exact state whose common denominator passes its cap.
    """
    if rho.shape[-2:] != (12, 12):
        raise ValueError(f"expected the 12x12 embedding of a 6x6 matrix, got shape {rho.shape}")
    den, n = _integer_form(rho)
    if rho.dtype == object:
        tolerance = 0
    else:
        # rounding error grows with the entries, so it is held at each state's scale max(1, max |n|)
        tolerance = 1e-12 * np.maximum(1.0, abs(n).max(axis=(-2, -1)))

    def within(deviation: np.ndarray) -> bool:
        return bool(np.all(abs(deviation).max(axis=(-2, -1)) <= tolerance))

    if not within(n - n.swapaxes(-1, -2)):
        raise ValueError("state is not hermitian")
    re, im = n[..., :6, :6], n[..., 6:, :6]
    if not (within(n[..., 6:, 6:] - re) and within(n[..., :6, 6:] + im)):
        raise ValueError("state is not an embedding [[R, -I], [I, R]] of a complex matrix")
    trace = np.trace(re, axis1=-2, axis2=-1)
    passing = np.ravel(abs(trace - den) <= tolerance)
    if not passing.all():
        worst = np.ravel(trace)[np.argmin(passing)]  # the first failing state's
        raise ValueError(f"state trace is {Fraction(worst, den) if den > 1 else worst}, not 1")
    return den, n


def _integer_form(rho: np.ndarray) -> Tuple[int, np.ndarray]:
    """(den, den * rho): integers over the lcm of the denominators if exact, den = 1 if float.

    The integers are int64 while every one is within INT64_LIMIT in size
    and den within 6 * INT64_LIMIT, Python ints beyond.  Exact entries
    must be ints or Fractions, and den has at most 2 * limit digits for
    Python's int-string limit: one part of a state file may carry about
    that many, but coprime denominators multiply up (thirty of 3900
    digits make about 117k, and each form then takes about a minute).
    The lcm grows one distinct denominator at a time and stops at the cap.
    """
    if rho.dtype != object:
        # C order: decompose_state writes into views of arrays made from it
        return 1, np.ascontiguousarray(rho, dtype=float)
    values = rho.ravel().tolist()
    if not set(map(type, values)) <= {int, Fraction}:
        raise ValueError("exact states must hold int or Fraction entries")
    ratios = [v.as_integer_ratio() for v in values]
    limit, den = _digit_limit(), 1
    for d in {d for _, d in ratios}:
        den = math.lcm(den, d)
        # 10^(2 limit) has over 6 limit bits, so an ordinary den never forms the power
        if den.bit_length() > 6 * limit and den >= 10 ** (2 * limit):
            raise ValueError(
                f"the common denominator of the entries has more than {2 * limit} digits"
            )
    ints = [p * (den // d) for p, d in ratios]
    # a valid state has den = tr(den * rho) <= 6 * INT64_LIMIT; a larger den stays a Python int
    small = max(map(abs, ints), default=0) <= INT64_LIMIT and den <= 6 * INT64_LIMIT
    return den, np.array(ints, dtype=np.int64 if small else object).reshape(rho.shape)


def _add_identity(m: np.ndarray, c) -> np.ndarray:
    """m + c * identity on the last two axes, in place on the contiguous m."""
    m.reshape(*m.shape[:-2], -1)[..., :: m.shape[-1] + 1] += c
    return m


def decompose_state(rho: np.ndarray) -> StateDecomposition:
    """Split a state or a stack of them, validated by validate_state, into its pieces.

    Z~ = 12n - 2den I - J(X~ (x) I) - J(I (x) Y~) for the integer form n,
    J(X~) subtracted in place from the blocks (j, l = j) of the split and
    J(Y~) from the blocks (i, k = i), the only ones the products fill.
    """
    den, n = validate_state(rho)
    local_a = _add_identity(4 * partial_trace_qutrit(n), -2 * den)
    local_b = _add_identity(6 * partial_trace_qubit(n), -2 * den)
    corr = _add_identity(12 * n, -2 * den)
    blocks = _split(corr)
    a = local_a.reshape(*local_a.shape[:-2], 2, 2, 2, 2)  # (c, i, d, k)
    b = local_b.reshape(*local_b.shape[:-2], 2, 3, 2, 3)  # (c, j, d, l)
    for j in range(3):
        blocks[..., j, :, :, j] -= a
    for i in range(2):
        blocks[..., i, :, :, i, :] -= b
    return StateDecomposition(local_a, local_b, corr, 12 * den)


def _normals(rng: random.Random, count: int) -> np.ndarray:
    """count standard normals, count even, from the next 8 * count bytes of rng.

    Each 8 bytes, little-endian, give a 53-bit uniform u in [0, 1); each
    pair (u, v) in turn gives the Box-Muller normals r cos(2 pi v) and
    r sin(2 pi v), r = sqrt(-2 log(1 - u)), finite since 1 - u > 0.  Bytes
    split into consecutive calls come out as one call's, so the normals
    do not depend on how the draws are grouped into calls.
    """
    raw = np.frombuffer(rng.randbytes(8 * count), dtype="<u8")
    u = (raw >> np.uint64(11)) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2 * np.pi * u[1::2]
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1).reshape(count)


def _ginibre(normals: np.ndarray, n: int) -> np.ndarray:
    """Complex n x n Gaussian matrices from 2n^2 normals on the last axis, real parts first."""
    return (normals[..., : n * n] + 1j * normals[..., n * n :]).reshape(*normals.shape[:-1], n, n)


def _gram_state(g: np.ndarray) -> np.ndarray:
    """The embedded state G G^dagger / tr(G G^dagger); leading axes stack."""
    gram = g @ g.conj().swapaxes(-1, -2)
    gram /= np.trace(gram, axis1=-2, axis2=-1).real[..., None, None]
    return embed(gram.real, gram.imag)


def _seeded(seed: int) -> random.Random:
    """random.Random(seed), refusing a negative seed, which it folds, or a non-integer one."""
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return random.Random(seed)


def random_state(seed: int, kind: str = "rational") -> np.ndarray:
    """Deterministic random density matrix from the stream random.Random(seed).

    kind="rational": A A^dagger / tr(A A^dagger) with a Gaussian-integer
    A, so the result is exactly positive semidefinite with unit trace.
    kind="psd_float": the same construction from a complex Ginibre draw.
    """
    rng = _seeded(seed)
    if kind == "rational":
        while True:
            draws = [rng.randint(-3, 3) for _ in range(72)]  # (re, im) of each entry in turn
            pairs = np.array(draws, dtype=object).reshape(6, 6, 2)
            a = embed(pairs[..., 0], pairs[..., 1])
            gram = a @ a.T
            tr = np.trace(gram[:6, :6])
            if tr != 0:
                return gram * Fraction(1, tr)
    if kind == "psd_float":
        return _gram_state(_ginibre(_normals(rng, 72), 6))
    raise ValueError(f"unknown state kind {kind!r}")


def _haar_special_unitary(g: np.ndarray) -> np.ndarray:
    """Haar-random special unitaries from Ginibre draws g, n x n complex, leading axes stacked.

    n is 2 or 3.  Mezzadri's map: the QR factor q of g = q r whose r has a positive
    real diagonal, which is Haar on U(n), divided by the principal n-th
    root of det q to land in SU(n).  Gram-Schmidt over the columns builds
    exactly that q, since each column is divided by the norm that becomes
    r's diagonal entry, so no LAPACK call is needed.  Each column is
    projected out of the earlier ones twice: one pass loses orthogonality
    in proportion to the draw's condition number, two keep it at
    rounding level (Giraud, Langou and Rozloznik, Numer. Math. 101, 2005).
    det q is the 2 x 2 product formula or the 3 x 3 triple product.
    """
    n = g.shape[-1]
    cols = []
    for k in range(n):
        v = g[..., :, k]
        for _ in range(2):
            for c in cols:
                v = v - c * np.sum(c.conj() * v, axis=-1, keepdims=True)
        cols.append(v / np.sqrt(np.sum(v.real**2 + v.imag**2, axis=-1, keepdims=True)))
    if n == 2:
        det = cols[0][..., 0] * cols[1][..., 1] - cols[0][..., 1] * cols[1][..., 0]
    else:
        det = np.sum(cols[0] * np.cross(cols[1], cols[2]), axis=-1)
    # np.power, as ** rounds arrays differently
    return np.stack(cols, axis=-1) / np.power(det, 1.0 / n)[..., None, None]


def _local_unitary(normals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Haar (u2, u3) in SU(2) x SU(3), complex128, from 26 normals on the last axis: 8, then 18."""
    u2 = _haar_special_unitary(_ginibre(normals[..., :8], 2))
    return u2, _haar_special_unitary(_ginibre(normals[..., 8:], 3))


def apply_local_unitary(rho: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """Conjugate a state by u2 (x) u3, in float arithmetic; leading axes broadcast.

    u2 (x) u3 is formed in complex128 by broadcasting, entry (i, j; k, l)
    = u2[i, k] u3[j, l], and embedded once.
    """
    u = u2[..., :, None, :, None] * u3[..., None, :, None, :]
    u = u.reshape(*u.shape[:-4], 6, 6)
    ju = embed(u.real, u.imag)
    return ju @ rho.astype(float, copy=False) @ ju.swapaxes(-1, -2)


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
    for part in entry:  # float() would read true as 1.0 and "1e-2" as 0.01
        if isinstance(part, (bool, str)):
            kind = "boolean" if isinstance(part, bool) else "string"
            raise ValueError(f"bad float entry {where} {shown}: a {kind} is not a number")
    try:
        re_part, im_part = float(entry[0]), float(entry[1])
    except TypeError as err:
        raise ValueError(f"bad float entry {where} {shown}: {_cut(str(err))}") from err
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ValueError(f"non-finite float entry {where} {shown}")
    return re_part, im_part


def state_from_json(text: str) -> np.ndarray:
    """Parse a state from the versioned JSON schema, validating shape and entries.

    Each rational part is held to the int-string limit here, but not the
    entries' common denominator: validate_state refuses an exact state
    whose denominator passes its cap, so such a state parses, and runs
    once turned to floats.
    """
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nested too deeply
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
    parts = np.array(pairs, dtype=object if scalar == "rational" else float).reshape(6, 6, 2)
    return embed(parts[..., 0], parts[..., 1])
