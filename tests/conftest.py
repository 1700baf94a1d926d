"""Shared fixtures and helpers; expensive exact computations run once per session."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from luinv.molien import poincare_coefficients
from luinv.states import (
    STATE_SCHEMA,
    StateDecomposition,
    _local_unitary,
    _normals,
    embed,
    random_state,
)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def coeffs19():
    return poincare_coefficients(19)


@pytest.fixture(scope="session")
def rational_states():
    return [random_state(seed, "rational") for seed in range(100)]


def random_local_unitary(seed: int):
    """A Haar pair (u2, u3) in SU(2) x SU(3) from the first 26 normals of random.Random(seed)."""
    return _local_unitary(_normals(random.Random(seed), 26))


def qr_haar_special_unitary(g: np.ndarray) -> np.ndarray:
    """The reference for states._haar_special_unitary: numpy's QR with Mezzadri's phase fix.

    g = q r by LAPACK, each column of q times the phase of r's diagonal
    entry, so that r's diagonal turns positive and q is Haar on U(n), then
    q divided by the principal n-th root of its determinant.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q / np.power(np.linalg.det(q), 1.0 / g.shape[-1])[..., None, None]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """J(A (x) B) from J(A) and J(B), the test oracle for the block identities.

    The complex np.kron written out on the real and imaginary parts,
    (Ar (x) Br - Ai (x) Bi) + i (Ar (x) Bi + Ai (x) Br), then embedded, so
    exact entries stay exact; one matrix each, no stacks.
    """
    m, n = a.shape[-1] // 2, b.shape[-1] // 2
    ar, ai, br, bi = a[:m, :m], a[m:, :m], b[:n, :n], b[n:, :n]
    return embed(np.kron(ar, br) - np.kron(ai, bi), np.kron(ar, bi) + np.kron(ai, br))


def scale_components(dec: StateDecomposition, a, b, c) -> StateDecomposition:
    """dec with its qubit, qutrit and correlation pieces scaled by a, b and c.

    An invariant of multidegree (d1, d2, d3) picks up the factor
    a^d1 b^d2 c^d3 under this scaling, which is how the multidegrees are
    tested.  The rational factors are put over a common denominator q,
    which joins the scale: the pieces stay integers, as Python ints so
    that no product overflows, and each invariant, whose divisor holds
    the scale to its total degree d1 + d2 + d3, is divided by q^d just as
    its raw trace is multiplied by it.
    """
    a, b, c = map(Fraction, (a, b, c))
    q = math.lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = (int(f * q) for f in (a, b, c))
    return StateDecomposition(
        dec.local_a.astype(object) * a,
        dec.local_b.astype(object) * b,
        dec.corr.astype(object) * c,
        dec.scale * q,
    )


def state_to_json(rho: np.ndarray) -> str:
    """Serialize an embedded state to the versioned JSON schema of 6x6 [re, im] pairs."""
    if rho.shape != (12, 12):
        raise ValueError("expected the 12x12 embedding of a 6x6 matrix")
    pairs = np.stack([rho[:6, :6], rho[6:, :6]], axis=-1).tolist()
    if rho.dtype == object:
        matrix = [[[str(Fraction(v)) for v in pair] for pair in row] for row in pairs]
        scalar = "rational"
    else:
        matrix = pairs
        scalar = "float"
    payload = {"schema": STATE_SCHEMA, "scalar": scalar, "matrix": matrix}
    return json.dumps(payload)


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
