"""Shared fixtures and helpers; expensive exact computations run once per session."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from luinv.molien import poincare_coefficients
from luinv.states import StateDecomposition, random_state

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
