"""Reference data for the Poincare series of the qubit-qutrit
local-unitary invariant algebra.

Every golden value consumed by the verification pipeline lives in this
one file so it can be audited in a single place.  Polynomials are plain
tuples of Python ints, coefficient k at index k.  Nothing here is
computed beyond completing the tabulated numerators and expanding the
factored denominators; the engine in :mod:`luinv.molien` recomputes the
series from scratch and :func:`luinv.molien.verify_theorem` compares the
two.

The series P(t) = sum_d dim(invariants of degree d) t^d is a rational
function N(t)/D(t).  N is palindromic of degree 70, so only the
coefficients through t^35 are tabulated; the mirror rule c[70-k] = c[k]
completes the rest, and a few independently tabulated high-degree terms
serve as a transcription check.  Multiplying both N and D by
(1 - t + t^2)(1 + t^3) yields an equivalent form whose numerator has
nonnegative coefficients (palindromic of degree 75, tabulated through
t^37 and mirrored) and whose denominator factors as a product of
(1 - t^e) terms; the factor exponents, with multiplicity, give the
expected degrees of a homogeneous system of parameters.
"""

from __future__ import annotations

from typing import Sequence, Tuple

# --- reduced form: N / D ------------------------------------------------

NUMERATOR_DEGREE = 70

# Coefficients of t^0 .. t^35 of N.
NUMERATOR_LOW_COEFFS = (
    1, 1, 0, -2, 2, 13, 50, 102, 216, 422,
    874, 1691, 3305, 6037, 10779, 18312, 30318, 48209, 74858, 112294,
    164391, 233394, 323332, 435113, 571671, 730844, 912641, 1110648,
    1321048, 1532768, 1739258, 1926469, 2087251, 2208470, 2286037,
    2311126,
)

# Independently tabulated terms above t^35 (checked against the mirror).
NUMERATOR_TAIL_CHECK = {36: 2286037, 66: 2, 67: -2, 69: 1, 70: 1}

# D = (1 + t) * prod (1 - t^e)^m over the pairs below; degree 105.
DENOMINATOR_FACTORS = ((2, 3), (3, 6), (4, 5), (5, 4), (6, 3), (7, 2), (8, 1))

# --- nonnegative form: N* / D* (both sides times (1-t+t^2)(1+t^3)) ------

NONNEG_NUMERATOR_DEGREE = 75

# Coefficients of t^0 .. t^37 of N*.
NONNEG_NUMERATOR_LOW_COEFFS = (
    1, 0, 0, 0, 4, 9, 38, 69, 173, 347,
    733, 1403, 2796, 5091, 9286, 16058, 27208, 44250, 70537, 108430,
    163158, 238264, 339974, 472130, 641187, 848615, 1098643, 1388741,
    1717327, 2075836, 2456389, 2843020, 3222408, 3575226, 3884797,
    4133599, 4308636, 4398377,
)

NONNEG_NUMERATOR_TAIL_CHECK = {38: 4398377, 69: 38, 70: 9, 71: 4, 75: 1}

# D* = prod (1 - t^e)^m; degree 110.  The exponents, with multiplicity,
# are the expected degrees of a homogeneous system of parameters.
NONNEG_DENOMINATOR_FACTORS = ((2, 3), (3, 4), (4, 5), (5, 4), (6, 5), (7, 2), (8, 1))

# --- series prefix used for direct spot checks --------------------------

# dim of the invariant space at degrees 0 .. 19.
TAYLOR_COEFFS = (
    1, 0, 3, 4, 15, 25, 90, 170, 489, 1059,
    2600, 5641, 12872, 27099, 57990, 118254, 240187, 472273, 919432,
    1745295,
)


class ReferenceDataError(ValueError):
    """Tabulated data fails its own internal consistency checks."""


def _expand_factors(factors: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """Coefficients of prod (1 - t^e)^m over the (e, m) pairs.

    Each factor is the in-place update c[k] -= c[k - e] with k running
    downward, so every read sees the old value.  The empty product is (1,).
    """
    if any(e < 1 or m < 1 for e, m in factors):
        raise ValueError("factor exponents and multiplicities must be >= 1")
    top = sum(e * m for e, m in factors)
    c = [1] + [0] * top
    for e, m in factors:
        for _ in range(m):
            for k in range(top, e - 1, -1):
                c[k] -= c[k - e]
    return tuple(c)


def _mirror_complete(low_coeffs, degree, tail_check) -> Tuple[int, ...]:
    coeffs = [0] * (degree + 1)
    for k, c in enumerate(low_coeffs):
        coeffs[k] = c
        coeffs[degree - k] = c
    for k, c in tail_check.items():
        if coeffs[k] != c:
            raise ReferenceDataError(
                f"tabulated coefficient {c} at degree {k} disagrees with "
                f"mirrored value {coeffs[k]}"
            )
    return tuple(coeffs)


def numerator_poly() -> Tuple[int, ...]:
    """N(t): palindromic numerator of the series, completed by mirroring."""
    return _mirror_complete(
        NUMERATOR_LOW_COEFFS, NUMERATOR_DEGREE, NUMERATOR_TAIL_CHECK
    )


def denominator_poly() -> Tuple[int, ...]:
    """D(t), expanded from its factored form (degree 105)."""
    c = _expand_factors(DENOMINATOR_FACTORS)
    return tuple(a + b for a, b in zip(c + (0,), (0,) + c))  # times 1 + t


def nonneg_numerator_poly() -> Tuple[int, ...]:
    """N*(t): the nonnegative palindromic numerator (degree 75)."""
    return _mirror_complete(
        NONNEG_NUMERATOR_LOW_COEFFS,
        NONNEG_NUMERATOR_DEGREE,
        NONNEG_NUMERATOR_TAIL_CHECK,
    )


def nonneg_denominator_poly() -> Tuple[int, ...]:
    """D*(t), expanded from its factored form (degree 110)."""
    return _expand_factors(NONNEG_DENOMINATOR_FACTORS)


def hsop_degrees() -> Tuple[int, ...]:
    """Sorted degree multiset of a homogeneous system of parameters, read off
    the exponents of D*'s factors with multiplicity: 24 values in total."""
    return tuple(e for e, m in sorted(NONNEG_DENOMINATOR_FACTORS) for _ in range(m))
