"""Internal consistency of the tabulated closed-form data."""

import numpy as np

from luinv import reference
from luinv.molien import _taylor_head


def degree(coeffs) -> int:
    """Index of the last nonzero coefficient."""
    return max(k for k, c in enumerate(coeffs) if c != 0)


def test_builder_degrees():
    assert degree(reference.numerator_poly()) == 70
    assert degree(reference.denominator_poly()) == 105
    assert degree(reference.nonneg_numerator_poly()) == 75
    assert degree(reference.nonneg_denominator_poly()) == 110


def test_denominator_degree_is_weighted_factor_sum():
    weighted = sum(e * m for e, m in reference.DENOMINATOR_FACTORS)
    assert degree(reference.denominator_poly()) == weighted + 1  # the (1+t) factor
    weighted_star = sum(e * m for e, m in reference.NONNEG_DENOMINATOR_FACTORS)
    assert degree(reference.nonneg_denominator_poly()) == weighted_star


def test_numerators_are_palindromic():
    num = reference.numerator_poly()
    num_star = reference.nonneg_numerator_poly()
    assert len(num) == 71 and num == num[::-1]
    assert len(num_star) == 76 and num_star == num_star[::-1]


def test_nonneg_numerator_has_no_negative_coefficient():
    assert all(c >= 0 for c in reference.nonneg_numerator_poly())


def test_reduced_numerator_has_negative_coefficient():
    # the reason the second form exists at all
    assert any(c < 0 for c in reference.numerator_poly())


def test_transform_identity_links_the_two_forms():
    # multiplying by (1 - t + t^2)(1 + t^3) turns one form into the other
    factor = np.convolve([1, -1, 1], [1, 0, 0, 1])
    assert tuple(np.convolve(reference.denominator_poly(), factor)) == (
        reference.nonneg_denominator_poly()
    )
    assert tuple(np.convolve(reference.numerator_poly(), factor)) == (
        reference.nonneg_numerator_poly()
    )


def test_degree_gaps_are_35():
    assert degree(reference.denominator_poly()) - degree(reference.numerator_poly()) == 35
    assert (
        degree(reference.nonneg_denominator_poly())
        - degree(reference.nonneg_numerator_poly())
        == 35
    )


def test_taylor_head_matches_rational_form():
    series = _taylor_head(reference.numerator_poly(), reference.denominator_poly(), 19)
    assert tuple(series) == reference.TAYLOR_COEFFS


def test_both_forms_expand_identically():
    a = _taylor_head(reference.numerator_poly(), reference.denominator_poly(), 25)
    b = _taylor_head(
        reference.nonneg_numerator_poly(), reference.nonneg_denominator_poly(), 25
    )
    assert len(a) == 26 and a == b


def test_hsop_degrees_multiset():
    degrees = reference.hsop_degrees()
    assert len(degrees) == 24
    assert degrees == tuple(sorted(degrees))
    counts = {d: degrees.count(d) for d in set(degrees)}
    assert counts == reference.HSOP_DEGREE_COUNTS
    # the hsop degrees are exactly the nonneg denominator factors
    assert counts == {e: m for e, m in reference.NONNEG_DENOMINATOR_FACTORS}
