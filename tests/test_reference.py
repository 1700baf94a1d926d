"""Internal consistency of the tabulated closed-form data, and the
closed form's integer-array helpers (factored expansion, Taylor
recurrence, palindromy)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luinv import reference
from luinv.molien import _palindromic, _taylor_head
from luinv.reference import _expand_factors

small_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


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
    assert counts == {2: 3, 3: 4, 4: 5, 5: 4, 6: 5, 7: 2, 8: 1}
    # the hsop degrees are exactly the nonneg denominator factors
    assert counts == {e: m for e, m in reference.NONNEG_DENOMINATOR_FACTORS}


class TestPolyFromFactored:
    def test_single_factor(self):
        assert _expand_factors([(3, 1)]) == (1, 0, 0, -1)

    def test_multiplicity_against_repeated_mul(self):
        base = (1, 0, -1)
        cubed = np.convolve(np.convolve(base, base), base)
        assert _expand_factors([(2, 3)]) == tuple(cubed)

    def test_denominator_carries_one_plus_t(self):
        assert _expand_factors([]) == (1,)
        expanded = np.convolve(_expand_factors(reference.DENOMINATOR_FACTORS), (1, 1))
        assert reference.denominator_poly() == tuple(expanded)

    def test_degree_is_weighted_sum(self):
        factors = [(2, 3), (5, 2), (7, 1)]
        coeffs = _expand_factors(factors)
        assert len(coeffs) - 1 == 2 * 3 + 5 * 2 + 7 * 1
        assert coeffs[-1] != 0

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            _expand_factors([(0, 1)])
        with pytest.raises(ValueError):
            _expand_factors([(2, 0)])


class TestSeriesFromRational:
    def test_geometric(self):
        assert _taylor_head((1,), (1, -1), 6) == [1] * 7

    def test_odd_numbers(self):
        # (1 + t)/(1 - t)^2 = sum (2k + 1) t^k
        assert _taylor_head((1, 1), _expand_factors([(1, 2)]), 5) == [1, 3, 5, 7, 9, 11]

    def test_integer_coefficients_stay_int(self):
        coeffs = _taylor_head((1,), (1, -2), 4)
        assert coeffs == [1, 2, 4, 8, 16]
        assert all(type(c) is int for c in coeffs)

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(ValueError):
            _taylor_head((1,), (0, 1), 3)

    @given(small_polys, st.integers(min_value=0, max_value=6))
    def test_series_times_denominator_recovers_numerator(self, num, order):
        den = (1, -1, 0, 2)
        s = _taylor_head(num, den, order)
        assert len(s) == order + 1
        # multiply back and compare through the truncation order
        back = [
            sum(s[j] * den[k - j] for j in range(max(0, k - 3), k + 1))
            for k in range(order + 1)
        ]
        padded = list(num) + [0] * (order + 1)
        assert back == padded[: order + 1]


class TestPalindromeCheck:
    def test_positive(self):
        assert _palindromic((1, 2, 1), 2)
        assert _palindromic((1, 0, 0, 1), 3)
        # trailing zeros against a higher claimed degree
        assert _palindromic((0, 1, 1), 3)
        # zeros past the claimed degree
        assert _palindromic((1, 2, 1, 0, 0), 2)

    def test_negative(self):
        assert not _palindromic((1, 2, 3), 2)
        assert not _palindromic((1, 1), 2)

    def test_degree_overflow_rejected(self):
        assert not _palindromic((1, 1, 1, 1), 2)
