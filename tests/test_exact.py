"""Exact arithmetic: the GaussianRational scalar and the closed form's
integer-array helpers (factored expansion, Taylor recurrence, palindromy)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luinv.exact import GaussianRational
from luinv.molien import _palindromic, _taylor_head
from luinv.reference import _expand_factors

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)
small_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


class TestGaussianRational:
    def test_construction_and_parts(self):
        v = GaussianRational(Fraction(1, 2), 3)
        assert v.re == Fraction(1, 2) and v.im == 3
        assert GaussianRational(2) == GaussianRational(Fraction(2), 0)

    def test_i_squares_to_minus_one(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1)

    def test_mixed_arithmetic_with_int_and_fraction(self):
        v = GaussianRational(1, 1)
        assert v + 1 == GaussianRational(2, 1)
        assert 1 + v == GaussianRational(2, 1)
        assert v * Fraction(1, 2) == GaussianRational(Fraction(1, 2), Fraction(1, 2))
        assert 2 - v == GaussianRational(1, -1)
        assert 2 / GaussianRational(1, 1) == GaussianRational(1, -1)

    @given(gaussians, gaussians)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(gaussians, gaussians, gaussians)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(gaussians, gaussians)
    def test_division_inverts_multiplication(self, a, b):
        if bool(b):
            assert (a / b) * b == a

    @given(gaussians, gaussians)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(gaussians)
    def test_norm_is_real_nonnegative(self, a):
        n = a * a.conjugate()
        assert n.is_real and n.re >= 0

    def test_is_real_and_bool(self):
        assert GaussianRational(3).is_real
        assert not GaussianRational(0, 1).is_real
        assert not bool(GaussianRational(0))
        assert bool(GaussianRational(0, Fraction(1, 7)))

    def test_complex_conversion(self):
        assert complex(GaussianRational(Fraction(1, 2), -1)) == 0.5 - 1j

    def test_immutable_and_hashable(self):
        v = GaussianRational(1, 2)
        with pytest.raises(AttributeError):
            v.re = Fraction(9)
        assert hash(GaussianRational(1, 2)) == hash(v)

    def test_str_forms(self):
        assert str(GaussianRational(Fraction(1, 3))) == "1/3"
        assert str(GaussianRational(1, -2)) == "1-2i"


class TestPolyFromFactored:
    def test_single_factor(self):
        assert _expand_factors([(3, 1)]) == (1, 0, 0, -1)

    def test_multiplicity_against_repeated_mul(self):
        base = (1, 0, -1)
        cubed = np.convolve(np.convolve(base, base), base)
        assert _expand_factors([(2, 3)]) == tuple(cubed)

    def test_one_plus_t_flag(self):
        assert _expand_factors([]) == (1,)
        assert _expand_factors([], times_one_plus_t=True) == (1, 1)
        # (1 + t)(1 - t) = 1 - t^2
        assert _expand_factors([(1, 1)], times_one_plus_t=True) == (1, 0, -1)
        # (1 + t)(1 - t^2)^2 = 1 + t - 2t^2 - 2t^3 + t^4 + t^5
        assert _expand_factors([(2, 2)], times_one_plus_t=True) == (1, 1, -2, -2, 1, 1)

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
