"""MATLAB-semantics checks for the one-liner primitives.

Expected values in the exactness tests were computed by hand from the
MATLAB documentation's definitions of movmean/movstd (centered windows,
shrinking endpoints, sample standard deviation).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.oneliner import primitives as P

ARRAYS = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 60),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


class TestDiff:
    def test_basic(self):
        np.testing.assert_array_equal(P.diff([1.0, 4.0, 9.0]), [3.0, 5.0])

    def test_second_order(self):
        np.testing.assert_array_equal(P.diff([1.0, 4.0, 9.0], order=2), [2.0])

    def test_short_input_gives_empty(self):
        assert P.diff([1.0]).size == 0
        assert P.diff([1.0, 2.0], order=2).size == 0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            P.diff([1.0, 2.0], order=0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            P.diff(np.zeros((2, 2)))


class TestWindowBounds:
    def test_odd_window_centered(self):
        lo, hi = P.window_bounds(5, 3)
        np.testing.assert_array_equal(lo, [0, 0, 1, 2, 3])
        np.testing.assert_array_equal(hi, [2, 3, 4, 5, 5])

    def test_even_window_biased_left(self):
        # MATLAB: k=4 covers 2 before .. 1 after (inclusive of current).
        lo, hi = P.window_bounds(6, 4)
        np.testing.assert_array_equal(lo, [0, 0, 0, 1, 2, 3])
        np.testing.assert_array_equal(hi, [2, 3, 4, 5, 6, 6])

    def test_window_one(self):
        lo, hi = P.window_bounds(4, 1)
        np.testing.assert_array_equal(hi - lo, [1, 1, 1, 1])

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            P.window_bounds(5, 0)


class TestMovmean:
    def test_matlab_example_odd(self):
        # MATLAB: movmean([4 8 6 -1 -2 -3 -1 3 4 5], 3)
        got = P.movmean([4, 8, 6, -1, -2, -3, -1, 3, 4, 5], 3)
        expected = [6, 6, 13 / 3, 1, -2, -2, -1 / 3, 2, 4, 4.5]
        np.testing.assert_allclose(got, expected)

    def test_matlab_example_even(self):
        # MATLAB: movmean([4 8 6 -1 -2 -3], 4) -> [6 6 4.25 2.75 0 -2]
        got = P.movmean([4, 8, 6, -1, -2, -3], 4)
        np.testing.assert_allclose(got, [6, 6, 4.25, 2.75, 0, -2])

    def test_constant_series(self):
        np.testing.assert_allclose(P.movmean(np.full(7, 3.0), 4), np.full(7, 3.0))

    def test_k_larger_than_series(self):
        values = np.array([1.0, 2.0, 3.0])
        got = P.movmean(values, 99)
        np.testing.assert_allclose(got, [2.0, 2.0, 2.0])

    def test_empty_input(self):
        assert P.movmean(np.empty(0), 3).size == 0

    @given(ARRAYS, st.integers(1, 9))
    def test_within_min_max(self, values, k):
        got = P.movmean(values, k)
        assert (got >= values.min() - 1e-6).all()
        assert (got <= values.max() + 1e-6).all()

    @given(ARRAYS)
    def test_window_one_is_identity(self, values):
        np.testing.assert_allclose(P.movmean(values, 1), values)

    @given(ARRAYS, st.integers(1, 9))
    def test_matches_bruteforce(self, values, k):
        lo, hi = P.window_bounds(values.size, k)
        expected = [values[a:b].mean() for a, b in zip(lo, hi)]
        # prefix sums cancel catastrophically for values spanning many
        # orders of magnitude; |values| <= 1e6 bounds the error by ~1e-8
        np.testing.assert_allclose(
            P.movmean(values, k), expected, rtol=1e-7, atol=1e-6
        )


class TestMovstd:
    def test_matlab_example(self):
        # MATLAB: movstd([4 8 6 -1 -2 -3], 3)
        got = P.movstd([4, 8, 6, -1, -2, -3], 3)
        expected = [
            np.std([4, 8], ddof=1),
            np.std([4, 8, 6], ddof=1),
            np.std([8, 6, -1], ddof=1),
            np.std([6, -1, -2], ddof=1),
            np.std([-1, -2, -3], ddof=1),
            np.std([-2, -3], ddof=1),
        ]
        np.testing.assert_allclose(got, expected)

    def test_singleton_window_is_zero(self):
        np.testing.assert_array_equal(P.movstd([5.0, 7.0, 9.0], 1), [0, 0, 0])

    def test_constant_series_is_zero(self):
        np.testing.assert_allclose(P.movstd(np.full(9, 2.5), 5), np.zeros(9))

    def test_non_negative_on_large_offsets(self):
        # catastrophic cancellation guard: large offset, tiny variance
        values = 1e9 + np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        assert (P.movstd(values, 3) >= 0).all()

    @given(ARRAYS, st.integers(2, 9))
    @settings(max_examples=60)
    def test_matches_bruteforce(self, values, k):
        lo, hi = P.window_bounds(values.size, k)
        expected = [
            np.std(values[a:b], ddof=1) if b - a > 1 else 0.0
            for a, b in zip(lo, hi)
        ]
        # float error scales with sqrt(eps) times the data magnitude
        atol = 1e-7 * (np.abs(values).max() + 1.0)
        np.testing.assert_allclose(
            P.movstd(values, k), expected, rtol=1e-6, atol=atol
        )

    @given(ARRAYS, st.integers(1, 9))
    def test_non_negative(self, values, k):
        assert (P.movstd(values, k) >= 0).all()


class TestMovsumMovmaxMovmin:
    def test_movsum(self):
        np.testing.assert_allclose(P.movsum([1, 2, 3, 4], 3), [3, 6, 9, 7])

    def test_movmax(self):
        np.testing.assert_allclose(P.movmax([1, 5, 2, 0, 3], 3), [5, 5, 5, 3, 3])

    def test_movmin(self):
        np.testing.assert_allclose(P.movmin([1, 5, 2, 0, 3], 3), [1, 1, 0, 0, 0])

    @given(ARRAYS, st.integers(1, 9))
    def test_extrema_match_bruteforce(self, values, k):
        # even k is centred k/2 before, k/2 - 1 after; extrema are exact
        lo, hi = P.window_bounds(values.size, k)
        windows = [values[a:b] for a, b in zip(lo, hi)]
        np.testing.assert_array_equal(
            P.movmax(values, k), [window.max() for window in windows]
        )
        np.testing.assert_array_equal(
            P.movmin(values, k), [window.min() for window in windows]
        )

    @given(ARRAYS, st.integers(1, 9))
    def test_min_le_mean_le_max(self, values, k):
        mean = P.movmean(values, k)
        assert (P.movmin(values, k) <= mean + 1e-6).all()
        assert (mean <= P.movmax(values, k) + 1e-6).all()

    def test_empty_input(self):
        assert P.movmax(np.empty(0), 3).size == 0
        assert P.movmin(np.empty(0), 3).size == 0
        assert P.movsum(np.empty(0), 3).size == 0
