"""Tests for MASS/STOMP matrix profile and discord discovery."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import (
    MatrixProfileDetector,
    MerlinDetector,
    SlidingStats,
    discord_search,
    discords,
    matrix_profile,
    moving_mean_std,
    naive_profile,
    sliding_dot_products,
    stomp_profile,
    subsequence_to_point_scores,
)
from repro.types import LabeledSeries, Labels

from kernel_backends import on_numpy


def sine_with_anomaly(n=800, period=40, start=None, seed=0):
    """Sine wave with one cycle flattened — a classic discord."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    values = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.05, n)
    if start is None:
        start = n // 2
    values[start : start + period] = values[start] + rng.normal(
        0, 0.05, period
    )
    return values


def brute_force_profile(values, w, exclusion):
    """O(n^2 w) reference implementation for cross-checking."""
    n = values.size
    num_subs = n - w + 1
    subs = np.lib.stride_tricks.sliding_window_view(values, w).astype(float)
    mean = subs.mean(axis=1, keepdims=True)
    std = subs.std(axis=1, keepdims=True)
    profile = np.full(num_subs, np.inf)
    for i in range(num_subs):
        best = np.inf
        for j in range(num_subs):
            if abs(i - j) < exclusion:
                continue
            if std[i] < 1e-12 and std[j] < 1e-12:
                d = 0.0
            elif std[i] < 1e-12 or std[j] < 1e-12:
                d = np.sqrt(w)
            else:
                a = (subs[i] - mean[i]) / std[i]
                b = (subs[j] - mean[j]) / std[j]
                d = float(np.linalg.norm(a - b))
            best = min(best, d)
        profile[i] = best
    return profile


class TestSlidingDotProducts:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        series = rng.normal(0, 1, 200)
        query = series[:16]
        got = sliding_dot_products(query, series)
        expected = [
            float(query @ series[i : i + 16]) for i in range(200 - 16 + 1)
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_rejects_long_query(self):
        with pytest.raises(ValueError):
            sliding_dot_products(np.zeros(10), np.zeros(5))

    @given(st.integers(0, 2**16), st.integers(4, 32), st.integers(40, 120))
    @settings(max_examples=25)
    def test_property_matches_direct(self, seed, m, n):
        rng = np.random.default_rng(seed)
        series = rng.normal(0, 1, n)
        query = rng.normal(0, 1, m)
        got = sliding_dot_products(query, series)
        expected = [float(query @ series[i : i + m]) for i in range(n - m + 1)]
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-8)


class TestMovingMeanStd:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        values = rng.normal(5, 2, 100)
        mean, std = moving_mean_std(values, 10)
        windows = np.lib.stride_tricks.sliding_window_view(values, 10)
        np.testing.assert_allclose(mean, windows.mean(axis=1), rtol=1e-10)
        np.testing.assert_allclose(std, windows.std(axis=1), rtol=1e-8, atol=1e-10)

    def test_constant_window_zero_std(self):
        _, std = moving_mean_std(np.full(20, 7.0), 5)
        np.testing.assert_allclose(std, 0.0, atol=1e-12)


class TestMatrixProfile:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 120)
        w = 12
        result = matrix_profile(values, w)
        expected = brute_force_profile(values, w, exclusion=w)
        np.testing.assert_allclose(result.profile, expected, rtol=1e-6, atol=1e-6)

    def test_matches_brute_force_with_constant_regions(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 100)
        values[30:50] = 4.2  # constant block
        w = 10
        result = matrix_profile(values, w)
        expected = brute_force_profile(values, w, exclusion=w)
        np.testing.assert_allclose(result.profile, expected, rtol=1e-6, atol=1e-6)

    def test_discord_is_planted_anomaly(self):
        values = sine_with_anomaly()
        result = matrix_profile(values, 40)
        assert 360 <= result.discord_index <= 440

    def test_periodic_series_low_profile_outside_discord(self):
        values = sine_with_anomaly()
        result = matrix_profile(values, 40)
        clean = np.concatenate([result.profile[:300], result.profile[500:]])
        assert result.profile[result.discord_index] > 3 * np.median(clean)

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            matrix_profile(np.zeros(100), 2)

    def test_rejects_non_integer_window_and_exclusion(self):
        values = sine_with_anomaly(n=400)
        with pytest.raises(ValueError, match="window must be an integer"):
            matrix_profile(values, 40.0)
        for exclusion in (2.5, True):
            with pytest.raises(ValueError, match="exclusion must be an integer"):
                matrix_profile(values, 40, exclusion)
            with pytest.raises(ValueError, match="exclusion must be an integer"):
                discord_search(values, 40, exclusion)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="too short"):
            matrix_profile(np.zeros(30), 20)

    def test_neighbour_indices_valid(self):
        values = sine_with_anomaly(n=400)
        result = matrix_profile(values, 20)
        num_subs = values.size - 20 + 1
        assert (result.indices >= 0).all()
        assert (result.indices < num_subs).all()
        assert (np.abs(result.indices - np.arange(num_subs)) >= 20).all()

    @given(st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_profile_non_negative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 150)
        w = 10
        result = matrix_profile(values, w)
        finite = result.profile[np.isfinite(result.profile)]
        assert (finite >= -1e-9).all()
        assert (finite <= 2 * np.sqrt(w) + 1e-6).all()


class TestDiscords:
    def test_top_k_beyond_available_discords_short_circuits(self):
        # a short series only admits a couple of non-overlapping
        # discords; asking for far more must return the same list, not
        # loop or error
        rng = np.random.default_rng(10)
        values = rng.normal(0, 1, 120)
        many = discords(values, 20, top_k=50)
        saturated = discords(values, 20, top_k=1000)
        assert saturated == many
        assert 0 < len(many) < 50
        for (a, _), (b, _) in zip(many, many[1:]):
            assert abs(a - b) >= 20

    def test_top_discords_non_overlapping(self):
        values = sine_with_anomaly(n=1200)
        found = discords(values, 40, top_k=3)
        assert len(found) >= 2
        for (a, _), (b, _) in zip(found, found[1:]):
            assert abs(a - b) >= 40

    def test_distances_descending(self):
        values = sine_with_anomaly(n=1200)
        found = discords(values, 40, top_k=3)
        distances = [d for _, d in found]
        assert distances == sorted(distances, reverse=True)


class TestSubsequenceToPointScores:
    def test_window_coverage(self):
        profile = np.array([0.0, 5.0, 0.0, 0.0])
        points = subsequence_to_point_scores(profile, 3, 6)
        # subsequence 1 covers points 1..3
        np.testing.assert_allclose(points, [0.0, 5.0, 5.0, 5.0, 0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subsequence_to_point_scores(np.zeros(4), 3, 10)

    def test_infinite_scores_replaced(self):
        profile = np.array([np.inf, 1.0])
        points = subsequence_to_point_scores(profile, 2, 3)
        assert np.isfinite(points[1:]).all()


def assert_profiles_match(got, expected, w=None):
    """Profiles agree to 1e-8 in correlation space; infinities align.

    ``d = sqrt(2w(1-r))`` amplifies correlation error by ``1/d`` for
    near-duplicate pairs, so the honest 1e-8 contract is on the squared
    (correlation-equivalent) scale: ``|d² - d²_ref| <= 2w * 1e-8``,
    i.e. correlations within 1e-8.  A flat distance-level tolerance is
    deliberately *not* asserted: near-duplicate pairs amplify the
    correlation error by ``1/d``, so any fixed distance atol is either
    vacuous or flaky (e.g. w=3, |d-d_ref|=2.2e-6 with corr-space error
    7.7e-10, well inside the contract).
    """
    np.testing.assert_array_equal(np.isinf(got), np.isinf(expected))
    finite = np.isfinite(expected)
    if w is None:
        w = 1.0
    np.testing.assert_allclose(
        got[finite] ** 2, expected[finite] ** 2, rtol=0, atol=2.0 * w * 1e-8
    )


class TestMpxAgainstReferences:
    """The riskiest part of the rewrite: mpx vs brute force and STOMP."""

    def check(self, values, w, exclusion=None):
        result = matrix_profile(values, w, exclusion)
        brute = naive_profile(values, w, exclusion)
        stomp = stomp_profile(values, w, exclusion)
        assert_profiles_match(result.profile, brute.profile, w)
        assert_profiles_match(result.profile, stomp.profile, w)
        return result

    @given(st.integers(0, 2**16), st.integers(3, 24), st.integers(120, 260))
    @settings(max_examples=20, deadline=None)
    def test_property_random_walks(self, seed, w, n):
        rng = np.random.default_rng(seed)
        values = np.cumsum(rng.normal(0, 1, n))
        self.check(values, w)

    @given(st.integers(0, 2**16), st.sampled_from([8, 9, 16, 17]))
    @settings(max_examples=15, deadline=None)
    def test_property_constant_segments(self, seed, w):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 240)
        start = int(rng.integers(0, 150))
        values[start : start + 60] = float(rng.normal())
        self.check(values, w)

    @given(st.integers(0, 2**16), st.sampled_from([7, 12]))
    @settings(max_examples=15, deadline=None)
    def test_property_injected_spikes(self, seed, w):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 220)
        for position in rng.integers(0, 220, size=3):
            values[position] += float(rng.choice([-30.0, 30.0]))
        self.check(values, w)

    @given(st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_property_near_constant_windows(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 1, 300)
        # tiny-but-healthy variance: windows are *not* flagged constant,
        # and every implementation's conditioning still holds 1e-8 in
        # correlation space (the error of all three kernels scales as
        # eps/std², so far smaller stds degrade brute force and the
        # recurrences alike)
        values[80:180] = 2.0 + rng.normal(0, 5e-3, 100)
        self.check(values, 14)

    @given(
        st.integers(0, 2**16),
        st.sampled_from([10, 11]),
        st.sampled_from([1, 4, 10, 25]),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_custom_exclusion_zones(self, seed, w, exclusion):
        rng = np.random.default_rng(seed)
        values = np.cumsum(rng.normal(0, 1, 180))
        self.check(values, w, exclusion)

    def test_oversized_exclusion_leaves_unpairable_rows_infinite(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, 100)
        result = self.check(values, 10, exclusion=60)
        # middle rows cannot pair with anything 60 apart
        assert np.isinf(result.profile[45])
        assert np.isfinite(result.profile[0])

    def test_mixed_constant_and_spike(self):
        rng = np.random.default_rng(6)
        values = rng.normal(0, 1, 260)
        values[40:120] = -1.5
        values[200] = 50.0
        self.check(values, 11)

    def test_two_separated_constant_blocks_pair_up(self):
        rng = np.random.default_rng(7)
        values = rng.normal(0, 1, 300)
        # runs short enough that same-block pairs all fall inside the
        # exclusion zone: each block must reach across to the other one
        values[20:40] = 2.0
        values[220:240] = -3.0  # different level: still z-norm distance 0
        result = self.check(values, 12)
        assert result.profile[25] == 0.0
        assert result.indices[25] == 220

    def test_shared_stats_reuse_is_identical(self):
        rng = np.random.default_rng(8)
        values = np.cumsum(rng.normal(0, 1, 400))
        stats = SlidingStats(values)
        for w in (10, 25, 50):
            a = matrix_profile(values, w)
            b = matrix_profile(values, w, stats=stats)
            np.testing.assert_array_equal(a.profile, b.profile)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_stats_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            matrix_profile(
                np.zeros(100), 10, stats=SlidingStats(np.zeros(50))
            )

    def test_stats_from_different_series_rejected(self):
        # same length, different data: silently accepting the stats
        # would produce a wrong profile with no error
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="different series"):
            matrix_profile(
                rng.normal(0, 1, 100),
                10,
                stats=SlidingStats(rng.normal(0, 1, 100)),
            )

    def test_underflowed_variance_window_stays_finite(self):
        # a large-amplitude series where a near-constant block's cumsum
        # variance underflows to 0 while its raw max != min: the window
        # is *not* flagged constant, and with an absolute std floor its
        # huge inverse used to overflow the sweep's correlation products
        # to inf, whose product with an exactly-constant window's
        # inv = 0 turned into NaN (poisoning the no-indices max path)
        rng = np.random.default_rng(0)
        scale = 1e12
        values = scale * rng.normal(0, 1, 300)
        values[50:120] = scale  # exactly constant block
        base = scale * 3.0
        values[180:260] = base  # near-constant block: max != min but
        values[181] = np.nextafter(base, np.inf)  # variance underflows
        values[200] = np.nextafter(base, -np.inf)
        w = 12
        with np.errstate(over="raise", invalid="raise"):
            for with_indices in (True, False):
                profile = matrix_profile(
                    values, w, with_indices=with_indices
                ).profile
                assert not np.isnan(profile).any()
                finite = profile[np.isfinite(profile)]
                assert (finite >= 0).all()
                assert (finite <= 2 * np.sqrt(w) + 1e-6).all()

    def test_without_indices_same_profile(self):
        rng = np.random.default_rng(9)
        values = np.cumsum(rng.normal(0, 1, 500))
        full = matrix_profile(values, 20)
        fast = matrix_profile(values, 20, with_indices=False)
        np.testing.assert_array_equal(full.profile, fast.profile)
        assert fast.indices is None
        assert full.indices is not None


class TestDiscordSearch:
    def test_matches_profile_argmax(self):
        values = sine_with_anomaly(n=900)
        result = matrix_profile(values, 40)
        finite = np.where(np.isfinite(result.profile), result.profile, -np.inf)
        location, distance = discord_search(values, 40)
        assert location == int(np.argmax(finite))
        assert distance == pytest.approx(float(finite[location]))

    def test_low_floor_keeps_the_search(self):
        values = sine_with_anomaly(n=900)
        exact = discord_search(values, 40)
        floored = discord_search(values, 40, normalized_floor=0.0)
        assert floored == exact

    def test_unbeatable_floor_abandons(self):
        values = sine_with_anomaly(n=900)
        _, distance = discord_search(values, 40)
        floor = distance / np.sqrt(40) * 1.5
        assert discord_search(values, 40, normalized_floor=floor) is None

    def test_abandon_is_sound(self):
        # whenever the search abandons, the true discord really is at or
        # below the floor
        rng = np.random.default_rng(11)
        for seed in range(8):
            values = np.cumsum(np.random.default_rng(seed).normal(0, 1, 400))
            _, distance = discord_search(values, 20)
            norm = distance / np.sqrt(20)
            for floor in (norm * 0.9, norm, norm * 1.1):
                found = discord_search(values, 20, normalized_floor=floor)
                if found is None:
                    assert norm <= floor + 1e-12
                else:
                    assert found[1] == pytest.approx(distance)


class TestMatrixProfileDetector:
    def test_locates_discord(self):
        values = sine_with_anomaly()
        series = LabeledSeries(
            "sine", values, Labels.single(800, 400, 440), train_len=0
        )
        location = MatrixProfileDetector(w=40).locate(series)
        assert 360 <= location <= 460

    def test_score_length_matches(self):
        values = sine_with_anomaly(n=300)
        assert MatrixProfileDetector(w=20).score(values).size == 300

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"w": 2}, "window must be >= 3"),
            ({"w": 40.5}, "window must be an integer"),
            ({"exclusion": -5}, "exclusion must be >= 0"),
            ({"jobs": 0}, "jobs must be >= 1"),
            ({"approx": 2.0}, "approx must be in"),
            ({"approx": float("nan")}, "approx must be in"),
        ],
    )
    def test_bad_parameters_refused_when_built(self, params, message):
        with pytest.raises(ValueError, match=message):
            MatrixProfileDetector(**params)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"min_w": 50, "max_w": 10}, "max_w"),
            ({"min_w": 2}, "min_w must be >= 3"),
            ({"num_lengths": 0}, "num_lengths must be >= 1"),
            ({"jobs": 0}, "jobs must be >= 1"),
        ],
    )
    def test_bad_merlin_parameters_refused_when_built(self, params, message):
        with pytest.raises(ValueError, match=message):
            MerlinDetector(**params)


# Runs in a fresh interpreter: a negative exclusion once made the
# compiled sweep write outside its arrays ("double free or corruption",
# exit 134), so a regression must fail as a crashed subprocess instead
# of taking the test run down with it.
_NEGATIVE_EXCLUSION = """
import sys
import numpy as np
from repro.detectors import discord_search, matrix_profile, native
if sys.argv[1] == "numpy":
    native.load = lambda: None
assert native.backend() == sys.argv[1]
values = np.cumsum(np.random.default_rng(3).normal(size=2000))
calls = {
    "fast": lambda e: matrix_profile(values, 50, e, with_indices=False),
    "indexed": lambda e: matrix_profile(values, 50, e),
    "sharded": lambda e: matrix_profile(values, 50, e, jobs=1),
    "discord": lambda e: discord_search(values, 50, e),
}
for name, call in calls.items():
    for exclusion in (-5, -1):
        try:
            call(exclusion)
        except ValueError as error:
            assert "exclusion must be >= 0" in str(error), (name, error)
        else:
            raise AssertionError(f"{name} accepted exclusion={exclusion}")
print("refused")
"""


class TestNegativeExclusionRegression:
    @pytest.mark.parametrize("backend", ["compiled", "numpy"])
    def test_negative_exclusion_refused_before_any_sweep(self, backend):
        from repro.detectors import native

        if backend == "compiled" and native.load() is None:
            pytest.skip("no compiled kernel on this host")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _NEGATIVE_EXCLUSION, backend],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
        assert done.stdout.strip() == "refused"


# the same properties on the numpy fallback sweep (tests/conftest.py)
TestMatrixProfileOnNumpy = on_numpy(TestMatrixProfile)
TestDiscordsOnNumpy = on_numpy(TestDiscords)
TestMpxAgainstReferencesOnNumpy = on_numpy(TestMpxAgainstReferences)
TestDiscordSearchOnNumpy = on_numpy(TestDiscordSearch)
