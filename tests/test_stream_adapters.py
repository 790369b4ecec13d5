"""Streaming adapters: protocol, hindsight removal, native detectors."""

import numpy as np
import pytest

from repro.detectors import (
    Detector,
    DetectorSpec,
    MatrixProfileDetector,
    MovingZScoreDetector,
    make_detector,
)
from repro.stream import (
    BatchStreamingAdapter,
    StreamingMatrixProfileDetector,
    StreamingRangeDetector,
    StreamingZScoreDetector,
    as_streaming,
)


def spiked_series(n=800, seed=0, at=600, height=12.0):
    rng = np.random.default_rng(seed)
    values = np.sin(2 * np.pi * np.arange(n) / 90) + 0.05 * rng.standard_normal(n)
    values[at : at + 6] += height
    return values


class RecordingDetector(Detector):
    """Causal toy detector that counts fit calls (refit cadence probe)."""

    def __init__(self) -> None:
        self.fit_calls = 0
        self.fit_sizes: list[int] = []

    def fit(self, train):
        self.fit_calls += 1
        self.fit_sizes.append(int(np.asarray(train).size))
        return self

    def score(self, values):
        values = np.asarray(values, dtype=float)
        out = np.full(values.size, -np.inf)
        if values.size >= 2:
            out[1:] = np.abs(np.diff(values))
        return out


class TestAsStreaming:
    def test_accepts_name_spec_and_detector(self):
        for source in (
            "diff",
            DetectorSpec.create("diff"),
            make_detector("diff"),
        ):
            streaming = as_streaming(source)
            assert isinstance(streaming, BatchStreamingAdapter)
            assert "Diff" in streaming.name

    def test_streaming_detector_passes_through(self):
        native = StreamingZScoreDetector(k=10)
        assert as_streaming(native) is native

    def test_streaming_detector_rejects_wrapper_options(self):
        with pytest.raises(ValueError, match="already-\\s*streaming"):
            as_streaming(StreamingZScoreDetector(k=10), window=100)

    def test_spec_strings_with_params_parse(self):
        # the CLI's spec-string syntax works from the library too
        streaming = as_streaming("matrix_profile(w=64)")
        assert isinstance(streaming, StreamingMatrixProfileDetector)
        assert streaming.w == 64
        wrapped = as_streaming("moving_zscore(k=20)")
        assert isinstance(wrapped, BatchStreamingAdapter)
        assert wrapped.detector.k == 20

    def test_matrix_profile_routes_to_native_kernel(self):
        streaming = as_streaming(DetectorSpec.create("matrix_profile", w=32))
        assert isinstance(streaming, StreamingMatrixProfileDetector)
        assert streaming.w == 32
        bounded = as_streaming(MatrixProfileDetector(w=16), window=200)
        assert isinstance(bounded, StreamingMatrixProfileDetector)
        assert bounded.max_history == 200

    def test_matrix_profile_with_refit_uses_generic_adapter(self):
        streaming = as_streaming(MatrixProfileDetector(w=16), refit_every=50)
        assert isinstance(streaming, BatchStreamingAdapter)

    @pytest.mark.parametrize(
        "detector",
        ["matrix_profile(w=20, approx=0.05)",
         MatrixProfileDetector(w=20, approx=1.0)],
        ids=["spec", "detector"],
    )
    def test_matrix_profile_approx_is_refused(self, detector):
        # the incremental kernel is exact: it used to be built anyway and
        # scored as matrix_profile(w=20) under the approx spec's label
        with pytest.raises(ValueError, match="approx"):
            as_streaming(detector)
        with pytest.raises(ValueError, match="approx"):
            as_streaming(detector, window=500)
        # re-scoring with the batch detector honours approx
        assert isinstance(
            as_streaming(detector, refit_every=50), BatchStreamingAdapter
        )

    def test_rejects_non_detectors(self):
        with pytest.raises(TypeError, match="cannot stream"):
            as_streaming(object())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown detector"):
            as_streaming("warp-drive")


class TestBatchStreamingAdapter:
    def test_causal_detector_is_batch_size_invariant(self):
        # |diff| only reads the previous point, so arrival scores equal
        # the batch scores whatever the micro-batching
        values = spiked_series()
        batch_scores = make_detector("diff").score(values)
        for batch in (1, 7, 64):
            adapter = as_streaming("diff")
            adapter.fit(values[:100])
            chunks = [
                adapter.update(values[start : start + batch])
                for start in range(100, values.size, batch)
            ]
            np.testing.assert_allclose(
                np.concatenate(chunks), batch_scores[100:]
            )

    def test_arrival_score_is_prefix_score(self):
        # the definition of no-hindsight: point t's arrival score equals
        # the batch score of the prefix ending at t, at t
        values = spiked_series(n=300)
        adapter = as_streaming(MovingZScoreDetector(k=20))
        adapter.fit(values[:50])
        arrived = []
        for t in range(50, 300):
            arrived.append(adapter.update(values[t : t + 1])[0])
        detector = MovingZScoreDetector(k=20)
        for t in (50, 137, 299):
            prefix_score = detector.score(values[: t + 1])[t]
            assert arrived[t - 50] == pytest.approx(prefix_score)

    def test_centered_windows_lose_their_hindsight(self):
        # the centered z-score reads the future in batch mode; denied it,
        # the arrival scores at the spike differ from the batch scores
        values = spiked_series(n=400, at=300)
        adapter = as_streaming(MovingZScoreDetector(k=20))
        adapter.fit(values[:50])
        streamed = np.concatenate(
            [adapter.update(values[t : t + 1]) for t in range(50, 400)]
        )
        batch = MovingZScoreDetector(k=20).score(values)[50:]
        assert not np.allclose(streamed, batch)

    def test_window_bounds_the_rescored_suffix(self):
        values = spiked_series()
        unbounded = as_streaming("diff")
        bounded = as_streaming("diff", window=32)
        unbounded.fit(values[:100])
        bounded.fit(values[:100])
        for start in range(100, values.size, 25):
            chunk = values[start : start + 25]
            np.testing.assert_allclose(
                bounded.update(chunk), unbounded.update(chunk)
            )

    def test_batch_larger_than_window_still_scores_every_point(self):
        adapter = as_streaming("diff", window=8)
        adapter.fit(np.zeros(0))
        scores = adapter.update(np.arange(40.0))
        assert scores.shape == (40,)

    def test_refit_cadence(self):
        probe = RecordingDetector()
        adapter = as_streaming(probe, refit_every=50)
        adapter.fit(np.zeros(100))
        for start in range(0, 200, 20):
            adapter.update(np.arange(20.0))
        # one fit() from the train prefix, then a refit whenever the
        # arrivals since the last fit reach the cadence — with 20-point
        # batches that quantizes to every 60 points: 3 refits in 200
        assert probe.fit_calls == 4
        assert probe.fit_sizes[-1] > 100  # refits see the whole history

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            BatchStreamingAdapter(make_detector("diff"), window=1)
        with pytest.raises(ValueError, match="refit_every"):
            BatchStreamingAdapter(make_detector("diff"), refit_every=0)

    def test_nan_scores_become_minus_inf(self):
        class NanDetector(Detector):
            def score(self, values):
                return np.full(np.asarray(values).size, np.nan)

        adapter = as_streaming(NanDetector())
        assert (adapter.update(np.arange(5.0)) == -np.inf).all()


class TestStreamingMatrixProfileDetector:
    def test_matches_wrapped_batch_detector(self):
        # point-by-point, the native incremental kernel and the
        # re-scoring wrapper around the batch detector assign the same
        # arrival scores: at a prefix end the point lifting reduces to
        # exactly the newest window.  (With micro-batches they diverge
        # by design — the wrapper's lifting sees windows ending later in
        # the same batch, an intra-batch hindsight the native kernel
        # never has.)
        values = spiked_series(n=420, at=330)
        w = 32
        native = StreamingMatrixProfileDetector(w=w)
        wrapped = BatchStreamingAdapter(MatrixProfileDetector(w=w))
        native.fit(values[:220])
        wrapped.fit(values[:220])
        native_scores = []
        wrapped_scores = []
        for t in range(220, values.size):
            chunk = values[t : t + 1]
            native_scores.append(native.update(chunk))
            wrapped_scores.append(wrapped.update(chunk))
        got = np.concatenate(native_scores)
        expected = np.concatenate(wrapped_scores)
        finite = np.isfinite(expected) & np.isfinite(got)
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(expected))
        np.testing.assert_allclose(
            got[finite] ** 2, expected[finite] ** 2, rtol=0, atol=4.0 * w * 1e-8
        )

    def test_warmup_points_score_minus_inf(self):
        native = StreamingMatrixProfileDetector(w=16)
        scores = native.update(np.arange(10.0))
        assert (scores == -np.inf).all()

    def test_bounded_history_drains_egress(self):
        # the detector only reports arrival scores, so the kernel's
        # egress queue must not accumulate — resident memory stays
        # O(max_history) however long the stream runs
        values = spiked_series(n=3000, at=2500)
        bounded = StreamingMatrixProfileDetector(w=16, max_history=100)
        bounded.fit(values[:500])
        for start in range(500, values.size, 250):
            bounded.update(values[start : start + 250])
        assert len(bounded._profile._egress) == 0
        assert bounded._profile.num_windows <= 100

    def test_fit_restarts_the_stream(self):
        # reusing one instance across series must not leak stream state:
        # fit() resets, so the second run equals a fresh detector's
        values = spiked_series(n=400, at=350)
        other = spiked_series(n=400, seed=9, at=120)
        reused = StreamingMatrixProfileDetector(w=16)
        reused.fit(other[:200])
        reused.update(other[200:])
        reused.fit(values[:200])
        fresh = StreamingMatrixProfileDetector(w=16)
        fresh.fit(values[:200])
        np.testing.assert_array_equal(
            reused.update(values[200:]), fresh.update(values[200:])
        )
        for cls in (StreamingZScoreDetector, StreamingRangeDetector):
            reused = cls(k=20)
            reused.fit(other[:100])
            reused.update(other[100:])
            reused.fit(values[:100])
            fresh = cls(k=20)
            fresh.fit(values[:100])
            np.testing.assert_array_equal(
                reused.update(values[100:]), fresh.update(values[100:])
            )

    def test_window_error_names_the_window_option(self):
        with pytest.raises(ValueError, match="window=150"):
            as_streaming(MatrixProfileDetector(w=100), window=150)

    def test_fit_seeds_history(self):
        values = spiked_series(n=400, at=350)
        seeded = StreamingMatrixProfileDetector(w=16)
        seeded.fit(values[:300])
        scores = seeded.update(values[300:310])
        assert np.isfinite(scores).all()


class TestStreamingRange:
    def test_scores_match_trailing_bruteforce(self):
        values = spiked_series(n=150, at=120)
        native = StreamingRangeDetector(k=20)
        native.fit(values[:30])
        scores = np.concatenate(
            [native.update(values[t : t + 1]) for t in range(30, 150)]
        )
        for offset, t in ((0, 30), (60, 90), (119, 149)):
            window = values[max(0, t - 19) : t + 1]
            assert scores[offset] == pytest.approx(window.max() - window.min())

    def test_spike_widens_the_range_at_arrival(self):
        values = spiked_series(n=300, at=250)
        native = StreamingRangeDetector(k=30)
        native.fit(values[:100])
        scores = native.update(values[100:])
        assert int(np.argmax(scores)) + 100 in range(250, 256)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            StreamingRangeDetector(k=1)


class TestStreamingZScore:
    def test_scores_match_trailing_bruteforce(self):
        values = spiked_series(n=200, at=150)
        native = StreamingZScoreDetector(k=25)
        native.fit(values[:40])
        scores = np.concatenate(
            [native.update(values[t : t + 1]) for t in range(40, 200)]
        )
        for offset, t in ((0, 40), (100, 140), (159, 199)):
            window = values[max(0, t - 24) : t + 1]
            expected = abs(values[t] - window.mean()) / (window.std() + 1e-9)
            assert scores[offset] == pytest.approx(expected)

    def test_spike_scores_high(self):
        values = spiked_series(n=300, at=250)
        native = StreamingZScoreDetector(k=30)
        native.fit(values[:100])
        scores = native.update(values[100:])
        assert int(np.argmax(scores)) + 100 in range(250, 256)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            StreamingZScoreDetector(k=2)
