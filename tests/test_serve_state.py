"""Snapshot/restore codec: byte-identical continuation, format checks.

The round-trip parity contract: snapshot a live stream anywhere,
restore it anywhere else, keep appending — every subsequent score must
be *byte-identical* (same float64 bit patterns) to the uninterrupted
stream's, across the PR 3 kernel input families, odd and even window
lengths, and snapshot points taken mid-egress.
"""

import base64
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import SNAPSHOT_VERSION, StreamCluster, restore, snapshot
from repro.serve.state import _pack, _unpack
from repro.stream import (
    BatchStreamingAdapter,
    StreamingMatrixProfile,
    StreamingMatrixProfileDetector,
    StreamingRangeDetector,
    StreamingZScoreDetector,
    as_streaming,
)

from test_stream_profile import FAMILIES, make_family


def continuation(detector, tail):
    return np.asarray(detector.update(tail), dtype=float)


def feed(obj, batches):
    """Each batch's output: a profile's arrivals or a detector's scores."""
    if isinstance(obj, StreamingMatrixProfile):
        return [obj.append(batch) for batch in batches]
    return [obj.update(batch) for batch in batches]


class TestProfileRoundTrip:
    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("w", (8, 9))
    def test_family_continuation_byte_identical(self, kind, w):
        values = make_family(kind, 13, 300)
        live = StreamingMatrixProfile(w)
        live.append(values[:170])
        restored = restore(snapshot(live))
        a = live.append(values[170:])
        b = restored.append(values[170:])
        # byte-identical, not allclose: restore must rebuild the exact
        # running state, so the continuations share every bit
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(live.profile(), restored.profile())

    @pytest.mark.parametrize("cut", (120, 171, 250))
    def test_mid_egress_snapshot_points(self, cut):
        # bounded horizon: windows have already been finalized out and
        # the egress queue is non-empty at the snapshot point
        values = make_family("walk", 29, 400)
        live = StreamingMatrixProfile(9, max_history=80)
        live.append(values[:cut])
        assert live.num_egressed > 0
        blob = snapshot(live)
        restored = restore(blob)
        a = live.append(values[cut:])
        b = restored.append(values[cut:])
        assert a.tobytes() == b.tobytes()
        start_a, egress_a = live.drain_egress()
        start_b, egress_b = restored.drain_egress()
        assert start_a == start_b
        assert egress_a.tobytes() == egress_b.tobytes()

    def test_undrained_egress_queue_travels(self):
        values = make_family("spikes", 3, 260)
        live = StreamingMatrixProfile(8, max_history=64)
        live.append(values)
        # snapshot with a full egress queue; drain on both sides after
        restored = restore(snapshot(live))
        start_a, egress_a = live.drain_egress()
        start_b, egress_b = restored.drain_egress()
        assert start_a == start_b
        assert egress_a.tobytes() == egress_b.tobytes()

    def test_same_state_same_bytes(self):
        values = make_family("walk", 5, 200)
        first = StreamingMatrixProfile(10)
        first.append(values)
        second = StreamingMatrixProfile(10)
        second.append(values)
        assert snapshot(first) == snapshot(second)

    def test_snapshot_of_restored_is_identical(self):
        values = make_family("near_constant", 7, 180)
        live = StreamingMatrixProfile(8, max_history=50)
        live.append(values)
        blob = snapshot(live)
        assert snapshot(restore(blob)) == blob

    def test_fresh_profile_round_trips(self):
        restored = restore(snapshot(StreamingMatrixProfile(12)))
        values = make_family("walk", 1, 120)
        expected = StreamingMatrixProfile(12).append(values)
        assert restored.append(values).tobytes() == expected.tobytes()


def detector_zoo():
    return [
        StreamingMatrixProfileDetector(w=16, max_history=120),
        StreamingMatrixProfileDetector(w=17),
        StreamingZScoreDetector(k=24),
        StreamingRangeDetector(k=15),
        as_streaming("moving_zscore(k=25)"),
        as_streaming("diff", window=80, refit_every=90),
    ]


class TestDetectorRoundTrip:
    @pytest.mark.parametrize(
        "detector", detector_zoo(), ids=lambda d: d.name
    )
    @pytest.mark.parametrize("kind", ("walk", "spikes"))
    def test_continuation_byte_identical(self, detector, kind):
        values = make_family(kind, 17, 400)
        detector.fit(values[:120])
        detector.update(values[120:260])
        restored = restore(snapshot(detector))
        a = continuation(detector, values[260:])
        b = continuation(restored, values[260:])
        assert a.tobytes() == b.tobytes()

    def test_restored_state_snapshot_identical(self):
        for detector in detector_zoo():
            values = make_family("walk", 19, 300)
            detector.fit(values[:100])
            detector.update(values[100:200])
            blob = snapshot(detector)
            assert snapshot(restore(blob)) == blob, detector.name

    def test_adapter_without_spec_is_rejected(self):
        from repro.detectors import make_detector

        bare = BatchStreamingAdapter(make_detector("diff"))
        bare.fit(np.arange(30.0))
        with pytest.raises(ValueError, match="registry spec"):
            snapshot(bare)

    def test_adapter_restore_preserves_refit_cadence(self):
        values = make_family("walk", 23, 500)
        live = as_streaming("moving_zscore(k=20)", refit_every=70)
        live.fit(values[:100])
        live.update(values[100:230])
        restored = restore(snapshot(live))
        # drive both across at least one refit boundary
        a = continuation(live, values[230:420])
        b = continuation(restored, values[230:420])
        assert a.tobytes() == b.tobytes()


ZSHIFT = "zshift(recent=16, reference=48)"

#: every snapshot kind, and every refit policy a batch adapter carries
PROPERTY_KINDS = {
    "profile": lambda: StreamingMatrixProfile(9),
    "profile_bounded": lambda: StreamingMatrixProfile(9, max_history=80),
    "zscore": lambda: StreamingZScoreDetector(k=24),
    "range": lambda: StreamingRangeDetector(k=15),
    "mpx": lambda: StreamingMatrixProfileDetector(w=16),
    "mpx_bounded": lambda: StreamingMatrixProfileDetector(
        w=16, max_history=120
    ),
    "adapter": lambda: as_streaming("moving_zscore(k=25)"),
    "adapter_fixed": lambda: as_streaming(
        "diff", refit_policy="fixed(every=60)"
    ),
    "adapter_zshift": lambda: as_streaming(
        "moving_zscore(k=25)", refit_policy=f"drift(on='{ZSHIFT}')"
    ),
    "adapter_adwin": lambda: as_streaming(
        "diff", refit_policy="drift(on='adwin')"
    ),
    "adapter_page_hinkley": lambda: as_streaming(
        "moving_zscore(k=25)", refit_policy="page_hinkley"
    ),
    "adapter_hybrid": lambda: as_streaming(
        "moving_zscore(k=25)", refit_policy=f"hybrid(on='{ZSHIFT}', every=80)"
    ),
}


class TestContinuationProperty:
    """Snapshot anywhere, restore, append in any batching: the restored
    object continues byte-identically, and a restored object snapshots
    back to the blob it came from."""

    @pytest.mark.parametrize("name", PROPERTY_KINDS)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_restore_continues_byte_identically(
        self, name, family, seed, data
    ):
        values = make_family(family, seed, 300)
        live = PROPERTY_KINDS[name]()
        if isinstance(live, StreamingMatrixProfile):
            cut = data.draw(st.integers(0, values.size), label="cut")
            live.append(values[:cut])  # egress queue left undrained
        else:
            cut = data.draw(st.integers(60, values.size), label="cut")
            live.fit(values[:60])
            live.update(values[60:cut])
        edges = data.draw(
            st.lists(st.integers(cut, values.size), max_size=5),
            label="batch edges",
        )
        edges = [cut, *sorted(set(edges) - {cut, values.size}), values.size]
        batches = [values[a:b] for a, b in zip(edges, edges[1:])]

        blob = snapshot(live)
        restored = restore(blob)
        assert snapshot(restored) == blob
        a = np.concatenate([np.empty(0), *feed(live, batches)])
        b = np.concatenate([np.empty(0), *feed(restored, batches)])
        assert a.tobytes() == b.tobytes()
        if isinstance(live, StreamingMatrixProfile):
            start_a, egress_a = live.drain_egress()
            start_b, egress_b = restored.drain_egress()
            assert start_a == start_b
            assert egress_a.tobytes() == egress_b.tobytes()
        assert snapshot(live) == snapshot(restored)


def _prepend(arrays, name, index, value):
    arrays[f"{name}_idx"] = np.r_[index, arrays[f"{name}_idx"]]
    arrays[f"{name}_val"] = np.r_[value, arrays[f"{name}_val"]]


#: detector factory and an edit of its snapshot state that no sequence
#: of appends can produce
IMPOSSIBLE_STATES = {
    "zscore-window-over-k": (
        lambda: StreamingZScoreDetector(k=24),
        lambda s, a: a.update(window=np.tile(a["window"], 2)),
    ),
    "range-count-below-newest-index": (
        lambda: StreamingRangeDetector(k=15),
        lambda s, a: s.update(high_count=s["high_count"] - 1),
    ),
    "range-repeated-index": (
        lambda: StreamingRangeDetector(k=15),
        lambda s, a: _prepend(a, "high", a["high_idx"][0], a["high_val"][0]),
    ),
    "range-index-older-than-window": (
        lambda: StreamingRangeDetector(k=15),
        lambda s, a: _prepend(
            a, "low", s["low_count"] - 16, a["low_val"][0] - 1.0
        ),
    ),
    "adapter-2d-history": (
        lambda: as_streaming("diff"),
        lambda s, a: a.update(history=a["history"].reshape(-1, 1)),
    ),
    "adapter-negative-fitted-len": (
        lambda: as_streaming("diff"),
        lambda s, a: s.update(fitted_len=-5),
    ),
    "adapter-fitted-len-past-history": (
        lambda: as_streaming("diff"),
        lambda s, a: s.update(fitted_len=10**6),
    ),
    "zshift-policy-window-over-k": (
        lambda: as_streaming("diff", refit_policy=f"drift(on='{ZSHIFT}')"),
        lambda s, a: a.update(
            policy_detector_recent_window=np.tile(
                a["policy_detector_recent_window"], 2
            )
        ),
    ),
    "zshift-policy-delay-line-over-recent": (
        lambda: as_streaming("diff", refit_policy=f"drift(on='{ZSHIFT}')"),
        lambda s, a: a.update(
            policy_detector_delay=np.tile(a["policy_detector_delay"], 2)
        ),
    ),
}


class TestCodecFormat:
    def make_blob(self):
        profile = StreamingMatrixProfile(8)
        profile.append(make_family("walk", 2, 100))
        return snapshot(profile)

    def test_magic_and_version(self):
        blob = self.make_blob()
        assert blob.startswith(b"RSNAP")
        assert blob[5] == SNAPSHOT_VERSION

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            restore(b"NOTASNAP" + self.make_blob())

    def test_unknown_version_rejected(self):
        blob = bytearray(self.make_blob())
        blob[5] = 99
        with pytest.raises(ValueError, match="version 99"):
            restore(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = self.make_blob()
        with pytest.raises(ValueError):
            restore(blob[:-3])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            restore(self.make_blob() + b"xx")

    def test_unsupported_object_rejected(self):
        with pytest.raises(TypeError, match="cannot snapshot"):
            snapshot(object())

    @pytest.mark.parametrize(
        "field", ["count", "point_base", "win_base", "w", "egress_base", "x"]
    )
    def test_profile_counters_must_match_1d_arrays(self, field):
        # unchecked, each of these edits restores, then raises on the
        # first append (egress_base instead misnumbers drained windows)
        detector = StreamingMatrixProfileDetector(w=20)
        detector.fit(make_family("walk", 3, 160))
        kind, scalars, arrays = _unpack(snapshot(detector))
        if field == "x":
            arrays = {**arrays, "x": arrays["x"].reshape(-1, 1)}
        else:
            scalars = {**scalars, field: scalars[field] + 1}
        with pytest.raises(ValueError, match="corrupt snapshot"):
            restore(_pack(kind, scalars, arrays))

    @pytest.mark.parametrize("case", IMPOSSIBLE_STATES)
    def test_state_no_append_sequence_produces_is_refused(self, case):
        # unchecked, each of these restores: the zscore, range and zshift
        # edits then behave differently from any real stream for good,
        # the adapter edits fail the stream on its first append or refit
        make, edit = IMPOSSIBLE_STATES[case]
        detector = make()
        values = make_family("walk", 3, 160)
        detector.fit(values[:100])
        detector.update(values[100:])
        kind, scalars, arrays = _unpack(snapshot(detector))
        scalars, arrays = dict(scalars), dict(arrays)
        edit(scalars, arrays)
        with pytest.raises(ValueError, match="corrupt snapshot"):
            restore(_pack(kind, scalars, arrays))

    def test_infinite_scalar_is_value_error(self):
        # JSON carries Infinity, and int(inf) raises OverflowError
        detector = StreamingMatrixProfileDetector(w=20)
        kind, scalars, arrays = _unpack(snapshot(detector))
        blob = _pack(kind, {**scalars, "count": float("inf")}, arrays)
        with pytest.raises(ValueError, match="OverflowError"):
            restore(blob)

    def test_non_finite_scalars_survive(self):
        # the header JSON must carry NaN/Infinity scalars (allowed by
        # Python's json) — a fresh profile has -inf running state
        profile = StreamingMatrixProfile(8)
        profile.append(make_family("constant", 4, 60))
        restored = restore(snapshot(profile))
        tail = make_family("constant", 5, 40)
        assert profile.append(tail).tobytes() == restored.append(tail).tobytes()


SNAPSHOTS_V1 = Path(__file__).parent / "data" / "snapshots_v1"


class TestEarlierBuildBlobs:
    """Blobs an earlier build wrote still restore.

    ``tests/data/snapshots_v1`` holds the blobs of a fixed seeded set —
    :func:`detector_zoo`, a bounded profile with its egress queue
    undrained, and adapters under each refit policy, 200 points each —
    as the build before each class captured its own state wrote them.
    """

    @pytest.mark.parametrize(
        "name",
        [
            "mpx_bounded",
            "mpx",
            "zscore",
            "range",
            "adapter",
            "adapter_refit_every",
            "profile_bounded",
            "adapter_fixed",
            "adapter_drift_zshift",
            "adapter_drift_adwin",
            "adapter_page_hinkley",
            "adapter_hybrid",
        ],
    )
    def test_restores_and_snapshots_back_to_the_same_state(self, name):
        blob = (SNAPSHOTS_V1 / f"{name}.rsnap").read_bytes()
        kind, scalars, arrays = _unpack(blob)
        # adapter blobs carried a refit counter that only the snapshot
        # read; nothing writes it any more
        scalars.pop("since_fit", None)
        restored = restore(blob)
        assert snapshot(restored) == _pack(kind, scalars, arrays)
        tail = make_family("walk", 5, 30)
        scores = feed(restored, [tail])[0]
        assert scores.size == tail.size

    @pytest.mark.parametrize(
        "name, key",
        [
            ("adapter_refit_every", "policy_state"),
            ("adapter_fixed", "policy_state"),
            ("adapter_fixed", "policy"),
            ("adapter_fixed", "num_refits"),
        ],
    )
    def test_adapter_blob_without_policy_keys_is_refused(self, name, key):
        # each key is state the adapter cannot rebuild without guessing
        blob = (SNAPSHOTS_V1 / f"{name}.rsnap").read_bytes()
        kind, scalars, arrays = _unpack(blob)
        del scalars[key]
        with pytest.raises(ValueError, match="corrupt snapshot"):
            restore(_pack(kind, scalars, arrays))


FUZZ_SPECS = (
    "streaming_zscore",
    "streaming_range",
    "diff",
    "matrix_profile(w=20)",
)


def corruptions(blob, rng, payload_samples=40):
    """Truncations and single-bit flips (bits 0, 3 and 6) of ``blob``:
    at every offset of the prefix and header, and at a seeded sample
    of payload offsets."""
    header_end = 14 + struct.unpack_from("<Q", blob, 6)[0]
    payload = rng.choice(
        np.arange(header_end, len(blob)), payload_samples, replace=False
    )
    for offset in [*range(header_end), *sorted(payload)]:
        yield blob[:offset]
        for bit in (0, 3, 6):
            flipped = bytearray(blob)
            flipped[offset] ^= 1 << bit
            yield bytes(flipped)


class TestCorruptBlobs:
    """Every corrupt blob restores or raises ValueError, and a blob that
    restores cannot take its shard down."""

    # corrupt payloads overflow float math, and a flipped dtype code can
    # name a deprecated numpy alias
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_restore_or_value_error_and_the_neighbour_keeps_scoring(self):
        rng = np.random.default_rng(2022)
        values = np.cumsum(rng.standard_normal(160))
        restored = rejected = 0
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("neighbour", "s", "diff", values[:100])
            for spec in FUZZ_SPECS:
                detector = as_streaming(spec)
                detector.fit(values[:100])
                detector.update(values[100:])
                for blob in corruptions(snapshot(detector), rng):
                    try:
                        restore(blob)
                    except ValueError:
                        rejected += 1
                        continue
                    restored += 1
                    stream = f"s{restored}"
                    cluster.restore_stream(
                        {
                            "tenant": "fuzz",
                            "stream": stream,
                            "detector": spec,
                            "points_seen": 160,
                            "scores_total": 60,
                            "state": base64.b64encode(blob).decode("ascii"),
                        }
                    )
                    cluster.append("fuzz", stream, values[:8])
                    cluster.append("neighbour", "s", values[:1])
                    assert cluster.scores("neighbour", "s")["total"] == restored
        assert restored > 100 and rejected > 1000
