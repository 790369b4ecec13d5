"""Sharded workers: routing, ordering, backpressure, snapshot barriers,
and per-stream isolation of a detector that raises."""

import base64
import sys
import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.serve import (
    Backpressure,
    HashRing,
    ShardWorker,
    StreamCluster,
    StreamFailed,
)
from repro.serve.shard import _Op
from repro.serve.state import _pack, _unpack
from repro.stream import replay
from repro.types import LabeledSeries, Labels


def spiked(name="s", n=900, seed=0, at=700, width=6, train=250):
    rng = np.random.default_rng(seed)
    values = np.sin(2 * np.pi * np.arange(n) / 90) + 0.05 * rng.standard_normal(n)
    values[at : at + width] += 9.0
    return LabeledSeries(
        name, values, Labels.single(n, at, at + width), train_len=train
    )


class TestHashRing:
    def test_routing_is_deterministic_and_total(self):
        ring = HashRing(["a", "b", "c"])
        routes = {f"tenant-{i}": ring.route(f"tenant-{i}") for i in range(200)}
        again = HashRing(["a", "b", "c"])
        assert all(again.route(t) == s for t, s in routes.items())
        assert set(routes.values()) <= {"a", "b", "c"}

    def test_every_shard_owns_tenants(self):
        ring = HashRing(["a", "b", "c", "d"])
        owners = {ring.route(f"t{i}") for i in range(500)}
        assert owners == {"a", "b", "c", "d"}

    def test_adding_a_shard_moves_a_minority(self):
        before = HashRing(["a", "b", "c"])
        after = HashRing(["a", "b", "c", "d"])
        tenants = [f"t{i}" for i in range(1000)]
        moved = sum(before.route(t) != after.route(t) for t in tenants)
        # consistent hashing: ~1/4 move; mod-hashing would move ~3/4
        assert 0 < moved < 500

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            HashRing([])
        with pytest.raises(ValueError, match="duplicate"):
            HashRing(["a", "a"])


class TestClusterLifecycle:
    def test_create_append_read(self):
        series = spiked()
        with StreamCluster(num_shards=2) as cluster:
            created = cluster.create_stream(
                "acme", "s1", "diff", series.train
            )
            assert created["train_len"] == 250
            for start in range(250, 900, 130):
                cluster.append(
                    "acme", "s1", series.values[start : start + 130]
                )
            out = cluster.scores("acme", "s1")
            assert out["total"] == 650
            assert len(out["scores"]) == 650
            paged = cluster.scores("acme", "s1", start=600)
            assert paged["start"] == 600 and len(paged["scores"]) == 50

    def test_served_scores_match_local_replay(self):
        # the service is a transport, not a different algorithm: the
        # scores a stream emits through the cluster must equal a local
        # left-to-right replay of the same detector
        series = spiked(seed=3)
        trace = replay(series, "moving_zscore(k=25)", batch_size=64)
        with StreamCluster(num_shards=2) as cluster:
            cluster.create_stream(
                "acme", "s1", "moving_zscore(k=25)", series.train
            )
            for start in range(250, 900, 64):
                cluster.append(
                    "acme", "s1", series.values[start : start + 64]
                )
            served = cluster.scores("acme", "s1")["scores"]
        expected = trace.scores[250:]
        np.testing.assert_array_equal(
            np.where(np.isfinite(served), served, -np.inf), expected
        )

    def test_native_streaming_spec(self):
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream(
                "acme", "s1", "streaming_zscore(k=12)", np.arange(30.0)
            )
            cluster.append("acme", "s1", np.arange(30.0, 40.0))
            assert cluster.scores("acme", "s1")["total"] == 10

    def test_duplicate_create_rejected(self):
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(20.0))
            with pytest.raises(ValueError, match="already exists"):
                cluster.create_stream("acme", "s1", "diff", np.arange(20.0))

    def test_unknown_stream_is_keyerror(self):
        with StreamCluster(num_shards=1) as cluster:
            with pytest.raises(KeyError, match="ghost"):
                cluster.scores("acme", "ghost")

    def test_append_to_unknown_stream_is_keyerror_not_dropped(self):
        with StreamCluster(num_shards=1) as cluster:
            with pytest.raises(KeyError, match="ghost"):
                cluster.append("acme", "ghost", [1.0])
            assert cluster.metrics_json()["totals"]["points_ingested"] == 0

    def test_restored_stream_accepts_appends(self):
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(20.0))
            snap = cluster.snapshot_stream("acme", "s1")
            snap["stream"] = "acme/s2"
            cluster.restore_stream(snap)
            cluster.append("acme", "s2", [1.0, 2.0])
            assert cluster.scores("acme", "s2")["total"] == 2

    def test_bad_names_rejected(self):
        with StreamCluster(num_shards=1) as cluster:
            with pytest.raises(ValueError, match="tenant"):
                cluster.create_stream("a/b", "s", "diff", [])
            with pytest.raises(ValueError, match="non-empty"):
                cluster.append("acme", "", [1.0])

    def test_empty_append_rejected(self):
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(20.0))
            with pytest.raises(ValueError, match="at least one"):
                cluster.append("acme", "s1", [])

    def test_tenant_streams_share_a_shard(self):
        with StreamCluster(num_shards=4) as cluster:
            shards = {
                cluster.create_stream(
                    "acme", f"s{i}", "diff", np.arange(20.0)
                )["shard"]
                for i in range(8)
            }
            assert len(shards) == 1  # consistent routing by tenant


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        with StreamCluster(num_shards=1, queue_size=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(40.0))
            rejected = 0
            for _ in range(200):
                try:
                    cluster.append("acme", "s1", np.arange(64.0))
                except Backpressure as pressure:
                    assert pressure.retry_after > 0
                    rejected += 1
            assert rejected > 0
            # the rejection is visible in the metrics, never silent
            totals = cluster.metrics_json()["totals"]
            assert totals["rejected"] == rejected
            ingested_eventually = cluster.scores("acme", "s1")["total"]
            assert ingested_eventually == (200 - rejected) * 64

    def test_rejected_appends_are_not_applied(self):
        with StreamCluster(num_shards=1, queue_size=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(40.0))
            accepted = 0
            for index in range(100):
                try:
                    cluster.append("acme", "s1", [float(index)])
                    accepted += 1
                except Backpressure:
                    pass
            assert cluster.scores("acme", "s1")["total"] == accepted


class TestSnapshotBarrier:
    def test_snapshot_sees_all_prior_appends(self):
        # snapshot is a control op: every append submitted before it
        # must be folded into the captured state
        with StreamCluster(num_shards=1, queue_size=512) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(40.0))
            for start in range(0, 300, 10):
                cluster.append(
                    "acme", "s1", np.arange(float(start), float(start + 10))
                )
            snap = cluster.snapshot_stream("acme", "s1")
            assert snap["points_seen"] == 40 + 300
            assert snap["scores_total"] == 300

    def test_restore_continues_byte_identically(self):
        series = spiked(seed=9)
        with StreamCluster(num_shards=2) as cluster:
            cluster.create_stream(
                "acme", "s1", "moving_zscore(k=30)", series.train
            )
            for start in range(250, 560, 31):
                cluster.append(
                    "acme", "s1", series.values[start : start + 31]
                )
            snap = cluster.snapshot_stream("acme", "s1")
            cut = snap["scores_total"]
            for start in range(560, 900, 31):
                cluster.append(
                    "acme", "s1", series.values[start : start + 31]
                )
            original = cluster.scores("acme", "s1", start=cut)["scores"]

            with StreamCluster(num_shards=3) as other:
                other.restore_stream(snap)
                for start in range(560, 900, 31):
                    other.append(
                        "acme", "s1", series.values[start : start + 31]
                    )
                restored = other.scores("acme", "s1", start=cut)["scores"]
                assert other.metrics_json()["totals"]["restores"] == 1
        assert restored == original

    def test_restore_into_existing_stream_rejected(self):
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(30.0))
            snap = cluster.snapshot_stream("acme", "s1")
            with pytest.raises(ValueError, match="already exists"):
                cluster.restore_stream(snap)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("state", 5),
            ("state", None),
            ("state", ["UlNOQVA="]),
            ("points_seen", -1),
            ("points_seen", 1.9),
            ("points_seen", True),
            ("points_seen", "40"),
            ("scores_total", -7),
            ("scores_total", True),
            ("scores_total", 3.0),
        ],
    )
    def test_restore_payload_contract(self, field, value):
        # unchecked, a non-string state crashed the worker op
        # (AttributeError) and the counts restored as given or truncated:
        # scores_total=-7 misnumbered every later score read
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(30.0))
            snap = cluster.snapshot_stream("acme", "s1")
            snap.update({"stream": "acme/s2", field: value})
            with pytest.raises(ValueError, match=field):
                cluster.restore_stream(snap)
            with pytest.raises(KeyError):
                cluster.scores("acme", "s2")
            assert cluster.metrics_json()["totals"]["restores"] == 0

    def test_stream_stats(self):
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(30.0))
            cluster.append("acme", "s1", np.arange(12.0))
            stats = cluster.stream_stats("acme", "s1")
            assert stats["points_seen"] == 42
            assert stats["scores_total"] == 12
            assert stats["detector"] == "diff"


def relabelled(snapshot, spec, window, stream):
    """A ``diff`` stream's snapshot payload, its blob relabelled as
    ``spec`` with ``window``: a well-formed blob whose detector raises
    on the first append (a window too short for the detector)."""
    kind, scalars, arrays = _unpack(base64.b64decode(snapshot["state"]))
    blob = _pack(kind, {**scalars, "spec": spec, "window": window}, arrays)
    return {
        **snapshot,
        "stream": stream,
        "detector": spec,
        "state": base64.b64encode(blob).decode("ascii"),
    }


def failures(cluster, tenant):
    return cluster.registry.counter(
        "serve_stream_failures_total", tenant=tenant
    ).value


class TestStreamFailure:
    """A detector that raises fails its own stream, never its shard."""

    def broken_cluster(self):
        cluster = StreamCluster(num_shards=1)
        cluster.create_stream("a", "ok", "diff", np.arange(40.0))
        cluster.create_stream("b", "ok", "diff", np.arange(40.0))
        snap = cluster.snapshot_stream("a", "ok")
        cluster.restore_stream(
            relabelled(snap, "matrix_profile(w=100)", 150, "a/bad")
        )
        return cluster

    def test_failed_stream_answers_its_error(self, capsys):
        with self.broken_cluster() as cluster:
            cluster.append("a", "bad", np.arange(10.0))
            with pytest.raises(StreamFailed, match="too short") as caught:
                cluster.scores("a", "bad")
            assert caught.value.stream == "a/bad"
            assert caught.value.error.startswith("ValueError: ")
            for op in (
                lambda: cluster.append("a", "bad", [1.0]),
                lambda: cluster.snapshot_stream("a", "bad"),
                lambda: cluster.stream_stats("a", "bad"),
            ):
                with pytest.raises(StreamFailed, match="too short"):
                    op()
            # a failed stream stays failed: its name is not free again
            with pytest.raises(ValueError, match="already exists"):
                cluster.create_stream("a", "bad", "diff", np.arange(40.0))
            assert failures(cluster, "a") == 1
            assert failures(cluster, "b") == 0
        assert "Traceback" in capsys.readouterr().err

    def test_other_streams_on_the_shard_keep_scoring(self):
        with self.broken_cluster() as cluster:
            # one queue drain can hold all three streams' appends
            for _ in range(3):
                cluster.append("a", "ok", np.arange(5.0))
                try:
                    cluster.append("a", "bad", np.arange(5.0))
                except StreamFailed:  # the worker got to it first
                    pass
                cluster.append("b", "ok", np.arange(5.0))
            assert cluster.scores("a", "ok")["total"] == 15
            assert cluster.scores("b", "ok")["total"] == 15
            # appends queued behind the failing one are dropped, and
            # the stream is counted failed once
            assert failures(cluster, "a") == 1
            assert cluster.metrics_json()["totals"]["points_ingested"] == 30

    def test_producers_racing_the_failure(self):
        # 8 producer threads append to their own healthy streams and to
        # the failing one while the worker marks it failed: each append
        # to it is queued or refused with StreamFailed, none is lost
        # from a healthy stream, and the stream is counted failed once
        errors = []

        def work(name):
            try:
                for _ in range(25):
                    cluster.append("b", name, [1.0, 2.0])
                    try:
                        cluster.append("a", "bad", [1.0])
                    except StreamFailed:
                        pass
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        with self.broken_cluster() as cluster:
            names = [f"p{index}" for index in range(8)]
            for name in names:
                cluster.create_stream("b", name, "diff", np.arange(20.0))
            threads = [
                threading.Thread(target=work, args=(name,)) for name in names
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=20)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            for name in names:
                assert cluster.scores("b", name)["total"] == 50
            assert failures(cluster, "a") == 1
            with pytest.raises(StreamFailed):
                cluster.append("a", "bad", [1.0])


class TestMetrics:
    def test_counters_and_latency_digest(self):
        with StreamCluster(num_shards=2) as cluster:
            cluster.create_stream("a", "s", "diff", np.arange(30.0))
            cluster.create_stream("b", "s", "diff", np.arange(30.0))
            cluster.append("a", "s", np.arange(40.0))
            cluster.append("b", "s", np.arange(10.0))
            cluster.scores("a", "s")
            cluster.scores("b", "s")
            payload = cluster.metrics_json()
        assert [row["tenant"] for row in payload["tenants"]] == ["a", "b"]
        totals = payload["totals"]
        assert totals["points_ingested"] == 50
        assert totals["scores_emitted"] == 50
        by_tenant = {row["tenant"]: row for row in payload["tenants"]}
        assert by_tenant["a"]["points_ingested"] == 40
        assert by_tenant["a"]["append_p99_ms"] is not None
        assert set(payload["queue_depths"]) == {"shard-0", "shard-1"}

    def test_a_tenant_shows_from_its_first_stream(self):
        # its series are created with its first stream, not its first
        # append: zero counters and null digests until it appends
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("idle", "s", "diff", np.arange(30.0))
            payload = cluster.metrics_json()
            text = cluster.metrics_prometheus()
        assert payload["tenants"] == [
            {
                "tenant": "idle",
                "points_ingested": 0,
                "scores_emitted": 0,
                "append_batches": 0,
                "rejected": 0,
                "snapshots": 0,
                "restores": 0,
                "append_p50_ms": None,
                "append_p99_ms": None,
                "append_min_ms": None,
                "append_max_ms": None,
                "queue_wait_p99_ms": None,
                "score_p99_ms": None,
            }
        ]
        assert 'serve_points_ingested{tenant="idle"} 0' in text
        assert 'serve_append_seconds_count{tenant="idle"} 0' in text
        assert "serve_append_seconds_min{" not in text

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            StreamCluster(num_shards=0)


def finishes(call, *, timeout=2.0):
    """Run ``call`` in a thread; the exception it raised (None if none).

    Fails instead of hanging the suite when ``call`` never returns.
    """
    outcome = {}

    def run():
        try:
            call()
            outcome["error"] = None
        except Exception as error:  # handed to the caller
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{call} still blocked after {timeout}s"
    return outcome["error"]


class TestClosedCluster:
    def test_append_after_close_raises(self):
        cluster = StreamCluster(num_shards=2)
        cluster.create_stream("acme", "s1", "diff", np.arange(20.0))
        cluster.close()
        error = finishes(lambda: cluster.append("acme", "s1", [1.0]))
        assert isinstance(error, RuntimeError)
        assert "not running" in str(error)

    @pytest.mark.parametrize("op", ["scores", "stream_stats", "snapshot_stream"])
    def test_control_op_after_close_raises_instead_of_blocking(self, op):
        cluster = StreamCluster(num_shards=2)
        cluster.create_stream("acme", "s1", "diff", np.arange(20.0))
        cluster.close()
        error = finishes(lambda: getattr(cluster, op)("acme", "s1"))
        assert isinstance(error, RuntimeError)

    def test_create_after_close_raises(self):
        cluster = StreamCluster(num_shards=1)
        cluster.close()
        error = finishes(
            lambda: cluster.create_stream("acme", "s1", "diff", [1.0])
        )
        assert isinstance(error, RuntimeError)

    def test_op_the_stopped_worker_never_reached_raises(self):
        # the worker thread stops (as when close() races a caller that
        # already passed the closed check): its waiting caller must fail
        worker = ShardWorker("w", MetricsRegistry())
        worker._queue.put(None)
        worker._thread.join(timeout=2)
        error = finishes(
            lambda: worker.call("stats", "acme/s1", None, tenant="acme")
        )
        assert isinstance(error, RuntimeError)

    def test_ops_before_close_still_complete(self):
        with StreamCluster(num_shards=1, queue_size=512) as cluster:
            cluster.create_stream("acme", "s1", "diff", np.arange(20.0))
            for start in range(0, 200, 10):
                cluster.append("acme", "s1", np.arange(start, start + 10.0))
        totals = cluster.metrics_json()["totals"]
        assert totals["points_ingested"] == 200


class TestNonFiniteValues:
    """NaN and ±Infinity are refused at the cluster boundary: no detector
    has a missing-data policy, so one NaN would poison a stream."""

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
    )
    def test_append_refuses_and_the_stream_keeps_scoring(self, bad):
        values = spiked(n=400, at=300, train=200).values
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream(
                "acme", "s1", "streaming_zscore(k=48)", values[:200]
            )
            with pytest.raises(ValueError, match="finite"):
                cluster.append("acme", "s1", [1.0, bad, 2.0])
            cluster.append("acme", "s1", values[200:300])
            scores = cluster.scores("acme", "s1")["scores"]
        assert len(scores) == 100
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
    )
    def test_create_refuses_a_non_finite_train(self, bad):
        with StreamCluster(num_shards=1) as cluster:
            train = np.arange(40.0)
            train[7] = bad
            with pytest.raises(ValueError, match="finite"):
                cluster.create_stream("acme", "s1", "diff", train)
            with pytest.raises(KeyError):
                cluster.append("acme", "s1", [1.0])


def kill_worker(cluster, tenant="acme"):
    """Kill ``tenant``'s worker thread the way no ``except Exception``
    catches: its next batch raises SystemExit."""
    worker = cluster.worker_for(tenant)

    def die(batch):
        raise SystemExit("injected")

    worker._execute = die
    cluster.append(tenant, "s1", [1.0])
    worker._thread.join(timeout=1.0)
    assert not worker._thread.is_alive()
    return worker


def fill_queue(worker):
    while not worker._queue.full():
        worker._queue.put_nowait(_Op("append", "acme/s1", np.ones(1)))


# the injected SystemExit ends the worker thread unhandled, by design
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestDeadWorker:
    """A worker thread that died is refused loudly, never waited on."""

    def dead_cluster(self):
        cluster = StreamCluster(num_shards=1, queue_size=8)
        cluster.create_stream("acme", "s1", "diff", np.arange(20.0))
        return cluster, kill_worker(cluster)

    def test_append_to_a_dead_worker_raises(self):
        cluster, _ = self.dead_cluster()
        error = finishes(
            lambda: cluster.append("acme", "s1", [1.0]), timeout=1.0
        )
        assert isinstance(error, RuntimeError)
        assert "not running" in str(error)
        cluster.close()

    def test_read_never_waits_on_a_dead_workers_full_queue(self):
        cluster, worker = self.dead_cluster()
        fill_queue(worker)
        error = finishes(lambda: cluster.scores("acme", "s1"), timeout=1.0)
        assert isinstance(error, RuntimeError)
        assert "not running" in str(error)
        cluster.close()

    def test_close_returns_with_a_dead_workers_full_queue(self):
        cluster, worker = self.dead_cluster()
        fill_queue(worker)
        assert finishes(cluster.close, timeout=1.0) is None

    def test_healthz_names_the_dead_shard(self):
        cluster, worker = self.dead_cluster()
        health = cluster.healthz_json()
        assert health["ok"] is False
        assert health["dead_shards"] == [worker.name]
        cluster.close()
        # closed on purpose is not dead
        assert cluster.healthz_json()["ok"] is True
