"""Tests for the serve tier's self-monitoring watch layer.

The integration contracts on top of repro.obs.alerts:

* the cluster's stock rules stay silent on a healthy cluster (zero
  false firings) and fire — after their debounce, never before — under
  injected queue saturation;
* ``/alerts`` and ``/healthz`` expose the same state machine over
  HTTP, in JSON and in the Prometheus ``ALERTS`` exposition;
* the background heartbeat thread only exists when asked for, ticks on
  its own, and dies with ``close()``;
* the Prometheus ``/metrics`` exposition is self-describing: ``# HELP``
  for every serve family, lifetime min/max for latency histograms.
"""

import threading
import time

import pytest

from repro.obs.alerts import FIRING, OK, PENDING
from repro.serve import ServeClient, ServeServer, StreamCluster
from repro.serve.loadgen import _latencies
from repro.serve.shard import default_watch_rules

TRAIN = [float(v % 7) for v in range(120)]


def make_cluster(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("queue_size", 100)
    return StreamCluster(**kwargs)


def saturate(cluster, depth=95):
    """Make every shard report a near-full queue to the watch layer."""
    cluster.queue_depths = lambda: {
        name: depth for name in cluster.workers
    }


class TestDefaultRules:
    def test_stock_rule_names(self):
        names = [rule.name for rule in default_watch_rules(1024)]
        assert names == [
            "queue-saturation",
            "append-latency-p99",
            "backpressure-burn",
        ]

    def test_saturation_threshold_scales_with_queue_size(self):
        rule = default_watch_rules(1000)[0]
        assert rule.threshold == pytest.approx(800.0)
        assert rule.for_ticks == 2


class TestWatchTick:
    def test_steady_state_has_zero_false_firings(self):
        with make_cluster() as cluster:
            cluster.create_stream("t0", "s", "moving_zscore", TRAIN)
            transitions = []
            for tick in range(10):
                cluster.append("t0", "s", [1.0, 2.0, 3.0])
                cluster.scores("t0", "s")  # barrier: batch scored
                transitions.extend(cluster.watch_tick(now=float(tick)))
            assert transitions == []
            assert cluster.watch.firing() == []

    def test_injected_saturation_fires_after_debounce_only(self):
        with make_cluster() as cluster:
            states = []
            for tick in range(8):
                if tick == 5:
                    saturate(cluster)
                cluster.watch_tick(now=float(tick))
                status = next(
                    s
                    for s in cluster.watch.statuses()
                    if s.rule.name == "queue-saturation"
                )
                states.append(status.state)
            assert states == [OK] * 5 + [PENDING, FIRING, FIRING]

    def test_recovery_returns_to_ok(self):
        with make_cluster() as cluster:
            saturate(cluster)
            cluster.watch_tick(now=0.0)
            cluster.watch_tick(now=1.0)
            assert cluster.watch.firing()
            saturate(cluster, depth=0)
            cluster.watch_tick(now=2.0)
            assert cluster.watch.firing() == []

    def test_deterministic_given_a_schedule(self):
        timelines = []
        for _ in range(2):
            with make_cluster() as cluster:
                transitions = []
                for tick in range(8):
                    if tick == 4:
                        saturate(cluster)
                    transitions.extend(cluster.watch_tick(now=float(tick)))
                timelines.append(
                    [(t["rule"], t["from"], t["to"], t["at"]) for t in transitions]
                )
        assert timelines[0] == timelines[1]
        assert timelines[0] == [
            ("queue-saturation", OK, PENDING, 4.0),
            ("queue-saturation", PENDING, FIRING, 5.0),
        ]

    def test_watch_tick_samples_the_shared_registry(self):
        with make_cluster() as cluster:
            cluster.watch_tick(now=0.0)
            keys = cluster.watch_sampler.keys()
            assert any(key.startswith("serve_queue_depth") for key in keys)
            assert "serve_uptime_seconds" in keys


class TestClusterViews:
    def test_healthz_carries_alert_summary_and_firing_names(self):
        with make_cluster() as cluster:
            saturate(cluster)
            cluster.watch_tick(now=0.0)
            cluster.watch_tick(now=1.0)
            health = cluster.healthz_json()
            assert health["alerts"]["summary"]["firing"] == 1
            assert health["alerts"]["firing"] == ["queue-saturation"]

    def test_alerts_json_is_the_manager_view(self):
        with make_cluster() as cluster:
            payload = cluster.alerts_json()
            assert payload["schema"] == "repro-alerts/1"
            assert payload["summary"]["ok"] == 3

    def test_alerts_prometheus_lists_firing_rules(self):
        with make_cluster() as cluster:
            saturate(cluster)
            cluster.watch_tick(now=0.0)
            cluster.watch_tick(now=1.0)
            text = cluster.alerts_prometheus()
            assert (
                'ALERTS{alertname="queue-saturation",alertstate="firing"} 1'
                in text
            )


class TestBackgroundThread:
    def test_no_thread_by_default(self):
        with make_cluster() as cluster:
            assert cluster._watch_thread is None
            assert cluster.watch_sampler.ticks == 0

    def test_interval_zero_rejected(self):
        with pytest.raises(ValueError, match="watch_interval"):
            make_cluster(watch_interval=0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_interval_rejected(self, interval):
        # Event.wait(nan) returns at once, so a NaN cadence would spin
        # the watcher on a full core; wait(inf) overflows on first use
        with pytest.raises(ValueError, match="watch_interval"):
            make_cluster(watch_interval=interval).close()

    def test_thread_ticks_and_close_joins_it(self):
        cluster = make_cluster(watch_interval=0.01)
        try:
            thread = cluster._watch_thread
            assert thread is not None and thread.daemon
            deadline = time.time() + 5.0
            while cluster.watch_sampler.ticks == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert cluster.watch_sampler.ticks > 0
        finally:
            cluster.close()
        assert cluster._watch_thread is None
        assert not any(
            t.name == "serve-watch" for t in threading.enumerate()
        )

    def test_custom_rules_override_the_stock_set(self):
        rules = default_watch_rules(100)[:1]
        with make_cluster(watch_rules=rules) as cluster:
            assert [r.name for r in cluster.watch.rules] == [
                "queue-saturation"
            ]


class TestHttpSurface:
    @pytest.fixture()
    def served(self):
        server = ServeServer(make_cluster()).start()
        try:
            with ServeClient(server.address) as client:
                yield server, client
        finally:
            server.close()

    def test_alerts_route_json(self, served):
        server, client = served
        payload = client.alerts()
        assert payload["schema"] == "repro-alerts/1"
        assert {row["rule"] for row in payload["alerts"]} == {
            "queue-saturation",
            "append-latency-p99",
            "backpressure-burn",
        }

    def test_alerts_route_reflects_injected_saturation(self, served):
        server, client = served
        saturate(server.cluster)
        server.cluster.watch_tick(now=0.0)
        server.cluster.watch_tick(now=1.0)
        payload = client.alerts()
        assert payload["summary"]["firing"] == 1
        text = client.alerts_text()
        assert 'alertname="queue-saturation"' in text
        health = client.health()
        assert health["alerts"]["firing"] == ["queue-saturation"]

    def test_metrics_exposition_is_self_describing(self, served):
        server, client = served
        client.create_stream("t0", "s", "moving_zscore", TRAIN)
        client.append("t0", "s", [1.0, 2.0, 3.0])
        client.scores("t0", "s")  # barrier: batch scored
        text = client.metrics_text()
        assert (
            "# HELP serve_append_seconds Arrival-to-score latency of "
            "append groups (seconds)." in text
        )
        assert "# HELP serve_queue_depth " in text
        assert "# TYPE serve_append_seconds summary" in text
        assert "serve_append_seconds_min{" in text
        assert "serve_append_seconds_max{" in text
        # alert series are described too: the watch layer's own state
        # is scraped from the same registry
        assert "# HELP obs_alert_state " in text


class TestLatencyExtremes:
    def test_tenant_json_carries_lifetime_min_max(self):
        with make_cluster() as cluster:
            cluster.create_stream("t0", "s", "moving_zscore", TRAIN)
            cluster.append("t0", "s", [1.0, 2.0, 3.0])
            cluster.scores("t0", "s")  # barrier: batch scored
            [row] = cluster.metrics_json()["tenants"]
            assert row["append_min_ms"] is not None
            assert row["append_max_ms"] >= row["append_min_ms"]

    def test_cluster_extremes_pool_tenants(self):
        with make_cluster() as cluster:
            latency = cluster.registry.histogram
            latency("serve_append_seconds", tenant="a").observe(0.002)
            latency("serve_append_seconds", tenant="b").observe(0.5)
            pooled = _latencies(cluster.registry)
            assert pooled["append_min_ms"] == pytest.approx(2.0)
            assert pooled["append_max_ms"] == pytest.approx(500.0)

    def test_extremes_on_an_idle_cluster_are_none(self):
        with make_cluster() as cluster:
            assert _latencies(cluster.registry)["append_min_ms"] is None
            # a tenant whose stream never appended has series, no data
            cluster.create_stream("t0", "s", "moving_zscore", TRAIN)
            pooled = _latencies(cluster.registry)
            assert pooled["append_min_ms"] is None
            assert pooled["append_max_ms"] is None
