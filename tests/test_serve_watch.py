"""Tests for the serve tier's self-monitoring watch layer.

The integration contracts on top of repro.obs.alerts:

* the cluster's stock rules stay silent on a healthy cluster (zero
  false firings) and fire — after their debounce, never before — under
  injected queue saturation, and at once when a shard worker dies;
* ``/alerts`` and ``/healthz`` expose the same state machine over
  HTTP, in JSON and in the Prometheus ``ALERTS`` exposition;
* the background heartbeat thread only exists when asked for, ticks on
  its own — also after the wall clock steps back or a tick raises —
  dies with ``close()``, and ``/healthz`` is not ok while it is dead;
* the Prometheus ``/metrics`` exposition is self-describing: ``# HELP``
  for every serve family, lifetime min/max for latency histograms.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs.alerts import FIRING, OK, PENDING
from repro.serve import ServeClient, ServeServer, StreamCluster
from repro.serve.shard import default_watch_rules
from test_serve_shard import kill_worker

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


def evaluations(cluster):
    return cluster.registry.counter("obs_alert_evaluations_total").value


def watch_errors(cluster):
    return cluster.registry.counter("obs_watch_errors_total").value


def wait_until(condition, timeout=5.0):
    """Poll ``condition`` on the monotonic clock (tests step the wall one)."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestDefaultRules:
    def test_stock_rule_names(self):
        names = [rule.name for rule in default_watch_rules(1024)]
        assert names == [
            "queue-saturation",
            "append-latency-p99",
            "backpressure-burn",
            "worker-down",
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

    def test_late_tenant_rejections_count_from_zero(self):
        # a tenant whose first stream is created and rejected between two
        # ticks enters the burn windows with everything it did: its
        # counters started at 0 when the stream was created
        with make_cluster() as cluster:
            cluster.watch_tick(now=0.0)
            cluster.watch_tick(now=1.0)
            cluster.create_stream("late", "s", "diff", TRAIN)
            for _ in range(4):
                cluster.append("late", "s", [1.0, 2.0])
            cluster.scores("late", "s")  # barrier: 4 batches scored
            # two more appends refused at a full queue, as submit counts them
            cluster.registry.counter("serve_rejected", tenant="late").inc(2)
            transitions = cluster.watch_tick(now=2.0)
            assert [(t["rule"], t["to"], t["value"]) for t in transitions] == [
                ("backpressure-burn", FIRING, 0.5)
            ]

    def test_watch_tick_samples_the_shared_registry(self):
        # the rules read the registry, so a tick refreshes the readings
        # only the cluster can take before it evaluates them
        with make_cluster() as cluster:
            saturate(cluster, depth=7)
            cluster.watch_tick(now=0.0)
            gauges = cluster.registry.snapshot()["gauges"]
            assert gauges["serve_queue_depth{shard=shard-0}"] == 7.0
            assert gauges["serve_queue_depth{shard=shard-1}"] == 7.0
            assert gauges["serve_uptime_seconds"] > 0


class TestStockRuleParity:
    """The three load rules' ``/alerts`` timeline, pinned tick by tick.

    Every tenant exists before tick 0.  Each tick injects a shard queue
    depth, append latencies and backpressure counts, then advances the
    watch clock by hand, taking each rule from ok through pending and
    firing back to ok (``backpressure-burn`` is ``for 1``: it fires on
    its first breach).
    """

    RULES = ("queue-saturation", "append-latency-p99", "backpressure-burn")
    CONDITIONS = {
        "queue-saturation": "max(serve_queue_depth) > 80 for 2",
        "append-latency-p99": "max(serve_append_seconds.p99) > 1 for 2",
        "backpressure-burn": (
            "burn(serve_rejected/serve_append_batches) > 0.05*2 "
            "over 3&12 samples"
        ),
    }
    FOR_TICKS = {
        "queue-saturation": 2,
        "append-latency-p99": 2,
        "backpressure-burn": 1,
    }
    STATE_VALUE = {OK: 0.0, PENDING: 1.0, FIRING: 2.0}
    # injected before each tick: every shard's queue depth, latencies
    # tenant b observes, tenant b's rejections, tenant a's batches
    SCHEDULE = [
        (10, (), 0, 10),
        (10, (), 0, 10),
        (95, (), 0, 10),
        (95, (3.0,), 0, 10),
        (95, (), 0, 10),
        (10, (0.5,) * 199, 0, 10),
        (10, (), 10, 10),
        (10, (), 0, 10),
        (10, (), 0, 10),
    ]
    # (state, streak, since, value) of each rule after each tick
    EXPECTED = [
        ((OK, 0, None, 10.0), (OK, 0, None, None), (OK, 0, None, None)),
        ((OK, 0, None, 10.0), (OK, 0, None, None), (OK, 0, None, 0.0)),
        ((PENDING, 1, 2.0, 95.0), (OK, 0, None, None), (OK, 0, None, 0.0)),
        ((FIRING, 2, 2.0, 95.0), (PENDING, 1, 3.0, 3.0), (OK, 0, None, 0.0)),
        ((FIRING, 3, 2.0, 95.0), (FIRING, 2, 3.0, 3.0), (OK, 0, None, 0.0)),
        ((OK, 0, None, 10.0), (OK, 0, None, 0.5), (OK, 0, None, 0.0)),
        ((OK, 0, None, 10.0), (OK, 0, None, 0.5), (FIRING, 1, 6.0, 0.5)),
        ((OK, 0, None, 10.0), (OK, 0, None, 0.5), (FIRING, 2, 6.0, 0.5)),
        ((OK, 0, None, 10.0), (OK, 0, None, 0.5), (OK, 0, None, 0.0)),
    ]

    def test_stock_conditions_at_the_default_queue_size(self):
        with StreamCluster(num_shards=1) as cluster:
            rows = {row["rule"]: row for row in cluster.alerts_json()["alerts"]}
        assert {rule: rows[rule]["condition"] for rule in self.RULES} == {
            "queue-saturation": "max(serve_queue_depth) > 819.2 for 2",
            "append-latency-p99": "max(serve_append_seconds.p99) > 1 for 2",
            "backpressure-burn": self.CONDITIONS["backpressure-burn"],
        }

    def test_scripted_timeline(self):
        with make_cluster() as cluster:
            for tenant in ("a", "b"):
                cluster.create_stream(tenant, "s", "diff", TRAIN)
            depth = {}
            cluster.queue_depths = lambda: {
                name: depth["now"] for name in cluster.workers
            }
            registry = cluster.registry
            latency = registry.histogram("serve_append_seconds", tenant="b")
            rejected = registry.counter("serve_rejected", tenant="b")
            batches = registry.counter("serve_append_batches", tenant="a")
            previous = {rule: OK for rule in self.RULES}
            moved = {}
            for tick, (injected, expected) in enumerate(
                zip(self.SCHEDULE, self.EXPECTED)
            ):
                depth["now"], observed, errors, attempts = injected
                for seconds in observed:
                    latency.observe(seconds)
                rejected.inc(errors)
                batches.inc(attempts)
                transitions = cluster.watch_tick(now=float(tick))

                states = {}
                rows = []
                moves = []
                for rule, (state, streak, since, value) in zip(
                    self.RULES, expected
                ):
                    states[rule] = state
                    rows.append(
                        {
                            "rule": rule,
                            "condition": self.CONDITIONS[rule],
                            "state": state,
                            "for_ticks": self.FOR_TICKS[rule],
                            "streak": streak,
                            "since": since,
                            "value": value,
                        }
                    )
                    if state != previous[rule]:
                        moves.append(
                            {
                                "rule": rule,
                                "from": previous[rule],
                                "to": state,
                                "at": float(tick),
                                "value": value,
                            }
                        )
                        moved[rule, state] = moved.get((rule, state), 0) + 1
                previous = states

                assert transitions == moves, tick
                served = {
                    row["rule"]: row for row in cluster.alerts_json()["alerts"]
                }
                assert [served[rule] for rule in self.RULES] == rows, tick
                assert cluster.alerts_prometheus() == "".join(
                    ["# TYPE ALERTS gauge\n"]
                    + [
                        f'ALERTS{{alertname="{rule}",alertstate="{state}"}} 1\n'
                        for rule, state in sorted(states.items())
                        if state != OK
                    ]
                )
                assert cluster.healthz_json()["alerts"]["firing"] == sorted(
                    rule for rule, state in states.items() if state == FIRING
                )
                snapshot = registry.snapshot()
                counters, gauges = snapshot["counters"], snapshot["gauges"]
                assert counters["obs_alert_evaluations_total"] == tick + 1
                for rule in self.RULES:
                    assert gauges[f"obs_alert_state{{rule={rule}}}"] == (
                        self.STATE_VALUE[states[rule]]
                    )
                    for to in (OK, PENDING, FIRING):
                        key = f"obs_alert_transitions_total{{rule={rule},to={to}}}"
                        assert counters.get(key, 0) == moved.get((rule, to), 0)


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
            assert payload["summary"]["ok"] == 4

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
            assert evaluations(cluster) == 0

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
            assert wait_until(lambda: evaluations(cluster) > 0)
        finally:
            cluster.close()
        assert cluster._watch_thread is None
        assert not any(
            t.name == "serve-watch" for t in threading.enumerate()
        )


    def test_wall_clock_step_back_keeps_the_watcher_ticking(
        self, monkeypatch
    ):
        cluster = make_cluster(watch_interval=0.01)
        try:
            wall = time.time
            before = evaluations(cluster)
            assert wait_until(lambda: evaluations(cluster) > before)
            monkeypatch.setattr(time, "time", lambda: wall() - 120.0)
            stepped = evaluations(cluster)
            assert wait_until(lambda: evaluations(cluster) > stepped + 3)
            assert cluster._watch_thread.is_alive()
        finally:
            cluster.close()

    def test_a_raising_tick_is_counted_and_the_watcher_keeps_ticking(
        self, capsys
    ):
        # unguarded, the third evaluation's error ended the serve-watch
        # thread, and evaluations stopped for good
        cluster = make_cluster(watch_interval=0.01)
        try:
            evaluate = cluster.watch.evaluate
            calls = []

            def raises_once(**kwargs):
                calls.append(kwargs)
                if len(calls) == 3:
                    raise RuntimeError("injected")
                return evaluate(**kwargs)

            cluster.watch.evaluate = raises_once
            before = evaluations(cluster)
            assert wait_until(lambda: evaluations(cluster) > before + 5)
            assert watch_errors(cluster) == 1
            assert cluster._watch_thread.is_alive()
            assert cluster.healthz_json()["ok"] is True
        finally:
            cluster.close()
        assert "RuntimeError: injected" in capsys.readouterr().err

    # the injected SystemExit ends the watch thread unhandled, by design
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_a_dead_watcher_is_not_ok(self):
        cluster = make_cluster(watch_interval=0.01)
        try:
            assert cluster.healthz_json()["ok"] is True

            def die(**kwargs):
                raise SystemExit("injected")

            cluster.watch.evaluate = die
            cluster._watch_thread.join(timeout=5.0)
            assert not cluster._watch_thread.is_alive()
            assert cluster.healthz_json()["ok"] is False
        finally:
            cluster.close()
        # a closed cluster's stopped watcher is not a failure
        assert cluster.healthz_json()["ok"] is True


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
            "worker-down",
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

    # the injected SystemExit ends the worker thread unhandled, by design
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_worker_fires_worker_down(self, served):
        server, client = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        assert 'serve_worker_up{shard="shard-0"} 1' in client.metrics_text()
        dead = kill_worker(server.cluster)
        server.cluster.watch_tick(now=0.0)
        rows = {row["rule"]: row for row in client.alerts()["alerts"]}
        assert rows["worker-down"]["state"] == FIRING
        assert rows["worker-down"]["condition"] == "min(serve_worker_up) < 1"
        assert rows["worker-down"]["value"] == 0.0
        health = client.health()
        assert health["ok"] is False
        assert health["dead_shards"] == [dead.name]
        assert health["alerts"]["firing"] == ["worker-down"]
        text = client.metrics_text()
        assert f'serve_worker_up{{shard="{dead.name}"}} 0' in text

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
