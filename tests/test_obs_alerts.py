"""Tests for repro.obs.alerts: rules over a registry, and the state machine.

The alerting layer's contracts:

* a threshold rule reads one metric family's current values — the
  largest against its bound, or the smallest with ``below`` — and a
  histogram family through the quantile it names;
* every rule family (threshold, burn-rate) breaches on the documented
  condition and treats missing data as "no breach", never as zero;
* the ok -> pending -> firing machine is deterministic given an
  evaluation schedule, debounces with ``for N``, recovers to ok, and
  counts every transition in the registry it watches.
"""

import sys
import threading

import pytest

from repro.obs import (
    AlertManager,
    BurnRateRule,
    MetricsRegistry,
    ThresholdRule,
)
from repro.obs.alerts import FIRING, OK, PENDING


class TestThresholdRule:
    def test_missing_data_never_breaches(self):
        rule = ThresholdRule("r", "queue_depth", 1.0)
        assert rule.breached(MetricsRegistry()) == (False, None)

    def test_breach_reports_the_observed_value(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth").set(42)
        rule = ThresholdRule("r", "queue_depth", 10.0)
        assert rule.breached(registry) == (True, 42.0)

    def test_reads_the_largest_series_of_the_family(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth", shard="a").set(1)
        registry.gauge("queue_depth", shard="b").set(9)
        assert ThresholdRule("r", "queue_depth", 8.0).breached(registry) == (
            True,
            9.0,
        )
        assert ThresholdRule("r", "queue_depth", 9.0).breached(registry) == (
            False,
            9.0,
        )

    def test_below_reads_the_smallest_series(self):
        registry = MetricsRegistry()
        registry.gauge("worker_up", shard="a").set(1)
        registry.gauge("worker_up", shard="b").set(1)
        rule = ThresholdRule("r", "worker_up", 1.0, below=True)
        assert rule.breached(registry) == (False, 1.0)
        registry.gauge("worker_up", shard="b").set(0)
        assert rule.breached(registry) == (True, 0.0)
        assert rule.describe() == "min(worker_up) < 1"

    def test_histogram_family_reads_the_named_quantile(self):
        registry = MetricsRegistry()
        registry.histogram("latency_seconds", tenant="a").observe(0.5)
        registry.histogram("latency_seconds", tenant="b").observe(2.0)
        # a tenant with no observations has no quantile: it is skipped
        registry.histogram("latency_seconds", tenant="c")
        rule = ThresholdRule(
            "r", "latency_seconds", 1.0, quantile=0.99, for_ticks=2
        )
        assert rule.breached(registry) == (True, 2.0)
        assert rule.describe() == "max(latency_seconds.p99) > 1 for 2"

    def test_histogram_family_without_observations_never_breaches(self):
        registry = MetricsRegistry()
        registry.histogram("latency_seconds", tenant="a")
        rule = ThresholdRule("r", "latency_seconds", 1.0, quantile=0.99)
        assert rule.breached(registry) == (False, None)

    def test_rule_name_with_whitespace_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule("bad name", "queue_depth", 1.0)


class TestBurnRateRule:
    def make(self, **overrides):
        spec = dict(
            errors="errors_total",
            total="requests_total",
            budget=0.05,
            factor=2.0,
            short_points=3,
            long_points=6,
        )
        spec.update(overrides)
        return BurnRateRule("burn", **spec)

    def drive(self, error_ratios):
        """One evaluation per ratio; each adds 100 requests."""
        registry = MetricsRegistry()
        errors = registry.counter("errors_total")
        requests = registry.counter("requests_total")
        rule = self.make()
        results = []
        for ratio in error_ratios:
            requests.inc(100)
            errors.inc(int(100 * ratio))
            results.append(rule.breached(registry))
        return results

    def test_sustained_burn_fires(self):
        results = self.drive([0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert results[-1][0] is True
        assert results[-1][1] == pytest.approx(0.5)

    def test_single_bad_tick_does_not_fire(self):
        # the long window dilutes one spike below budget * factor
        results = self.drive([0.0] * 10 + [0.5] + [0.0] * 4)
        assert not any(breach for breach, _ in results)

    def test_quiet_stream_never_fires(self):
        results = self.drive([0.02] * 10)
        assert not any(breach for breach, _ in results)

    def test_missing_counters_never_breach(self):
        rule = self.make()
        registry = MetricsRegistry()
        assert rule.breached(registry) == (False, None)
        assert rule.breached(registry) == (False, None)

    def test_series_sum_across_labels(self):
        registry = MetricsRegistry()
        rule = self.make()
        rule.breached(registry)
        # two tenants appear after the first reading: both count from 0
        registry.counter("requests_total", tenant="a").inc(30)
        registry.counter("requests_total", tenant="b").inc(10)
        registry.counter("errors_total", tenant="b").inc(10)
        assert rule.breached(registry) == (True, 0.25)

    def test_budget_must_be_a_ratio(self):
        with pytest.raises(ValueError, match="budget"):
            self.make(budget=1.5)

    def test_window_ordering_validated(self):
        with pytest.raises(ValueError, match="short_points"):
            self.make(short_points=8, long_points=4)


class TestAlertManagerStateMachine:
    def make_manager(self, for_ticks=2, threshold=80.0):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        manager = AlertManager(
            registry,
            [ThresholdRule("hot", "queue_depth", threshold,
                           for_ticks=for_ticks)],
        )
        return registry, gauge, manager

    def drive(self, manager, gauge, timeline):
        states, transitions = [], []
        for tick, value in enumerate(timeline):
            gauge.set(value)
            transitions.extend(manager.evaluate(now=float(tick)))
            states.append(manager.statuses()[0].state)
        return states, transitions

    def test_ok_pending_firing_recover_timeline(self):
        _, gauge, manager = self.make_manager(for_ticks=2)
        states, transitions = self.drive(
            manager, gauge, [10, 10, 95, 95, 95, 10]
        )
        assert states == [OK, OK, PENDING, FIRING, FIRING, OK]
        assert [(t["from"], t["to"], t["at"]) for t in transitions] == [
            (OK, PENDING, 2.0),
            (PENDING, FIRING, 3.0),
            (FIRING, OK, 5.0),
        ]

    def test_for_one_fires_immediately(self):
        _, gauge, manager = self.make_manager(for_ticks=1)
        states, _ = self.drive(manager, gauge, [10, 95])
        assert states == [OK, FIRING]

    def test_blip_shorter_than_for_never_fires(self):
        _, gauge, manager = self.make_manager(for_ticks=3)
        states, _ = self.drive(manager, gauge, [95, 95, 10, 95, 95, 10])
        assert FIRING not in states
        assert states[-1] == OK

    def test_since_stamps_the_first_breach_tick(self):
        _, gauge, manager = self.make_manager(for_ticks=2)
        self.drive(manager, gauge, [10, 95, 95])
        status = manager.statuses()[0]
        assert status.state == FIRING
        assert status.since == 1.0

    def test_deterministic_given_a_schedule(self):
        runs = []
        for _ in range(2):
            _, gauge, manager = self.make_manager()
            _, transitions = self.drive(
                manager, gauge, [10, 95, 95, 10, 95, 95, 95]
            )
            runs.append(transitions)
        assert runs[0] == runs[1]

    def test_transitions_counted_in_the_registry(self):
        registry, gauge, manager = self.make_manager(for_ticks=2)
        self.drive(manager, gauge, [10, 95, 95, 10])
        counters = registry.snapshot()["counters"]
        assert counters["obs_alert_transitions_total{rule=hot,to=pending}"] == 1
        assert counters["obs_alert_transitions_total{rule=hot,to=firing}"] == 1
        assert counters["obs_alert_transitions_total{rule=hot,to=ok}"] == 1
        assert counters["obs_alert_evaluations_total"] == 4

    def test_state_gauge_tracks_the_machine(self):
        registry, gauge, manager = self.make_manager(for_ticks=2)
        self.drive(manager, gauge, [95, 95])
        gauges = registry.snapshot()["gauges"]
        assert gauges["obs_alert_state{rule=hot}"] == 2.0

    def test_duplicate_rule_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AlertManager(
                MetricsRegistry(),
                [
                    ThresholdRule("hot", "queue_depth", 80.0),
                    ThresholdRule("hot", "queue_depth", 1.0),
                ],
            )

    def test_alerts_view_never_shows_half_a_pass(self):
        # the serve watcher thread evaluates while /alerts reads: every
        # payload must come from whole passes, so two rules on the same
        # condition always report the same streak
        registry = MetricsRegistry()
        registry.gauge("queue_depth").set(95)
        manager = AlertManager(
            registry,
            [
                ThresholdRule("hot-a", "queue_depth", 80.0),
                ThresholdRule("hot-b", "queue_depth", 80.0),
            ],
        )
        writers, passes = 2, 2000
        torn = []

        def evaluate():
            for _ in range(passes):
                manager.evaluate(now=0.0)

        def read():
            while any(worker.is_alive() for worker in workers):
                rows = manager.to_json()["alerts"]
                if rows[0]["streak"] != rows[1]["streak"]:
                    torn.append(rows)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=evaluate) for _ in range(writers)]
            reader = threading.Thread(target=read)
            for worker in workers:
                worker.start()
            reader.start()
            for thread in workers + [reader]:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers + [reader])
        assert torn == []
        assert [s.streak for s in manager.statuses()] == [writers * passes] * 2

    def test_firing_lists_only_firing_rules(self):
        _, gauge, manager = self.make_manager(for_ticks=1)
        self.drive(manager, gauge, [95])
        assert [s.rule.name for s in manager.firing()] == ["hot"]


class TestAlertViews:
    def make_firing_manager(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        manager = AlertManager(
            registry,
            [
                ThresholdRule("hot", "queue_depth", 80.0),
                ThresholdRule("cold", "queue_depth", 0.0, below=True),
            ],
        )
        gauge.set(95)
        manager.evaluate(now=0.0)
        return manager

    def test_to_json_schema_and_summary(self):
        payload = self.make_firing_manager().to_json()
        assert payload["schema"] == "repro-alerts/1"
        assert [row["rule"] for row in payload["alerts"]] == ["cold", "hot"]
        assert payload["summary"] == {"ok": 1, "pending": 0, "firing": 1}
        hot = payload["alerts"][1]
        assert hot["state"] == FIRING
        assert hot["value"] == 95.0
        assert "queue_depth) > 80" in hot["condition"]

    def test_prometheus_exposition_lists_non_ok_only(self):
        text = self.make_firing_manager().render_prometheus()
        assert "# TYPE ALERTS gauge" in text
        assert 'ALERTS{alertname="hot",alertstate="firing"} 1' in text
        assert "cold" not in text
