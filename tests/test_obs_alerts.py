"""Tests for repro.obs.alerts: selectors, rules, and the state machine.

The alerting layer's contracts:

* the selector grammar resolves against sampler keys exactly the way
  ``/metrics`` names series, and refuses ambiguity instead of silently
  picking one tenant;
* every rule family (threshold, burn-rate, detector-backed) breaches
  on the documented condition and treats missing data as "no breach",
  never as zero;
* the ok -> pending -> firing machine is deterministic given a sample
  schedule, debounces with ``for N``, recovers to ok, and counts every
  transition in the registry it watches.
"""

import pytest

from repro.obs import (
    AlertManager,
    BurnRateRule,
    DetectorRule,
    MetricsRegistry,
    Selector,
    SeriesSampler,
    ThresholdRule,
)
from repro.obs.alerts import FIRING, OK, PENDING


def sampler_with(registry=None):
    return SeriesSampler(registry if registry is not None else MetricsRegistry())


class TestSelectorGrammar:
    def test_bare_name(self):
        selector = Selector.parse("queue_depth")
        assert selector.name == "queue_depth"
        assert selector.aggregator is None
        assert selector.labels == {}
        assert selector.field is None

    def test_aggregate_with_labels_and_field(self):
        selector = Selector.parse("max(latency_seconds{tenant=a}.p99)")
        assert selector.aggregator == "max"
        assert selector.name == "latency_seconds"
        assert selector.labels == {"tenant": "a"}
        assert selector.field == "p99"

    def test_rate_field(self):
        assert Selector.parse("requests_total.rate").field == "rate"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown selector field"):
            Selector.parse("latency_seconds.p42")

    def test_unknown_aggregator_is_a_bad_name(self):
        with pytest.raises(ValueError):
            Selector.parse("median(latency_seconds.p99)")

    def test_unclosed_label_block_rejected(self):
        with pytest.raises(ValueError, match="unclosed"):
            Selector.parse("queue_depth{shard=a")


class TestSelectorResolve:
    def test_gauge_value(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth").set(7)
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        assert Selector.parse("queue_depth").resolve(sampler) == 7.0

    def test_missing_series_is_none(self):
        sampler = sampler_with()
        sampler.sample(now=0.0)
        assert Selector.parse("queue_depth").resolve(sampler) is None

    def test_bare_selector_matching_many_series_raises(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth", shard="a").set(1)
        registry.gauge("queue_depth", shard="b").set(2)
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        with pytest.raises(ValueError, match="matches 2 series"):
            Selector.parse("queue_depth").resolve(sampler)

    def test_aggregator_pools_matching_series(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth", shard="a").set(1)
        registry.gauge("queue_depth", shard="b").set(9)
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        assert Selector.parse("max(queue_depth)").resolve(sampler) == 9.0
        assert Selector.parse("sum(queue_depth)").resolve(sampler) == 10.0
        assert Selector.parse("avg(queue_depth)").resolve(sampler) == 5.0

    def test_labels_disambiguate(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth", shard="a").set(1)
        registry.gauge("queue_depth", shard="b").set(9)
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        selector = Selector.parse("queue_depth{shard=b}")
        assert selector.resolve(sampler) == 9.0

    def test_histogram_needs_a_field(self):
        registry = MetricsRegistry()
        registry.histogram("latency_seconds").observe(0.5)
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        with pytest.raises(ValueError, match="digest field"):
            Selector.parse("latency_seconds").resolve(sampler)
        p99 = Selector.parse("latency_seconds.p99").resolve(sampler)
        assert p99 == pytest.approx(0.5)

    def test_rate_on_a_gauge_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth").set(1)
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        with pytest.raises(ValueError, match="applies to counters"):
            Selector.parse("queue_depth.rate").resolve(sampler)

    def test_counter_rate(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        counter.inc(30)
        sampler.sample(now=10.0)
        rate = Selector.parse("requests_total.rate").resolve(sampler)
        assert rate == pytest.approx(3.0)


class TestThresholdRule:
    def test_missing_data_never_breaches(self):
        sampler = sampler_with()
        sampler.sample(now=0.0)
        rule = ThresholdRule("r", "queue_depth", ">", 1.0)
        assert rule.breached(sampler) == (False, None)

    def test_breach_reports_the_observed_value(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth").set(42)
        sampler = sampler_with(registry)
        sampler.sample(now=0.0)
        rule = ThresholdRule("r", "queue_depth", ">", 10.0)
        assert rule.breached(sampler) == (True, 42.0)

    def test_rule_name_with_whitespace_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule("bad name", "queue_depth", ">", 1.0)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRule("r", "queue_depth", "=>", 1.0)


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
        """One tick per ratio; each tick adds 100 requests."""
        registry = MetricsRegistry()
        errors = registry.counter("errors_total")
        requests = registry.counter("requests_total")
        sampler = SeriesSampler(registry)
        rule = self.make()
        results = []
        for tick, ratio in enumerate(error_ratios):
            requests.inc(100)
            errors.inc(int(100 * ratio))
            sampler.sample(now=float(tick))
            results.append(rule.breached(sampler))
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
        sampler = sampler_with()
        sampler.sample(now=0.0)
        sampler.sample(now=1.0)
        assert self.make().breached(sampler) == (False, None)

    def test_budget_must_be_a_ratio(self):
        with pytest.raises(ValueError, match="budget"):
            self.make(budget=1.5)

    def test_window_ordering_validated(self):
        with pytest.raises(ValueError, match="short_points"):
            self.make(short_points=8, long_points=4)


class TestDetectorRule:
    def test_drift_mode_fires_on_a_step_change(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("throughput")
        sampler = SeriesSampler(registry, capacity=128)
        rule = DetectorRule(
            "drifted",
            "throughput",
            detector="zshift(recent=8,reference=16,threshold=3.0)",
        )
        breaches = []
        for tick in range(80):
            gauge.set(10.0 if tick < 40 else 30.0)
            sampler.sample(now=float(tick))
            breach, _ = rule.breached(sampler)
            breaches.append(breach)
        assert not any(breaches[:40])
        assert any(breaches[40:])

    def test_score_mode_trains_then_scores(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("throughput")
        sampler = SeriesSampler(registry, capacity=128)
        rule = DetectorRule(
            "scored",
            "throughput",
            detector="streaming_zscore(k=4)",
            threshold=1.0,
            train_ticks=8,
        )
        breaches = []
        for tick in range(30):
            gauge.set(100.0 if tick == 20 else 10.0)
            sampler.sample(now=float(tick))
            breach, _ = rule.breached(sampler)
            breaches.append(breach)
        assert not any(breaches[:20])
        assert any(breaches[20:])

    def test_missing_series_never_breaches_or_trains(self):
        sampler = sampler_with()
        sampler.sample(now=0.0)
        rule = DetectorRule(
            "r", "nope", detector="streaming_zscore(k=4)", threshold=1.0
        )
        assert rule.breached(sampler) == (False, None)
        assert rule._train == []

    def test_train_ticks_validated(self):
        with pytest.raises(ValueError, match="train_ticks"):
            DetectorRule(
                "r", "x", detector="streaming_zscore", threshold=1.0,
                train_ticks=0,
            )


class TestAlertManagerStateMachine:
    def make_manager(self, for_ticks=2, threshold=80.0):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        manager = AlertManager(
            SeriesSampler(registry),
            [ThresholdRule("hot", "queue_depth", ">", threshold,
                           for_ticks=for_ticks)],
        )
        return registry, gauge, manager

    def drive(self, manager, gauge, timeline):
        states, transitions = [], []
        for tick, value in enumerate(timeline):
            gauge.set(value)
            transitions.extend(manager.tick(now=float(tick)))
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
        _, _, manager = self.make_manager()
        with pytest.raises(ValueError, match="duplicate"):
            manager.add_rule(ThresholdRule("hot", "queue_depth", ">", 1.0))

    def test_firing_lists_only_firing_rules(self):
        _, gauge, manager = self.make_manager(for_ticks=1)
        self.drive(manager, gauge, [95])
        assert [s.rule.name for s in manager.firing()] == ["hot"]


class TestAlertViews:
    def make_firing_manager(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        manager = AlertManager(
            SeriesSampler(registry),
            [
                ThresholdRule("hot", "queue_depth", ">", 80.0),
                ThresholdRule("cold", "queue_depth", "<", 0.0),
            ],
        )
        gauge.set(95)
        manager.tick(now=0.0)
        return manager

    def test_to_json_schema_and_summary(self):
        payload = self.make_firing_manager().to_json()
        assert payload["schema"] == "repro-alerts/1"
        assert [row["rule"] for row in payload["alerts"]] == ["cold", "hot"]
        assert payload["summary"] == {"ok": 1, "pending": 0, "firing": 1}
        hot = payload["alerts"][1]
        assert hot["state"] == FIRING
        assert hot["value"] == 95.0
        assert "queue_depth > 80" in hot["condition"]

    def test_prometheus_exposition_lists_non_ok_only(self):
        text = self.make_firing_manager().render_prometheus()
        assert "# TYPE ALERTS gauge" in text
        assert 'ALERTS{alertname="hot",alertstate="firing"} 1' in text
        assert "cold" not in text
