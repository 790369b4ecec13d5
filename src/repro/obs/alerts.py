"""Alert rules over the live metrics registry — the detector watches itself.

The paper's discipline is that claims need grounded measurement; this
module applies it to the system's own runtime.  Each evaluation reads
the current values of a :class:`~repro.obs.registry.MetricsRegistry`
and drives a small, fully-inspectable state machine per rule::

    ok --breach--> pending --breach x for--> firing --recover--> ok

Two rule kinds cover the alerts the service needs:

* :class:`ThresholdRule` — the largest current value of one metric
  family above a bound (``max(serve_queue_depth) > 819.2 for 2``), or
  the smallest below it (``min(serve_worker_up) < 1``).
* :class:`BurnRateRule` — the SLO burn-rate pattern: the error ratio
  (rejected / attempted, from two counter families) must exceed the
  budget factor over a **short** and a **long** window of evaluations
  simultaneously — fast burn pages quickly, slow burn still pages, a
  transient blip does not.

Alert state is itself observable: every transition counts into the
registry (``obs_alert_transitions_total{rule=,to=}``) and the current
state is a gauge, so the alerting layer never becomes a blind spot of
the metrics it guards.

Everything is deterministic given the evaluation schedule — wall clock
enters only as the ``since`` stamp when the caller omits ``now``.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .registry import MetricsRegistry

__all__ = [
    "AlertRule",
    "ThresholdRule",
    "BurnRateRule",
    "AlertStatus",
    "AlertManager",
    "OK",
    "PENDING",
    "FIRING",
]

OK = "ok"
PENDING = "pending"
FIRING = "firing"

_STATE_VALUE = {OK: 0, PENDING: 1, FIRING: 2}


class AlertRule:
    """Base rule: a name, a for-duration, and a breach predicate."""

    def __init__(self, name: str, *, for_ticks: int = 1) -> None:
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"bad rule name {name!r}")
        if for_ticks < 1:
            raise ValueError(f"for_ticks must be >= 1, got {for_ticks}")
        self.name = name
        self.for_ticks = for_ticks

    def breached(
        self, registry: MetricsRegistry
    ) -> "tuple[bool, float | None]":
        """``(is the condition met now, the observed value)``."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class ThresholdRule(AlertRule):
    """The largest value of one metric family above ``threshold``.

    Each series of ``metric`` contributes its current value, or its
    ``quantile`` over the reservoir for a histogram family.  With
    ``below=True`` the rule breaches when the smallest value falls
    below the bound instead.  A family with no data never breaches —
    absent data is not an incident.
    """

    def __init__(
        self,
        name: str,
        metric: str,
        threshold: float,
        *,
        quantile: float | None = None,
        below: bool = False,
        for_ticks: int = 1,
    ) -> None:
        super().__init__(name, for_ticks=for_ticks)
        self.metric = metric
        self.threshold = float(threshold)
        self.quantile = quantile
        self.below = below

    def breached(
        self, registry: MetricsRegistry
    ) -> "tuple[bool, float | None]":
        family = registry.family(self.metric).values()
        if self.quantile is None:
            values = [float(series.value) for series in family]
        else:
            values = [
                value
                for series in family
                if (value := series.quantile(self.quantile)) is not None
            ]
        if not values:
            return False, None
        if self.below:
            value = min(values)
            return value < self.threshold, value
        value = max(values)
        return value > self.threshold, value

    def describe(self) -> str:
        field = "" if self.quantile is None else f".p{100 * self.quantile:g}"
        aggregate, op = ("min", "<") if self.below else ("max", ">")
        suffix = f" for {self.for_ticks}" if self.for_ticks > 1 else ""
        return (
            f"{aggregate}({self.metric}{field}) {op} "
            f"{self.threshold:g}{suffix}"
        )


def _family_sum(registry: MetricsRegistry, name: str) -> int:
    return sum(series.value for series in registry.family(name).values())


class BurnRateRule(AlertRule):
    """Multiwindow SLO burn rate over an error/attempt counter pair.

    Each evaluation appends one ``(Σerrors, Σtotal)`` reading, summed
    over every series of the two counter families, to a ring of the
    newest ``long_points`` readings.  The error *ratio* (Δerrors /
    Δtotal) over the newest ``short_points`` readings and over all of
    them must **both** exceed ``budget * factor`` — the standard
    fast-burn/slow-burn page condition, immune to a single bad tick.
    A series created between two readings counts from zero, which is
    exact: counters start at 0.
    """

    def __init__(
        self,
        name: str,
        *,
        errors: str,
        total: str,
        budget: float,
        factor: float = 2.0,
        short_points: int = 3,
        long_points: int = 12,
        for_ticks: int = 1,
    ) -> None:
        super().__init__(name, for_ticks=for_ticks)
        if not 0 < budget < 1:
            raise ValueError(f"budget must be in (0, 1), got {budget}")
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        if not 2 <= short_points <= long_points:
            raise ValueError(
                f"need 2 <= short_points <= long_points, got "
                f"{short_points}/{long_points}"
            )
        self.errors = errors
        self.total = total
        self.budget = float(budget)
        self.factor = float(factor)
        self.short_points = short_points
        self.long_points = long_points
        self._readings: "deque[tuple[int, int]]" = deque(maxlen=long_points)

    def _ratio(self, points: int) -> float | None:
        if len(self._readings) < 2:
            return None
        errors, attempts = self._readings[-min(points, len(self._readings))]
        last_errors, last_attempts = self._readings[-1]
        if last_attempts - attempts <= 0:
            return None
        return (last_errors - errors) / (last_attempts - attempts)

    def breached(
        self, registry: MetricsRegistry
    ) -> "tuple[bool, float | None]":
        errors = _family_sum(registry, self.errors)
        self._readings.append((errors, _family_sum(registry, self.total)))
        short = self._ratio(self.short_points)
        long = self._ratio(self.long_points)
        if short is None or long is None:
            return False, short
        limit = self.budget * self.factor
        return (short > limit and long > limit), short

    def describe(self) -> str:
        return (
            f"burn({self.errors}/{self.total}) > "
            f"{self.budget:g}*{self.factor:g} over "
            f"{self.short_points}&{self.long_points} samples"
        )


class AlertStatus:
    """One rule's live state (mutated only under the manager's lock)."""

    __slots__ = ("rule", "state", "streak", "since", "value")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule
        self.state = OK
        self.streak = 0
        self.since: float | None = None
        self.value: float | None = None

    def to_json(self) -> dict:
        return {
            "rule": self.rule.name,
            "condition": self.rule.describe(),
            "state": self.state,
            "for_ticks": self.rule.for_ticks,
            "streak": self.streak,
            "since": self.since,
            "value": self.value,
        }


class AlertManager:
    """Evaluate a fixed rule set against one registry; expose the states.

    ``evaluate`` advances each rule's state machine by exactly one step
    from the registry's current values and counts what it did into the
    same registry.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: "list[AlertRule] | tuple[AlertRule, ...]",
    ) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        self._statuses: "dict[str, AlertStatus]" = {}
        registry.describe(
            "obs_alert_state",
            "Current alert state per rule (0 ok, 1 pending, 2 firing).",
        )
        registry.describe(
            "obs_alert_transitions_total",
            "Alert state transitions, labeled by rule and target state.",
        )
        registry.describe(
            "obs_alert_evaluations_total",
            "Alert rule evaluation passes completed.",
        )
        for rule in rules:
            if rule.name in self._statuses:
                raise ValueError(f"duplicate rule name {rule.name!r}")
            self._statuses[rule.name] = AlertStatus(rule)
            registry.gauge("obs_alert_state", rule=rule.name).set(
                _STATE_VALUE[OK]
            )

    def evaluate(self, *, now: float | None = None) -> "list[dict]":
        """One evaluation pass; returns the transitions it caused.

        ``now`` stamps ``since`` on new pending/firing states; wall
        clock is consulted only when the caller omits it, keeping the
        state machine deterministic under a synthetic schedule.
        """
        at = time.time() if now is None else float(now)
        transitions: "list[dict]" = []
        with self._lock:
            for status in self._statuses.values():
                breach, value = status.rule.breached(self.registry)
                status.value = value
                previous = status.state
                if breach:
                    status.streak += 1
                    if status.since is None:
                        status.since = at
                    status.state = (
                        FIRING
                        if status.streak >= status.rule.for_ticks
                        else PENDING
                    )
                else:
                    status.streak = 0
                    status.since = None
                    status.state = OK
                if status.state != previous:
                    transitions.append(
                        {
                            "rule": status.rule.name,
                            "from": previous,
                            "to": status.state,
                            "at": at,
                            "value": value,
                        }
                    )
                    self.registry.counter(
                        "obs_alert_transitions_total",
                        rule=status.rule.name,
                        to=status.state,
                    ).inc()
                self.registry.gauge(
                    "obs_alert_state", rule=status.rule.name
                ).set(_STATE_VALUE[status.state])
            self.registry.counter("obs_alert_evaluations_total").inc()
        return transitions

    # -- read path ----------------------------------------------------

    def statuses(self) -> "list[AlertStatus]":
        return list(self._statuses.values())

    def firing(self) -> "list[AlertStatus]":
        return [s for s in self.statuses() if s.state == FIRING]

    def to_json(self) -> dict:
        with self._lock:
            rows = [status.to_json() for status in self._statuses.values()]
        counts = {state: 0 for state in (OK, PENDING, FIRING)}
        for row in rows:
            counts[row["state"]] += 1
        return {
            "schema": "repro-alerts/1",
            "alerts": sorted(rows, key=lambda row: row["rule"]),
            "summary": counts,
        }

    def render_prometheus(self) -> str:
        """Prometheus ``ALERTS``-style exposition of non-ok states."""
        with self._lock:
            states = {
                name: status.state for name, status in self._statuses.items()
            }
        lines = ["# TYPE ALERTS gauge"]
        for name, state in sorted(states.items()):
            if state != OK:
                lines.append(
                    f'ALERTS{{alertname="{name}",alertstate="{state}"}} 1'
                )
        return "\n".join(lines) + "\n"
