"""Declarative alerting over sampled metrics — the detector watches itself.

The paper's discipline is that claims need grounded measurement; this
module applies it to the system's own runtime.  Rules evaluate against
a :class:`~repro.obs.series.SeriesSampler` window and drive a small,
fully-inspectable state machine per rule::

    ok --breach--> pending --breach x for--> firing --recover--> ok

Three rule families cover the alerting idioms that matter here:

* :class:`ThresholdRule` — a static bound on a selector
  (``max(serve_queue_depth) > 819 for 2``), the workhorse.
* :class:`BurnRateRule` — the SLO burn-rate pattern: the error ratio
  (rejected / attempted, from two counters) must exceed the budget
  factor over a **short** and a **long** window simultaneously — fast
  burn pages quickly, slow burn still pages, a transient blip does
  not.
* :class:`DetectorRule` — dogfooding: the selector's sampled value is
  routed through the repository's *own* drift detectors
  (:func:`repro.drift.make_drift_detector`) or a streaming scorer
  (:func:`repro.stream.adapters.as_streaming`), so "this metric's
  distribution changed" is answered by the same machinery the paper
  evaluates.

Selectors share one grammar (see :class:`Selector`): a metric name,
optional ``{label=value}`` filters, an optional aggregator across the
matching labeled series (``max``/``min``/``sum``/``avg``) and an
optional field (``.p99`` etc. for histogram digests, ``.rate`` for
counters).  Alert state is itself observable: every transition counts
into the registry (``obs_alert_transitions_total{rule=,to=}``) and the
current state is a gauge, so the alerting layer never becomes a blind
spot of the metrics it guards.

Everything is deterministic given the sample/evaluation schedule —
wall clock enters only when the caller omits timestamps.
"""

from __future__ import annotations

import re
import threading

from .registry import MetricsRegistry
from .series import SeriesSampler

__all__ = [
    "Selector",
    "AlertRule",
    "ThresholdRule",
    "BurnRateRule",
    "DetectorRule",
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

_AGGREGATORS = {
    "max": max,
    "min": min,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
}

_HISTOGRAM_FIELDS = ("count", "p50", "p95", "p99", "min", "max")
_SELECTOR_RE = re.compile(
    r"^(?:(?P<agg>max|min|sum|avg)\((?P<inner>.+)\)|(?P<bare>[^()]+))$"
)


def _parse_labels(text: str) -> "dict[str, str]":
    labels: dict[str, str] = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ValueError(f"bad label filter {pair!r}; expected k=v")
        key, value = pair.split("=", 1)
        labels[key.strip()] = value.strip()
    return labels


def _split_key(key: str) -> "tuple[str, dict[str, str]]":
    """A sampler key — ``name`` or ``name{k=v,...}`` — into its parts."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    return name, _parse_labels(rest.rstrip("}"))


class Selector:
    """One parsed metric selector.

    Grammar::

        selector  = [agg "("] name [labels] ["." field] [")"]
        agg       = "max" | "min" | "sum" | "avg"
        labels    = "{" k "=" v ("," k "=" v)* "}"
        field     = "rate" | "count" | "p50" | "p95" | "p99"
                  | "min" | "max"

    A bare selector must match exactly one labeled series at resolve
    time; an aggregated one folds every matching series (label filters
    are subset matches).  ``.rate`` applies to counters (per-second
    over the window endpoints), the digest fields to histograms;
    counters and gauges with no field resolve to their latest value.
    """

    __slots__ = ("text", "aggregator", "name", "labels", "field")

    def __init__(
        self,
        text: str,
        aggregator: str | None,
        name: str,
        labels: "dict[str, str]",
        field: str | None,
    ) -> None:
        self.text = text
        self.aggregator = aggregator
        self.name = name
        self.labels = labels
        self.field = field

    @classmethod
    def parse(cls, text: str) -> "Selector":
        stripped = text.strip()
        match = _SELECTOR_RE.match(stripped)
        if match is None:
            raise ValueError(f"cannot parse selector {text!r}")
        aggregator = match.group("agg")
        inner = (match.group("inner") or match.group("bare")).strip()
        labels: dict[str, str] = {}
        if "{" in inner:
            name, _, rest = inner.partition("{")
            body, closed, suffix = rest.partition("}")
            if not closed:
                raise ValueError(f"unclosed label block in {text!r}")
            labels = _parse_labels(body)
            inner = name + suffix
        field = None
        if "." in inner:
            inner, _, field = inner.rpartition(".")
            valid = _HISTOGRAM_FIELDS + ("rate",)
            if field not in valid:
                raise ValueError(
                    f"unknown selector field {field!r}; expected one of "
                    f"{sorted(valid)}"
                )
        name = inner.strip()
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(f"bad metric name {name!r} in selector {text!r}")
        return cls(stripped, aggregator, name, labels, field)

    def _matches(self, key: str) -> bool:
        name, labels = _split_key(key)
        if name != self.name:
            return False
        return all(labels.get(k) == v for k, v in self.labels.items())

    def _series_value(
        self, sampler: SeriesSampler, key: str, *, points: int
    ) -> float | None:
        kind = sampler.kind(key)
        latest = sampler.latest(key)
        if latest is None:
            return None
        if kind == "histogram":
            if self.field is None or self.field == "rate":
                raise ValueError(
                    f"selector {self.text!r}: histogram series {key!r} "
                    f"needs a digest field ({', '.join(_HISTOGRAM_FIELDS)})"
                )
            value = latest.value.get(self.field)
            return None if value is None else float(value)
        if self.field == "rate":
            if kind != "counter":
                raise ValueError(
                    f"selector {self.text!r}: .rate applies to counters, "
                    f"{key!r} is a {kind}"
                )
            return sampler.rate(key, points=points)
        if self.field is not None:
            raise ValueError(
                f"selector {self.text!r}: field {self.field!r} does not "
                f"apply to {kind} series {key!r}"
            )
        return float(latest.value)

    def resolve(
        self, sampler: SeriesSampler, *, points: int = 2
    ) -> float | None:
        """The selector's current value — ``None`` means no data yet."""
        keys = [key for key in sampler.keys() if self._matches(key)]
        if not keys:
            return None
        if self.aggregator is None and len(keys) > 1:
            raise ValueError(
                f"selector {self.text!r} matches {len(keys)} series "
                f"({keys[:3]}...); add labels or an aggregator"
            )
        values = [
            value
            for key in keys
            if (value := self._series_value(sampler, key, points=points))
            is not None
        ]
        if not values:
            return None
        if self.aggregator is None:
            return values[0]
        return float(_AGGREGATORS[self.aggregator](values))


_OPERATORS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


class AlertRule:
    """Base rule: a name, a for-duration, and a breach predicate."""

    def __init__(self, name: str, *, for_ticks: int = 1) -> None:
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"bad rule name {name!r}")
        if for_ticks < 1:
            raise ValueError(f"for_ticks must be >= 1, got {for_ticks}")
        self.name = name
        self.for_ticks = for_ticks

    def breached(self, sampler: SeriesSampler) -> "tuple[bool, float | None]":
        """``(is the condition met now, the observed value)``."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class ThresholdRule(AlertRule):
    """``selector OP threshold``, debounced over ``for_ticks``."""

    def __init__(
        self,
        name: str,
        selector: "str | Selector",
        op: str,
        threshold: float,
        *,
        for_ticks: int = 1,
        points: int = 2,
    ) -> None:
        super().__init__(name, for_ticks=for_ticks)
        if op not in _OPERATORS:
            raise ValueError(
                f"unknown operator {op!r}; expected {sorted(_OPERATORS)}"
            )
        if points < 2:
            raise ValueError(f"points must be >= 2, got {points}")
        self.selector = (
            selector if isinstance(selector, Selector) else Selector.parse(selector)
        )
        self.op = op
        self.threshold = float(threshold)
        self.points = points

    def breached(self, sampler: SeriesSampler) -> "tuple[bool, float | None]":
        value = self.selector.resolve(sampler, points=self.points)
        if value is None:
            return False, None
        return _OPERATORS[self.op](value, self.threshold), value

    def describe(self) -> str:
        suffix = f" for {self.for_ticks}" if self.for_ticks > 1 else ""
        return f"{self.selector.text} {self.op} {self.threshold:g}{suffix}"


class BurnRateRule(AlertRule):
    """Multiwindow SLO burn rate over an error/attempt counter pair.

    ``errors`` and ``total`` are counter selectors; the rule computes
    the error *ratio* (Δerrors / Δtotal) over the newest
    ``short_points`` samples and the newest ``long_points`` samples,
    and breaches only when **both** exceed ``budget * factor`` — the
    standard fast-burn/slow-burn page condition, immune to a single
    bad tick.
    """

    def __init__(
        self,
        name: str,
        *,
        errors: "str | Selector",
        total: "str | Selector",
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
        self.errors = (
            errors if isinstance(errors, Selector) else Selector.parse(errors)
        )
        self.total = (
            total if isinstance(total, Selector) else Selector.parse(total)
        )
        self.budget = float(budget)
        self.factor = float(factor)
        self.short_points = short_points
        self.long_points = long_points

    def _ratio(self, sampler: SeriesSampler, points: int) -> float | None:
        def delta(selector: Selector) -> float | None:
            keys = [k for k in sampler.keys() if selector._matches(k)]
            if not keys:
                return None
            total = 0.0
            seen = False
            for key in keys:
                window = sampler.window(key, points=points)
                if len(window) < 2:
                    continue
                seen = True
                total += float(window[-1].value) - float(window[0].value)
            return total if seen else None

        errors = delta(self.errors)
        attempts = delta(self.total)
        if errors is None or attempts is None or attempts <= 0:
            return None
        return errors / attempts

    def breached(self, sampler: SeriesSampler) -> "tuple[bool, float | None]":
        short = self._ratio(sampler, self.short_points)
        long = self._ratio(sampler, self.long_points)
        if short is None or long is None:
            return False, short
        limit = self.budget * self.factor
        return (short > limit and long > limit), short

    def describe(self) -> str:
        return (
            f"burn({self.errors.text}/{self.total.text}) > "
            f"{self.budget:g}*{self.factor:g} over "
            f"{self.short_points}&{self.long_points} samples"
        )


class DetectorRule(AlertRule):
    """Route a selector through the repo's own detection machinery.

    Two modes, chosen by ``threshold``:

    * ``threshold=None`` (drift mode) — ``detector`` is a drift
      detector spec (``"page_hinkley"``, ``"zshift(recent=32)"``, ...);
      each evaluation pushes the selector's current value and breaches
      on a drift flag.
    * ``threshold=x`` (score mode) — ``detector`` is a streaming
      detector spec for :func:`~repro.stream.adapters.as_streaming`;
      the first ``train_ticks`` sampled values fit it, after which
      each evaluation scores the next value and breaches when the
      score exceeds ``x`` (unscorable ``-inf`` never breaches).
    """

    def __init__(
        self,
        name: str,
        selector: "str | Selector",
        *,
        detector: str,
        threshold: float | None = None,
        train_ticks: int = 8,
        for_ticks: int = 1,
    ) -> None:
        super().__init__(name, for_ticks=for_ticks)
        self.selector = (
            selector if isinstance(selector, Selector) else Selector.parse(selector)
        )
        self.detector_spec = detector
        self.threshold = None if threshold is None else float(threshold)
        if train_ticks < 1:
            raise ValueError(f"train_ticks must be >= 1, got {train_ticks}")
        self.train_ticks = train_ticks
        if self.threshold is None:
            from ..drift import make_drift_detector

            self._drift = make_drift_detector(detector)
            self._scorer = None
        else:
            from ..stream.adapters import as_streaming

            self._drift = None
            self._scorer = as_streaming(detector)
        self._train: "list[float]" = []
        self._fitted = False

    def breached(self, sampler: SeriesSampler) -> "tuple[bool, float | None]":
        value = self.selector.resolve(sampler)
        if value is None:
            return False, None
        if self._drift is not None:
            return bool(self._drift.push(float(value))), value
        if not self._fitted:
            self._train.append(float(value))
            if len(self._train) >= self.train_ticks:
                import numpy as np

                self._scorer.fit(np.asarray(self._train, dtype=float))
                self._fitted = True
            return False, value
        import numpy as np

        score = float(
            np.asarray(self._scorer.update([float(value)]), dtype=float)[-1]
        )
        if score == float("-inf"):
            return False, value
        return score > self.threshold, value

    def describe(self) -> str:
        if self.threshold is None:
            return f"drift({self.detector_spec}) on {self.selector.text}"
        return (
            f"score({self.detector_spec}) on {self.selector.text} > "
            f"{self.threshold:g} after {self.train_ticks} train samples"
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
    """Evaluate rules against a sampler; expose and count the states.

    ``evaluate`` is the deterministic core — it consumes whatever the
    sampler currently holds and advances each rule's state machine by
    exactly one step.  ``tick`` is the convenience wrapper that samples
    first (what the serve background thread calls).
    """

    def __init__(
        self,
        sampler: SeriesSampler,
        rules: "list[AlertRule] | tuple[AlertRule, ...]" = (),
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.sampler = sampler
        self.registry = registry if registry is not None else sampler.registry
        self._lock = threading.Lock()
        self._statuses: "dict[str, AlertStatus]" = {}
        self.registry.describe(
            "obs_alert_state",
            "Current alert state per rule (0 ok, 1 pending, 2 firing).",
        )
        self.registry.describe(
            "obs_alert_transitions_total",
            "Alert state transitions, labeled by rule and target state.",
        )
        self.registry.describe(
            "obs_alert_evaluations_total",
            "Alert rule evaluation passes completed.",
        )
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: AlertRule) -> AlertRule:
        with self._lock:
            if rule.name in self._statuses:
                raise ValueError(f"duplicate rule name {rule.name!r}")
            self._statuses[rule.name] = AlertStatus(rule)
        self.registry.gauge("obs_alert_state", rule=rule.name).set(
            _STATE_VALUE[OK]
        )
        return rule

    @property
    def rules(self) -> "list[AlertRule]":
        with self._lock:
            return [status.rule for status in self._statuses.values()]

    # -- evaluation ---------------------------------------------------

    def evaluate(self, *, now: float | None = None) -> "list[dict]":
        """One evaluation pass; returns the transitions it caused.

        ``now`` stamps ``since`` on new pending/firing states; wall
        clock is consulted only when the caller omits it, keeping the
        state machine deterministic under a synthetic schedule.
        """
        import time as _time

        at = _time.time() if now is None else float(now)
        transitions: "list[dict]" = []
        with self._lock:
            statuses = list(self._statuses.values())
        for status in statuses:
            breach, value = status.rule.breached(self.sampler)
            with self._lock:
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
                changed = status.state != previous
                state = status.state
            if changed:
                transitions.append(
                    {
                        "rule": status.rule.name,
                        "from": previous,
                        "to": state,
                        "at": at,
                        "value": value,
                    }
                )
                self.registry.counter(
                    "obs_alert_transitions_total",
                    rule=status.rule.name,
                    to=state,
                ).inc()
            self.registry.gauge(
                "obs_alert_state", rule=status.rule.name
            ).set(_STATE_VALUE[state])
        self.registry.counter("obs_alert_evaluations_total").inc()
        return transitions

    def tick(self, *, now: float | None = None) -> "list[dict]":
        """Sample the registry, then evaluate — one watch heartbeat."""
        at = self.sampler.sample(now=now)
        return self.evaluate(now=at)

    # -- read path ----------------------------------------------------

    def statuses(self) -> "list[AlertStatus]":
        with self._lock:
            return list(self._statuses.values())

    def firing(self) -> "list[AlertStatus]":
        return [s for s in self.statuses() if s.state == FIRING]

    def to_json(self) -> dict:
        rows = [status.to_json() for status in self.statuses()]
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
        lines = ["# TYPE ALERTS gauge"]
        for status in sorted(self.statuses(), key=lambda s: s.rule.name):
            if status.state == OK:
                continue
            lines.append(
                f'ALERTS{{alertname="{status.rule.name}",'
                f'alertstate="{status.state}"}} 1'
            )
        return "\n".join(lines) + "\n"
