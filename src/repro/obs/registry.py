"""Process-wide metrics: counters, gauges, bounded-reservoir histograms.

Every subsystem that wants a number observable at runtime — the kernel's
workspace bytes, the engine's cache hit rate, the replay loop's
per-append latency, the serve tier's backpressure — records it here
instead of growing another bespoke counter class.  The design contract:

* **stdlib only, locks only.**  The write path is a dict lookup plus an
  integer add (or a deque append for histograms); nothing on it imports
  numpy or allocates per call after the first.
* **labels are part of the identity.**  ``registry.counter("x", k="v")``
  and ``registry.counter("x", k="w")`` are two series of the same
  metric, exactly the Prometheus model, so one registry can hold
  per-tenant, per-shard and global series side by side.
* **quantiles are exact over a bounded window.**  Histograms keep the
  newest ``reservoir`` samples in a deque and compute p50/p95/p99 at
  read time by sorting — a sliding window, not a decaying sketch, which
  keeps the numbers inspectable at the cost of only remembering the
  recent past.
* **two expositions, one truth.**  :meth:`MetricsRegistry.snapshot` and
  :meth:`MetricsRegistry.render_prometheus` both read the same live
  objects, so a JSON view and the Prometheus text page can never
  disagree.

The module-level :func:`get_registry` is the process-wide default the
instrumentation layers write to; :func:`push_registry` installs a fresh
one for a scoped session (``repro run --trace`` uses it so the metrics
appended to a trace cover exactly that run).
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile",
    "get_registry",
    "push_registry",
    "pop_registry",
]


def quantile(samples: "list[float]", q: float) -> float | None:
    """Linear-interpolation quantile of ``samples`` (``q`` in [0, 1]).

    Matches numpy's default ``linear`` method, computed in pure Python
    so the hot path never imports numpy.  Well-defined on the small-end
    edge cases a live service actually hits: an empty sample set yields
    ``None`` (absence of data is not zero latency) and a single sample
    is every quantile of itself.  A ``q`` outside [0, 1] raises — even
    on an empty set, so a bad call site cannot hide behind quiet data.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not samples:
        return None
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A number that can go anywhere (last write wins)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Bounded reservoir of observations with exact window quantiles.

    ``count`` is the lifetime observation count; the reservoir holds
    only the newest ``reservoir`` samples, from which p50/p95/p99 are
    computed at read time.  ``min``/``max`` are exact **lifetime**
    extremes — tracked on the write path, not recovered from the
    reservoir, so an early outlier stays visible after it ages out of
    the sample window.
    """

    __slots__ = ("_lock", "_count", "_samples", "_min", "_max")

    QUANTILES = ((0.50, "p50"), (0.95, "p95"), (0.99, "p99"))

    def __init__(self, *, reservoir: int = 4096) -> None:
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self._lock = threading.Lock()
        self._count = 0
        self._samples: deque[float] = deque(maxlen=reservoir)
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._samples.append(value)
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def minimum(self) -> float | None:
        """Exact lifetime minimum (``None`` before any observation)."""
        with self._lock:
            return self._min

    @property
    def maximum(self) -> float | None:
        """Exact lifetime maximum (``None`` before any observation)."""
        with self._lock:
            return self._max

    def samples(self) -> "list[float]":
        """The retained samples, oldest first."""
        with self._lock:
            return list(self._samples)

    def quantile(self, q: float) -> float | None:
        return quantile(self.samples(), q)

    def merge(
        self,
        samples,
        count: int,
        *,
        minimum: float | None,
        maximum: float | None,
    ) -> None:
        """Fold another histogram's export in.

        ``count`` is the source's lifetime count and ``minimum``/
        ``maximum`` its exact lifetime extremes (``None`` when it saw
        nothing), as :meth:`MetricsRegistry.export_state` ships them.
        """
        samples = [float(v) for v in samples]
        extra = int(count)
        if extra < len(samples):
            raise ValueError(
                f"lifetime count {extra} below sample count {len(samples)}"
            )
        with self._lock:
            self._count += extra
            self._samples.extend(samples)
            if minimum is not None and (
                self._min is None or minimum < self._min
            ):
                self._min = float(minimum)
            if maximum is not None and (
                self._max is None or maximum > self._max
            ):
                self._max = float(maximum)

    def digest(self) -> dict:
        """``{"count", "p50", "p95", "p99", "min", "max"}``.

        Quantiles and extremes are ``None`` when no observation has
        been recorded; quantiles cover the reservoir window while
        ``min``/``max`` are exact over the lifetime.
        """
        with self._lock:
            count = self._count
            samples = list(self._samples)
            minimum = self._min
            maximum = self._max
        out: dict = {"count": count}
        for q, key in self.QUANTILES:
            out[key] = quantile(samples, q)
        out["min"] = minimum
        out["max"] = maximum
        return out


def _series_key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(
            f"metric names are [A-Za-z0-9_]+ (Prometheus-safe), got {name!r}"
        )
    return name


class MetricsRegistry:
    """Named, labeled metric series behind get-or-create accessors.

    A series' kind is fixed by its first registration: asking for
    ``counter("x")`` after ``gauge("x", ...)`` exists under the same
    name+labels raises, which catches instrumentation typos early.
    """

    def __init__(self, *, reservoir: int = 4096) -> None:
        self._reservoir = reservoir
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}
        self._help: dict[str, str] = {}

    def describe(self, name: str, text: str) -> None:
        """Register the human description emitted as ``# HELP``.

        Descriptions attach to the metric *name* (all labeled series of
        it share one), matching the Prometheus model.  Re-describing
        with different text raises — two subsystems disagreeing about
        what a metric means is a bug worth surfacing.
        """
        name = _validate_name(name)
        text = str(text).strip()
        if not text:
            raise ValueError(f"empty help text for metric {name!r}")
        with self._lock:
            existing = self._help.get(name)
            if existing is not None and existing != text:
                raise ValueError(
                    f"metric {name!r} already described as {existing!r}"
                )
            self._help[name] = text

    def description(self, name: str) -> str | None:
        with self._lock:
            return self._help.get(name)

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = _series_key(_validate_name(name), labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = cls(**kwargs)
                self._series[key] = series
            elif not isinstance(series, cls):
                raise ValueError(
                    f"metric {name!r} {dict(labels) or ''} already registered "
                    f"as {type(series).__name__}, not {cls.__name__}"
                )
            return series

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, *, reservoir: int | None = None, **labels
    ) -> Histogram:
        return self._get(
            Histogram,
            name,
            labels,
            reservoir=self._reservoir if reservoir is None else reservoir,
        )

    # -- read path ----------------------------------------------------

    def _sorted_series(self) -> "list[tuple[tuple, object]]":
        with self._lock:
            return sorted(self._series.items(), key=lambda item: item[0])

    def family(self, name: str) -> dict:
        """Every series of metric ``name``, keyed by its sorted label pairs."""
        with self._lock:
            return {
                labels: series
                for (series_name, labels), series in self._series.items()
                if series_name == name
            }

    def snapshot(self, *, histogram_values: bool = True) -> dict:
        """Deterministic-order mapping of every series.

        ``{"counters": ..., "gauges": ..., "histograms": ...}`` keyed by
        ``name`` or ``name{k=v,...}``.  With ``histogram_values=False``
        histograms report only their lifetime counts — the shape trace
        files embed, where quantiles would smuggle wall-clock back into
        a canonical artifact.
        """
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for (name, labels), series in self._sorted_series():
            key = name
            if labels:
                inner = ",".join(f"{k}={v}" for k, v in labels)
                key = f"{name}{{{inner}}}"
            if isinstance(series, Counter):
                counters[key] = series.value
            elif isinstance(series, Gauge):
                gauges[key] = series.value
            elif isinstance(series, Histogram):
                histograms[key] = (
                    series.digest()
                    if histogram_values
                    else {"count": series.count}
                )
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    # -- cross-process transfer ---------------------------------------

    def export_state(self) -> "list[list]":
        """Picklable series list for :meth:`merge_state`.

        ProcessPool workers record into their own registry and ship this
        back with their result; the parent merges, so counters observed
        in workers land on the session registry identically whether the
        engine ran serial or parallel.
        """
        state: list[list] = []
        for (name, labels), series in self._sorted_series():
            pairs = [list(pair) for pair in labels]
            if isinstance(series, Counter):
                state.append([name, pairs, "counter", series.value])
            elif isinstance(series, Gauge):
                state.append([name, pairs, "gauge", series.value])
            elif isinstance(series, Histogram):
                state.append(
                    [
                        name,
                        pairs,
                        "histogram",
                        series.samples(),
                        series.count,
                        series.minimum,
                        series.maximum,
                    ]
                )
        return state

    def merge_state(self, state: "list[list]") -> None:
        """Fold an :meth:`export_state` payload into this registry.

        Counters add, histograms extend, gauges take the incoming value
        (last write wins — callers merge in deterministic task order).
        """
        for entry in state:
            name, pairs, kind = entry[0], dict(entry[1]), entry[2]
            if kind == "counter":
                self.counter(name, **pairs).inc(entry[3])
            elif kind == "gauge":
                self.gauge(name, **pairs).set(entry[3])
            elif kind == "histogram":
                samples, count, minimum, maximum = entry[3:]
                self.histogram(name, **pairs).merge(
                    samples, count, minimum=minimum, maximum=maximum
                )
            else:
                raise ValueError(f"unknown series kind {kind!r}")

    def render_prometheus(self) -> str:
        """The text exposition format (version 0.0.4).

        Counters render as ``name value``, gauges likewise, histograms
        as quantile series plus ``name_count`` and the exact lifetime
        ``name_min``/``name_max`` gauges — all from the same live
        objects :meth:`snapshot` reads, so the two views cannot diverge.
        Metrics registered through :meth:`describe` get a ``# HELP``
        line right above their ``# TYPE``.
        """
        lines: list[str] = []
        types_emitted: set[str] = set()
        with self._lock:
            help_texts = dict(self._help)

        def type_line(name: str, kind: str) -> None:
            if name not in types_emitted:
                types_emitted.add(name)
                text = help_texts.get(name)
                if text is not None:
                    lines.append(f"# HELP {name} {_prom_escape_help(text)}")
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), series in self._sorted_series():
            rendered = _prom_labels(labels)
            if isinstance(series, Counter):
                type_line(name, "counter")
                lines.append(f"{name}{rendered} {series.value}")
            elif isinstance(series, Gauge):
                type_line(name, "gauge")
                lines.append(f"{name}{rendered} {_prom_float(series.value)}")
            elif isinstance(series, Histogram):
                type_line(name, "summary")
                digest = series.digest()
                for q, key in Histogram.QUANTILES:
                    value = digest[key]
                    if value is None:
                        continue
                    quantile_labels = _prom_labels(
                        labels, extra=("quantile", f"{q}")
                    )
                    lines.append(
                        f"{name}{quantile_labels} {_prom_float(value)}"
                    )
                lines.append(f"{name}_count{rendered} {digest['count']}")
                for suffix, value in (
                    ("min", digest["min"]),
                    ("max", digest["max"]),
                ):
                    if value is None:
                        continue
                    type_line(f"{name}_{suffix}", "gauge")
                    lines.append(
                        f"{name}_{suffix}{rendered} {_prom_float(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_float(value: float) -> str:
    # integral floats render bare (Prometheus parses either; bare keeps
    # counters-as-gauges readable), everything else via repr round-trip
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prom_escape_help(text: str) -> str:
    # HELP lines escape only backslash and newline (label values also
    # escape double quotes; help text does not, per exposition 0.0.4)
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_escape(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: tuple, extra: "tuple[str, str] | None" = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in pairs)
    return f"{{{inner}}}"


# -- the process-wide default registry --------------------------------

_registry_lock = threading.Lock()
_registry_stack: "list[MetricsRegistry]" = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The registry instrumented code writes to (top of the stack)."""
    return _registry_stack[-1]


def push_registry(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) a fresh default registry.

    Scoped sessions — a ``--trace`` run, a test — push before and pop
    after, so their metrics cover exactly the work in between.
    """
    if registry is None:
        registry = MetricsRegistry()
    with _registry_lock:
        _registry_stack.append(registry)
    return registry


def pop_registry() -> MetricsRegistry:
    with _registry_lock:
        if len(_registry_stack) == 1:
            raise RuntimeError("cannot pop the root metrics registry")
        return _registry_stack.pop()
