"""Serve load generator: N interleaved UCR-sim streams over HTTP.

The replay engine measures one detector on one stream; the load
generator measures the *service* the way a client reaches it — many
tenants' streams interleaved through a real :class:`ServeServer` and a
:class:`ServeClient`, so HTTP, JSON, backpressure, queueing and
coalescing are all in the path.  It reuses the repository's own
machinery at both ends:

* the **input** is the simulated UCR archive
  (:mod:`repro.datasets.ucr`), shortened so a thousand streams fit a
  bench budget, cycled over the requested stream count;
* the **output** goes back through
  :func:`repro.stream.replay.trace_from_scores`, so every stream's
  served scores become a normal :class:`~repro.stream.replay.
  ReplayTrace` and the delay-aware + NAB-windowed scoreboards apply
  unchanged.  Detection quality measured through the service is
  directly comparable to quality measured by local replay — by
  construction, because both paths share the trace builder.

Mid-drive, a configurable handful of streams get the full portability
drill: snapshot at the halfway point, keep driving the original, then
restore the snapshot on the same server as ``<stream>-restored``, drive
the identical remainder, and require byte-identical scores.  The bench
therefore re-proves the round-trip parity contract under concurrency
on every run, not just in the unit suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..datasets.ucr import UcrSimConfig, make_ucr
from ..obs import MetricsRegistry, get_registry, get_tracer, quantile
from ..stream.replay import ReplayTrace, trace_from_scores
from ..stream.scoreboard import delay_summary, nab_windowed_score
from .server import ServeClient, ServeServer
from .shard import StreamCluster, _ms

__all__ = [
    "LoadConfig",
    "LoadResult",
    "run_load",
    "default_archive",
    "format_load",
]

_DETECTORS = (
    "streaming_zscore(k=48)",
    "streaming_range(k=48)",
    "diff",
)
# series length bounds sized for the bench: long enough for the UCR-sim
# injection geometry (the widest injection needs n > ~2500), short
# enough that a thousand streams fit a bench budget
_MIN_LENGTH = 2600
_MAX_LENGTH = 3600
_SLOP = 100  # the scoreboards' detection slop, in points


@dataclass(frozen=True)
class LoadConfig:
    """Knobs of one load run (deterministic given the config)."""

    streams: int = 100
    tenants: int = 8
    shards: int = 4
    queue_size: int = 4096
    batch_size: int = 50
    seed: int = 23
    unique_series: int = 24
    max_delay: int | None = 250
    snapshot_checks: int = 3  # streams given the snapshot/restore drill

    def __post_init__(self):
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.snapshot_checks < 0:
            raise ValueError("snapshot_checks must be >= 0")


@dataclass(frozen=True)
class LoadResult:
    """What one load run measured."""

    config: LoadConfig
    points_streamed: int
    seconds: float
    points_per_second: float
    append_p50_ms: float | None
    append_p99_ms: float | None
    append_min_ms: float | None
    append_max_ms: float | None
    queue_wait_p50_ms: float | None
    queue_wait_p99_ms: float | None
    score_p50_ms: float | None
    score_p99_ms: float | None
    rejections: int
    snapshot_parity: bool | None
    traces: "list[ReplayTrace]" = field(repr=False)

    def to_json(self) -> dict:
        summary = delay_summary(self.traces)
        windowed = [
            score
            for score in (
                nab_windowed_score(trace) for trace in self.traces
            )
            if score is not None
        ]
        return {
            "streams": self.config.streams,
            "tenants": self.config.tenants,
            "shards": self.config.shards,
            "batch_size": self.config.batch_size,
            "detectors": list(_DETECTORS),
            "points_streamed": self.points_streamed,
            "seconds": round(self.seconds, 4),
            "points_per_second": round(self.points_per_second, 1),
            "append_p50_ms": self.append_p50_ms,
            "append_p99_ms": self.append_p99_ms,
            "append_min_ms": self.append_min_ms,
            "append_max_ms": self.append_max_ms,
            "queue_wait_p50_ms": self.queue_wait_p50_ms,
            "queue_wait_p99_ms": self.queue_wait_p99_ms,
            "score_p50_ms": self.score_p50_ms,
            "score_p99_ms": self.score_p99_ms,
            "rejections": self.rejections,
            "snapshot_parity": self.snapshot_parity,
            "accuracy": round(
                float(
                    np.mean([t.delay_correct for t in self.traces])
                ),
                4,
            )
            if self.traces
            else None,
            "nab_windowed": round(float(np.mean(windowed)), 2)
            if windowed
            else None,
            "by_detector": summary,
        }


def default_archive(config: LoadConfig):
    """The shortened UCR-sim archive a load run cycles over."""
    return make_ucr(
        UcrSimConfig(
            seed=config.seed,
            size=min(config.unique_series, config.streams),
            min_length=_MIN_LENGTH,
            max_length=_MAX_LENGTH,
        )
    )


class _StreamPlan:
    """One stream's identity and its deterministic append schedule."""

    __slots__ = ("tenant", "stream", "detector", "series", "batches")

    def __init__(self, tenant, stream, detector, series, batch_size):
        self.tenant = tenant
        self.stream = stream
        self.detector = detector
        self.series = series
        values = series.values
        self.batches = [
            values[start : min(start + batch_size, values.size)]
            for start in range(series.train_len, values.size, batch_size)
        ]


def _plan(config: LoadConfig, archive) -> "list[_StreamPlan]":
    plans = []
    for index in range(config.streams):
        plans.append(
            _StreamPlan(
                tenant=f"t{index % config.tenants:03d}",
                stream=f"s{index:05d}",
                detector=_DETECTORS[index % len(_DETECTORS)],
                series=archive.series[index % len(archive.series)],
                batch_size=config.batch_size,
            )
        )
    return plans


def run_load(config: LoadConfig, *, archive=None) -> LoadResult:
    """Drive the interleaved load over HTTP and measure the service.

    The drive is round-robin: every round appends one micro-batch to
    every still-active stream, so at any instant the cluster holds all
    ``config.streams`` streams mid-flight — the interleaving is the
    point, it is what exercises routing, coalescing and fairness.  One
    client on the calling thread sends every request, so the schedule
    is deterministic; a ``429`` is retried with the server's hint.
    """
    if archive is None:
        archive = default_archive(config)
    plans = _plan(config, archive)
    mid_checks: dict[int, dict] = {}
    check_indices = set(
        range(0, config.streams, max(1, config.streams // max(1, config.snapshot_checks)))
    ) if config.snapshot_checks else set()
    check_indices = set(sorted(check_indices)[: config.snapshot_checks])

    tracer = get_tracer()
    load_span = (
        tracer.start_span(
            "serve.load",
            streams=config.streams,
            tenants=config.tenants,
            shards=config.shards,
            batch_size=config.batch_size,
        )
        if tracer.enabled
        else None
    )
    # the server closes the cluster; the outer close covers a failed bind
    with (
        StreamCluster(
            num_shards=config.shards, queue_size=config.queue_size
        ) as cluster,
        ServeServer(cluster) as server,
        ServeClient(server.address) as client,
    ):
        for plan in plans:
            client.create_stream(
                plan.tenant,
                plan.stream,
                plan.detector,
                plan.series.train,
            )

        started = time.perf_counter()
        max_rounds = max(len(plan.batches) for plan in plans)
        for round_index in range(max_rounds):
            for index, plan in enumerate(plans):
                if round_index >= len(plan.batches):
                    continue
                if (
                    index in check_indices
                    and round_index == len(plan.batches) // 2
                ):
                    # the portability drill: capture state mid-stream,
                    # remember which batches are still to come
                    mid_checks[index] = {
                        "snapshot": client.snapshot(plan.tenant, plan.stream),
                        "remaining": plan.batches[round_index:],
                    }
                client.append(
                    plan.tenant, plan.stream, plan.batches[round_index]
                )
        # barrier: a per-stream read drains that stream's queue, so the
        # clock stops only after every point has been scored
        served: list[dict] = [
            client.scores(plan.tenant, plan.stream) for plan in plans
        ]
        seconds = time.perf_counter() - started

        latencies = _latencies(cluster.registry)
        rejections = cluster.metrics_json()["totals"]["rejected"]

        snapshot_parity = _verify_snapshots(client, plans, served, mid_checks)
        # fold the cluster's serve_* series into the session registry so
        # a --trace run's metrics record covers the service tier too
        get_registry().merge_state(cluster.registry.export_state())
    if load_span is not None:
        tracer.end_span(load_span)

    traces = _traces(config, plans, served)
    points = sum(
        plan.series.values.size - plan.series.train_len for plan in plans
    )

    return LoadResult(
        config=config,
        points_streamed=points,
        seconds=seconds,
        points_per_second=points / seconds if seconds > 0 else 0.0,
        rejections=rejections,
        snapshot_parity=snapshot_parity,
        traces=traces,
        **latencies,
    )


def _latencies(registry: MetricsRegistry) -> dict:
    """The result's latency fields (ms), pooled over every tenant.

    A per-tenant p99 hides the worst tenant exactly when multi-tenant
    fairness is the question.  The extremes are the histograms' exact
    lifetime ones, so they cover every append ever scored, not just
    the reservoir window the quantiles see.
    """
    fields = {}
    for series, prefix in (
        ("serve_append_seconds", "append"),
        ("serve_queue_wait_seconds", "queue_wait"),
        ("serve_score_seconds", "score"),
    ):
        histograms = registry.family(series).values()
        samples = [value for h in histograms for value in h.samples()]
        fields[f"{prefix}_p50_ms"] = _ms(quantile(samples, 0.50))
        fields[f"{prefix}_p99_ms"] = _ms(quantile(samples, 0.99))
    appends = registry.family("serve_append_seconds").values()
    minima = [h.minimum for h in appends if h.count]
    maxima = [h.maximum for h in appends if h.count]
    fields["append_min_ms"] = _ms(min(minima, default=None))
    fields["append_max_ms"] = _ms(max(maxima, default=None))
    return fields


def _verify_snapshots(client, plans, served, mid_checks) -> bool | None:
    """Restore each captured snapshot as ``<stream>-restored`` on the
    same server, replay the remainder there; require parity."""
    if not mid_checks:
        return None
    for index, check in mid_checks.items():
        plan = plans[index]
        snapshot = check["snapshot"]
        cut = snapshot["scores_total"]
        copy = f"{plan.stream}-restored"
        client.restore({**snapshot, "stream": copy})
        for batch in check["remaining"]:
            client.append(plan.tenant, copy, batch)
        replayed = client.scores(plan.tenant, copy, start=cut)
        original = served[index]["scores"][cut:]
        if replayed["scores"] != original:
            return False
    return True


def format_load(result: LoadResult) -> str:
    """Human-readable serve-bench report."""
    payload = result.to_json()
    parity = (
        "n/a"
        if payload["snapshot_parity"] is None
        else ("ok" if payload["snapshot_parity"] else "FAILED")
    )
    def fmt(key):
        return "-" if payload[key] is None else f"{payload[key]:.1f}ms"

    lines = [
        f"serve bench: {payload['streams']} streams, "
        f"{payload['tenants']} tenants, {payload['shards']} shards, "
        f"batch {payload['batch_size']}",
        f"  {payload['points_streamed']} points in "
        f"{payload['seconds']:.2f}s = "
        f"{payload['points_per_second']:.0f} points/s",
        f"  arrival-to-score latency p50 {fmt('append_p50_ms')}, "
        f"p99 {fmt('append_p99_ms')} "
        f"(lifetime min {fmt('append_min_ms')}, max {fmt('append_max_ms')})",
        f"  … queue wait p50 {fmt('queue_wait_p50_ms')}, "
        f"p99 {fmt('queue_wait_p99_ms')}; "
        f"score time p50 {fmt('score_p50_ms')}, p99 {fmt('score_p99_ms')}",
        f"  backpressure: {payload['rejections']} rejections",
        f"  snapshot/restore parity: {parity}",
        "",
        f"  {'detector':<28} {'streams':>8} {'delay-acc':>9} "
        f"{'med delay':>10} {'nab-win':>8}",
    ]
    for label, row in payload["by_detector"].items():
        med = (
            "-"
            if row["median_delay"] is None
            else f"{row['median_delay']:.0f}"
        )
        nab = (
            "-"
            if row["nab_windowed"] is None
            else f"{row['nab_windowed']:.1f}"
        )
        lines.append(
            f"  {label:<28} {row['series']:>8} {row['accuracy']:>8.1%} "
            f"{med:>10} {nab:>8}"
        )
    return "\n".join(lines)


def _traces(config, plans, served) -> "list[ReplayTrace]":
    traces = []
    for plan, result in zip(plans, served):
        n = int(plan.series.values.size)
        scores = np.full(n, -np.inf)
        block = np.asarray(result["scores"], dtype=float)
        start = plan.series.train_len
        scores[start : start + block.size] = np.where(
            np.isnan(block), -np.inf, block
        )
        traces.append(
            trace_from_scores(
                plan.series,
                scores,
                detector_label=plan.detector,
                batch_size=config.batch_size,
                max_delay=config.max_delay,
                slop=_SLOP,
            )
        )
    return traces
