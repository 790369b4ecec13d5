"""Sharded stream workers: consistent-hash routing and backpressure.

One Python process cannot score a thousand tenants' streams on one
thread; it *can* on a handful, provided ownership is unambiguous and
overload is explicit.  The design here is the classic sharded-log
shape, small enough to read in one sitting:

* :class:`HashRing` — consistent hashing (sha256, virtual nodes) from
  tenant to shard.  A tenant's streams always land on the same shard,
  so per-stream state never needs locking: the owning worker thread is
  the only mutator.  Adding a shard moves ~1/n of tenants, which is
  what makes the ring better than ``hash(t) % n`` for any future
  rebalancing story.
* :class:`ShardWorker` — a daemon thread draining a **bounded** queue
  of operations.  Appends are fire-and-forget and the worker coalesces
  consecutive appends to the same stream into one detector call when
  the detector declares ``batch_invariant`` (micro-batching recovers
  vectorized kernel throughput when producers submit point-at-a-time
  without changing any score).  Control operations (create, read,
  snapshot, restore) travel the same queue and act as barriers, so a
  read observes exactly the appends submitted before it.
* **Backpressure** — a full queue raises :class:`Backpressure` with a
  ``retry_after`` hint instead of blocking the caller or buffering
  unboundedly.  The HTTP front turns it into ``429 Retry-After``, and
  :class:`~repro.serve.server.ServeClient` retries after that pause.
  Lost work is visible (the rejection counter), never silent.
* **Failure isolation** — a detector that raises fails its own stream
  (:class:`StreamFailed`, counted per tenant), never the worker: the
  shard's other streams keep being scored.

Snapshot/restore rides the same barrier mechanism: a snapshot drains
the stream's pending appends first, then captures the detector through
:mod:`repro.serve.state`, so the blob always corresponds to a clean
append boundary — the precondition for the byte-identical continuation
contract.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import math
import queue
import threading
import time
import traceback
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np

from ..detectors.registry import DetectorSpec
from ..drift.policies import _check_cadence, validate_stream_options
from ..obs.alerts import AlertManager, AlertRule, BurnRateRule, ThresholdRule
from ..obs.registry import MetricsRegistry, quantile
from ..stream.adapters import (
    BatchStreamingAdapter,
    StreamingDetector,
    as_streaming,
)
from .state import restore as restore_state
from .state import snapshot as snapshot_state

__all__ = [
    "Backpressure",
    "HashRing",
    "ShardWorker",
    "StreamCluster",
    "StreamFailed",
    "default_watch_rules",
]

# how often a caller blocked on a control op checks that the worker thread
# is still alive to answer it
_LIVENESS_POLL_S = 0.1
# the pause a rejected producer is told to wait before retrying
_RETRY_AFTER_S = 0.05
# virtual nodes per shard on the hash ring
_RING_REPLICAS = 64
# the append-latency alert's p99 threshold
_P99_LATENCY_S = 1.0

# ``# HELP`` text for every serve series, registered on the cluster's
# registry so the Prometheus exposition is self-describing
_DESCRIPTIONS = {
    "serve_points_ingested": "Points accepted for scoring, per tenant.",
    "serve_scores_emitted": "Scores produced by detectors, per tenant.",
    "serve_append_batches": "Scored append groups, per tenant.",
    "serve_rejected": "Appends rejected by backpressure, per tenant.",
    "serve_snapshots": "Stream snapshots captured, per tenant.",
    "serve_restores": "Streams restored from snapshots, per tenant.",
    "serve_stream_failures_total": (
        "Streams marked failed because their detector raised, per tenant."
    ),
    "serve_append_seconds": (
        "Arrival-to-score latency of append groups (seconds)."
    ),
    "serve_queue_wait_seconds": (
        "Time append groups spent queued before worker pickup (seconds)."
    ),
    "serve_score_seconds": "Time spent inside the detector call (seconds).",
    "serve_backpressure_total": "Appends rejected at a full shard queue.",
    "serve_queue_depth": "Resident operations in each shard queue.",
    "serve_uptime_seconds": "Seconds since the cluster started.",
    "serve_worker_up": (
        "0 once the shard's worker thread died without being closed, else 1."
    ),
    "obs_watch_errors_total": (
        "Watch ticks that raised; the watcher logs each and keeps ticking."
    ),
}
# the per-tenant counters: ``/metrics`` row key -> ``serve_<key>`` series
_TENANT_COUNTERS = (
    "points_ingested",
    "scores_emitted",
    "append_batches",
    "rejected",
    "snapshots",
    "restores",
)


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else round(seconds * 1e3, 4)


def _require_finite(values: np.ndarray, what: str) -> None:
    # no detector has a missing-data policy yet: one NaN would poison
    # every score of a stream whose window it enters
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite: NaN and Infinity are refused")


def default_watch_rules(queue_size: int) -> "list[AlertRule]":
    """The cluster's stock self-monitoring rules.

    * **queue saturation** — any shard's resident queue depth above 80%
      of capacity for two consecutive watch ticks: the cluster is one
      burst away from rejecting work.
    * **append latency** — the worst tenant's p99 arrival-to-score
      latency above one second for two ticks.
    * **backpressure burn** — the SLO burn-rate pattern on the
      rejected/attempted counter pair: sustained rejection above twice
      the 5% error budget over both the short and long window.
    * **worker down** — any shard's worker thread died without being
      closed; fires on the first tick that sees it.
    """
    return [
        ThresholdRule(
            "queue-saturation",
            "serve_queue_depth",
            0.8 * queue_size,
            for_ticks=2,
        ),
        ThresholdRule(
            "append-latency-p99",
            "serve_append_seconds",
            _P99_LATENCY_S,
            quantile=0.99,
            for_ticks=2,
        ),
        BurnRateRule(
            "backpressure-burn",
            errors="serve_rejected",
            total="serve_append_batches",
            budget=0.05,
            factor=2.0,
            short_points=3,
            long_points=12,
            for_ticks=1,
        ),
        ThresholdRule("worker-down", "serve_worker_up", 1.0, below=True),
    ]


class Backpressure(RuntimeError):
    """A shard's queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, shard: str, retry_after: float) -> None:
        super().__init__(
            f"shard {shard} queue full; retry after {retry_after:.3f}s"
        )
        self.shard = shard
        self.retry_after = retry_after


class StreamFailed(Exception):
    """A stream's detector raised; the stream stays failed with that error."""

    def __init__(self, stream: str, error: str) -> None:
        super().__init__(f"stream {stream!r} failed: {error}")
        self.stream = stream
        self.error = error


class HashRing:
    """Consistent tenant→shard map: sha256 positions, virtual nodes."""

    def __init__(self, shards: "list[str]") -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard names in {shards}")
        self.shards = tuple(shards)
        points = []
        for shard in shards:
            for replica in range(_RING_REPLICAS):
                points.append((self._position(f"{shard}#{replica}"), shard))
        points.sort()
        self._points = [position for position, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def _position(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )

    def route(self, tenant: str) -> str:
        """The shard owning ``tenant`` — first ring point at/after it."""
        index = bisect.bisect_left(self._points, self._position(tenant))
        if index == len(self._points):
            index = 0
        return self._owners[index]


class _Stream:
    """Worker-resident state of one stream (single-thread access only)."""

    __slots__ = (
        "tenant",
        "stream",
        "detector_label",
        "detector",
        "points_seen",
        "score_offset",
        "scores",
        "points_in",
        "scores_out",
        "batches",
        "queue_wait",
        "score_time",
        "latency",
    )

    def __init__(
        self,
        tenant: str,
        stream: str,
        detector_label: str,
        detector: StreamingDetector,
        registry: MetricsRegistry,
        *,
        points_seen: int = 0,
        score_offset: int = 0,
    ) -> None:
        self.tenant = tenant
        self.stream = stream
        self.detector_label = detector_label
        self.detector = detector
        self.points_seen = points_seen
        # scores emitted before this incarnation (snapshot/restore keeps
        # global score indices stable across a migration)
        self.score_offset = score_offset
        self.scores: list[float] = []
        # the tenant's series, looked up once so an append records
        # through handles.  All of them exist from the tenant's first
        # stream on, and serve_append_seconds is created last: a tenant
        # listed in that family has every other series already.
        counter, histogram = registry.counter, registry.histogram
        for name in (
            "serve_rejected",
            "serve_snapshots",
            "serve_restores",
            "serve_stream_failures_total",
        ):
            counter(name, tenant=tenant)
        self.points_in = counter("serve_points_ingested", tenant=tenant)
        self.scores_out = counter("serve_scores_emitted", tenant=tenant)
        self.batches = counter("serve_append_batches", tenant=tenant)
        self.queue_wait = histogram("serve_queue_wait_seconds", tenant=tenant)
        self.score_time = histogram("serve_score_seconds", tenant=tenant)
        self.latency = histogram("serve_append_seconds", tenant=tenant)


class _Op:
    __slots__ = ("kind", "key", "payload", "future", "enqueued")

    def __init__(self, kind, key, payload, future=None):
        self.kind = kind
        self.key = key
        self.payload = payload
        self.future = future
        self.enqueued = time.monotonic()


class ShardWorker:
    """One shard: a bounded op queue drained by a daemon thread."""

    def __init__(
        self, name: str, registry: MetricsRegistry, *, queue_size: int = 1024
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.name = name
        self.registry = registry
        self._queue: "queue.Queue[_Op | None]" = queue.Queue(queue_size)
        self._streams: dict[str, _Stream] = {}
        # key -> error of each stream whose detector raised; written by
        # the worker thread, read by producers to refuse its appends
        self._failed: dict[str, str] = {}
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name=f"shard-{name}", daemon=True
        )
        self._thread.start()

    # -- producer side ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def dead(self) -> bool:
        """The worker thread stopped although nobody closed the worker."""
        return not self._closed and not self._thread.is_alive()

    def _not_running(self) -> RuntimeError:
        return RuntimeError(f"shard {self.name} is not running")

    def _check_running(self) -> None:
        if self._closed or not self._thread.is_alive():
            raise self._not_running()

    def _put(self, op: "_Op | None") -> None:
        """Enqueue ``op``, waiting for room only while the thread lives."""
        while True:
            try:
                self._queue.put(op, timeout=_LIVENESS_POLL_S)
                return
            except queue.Full:
                if not self._thread.is_alive():
                    raise self._not_running() from None

    def submit(self, op: _Op, *, tenant: str) -> None:
        self._check_running()
        error = self._failed.get(op.key)
        if error is not None:
            raise StreamFailed(op.key, error)
        try:
            self._queue.put_nowait(op)
        except queue.Full:
            # the per-tenant counter says who was rejected; the shard-
            # labeled one says where the hot queue is
            self.registry.counter("serve_rejected", tenant=tenant).inc()
            self.registry.counter(
                "serve_backpressure_total", shard=self.name
            ).inc()
            raise Backpressure(self.name, _RETRY_AFTER_S) from None

    def call(self, kind: str, key: str, payload, *, tenant: str):
        """Submit a control op and wait for its result (barrier).

        Control ops block on a full queue instead of raising
        :class:`Backpressure`: they are rare, synchronous, and
        self-limiting (the caller waits on the Future anyway), so
        rejecting them would only make reads flaky under load.
        Raises :class:`RuntimeError` once the worker is closed or its
        thread has died, and for an op the worker thread stopped before
        reaching.
        """
        self._check_running()
        future: Future = Future()
        self._put(_Op(kind, key, payload, future))
        while True:
            try:
                return future.result(timeout=_LIVENESS_POLL_S)
            except FutureTimeout:
                if not self._thread.is_alive() and not future.done():
                    raise self._not_running() from None

    def close(self) -> None:
        self._closed = True
        try:
            self._put(None)
        except RuntimeError:
            pass  # the thread already died: there is nothing to stop
        self._thread.join()

    # -- worker side --------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = [self._queue.get()]
            # drain whatever queued up behind it: consecutive appends to
            # one stream coalesce into a single detector call below
            while batch[-1] is not None:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            if batch[-1] is None:  # close(): nothing after it runs
                self._execute(batch[:-1])
                return
            self._execute(batch)

    def _execute(self, batch: "list[_Op]") -> None:
        pending: dict[str, list[_Op]] = {}
        for op in batch:
            if op.kind == "append":
                pending.setdefault(op.key, []).append(op)
            else:
                # control ops are barriers: flush coalesced appends so
                # they observe every append submitted before them
                self._flush(pending)
                pending = {}
                self._control(op)
        self._flush(pending)

    def _flush(self, pending: "dict[str, list[_Op]]") -> None:
        for key, ops in pending.items():
            if key in self._failed:
                continue  # queued before its stream failed
            state = self._streams[key]
            if state.detector.batch_invariant:
                # coalescing is only legal when update([a, b]) equals
                # update([a]); update([b]) — otherwise merging producer
                # micro-batches would change the emitted scores
                groups = [ops]
            else:
                groups = [[op] for op in ops]
            for group in groups:
                values = (
                    group[0].payload
                    if len(group) == 1
                    else np.concatenate([op.payload for op in group])
                )
                # split the caller-observed latency at the moment the
                # detector takes over: queue wait (enqueue → pickup) is
                # overload, score time is kernel cost — different fixes
                picked_up = time.monotonic()
                try:
                    scores = np.asarray(
                        state.detector.update(values), dtype=float
                    )
                except Exception as error:
                    self._fail(key, state, error)
                    break
                scored = time.monotonic()
                state.points_seen += int(values.size)
                state.scores.extend(scores.tolist())
                enqueued = min(op.enqueued for op in group)
                state.points_in.inc(values.size)
                state.scores_out.inc(scores.size)
                state.batches.inc()
                state.queue_wait.observe(picked_up - enqueued)
                state.score_time.observe(scored - picked_up)
                state.latency.observe(scored - enqueued)

    def _fail(self, key: str, state: _Stream, error: Exception) -> None:
        """Mark a stream failed: one stream's failure stays its own.

        The traceback goes to stderr, the stream answers its stored
        error from now on, and every other stream on this shard keeps
        being scored.
        """
        traceback.print_exception(error)
        self._failed[key] = f"{type(error).__name__}: {error}"
        self.registry.counter(
            "serve_stream_failures_total", tenant=state.tenant
        ).inc()

    def _control(self, op: _Op) -> None:
        try:
            result = self._dispatch(op)
        except BaseException as error:  # surface to the caller, not the log
            if op.future is not None:
                op.future.set_exception(error)
            return
        if op.future is not None:
            op.future.set_result(result)

    def _dispatch(self, op: _Op):
        if op.kind == "create":
            return self._create(op.key, op.payload)
        if op.kind == "scores":
            return self._scores(op.key, op.payload)
        if op.kind == "snapshot":
            return self._snapshot(op.key)
        if op.kind == "restore":
            return self._restore(op.key, op.payload)
        if op.kind == "stats":
            return self._stats(op.key)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def _create(self, key: str, payload: dict) -> dict:
        if key in self._streams:
            raise ValueError(f"stream {key!r} already exists")
        tenant, stream = payload["tenant"], payload["stream"]
        detector = as_streaming(
            payload["detector"],
            window=payload.get("window"),
            refit_every=payload.get("refit_every"),
            refit_policy=payload.get("refit_policy"),
        )
        train = payload["train"]
        detector.fit(train)
        self._streams[key] = _Stream(
            tenant, stream, payload["detector"], detector, self.registry,
            points_seen=int(train.size),
        )
        return {"stream": key, "shard": self.name, "train_len": int(train.size)}

    def _require(self, key: str) -> _Stream:
        state = self._streams.get(key)
        if state is None:
            raise KeyError(f"unknown stream {key!r}")
        error = self._failed.get(key)
        if error is not None:
            raise StreamFailed(key, error)
        return state

    def _scores(self, key: str, payload: dict) -> dict:
        state = self._require(key)
        start = int(payload.get("start", 0))
        local = max(0, start - state.score_offset)
        block = state.scores[local:]
        return {
            "stream": key,
            "start": state.score_offset + local,
            "scores": block,
            "total": state.score_offset + len(state.scores),
        }

    def _snapshot(self, key: str) -> dict:
        state = self._require(key)
        blob = snapshot_state(state.detector)
        self.registry.counter("serve_snapshots", tenant=state.tenant).inc()
        return {
            "stream": key,
            "tenant": state.tenant,
            "detector": state.detector_label,
            "points_seen": state.points_seen,
            "scores_total": state.score_offset + len(state.scores),
            "state": base64.b64encode(blob).decode("ascii"),
        }

    def _restore(self, key: str, payload: dict) -> dict:
        if key in self._streams:
            raise ValueError(f"stream {key!r} already exists")
        detector = restore_state(
            base64.b64decode(payload["state"].encode("ascii"))
        )
        _check_label(payload["detector"], detector)
        state = _Stream(
            payload["tenant"],
            payload["stream"],
            payload["detector"],
            detector,
            self.registry,
            points_seen=int(payload["points_seen"]),
            score_offset=int(payload["scores_total"]),
        )
        self._streams[key] = state
        self.registry.counter("serve_restores", tenant=state.tenant).inc()
        return {
            "stream": key,
            "shard": self.name,
            "points_seen": state.points_seen,
        }

    def _stats(self, key: str) -> dict:
        state = self._require(key)
        return {
            "stream": key,
            "tenant": state.tenant,
            "detector": state.detector_label,
            "points_seen": state.points_seen,
            "scores_total": state.score_offset + len(state.scores),
            "shard": self.name,
        }


def _label_params(detector) -> dict:
    # a native detector's constructor parameters are its public
    # attributes; max_history comes from the create's window, not the
    # label, so it is not compared
    return {
        name: value
        for name, value in vars(detector).items()
        if not name.startswith("_") and name != "max_history"
    }


def _check_label(label: str, detector) -> None:
    """Refuse a restore whose ``detector`` label names another detector.

    An adapter blob carries its registry spec, so the canonical spec
    labels must agree (its ``name`` reads the same for every ``k``); a
    native blob carries its parameters, so they must equal those of
    ``as_streaming(label)``.  Otherwise ``stream_stats`` and every later
    snapshot would report one detector while the stream scores another.
    """
    spec = DetectorSpec.parse(label)
    if isinstance(detector, BatchStreamingAdapter):
        held = detector.spec.label
        if held == spec.label:
            return
    else:
        fresh = as_streaming(spec)
        held = f"{type(detector).__name__}{_label_params(detector)}"
        if type(fresh) is type(detector) and (
            _label_params(fresh) == _label_params(detector)
        ):
            return
    raise ValueError(
        f"restore label {label!r} names another detector than the "
        f"snapshot holds: {held}"
    )


class StreamCluster:
    """The in-process cluster: ring + workers + registry, one facade.

    Every public method routes by tenant through the ring and returns
    plain JSON-shaped data, so the HTTP front is a thin translation
    layer and tests can drive the cluster directly.  ``registry`` is
    the one :class:`repro.obs.MetricsRegistry` the workers, the HTTP
    front and the watch layer record into and ``/metrics`` reads.
    """

    def __init__(
        self,
        *,
        num_shards: int = 4,
        queue_size: int = 1024,
        watch_interval: float | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if watch_interval is not None and not (
            math.isfinite(watch_interval) and watch_interval > 0
        ):
            # Event.wait(nan) returns at once and wait(inf) overflows
            raise ValueError(
                f"watch_interval must be a finite number > 0, "
                f"got {watch_interval}"
            )
        names = [f"shard-{index}" for index in range(num_shards)]
        self.registry = MetricsRegistry()
        for name, text in _DESCRIPTIONS.items():
            self.registry.describe(name, text)
        # present from start-up: a scrape reads 0, not a missing series
        self.registry.counter("obs_watch_errors_total")
        self.ring = HashRing(names)
        self.workers = {
            name: ShardWorker(name, self.registry, queue_size=queue_size)
            for name in names
        }
        self.started = time.monotonic()
        self._closed = False
        # keys of created/restored streams: appends never wait for the
        # worker, so this is where an unknown stream is caught
        self._streams: set[str] = set()
        # the watch layer: alert rules over the same registry /metrics
        # serves.  Always constructed; the background heartbeat thread
        # only exists when a watch_interval was requested — tests and
        # CI drive watch_tick() on a deterministic schedule.
        self.watch = AlertManager(
            self.registry, default_watch_rules(queue_size)
        )
        self.watch_interval = watch_interval
        self._watch_stop = threading.Event()
        self._watch_thread: threading.Thread | None = None
        if watch_interval is not None:
            self._watch_thread = threading.Thread(
                target=self._watch_loop, name="serve-watch", daemon=True
            )
            self._watch_thread.start()

    # -- routing ------------------------------------------------------

    @staticmethod
    def stream_key(tenant: str, stream: str) -> str:
        if not tenant or "/" in tenant:
            raise ValueError(f"bad tenant name {tenant!r}")
        if not stream:
            raise ValueError("stream name must be non-empty")
        return f"{tenant}/{stream}"

    def worker_for(self, tenant: str) -> ShardWorker:
        return self.workers[self.ring.route(tenant)]

    # -- stream lifecycle ---------------------------------------------

    def create_stream(
        self,
        tenant: str,
        stream: str,
        detector: str,
        train,
        *,
        window: int | None = None,
        refit_every: int | None = None,
        refit_policy: str | None = None,
    ) -> dict:
        key = self.stream_key(tenant, stream)
        # Validate here, before the op crosses the queue: a bad cadence,
        # policy spec or training series should be the caller's 400,
        # not a deferred shard-worker crash on first append.
        validate_stream_options(
            window=window, refit_every=refit_every, refit_policy=refit_policy
        )
        train = np.asarray(train, dtype=float)
        if train.ndim != 1:
            raise ValueError(f"'train' must be a flat array, got {train.shape}")
        _require_finite(train, "'train'")
        created = self.worker_for(tenant).call(
            "create",
            key,
            {
                "tenant": tenant,
                "stream": stream,
                "detector": detector,
                "train": train,
                "window": window,
                "refit_every": refit_every,
                "refit_policy": refit_policy,
            },
            tenant=tenant,
        )
        self._streams.add(key)
        return created

    def append(self, tenant: str, stream: str, values) -> dict:
        """Fire-and-forget ingest; raises :class:`Backpressure` if full."""
        key = self.stream_key(tenant, stream)
        if key not in self._streams:
            raise KeyError(f"unknown stream {key!r}")
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("append needs at least one value")
        _require_finite(values, "append values")
        worker = self.worker_for(tenant)
        worker.submit(_Op("append", key, values), tenant=tenant)
        return {"stream": key, "queued": int(values.size)}

    def scores(self, tenant: str, stream: str, *, start: int = 0) -> dict:
        key = self.stream_key(tenant, stream)
        return self.worker_for(tenant).call(
            "scores", key, {"start": start}, tenant=tenant
        )

    def snapshot_stream(self, tenant: str, stream: str) -> dict:
        key = self.stream_key(tenant, stream)
        return self.worker_for(tenant).call(
            "snapshot", key, None, tenant=tenant
        )

    def restore_stream(self, payload: dict) -> dict:
        """Register a stream from a :meth:`snapshot_stream` payload.

        ``state`` must be a string and ``points_seen`` and
        ``scores_total`` integers >= 0 (bools and floats refused); any
        other payload raises ``ValueError`` here, before the op is
        queued.
        """
        if not isinstance(payload["state"], str):
            raise ValueError(
                f"'state' must be a base64 string, got "
                f"{type(payload['state']).__name__}"
            )
        for name in ("points_seen", "scores_total"):
            _check_cadence(name, payload[name], minimum=0)
        tenant = payload["tenant"]
        key = payload["stream"]
        stream = key.split("/", 1)[1] if "/" in key else key
        key = self.stream_key(tenant, stream)
        restored = self.worker_for(tenant).call(
            "restore", key, payload, tenant=tenant
        )
        self._streams.add(key)
        return restored

    def stream_stats(self, tenant: str, stream: str) -> dict:
        key = self.stream_key(tenant, stream)
        return self.worker_for(tenant).call("stats", key, None, tenant=tenant)

    # -- self-monitoring ----------------------------------------------

    def _refresh_gauges(self) -> None:
        """Push the point-in-time readings onto the registry."""
        for name, depth in self.queue_depths().items():
            self.registry.gauge("serve_queue_depth", shard=name).set(depth)
        for name, worker in self.workers.items():
            self.registry.gauge("serve_worker_up", shard=name).set(
                0 if worker.dead else 1
            )
        self.registry.gauge("serve_uptime_seconds").set(self.uptime_seconds())

    def watch_tick(self, *, now: float | None = None) -> "list[dict]":
        """One watch heartbeat: refresh the gauges, evaluate the rules.

        Returns the alert transitions the tick caused.  The background
        thread calls this on its wall-clock schedule; tests call it
        with an explicit ``now`` for a deterministic alert timeline.
        """
        self._refresh_gauges()
        return self.watch.evaluate(now=now)

    def _watch_loop(self) -> None:
        while not self._watch_stop.wait(self.watch_interval):
            try:
                self.watch_tick()
            except Exception as error:
                # one bad tick must not end the watcher: log it the way
                # a failed stream is logged, count it, keep ticking
                traceback.print_exception(error)
                self.registry.counter("obs_watch_errors_total").inc()

    def alerts_json(self) -> dict:
        return self.watch.to_json()

    def alerts_prometheus(self) -> str:
        return self.watch.render_prometheus()

    # -- cluster view -------------------------------------------------

    def queue_depths(self) -> "dict[str, int]":
        return {
            name: worker.queue_depth
            for name, worker in self.workers.items()
        }

    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started

    def metrics_json(self) -> dict:
        """Per-tenant rows (sorted), their totals, and the queue depths."""
        # read first: a tenant in this family has all its series (_Stream)
        latency = self.registry.family("serve_append_seconds")
        counters = {
            key: self.registry.family(f"serve_{key}")
            for key in _TENANT_COUNTERS
        }
        queue_wait = self.registry.family("serve_queue_wait_seconds")
        score_time = self.registry.family("serve_score_seconds")
        rows = []
        for labels, append in sorted(latency.items()):
            samples = append.samples()
            rows.append(
                {
                    "tenant": dict(labels)["tenant"],
                    **{key: counters[key][labels].value for key in counters},
                    "append_p50_ms": _ms(quantile(samples, 0.50)),
                    "append_p99_ms": _ms(quantile(samples, 0.99)),
                    # lifetime-exact extremes, not reservoir-windowed: an
                    # early latency spike stays visible after it ages out
                    "append_min_ms": _ms(append.minimum),
                    "append_max_ms": _ms(append.maximum),
                    "queue_wait_p99_ms": _ms(queue_wait[labels].quantile(0.99)),
                    "score_p99_ms": _ms(score_time[labels].quantile(0.99)),
                }
            )
        return {
            "tenants": rows,
            "totals": {
                key: sum(row[key] for row in rows) for key in _TENANT_COUNTERS
            },
            "queue_depths": dict(sorted(self.queue_depths().items())),
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text view of the same registry ``/metrics`` serves.

        The point-in-time series (queue depths, worker liveness,
        uptime) are refreshed as gauges on the registry right before
        rendering, so a scrape sees them next to the tenant counters.
        """
        self._refresh_gauges()
        return self.registry.render_prometheus()

    def healthz_json(self) -> dict:
        """Liveness plus the overload signals CI asserts on.

        ``ok`` is false while any shard worker's thread has died without
        being closed (``dead_shards`` names them), and while a requested
        watch thread is not running on an open cluster.
        """
        alerts = self.alerts_json()
        dead = [name for name, worker in self.workers.items() if worker.dead]
        watcher = self._watch_thread  # None when not requested or closed
        watch_dead = (
            watcher is not None and not self._closed and not watcher.is_alive()
        )
        return {
            "ok": not dead and not watch_dead,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "shards": len(self.workers),
            "dead_shards": dead,
            "queue_depths": dict(sorted(self.queue_depths().items())),
            "alerts": {
                "summary": alerts["summary"],
                "firing": sorted(
                    row["rule"]
                    for row in alerts["alerts"]
                    if row["state"] == "firing"
                ),
            },
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join()
            self._watch_thread = None
        for worker in self.workers.values():
            worker.close()

    def __enter__(self) -> "StreamCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
