"""Replay engine: feed a series through a detector as a live stream.

:func:`replay` is the streaming counterpart of the evaluation engine's
batch cell: the detector is fitted on the training prefix, then the
test region arrives point-by-point (or in micro-batches) and every
score is recorded *at arrival time* — the number a deployment would
have acted on, before any future point could revise it.

Correctness stays the UCR protocol the repository already uses (argmax
location within the labeled region ± slop), but applied to the
hindsight-free arrival scores; on top of it the trace records *when*
the detector committed to a correct answer:

* ``first_hit`` — the earliest arrival at which the running argmax of
  the scores-so-far fell inside the region ± slop;
* ``commit`` — the earliest arrival from which the running argmax
  stayed inside the region for the rest of the stream (a transient
  brush with the region does not count as a stable alert);
* ``delay`` — ``commit − region.start``, clipped at 0: how many points
  after the anomaly began the detector durably pointed at it.  This is
  the detection-latency axis TimeSeriesBench argues offline protocols
  hide, measured without introducing a threshold parameter.

Everything in a :class:`ReplayTrace` except the wall-clock throughput
is a pure function of (series, detector, batch size, slop), so
``to_json`` — which excludes timing by default — is byte-identical
across re-runs; the scores travel as a SHA-256 fingerprint plus an
optional inline array.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from ..detectors.base import Detector
from ..detectors.registry import DetectorSpec
from ..obs import get_registry, get_tracer
from ..scoring.ucr import ucr_slop
from ..types import Archive, LabeledSeries
from .adapters import StreamingDetector, as_streaming

__all__ = ["ReplayTrace", "replay", "replay_grid", "trace_from_scores"]


@dataclass(frozen=True, eq=False)
class ReplayTrace:
    """One series replayed through one streaming detector.

    ``scores`` are the arrival-time scores in full-series coordinates
    (training region ``-inf``).  ``correct`` is the UCR verdict on the
    final arrival-score argmax; ``delay`` the stable-commit latency (see
    module docstring), ``None`` when the detector never durably pointed
    inside the region.  ``seconds``/``points_per_second`` are wall
    clock: measurement context, never part of the canonical artifact.
    """

    detector: str
    series: str
    n: int
    train_len: int
    batch_size: int
    slop: int
    max_delay: int | None
    window: int | None
    refit_every: int | None
    scores: np.ndarray
    location: int
    correct: bool
    region: tuple[int, int] | None
    first_hit: int | None
    commit: int | None
    delay: int | None
    num_updates: int
    seconds: float
    points_per_second: float
    # adaptive-refit fields (PR 9); defaults keep older positional
    # construction and serve-side trace building working unchanged
    refit_policy: str | None = None
    refits: int = 0
    triggers: int = 0

    @property
    def delay_correct(self) -> bool:
        """Delay-aware correctness: right place, inside the budget.

        ``correct`` and, when a ``max_delay`` budget was set, committed
        within it.  This is the cell value streaming scoreboards feed to
        :mod:`repro.stats`.
        """
        if not self.correct:
            return False
        if self.max_delay is None:
            return True
        return self.delay is not None and self.delay <= self.max_delay

    @property
    def score_fingerprint(self) -> str:
        """SHA-256 of the arrival scores (shape-independent identity)."""
        return hashlib.sha256(
            np.ascontiguousarray(self.scores, dtype=float).tobytes()
        ).hexdigest()

    def to_json(
        self, *, include_scores: bool = False, include_timing: bool = False
    ) -> dict:
        """Canonical mapping; timing excluded unless asked for."""
        payload = {
            "detector": self.detector,
            "series": self.series,
            "n": self.n,
            "train_len": self.train_len,
            "batch_size": self.batch_size,
            "slop": self.slop,
            "max_delay": self.max_delay,
            "window": self.window,
            "refit_every": self.refit_every,
            "refit_policy": self.refit_policy,
            "refits": self.refits,
            "triggers": self.triggers,
            "location": self.location,
            "correct": self.correct,
            "delay_correct": self.delay_correct,
            "region": None if self.region is None else list(self.region),
            "first_hit": self.first_hit,
            "commit": self.commit,
            "delay": self.delay,
            "num_updates": self.num_updates,
            "score_fingerprint": self.score_fingerprint,
        }
        if include_scores:
            payload["scores"] = [
                None if not np.isfinite(s) else float(s) for s in self.scores
            ]
        if include_timing:
            payload["seconds"] = self.seconds
            payload["points_per_second"] = self.points_per_second
        return payload

    def to_jsonl(self) -> str:
        """One canonical JSON line (sorted keys, no timing)."""
        return json.dumps(self.to_json(), sort_keys=True)


def _detector_label(detector) -> str:
    if isinstance(detector, DetectorSpec):
        return detector.label
    if isinstance(detector, str):
        return DetectorSpec.parse(detector).label
    if isinstance(detector, (Detector, StreamingDetector)):
        return detector.name
    return str(detector)


def _series_region(
    series: LabeledSeries, slop: int
) -> tuple[tuple[int, int] | None, int]:
    """``(region, effective_slop)`` under the single-anomaly protocol."""
    if series.labels.num_regions > 1:
        # mirror the batch protocol (ucr_correct): delay and correctness
        # are defined against *the* anomaly, so multi-region series must
        # fail loudly in both engines rather than silently diverge
        raise ValueError(
            f"{series.name}: streaming replay uses the UCR protocol, "
            f"which requires exactly one labeled anomaly, found "
            f"{series.labels.num_regions}"
        )
    if series.labels.num_regions:
        only = series.labels.regions[0]
        return (int(only.start), int(only.end)), ucr_slop(series, slop)
    return None, slop


def trace_from_scores(
    series: LabeledSeries,
    scores: np.ndarray,
    *,
    detector_label: str,
    batch_size: int = 1,
    max_delay: int | None = None,
    slop: int = 100,
    window: int | None = None,
    refit_every: int | None = None,
    refit_policy: str | None = None,
    refits: int = 0,
    triggers: int = 0,
    num_updates: int | None = None,
    seconds: float = 0.0,
) -> ReplayTrace:
    """Build a :class:`ReplayTrace` from already-collected arrival scores.

    ``scores`` are full-series coordinates (length ``series.n``; the
    training region must be ``-inf``), appended in micro-batches of
    ``batch_size`` starting at ``series.train_len`` — the structure
    :func:`replay` produces while driving a detector itself, and the
    structure a caller reproduces when it collects arrival scores some
    other way (scores read back from a served stream, say).  The
    running-argmax walk, the UCR verdict and the first-hit/commit/delay
    latencies are computed here, identically for every caller, so a
    trace built from collected scores is byte-for-byte the trace a
    local replay would have produced.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_delay is not None and max_delay < 0:
        raise ValueError(f"max_delay must be >= 0, got {max_delay}")
    scores = np.asarray(scores, dtype=float)
    n = int(series.values.size)
    train_len = int(series.train_len)
    if scores.shape != (n,):
        raise ValueError(
            f"{detector_label}: expected full-series scores of shape "
            f"({n},), got {scores.shape}"
        )
    scores = np.where(np.isnan(scores), -np.inf, scores)
    region, effective_slop = _series_region(series, slop)

    best_score = -np.inf
    best_loc: int | None = None
    running: list[tuple[int, int]] = []  # (arrival index, running argmax)
    for start in range(train_len, n, batch_size):
        stop = min(start + batch_size, n)
        batch_scores = scores[start:stop]
        # running argmax with np.argmax's first-occurrence tie-break;
        # best_loc stays None until the first *finite* score — a
        # detector that has said nothing has not pointed anywhere
        if np.max(batch_scores, initial=-np.inf) > best_score:
            offset = int(np.argmax(batch_scores))
            best_score = float(batch_scores[offset])
            best_loc = start + offset
        running.append((stop - 1, best_loc))

    # no finite score anywhere: fall back to the batch convention
    # (argmax over an all--inf vector is index 0, in the train region)
    location = int(np.argmax(scores)) if best_loc is None else best_loc
    correct = False
    first_hit = commit = delay = None
    if region is not None:
        lo, hi = region[0] - effective_slop, region[1] + effective_slop
        inside = [
            loc is not None and lo <= loc < hi for _, loc in running
        ]
        correct = bool(inside and inside[-1])
        for (arrival, _), hit in zip(running, inside):
            if hit:
                first_hit = int(arrival)
                break
        if correct:
            last_miss = -1
            for index, hit in enumerate(inside):
                if not hit:
                    last_miss = index
            commit = int(running[last_miss + 1][0])
            delay = max(0, commit - region[0])

    streamed = n - train_len
    return ReplayTrace(
        detector=detector_label,
        series=series.name,
        n=n,
        train_len=train_len,
        batch_size=int(batch_size),
        slop=int(slop),
        max_delay=max_delay,
        window=None if window is None else int(window),
        refit_every=None if refit_every is None else int(refit_every),
        scores=scores,
        location=int(location),
        correct=correct,
        region=region,
        first_hit=first_hit,
        commit=commit,
        delay=delay,
        num_updates=len(running) if num_updates is None else int(num_updates),
        seconds=float(seconds),
        points_per_second=float(streamed / seconds) if seconds > 0 else 0.0,
        refit_policy=refit_policy,
        refits=int(refits),
        triggers=int(triggers),
    )


def replay(
    series: LabeledSeries,
    detector,
    *,
    batch_size: int = 1,
    max_delay: int | None = None,
    slop: int = 100,
    window: int | None = None,
    refit_every: int | None = None,
    refit_policy=None,
    label: str | None = None,
) -> ReplayTrace:
    """Stream one labeled series through a detector and trace it.

    ``detector`` may be a :class:`StreamingDetector`, a batch
    :class:`Detector`, a :class:`DetectorSpec` or a registry name
    (batch forms are adapted via :func:`~repro.stream.adapters.
    as_streaming` with ``window``/``refit_every``/``refit_policy`` —
    the latter a refit-policy spec string such as
    ``"drift(on='adwin')"``).  ``batch_size`` sets the micro-batch
    granularity: scores inside a batch may see up to ``batch_size − 1``
    points of "future" within it, the usual ingestion-buffer
    trade-off, and arrival times are batch-end times.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if max_delay is not None and max_delay < 0:
        raise ValueError(f"max_delay must be >= 0, got {max_delay}")
    resolved_label = label if label is not None else _detector_label(detector)
    streaming = as_streaming(
        detector,
        window=window,
        refit_every=refit_every,
        refit_policy=refit_policy,
    )

    values = series.values
    n = int(values.size)
    train_len = int(series.train_len)
    scores = np.full(n, -np.inf)
    _series_region(series, slop)  # fail fast before any points stream

    # a reused instance must not leak the previous series' stream state
    # (fit() resets too; the explicit call keeps the contract visible)
    streaming.reset()
    streaming.fit(series.train)

    registry = get_registry()
    append_seconds = registry.histogram(
        "replay_append_seconds", detector=resolved_label
    )
    points_counter = registry.counter("replay_points")
    tracer = get_tracer()

    num_updates = 0
    with tracer.span(
        "replay.cell",
        detector=resolved_label,
        series=series.name,
        batch_size=batch_size,
    ):
        started = time.perf_counter()
        for start in range(train_len, n, batch_size):
            stop = min(start + batch_size, n)
            append_started = time.perf_counter()
            batch_scores = np.asarray(
                streaming.update(values[start:stop]), dtype=float
            )
            append_seconds.observe(time.perf_counter() - append_started)
            if batch_scores.shape != (stop - start,):
                raise ValueError(
                    f"{resolved_label}: update returned shape "
                    f"{batch_scores.shape} for {stop - start} points"
                )
            scores[start:stop] = np.where(
                np.isnan(batch_scores), -np.inf, batch_scores
            )
            num_updates += 1
        seconds = time.perf_counter() - started
    points_counter.inc(n - train_len)
    registry.counter("replay_updates").inc(num_updates)

    refits = triggers = 0
    policy_label = None
    policy = getattr(streaming, "policy", None)
    if policy is not None:
        refits = int(policy.refits)
        triggers = int(policy.triggers)
        policy_label = streaming.refit_policy
    return trace_from_scores(
        series,
        scores,
        detector_label=resolved_label,
        batch_size=batch_size,
        max_delay=max_delay,
        slop=slop,
        window=window,
        refit_every=refit_every,
        refit_policy=policy_label,
        refits=refits,
        triggers=triggers,
        num_updates=num_updates,
        seconds=seconds,
    )


def replay_grid(
    archive: Archive,
    specs,
    *,
    batch_size: int = 1,
    max_delay: int | None = None,
    slop: int = 100,
    window: int | None = None,
    refit_every: int | None = None,
    refit_policy: str | None = None,
) -> list[ReplayTrace]:
    """Replay every spec × series cell, in deterministic grid order.

    A fresh streaming detector is built per cell (mirroring the batch
    engine's task isolation), so traces are independent and the grid
    order — specs in line-up order, series in archive order — is the
    only ordering in the output.  ``refit_policy`` must be a spec
    *string* here so each cell builds a fresh, stateless-at-start
    policy of its own.
    """
    if refit_policy is not None and not isinstance(refit_policy, str):
        raise ValueError(
            f"replay_grid takes a refit policy spec string (a shared "
            f"policy instance would leak state across cells), got "
            f"{refit_policy!r}"
        )
    parsed = [
        spec if isinstance(spec, DetectorSpec) else DetectorSpec.parse(spec)
        for spec in specs
    ]
    parsed = list(dict.fromkeys(parsed))
    if not parsed:
        raise ValueError("replay_grid needs at least one detector spec")
    if refit_policy is not None:
        # deferred import: repro.drift imports repro.stream.windows
        from ..drift.policies import validate_stream_options

        validate_stream_options(
            refit_every=refit_every, refit_policy=refit_policy
        )
    for spec in parsed:
        spec.build()  # fail fast on unknown names or bad params
    traces = []
    for spec in parsed:
        for series in archive.series:
            traces.append(
                replay(
                    series,
                    spec.build(),
                    batch_size=batch_size,
                    max_delay=max_delay,
                    slop=slop,
                    window=window,
                    refit_every=refit_every,
                    refit_policy=refit_policy,
                    label=spec.label,
                )
            )
    return traces
