"""Streaming detector protocol and batch-detector adapters.

A :class:`StreamingDetector` scores points *at arrival*: ``update``
receives the newly arrived values and returns one causal score per new
point, computed from the stream prefix alone.  Nothing here can read
the future — which is the entire point: the batch protocol everywhere
else in the repository hands detectors the whole series (hindsight Wu &
Keogh's §2.5 run-to-failure analysis shows benchmarks reward), and the
replay engine measures what that hindsight was worth.

Three ways to get one:

* :func:`as_streaming` wraps any registry :class:`~repro.detectors.base.
  Detector` (or spec, or name): the wrapper maintains the seen prefix
  and re-scores it on every update, returning only the scores of the
  newly arrived points.  ``window=`` bounds the re-scored suffix (and
  the cost) to the last so-many points; ``refit_policy=`` decides when
  the detector is refitted on everything seen so far (a
  :class:`~repro.drift.policies.RefitPolicy` or its spec string —
  fixed cadence, drift-triggered, or hybrid), with ``refit_every=k``
  kept as sugar for the fixed cadence ``fixed(every=k)``.
* :class:`StreamingMatrixProfileDetector` runs the incremental kernel
  (:class:`~repro.stream.profile.StreamingMatrixProfile`) natively —
  amortized O(n) per append instead of the wrapper's full re-score.
  :func:`as_streaming` routes ``matrix_profile`` specs here.
* :class:`StreamingZScoreDetector` is the causal one-liner exemplar:
  trailing mean/std through :class:`~repro.stream.windows.TrailingStats`
  at O(1) per point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..detectors.base import Detector
from ..detectors.matrix_profile import MatrixProfileDetector
from ..detectors.registry import DetectorSpec, make_detector
from ..obs import get_registry, get_tracer
from .profile import StreamingMatrixProfile
from .windows import TrailingExtremum, TrailingStats, prefixed, unprefixed

__all__ = [
    "StreamingDetector",
    "BatchStreamingAdapter",
    "StreamingMatrixProfileDetector",
    "StreamingZScoreDetector",
    "StreamingRangeDetector",
    "as_streaming",
]


class StreamingDetector(ABC):
    """Score points as they arrive, using only the prefix seen so far."""

    #: whether ``update([a, b])`` provably equals ``update([a]);
    #: update([b])`` — per-point recurrences (the natives) are; the
    #: generic re-scoring adapter is not (its score at ``t`` may read
    #: up to ``batch − 1`` points of within-batch future).  Consumers
    #: that merge pending micro-batches (the serve shard workers) may
    #: only coalesce when this is True, or they would change scores.
    batch_invariant: bool = False

    @property
    def name(self) -> str:
        return type(self).__name__

    @abstractmethod
    def reset(self) -> "StreamingDetector":
        """Discard every trace of the current stream.

        After ``reset`` the detector is indistinguishable from a freshly
        constructed one with the same parameters: no history, no warm
        statistics, no egress queues.  ``fit`` routes through it, and
        the replay engine calls it between series, so reusing one
        instance across streams can never leak state — the sharp edge
        that existed when only the native detectors restarted cleanly.
        """

    def fit(self, train: np.ndarray) -> "StreamingDetector":
        """(Re)start the stream from an anomaly-free training prefix.

        Implementations must :meth:`reset` any accumulated stream state
        before ingesting ``train`` — fitting is how one detector
        instance is reused across series, so leftover state from a
        previous stream would silently corrupt the next one's scores.
        """
        return self

    @abstractmethod
    def update(self, values: np.ndarray) -> np.ndarray:
        """Causal scores for the newly arrived ``values``, same length.

        Higher means more anomalous; points the method cannot score yet
        (warm-up, incomplete windows) must be ``-inf``, never NaN.
        """

    # -- snapshot support (repro.serve.state) -------------------------
    # A detector that can move between workers returns its parameters
    # and state, bit-exactly, from ``state() -> (scalars, arrays)`` and
    # is rebuilt by the classmethod ``from_state(scalars, arrays)``,
    # which raises ValueError("corrupt snapshot: ...") for state that no
    # sequence of appends can produce.

    def __repr__(self) -> str:
        return f"<{self.name}>"


class BatchStreamingAdapter(StreamingDetector):
    """Run a batch detector left-to-right without hindsight.

    Keeps the points seen so far (training prefix included, so windows
    spanning the train/test boundary are scored exactly as the batch
    protocol scores them) and on every update re-scores the prefix with
    the wrapped detector, emitting only the new points' scores — each
    is therefore computed as if the stream ended at its arrival.

    ``window`` bounds the re-scored suffix to the last so-many points
    (cost per update drops from O(prefix) to O(window); detectors whose
    score at ``t`` only reads a bounded neighbourhood are unaffected
    once ``window`` covers it).  Refits — the online-learning cadence
    TimeSeriesBench argues evaluation should control explicitly — are
    decided by a :class:`~repro.drift.policies.RefitPolicy` consulted
    once per update, before scoring: ``refit_every=k`` builds the
    fixed-cadence policy (byte-identical to the PR 5 counter it
    replaced), ``refit_policy=`` accepts any policy spec string
    (``"drift(on='adwin')"``, ``"hybrid(...)"``) or instance.
    """

    def __init__(
        self,
        detector: Detector,
        *,
        window: int | None = None,
        refit_every: int | None = None,
        refit_policy=None,
        spec: DetectorSpec | None = None,
    ) -> None:
        # deferred: repro.drift imports repro.stream.windows, so a
        # module-level import here would cycle through the package inits
        from ..drift.policies import parse_policy, validate_stream_options

        validate_stream_options(
            window=window, refit_every=refit_every, refit_policy=refit_policy
        )
        self.detector = detector
        self.window = None if window is None else int(window)
        self.refit_every = None if refit_every is None else int(refit_every)
        policy = parse_policy(refit_policy)
        if policy is None and self.refit_every is not None:
            from ..drift.policies import FixedCadence

            policy = FixedCadence(self.refit_every)
        self.policy = policy
        # the canonical policy spec, only when one was *asked for* —
        # refit_every sugar keeps this None so legacy traces, names and
        # snapshots are unchanged
        self.refit_policy = None if refit_policy is None else policy.spec
        # the registry spec the wrapped detector was built from, when
        # known — from_state rebuilds the batch detector from it, so
        # only spec-built adapters can migrate between workers
        self.spec = spec
        self._history = np.empty(0)
        self._fitted_len = 0  # leading history points of the last fit

    @property
    def name(self) -> str:
        return f"streaming[{self.detector.name}]"

    @property
    def num_refits(self) -> int:
        """Refits since :meth:`fit`: the policy's count, 0 without one."""
        return 0 if self.policy is None else self.policy.refits

    def reset(self) -> "BatchStreamingAdapter":
        self._history = np.empty(0)
        self._fitted_len = 0
        if self.policy is not None:
            self.policy.reset()
        return self

    def fit(self, train: np.ndarray) -> "BatchStreamingAdapter":
        self.reset()
        train = np.asarray(train, dtype=float)
        self.detector.fit(train)
        self._history = train.copy()
        self._fitted_len = int(train.size)
        return self

    def update(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.size == 0:
            return values.copy()
        self._history = np.concatenate([self._history, values])
        if self.policy is not None and self.policy.observe(values):
            with get_tracer().span(
                "stream.refit",
                detector=self.detector.name,
                policy=self.policy.spec,
                at=int(self._history.size),
            ):
                self.detector.fit(self._history)
            get_registry().counter(
                "stream_refits", detector=self.detector.name
            ).inc()
            self._fitted_len = int(self._history.size)
        scored = self._history
        if self.window is not None and scored.size > self.window:
            scored = scored[-self.window :]
        if scored.size < values.size:
            # a micro-batch larger than the window: score at least the
            # arrived points so every one of them gets a causal score
            scored = self._history[-values.size :]
        scores = np.asarray(self.detector.score(scored), dtype=float)
        if scores.shape != scored.shape:
            raise ValueError(
                f"{self.detector.name}.score returned shape {scores.shape}, "
                f"expected {scored.shape}"
            )
        tail = scores[-values.size :]
        return np.where(np.isnan(tail), -np.inf, tail)

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        if self.spec is None:
            raise ValueError(
                "cannot snapshot a BatchStreamingAdapter built from a bare "
                "detector instance; build it from a registry spec "
                "(as_streaming('name(...)')) so restore can rebuild the "
                "wrapped detector"
            )
        scalars = {
            "spec": self.spec.label,
            "window": self.window,
            "refit_every": self.refit_every,
            "fitted_len": self._fitted_len,
            "policy": self.refit_policy,
            "num_refits": self.num_refits,
        }
        arrays = {"history": self._history}
        if self.policy is not None:
            policy_scalars, policy_arrays = self.policy.state()
            scalars["policy_state"] = policy_scalars
            arrays.update(prefixed("policy_", policy_arrays))
        return scalars, arrays

    @classmethod
    def from_state(
        cls, scalars: dict, arrays: dict[str, np.ndarray]
    ) -> "BatchStreamingAdapter":
        spec = DetectorSpec.parse(scalars["spec"])
        adapter = cls(
            make_detector(spec),
            window=scalars["window"],
            refit_every=scalars["refit_every"],
            refit_policy=scalars["policy"],
            spec=spec,
        )
        history = np.array(arrays["history"], dtype=float)
        fitted_len = int(scalars["fitted_len"])
        if history.ndim != 1 or not 0 <= fitted_len <= history.size:
            raise ValueError(
                f"corrupt snapshot: the adapter's history must be 1-D with "
                f"0 <= fitted_len <= its length, got shape {history.shape} "
                f"and fitted_len {fitted_len}"
            )
        # refit on the recorded prefix: deterministic for every registry
        # detector, so the rebuilt batch state matches the captured one
        adapter.detector.fit(history[:fitted_len])
        adapter._history = history
        adapter._fitted_len = fitted_len
        if adapter.policy is not None:
            adapter.policy.load_state(
                scalars["policy_state"], unprefixed("policy_", arrays)
            )
        if scalars["num_refits"] != adapter.num_refits:
            raise ValueError(
                f"corrupt snapshot: the adapter's num_refits "
                f"{scalars['num_refits']!r} is not its policy's refits "
                f"{adapter.num_refits}"
            )
        return adapter


class StreamingMatrixProfileDetector(StreamingDetector):
    """Native incremental discord scores from the streaming kernel.

    The score of point ``t`` is the arrival-time nearest-neighbour
    distance of the window *ending* at ``t`` — exactly the score the
    batch detector's subsequence-to-point lifting assigns the newest
    point of a prefix, so wrapped-batch and native streaming agree
    within the kernel contract while the native path does O(prefix)
    work per point instead of re-running the O(prefix²) kernel.

    ``max_history`` bounds resident memory via the kernel's egress mode.
    """

    batch_invariant = True  # per-point append recurrence

    def __init__(
        self,
        w: int = 100,
        exclusion: int | None = None,
        max_history: int | None = None,
    ) -> None:
        self.w = w
        self.exclusion = exclusion
        self.max_history = max_history
        self._profile = StreamingMatrixProfile(
            w, exclusion, max_history=max_history
        )

    @property
    def name(self) -> str:
        return f"streaming[MatrixProfile(w={self.w})]"

    def reset(self) -> "StreamingMatrixProfileDetector":
        self._profile = StreamingMatrixProfile(
            self.w, self.exclusion, max_history=self.max_history
        )
        return self

    def fit(self, train: np.ndarray) -> "StreamingMatrixProfileDetector":
        """Restart the stream, seeded with the training prefix."""
        self.reset()
        train = np.asarray(train, dtype=float)
        if train.size:
            self._profile.append(train)
            if self.max_history is not None:
                self._profile.drain_egress()
        return self

    def update(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_1d(np.asarray(values, dtype=float))
        scores = np.full(values.size, -np.inf)
        if values.size == 0:
            return scores
        arrivals = self._profile.append(values)
        if self.max_history is not None:
            # the detector only reports arrival scores — discard the
            # egress queue so resident memory stays O(max_history)
            self._profile.drain_egress()
        if arrivals.size:
            # window j completes at point j + w - 1: the last len(arrivals)
            # appended points each completed exactly one window
            finite = np.where(np.isfinite(arrivals), arrivals, -np.inf)
            scores[values.size - arrivals.size :] = finite
        return scores

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        scalars, arrays = self._profile.state()
        scalars["detector_w"] = self.w
        scalars["detector_exclusion"] = self.exclusion
        scalars["detector_max_history"] = self.max_history
        return scalars, arrays

    @classmethod
    def from_state(
        cls, scalars: dict, arrays: dict[str, np.ndarray]
    ) -> "StreamingMatrixProfileDetector":
        exclusion = scalars["detector_exclusion"]
        max_history = scalars["detector_max_history"]
        detector = cls(
            w=int(scalars["detector_w"]),
            exclusion=None if exclusion is None else int(exclusion),
            max_history=None if max_history is None else int(max_history),
        )
        detector._profile = StreamingMatrixProfile.from_state(scalars, arrays)
        return detector


class StreamingZScoreDetector(StreamingDetector):
    """Causal z-score against a trailing window, O(1) per point.

    The streaming-native counterpart of the registry's centered
    ``moving_zscore`` one-liner: same score shape, but the window ends
    at the scored point instead of being centered on it.
    """

    batch_invariant = True  # per-point trailing recurrence

    def __init__(self, k: int = 50, epsilon: float = 1e-9) -> None:
        if k < 3:
            raise ValueError(f"window must be >= 3, got {k}")
        self.k = k
        self.epsilon = epsilon
        self._stats = TrailingStats(k)

    @property
    def name(self) -> str:
        return f"streaming[ZScore(k={self.k})]"

    def reset(self) -> "StreamingZScoreDetector":
        self._stats = TrailingStats(self.k)
        return self

    def fit(self, train: np.ndarray) -> "StreamingZScoreDetector":
        self.reset()
        for value in np.asarray(train, dtype=float):
            self._stats.push(value)
        return self

    def update(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_1d(np.asarray(values, dtype=float))
        scores = np.empty(values.size)
        for index, value in enumerate(values):
            mean, std = self._stats.push(value)
            scores[index] = abs(value - mean) / (std + self.epsilon)
        return scores

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        scalars, arrays = self._stats.state()
        return {"k": self.k, "epsilon": self.epsilon, **scalars}, arrays

    @classmethod
    def from_state(
        cls, scalars: dict, arrays: dict[str, np.ndarray]
    ) -> "StreamingZScoreDetector":
        detector = cls(k=int(scalars["k"]), epsilon=float(scalars["epsilon"]))
        detector._stats.load_state(scalars, arrays)
        return detector


class StreamingRangeDetector(StreamingDetector):
    """Causal one-liner: trailing ``movmax − movmin`` at O(1) per point.

    The paper's Table-1 one-liners lean on ``movmax``/``movmin``
    primitives; this is their streaming-native shape — two monotonic
    deques (:class:`~repro.stream.windows.TrailingExtremum`) give the
    trailing range of the last ``k`` points in amortized O(1) per
    arrival, so the detector keeps up with any ingestion rate.  A
    spike or level shift widens the trailing range the moment it
    arrives.
    """

    batch_invariant = True  # per-point trailing recurrence

    def __init__(self, k: int = 50) -> None:
        if k < 2:
            raise ValueError(f"window must be >= 2, got {k}")
        self.k = k
        self._high = TrailingExtremum(k)
        self._low = TrailingExtremum(k, minimum=True)

    @property
    def name(self) -> str:
        return f"streaming[Range(k={self.k})]"

    def reset(self) -> "StreamingRangeDetector":
        self._high = TrailingExtremum(self.k)
        self._low = TrailingExtremum(self.k, minimum=True)
        return self

    def fit(self, train: np.ndarray) -> "StreamingRangeDetector":
        self.reset()
        for value in np.asarray(train, dtype=float):
            self._high.push(value)
            self._low.push(value)
        return self

    def update(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_1d(np.asarray(values, dtype=float))
        scores = np.empty(values.size)
        for index, value in enumerate(values):
            scores[index] = self._high.push(value) - self._low.push(value)
        return scores

    def _extrema(self) -> "tuple[tuple[str, TrailingExtremum], ...]":
        return (("high_", self._high), ("low_", self._low))

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        scalars, arrays = {"k": self.k}, {}
        for prefix, extremum in self._extrema():
            part_scalars, part_arrays = extremum.state()
            scalars.update(prefixed(prefix, part_scalars))
            arrays.update(prefixed(prefix, part_arrays))
        return scalars, arrays

    @classmethod
    def from_state(
        cls, scalars: dict, arrays: dict[str, np.ndarray]
    ) -> "StreamingRangeDetector":
        detector = cls(k=int(scalars["k"]))
        for prefix, extremum in detector._extrema():
            extremum.load_state(
                unprefixed(prefix, scalars), unprefixed(prefix, arrays)
            )
        return detector


# streaming-native specs: names resolvable by as_streaming (and hence
# the replay CLI and the serve API) that have no batch counterpart in
# the registry — the spec's params go straight to the constructor
NATIVE_STREAMING = {
    "streaming_matrix_profile": StreamingMatrixProfileDetector,
    "streaming_zscore": StreamingZScoreDetector,
    "streaming_range": StreamingRangeDetector,
}


def as_streaming(
    detector,
    *,
    window: int | None = None,
    refit_every: int | None = None,
    refit_policy=None,
) -> StreamingDetector:
    """Turn a detector, spec or registry name into a streaming detector.

    A :class:`StreamingDetector` passes through unchanged (the options
    must then be left at their defaults).  ``matrix_profile`` detectors
    route to the native incremental kernel, with ``window`` becoming the
    kernel's bounded ``max_history``; the :data:`NATIVE_STREAMING` names
    (``streaming_zscore(k=40)`` and friends) construct the streaming-
    native detectors directly; everything else gets the generic
    re-scoring :class:`BatchStreamingAdapter`.  ``refit_every=k`` and
    ``refit_policy=`` (a policy spec string or
    :class:`~repro.drift.policies.RefitPolicy`) are mutually exclusive
    ways to schedule refits on the generic adapter.
    """
    if isinstance(detector, StreamingDetector):
        if window is not None or refit_every is not None or (
            refit_policy is not None
        ):
            raise ValueError(
                "window/refit_every/refit_policy have no effect on an "
                "already-streaming detector"
            )
        return detector
    spec = None
    if isinstance(detector, str):
        # full spec-string syntax, same as the CLI: "matrix_profile(w=64)"
        detector = DetectorSpec.parse(detector)
    if isinstance(detector, DetectorSpec):
        if detector.name in NATIVE_STREAMING:
            if window is not None or refit_every is not None or (
                refit_policy is not None
            ):
                raise ValueError(
                    f"{detector.name} is streaming-native; parameterize "
                    f"it through spec params, not window/refit_every/"
                    f"refit_policy"
                )
            return NATIVE_STREAMING[detector.name](**dict(detector.params))
        spec = detector
        detector = make_detector(detector)
    if not isinstance(detector, Detector):
        raise TypeError(
            f"cannot stream {detector!r}; expected a Detector, spec or "
            f"registry name"
        )
    if (
        isinstance(detector, MatrixProfileDetector)
        and refit_every is None
        and refit_policy is None
    ):
        if detector.approx is not None:
            # the incremental kernel is exact; building it would score
            # as matrix_profile without approx under this spec's label
            raise ValueError(
                f"approx={detector.approx!r} has no streaming kernel: the "
                f"incremental matrix profile is exact; drop approx, or set "
                f"a refit policy to re-score with the batch detector"
            )
        try:
            return StreamingMatrixProfileDetector(
                w=detector.w, exclusion=detector.exclusion, max_history=window
            )
        except ValueError as error:
            # the kernel names its own max_history parameter; the caller
            # set it through `window` (the CLI flag), so say that
            raise ValueError(
                str(error).replace("max_history", "window")
            ) from None
    return BatchStreamingAdapter(
        detector,
        window=window,
        refit_every=refit_every,
        refit_policy=refit_policy,
        spec=spec,
    )
