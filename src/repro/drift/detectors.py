"""Streaming concept-drift detectors.

The streaming stack (PRs 5–8) scores anomalies under the most
flattering assumption of all — stationarity.  These detectors watch the
*input distribution* of a stream and flag when it has changed, so refit
policies (:mod:`repro.drift.policies`) can react instead of running on
a fixed cadence.  Three classical families, all riding the trailing-
window primitives of :mod:`repro.stream.windows` and their shifted-sum
cancellation guard:

* :class:`PageHinkley` — Page's cumulative-deviation test (the same
  1957 lineage as the registry's ``cusum`` scorer), two-sided and
  self-normalizing: deviations are divided by the running std of the
  stream since the last (re)start, so thresholds are scale-free and a
  ``1e9 ± 1e-6`` stream behaves exactly like a unit-scale one.
* :class:`AdwinLite` — an ADWIN-style adaptive window over an
  exponential bucket histogram: O(log n) buckets of shifted
  (count, sum, sum-of-squares) triples, cut with the variance-aware
  Hoeffding bound from Bifet & Gavaldà's ADWIN2.  A cut *is* the drift
  signal, and dropping the stale buckets is the built-in recovery.
* :class:`ZShift` — a two-window Welch z-test: a recent
  :class:`~repro.stream.windows.TrailingStats` window against a lagged
  reference window (values age through a delay line into the
  reference), flagging mean shifts in standard-error units and variance
  shifts by ratio.

Contract, shared by all three and property-tested in
``tests/test_drift_detectors.py``:

* ``push(value) -> bool`` — one point in, one verdict out;
* ``update(values)`` is definitionally ``[push(v) for v in values]``,
  so decisions are invariant to chunk boundaries;
* a ``True`` verdict restarts the detector's baseline (the stream's
  new regime becomes normal), which also bounds the flag rate
  structurally: no detector can flag twice within its warm-up;
* ``reset()`` returns the detector to its freshly-constructed state;
* everything is sequential float arithmetic — deterministic to the bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter, deque

import numpy as np

from ..detectors.registry import DetectorSpec
from ..stream.windows import TrailingStats, prefixed, unprefixed

__all__ = [
    "DriftDetector",
    "PageHinkley",
    "AdwinLite",
    "ZShift",
    "DRIFT_DETECTORS",
    "make_drift_detector",
]

_EPS = 1e-12


class DriftDetector(ABC):
    """Flag distribution change in a stream, one point at a time."""

    @property
    def name(self) -> str:
        return type(self).__name__

    @property
    @abstractmethod
    def spec(self) -> str:
        """Canonical spec string; ``make_drift_detector`` parses it back."""

    @abstractmethod
    def reset(self) -> "DriftDetector":
        """Return to the freshly-constructed state."""

    @abstractmethod
    def push(self, value: float) -> bool:
        """Ingest one point; True when drift is flagged at this point."""

    def update(self, values: np.ndarray) -> np.ndarray:
        """Per-point verdicts for a batch — literally a loop of ``push``,
        which is what makes chunk-boundary invariance a non-theorem."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        flags = np.zeros(values.size, dtype=bool)
        for index, value in enumerate(values):
            flags[index] = self.push(float(value))
        return flags

    # -- snapshot support (repro.serve.state) -------------------------

    @abstractmethod
    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(scalars, arrays)`` capturing the mutable state bit-exactly."""

    @abstractmethod
    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state` on a same-parameter instance."""

    def __repr__(self) -> str:
        return f"<{self.spec}>"


class PageHinkley(DriftDetector):
    """Two-sided Page–Hinkley test on self-normalized deviations.

    Maintains the running mean/std of the stream since the last
    (re)start through shifted sums (the
    :class:`~repro.stream.windows.TrailingStats` cancellation guard,
    unbounded), standardizes each deviation by the running std, and
    accumulates the classic PH statistic on both sides.  Drift is
    flagged when the cumulative statistic leaves its historical extreme
    by more than ``threshold`` (in std units); ``delta`` is the usual
    magnitude allowance that drags the statistic back under
    stationarity.  Isolated spikes move the statistic once and are then
    absorbed into the running std, so the default threshold survives
    the archive's ±30σ one-point spikes without firing.
    """

    def __init__(
        self,
        delta: float = 0.05,
        threshold: float = 50.0,
        min_count: int = 32,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if min_count < 2:
            raise ValueError(f"min_count must be >= 2, got {min_count}")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_count = int(min_count)
        self.reset()

    @property
    def spec(self) -> str:
        return DetectorSpec.create(
            "page_hinkley",
            delta=self.delta,
            threshold=self.threshold,
            min_count=self.min_count,
        ).label

    def reset(self) -> "PageHinkley":
        self._count = 0
        self._shift: float | None = None
        self._sum = 0.0
        self._sum_sq = 0.0
        self._up = 0.0
        self._up_min = 0.0
        self._down = 0.0
        self._down_max = 0.0
        return self

    def push(self, value: float) -> bool:
        value = float(value)
        if self._shift is None:
            self._shift = value
        shifted = value - self._shift
        self._count += 1
        self._sum += shifted
        self._sum_sq += shifted * shifted
        mean = self._sum / self._count
        variance = max(self._sum_sq / self._count - mean * mean, 0.0)
        z = (shifted - mean) / (math.sqrt(variance) + _EPS)
        self._up += z - self.delta
        self._up_min = min(self._up_min, self._up)
        self._down += z + self.delta
        self._down_max = max(self._down_max, self._down)
        if self._count >= self.min_count and (
            self._up - self._up_min > self.threshold
            or self._down_max - self._down > self.threshold
        ):
            # the new regime becomes the baseline — restart everything
            self.reset()
            return True
        return False

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return (
            {
                "count": self._count,
                "shift": self._shift,
                "sum": self._sum,
                "sum_sq": self._sum_sq,
                "up": self._up,
                "up_min": self._up_min,
                "down": self._down,
                "down_max": self._down_max,
            },
            {},
        )

    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        self._count = int(scalars["count"])
        self._shift = (
            None if scalars["shift"] is None else float(scalars["shift"])
        )
        self._sum = float(scalars["sum"])
        self._sum_sq = float(scalars["sum_sq"])
        self._up = float(scalars["up"])
        self._up_min = float(scalars["up_min"])
        self._down = float(scalars["down"])
        self._down_max = float(scalars["down_max"])


class AdwinLite(DriftDetector):
    """ADWIN-style adaptive window with the variance-aware cut bound.

    The window of recent points is summarized as an exponential bucket
    histogram — at most ``max_buckets`` buckets per power-of-two size,
    each a shifted ``(count, sum, sum_sq)`` triple, so memory is
    O(log n) however long the stream runs.  On every push the detector
    looks for a split of the window into old|new halves whose means
    differ by more than ADWIN2's bound

        eps = sqrt((2/m) σ²_W ln(2n/δ)) + (2/(3m)) ln(2n/δ)

    (``m`` the harmonic mean of the side lengths, ``σ²_W`` the window
    variance — the variance term is what keeps ±30σ one-point spikes
    from firing it).  A successful cut drops the oldest bucket, flags
    drift, and re-checks; the surviving window *is* the new baseline.
    """

    def __init__(
        self,
        delta: float = 0.002,
        max_buckets: int = 5,
        min_window: int = 32,
        min_side: int = 8,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {max_buckets}")
        if min_side < 1:
            raise ValueError(f"min_side must be >= 1, got {min_side}")
        if min_window < 2 * min_side:
            raise ValueError(
                f"min_window must be >= 2 * min_side, got {min_window}"
            )
        self.delta = float(delta)
        self.max_buckets = int(max_buckets)
        self.min_window = int(min_window)
        self.min_side = int(min_side)
        self.reset()

    @property
    def spec(self) -> str:
        return DetectorSpec.create(
            "adwin",
            delta=self.delta,
            max_buckets=self.max_buckets,
            min_window=self.min_window,
            min_side=self.min_side,
        ).label

    def reset(self) -> "AdwinLite":
        self._shift: float | None = None
        # oldest-first [count, sum, sum_sq]; counts are powers of two,
        # non-increasing toward the tail (the newest, smallest buckets)
        self._buckets: list[list[float]] = []
        return self

    @property
    def width(self) -> int:
        """Points currently inside the adaptive window."""
        return int(sum(bucket[0] for bucket in self._buckets))

    def push(self, value: float) -> bool:
        value = float(value)
        if self._shift is None:
            self._shift = value
        shifted = value - self._shift
        self._buckets.append([1, shifted, shifted * shifted])
        self._compress()
        return self._detect()

    def _compress(self) -> None:
        buckets = self._buckets
        i = len(buckets) - 1
        while i >= 0:
            size = buckets[i][0]
            j = i
            while j >= 0 and buckets[j][0] == size:
                j -= 1
            if i - j > self.max_buckets:
                # merge the two oldest buckets of this size; the merged
                # bucket joins the next size up, which may now overflow
                first, second = buckets[j + 1], buckets[j + 2]
                buckets[j + 1 : j + 3] = [
                    [
                        first[0] + second[0],
                        first[1] + second[1],
                        first[2] + second[2],
                    ]
                ]
                i = j + 1
            else:
                i = j

    def _detect(self) -> bool:
        shrunk = False
        while len(self._buckets) > 1:
            total_n = 0.0
            total_sum = 0.0
            total_sq = 0.0
            for count, total, square in self._buckets:
                total_n += count
                total_sum += total
                total_sq += square
            if total_n < self.min_window:
                break
            mean_w = total_sum / total_n
            var_w = max(total_sq / total_n - mean_w * mean_w, 0.0)
            log_term = math.log(2.0 * total_n / self.delta)
            cut = False
            n0 = s0 = 0.0
            for count, total, _ in self._buckets[:-1]:
                n0 += count
                s0 += total
                n1 = total_n - n0
                if n0 < self.min_side or n1 < self.min_side:
                    continue
                harmonic = 1.0 / (1.0 / n0 + 1.0 / n1)
                eps = math.sqrt(
                    (2.0 / harmonic) * var_w * log_term
                ) + (2.0 / (3.0 * harmonic)) * log_term
                if abs(s0 / n0 - (total_sum - s0) / n1) > eps:
                    self._buckets.pop(0)
                    shrunk = cut = True
                    break
            if not cut:
                break
        return shrunk

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return (
            {"shift": self._shift},
            {
                "bucket_counts": np.asarray(
                    [bucket[0] for bucket in self._buckets], dtype=np.int64
                ),
                "bucket_sums": np.asarray(
                    [bucket[1] for bucket in self._buckets], dtype=float
                ),
                "bucket_sum_sqs": np.asarray(
                    [bucket[2] for bucket in self._buckets], dtype=float
                ),
            },
        )

    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        columns = [
            np.asarray(arrays[name])
            for name in ("bucket_counts", "bucket_sums", "bucket_sum_sqs")
        ]
        counts = columns[0]
        # a push appends a size-1 bucket at the newest end and merges the
        # two oldest buckets of a size that then holds more than
        # max_buckets; a cut only drops the oldest bucket, and the first
        # push sets the shift
        if not (
            counts.ndim == 1
            and all(column.shape == counts.shape for column in columns)
            and counts.dtype.kind in "iu"
            and all(count > 0 and count & (count - 1) == 0 for count in counts)
            and all(old >= new for old, new in zip(counts, counts[1:]))
            and max(Counter(counts.tolist()).values(), default=0)
            <= self.max_buckets
            and (scalars["shift"] is None) == (counts.size == 0)
        ):
            raise ValueError(
                "corrupt snapshot: adwin's buckets are not a histogram "
                "that pushes produce"
            )
        self._shift = (
            None if scalars["shift"] is None else float(scalars["shift"])
        )
        self._buckets = [
            [int(count), float(total), float(square)]
            for count, total, square in zip(*columns)
        ]


class ZShift(DriftDetector):
    """Two-window Welch z-test: recent window vs lagged reference.

    Arriving values enter a delay line of length ``recent`` (whose
    contents are exactly the recent :class:`~repro.stream.windows.
    TrailingStats` window); values aging out of it feed the reference
    window, so the two never overlap.  Once both windows are full the
    detector flags when the window means differ by more than
    ``threshold`` standard errors (Welch's unequal-variance form —
    scale-free by construction) or when the window stds differ by more
    than a factor of ``var_ratio``.  The default ratio is high enough
    that one ±30σ spike (which inflates a 48-point window's std about
    4.4×) does not fire it; tighter ratios are a deliberate sensitivity
    choice for variance-drift-heavy deployments.  A flag restarts both
    windows, so flags are structurally at least
    ``recent + reference`` points apart.
    """

    def __init__(
        self,
        recent: int = 48,
        reference: int = 192,
        threshold: float = 4.0,
        var_ratio: float = 6.0,
    ) -> None:
        if recent < 2:
            raise ValueError(f"recent must be >= 2, got {recent}")
        if reference < recent:
            raise ValueError(
                f"reference must be >= recent, got {reference} < {recent}"
            )
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if var_ratio <= 1:
            raise ValueError(f"var_ratio must be > 1, got {var_ratio}")
        self.recent = int(recent)
        self.reference = int(reference)
        self.threshold = float(threshold)
        self.var_ratio = float(var_ratio)
        self.reset()

    @property
    def spec(self) -> str:
        return DetectorSpec.create(
            "zshift",
            recent=self.recent,
            reference=self.reference,
            threshold=self.threshold,
            var_ratio=self.var_ratio,
        ).label

    def reset(self) -> "ZShift":
        self._delay: deque[float] = deque()
        self._recent = TrailingStats(self.recent)
        self._reference = TrailingStats(self.reference)
        self._recent_mean = 0.0
        self._recent_std = 0.0
        self._ref_mean = 0.0
        self._ref_std = 0.0
        return self

    def push(self, value: float) -> bool:
        value = float(value)
        evicted = None
        if len(self._delay) == self.recent:
            evicted = self._delay.popleft()
        self._delay.append(value)
        self._recent_mean, self._recent_std = self._recent.push(value)
        if evicted is not None:
            self._ref_mean, self._ref_std = self._reference.push(evicted)
        if self._reference.count < self.reference:
            return False
        delta_mean = self._recent_mean - self._ref_mean
        stderr = math.sqrt(
            self._ref_std**2 / self.reference
            + self._recent_std**2 / self.recent
        )
        if stderr > 0:
            mean_shift = abs(delta_mean) > self.threshold * stderr
        else:
            mean_shift = delta_mean != 0.0
        var_shift = (
            self._recent_std > self.var_ratio * self._ref_std
            or self._ref_std > self.var_ratio * self._recent_std
        )
        if mean_shift or var_shift:
            self.reset()
            return True
        return False

    def _windows(self) -> "tuple[tuple[str, TrailingStats], ...]":
        return (("recent_", self._recent), ("reference_", self._reference))

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        scalars = {
            "recent_mean": self._recent_mean,
            "recent_std": self._recent_std,
            "ref_mean": self._ref_mean,
            "ref_std": self._ref_std,
        }
        arrays = {"delay": np.asarray(self._delay, dtype=float)}
        for prefix, stats in self._windows():
            stats_scalars, stats_arrays = stats.state()
            scalars.update(prefixed(prefix, stats_scalars))
            arrays.update(prefixed(prefix, stats_arrays))
        return scalars, arrays

    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        self._delay = deque(float(value) for value in arrays["delay"])
        for prefix, stats in self._windows():
            stats.load_state(
                unprefixed(prefix, scalars), unprefixed(prefix, arrays)
            )
        # the delay line holds the recent window's values: a longer one
        # would never feed the reference window again
        if len(self._delay) != self._recent.count:
            raise ValueError(
                "corrupt snapshot: zshift's delay line does not match its "
                "recent window"
            )
        self._recent_mean = float(scalars["recent_mean"])
        self._recent_std = float(scalars["recent_std"])
        self._ref_mean = float(scalars["ref_mean"])
        self._ref_std = float(scalars["ref_std"])


#: name → class, the drift counterpart of the detector registry
DRIFT_DETECTORS: dict[str, type[DriftDetector]] = {
    "page_hinkley": PageHinkley,
    "adwin": AdwinLite,
    "zshift": ZShift,
}


def make_drift_detector(spec: "str | DetectorSpec | DriftDetector") -> DriftDetector:
    """Build a drift detector from a spec string, spec, or instance.

    Spec syntax is the registry's: ``"adwin"``, ``"zshift(recent=64,
    threshold=3.5)"``, ...  An instance passes through unchanged.
    """
    if isinstance(spec, DriftDetector):
        return spec
    if isinstance(spec, str):
        spec = DetectorSpec.parse(spec)
    if not isinstance(spec, DetectorSpec):
        raise TypeError(
            f"cannot build a drift detector from {spec!r}; expected a "
            f"spec string, DetectorSpec or DriftDetector"
        )
    try:
        factory = DRIFT_DETECTORS[spec.name]
    except KeyError:
        raise ValueError(
            f"unknown drift detector {spec.name!r}; available: "
            f"{sorted(DRIFT_DETECTORS)}"
        ) from None
    return factory(**dict(spec.params))
