"""O(1)-per-point trailing-window primitives for streaming detectors.

The one-liner layer's ``movmax``/``movmin``/``movmean``/``movstd`` are
*centered* windows — they read the future, which is exactly the
hindsight the streaming subsystem exists to deny.  These are their
causal counterparts: each maintains a trailing window of the last ``k``
points with amortized O(1) work per appended point, so a one-liner-
shaped detector can run left-to-right at ingestion speed.

* :class:`TrailingExtremum` is the classic monotonic deque (ascending
  for minima, descending for maxima): every point is pushed and popped
  at most once, so a stream of n points costs O(n) total whatever the
  window is.  This is the sequential counterpart of the vectorized
  Gil-Werman sweep in :mod:`repro.detectors.sliding` — the batch form
  needs the whole series, the deque needs only the last ``k`` points.
* :class:`TrailingStats` keeps running sums of the shifted values and
  their squares (shift fixed at the first point, guarding the variance
  subtraction against catastrophic cancellation the same way
  :class:`~repro.detectors.sliding.SlidingStats` does).

Both carry their own snapshot state: ``state()`` returns ``(scalars,
arrays)`` and ``load_state`` restores them into a same-``k`` instance,
refusing state that no sequence of pushes can produce.  An object built
from several parts nests each part's state under a key prefix
(:func:`prefixed` / :func:`unprefixed`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["TrailingExtremum", "TrailingStats", "prefixed", "unprefixed"]


def prefixed(prefix: str, mapping: dict) -> dict:
    """``mapping`` with ``prefix`` put before every key."""
    return {prefix + key: value for key, value in mapping.items()}


def unprefixed(prefix: str, mapping: dict) -> dict:
    """The entries of ``mapping`` whose key starts with ``prefix``, with
    the prefix taken off: the inverse of :func:`prefixed`."""
    return {
        key[len(prefix) :]: value
        for key, value in mapping.items()
        if key.startswith(prefix)
    }


class TrailingExtremum:
    """Running max (or min) of the last ``k`` points, O(1) amortized."""

    def __init__(self, k: int, *, minimum: bool = False) -> None:
        if k < 1:
            raise ValueError(f"window length must be >= 1, got {k}")
        self.k = int(k)
        self.minimum = minimum
        self._deque: deque[tuple[int, float]] = deque()
        self._count = 0

    def push(self, value: float) -> float:
        """Ingest one point; return the extremum of the last ``k``."""
        value = float(value)
        if self.minimum:
            while self._deque and self._deque[-1][1] >= value:
                self._deque.pop()
        else:
            while self._deque and self._deque[-1][1] <= value:
                self._deque.pop()
        self._deque.append((self._count, value))
        self._count += 1
        if self._deque[0][0] <= self._count - 1 - self.k:
            self._deque.popleft()
        return self._deque[0][1]

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(scalars, arrays)`` capturing the mutable state bit-exactly."""
        return (
            {"count": self._count},
            {
                "idx": np.asarray(
                    [index for index, _ in self._deque], dtype=np.int64
                ),
                "val": np.asarray(
                    [value for _, value in self._deque], dtype=float
                ),
            },
        )

    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state` on a same-``k`` instance."""
        count = int(scalars["count"])
        indices = [int(index) for index in np.ravel(arrays["idx"])]
        values = np.asarray(arrays["val"], dtype=float)
        # every push appends its own index and drops indices that left
        # the window, so the deque's indices rise strictly, the newest
        # is count - 1, and none is older than count - k
        if not (
            np.ndim(arrays["idx"]) == 1
            and values.shape == (len(indices),)
            and all(a < b for a, b in zip(indices, indices[1:]))
            and (
                indices[-1] == count - 1 and indices[0] >= count - self.k
                if indices
                else count == 0
            )
        ):
            raise ValueError(
                "corrupt snapshot: the trailing extremum's indices do not "
                "fit its count and window"
            )
        self._count = count
        self._deque = deque(zip(indices, values.tolist()))


class TrailingStats:
    """Running mean/std of the last ``k`` points, O(1) per point."""

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError(f"window length must be >= 2, got {k}")
        self.k = int(k)
        self._window: deque[float] = deque()
        self._shift: float | None = None
        self._sum = 0.0
        self._sum_sq = 0.0

    @property
    def count(self) -> int:
        """Points currently inside the (possibly still filling) window."""
        return len(self._window)

    def push(self, value: float) -> tuple[float, float]:
        """Ingest one point; return ``(mean, std)`` of the last ``k``.

        While the window is still filling the statistics cover the
        points seen so far (the trailing analogue of MATLAB's shrinking
        endpoints).
        """
        if self._shift is None:
            self._shift = float(value)
        shifted = float(value) - self._shift
        self._window.append(shifted)
        self._sum += shifted
        self._sum_sq += shifted * shifted
        if len(self._window) > self.k:
            old = self._window.popleft()
            self._sum -= old
            self._sum_sq -= old * old
        count = len(self._window)
        mean = self._sum / count
        variance = max(self._sum_sq / count - mean * mean, 0.0)
        return mean + self._shift, float(np.sqrt(variance))

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(scalars, arrays)`` capturing the mutable state bit-exactly."""
        return (
            {"shift": self._shift, "sum": self._sum, "sum_sq": self._sum_sq},
            {"window": np.asarray(self._window, dtype=float)},
        )

    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state` on a same-``k`` instance."""
        window = np.asarray(arrays["window"], dtype=float)
        if window.ndim != 1 or window.size > self.k:
            raise ValueError(
                f"corrupt snapshot: a trailing window of k={self.k} must "
                f"be 1-D with at most k values, got shape {window.shape}"
            )
        shift = scalars["shift"]
        self._shift = None if shift is None else float(shift)
        self._sum = float(scalars["sum"])
        self._sum_sq = float(scalars["sum_sq"])
        self._window = deque(window.tolist())
