"""Detector protocol.

Every detector maps a series to a per-point anomaly score (higher = more
anomalous) and supports the UCR protocol of returning the single most
likely anomaly location.  Training is optional: detectors that need a
clean prefix (Telemanom, kNN) use it; parameter-free methods (discords)
ignore it — mirroring Fig 13's caption, "Discord uses no training data".
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..types import LabeledSeries

__all__ = ["Detector"]


class Detector(ABC):
    """Base class: ``fit`` on a clean prefix, ``score`` any series."""

    @property
    def name(self) -> str:
        """Display name; defaults to the class name."""
        return type(self).__name__

    def fit(self, train: np.ndarray) -> "Detector":
        """Learn from an anomaly-free prefix.  Default: no-op."""
        return self

    @abstractmethod
    def score(self, values: np.ndarray) -> np.ndarray:
        """Per-point anomaly scores, same length as ``values``.

        Higher means more anomalous.  Points the method cannot score
        (warm-up regions, subsequence tails) must be ``-inf`` or the
        method's minimum, never NaN.
        """

    def locate(self, series: LabeledSeries) -> int:
        """UCR protocol: index of the most anomalous point in the test
        region, in full-series coordinates.

        Fits on the series' training prefix, scores the whole series and
        masks the training region out of the argmax.
        """
        self.fit(series.train)
        return self._test_argmax(series, self.score(series.values))

    def _test_argmax(self, series: LabeledSeries, scores) -> int:
        """The protocol's location from per-point ``scores``: their
        argmax over the test region, a NaN read as ``-inf``."""
        scores = np.asarray(scores, dtype=float)
        if scores.shape != series.values.shape:
            raise ValueError(
                f"{self.name}.score returned shape {scores.shape}, "
                f"expected {series.values.shape}"
            )
        scores = np.where(np.isnan(scores), -np.inf, scores)
        scores[: series.train_len] = -np.inf
        return int(np.argmax(scores))

    def __repr__(self) -> str:
        return f"<{self.name}>"
