"""Sliding-window k-nearest-neighbour distance detector.

The "decade-old simple ideas" the paper urges the community to remember
(§4.5): score each test subsequence by its distance to the k-th nearest
subsequence of the anomaly-free training prefix.  With z-normalization
this is the classic nearest-neighbour novelty detector that discord
papers compare against.
"""

from __future__ import annotations

import numpy as np

from .base import Detector
from .matrix_profile import (
    _cell_thread,
    _check_stop,
    subsequence_to_point_scores,
)

__all__ = ["KnnDistanceDetector"]

_EPS = 1e-12


def _window_matrix(values: np.ndarray, w: int, znorm: bool) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(
        np.asarray(values, dtype=float), w
    )
    if not znorm:
        return np.ascontiguousarray(windows)
    mean = windows.mean(axis=1, keepdims=True)
    std = windows.std(axis=1, keepdims=True)
    return (windows - mean) / np.maximum(std, _EPS)


class KnnDistanceDetector(Detector):
    """Distance of each subsequence to its k-th nearest train subsequence."""

    def __init__(
        self,
        w: int = 100,
        k: int = 1,
        znorm: bool = True,
        train_stride: int = 1,
        chunk: int = 512,
    ) -> None:
        if w < 2:
            raise ValueError(f"window must be >= 2, got {w}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.w = w
        self.k = k
        self.znorm = znorm
        self.train_stride = train_stride
        self.chunk = chunk
        self._train_windows: np.ndarray | None = None
        self._train_sq: np.ndarray | None = None

    @property
    def name(self) -> str:
        return f"kNN(w={self.w},k={self.k})"

    def fit(self, train: np.ndarray) -> "KnnDistanceDetector":
        train = np.asarray(train, dtype=float)
        if train.size >= self.w + self.k:
            windows = _window_matrix(train, self.w, self.znorm)
            self._train_windows = np.ascontiguousarray(windows[:: self.train_stride])
            # squared norms for the ‖a−b‖² = ‖a‖² − 2a·b + ‖b‖² expansion:
            # query-independent, so they belong to fit(), not score()
            self._train_sq = np.einsum(
                "ij,ij->i", self._train_windows, self._train_windows
            )
        return self

    def score(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        n = values.size
        if self._train_windows is None:
            # untrained fallback: treat the leading third as reference
            split = max(self.w + self.k, n // 3)
            self.fit(values[:split])
        if self._train_windows is None or n < self.w:
            return np.full(n, -np.inf)
        reference = self._train_windows
        queries = _window_matrix(values, self.w, self.znorm)
        ref_sq = self._train_sq
        kth = min(self.k, reference.shape[0]) - 1
        distances = np.empty(queries.shape[0])
        stop = _cell_thread.stop
        for start in range(0, queries.shape[0], self.chunk):
            # on an engine cell thread, a run that unwound ends the cell
            _check_stop(stop)
            block = queries[start : start + self.chunk]
            block_sq = np.einsum("ij,ij->i", block, block)
            sq = block_sq[:, None] + ref_sq[None, :] - 2.0 * block @ reference.T
            np.maximum(sq, 0.0, out=sq)
            sq.partition(kth, axis=1)
            distances[start : start + self.chunk] = np.sqrt(sq[:, kth])
        return subsequence_to_point_scores(distances, self.w, n)
