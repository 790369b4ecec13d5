"""Retained reference kernels for the matrix profile.

The production kernel (:func:`repro.detectors.matrix_profile.matrix_profile`)
is an mpx-style diagonal traversal.  This module keeps two slower
implementations around on purpose:

* :func:`naive_profile` — the textbook O(n²·w) brute force: z-normalize
  every window explicitly and measure every pairwise distance.  It has
  no recurrences at all, so it is the accuracy gold standard the
  property tests compare against, and the baseline ``repro bench``
  reports kernel speedups over.
* :func:`stomp_profile` — the per-row STOMP loop this repository
  shipped before the mpx rewrite, kept verbatim so equivalence can be
  re-checked forever.

Neither belongs on a hot path.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .matrix_profile import (
    MatrixProfileResult,
    moving_mean_std,
    sliding_dot_products,
)

__all__ = ["naive_profile", "stomp_profile"]


def _validate(values: np.ndarray, w: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if w < 3:
        raise ValueError(f"window must be >= 3, got {w}")
    if values.size < 2 * w:
        raise ValueError(
            f"series of length {values.size} too short for window {w} "
            "(need at least 2*w points)"
        )
    return values


def naive_profile(
    values: np.ndarray,
    w: int,
    exclusion: int | None = None,
    row_limit: int | None = None,
) -> MatrixProfileResult:
    """Brute-force O(n²·w) z-normalized self-join matrix profile.

    ``row_limit`` computes only the first ``row_limit`` rows (profile
    and indices are truncated to that length) so the bench can time a
    representative slice and extrapolate — every row costs the same
    O(n·w), so the extrapolation is exact in expectation.
    """
    values = _validate(values, w)
    n = values.size
    if exclusion is None:
        exclusion = w
    num_subs = n - w + 1
    rows = num_subs if row_limit is None else min(row_limit, num_subs)

    windows = sliding_window_view(values, w)
    mean = windows.mean(axis=1, keepdims=True)
    std = windows.std(axis=1, keepdims=True)
    constant = windows.max(axis=1) == windows.min(axis=1)
    znormed = np.where(
        constant[:, None], 0.0, (windows - mean) / np.where(constant[:, None], 1.0, std)
    )

    profile = np.full(rows, np.inf)
    indices = np.zeros(rows, dtype=int)
    offsets = np.arange(num_subs)
    for i in range(rows):
        if constant[i]:
            # constant-to-constant distance is 0, constant-to-anything
            # else is sqrt(w) (the other window's z-norm has norm sqrt(w))
            dist = np.where(constant, 0.0, np.sqrt(w))
        else:
            delta = znormed - znormed[i]
            dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        dist = np.where(np.abs(offsets - i) < exclusion, np.inf, dist)
        j = int(np.argmin(dist))
        profile[i] = dist[j]
        indices[i] = j
    return MatrixProfileResult(w=w, profile=profile, indices=indices)


def stomp_profile(
    values: np.ndarray, w: int, exclusion: int | None = None
) -> MatrixProfileResult:
    """The pre-mpx per-row STOMP kernel, retained verbatim.

    MASS (FFT sliding dot products) for the first row, then an O(n)
    update per row — with a Python-level loop iteration and ~6 temporary
    allocations per subsequence, which is exactly why it was replaced.
    """
    values = _validate(values, w)
    n = values.size
    if exclusion is None:
        exclusion = w
    num_subs = n - w + 1
    mean, std = moving_mean_std(values, w)
    # exact constant-window detection: cumsum-based std has ~sqrt(eps)
    # noise, so compare window extrema instead
    windows = sliding_window_view(values, w)
    constant = windows.max(axis=1) == windows.min(axis=1)
    std = np.where(constant, 0.0, std)

    profile = np.full(num_subs, np.inf)
    indices = np.zeros(num_subs, dtype=int)
    first_qt = sliding_dot_products(values[:w], values)
    qt = first_qt.copy()
    offsets = np.arange(num_subs)

    for i in range(num_subs):
        if i > 0:
            qt[1:] = (
                qt[:-1]
                - values[: num_subs - 1] * values[i - 1]
                + values[w : w + num_subs - 1] * values[i + w - 1]
            )
            qt[0] = first_qt[i]
        if constant[i]:
            # distance to non-constant windows is sqrt(w), to constant 0
            dist = np.where(constant, 0.0, np.sqrt(w))
        else:
            denominator = w * std[i] * std
            correlation = np.where(
                constant,
                0.0,
                (qt - w * mean[i] * mean) / np.where(constant, 1.0, denominator),
            )
            correlation = np.clip(correlation, -1.0, 1.0)
            dist = np.sqrt(2.0 * w * (1.0 - correlation))
            dist = np.where(constant, np.sqrt(w), dist)
        mask = np.abs(offsets - i) < exclusion
        dist = np.where(mask, np.inf, dist)
        j = int(np.argmin(dist))
        profile[i] = dist[j]
        indices[i] = j
    return MatrixProfileResult(w=w, profile=profile, indices=indices)
