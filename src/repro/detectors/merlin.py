"""MERLIN-lite: parameter-free discord discovery across lengths.

The paper's reference [19] (Nakamura et al., ICDM 2020) removes the
discord's window-length parameter by searching *all* lengths in a range.
The original uses the DRAG candidate-selection algorithm for speed; this
reproduction keeps MERLIN's semantics — the discord of each length,
distances made comparable across lengths by normalizing with ``sqrt(w)``
— on top of the exact mpx self-join.

Two things keep the length sweep cheap:

* one :class:`~repro.detectors.sliding.SlidingStats` per series — the
  prefix sums behind every length's mean/std are computed once, so each
  candidate length pays O(m) setup instead of O(n);
* optional DRAG-style early abandonment (``early_abandon=True``): the
  best length-normalized discord found so far is a floor, and a
  candidate length aborts mid-sweep as soon as every subsequence
  already has a neighbour at or below that floor — such a length cannot
  change the winner.  Abandoned lengths are left out of the result, so
  the default stays ``False`` to preserve the exact per-length report;
  the overall :attr:`MerlinResult.best` is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Detector
from .matrix_profile import (
    _require_int,
    discord_search,
    matrix_profile,
    subsequence_to_point_scores,
)
from .sliding import SlidingStats

__all__ = ["MerlinResult", "merlin", "MerlinDetector"]


@dataclass(frozen=True)
class MerlinResult:
    """Best discord per candidate length, plus the overall winner."""

    lengths: tuple[int, ...]
    locations: tuple[int, ...]  # discord start per length
    distances: tuple[float, ...]  # length-normalized discord distance

    @property
    def best(self) -> tuple[int, int, float]:
        """``(length, location, normalized_distance)`` of the winner."""
        i = int(np.argmax(self.distances))
        return self.lengths[i], self.locations[i], self.distances[i]


def candidate_lengths(min_w: int, max_w: int, num: int) -> tuple[int, ...]:
    """Geometrically spaced candidate window lengths."""
    if min_w < 3:
        raise ValueError(f"min_w must be >= 3, got {min_w}")
    if max_w < min_w:
        raise ValueError(f"max_w ({max_w}) < min_w ({min_w})")
    _require_int("num_lengths", num, 1)
    raw = np.geomspace(min_w, max_w, num=num)
    return tuple(sorted(set(int(round(length)) for length in raw)))


def merlin(
    values: np.ndarray,
    min_w: int,
    max_w: int,
    num_lengths: int = 8,
    early_abandon: bool = False,
    jobs: int | None = None,
) -> MerlinResult:
    """Discord of every candidate length in ``[min_w, max_w]``.

    ``jobs`` parallelizes each per-length sweep across threads
    (bit-identical results — see
    :func:`~repro.detectors.matrix_profile.matrix_profile`).
    """
    values = np.asarray(values, dtype=float)
    stats = SlidingStats(values)
    lengths: list[int] = []
    locations: list[int] = []
    distances: list[float] = []
    best_norm = -np.inf
    for w in candidate_lengths(min_w, max_w, num_lengths):
        if values.size < 2 * w:
            continue
        floor = best_norm if early_abandon and lengths else None
        found = discord_search(
            values,
            w,
            stats=stats,
            normalized_floor=floor,
            jobs=jobs,
        )
        if found is None:
            continue  # abandoned: cannot beat the best discord so far
        location, distance = found
        normalized = distance / np.sqrt(w)
        lengths.append(w)
        locations.append(location)
        distances.append(float(normalized))
        if normalized > best_norm:
            best_norm = normalized
    if not lengths:
        raise ValueError("series too short for every candidate length")
    return MerlinResult(
        lengths=tuple(lengths),
        locations=tuple(locations),
        distances=tuple(distances),
    )


class MerlinDetector(Detector):
    """Per-point score = max over lengths of the normalized profile.

    The lengths and ``jobs`` are checked when the detector is built, by
    the rules :func:`merlin` and the kernel apply.  ``jobs`` shards each
    sweep across threads (``None`` defers to ``--kernel-jobs``); scores
    are bit-identical either way.
    """

    def __init__(
        self,
        min_w: int = 50,
        max_w: int = 200,
        num_lengths: int = 5,
        jobs: int | None = None,
    ) -> None:
        candidate_lengths(min_w, max_w, num_lengths)
        if jobs is not None:
            _require_int("jobs", jobs, 1)
        self.min_w = min_w
        self.max_w = max_w
        self.num_lengths = num_lengths
        self.jobs = jobs

    @property
    def name(self) -> str:
        return f"MERLIN(w={self.min_w}..{self.max_w})"

    def score(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        stats = SlidingStats(values)
        combined = np.full(values.size, -np.inf)
        for w in candidate_lengths(self.min_w, self.max_w, self.num_lengths):
            if values.size < 2 * w:
                continue
            result = matrix_profile(
                values,
                w,
                stats=stats,
                with_indices=False,
                jobs=self.jobs,
            )
            points = subsequence_to_point_scores(
                result.profile / np.sqrt(w), w, values.size
            )
            combined = np.maximum(combined, points)
        return combined
