"""The benchmark's own bookkeeping: spans, self-time, percentiles, failures.

Spans are recorded by the benchmark around its calls into the program,
never inside it.  A span's self-time is its duration minus the part of
its interval covered by its children; summing self-times per layer
(the name up to the first dot) splits the wall clock of the root spans
into layers, and whatever the harness itself spends between calls
shows up as the layer gap.  Root spans are named ``bench.*`` and belong
to no layer.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from contextlib import contextmanager, nullcontext

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# candidate tail percentiles, highest first
_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Spans:
    """In-memory span recorder with one nesting stack per thread."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.records.append(record)


class NoSpans:
    """Stand-in recorder for untraced passes: a span is a no-op."""

    records = ()

    def span(self, name: str):
        return nullcontext()


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(records: "list[dict]") -> "dict[str, float]":
    """Name -> summed self-time (seconds) over one recorder's spans."""
    children: dict = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)
    totals: dict[str, float] = {}
    for record in records:
        start, end = record["start"], record["end"]
        inner = [
            (max(start, child["start"]), min(end, child["end"]))
            for child in children.get(record["id"], ())
        ]
        own = (end - start) - _covered([iv for iv in inner if iv[1] > iv[0]])
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def durations(records: "list[dict]", name: str) -> "list[float]":
    """Durations (seconds) of every span called ``name``, in end order."""
    return [r["end"] - r["start"] for r in records if r["name"] == name]


def layer_gap_pct(records: "list[dict]") -> float:
    """|sum of layer self-time - root wall| / root wall, in percent."""
    wall = sum(r["end"] - r["start"] for r in records if r["parent"] is None)
    layered = sum(
        seconds
        for name, seconds in self_times(records).items()
        if not name.startswith("bench.")
    )
    return abs(layered - wall) / wall * 100.0 if wall > 0 else 0.0


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int, highest: float = 99.0) -> "float | None":
    """Highest percentile up to ``highest`` with at least ten samples beyond it."""
    for q in _LADDER:
        if q <= highest and n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def timing(samples) -> dict:
    """Median and tail of a timing sample, with the count and the tail's rank.

    The tail is the 99th percentile when at least a thousand samples
    back it, else the highest percentile with ten samples beyond it
    (``None`` below twenty samples).
    """
    samples = list(samples)
    q = tail_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0) if samples else None,
        "tail_q": q,
        "tail": None if q is None else percentile(samples, q),
    }


def count_mismatches(expected: list, observed: list) -> int:
    """Positions where two output lists differ; missing entries count."""
    differing = sum(1 for a, b in zip(expected, observed) if a != b)
    return differing + abs(len(expected) - len(observed))


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def add(self, attempted: int, failed: int = 0) -> None:
        with self._lock:
            self.attempted += int(attempted)
            self.failed += int(failed)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
