"""UCR Anomaly Archive scoring (paper §2.3 and §3).

The paper argues the ideal test series contains *exactly one* anomaly and
the detector should "just return the most likely location of the
anomaly", making evaluation binary and archive-level results a simple,
interpretable accuracy.

The accepted answer range gets a little "slop" (§3.1: "the scoring
functions typically have a little play to avoid the brittleness of
requiring spurious precision").  The UCR archive convention is ±100
points or the anomaly length, whichever is larger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import Archive, LabeledSeries

__all__ = ["ucr_slop", "ucr_correct", "UcrOutcome", "UcrSummary", "score_archive"]


def ucr_slop(series: LabeledSeries, minimum: int = 100) -> int:
    """Allowed distance from the labeled region for a correct answer."""
    region = series.labels.rightmost
    if region is None:
        raise ValueError(f"{series.name}: series has no labeled anomaly")
    return max(minimum, region.length)


def ucr_correct(
    series: LabeledSeries, location: int, minimum_slop: int = 100
) -> bool:
    """True if ``location`` falls in the labeled region ± slop."""
    if series.labels.num_regions != 1:
        raise ValueError(
            f"{series.name}: UCR scoring requires exactly one labeled "
            f"anomaly, found {series.labels.num_regions}"
        )
    region = series.labels.regions[0]
    return region.contains(int(location), slop=ucr_slop(series, minimum_slop))


@dataclass(frozen=True)
class UcrOutcome:
    """Per-dataset outcome: where the detector pointed and if it was right."""

    name: str
    location: int
    correct: bool
    region_start: int
    region_end: int


@dataclass
class UcrSummary:
    """Archive-level aggregate: the paper's 'simple accuracy'."""

    outcomes: list[UcrOutcome]

    @property
    def num_correct(self) -> int:
        return sum(outcome.correct for outcome in self.outcomes)

    @property
    def accuracy(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.num_correct / len(self.outcomes)

    def format(self) -> str:
        lines = [
            f"{'dataset':<42}{'predicted':>10}{'truth':>16}{'ok':>4}"
        ]
        for outcome in self.outcomes:
            truth = f"[{outcome.region_start},{outcome.region_end})"
            mark = "yes" if outcome.correct else "NO"
            lines.append(
                f"{outcome.name:<42}{outcome.location:>10}{truth:>16}{mark:>4}"
            )
        lines.append(
            f"accuracy: {self.num_correct}/{len(self.outcomes)}"
            f" = {self.accuracy:.1%}"
        )
        return "\n".join(lines)


def score_archive(archive: Archive, locate, minimum_slop: int = 100) -> UcrSummary:
    """Run ``locate(series) -> int`` on every dataset, score and aggregate.

    Indices are in the *full-series* coordinate system; ``locate``
    receives the full :class:`LabeledSeries` so it can use the training
    prefix.  The evaluation engine (:mod:`repro.runner`) applies the
    same rule to its cells, so ``RunReport.summary(spec)`` holds the
    verdicts this function would compute for that spec.
    """
    outcomes = []
    for series in archive.series:
        location = int(locate(series))
        region = series.labels.regions[0]
        outcomes.append(
            UcrOutcome(
                name=series.name,
                location=location,
                correct=ucr_correct(series, location, minimum_slop),
                region_start=region.start,
                region_end=region.end,
            )
        )
    return UcrSummary(outcomes=outcomes)
