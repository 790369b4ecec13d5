"""Parallel evaluation engine for detector × archive grids.

`EvalEngine` expands a line-up of :class:`DetectorSpec` against an
archive into one task per ``(spec, series)`` cell, resolves what it can
from the content-addressed :class:`ResultCache`, and executes the rest —
serially, or on ``jobs`` threads of the calling process with
``jobs > 1``.  Threads, not processes: the compiled kernel's block call
releases the GIL, cells need no copy of their series, and no second
interpreter is started or fed.

Determinism is the design constraint: tasks are enumerated in grid
order (specs in line-up order, series in archive order) and results are
reassembled into that order whatever subset was cached and however the
threads scheduled the remainder, so a parallel run's manifest and
artifacts are byte-identical to a serial run's.  Detectors are built
fresh inside each task from the spec (every detector in the registry is
deterministic given its parameters), so no two cells share a detector.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

from ..detectors import DetectorSpec, bind_cell_thread
from ..obs import MetricsRegistry, get_registry, get_tracer, tracing_session
from ..scoring.ucr import UcrOutcome, UcrSummary, ucr_correct
from ..types import Archive, LabeledSeries
from .cache import ResultCache, cache_key
from .manifest import RunManifest, archive_fingerprint

__all__ = [
    "UcrScoring",
    "FractionalScoring",
    "scoring_from_description",
    "CellResult",
    "RunStats",
    "RunReport",
    "EvalEngine",
]


@dataclass(frozen=True)
class UcrScoring:
    """The archive protocol: correct iff inside the region ± slop."""

    minimum_slop: int = 100

    def describe(self) -> dict:
        return {"protocol": "ucr", "minimum_slop": self.minimum_slop}

    def correct(self, series: LabeledSeries, location: int) -> bool:
        return ucr_correct(series, location, self.minimum_slop)


@dataclass(frozen=True)
class FractionalScoring:
    """Hit iff within ``fraction * n`` points of any labeled region.

    The relaxed criterion some multi-anomaly ablations use (e.g. the
    §2.5 last-point study scores hits within 5 % of the series length).
    """

    fraction: float = 0.05

    def describe(self) -> dict:
        return {"protocol": "fractional", "fraction": self.fraction}

    def correct(self, series: LabeledSeries, location: int) -> bool:
        return series.labels.covers(location, slop=int(self.fraction * series.n))


def scoring_from_description(description: dict):
    """Rebuild a scoring protocol object from its ``describe()`` dict.

    The inverse of ``UcrScoring.describe`` / ``FractionalScoring.describe``,
    used when analyses run on saved manifests instead of live engines.
    """
    protocol = dict(description).get("protocol")
    if protocol == "ucr":
        return UcrScoring(minimum_slop=int(description.get("minimum_slop", 100)))
    if protocol == "fractional":
        return FractionalScoring(fraction=float(description.get("fraction", 0.05)))
    raise ValueError(f"unknown scoring protocol {protocol!r}")


@dataclass(frozen=True)
class CellResult:
    """One evaluated grid cell.

    ``region_start``/``region_end`` describe the labeled region nearest
    to the prediction (the region, under UCR's single-anomaly rule), or
    ``None`` for an unlabeled series.  ``cached`` is runtime-only — it
    never enters manifests or artifacts, which must not depend on cache
    temperature.
    """

    detector: str
    series: str
    location: int
    correct: bool
    region_start: int | None
    region_end: int | None
    cached: bool = False

    def to_json(self) -> dict:
        region = None
        if self.region_start is not None:
            region = [self.region_start, self.region_end]
        return {
            "detector": self.detector,
            "series": self.series,
            "location": self.location,
            "correct": self.correct,
            "region": region,
        }


@dataclass
class RunStats:
    """How a run was satisfied: total cells, detector calls, cache hits."""

    cells: int = 0
    executed: int = 0
    cache_hits: int = 0

    def format(self) -> str:
        return (
            f"{self.cells} cells: {self.executed} executed, "
            f"{self.cache_hits} from cache"
        )


@dataclass
class RunReport:
    """Everything one engine run produced, still in memory."""

    archive_name: str
    archive_size: int
    archive_fingerprint: str
    specs: list[DetectorSpec]
    scoring: dict
    cells: list[CellResult]
    config: dict = field(default_factory=dict)
    stats: RunStats = field(default_factory=RunStats)

    def cells_for(self, spec: DetectorSpec | str) -> list[CellResult]:
        label = spec.label if isinstance(spec, DetectorSpec) else spec
        return [cell for cell in self.cells if cell.detector == label]

    def summary(self, spec: DetectorSpec | str) -> UcrSummary:
        """One spec's cells in the existing :class:`UcrSummary` shape."""
        outcomes = [
            UcrOutcome(
                name=cell.series,
                location=cell.location,
                correct=cell.correct,
                region_start=-1 if cell.region_start is None else cell.region_start,
                region_end=-1 if cell.region_end is None else cell.region_end,
            )
            for cell in self.cells_for(spec)
        ]
        return UcrSummary(outcomes=outcomes)

    def summaries(self) -> dict[str, UcrSummary]:
        """Label → summary for every spec, in line-up order."""
        return {spec.label: self.summary(spec) for spec in self.specs}

    def accuracies(self) -> dict[str, float]:
        """Label → archive accuracy for every spec, in line-up order."""
        return {
            label: summary.accuracy
            for label, summary in self.summaries().items()
        }

    def outcome_matrix(self):
        """The detectors × series correctness matrix for the stats engine.

        Returns a :class:`repro.stats.OutcomeMatrix` (imported lazily —
        the runner never needs the stats machinery to execute a grid).
        """
        from ..stats import OutcomeMatrix

        return OutcomeMatrix.from_cells(self.cells)

    def manifest(self) -> RunManifest:
        """The run's reproducibility record (cache/parallelism free)."""
        return RunManifest(
            archive={
                "name": self.archive_name,
                "num_series": self.archive_size,
                "fingerprint": self.archive_fingerprint,
            },
            scoring=dict(self.scoring),
            specs=[spec.to_json() for spec in self.specs],
            cells=[cell.to_json() for cell in self.cells],
            config=dict(self.config),
        )


def _locate_cell(
    task: tuple[DetectorSpec, LabeledSeries], epoch: "float | None" = None
) -> tuple[int, list, MetricsRegistry]:
    """Task entry point: build the detector and run the UCR protocol.

    The cell opens a session of its own on whichever thread runs it: a
    fresh registry, and with ``epoch`` (the caller's tracer's) a tracer
    on the caller's clock, under an ``engine.cell`` span that lasts as
    long as the cell ran, and in it ``engine.locate``.  It returns the
    location, the exported span records and the registry; the caller
    adopts both in grid order, which is what makes serial and parallel
    runs trace and count alike (timing fields aside).
    """
    spec, series = task
    with tracing_session(enabled=epoch is not None, epoch=epoch) as (
        tracer,
        registry,
    ):
        with tracer.span(
            "engine.cell", detector=spec.label, series=series.name,
            cached=False,
        ), tracer.span("engine.locate"):
            location = int(spec.build().locate(series))
        return location, tracer.export(), registry


class EvalEngine:
    """Single execution path for detector × archive evaluation.

    Parameters
    ----------
    specs:
        Detector line-up — :class:`DetectorSpec` instances or parseable
        strings (``"matrix_profile(w=100)"``).
    scoring:
        Correctness protocol; defaults to :class:`UcrScoring`.
    cache:
        A :class:`ResultCache`, a directory path to open one in, or
        None to recompute every cell.
    jobs:
        Threads for uncached cells; 1 means serial on the calling
        thread, and a value below 1 raises ``ValueError``.  With a
        kernel-jobs default set (``--kernel-jobs``), cells on the
        engine's threads sweep with kernel jobs 1.
    config:
        Free-form run parameters (seeds, CLI arguments…) recorded
        verbatim in the manifest.
    """

    def __init__(
        self,
        specs,
        *,
        scoring=None,
        cache: ResultCache | str | None = None,
        jobs: int = 1,
        config: dict | None = None,
    ) -> None:
        parsed = [
            spec if isinstance(spec, DetectorSpec) else DetectorSpec.parse(spec)
            for spec in specs
        ]
        # dedupe preserving order: a repeated spec is the same
        # computation, and keeping it would double-count its summary
        self.specs = list(dict.fromkeys(parsed))
        if not self.specs:
            raise ValueError("EvalEngine needs at least one detector spec")
        self.scoring = scoring if scoring is not None else UcrScoring()
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.config = dict(config or {})

    def run(self, archive: Archive) -> RunReport:
        """Evaluate every spec on every series and aggregate."""
        tracer = get_tracer()
        with tracer.span(
            "engine.run",
            archive=archive.name,
            specs=len(self.specs),
            jobs=self.jobs,
        ):
            return self._run(archive, tracer)

    def _run(self, archive: Archive, tracer) -> RunReport:
        for spec in self.specs:
            spec.build()  # fail fast on unknown names or bad params
        scoring_desc = self.scoring.describe()
        tasks = [
            (spec, series) for spec in self.specs for series in archive.series
        ]

        locations: list[int | None] = [None] * len(tasks)
        keys: list[str | None] = [None] * len(tasks)
        pending: list[int] = []
        for index, (spec, series) in enumerate(tasks):
            if self.cache is not None:
                keys[index] = cache_key(spec, series, scoring_desc)
                payload = self.cache.get(keys[index])
                try:
                    locations[index] = int(payload["location"])
                    continue
                except (KeyError, TypeError, ValueError):
                    locations[index] = None  # malformed entry: miss
            pending.append(index)

        registry = get_registry()
        registry.counter("engine_cells").inc(len(tasks))
        registry.counter("engine_cache_hits").inc(len(tasks) - len(pending))
        registry.counter("engine_cache_misses").inc(len(pending))

        # cells return (location, spans, registry), serial or not, and
        # the adoption below folds them in, each under its own
        # engine.cell span, so serial and parallel runs export the same
        # tree and metrics
        traced = tracer.enabled
        worker = (
            partial(_locate_cell, epoch=tracer.epoch) if traced else _locate_cell
        )
        exports: dict[int, tuple] = {}

        def collect(index: int, result) -> None:
            # on the calling thread, as each result arrives: a cell that
            # finished is cached even when a later cell raises
            location, records, cell_registry = result
            exports[index] = (records, cell_registry)
            locations[index] = location
            if self.cache is not None:
                self.cache.put(keys[index], {"location": location})

        if self.jobs > 1 and len(pending) > 1:
            self._run_pool(worker, tasks, pending, collect)
        else:
            for index in pending:
                collect(index, worker(tasks[index]))

        executed = set(pending)
        cells = []
        for index, ((spec, series), location) in enumerate(
            zip(tasks, locations)
        ):
            cached = index not in executed
            if index in exports:
                records, cell_registry = exports[index]
                tracer.adopt(records)
                registry.merge(cell_registry)
            # a cached cell's span is its scoring; an executed cell's
            # came with its records, as long as the cell ran
            cell_span = (
                tracer.span(
                    "engine.cell",
                    detector=spec.label,
                    series=series.name,
                    cached=True,
                )
                if traced and cached
                else nullcontext()
            )
            with cell_span:
                nearest = series.labels.nearest_region(location)
                cells.append(
                    CellResult(
                        detector=spec.label,
                        series=series.name,
                        location=location,
                        correct=self.scoring.correct(series, location),
                        region_start=None if nearest is None else nearest.start,
                        region_end=None if nearest is None else nearest.end,
                        cached=cached,
                    )
                )

        return RunReport(
            archive_name=archive.name,
            archive_size=len(archive),
            archive_fingerprint=archive_fingerprint(archive),
            specs=list(self.specs),
            scoring=scoring_desc,
            cells=cells,
            config=dict(self.config),
            stats=RunStats(
                cells=len(tasks),
                executed=len(pending),
                cache_hits=len(tasks) - len(pending),
            ),
        )

    def _run_pool(self, worker, tasks, pending: list[int], collect) -> None:
        """Run the ``pending`` cells on ``jobs`` threads, one cell per task.

        Cells are submitted longest series first (a stable sort, so
        ties keep grid order): the long cells start at once and the
        short ones fill in behind them, so the grid ends on short cells
        instead of one thread finishing a long cell while the rest idle.
        ``collect`` takes each result on the calling thread, in
        submission order.  If a cell raises, or the caller is
        interrupted, the run unwinds: the stop flag each cell thread is
        bound to is set (see :func:`~repro.detectors.bind_cell_thread`),
        so running sweeps end at their next diagonal block; cells that
        have not started are cancelled; and cells that already finished
        are still collected before the error propagates.
        """
        order = sorted(pending, key=lambda index: -tasks[index][1].n)
        stop = threading.Event()
        with ThreadPoolExecutor(
            max_workers=self.jobs,
            thread_name_prefix="engine-cell",
            initializer=bind_cell_thread,
            initargs=(stop,),
        ) as pool:
            futures = {
                index: pool.submit(worker, tasks[index]) for index in order
            }
            collected = set()
            try:
                for index, future in futures.items():
                    collect(index, future.result())
                    collected.add(index)
            except BaseException:
                stop.set()
                for index, future in futures.items():
                    if future.cancel() or index in collected:
                        continue
                    if future.done() and future.exception() is None:
                        collect(index, future.result())
                raise
