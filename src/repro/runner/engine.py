"""Parallel evaluation engine for detector × archive grids.

`EvalEngine` expands a line-up of :class:`DetectorSpec` against an
archive into one task per ``(spec, series)`` cell, resolves what it can
from the content-addressed :class:`ResultCache`, and executes the rest —
serially, or across a ``ProcessPoolExecutor`` with ``jobs > 1``.

Determinism is the design constraint: tasks are enumerated in grid
order (specs in line-up order, series in archive order) and results are
reassembled into that order whatever subset was cached and however the
pool scheduled the remainder, so a parallel run's manifest and
artifacts are byte-identical to a serial run's.  Detectors are built
fresh inside each task from the spec (every detector in the registry is
deterministic given its parameters), which is what makes tasks safe to
ship to worker processes in the first place.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..detectors import DetectorSpec
from ..obs import get_registry, get_tracer, tracing_session
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


def _pool_worker_init() -> None:
    """Cap kernel parallelism inside engine pool workers.

    ``--kernel-jobs`` travels to workers via ``REPRO_KERNEL_JOBS``
    (like the memory budget), but an engine already running ``--jobs``
    cells in parallel must not let each cell open its own kernel pool —
    that would oversubscribe the machine ``jobs × kernel_jobs`` ways.
    Workers therefore cap an inherited kernel-jobs default to 1: the
    sweep keeps its (jobs-independent) shard plan in-process, so
    results and canonical traces stay identical to a ``--jobs 1`` run
    where the kernel pool is allowed.  With no kernel-jobs default set
    this is a no-op and cells keep the historical unsharded sweep.
    """
    from ..detectors import default_kernel_jobs, set_default_kernel_jobs

    if default_kernel_jobs() is not None:
        set_default_kernel_jobs(1)


def _locate_cell(task: tuple[DetectorSpec, LabeledSeries]) -> int:
    """Worker entry point: build the detector and run the UCR protocol."""
    spec, series = task
    return int(spec.build().locate(series))


def _locate_cell_traced(
    task: tuple[DetectorSpec, LabeledSeries],
) -> tuple[int, list, list]:
    """Traced worker entry point: spans and metrics travel by value.

    A ProcessPool worker cannot share the parent's tracer, so it opens
    its own tracing session (fresh tracer *and* registry — also what
    shields the parent registry when this runs in-process for serial
    jobs), locates the cell, and returns the exported span records plus
    the registry state alongside the result.  The parent adopts both in
    task order, which is what makes serial and parallel traces
    identical after timing fields are stripped.
    """
    spec, series = task
    with tracing_session(enabled=True) as (tracer, registry):
        with tracer.span("engine.locate"):
            location = int(spec.build().locate(series))
        return location, tracer.export(), registry.export_state()


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
        Worker processes for uncached cells; 1 means in-process serial,
        and a value below 1 raises ``ValueError``.
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

        # with tracing on, workers return (location, spans, metrics) and
        # the adoption below splices them under per-cell spans; the
        # traced path is also taken for jobs=1 so serial and parallel
        # runs export the same tree
        traced = tracer.enabled
        worker = _locate_cell_traced if traced else _locate_cell
        if self.jobs > 1 and len(pending) > 1:
            found = self._run_pool(worker, tasks, pending)
        else:
            found = {index: worker(tasks[index]) for index in pending}
        exports: dict[int, tuple[list, list]] = {}
        for index in pending:
            location = found[index]
            if traced:
                location, records, state = location
                exports[index] = (records, state)
            locations[index] = location
            if self.cache is not None:
                self.cache.put(keys[index], {"location": location})

        executed = set(pending)
        cells = []
        for index, ((spec, series), location) in enumerate(
            zip(tasks, locations)
        ):
            cached = index not in executed
            cell_span = (
                tracer.span(
                    "engine.cell",
                    detector=spec.label,
                    series=series.name,
                    cached=cached,
                )
                if traced
                else nullcontext()
            )
            with cell_span:
                if index in exports:
                    records, state = exports[index]
                    tracer.adopt(records)
                    registry.merge_state(state)
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

    def _run_pool(self, worker, tasks, pending: list[int]) -> dict:
        """Run the ``pending`` cells on a process pool, one cell per task.

        Cells are submitted longest series first (a stable sort, so
        ties keep grid order): the long cells start at once and the
        short ones fill in behind them, so the grid ends on short cells
        instead of one worker finishing a long cell while the rest idle.
        Results come back keyed by grid index.  If a cell raises, the
        cells that have not started are cancelled, so the error
        surfaces once the running cells finish rather than after the
        whole grid.
        """
        order = sorted(pending, key=lambda index: -tasks[index][1].n)
        with ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_pool_worker_init
        ) as pool:
            futures = {
                index: pool.submit(worker, tasks[index]) for index in order
            }
            try:
                return {
                    index: future.result() for index, future in futures.items()
                }
            except BaseException:
                for future in futures.values():
                    future.cancel()
                raise
