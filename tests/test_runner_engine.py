"""Tests for the evaluation engine.

Covers the subsystem's two contracts: ``--jobs N`` output is
byte-identical to serial, and a warm cache re-run executes *zero*
detector calls while reproducing the same artifacts.  The pool's
dispatch policy (one cell per task, longest series first) is pinned
through an in-process stand-in for the process pool.
"""

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest

import repro.runner.engine as engine_module
from repro.detectors import DetectorSpec, set_default_kernel_jobs
from repro.obs import canonical_records, tracing_session
from repro.runner import (
    EvalEngine,
    FractionalScoring,
    ResultCache,
    UcrScoring,
)
from repro.scoring import score_archive
from repro.types import Archive, LabeledSeries, Labels


def ucr_series(name, n=900, start=500, length=40, train=200):
    values = np.zeros(n)
    values[start : start + length] += 5.0
    return LabeledSeries(
        name, values, Labels.single(n, start, start + length), train_len=train
    )


# mixed lengths with the longest series not first, so the pool's
# longest-first submission order is a real permutation of grid order
LENGTHS = (700, 1500, 900, 1200, 1000)


@pytest.fixture()
def archive():
    return Archive(
        "toy",
        [
            ucr_series(f"d{index}", n=n, start=320 + 90 * index)
            for index, n in enumerate(LENGTHS)
        ],
    )


SPECS = [
    DetectorSpec.create("diff"),
    DetectorSpec.create("moving_zscore", k=50),
    DetectorSpec.create("last_point"),
]


class CountingLocator:
    """Wraps the engine's task executor, counting detector invocations."""

    def __init__(self):
        self.calls = 0
        self._real = engine_module._locate_cell

    def __call__(self, task):
        self.calls += 1
        return self._real(task)


@pytest.fixture()
def counter(monkeypatch):
    counting = CountingLocator()
    monkeypatch.setattr(engine_module, "_locate_cell", counting)
    return counting


class TestExecution:
    def test_matches_score_archive(self, archive):
        report = EvalEngine(SPECS).run(archive)
        for spec in SPECS:
            direct = score_archive(archive, spec.build().locate)
            assert report.summary(spec).accuracy == direct.accuracy
            assert [o.location for o in report.summary(spec).outcomes] == [
                o.location for o in direct.outcomes
            ]

    def test_grid_order_is_deterministic(self, archive):
        report = EvalEngine(SPECS).run(archive)
        expected = [
            (spec.label, series.name)
            for spec in SPECS
            for series in archive.series
        ]
        assert [(c.detector, c.series) for c in report.cells] == expected

    def test_parallel_matches_serial_byte_identical(self, archive):
        serial = EvalEngine(SPECS, jobs=1).run(archive)
        parallel = EvalEngine(SPECS, jobs=4).run(archive)
        assert parallel.manifest().to_json() == serial.manifest().to_json()
        assert parallel.stats.executed == serial.stats.executed

    def test_string_specs_accepted(self, archive):
        report = EvalEngine(["diff", "moving_zscore(k=50)"]).run(archive)
        assert set(report.accuracies()) == {"diff", "moving_zscore(k=50)"}

    def test_empty_lineup_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EvalEngine([])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        # a clamp to 1 would hide a bad `--jobs` behind a serial run
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            EvalEngine(["diff"], jobs=jobs)

    def test_duplicate_specs_deduped(self, archive, counter):
        report = EvalEngine(["diff", "diff", "diff"]).run(archive)
        assert counter.calls == len(archive)
        assert report.stats.cells == len(archive)
        assert len(report.summary("diff").outcomes) == len(archive)

    def test_unknown_detector_fails_fast(self, archive, counter):
        with pytest.raises(ValueError, match="available"):
            EvalEngine([DetectorSpec.create("warp_drive")]).run(archive)
        assert counter.calls == 0

    def test_fractional_scoring_multi_region(self):
        n = 1000
        values = np.zeros(n)
        values[900] = 50.0
        labels = Labels(
            n=n,
            regions=(
                Labels.single(n, 100, 120).regions[0],
                Labels.single(n, 890, 910).regions[0],
            ),
        )
        multi = Archive("multi", [LabeledSeries("m1", values, labels)])
        report = EvalEngine(
            [DetectorSpec.create("diff")], scoring=FractionalScoring(0.05)
        ).run(multi)
        cell = report.cells[0]
        assert cell.correct
        assert (cell.region_start, cell.region_end) == (890, 910)


class LazyFuture(Future):
    """A future whose cell runs only when its result is first asked for."""

    def __init__(self, call):
        super().__init__()
        self._call = call

    def result(self, timeout=None):
        if not self.done() and self.set_running_or_notify_cancel():
            try:
                self.set_result(self._call())
            except BaseException as error:
                self.set_exception(error)
        return super().result(timeout)


class RecordingPool:
    """In-process stand-in for the engine's ``ProcessPoolExecutor``.

    Records each submission; a cell the engine cancels never runs.
    """

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.initializer = initializer
        self.initargs = initargs
        self.submitted = []
        self.futures = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = LazyFuture(lambda: fn(*args))
        self.futures.append(future)
        return future


@pytest.fixture()
def pools(monkeypatch):
    made = []

    def factory(**kwargs):
        made.append(RecordingPool(**kwargs))
        return made[-1]

    monkeypatch.setattr(engine_module, "ProcessPoolExecutor", factory)
    return made


def longest_first(archive):
    """(detector, series) of every SPECS cell, in dispatch order."""
    grid = [(spec, series) for spec in SPECS for series in archive.series]
    return [
        (spec.label, series.name)
        for spec, series in sorted(grid, key=lambda task: -task[1].n)
    ]


class TestPoolDispatch:
    def test_one_cell_per_task_longest_first(self, archive, pools):
        report = EvalEngine(SPECS, jobs=2).run(archive)
        [pool] = pools
        assert pool.max_workers == 2
        assert pool.initializer is engine_module._pool_worker_init
        # no kernel-jobs default to cap
        assert pool.initargs == (False,)
        assert all(len(args) == 1 for args in pool.submitted)
        submitted = [
            (spec.label, series.name) for (spec, series), in pool.submitted
        ]
        assert submitted == longest_first(archive)
        assert submitted[:3] == [
            ("diff", "d1"),
            ("moving_zscore(k=50)", "d1"),
            ("last_point", "d1"),
        ]
        serial = EvalEngine(SPECS, jobs=1).run(archive)
        assert report.manifest().to_json() == serial.manifest().to_json()

    def test_ties_keep_grid_order(self, pools):
        equal = Archive(
            "equal", [ucr_series(f"e{index}") for index in range(3)]
        )
        EvalEngine(SPECS, jobs=2).run(equal)
        [pool] = pools
        assert [
            (spec.label, series.name) for (spec, series), in pool.submitted
        ] == [(spec.label, s.name) for spec in SPECS for s in equal.series]

    def test_only_uncached_cells_are_submitted(self, archive, tmp_path, pools):
        cache = ResultCache(tmp_path)
        EvalEngine(SPECS[:1], cache=cache).run(archive)
        report = EvalEngine(SPECS, cache=cache, jobs=2).run(archive)
        [pool] = pools
        assert len(pool.submitted) == (len(SPECS) - 1) * len(archive)
        assert report.stats.cache_hits == len(archive)

    def test_raising_cell_cancels_unstarted_cells(
        self, archive, pools, monkeypatch
    ):
        ran = []
        real = engine_module._locate_cell

        def locate(task):
            spec, series = task
            ran.append((spec.label, series.name))
            if series.name == "d3":
                raise RuntimeError("cell failed")
            return real(task)

        monkeypatch.setattr(engine_module, "_locate_cell", locate)
        with pytest.raises(RuntimeError, match="cell failed"):
            EvalEngine(SPECS, jobs=2).run(archive)
        [pool] = pools
        order = longest_first(archive)
        # d1 (1500 points) runs first, then the first d3 (1200) cell fails
        assert ran == order[:4]
        assert [future.cancelled() for future in pool.futures] == (
            [False] * 4 + [True] * (len(order) - 4)
        )

    def test_kernel_jobs_default_caps_the_workers(self, archive, pools):
        set_default_kernel_jobs(2)
        try:
            EvalEngine(SPECS, jobs=2).run(archive)
        finally:
            set_default_kernel_jobs(None)
        [pool] = pools
        assert pool.initargs == (True,)

    @pytest.mark.parametrize(
        "jobs, specs, size", [(1, SPECS, 5), (2, SPECS[:1], 1)]
    )
    def test_serial_path_without_a_pool(self, pools, jobs, specs, size):
        small = Archive(
            "small", [ucr_series(f"s{index}") for index in range(size)]
        )
        report = EvalEngine(specs, jobs=jobs).run(small)
        assert pools == []
        assert report.stats.executed == len(specs) * size

    def test_worker_error_matches_serial(self):
        # a real pool: the worker's exception crosses the process
        # boundary with its type
        mixed = Archive(
            "mixed",
            [
                ucr_series("long", n=1500),
                ucr_series("short", n=150, start=100, length=10, train=50),
            ],
        )
        spec = [DetectorSpec.create("matrix_profile", w=100)]
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="too short"):
                EvalEngine(spec, jobs=jobs).run(mixed)


class TestKernelJobsInWorkers:
    def run_traced(self, archive, jobs):
        specs = [DetectorSpec.create("matrix_profile", w=40)]
        set_default_kernel_jobs(2)
        try:
            with tracing_session() as (tracer, registry):
                report = EvalEngine(specs, jobs=jobs).run(archive)
                records = canonical_records(tracer.export())
                metrics = registry.snapshot(histogram_values=False)
        finally:
            set_default_kernel_jobs(None)
        # jobs is honest config, not nondeterminism; normalize it away
        for record in records:
            record["attrs"].pop("jobs", None)
        return report, records, metrics

    def test_spawned_workers_get_the_cap(self, archive, monkeypatch):
        # a spawned worker inherits no module state: the cap reaches it
        # through the pool's initargs alone, and its cells then sweep
        # the serial run's shard plan on one thread
        def spawning(**kwargs):
            context = multiprocessing.get_context("spawn")
            return ProcessPoolExecutor(mp_context=context, **kwargs)

        serial, records_serial, metrics_serial = self.run_traced(archive, 1)
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", spawning)
        pooled, records_pooled, metrics_pooled = self.run_traced(archive, 2)
        assert pooled.manifest().to_json() == serial.manifest().to_json()
        names = [record["name"] for record in records_serial]
        assert names.count("mpx.shard") >= len(archive)
        assert records_pooled == records_serial
        assert metrics_pooled == metrics_serial


class TestCacheIntegration:
    def test_cold_run_executes_everything(self, archive, tmp_path, counter):
        report = EvalEngine(SPECS, cache=ResultCache(tmp_path)).run(archive)
        assert counter.calls == len(SPECS) * len(archive)
        assert report.stats.executed == counter.calls
        assert report.stats.cache_hits == 0
        assert not any(cell.cached for cell in report.cells)

    def test_warm_run_executes_zero_detector_calls(
        self, archive, tmp_path, counter
    ):
        cache = ResultCache(tmp_path)
        cold = EvalEngine(SPECS, cache=cache).run(archive)
        counter.calls = 0
        warm = EvalEngine(SPECS, cache=cache).run(archive)
        assert counter.calls == 0
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(SPECS) * len(archive)
        assert all(cell.cached for cell in warm.cells)
        # ...while reproducing byte-identical artifacts
        assert warm.manifest().to_json() == cold.manifest().to_json()

    def test_param_change_misses(self, archive, tmp_path, counter):
        cache = ResultCache(tmp_path)
        EvalEngine([DetectorSpec.create("moving_zscore", k=50)], cache=cache).run(
            archive
        )
        counter.calls = 0
        EvalEngine([DetectorSpec.create("moving_zscore", k=60)], cache=cache).run(
            archive
        )
        assert counter.calls == len(archive)

    def test_data_change_misses(self, archive, tmp_path, counter):
        cache = ResultCache(tmp_path)
        EvalEngine(SPECS[:1], cache=cache).run(archive)
        edited = Archive(
            "toy-edited",
            [s.with_values(s.values + 1e-9) for s in archive.series],
        )
        counter.calls = 0
        EvalEngine(SPECS[:1], cache=cache).run(edited)
        assert counter.calls == len(archive)

    def test_scoring_change_misses(self, archive, tmp_path, counter):
        cache = ResultCache(tmp_path)
        EvalEngine(SPECS[:1], cache=cache).run(archive)
        counter.calls = 0
        EvalEngine(
            SPECS[:1], cache=cache, scoring=UcrScoring(minimum_slop=50)
        ).run(archive)
        assert counter.calls == len(archive)

    def test_partial_warmth(self, archive, tmp_path, counter):
        cache = ResultCache(tmp_path)
        EvalEngine(SPECS[:1], cache=cache).run(archive)
        counter.calls = 0
        report = EvalEngine(SPECS, cache=cache).run(archive)
        assert counter.calls == (len(SPECS) - 1) * len(archive)
        assert report.stats.cache_hits == len(archive)

    def test_malformed_cached_location_is_a_miss(
        self, archive, tmp_path, counter
    ):
        cache = ResultCache(tmp_path)
        EvalEngine(SPECS[:1], cache=cache).run(archive)
        for path in tmp_path.glob("??/*.json"):
            path.write_text('{"location": null}')
        counter.calls = 0
        report = EvalEngine(SPECS[:1], cache=cache).run(archive)
        assert counter.calls == len(archive)
        assert report.stats.executed == len(archive)

    def test_cache_accepts_path(self, archive, tmp_path):
        report = EvalEngine(SPECS[:1], cache=tmp_path / "c").run(archive)
        assert report.stats.executed == len(archive)
        warm = EvalEngine(SPECS[:1], cache=tmp_path / "c").run(archive)
        assert warm.stats.executed == 0
