"""Tests for the evaluation engine.

Covers the subsystem's two contracts: ``--jobs N`` output is
byte-identical to serial, and a warm cache re-run executes *zero*
detector calls while reproducing the same artifacts.  The pool's
dispatch policy (one cell per task, longest series first) is pinned
through a stand-in for its thread pool that runs each cell only when
its result is asked for.  Cells run on threads of the calling process:
no process starts, overlapping cells trace like serial ones, the
kernel-jobs cap stays on the cell threads, and Ctrl-C ends a pooled run
at the running sweeps' next block.
"""

import concurrent.futures
import multiprocessing.process
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import repro.runner.engine as engine_module
from repro.detectors import (
    DetectorSpec,
    bind_cell_thread,
    default_kernel_jobs,
    native,
    set_default_kernel_jobs,
)
from repro.detectors.matrix_profile import MatrixProfileDetector
from repro.obs import (
    canonical_records,
    pop_registry,
    push_registry,
    tracing_session,
)
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


def on_a_thread(initializer, initargs, fn, args):
    """Run ``fn(*args)`` on a new thread set up by ``initializer``."""
    outcome = {}

    def run():
        if initializer is not None:
            initializer(*initargs)
        try:
            outcome["result"] = fn(*args)
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "a cell never finished"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


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
    """Stand-in for the engine's ``ThreadPoolExecutor``.

    Records each submission.  A cell runs when its result is first
    asked for (``lazy``) or at once when it is submitted, on a thread of
    its own that the pool's initializer set up, one cell at a time; a
    cell the engine cancels never runs.
    """

    lazy = True

    def __init__(
        self, max_workers=None, thread_name_prefix="", initializer=None,
        initargs=(),
    ):
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
        future = LazyFuture(
            lambda: on_a_thread(self.initializer, self.initargs, fn, args)
        )
        if not self.lazy:
            try:
                future.result()
            except BaseException:
                pass  # the engine reads it from the future
        self.futures.append(future)
        return future


class EagerPool(RecordingPool):
    """Every cell has finished before the engine asks for a result."""

    lazy = False


def patch_pool(monkeypatch, cls):
    made = []

    def factory(**kwargs):
        made.append(cls(**kwargs))
        return made[-1]

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", factory)
    return made


@pytest.fixture()
def pools(monkeypatch):
    return patch_pool(monkeypatch, RecordingPool)


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
        # each cell thread is bound to the run's stop flag
        assert pool.initializer is bind_cell_thread
        [stop] = pool.initargs
        assert isinstance(stop, threading.Event) and not stop.is_set()
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
        # and the running sweeps were told to stop
        assert pool.initargs[0].is_set()

    def test_kernel_jobs_default_caps_the_workers(
        self, archive, pools, monkeypatch
    ):
        seen = []
        real = engine_module._locate_cell

        def locate(task):
            seen.append(default_kernel_jobs())
            return real(task)

        monkeypatch.setattr(engine_module, "_locate_cell", locate)
        set_default_kernel_jobs(2)
        try:
            EvalEngine(SPECS, jobs=2).run(archive)
            # the cap lives on the cell threads, not on this one
            assert default_kernel_jobs() == 2
        finally:
            set_default_kernel_jobs(None)
        assert seen == [1] * len(SPECS) * len(archive)

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
        # a real pool: the cell's exception reaches the caller with its
        # type
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


def short_tail_archive():
    """1,500, 1,200 and 150 points: the last is too short for w = 100."""
    return Archive(
        "short-tail",
        [
            ucr_series("long", n=1500),
            ucr_series("mid", n=1200, start=700),
            ucr_series("short", n=150, start=100, length=10, train=50),
        ],
    )


def cache_entries(path):
    return len(list(Path(path).glob("??/*.json")))


class TestFinishedCellsAreCachedBeforeTheError:
    """A cell that raises no longer costs the cells that finished."""

    LINEUP = ["diff", "matrix_profile(w=100)"]

    def run_failing(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="too short"):
            EvalEngine(self.LINEUP, cache=tmp_path, jobs=jobs).run(
                short_tail_archive()
            )

    def assert_diff_is_cached(self, tmp_path):
        rerun = EvalEngine(["diff"], cache=tmp_path).run(short_tail_archive())
        assert rerun.stats.executed == 0

    def test_serial(self, tmp_path):
        self.run_failing(tmp_path, 1)
        # every cell before the failing one, in grid order
        assert cache_entries(tmp_path) == 5
        self.assert_diff_is_cached(tmp_path)

    def test_pooled(self, tmp_path, pools):
        self.run_failing(tmp_path, 2)
        [pool] = pools
        # the short series' matrix_profile cell is submitted last
        assert len(pool.submitted) == 6
        assert cache_entries(tmp_path) == 5
        self.assert_diff_is_cached(tmp_path)

    def test_cells_that_finished_ahead_of_their_turn(
        self, tmp_path, monkeypatch
    ):
        # every cell has finished when the first one collected raises:
        # the other five are cached all the same, and the error is the
        # failing cell's own
        made = patch_pool(monkeypatch, EagerPool)
        real = engine_module._locate_cell

        def locate(task):
            spec, series = task
            if (spec.label, series.name) == ("diff", "long"):
                raise RuntimeError("first cell failed")
            return real(task)

        monkeypatch.setattr(engine_module, "_locate_cell", locate)
        archive = Archive("two", short_tail_archive().series[:2])
        lineup = ["diff", "moving_zscore(k=50)", "last_point"]
        with pytest.raises(RuntimeError, match="first cell failed"):
            EvalEngine(lineup, cache=tmp_path, jobs=2).run(archive)
        [pool] = made
        assert all(future.done() for future in pool.futures)
        assert cache_entries(tmp_path) == len(lineup) * len(archive) - 1


@pytest.fixture()
def no_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    # every start method's Process inherits this start()
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def traced_run(specs, archive, jobs):
    """(report, canonical records without ``jobs`` attrs, metrics)."""
    with tracing_session() as (tracer, registry):
        report = EvalEngine(specs, jobs=jobs).run(archive)
        records = canonical_records(tracer.export())
        metrics = registry.snapshot(histogram_values=False)
    # jobs is honest config, not nondeterminism; normalize it away
    for record in records:
        record["attrs"].pop("jobs", None)
    return report, records, metrics


class TestCellsOnThreads:
    MP = [DetectorSpec.create("matrix_profile", w=40), SPECS[0]]

    def test_no_process_is_started(self, archive, no_processes):
        serial = EvalEngine(self.MP, jobs=1).run(archive)
        pooled = EvalEngine(self.MP, jobs=2).run(archive)
        assert pooled.manifest().to_json() == serial.manifest().to_json()
        assert traced_run(self.MP, archive, 2) == traced_run(
            self.MP, archive, 1
        )

    @pytest.mark.parametrize("kernel_jobs", [None, 2])
    def test_overlapping_cells_trace_like_serial(
        self, monkeypatch, kernel_jobs
    ):
        # two matrix-profile cells held together at a barrier, before
        # and after their sweeps, so both sessions are open at once
        pair = Archive(
            "pair", [ucr_series("a", n=1400), ucr_series("b", n=1300)]
        )
        specs = self.MP[:1]
        barrier = threading.Barrier(2, timeout=60)
        real = MatrixProfileDetector.locate

        def locate(detector, series):
            barrier.wait()
            location = real(detector, series)
            barrier.wait()
            return location

        set_default_kernel_jobs(kernel_jobs)
        try:
            serial = traced_run(specs, pair, 1)
            monkeypatch.setattr(MatrixProfileDetector, "locate", locate)
            report, records, metrics = traced_run(specs, pair, 2)
        finally:
            set_default_kernel_jobs(None)
        assert report.manifest().to_json() == serial[0].manifest().to_json()
        names = [record["name"] for record in records]
        assert names.count("mpx.profile") == 2
        assert records == serial[1]
        assert metrics == serial[2]

    def test_more_threads_than_cores_switching_often(self):
        # four cell threads on fewer cores, forced to switch every few
        # microseconds: a span or metric that landed in another cell's
        # session would show in the merged trace
        rng = np.random.default_rng(4)
        noisy = Archive(
            "noisy",
            [
                series.with_values(
                    series.values + 0.1 * rng.standard_normal(series.n)
                )
                for series in (
                    ucr_series(f"n{index}", n=1000 + 100 * index)
                    for index in range(8)
                )
            ],
        )
        specs = self.MP + SPECS[1:2]
        serial = traced_run(specs, noisy, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = [traced_run(specs, noisy, 4) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        manifest = serial[0].manifest().to_json()
        for report, records, metrics in pooled:
            assert report.manifest().to_json() == manifest
            assert records == serial[1]
            assert metrics == serial[2]

    def test_adopted_spans_lie_inside_engine_run(self, archive):
        # cells and their kernel shards trace with tracers of their own;
        # their spans must land on the caller's clock, not each start at
        # zero on a clock of its own, long before the run began
        set_default_kernel_jobs(2)
        try:
            with tracing_session() as (tracer, _registry):
                time.sleep(0.02)
                EvalEngine(self.MP, jobs=2).run(archive)
                records = tracer.export()
        finally:
            set_default_kernel_jobs(None)
        [run] = [r for r in records if r["name"] == "engine.run"]
        names = [r["name"] for r in records]
        assert names.count("engine.locate") == 2 * len(archive)
        assert names.count("mpx.shard") >= len(archive)
        assert run["start_us"] >= 20_000
        end = run["start_us"] + run["duration_us"]
        for record in records:
            assert run["start_us"] <= record["start_us"], record
            # each end rounds down once, the run's twice
            assert record["start_us"] + record["duration_us"] <= end + 1

    def test_untraced_pooled_cells_count_like_serial(self, archive):
        # untraced cells on engine threads record into the caller's
        # registry too, folded in grid order like serial cells
        snapshots = []
        for jobs in (1, 2):
            registry = push_registry()
            try:
                EvalEngine(self.MP, jobs=jobs).run(archive)
            finally:
                pop_registry()
            snapshots.append(registry.snapshot(histogram_values=False))
        serial, pooled = snapshots
        assert serial["counters"]["mpx_profiles"] == len(archive)
        assert "mpx_workspace_bytes" in serial["gauges"]
        assert pooled == serial

    def test_kernel_jobs_cap_stays_on_the_cell_threads(self, archive):
        # under a kernel-jobs default of 2 the cells sweep the shard plan
        # on one thread each, while any other thread still reads 2
        specs = self.MP[:1]
        set_default_kernel_jobs(2)
        reads = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                reads.append(default_kernel_jobs())
                time.sleep(0.0005)

        thread = threading.Thread(target=reader)
        try:
            serial = traced_run(specs, archive, 1)
            thread.start()
            with tracing_session() as (tracer, _registry):
                EvalEngine(specs, jobs=2).run(archive)
                raw = tracer.export()
            pooled = traced_run(specs, archive, 2)
        finally:
            done.set()
            if thread.is_alive():
                thread.join(timeout=60)
            set_default_kernel_jobs(None)
        assert not thread.is_alive()
        assert reads and set(reads) == {2}
        profiles = [r for r in raw if r["name"] == "mpx.profile"]
        assert len(profiles) == len(archive)
        assert {r["attrs"]["jobs"] for r in profiles} == {1}
        names = [record["name"] for record in pooled[1]]
        assert names.count("mpx.shard") >= len(archive)
        assert pooled[1] == serial[1]
        assert pooled[2] == serial[2]


def cpu_seconds(pid):
    """User plus system CPU time of a live process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)
class TestInterrupt:
    """Ctrl-C ends a pooled run at the running sweeps' next block."""

    # series lengths whose matrix-profile sweep takes well over ten
    # seconds of one core on either backend
    LENGTH = {"compiled": 300_000, "numpy": 60_000}

    @pytest.mark.parametrize("backend", ["compiled", "numpy"])
    def test_sigint_to_the_group_ends_a_pooled_run(self, backend, tmp_path):
        env = dict(os.environ)
        src = str(Path(engine_module.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        if backend == "numpy":
            env.update(CC="false", XDG_CACHE_HOME=str(tmp_path / "xdg"))
        elif native.load() is None:
            pytest.skip("no compiled kernel on this host")
        n = self.LENGTH[backend]
        values = np.cumsum(np.random.default_rng(3).standard_normal(n))
        archive_dir = tmp_path / "arch"
        archive_dir.mkdir()
        name = f"UCR_Anomaly_long_1000_{n // 2}_{n // 2 + 99}.txt"
        np.savetxt(archive_dir / name, values, fmt="%.6f")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run", str(archive_dir),
                "--detectors", "matrix_profile(w=100),diff", "--jobs", "2",
                "--out", str(tmp_path / "out"), "--name", "stopped",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            # start-up takes well under a second of CPU; past 1.5 s the
            # sweep has been running on its cell thread for a while
            deadline = time.monotonic() + 60
            while cpu_seconds(proc.pid) < 1.5:
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "the sweep never started"
                time.sleep(0.05)
            sent = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
            elapsed = time.monotonic() - sent
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # the interrupt landed in the pooled run, which then ended with
        # many seconds of sweep left
        assert "KeyboardInterrupt" in stderr
        assert "_run_pool" in stderr
        assert elapsed < 3.0, elapsed


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
