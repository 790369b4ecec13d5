"""Sharded (``jobs=``) and anytime (``approx=``) mpx sweeps.

The parallel contract is stronger than "close enough": the sharded
sweep must be **bit-identical** to the serial one — profiles AND
neighbour indices — for every jobs value, because shard boundaries are
block-aligned (every float op inside a block is the op the serial
sweep performs), the shard plan depends only on the problem shape, and
shards merge in ascending diagonal order with a strict ``>`` that
reproduces the serial first-occurrence tie rule.  ``jobs=1`` runs the
identical shard plan on the calling thread, so the cheap property
sweeps below exercise planning + merge on every input family without
starting threads per hypothesis example; real thread pools are covered
by the smaller explicit grids.

The anytime contract is an upper bound: ``approx=f`` sweeps a leading
prefix of diagonals, so every reported distance is >= the exact one —
by *exact* float comparison, not a tolerance, because the partial
sweep keeps the best-so-far of a subset of the same float candidates.
Nested prefixes also make the bound pointwise monotone in coverage.
"""

import concurrent.futures
import multiprocessing.process
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import (
    discord_search,
    matrix_profile,
    merlin,
    native,
    plan_shards,
)
from repro.detectors.matrix_profile import (
    ApproxReport,
    _CHUNK,
    _DIAG_BLOCK,
    SweepStopped,
    bind_cell_thread,
    default_kernel_jobs,
    set_default_kernel_jobs,
)
from repro.obs import canonical_records, tracing_session

from kernel_backends import on_numpy
from test_matrix_profile_chunked import make_family


def assert_bit_identical(base, got):
    np.testing.assert_array_equal(got.profile, base.profile)
    if base.indices is not None and got.indices is not None:
        np.testing.assert_array_equal(got.indices, base.indices)


class TestShardedEqualsSerial:
    """Bit-identity of the sharded sweep across the PR 3 input families."""

    def check(self, values, w, exclusion=None, jobs_values=(1,)):
        base = matrix_profile(values, w, exclusion)
        assert base.jobs is None and base.shards == 0
        m = values.size - w + 1
        effective = w if exclusion is None else exclusion
        for jobs in jobs_values:
            got = matrix_profile(values, w, exclusion, jobs=jobs)
            assert got.jobs == jobs
            # an empty diagonal range (exclusion >= m) has nothing to
            # shard; everywhere else the plan yields at least one shard
            assert (got.shards >= 1) == (effective < m)
            assert_bit_identical(base, got)
            fast = matrix_profile(
                values, w, exclusion, with_indices=False, jobs=jobs
            )
            np.testing.assert_array_equal(fast.profile, base.profile)
        return base

    @given(
        st.sampled_from(["walk", "constant", "spikes", "near_constant"]),
        st.integers(0, 2**16),
        st.sampled_from([4, 5, 8, 13]),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_grid(self, kind, seed, w):
        # n large enough that plan_shards yields several shards for
        # every w drawn; jobs=1 keeps the identical plan in-process
        values = make_family(kind, seed, 1500)
        self.check(values, w)

    @given(st.integers(0, 2**16), st.sampled_from([0, 1, 3, 8, 500, 2000]))
    @settings(max_examples=10, deadline=None)
    def test_property_exclusion_edges(self, seed, exclusion):
        # exclusion=0 keeps the self-match diagonal; 500 leaves one
        # short shard range; 2000 exceeds the subsequence count
        values = make_family("walk", seed, 1800)
        self.check(values, 8, exclusion)

    def test_real_pools_across_families_and_jobs(self):
        # genuine thread pools: jobs exceeding, equal to and below the
        # shard count, odd and even windows
        for kind, w in (("walk", 64), ("spikes", 33), ("constant", 10)):
            values = make_family(kind, 3, 4000)
            self.check(values, w, jobs_values=(2, 3, 7))

    def test_shard_boundary_ties_resolve_first_occurrence(self):
        # a tiled motif makes whole diagonals exactly tied across shard
        # boundaries; the merged neighbour indices must be the serial
        # sweep's first-occurrence picks, not "any tied neighbour"
        motif = np.sin(np.linspace(0, 4 * np.pi, 80))
        values = np.concatenate([motif] * 40)  # n=3200, ties everywhere
        base = matrix_profile(values, 16)
        for jobs in (1, 2, 3):
            got = matrix_profile(values, 16, jobs=jobs)
            assert got.shards > 1
            assert_bit_identical(base, got)

    def test_jobs_validation(self):
        values = make_family("walk", 1, 500)
        with pytest.raises(ValueError, match="jobs"):
            matrix_profile(values, 8, jobs=0)

    def test_discord_search_parallel_matches_serial(self):
        values = make_family("walk", 23, 3000)
        assert discord_search(values, 40) == discord_search(
            values, 40, jobs=2
        )
        # an unbeatable floor abandons both ways
        location, distance = discord_search(values, 40)
        floor = distance / np.sqrt(40) + 1.0
        assert discord_search(values, 40, normalized_floor=floor) is None
        assert (
            discord_search(values, 40, normalized_floor=floor, jobs=2) is None
        )

    def test_merlin_parallel_matches_serial(self):
        values = make_family("walk", 29, 2500)
        assert merlin(values, 16, 64, 4) == merlin(values, 16, 64, 4, jobs=2)


class TestLateShardAbandonRegression:
    """A shard used to check early abandonment with its first diagonal
    as the exclusion zone, so rows whose only pairs lay in earlier
    shards were skipped, and a late shard abandoned a search the single
    sweep finishes."""

    def test_late_shard_keeps_rows_paired_in_earlier_shards(self):
        # a walk repeated at lag 2,482 around a free middle
        # [1518, 2482): every row the last shard (which starts at
        # diagonal 2482) can pair matches exactly there, while the free
        # middle, whose pairs all lie in earlier shards, holds the discord
        walk = np.cumsum(np.random.default_rng(1).standard_normal(2482))
        values = np.concatenate([walk, walk[:1518]])
        assert plan_shards(values.size - 50 + 1, 50)[-1][0] == 2482
        serial = discord_search(values, 50, normalized_floor=0.01)
        assert serial is not None and 1518 <= serial[0] < 2482
        for jobs in (1, 2):
            assert (
                discord_search(values, 50, normalized_floor=0.01, jobs=jobs)
                == serial
            )


class TestKernelJobsStartNoProcess:
    """Kernel jobs are threads of the calling process."""

    @pytest.fixture()
    def no_processes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel jobs started a process")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        # every start method's Process inherits this start()
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)

    def test_entry_points(self, no_processes):
        values = make_family("walk", 37, 3000)
        base = matrix_profile(values, 40)
        assert_bit_identical(base, matrix_profile(values, 40, jobs=2))
        assert discord_search(values, 40, jobs=2) == discord_search(values, 40)
        assert merlin(values, 16, 64, 4, jobs=2) == merlin(values, 16, 64, 4)

    def test_served_refits(self, no_processes):
        from repro.serve import StreamCluster

        rng = np.random.default_rng(5)
        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream(
                "t", "s", "matrix_profile(w=20, jobs=2)",
                np.cumsum(rng.standard_normal(1000)),
                window=3000, refit_every=40,
            )
            for _ in range(10):
                cluster.append("t", "s", np.cumsum(rng.standard_normal(50)))
            assert cluster.scores("t", "s")["total"] == 500


def on_cell_thread(stop, fn):
    """``fn()`` on a thread bound as an engine cell thread to ``stop``."""
    outcome = {}

    def run():
        bind_cell_thread(stop)
        try:
            outcome["result"] = fn()
        except BaseException as error:
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return outcome


class TestCellThreadStop:
    """A sweep on an engine cell thread stops once its flag is set."""

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_a_set_flag_stops_the_sweep_and_its_shards(self, jobs):
        values = make_family("walk", 17, 3000)
        stop = threading.Event()
        stop.set()
        outcome = on_cell_thread(
            stop, lambda: matrix_profile(values, 40, jobs=jobs)
        )
        assert isinstance(outcome.get("error"), SweepStopped)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_an_unset_flag_changes_nothing(self, jobs):
        values = make_family("walk", 17, 3000)
        outcome = on_cell_thread(
            threading.Event(), lambda: matrix_profile(values, 40, jobs=jobs)
        )
        assert_bit_identical(matrix_profile(values, 40), outcome["result"])

    def test_a_set_flag_stops_a_knn_score(self):
        from repro.detectors import KnnDistanceDetector

        values = make_family("walk", 17, 3000)
        detector = KnnDistanceDetector(w=40).fit(values[:1000])
        stop = threading.Event()
        scored = on_cell_thread(stop, lambda: detector.score(values))
        assert scored["result"].size == values.size
        stop.set()
        outcome = on_cell_thread(stop, lambda: detector.score(values))
        assert isinstance(outcome.get("error"), SweepStopped)

    def test_the_flag_stays_on_its_thread(self):
        # a sweep on any other thread ignores a set flag
        stop = threading.Event()
        stop.set()
        on_cell_thread(stop, lambda: None)
        values = make_family("walk", 17, 1500)
        assert matrix_profile(values, 40, jobs=2).profile.size > 0


class TestPlanShards:
    def test_block_aligned_covering_partition(self):
        m, exclusion = 50_000, 100
        shards = plan_shards(m, exclusion)
        assert 1 < len(shards) <= 32
        assert shards[0][0] == exclusion
        assert shards[-1][1] == m
        for (_, hi), (lo, _) in zip(shards, shards[1:]):
            assert hi == lo  # contiguous, disjoint
            assert (lo - exclusion) % _DIAG_BLOCK == 0  # aligned

    def test_plan_depends_only_on_shape(self):
        # the jobs-independence invariant: there is no jobs parameter,
        # and equal shapes give equal plans
        assert plan_shards(40_000, 64) == plan_shards(40_000, 64)

    def test_pair_balance(self):
        m, exclusion = 200_000, 100
        shards = plan_shards(m, exclusion)
        weights = [
            (hi - lo) * (2 * m - lo - hi + 1) // 2 for lo, hi in shards
        ]
        # leading diagonals are the heaviest; balanced cuts keep every
        # shard within a small factor of the mean
        mean = sum(weights) / len(weights)
        assert max(weights) < 2.0 * mean

    def test_diag_stop_restricts_range(self):
        shards = plan_shards(10_000, 50, diag_stop=3000)
        assert shards[0][0] == 50
        assert shards[-1][1] == 3000

    def test_degenerate_ranges(self):
        assert plan_shards(100, 100) == []
        assert plan_shards(100, 300) == []
        assert plan_shards(500, 20) == [(20, 500)]  # too small to split


class TestAnytime:
    def test_report_accounting_and_bound(self):
        values = make_family("walk", 7, 3000)
        base = matrix_profile(values, 20, with_indices=False)
        previous = None
        for fraction in (0.02, 0.1, 0.3, 1.0):
            got = matrix_profile(
                values, 20, with_indices=False, approx=fraction
            )
            report = got.report
            assert isinstance(report, ApproxReport)
            assert report.fraction == fraction
            # block rounding only ever widens coverage
            assert report.pairs_swept >= int(fraction * report.pairs_total)
            assert report.fraction_swept >= fraction
            assert (
                report.diagonals_swept % _DIAG_BLOCK == 0
                or report.diagonals_swept == report.diagonals_total
            )
            # upper bound and monotone convergence, by exact comparison
            assert np.all(got.profile >= base.profile)
            if previous is not None:
                assert np.all(got.profile <= previous)
            previous = got.profile
        full = matrix_profile(values, 20, with_indices=False, approx=1.0)
        assert full.report.exact
        np.testing.assert_array_equal(full.profile, base.profile)

    def test_report_to_json_names_the_guarantee(self):
        values = make_family("walk", 3, 1000)
        got = matrix_profile(values, 10, approx=0.1)
        payload = got.report.to_json()
        assert payload["guarantee"] == "upper_bound"
        assert payload["pairs_swept"] <= payload["pairs_total"]

    def test_exact_run_has_no_report(self):
        values = make_family("walk", 3, 500)
        assert matrix_profile(values, 10).report is None

    def test_indices_are_bound_witnesses(self):
        # under approx the indices must witness the reported distances:
        # every reported pair really is at the reported distance
        values = make_family("walk", 11, 2000)
        got = matrix_profile(values, 25, approx=0.2)
        exact = matrix_profile(values, 25)
        i = int(np.argmax(np.where(np.isfinite(got.profile), got.profile, -np.inf)))
        j = int(got.indices[i])
        a = values[i : i + 25]
        b = values[j : j + 25]
        za = (a - a.mean()) / a.std()
        zb = (b - b.mean()) / b.std()
        observed = float(np.sqrt(max(0.0, ((za - zb) ** 2).sum())))
        assert observed == pytest.approx(float(got.profile[i]), abs=1e-5)
        assert got.profile[i] >= exact.profile[i]

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_fraction_validation(self, fraction):
        values = make_family("walk", 3, 500)
        with pytest.raises(ValueError, match="approx"):
            matrix_profile(values, 10, approx=fraction)

    def test_degenerate_short_series_is_exact(self):
        # 2*exclusion > m: no admissible pairs, so any fraction already
        # covers everything and the report says exact
        values = make_family("walk", 3, 60)
        got = matrix_profile(values, 25, approx=0.01)
        assert got.report.exact

    def test_approx_composes_with_jobs(self):
        values = make_family("walk", 19, 3000)
        serial = matrix_profile(values, 20, approx=0.1)
        for jobs in (1, 2):
            got = matrix_profile(values, 20, approx=0.1, jobs=jobs)
            assert_bit_identical(serial, got)
            assert got.report.pairs_swept == serial.report.pairs_swept


class TestKernelJobsDefault:
    def test_default_jobs_roundtrip(self, monkeypatch):
        import importlib

        mp = importlib.import_module("repro.detectors.matrix_profile")
        monkeypatch.setattr(mp, "_default_kernel_jobs", None)
        assert default_kernel_jobs() is None
        set_default_kernel_jobs(2)
        try:
            assert default_kernel_jobs() == 2
            values = make_family("walk", 13, 1500)
            base = matrix_profile(values, 30)
            # with a default installed, plain calls shard transparently
            assert base.jobs == 2 and base.shards >= 1
            explicit = matrix_profile(values, 30, jobs=1)
            assert explicit.jobs == 1
            assert_bit_identical(base, explicit)
        finally:
            set_default_kernel_jobs(None)
        assert mp._default_kernel_jobs is None

    def test_set_default_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_default_kernel_jobs(0)


class TestShardTraces:
    """Sharded sweeps splice each shard's spans into the caller's trace."""

    def run_traced(self, values, w, jobs):
        with tracing_session() as (tracer, registry):
            result = matrix_profile(values, w, jobs=jobs)
            records = canonical_records(tracer.export())
            metrics = registry.snapshot(histogram_values=False)
        # jobs is honest config, not nondeterminism; normalize it away
        for record in records:
            record["attrs"].pop("jobs", None)
        return result, records, metrics

    def test_pool_trace_equals_in_process_trace(self):
        # long enough that the leading blocks span three numpy tiles,
        # so on numpy the trees hold several mpx.chunk spans per block
        values = make_family("walk", 31, 3 * _CHUNK + 300)
        base, records_one, metrics_one = self.run_traced(values, 24, 1)
        got, records_pool, metrics_pool = self.run_traced(values, 24, 3)
        assert_bit_identical(base, got)
        assert records_one == records_pool
        assert metrics_one == metrics_pool
        names = [record["name"] for record in records_one]
        assert names.count("mpx.shard") == base.shards
        assert metrics_one["counters"]["mpx_shards"] == base.shards
        # only the numpy sweep tiles, and its leading blocks split
        tiled = names.count("mpx.chunk") > names.count("mpx.block")
        assert tiled == (native.backend() == "numpy")

    def test_serial_trace_shape_unchanged(self):
        # jobs=None must keep the historical span tree: no shard spans,
        # no shard counter — the refactor cannot disturb existing traces
        values = make_family("walk", 31, 1200)
        with tracing_session() as (tracer, registry):
            matrix_profile(values, 24)
            names = [r["name"] for r in canonical_records(tracer.export())]
            metrics = registry.snapshot(histogram_values=False)
        assert "mpx.shard" not in names
        assert "mpx.profile" in names
        assert "mpx_shards" not in metrics["counters"]


# the same properties on the numpy fallback sweep (tests/conftest.py)
TestShardedEqualsSerialOnNumpy = on_numpy(TestShardedEqualsSerial)
TestLateShardAbandonRegressionOnNumpy = on_numpy(TestLateShardAbandonRegression)
TestAnytimeOnNumpy = on_numpy(TestAnytime)
TestCellThreadStopOnNumpy = on_numpy(TestCellThreadStop)
TestShardTracesOnNumpy = on_numpy(TestShardTraces)
