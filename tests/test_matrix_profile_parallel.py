"""Sharded (``jobs=``) and anytime (``approx=``) mpx sweeps.

The parallel contract is stronger than "close enough": the sharded
sweep must be **bit-identical** to the serial one — profiles AND
neighbour indices — for every jobs value, because shard boundaries are
block-aligned (every float op inside a block is the op the serial
sweep performs), the shard plan depends only on the problem shape, and
shards merge in ascending diagonal order with a strict ``>`` that
reproduces the serial first-occurrence tie rule.  ``jobs=1`` runs the
identical shard plan in-process, so the cheap property sweeps below
exercise planning + merge on every input family without paying pool
start-up per hypothesis example; real multi-process pools are covered
by the smaller explicit grids.

The anytime contract is an upper bound: ``approx=f`` sweeps a leading
prefix of diagonals, so every reported distance is >= the exact one —
by *exact* float comparison, not a tolerance, because the partial
sweep keeps the best-so-far of a subset of the same float candidates.
Nested prefixes also make the bound pointwise monotone in coverage.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import (
    discord_search,
    matrix_profile,
    merlin,
    plan_shards,
)
from repro.detectors.matrix_profile import (
    ApproxReport,
    _DIAG_BLOCK,
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
        # genuine worker processes: jobs exceeding, equal to and below
        # the shard count, odd and even windows
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

    def test_budget_split_per_worker(self):
        values = make_family("walk", 17, 3000)
        budget = 8 << 20
        base = matrix_profile(values, 50, max_memory_bytes=budget)
        for jobs in (2, 4):
            got = matrix_profile(
                values, 50, max_memory_bytes=budget, jobs=jobs
            )
            # the budget is a *process* cap: per-worker workspaces must
            # leave the documented jobs x workspace product inside it
            assert got.workspace_bytes * jobs <= budget
            assert_bit_identical(base, got)

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
    def test_default_jobs_roundtrip_and_env(self, monkeypatch):
        import importlib

        mp = importlib.import_module("repro.detectors.matrix_profile")
        monkeypatch.setattr(mp, "_default_kernel_jobs", None)
        monkeypatch.delenv("REPRO_KERNEL_JOBS", raising=False)
        assert default_kernel_jobs() is None
        monkeypatch.setenv("REPRO_KERNEL_JOBS", "3")
        assert default_kernel_jobs() == 3
        set_default_kernel_jobs(2)
        try:
            assert default_kernel_jobs() == 2
            assert os.environ["REPRO_KERNEL_JOBS"] == "2"
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
        assert "REPRO_KERNEL_JOBS" not in os.environ

    def test_set_default_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_default_kernel_jobs(0)

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_KERNEL_JOBS"):
            default_kernel_jobs()


class TestShardTraces:
    """Sharded sweeps splice worker spans into the parent's trace."""

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
        values = make_family("walk", 31, 3000)
        base, records_one, metrics_one = self.run_traced(values, 24, 1)
        got, records_pool, metrics_pool = self.run_traced(values, 24, 3)
        assert_bit_identical(base, got)
        assert records_one == records_pool
        assert metrics_one == metrics_pool
        names = [record["name"] for record in records_one]
        assert names.count("mpx.shard") == base.shards
        assert metrics_one["counters"]["mpx_shards"] == base.shards

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
TestAnytimeOnNumpy = on_numpy(TestAnytime)
