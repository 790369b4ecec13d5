"""Tests for repro.obs.regression: the perf-regression sentinel.

The gate's contracts, in order of importance:

* an unmodified re-run judges within-noise — zero false alarms is the
  property that lets CI run this on every PR;
* an injected 2x kernel slowdown judges regressed, through the
  bootstrap-CI path when repeat samples exist;
* direction inference never gates a metric backwards (a speedup going
  up is not a regression) and ungateable metrics stay out entirely;
* host identity is checked, with a lossless backfill for the committed
  BENCH_3..9 reports that predate the ``host`` block;
* the verdict artifact is deterministic given its inputs.
"""

import json

import pytest

from repro.obs import compare_reports, format_compare, latest_baseline, load_trajectory
from repro.obs.regression import (
    DEFAULT_NOISE_PCT,
    flatten_metrics,
    host_block,
    hosts_match,
    metric_direction,
)

HOST = {
    "python": "3.11.7",
    "platform": "Linux-test",
    "cpu_count": 4,
    "env_overrides": {},
    "timing_noise_pct": 2.0,
}


def make_report(mpx=1.0, *, runs=None, speedup=100.0, host=None, quick=False):
    """A miniature but schema-faithful bench report."""
    row = {
        "n": 65536,
        "mpx_seconds": mpx,
        "stomp_seconds": mpx * 8,
        "speedup_vs_naive": speedup,
        "naive_estimated": False,
    }
    if runs is not None:
        row["mpx_seconds_runs"] = list(runs)
    return {
        "schema": "repro-bench/1",
        "label": "BENCH_T",
        "quick": quick,
        "repeats": 3,
        "env": {
            "python": HOST["python"],
            "numpy": "2.0",
            "platform": HOST["platform"],
            "cpu_count": HOST["cpu_count"],
        },
        "sections": {"kernel": {"w": 256, "results": [row]}},
        "checks": {"kernel_speedup_vs_naive": speedup},
        "host": dict(HOST) if host is None else host,
    }


class TestFlatten:
    def test_nested_paths_with_list_indices(self):
        flat = flatten_metrics(make_report(mpx=1.5))
        assert flat["kernel.results[0].mpx_seconds"] == 1.5
        assert flat["checks.kernel_speedup_vs_naive"] == 100.0

    def test_runs_lists_survive_whole(self):
        flat = flatten_metrics(make_report(runs=[1.0, 1.1, 0.9]))
        assert flat["kernel.results[0].mpx_seconds_runs"] == [1.0, 1.1, 0.9]

    def test_bools_and_strings_drop_out(self):
        flat = flatten_metrics(make_report())
        assert "kernel.results[0].naive_estimated" not in flat


class TestDirection:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("kernel.results[0].mpx_seconds", -1),
            ("kernel.results[0].mpx_pairs_per_second", +1),
            ("serve.append_p99_ms", -1),
            ("obs.span_enabled_ns", -1),
            ("scaling.results[0].tracemalloc_peak_bytes", -1),
            ("checks.kernel_speedup_vs_naive", +1),
            ("serve.points_per_second", +1),
            ("kernel.results[0].n", None),
            ("watch.saturation.false_firings", None),
            ("kernel.results[0].mpx_seconds_runs", None),
        ],
    )
    def test_direction(self, path, expected):
        assert metric_direction(path) == expected


class TestHostIdentity:
    def test_host_block_passthrough(self):
        assert host_block(make_report())["timing_noise_pct"] == 2.0

    def test_backfill_from_env_for_old_reports(self):
        report = make_report()
        del report["host"]
        block = host_block(report)
        assert block["python"] == HOST["python"]
        assert block["platform"] == HOST["platform"]
        assert block["cpu_count"] == HOST["cpu_count"]
        assert block.get("timing_noise_pct") is None

    def test_hosts_match_tolerates_missing_block(self):
        old = make_report()
        del old["host"]
        assert hosts_match(make_report(), old)

    def test_hosts_differ_on_platform(self):
        other = make_report(host={**HOST, "platform": "Darwin-test"})
        assert not hosts_match(make_report(), other)

    def test_hosts_differ_on_kernel_backend(self):
        # a numpy-fallback run must never gate against a compiled one
        compiled = make_report(host={**HOST, "kernel_backend": "compiled"})
        fallback = make_report(host={**HOST, "kernel_backend": "numpy"})
        assert not hosts_match(compiled, fallback)
        assert hosts_match(compiled, make_report(host=dict(compiled["host"])))
        # reports from before the key match either, as they always did
        assert hosts_match(compiled, make_report())
        assert hosts_match(make_report(), fallback)

    def test_hosts_differ_on_kernel_simd(self):
        # an AVX2 sweep must never gate against an SSE2 one
        compiled = {**HOST, "kernel_backend": "compiled"}
        avx2 = make_report(host={**compiled, "kernel_simd": "avx2"})
        sse2 = make_report(host={**compiled, "kernel_simd": "sse2"})
        assert not hosts_match(avx2, sse2)
        assert hosts_match(avx2, make_report(host=dict(avx2["host"])))
        # reports from before the key match either, as they always did
        assert hosts_match(avx2, make_report(host=compiled))
        assert hosts_match(make_report(), sse2)

    def test_hosts_never_match_on_absent_identity(self):
        blank = {"schema": "repro-bench/1", "sections": {}, "checks": {}}
        assert not hosts_match(blank, blank)


class TestTrajectoryLoading:
    def write(self, directory, n, report):
        path = directory / f"BENCH_{n}.json"
        path.write_text(json.dumps(report))
        return path

    def test_sorted_numerically_not_lexically(self, tmp_path):
        for n in (10, 2, 9):
            self.write(tmp_path, n, make_report())
        points = load_trajectory(str(tmp_path))
        assert [p["trajectory"] for p in points] == [2, 9, 10]
        assert latest_baseline(str(tmp_path))["trajectory"] == 10

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no BENCH_"):
            load_trajectory(str(tmp_path))

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trajectory(str(tmp_path / "nope"))

    def test_wrong_schema_raises(self, tmp_path):
        self.write(tmp_path, 1, {"schema": "other/1"})
        with pytest.raises(ValueError, match="unexpected schema"):
            load_trajectory(str(tmp_path))

    def test_corrupt_json_raises(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{nope")
        with pytest.raises(json.JSONDecodeError):
            load_trajectory(str(tmp_path))

    def test_unrelated_files_ignored(self, tmp_path):
        self.write(tmp_path, 1, make_report())
        (tmp_path / "README.md").write_text("not a report")
        assert len(load_trajectory(str(tmp_path))) == 1

    def test_real_committed_trajectory_loads(self):
        points = load_trajectory("benchmarks/perf")
        assert [p["trajectory"] for p in points] == sorted(
            p["trajectory"] for p in points
        )
        assert all(
            p["report"]["schema"] == "repro-bench/1" for p in points
        )


class TestTheGate:
    def test_a_metric_the_baseline_lacks_is_not_judged(self):
        # BENCH_10 predates the kernel rows' mpx_pairs_per_second
        baseline = next(
            point["report"]
            for point in load_trajectory("benchmarks/perf")
            if point["trajectory"] == 10
        )
        fresh = json.loads(json.dumps(baseline))
        for row in fresh["sections"]["kernel"]["results"]:
            row["mpx_pairs_per_second"] = 1e9
        verdict = compare_reports(fresh, baseline)
        judged = [row["path"] for row in verdict["metrics"]]
        assert "kernel.results[0].mpx_seconds" in judged
        assert not any("mpx_pairs_per_second" in path for path in judged)

    def test_unmodified_rerun_is_within_noise(self):
        baseline = make_report(mpx=1.0, runs=[1.0, 1.01, 0.99])
        fresh = make_report(mpx=1.01, runs=[1.01, 1.0, 1.02])
        verdict = compare_reports(fresh, baseline)
        assert verdict["verdict"] == "within-noise"
        assert verdict["summary"]["regressed"] == 0

    def test_injected_2x_slowdown_regresses_via_the_ci_path(self):
        baseline = make_report(mpx=1.0, runs=[1.0, 1.01, 0.99], speedup=100.0)
        fresh = make_report(mpx=2.0, runs=[2.0, 2.02, 1.98], speedup=50.0)
        verdict = compare_reports(fresh, baseline)
        assert verdict["verdict"] == "regressed"
        row = next(
            r
            for r in verdict["metrics"]
            if r["path"] == "kernel.results[0].mpx_seconds"
        )
        assert row["verdict"] == "regressed"
        assert row["change_pct"] == pytest.approx(100.0, abs=1.0)
        assert row["ci"]["n"] == 3  # judged on the bootstrap interval
        speedup = next(
            r
            for r in verdict["metrics"]
            if r["path"] == "checks.kernel_speedup_vs_naive"
        )
        assert speedup["verdict"] == "regressed"  # higher-is-better axis

    def test_speedup_increase_is_improvement_not_regression(self):
        baseline = make_report(mpx=1.0, speedup=100.0)
        fresh = make_report(mpx=0.5, speedup=200.0)
        verdict = compare_reports(fresh, baseline)
        assert verdict["verdict"] == "improved"
        assert verdict["summary"]["regressed"] == 0

    def test_change_inside_the_allowance_is_noise(self):
        baseline = make_report(mpx=1.0)
        fresh = make_report(mpx=1.08)  # +8% < the 10% floor
        verdict = compare_reports(fresh, baseline)
        row = next(
            r
            for r in verdict["metrics"]
            if r["path"] == "kernel.results[0].mpx_seconds"
        )
        assert row["verdict"] == "within-noise"

    def test_noise_floor_widened_by_host_calibration(self):
        fresh = make_report(host={**HOST, "timing_noise_pct": 25.0})
        verdict = compare_reports(fresh, make_report())
        assert verdict["noise_pct"] == 25.0

    def test_explicit_noise_floor_honoured(self):
        verdict = compare_reports(
            make_report(mpx=1.15), make_report(mpx=1.0), noise_pct=20.0
        )
        assert verdict["noise_pct"] == 20.0
        assert verdict["verdict"] == "within-noise"

    @pytest.mark.parametrize("noise_pct", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_noise_floor_rejected(self, noise_pct):
        # max(nan, measured) is nan and every limit comparison with nan
        # is false: the gate would pass a 2x regression
        with pytest.raises(ValueError, match="noise_pct"):
            compare_reports(
                make_report(mpx=2.0), make_report(mpx=1.0), noise_pct=noise_pct
            )

    def test_default_noise_floor(self):
        report = make_report(host={**HOST, "timing_noise_pct": None})
        verdict = compare_reports(report, make_report())
        assert verdict["noise_pct"] == DEFAULT_NOISE_PCT

    def test_metrics_only_in_one_report_are_ignored(self):
        baseline = make_report()
        fresh = make_report()
        fresh["sections"]["extra"] = {"new_seconds": 1.0}
        verdict = compare_reports(fresh, baseline)
        assert all(
            not row["path"].startswith("extra") for row in verdict["metrics"]
        )

    def test_host_match_recorded(self):
        other = make_report(host={**HOST, "cpu_count": 64})
        assert compare_reports(make_report(), make_report())["host_match"]
        assert not compare_reports(other, make_report())["host_match"]

    def test_verdict_artifact_is_deterministic(self):
        baseline = make_report(mpx=1.0, runs=[1.0, 1.1, 0.9])
        fresh = make_report(mpx=2.0, runs=[2.0, 2.1, 1.9])
        first = compare_reports(fresh, baseline, baseline_path="x.json")
        second = compare_reports(fresh, baseline, baseline_path="x.json")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_schema_and_labels(self):
        verdict = compare_reports(
            make_report(), make_report(), baseline_path="b/BENCH_9.json"
        )
        assert verdict["schema"] == "repro-bench-compare/1"
        assert verdict["baseline"]["path"] == "b/BENCH_9.json"
        assert verdict["baseline"]["label"] == "BENCH_T"


def overhead_report(*, disabled=None, idle=None, runs=None):
    """``make_report`` plus the obs/watch overhead percentages."""
    report = make_report()
    if disabled is not None:
        report["sections"]["obs"] = {"disabled_overhead_pct": disabled}
        if runs is not None:
            report["sections"]["obs"]["disabled_overhead_pct_runs"] = runs
    if idle is not None:
        report["sections"]["watch"] = {"idle_overhead_pct": idle}
    return report


def row_for(verdict, path):
    return next(row for row in verdict["metrics"] if row["path"] == path)


class TestPercentagePoints:
    """A ``*_pct`` metric is judged in percentage points around the
    baseline.  Relative to a baseline near zero, any jitter reads as a
    large change, and a baseline <= 0 has no relative change at all."""

    def test_small_rise_of_a_small_overhead_is_within_noise(self):
        verdict = compare_reports(
            overhead_report(idle=0.6), overhead_report(idle=0.4)
        )
        row = row_for(verdict, "watch.idle_overhead_pct")
        assert row["verdict"] == "within-noise"  # +0.2 points, not +50%
        assert row["change_points"] == pytest.approx(0.2)
        assert "change_pct" not in row

    def test_small_fall_of_a_small_overhead_is_within_noise(self):
        verdict = compare_reports(
            overhead_report(idle=0.3), overhead_report(idle=0.4)
        )
        assert row_for(verdict, "watch.idle_overhead_pct")["verdict"] == (
            "within-noise"
        )

    def test_negative_baseline_is_judged_not_skipped(self):
        # BENCH_10's obs.disabled_overhead_pct against a fresh +40%
        verdict = compare_reports(
            overhead_report(disabled=40.0, runs=[39.0, 40.0, 41.0]),
            overhead_report(disabled=-2.26),
        )
        row = row_for(verdict, "obs.disabled_overhead_pct")
        assert row["verdict"] == "regressed"
        assert row["ci"]["n"] == 3
        assert verdict["summary"]["skipped"] == 0

    def test_allowance_is_noise_pct_points_around_the_baseline(self):
        # BENCH_10's watch.idle_overhead_pct, +0.40%, and the default
        # 10-point allowance (this host's calibrated noise is 2%)
        baseline = overhead_report(idle=0.40)
        for fresh, expected in ((0.45, "within-noise"),
                                (10.39, "within-noise"),
                                (10.41, "regressed"),
                                (-9.61, "improved")):
            verdict = compare_reports(overhead_report(idle=fresh), baseline)
            row = row_for(verdict, "watch.idle_overhead_pct")
            assert row["verdict"] == expected, fresh

    def test_points_are_rendered_as_points(self):
        verdict = compare_reports(
            overhead_report(idle=12.0), overhead_report(idle=0.4)
        )
        assert "+11.60pt regressed" in format_compare(verdict)


class TestFormatting:
    def test_headline_and_table(self):
        baseline = make_report(mpx=1.0, runs=[1.0, 1.01, 0.99])
        fresh = make_report(mpx=2.0, runs=[2.0, 2.02, 1.98])
        text = format_compare(compare_reports(fresh, baseline))
        assert "REGRESSED" in text
        assert "kernel.results[0].mpx_seconds" in text
        assert "(CI)" in text

    def test_quiet_verdict_has_no_table(self):
        text = format_compare(compare_reports(make_report(), make_report()))
        assert "WITHIN-NOISE" in text
        assert "metric" not in text
