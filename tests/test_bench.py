"""Tests for the `repro bench` perf harness."""

import json

import pytest

from repro import bench
from repro.bench import (
    DEFAULT_OUT,
    SECTIONS,
    format_bench,
    run_bench,
    write_bench,
)
from repro.detectors import native


@pytest.fixture
def tiny_kernel(monkeypatch):
    """Shrink the quick kernel section to one n=512 size, 64 naive rows."""
    monkeypatch.setattr(bench, "_QUICK_SIZES", (512,))
    monkeypatch.setattr(bench, "_NAIVE_ROWS", 64)


class TestRunBench:
    def test_kernel_section_schema(self, tiny_kernel):
        report = run_bench(quick=True, repeats=1, sections=("kernel",))
        assert report["schema"] == "repro-bench/1"
        assert report["quick"] is True
        assert set(report["sections"]) == {"kernel"}
        (row,) = report["sections"]["kernel"]["results"]
        assert row["n"] == 512
        assert row["naive_rows_timed"] == 64
        assert row["naive_estimated"] is True
        assert row["mpx_seconds"] > 0
        past_exclusion = row["num_subsequences"] - row["w"]
        pairs = past_exclusion * (past_exclusion + 1) // 2
        assert row["mpx_pairs_per_second"] == pairs / row["mpx_seconds"]
        assert row["speedup_vs_naive"] > 1
        assert report["checks"] == {
            "kernel_speedup_vs_naive": row["speedup_vs_naive"]
        }

    def test_oneliner_section(self):
        report = run_bench(quick=True, repeats=1, sections=("oneliner",))
        section = report["sections"]["oneliner"]
        assert section["movmax_seconds"] > 0

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown bench sections"):
            run_bench(sections=("kernel", "warp-drive"))

    def test_all_sections_are_known(self):
        assert set(SECTIONS) == {
            "kernel",
            "merlin",
            "knn",
            "oneliner",
            "scaling",
            "streaming",
            "obs",
            "anytime",
            "parallel",
            "drift",
            "watch",
        }

    def test_sections_derive_from_the_table(self):
        assert SECTIONS == tuple(section.name for section in bench._TABLE)
        report = {
            "quick": True,
            "repeats": 1,
            "env": {"numpy": "x", "cpu_count": 1},
            "sections": {
                "oneliner": {"n": 10, "k": 3, "movmax_seconds": 0.5},
                "knn": {
                    "n": 20,
                    "w": 4,
                    "full_score_seconds": 1.0,
                    "short_score_seconds": 0.002,
                },
            },
        }
        # text follows table order, not the report's key order
        lines = format_bench(report).splitlines()
        assert lines[1:] == [
            "",
            "kNN (n=20, w=4): full score 1.000s; short segment 2.0ms",
            "",
            "movmax (n=10, k=3): 0.500s",
        ]

    def test_merlin_section_schema_and_cross_check(self, monkeypatch):
        report = run_bench(quick=True, repeats=1, sections=("merlin",))
        section = report["sections"]["merlin"]
        assert section["n"] == 4_000
        assert section["after_seconds"] > 0
        assert section["after_abandon_seconds"] > 0
        assert section["best"]["length"] in range(24, 97)
        assert report["checks"] == {}
        assert "early abandon" in format_bench(report)

        # early abandon must return the exact search's winner, bit for
        # bit; a pruned search that drifts from it aborts the section
        from repro import detectors

        merlin = detectors.merlin

        def drifting(values, *args, early_abandon=False, **kwargs):
            result = merlin(values, *args, **kwargs)
            if early_abandon:
                result = type(result)(
                    result.lengths,
                    result.locations,
                    tuple(d + 1e-9 for d in result.distances),
                )
            return result

        monkeypatch.setattr(detectors, "merlin", drifting)
        with pytest.raises(AssertionError, match="early abandon"):
            run_bench(quick=True, repeats=1, sections=("merlin",))

    def test_drift_section_schema_and_checks(self, monkeypatch):
        monkeypatch.setattr(
            bench,
            "_DRIFT_QUICK_CONFIG",
            {"n": 1200, "per_kind": 1, "stationary": 1},
        )
        report = run_bench(quick=True, repeats=1, sections=("drift",))
        section = report["sections"]["drift"]
        assert section["seconds"] > 0
        assert set(section["policies"]) == {"none", "fixed", "drift", "hybrid"}
        checks = report["checks"]
        assert checks["drift_best_triggered"] in ("drift", "hybrid")
        assert isinstance(checks["drift_triggered_beats_fixed"], bool)
        assert checks["drift_stationary_triggers"] >= 0
        text = format_bench(report)
        assert "drift ablation" in text

    def test_output_name_derives_from_trajectory(self):
        from repro.bench import BENCH_LABEL, TRAJECTORY

        assert BENCH_LABEL == f"BENCH_{TRAJECTORY}"
        assert DEFAULT_OUT.endswith(f"{BENCH_LABEL}.json")

    def test_scaling_section_schema_and_bounds(self, monkeypatch):
        # the numpy sweep, which its fixed column tile bounds; the
        # compiled one needs no tile (next test)
        monkeypatch.setattr(native, "load", lambda: None)
        monkeypatch.setattr(bench, "_SCALING_QUICK_SIZES", (20_000,))
        monkeypatch.setattr(bench, "_SCALING_QUICK_PAIR_CAP", 2_000_000)
        report = run_bench(quick=True, repeats=1, sections=("scaling",))
        section = report["sections"]["scaling"]
        (row,) = section["results"]
        assert row["n"] == 20_000
        assert row["backend"] == "numpy"
        # O(m) vectors plus one 128 x 4,096 tile (~9.5 MB) by the
        # kernel's allocation accounting, where a full-width tile alone
        # would be ~41 MB at this size (deterministic, no wall-clock)
        assert row["measured_workspace_bytes"] < 16 << 20
        assert row["seconds_estimated"] is True
        assert row["pairs_timed"] < row["pairs_total"]
        assert row["seconds"] > 0
        assert report["checks"]["scaling_peak_bytes"] == row[
            "tracemalloc_peak_bytes"
        ]
        assert isinstance(report["checks"]["scaling_within_target"], bool)
        text = format_bench(report)
        assert "scaling" in text
        assert "numpy" in text

    def test_scaling_rows_report_the_compiled_sweep(self, monkeypatch):
        # the compiled sweep ran untiled in O(m) scratch, and that is
        # what the row reports
        if native.load() is None:
            pytest.skip("no compiled kernel on this host")
        monkeypatch.setattr(bench, "_SCALING_QUICK_SIZES", (20_000,))
        monkeypatch.setattr(bench, "_SCALING_QUICK_PAIR_CAP", 2_000_000)
        report = run_bench(quick=True, repeats=1, sections=("scaling",))
        (row,) = report["sections"]["scaling"]["results"]
        assert row["backend"] == "compiled"
        assert 0 < row["measured_workspace_bytes"] < 8 * 8 * row[
            "num_subsequences"
        ]
        assert "compiled" in format_bench(report)

    def test_streaming_section_schema_and_checks(self):
        report = run_bench(quick=True, repeats=1, sections=("streaming",))
        section = report["sections"]["streaming"]
        assert len(section["results"]) == 2
        for row in section["results"]:
            assert row["seconds"] > 0
            assert row["bounded_seconds"] > 0
            assert row["per_append_us"] > 0
            # the parity cross-check ran and stayed inside twice the
            # single-kernel correlation-space contract (it raises
            # otherwise; two approximate kernels compared to each other)
            assert row["parity_max_sq_err"] <= 4.0 * row["w"] * 1e-8
        replay = section["replay"]
        assert replay["points_per_second"] > 0
        assert replay["correct"] is True
        assert replay["delay"] is not None
        checks = report["checks"]
        assert checks["streaming_parity_sq_err"] <= 4.0 * section["w"] * 1e-8
        assert checks["streaming_size_ratio"] == 4.0
        assert checks["streaming_bounded_cost_ratio"] > 0
        assert isinstance(checks["streaming_bounded_sublinear"], bool)
        text = format_bench(report)
        assert "streaming" in text
        assert "replay" in text

    def test_parallel_section_schema_and_checks(self, monkeypatch):
        # tiny override cases: the section's value is its assertions
        # (bit-identity, shard-plan match), not wall clock
        monkeypatch.setattr(bench, "_PARALLEL_QUICK_CASES", ((4_000, (2,)),))
        report = run_bench(quick=True, repeats=1, sections=("parallel",))
        section = report["sections"]["parallel"]
        assert section["w"] > 0
        assert section["cpu_count"] >= 1
        (case,) = section["results"]
        assert case["n"] == 4_000
        assert case["shards"] >= 1
        assert case["serial_seconds"] > 0
        (run,) = case["runs"]
        assert run["jobs"] == 2
        assert run["identical"] is True
        assert run["speedup_modeled"] > 1.0
        checks = report["checks"]
        assert checks["parallel_identical"] is True
        assert checks["parallel_n"] == 4_000
        assert checks["parallel_jobs"] == 2
        assert checks["parallel_speedup_target"] == 1.5
        text = format_bench(report)
        assert "parallel" in text
        assert "bit-identity" in text

    def test_anytime_section_schema_and_checks(self, monkeypatch):
        # one mid fraction keeps the runtime down; the bound and
        # monotonicity are asserted inside the section itself
        monkeypatch.setattr(bench, "_ANYTIME_QUICK_FRACTIONS", (0.5,))
        report = run_bench(quick=True, repeats=1, sections=("anytime",))
        section = report["sections"]["anytime"]
        assert section["w"] > 0
        assert section["fractions"] == [0.5]
        names = {fixture["fixture"] for fixture in section["fixtures"]}
        assert names == {"periodic", "walk"}
        for fixture in section["fixtures"]:
            assert fixture["exact_seconds"] > 0
            (row,) = fixture["results"]
            assert row["fraction"] == 0.5
            assert 0.5 <= row["fraction_swept"] <= 0.6
            assert row["pairs_swept"] < row["pairs_total"]
            assert row["max_dev"] >= row["mean_dev"] >= 0.0
        checks = report["checks"]
        assert checks["anytime_bound_held"] is True
        # 0.5 overshoots the <=10% pair-budget window, so the headline
        # convergence checks have no qualifying row and stay absent
        assert "anytime_converged" not in checks
        assert "anytime_mean_dev" not in checks
        text = format_bench(report)
        assert "anytime" in text
        assert "deviation" in text

    def test_obs_section_schema_and_checks(self):
        report = run_bench(quick=True, repeats=1, sections=("obs",))
        section = report["sections"]["obs"]
        assert section["kernel_bare_seconds"] > 0
        assert section["kernel_disabled_seconds"] > 0
        assert section["kernel_enabled_seconds"] > 0
        assert section["span_disabled_ns"] > 0
        assert section["span_enabled_ns"] > 0
        assert section["counter_inc_ns"] > 0
        checks = report["checks"]
        # the overhead number itself is wall clock (asserted as a perf
        # floor only in the advisory CI job); here just the wiring
        assert checks["obs_disabled_overhead_pct"] == (
            section["disabled_overhead_pct"]
        )
        assert isinstance(checks["obs_disabled_overhead_ok"], bool)
        # the advisory judges the interval's upper bound, not the
        # point estimate, and the interval is over one sample per round
        interval = section["disabled_overhead_ci_pct"]
        assert interval["lo"] <= interval["hi"]
        assert checks["obs_disabled_overhead_hi_pct"] == interval["hi"]
        assert checks["obs_disabled_overhead_ok"] == (interval["hi"] < 5.0)
        assert len(section["disabled_overhead_pct_runs"]) == section["rounds"]
        assert section["rounds"] >= 12 and section["calls_per_round"] >= 3
        text = format_bench(report)
        assert "obs" in text
        assert "disabled tracer" in text

    def test_watch_section_schema_and_checks(self):
        report = run_bench(quick=True, repeats=1, sections=("watch",))
        section = report["sections"]["watch"]
        assert section["tick_us"] > 0
        assert len(section["tick_us_runs"]) >= 3
        assert section["rules"] == [
            "queue-saturation",
            "append-latency-p99",
            "backpressure-burn",
            "worker-down",
        ]
        saturation = section["saturation"]
        assert saturation["injection_tick"] == 5
        assert saturation["fired_at_tick"] == 6
        assert saturation["false_firings"] == 0
        checks = report["checks"]
        assert checks["watch_tick_us"] == section["tick_us"]
        assert checks["watch_saturation_fires"] is True
        assert checks["watch_false_firings"] == 0
        assert isinstance(checks["watch_idle_overhead_ok"], bool)
        text = format_bench(report)
        assert "watch" in text
        assert "saturation scenario" in text

    def test_host_block_attached_to_every_report(self, tiny_kernel):
        report = run_bench(quick=True, repeats=1, sections=("kernel",))
        host = report["host"]
        assert host["python"]
        assert host["platform"]
        assert host["cpu_count"] >= 1
        assert isinstance(host["env_overrides"], dict)
        # repeats >= 2 would calibrate; a single repeat leaves it None
        assert "timing_noise_pct" in host

    def test_host_block_names_the_kernel_backend(self, tiny_kernel):
        from repro.detectors import native

        report = run_bench(quick=True, repeats=1, sections=("kernel",))
        assert report["host"]["kernel_backend"] == native.backend()
        if native.backend() == "numpy":
            assert "kernel_simd" not in report["host"]
        else:
            assert report["host"]["kernel_simd"] == native.simd()


class TestOutput:
    def test_write_bench_creates_parents(self, tmp_path, tiny_kernel):
        report = run_bench(quick=True, repeats=1, sections=("kernel",))
        path = tmp_path / "nested" / "perf" / "BENCH_test.json"
        written = write_bench(report, str(path))
        assert written == str(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro-bench/1"
        assert loaded["sections"]["kernel"]["results"][0]["n"] == 512

    def test_format_bench_mentions_sections(self, tiny_kernel):
        report = run_bench(quick=True, repeats=1, sections=("kernel",))
        text = format_bench(report)
        assert "kernel" in text
        assert "n=512" in text
        rate = report["sections"]["kernel"]["results"][0]["mpx_pairs_per_second"]
        assert "pairs/s" in text and f"{rate:.2e}" in text
        assert "extrapolated" in text
