"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_audit_benchmark_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "webscope"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.seed == 7
        args = build_parser().parse_args(["build-archive", "/tmp/x"])
        assert args.size == 30

    def test_engine_option_defaults(self):
        for command in ("score", "run"):
            args = build_parser().parse_args([command, "/tmp/x"])
            assert args.jobs == 1
            assert args.cache_dir is None
            assert args.format == "text"
            assert args.slop == 100
        args = build_parser().parse_args(["run", "/tmp/x"])
        assert args.out == "benchmarks/out"
        assert args.name == "run"

    def test_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["score", "/tmp/x", "--format", "xml"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "/tmp/out"])
        assert args.name == "run"
        assert args.archive is None
        assert args.baseline_pool == "oneliners"
        assert args.resamples == 2000
        assert args.alpha == 0.05
        assert args.seed == 7
        assert args.format == "text"

    def test_compare_pool_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "/tmp/out", "--baseline-pool", "psychics"]
            )

    def test_run_stats_defaults(self):
        args = build_parser().parse_args(["run", "/tmp/x"])
        assert args.stats is False
        assert args.resamples == 2000
        assert args.alpha == 0.05
        assert args.seed == 7

    def test_cache_defaults(self):
        args = build_parser().parse_args(["cache", "/tmp/c"])
        assert args.clear is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "/tmp/x", "--jobs", "0"],
            ["run", "/tmp/x", "--jobs", "-3"],
        ],
    )
    def test_jobs_below_one_is_a_usage_error(self, argv, capsys):
        # not a serial run that exits 0
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_port_outside_0_to_65535_is_a_usage_error(self, port, capsys):
        # not an OverflowError traceback out of bind()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", port])
        assert excinfo.value.code == 2
        assert "--port" in capsys.readouterr().err

    def test_port_bounds_are_accepted(self):
        for port in (0, 65535):
            args = build_parser().parse_args(["serve", "--port", str(port)])
            assert args.port == port

    def test_stats_options_validated_at_the_parser(self):
        # out-of-range values must die as usage errors, not tracebacks
        for bad in (
            ["compare", "/tmp/out", "--alpha", "0"],
            ["compare", "/tmp/out", "--alpha", "1"],
            ["compare", "/tmp/out", "--resamples", "0"],
            ["run", "/tmp/x", "--alpha", "1.5"],
            ["run", "/tmp/x", "--resamples", "-3"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(bad)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "86.1%" in out
        assert "Subtotal" in out

    def test_audit_nasa(self, capsys):
        assert main(["audit", "nasa"]) == 0
        out = capsys.readouterr().out
        assert "VERDICT" in out
        assert "unrealistic density" in out

    def test_build_and_score_archive(self, tmp_path, capsys):
        # tiny archive: the two fixed exemplars dominate the trivial
        # fraction, so give the validator headroom
        assert (
            main(
                ["build-archive", str(tmp_path), "--size", "8", "--max-trivial", "0.5"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote 8 datasets" in out

        assert main(["score", str(tmp_path), "--detectors", "moving_zscore"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_score_prints_the_engine_accuracy_at_the_given_slop(
        self, tmp_path, capsys
    ):
        from repro.archive import load_archive
        from repro.detectors import parse_detectors
        from repro.runner import EvalEngine, UcrScoring

        assert main(["build-archive", str(tmp_path), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        lineup = "moving_zscore,diff"
        assert main(["score", str(tmp_path), "--detectors", lineup,
                     "--slop", "3000"]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            label, _, accuracy = line.partition(" accuracy ")
            printed[label.strip()] = accuracy.strip()
        archive = load_archive(str(tmp_path))
        specs = parse_detectors(lineup)
        wide = EvalEngine(specs, scoring=UcrScoring(minimum_slop=3000))
        report = wide.run(archive)
        assert printed == {
            spec.label: f"{report.summary(spec).accuracy:.1%}"
            for spec in specs
        }
        # the slop reached the scoring: the default slop judges otherwise
        default = EvalEngine(specs).run(archive)
        assert [report.summary(spec).accuracy for spec in specs] != [
            default.summary(spec).accuracy for spec in specs
        ]

    def test_score_empty_directory(self, tmp_path, capsys):
        assert main(["score", str(tmp_path)]) == 1

    def test_unknown_detector_exits_2_with_names(self, tmp_path, capsys):
        assert main(["build-archive", str(tmp_path), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["score", str(tmp_path), "--detectors", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err
        assert "available detectors" in err
        assert "matrix_profile" in err

    def test_empty_detectors_exit_2(self, tmp_path, capsys):
        assert main(["build-archive", str(tmp_path), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["score", str(tmp_path), "--detectors", ""]) == 2
        assert "available detectors" in capsys.readouterr().err

    def test_bad_detector_params_exit_2(self, tmp_path, capsys):
        assert main(["build-archive", str(tmp_path), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["score", str(tmp_path), "--detectors", "diff(bogus=1)"]) == 2
        assert "available detectors" in capsys.readouterr().err

    def test_run_writes_artifacts_and_caches(self, tmp_path, capsys):
        archive_dir = tmp_path / "arch"
        cache_dir = tmp_path / "cache"
        out_dir = tmp_path / "out"
        assert main(["build-archive", str(archive_dir), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()

        base = ["run", str(archive_dir), "--detectors", "diff,moving_zscore(k=50)",
                "--cache-dir", str(cache_dir), "--out", str(out_dir)]
        assert main(base + ["--name", "first"]) == 0
        captured = capsys.readouterr()
        assert "accuracy" in captured.out
        assert "8 executed" in captured.err

        # warm re-run (parallel, different basename): zero executions,
        # byte-identical manifest and summary
        assert main(base + ["--name", "second", "--jobs", "2"]) == 0
        assert "0 executed, 8 from cache" in capsys.readouterr().err
        for suffix in ("manifest.json", "summary.txt", "cells.jsonl"):
            first = (out_dir / f"first.{suffix}").read_bytes()
            second = (out_dir / f"second.{suffix}").read_bytes()
            assert first == second

    def test_run_json_format_is_the_manifest(self, tmp_path, capsys):
        archive_dir = tmp_path / "arch"
        assert main(["build-archive", str(archive_dir), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["run", str(archive_dir), "--detectors", "diff",
                     "--out", str(tmp_path / "out"), "--format", "json"]) == 0
        out = capsys.readouterr().out
        manifest_text = (tmp_path / "out" / "run.manifest.json").read_text()
        assert out == manifest_text

    def test_run_empty_directory(self, tmp_path):
        assert main(["run", str(tmp_path)]) == 1

    def test_taxi(self, capsys):
        assert main(["taxi"]) == 0
        out = capsys.readouterr().out
        assert "unlabeled discords" in out


class TestCompareAndCache:
    @pytest.fixture()
    def saved_run(self, tmp_path, capsys):
        archive_dir = tmp_path / "arch"
        out_dir = tmp_path / "out"
        assert main(["build-archive", str(archive_dir), "--size", "6",
                     "--max-trivial", "1.0"]) == 0
        assert main(["run", str(archive_dir), "--detectors",
                     "diff,moving_zscore(k=50)", "--out", str(out_dir),
                     "--name", "base"]) == 0
        capsys.readouterr()
        return archive_dir, out_dir

    def test_compare_text_leaderboard(self, saved_run, capsys):
        _, out_dir = saved_run
        assert main(["compare", str(out_dir), "--name", "base"]) == 0
        out = capsys.readouterr().out
        assert "leaderboard" in out
        assert "noise floor" in out
        assert "Friedman" in out
        assert "pairwise" in out
        assert "diff" in out and "moving_zscore(k=50)" in out

    def test_compare_json_is_deterministic(self, saved_run, capsys):
        _, out_dir = saved_run
        base = ["compare", str(out_dir), "--name", "base", "--format", "json"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["noise_floor"] is not None
        assert len(payload["entries"]) == 2
        for entry in payload["entries"]:
            assert entry["verdict"] is not None

    def test_compare_without_pool_skips_the_floor(self, saved_run, capsys):
        _, out_dir = saved_run
        assert main(["compare", str(out_dir), "--name", "base",
                     "--baseline-pool", "none", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["noise_floor"] is None
        assert all(e["verdict"] is None for e in payload["entries"])

    def test_compare_missing_run_exits_1(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path), "--name", "ghost"]) == 1
        assert "error" in capsys.readouterr().err

    def test_compare_mismatched_archive_exits_1(self, saved_run, capsys, tmp_path):
        _, out_dir = saved_run
        other = tmp_path / "other"
        assert main(["build-archive", str(other), "--size", "4", "--seed",
                     "99", "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_dir), "--name", "base",
                     "--archive", str(other)]) == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_run_stats_writes_leaderboard_artifact(self, saved_run, capsys):
        archive_dir, out_dir = saved_run
        assert main(["run", str(archive_dir), "--detectors", "diff",
                     "--out", str(out_dir), "--name", "st", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "noise floor" in captured.out
        stats_path = out_dir / "st.stats.json"
        assert stats_path.is_file()
        payload = json.loads(stats_path.read_text())
        assert payload["entries"][0]["label"] == "diff"

    def test_compare_matches_run_stats_artifact(self, saved_run, capsys):
        # the cold-artifact path and the live --stats path must agree
        archive_dir, out_dir = saved_run
        assert main(["run", str(archive_dir), "--detectors",
                     "diff,moving_zscore(k=50)", "--out", str(out_dir),
                     "--name", "st2", "--stats"]) == 0
        capsys.readouterr()
        assert main(["compare", str(out_dir), "--name", "st2",
                     "--format", "json"]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (out_dir / "st2.stats.json").read_text()

    def test_cache_reports_and_clears(self, tmp_path, capsys):
        archive_dir = tmp_path / "arch"
        cache_dir = tmp_path / "cache"
        assert main(["build-archive", str(archive_dir), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        assert main(["run", str(archive_dir), "--detectors", "diff",
                     "--cache-dir", str(cache_dir),
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "bytes" in out
        assert main(["cache", str(cache_dir), "--clear"]) == 0
        assert "cleared 4 entries" in capsys.readouterr().out
        assert main(["cache", str(cache_dir)]) == 0
        assert "0 entries, 0 bytes" in capsys.readouterr().out


class TestBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.quick is False
        assert args.out is None
        assert args.repeats is None
        assert args.min_kernel_speedup is None
        assert args.format == "text"
        assert "kernel" in args.sections

    def test_oneliner_section_writes_report(self, tmp_path, capsys):
        out = tmp_path / "perf" / "B.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--sections", "oneliner", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "movmax" in captured.out
        assert str(out) in captured.err
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["sections"]["oneliner"]["movmax_seconds"] > 0

    def test_existing_trajectory_point_is_not_overwritten(
        self, tmp_path, capsys, monkeypatch
    ):
        # without --out the report goes to the committed trajectory
        # point, which `bench compare` gates against: a quick run of one
        # section must not silently replace it
        from repro.bench import DEFAULT_OUT

        monkeypatch.chdir(tmp_path)
        point = tmp_path / DEFAULT_OUT
        point.parent.mkdir(parents=True)
        point.write_bytes(b'{"committed": true}\n')
        assert main(["bench", "--quick", "--repeats", "1",
                     "--sections", "oneliner"]) == 2
        err = capsys.readouterr().err
        assert DEFAULT_OUT in err
        assert "TRAJECTORY" in err and "--out" in err
        assert point.read_bytes() == b'{"committed": true}\n'
        # an explicit --out to the same path still writes there
        assert main(["bench", "--quick", "--repeats", "1",
                     "--sections", "oneliner", "--out", DEFAULT_OUT]) == 0
        assert "oneliner" in json.loads(point.read_text())["sections"]

    def test_dash_out_skips_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick", "--repeats", "1",
                     "--sections", "oneliner", "--out", "-",
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert not (tmp_path / "benchmarks").exists()
        payload = json.loads(captured.out)
        assert "oneliner" in payload["sections"]

    def test_unknown_section_exits_2(self, capsys):
        assert main(["bench", "--sections", "hyperdrive", "--out", "-"]) == 2
        err = capsys.readouterr().err
        # mirrors the unknown-detector handling: name what went wrong
        # and list what would have worked
        assert "unknown bench sections" in err
        assert "hyperdrive" in err
        for section in ("kernel", "scaling", "streaming"):
            assert section in err

    def test_unknown_section_mixed_with_known_still_exits_2(self, capsys):
        assert (
            main(["bench", "--sections", "oneliner,hyperdrive", "--out", "-"])
            == 2
        )
        assert "hyperdrive" in capsys.readouterr().err

    @pytest.mark.parametrize("sections", [",", "", " , "])
    def test_no_sections_exits_2_before_the_bench(
        self, sections, capsys, monkeypatch
    ):
        # a bench that measured nothing is not a report
        from repro import bench

        def run_bench(**kwargs):
            raise RuntimeError("the bench ran")

        monkeypatch.setattr(bench, "run_bench", run_bench)
        assert main(["bench", "--sections", sections, "--out", "-"]) == 2
        assert "names no sections" in capsys.readouterr().err

    @pytest.mark.parametrize("floor", ["nan", "inf"])
    def test_non_finite_speedup_floor_exits_2_before_the_bench(
        self, floor, capsys, monkeypatch
    ):
        # `achieved < nan` is never true: a NaN floor would pass any kernel
        from repro import bench

        def run_bench(**kwargs):
            raise RuntimeError("the bench ran")

        monkeypatch.setattr(bench, "run_bench", run_bench)
        assert main(["bench", "--quick", "--sections", "kernel",
                     "--out", "-", "--min-kernel-speedup", floor]) == 2
        assert "--min-kernel-speedup" in capsys.readouterr().err

    def test_speedup_floor_needs_kernel_section(self, capsys):
        assert main(["bench", "--quick", "--repeats", "1",
                     "--sections", "oneliner", "--out", "-",
                     "--min-kernel-speedup", "5"]) == 2
        assert "kernel section" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"repro {repro.__version__}"

    def test_version_is_the_running_modules_metadata(self):
        # setup.cfg derives the distribution metadata from
        # repro.__version__ (attr:), so reporting the imported constant
        # is reporting the package metadata of the code actually
        # running — immune to a stale site-packages install shadowing a
        # PYTHONPATH=src source tree
        from repro.cli import _package_version

        import repro

        assert _package_version() == repro.__version__


class TestDetectorsCommand:
    def test_text_lists_every_registry_entry(self, capsys):
        from repro.detectors import available_detectors

        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        for name in available_detectors():
            assert name in out
        assert "w=100" in out  # matrix_profile's default window

    def test_json_round_trips(self, capsys):
        assert main(["detectors", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.detectors import available_detectors

        assert [row["name"] for row in payload] == available_detectors()
        by_name = {row["name"]: row["params"] for row in payload}
        assert by_name["matrix_profile"]["w"] == 100
        assert by_name["moving_zscore"]["k"] == 50


class TestStreamCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["stream", "/tmp/x"])
        assert args.batch_size == 32
        assert args.max_delay is None
        assert args.window is None
        assert args.refit_every is None
        assert args.slop == 100
        assert args.out is None
        assert args.name == "stream"
        assert args.format == "text"
        assert args.resamples == 2000

    def test_stream_replays_and_writes_artifacts(self, tmp_path, capsys):
        archive_dir = tmp_path / "arch"
        out_dir = tmp_path / "out"
        assert main(["build-archive", str(archive_dir), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        base = ["stream", str(archive_dir), "--detectors", "diff",
                "--batch-size", "500", "--window", "600",
                "--resamples", "100", "--out", str(out_dir)]
        assert main(base) == 0
        captured = capsys.readouterr()
        assert "streaming replay" in captured.out
        assert "leaderboard" in captured.out
        assert "wrote traces" in captured.err
        traces_path = out_dir / "stream.traces.jsonl"
        stats_path = out_dir / "stream.stats.json"
        assert traces_path.is_file() and stats_path.is_file()
        # replays are deterministic: a second run rewrites the same bytes
        first = traces_path.read_bytes()
        first_stats = stats_path.read_bytes()
        assert main(base) == 0
        capsys.readouterr()
        assert traces_path.read_bytes() == first
        assert stats_path.read_bytes() == first_stats

    def test_stream_json_format(self, tmp_path, capsys):
        archive_dir = tmp_path / "arch"
        assert main(["build-archive", str(archive_dir), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["stream", str(archive_dir), "--detectors", "diff",
                     "--batch-size", "500", "--window", "600",
                     "--resamples", "50", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-stream/1"
        assert payload["batch_size"] == 500
        assert "diff" in payload["detectors"]
        assert payload["leaderboard"]["entries"][0]["label"] == "diff"
        assert len(payload["traces"]) == 4
        for trace in payload["traces"]:
            assert "score_fingerprint" in trace
            assert "seconds" not in trace

    def test_stream_unknown_detector_exits_2(self, tmp_path, capsys):
        assert main(["build-archive", str(tmp_path / "a"), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["stream", str(tmp_path / "a"), "--detectors",
                     "warp_drive"]) == 2
        assert "available detectors" in capsys.readouterr().err

    def test_stream_empty_directory_exits_1(self, tmp_path):
        assert main(["stream", str(tmp_path)]) == 1

    def test_stream_negative_max_delay_is_a_usage_error(self, capsys):
        # rejected at the parser, before any archive is even loaded
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "/tmp/x", "--max-delay", "-5"])
        assert excinfo.value.code == 2
        assert "--max-delay" in capsys.readouterr().err

    def test_stream_window_too_small_exits_2(self, tmp_path, capsys):
        # a window the detector's kernel history cannot fit must be an
        # exit-2 diagnostic, not a traceback
        assert main(["build-archive", str(tmp_path / "a"), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        assert main(["stream", str(tmp_path / "a"), "--detectors",
                     "matrix_profile(w=100)", "--window", "150"]) == 2
        assert "error:" in capsys.readouterr().err


class TestMaxMemory:
    def test_parser_accepts_max_memory(self):
        for command in ("score", "run"):
            args = build_parser().parse_args([command, "/tmp/x"])
            assert args.max_memory is None
        args = build_parser().parse_args(
            ["score", "/tmp/x", "--max-memory", "256M"]
        )
        assert args.max_memory == "256M"
        args = build_parser().parse_args(["bench", "--max-memory", "1G"])
        assert args.max_memory == "1G"

    def test_bad_max_memory_exits_2(self, tmp_path, capsys):
        assert main(["score", str(tmp_path), "--max-memory", "12Q"]) == 2
        assert "memory size" in capsys.readouterr().err
        assert (
            main(
                ["bench", "--quick", "--sections", "oneliner", "--out", "-",
                 "--max-memory", "nope"]
            )
            == 2
        )
        assert "memory size" in capsys.readouterr().err

    def test_score_max_memory_installs_process_budget(
        self, tmp_path, capsys, monkeypatch
    ):
        import importlib

        mp = importlib.import_module("repro.detectors.matrix_profile")
        monkeypatch.setattr(mp, "_default_memory_budget", None)
        monkeypatch.delenv("REPRO_MAX_MEMORY", raising=False)
        assert main(["build-archive", str(tmp_path), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        try:
            assert (
                main(
                    ["score", str(tmp_path), "--detectors",
                     "matrix_profile(w=64)", "--max-memory", "32M"]
                )
                == 0
            )
            assert "accuracy" in capsys.readouterr().out
            from repro.detectors import default_memory_budget

            # the budget is live for the whole process (and, via the
            # mirrored env var, for any engine worker it spawns)
            assert default_memory_budget() == 32 << 20
        finally:
            mp.set_default_memory_budget(None)


class TestTraceFlag:
    """The --trace flag and its determinism contract (repro.obs)."""

    @pytest.fixture()
    def archive_dir(self, tmp_path, capsys):
        path = tmp_path / "arch"
        assert main(["build-archive", str(path), "--size", "4",
                     "--max-trivial", "1.0"]) == 0
        capsys.readouterr()
        return path

    def canonical(self, path):
        from repro.obs import canonical_records

        records = [json.loads(line) for line in path.read_text().splitlines()]
        return canonical_records(records)

    def test_run_trace_is_deterministic(self, archive_dir, tmp_path, capsys):
        # identical argv twice (same output path): after stripping the
        # timing fields the trace files must match record-for-record
        trace_path = tmp_path / "run.trace.jsonl"
        argv = ["run", str(archive_dir), "--detectors",
                "diff,moving_zscore(k=50)", "--out", str(tmp_path / "out"),
                "--trace", str(trace_path)]
        assert main(argv) == 0
        assert "wrote trace" in capsys.readouterr().err
        first = self.canonical(trace_path)
        assert main(argv) == 0
        capsys.readouterr()
        assert self.canonical(trace_path) == first

    def test_run_trace_parallel_matches_serial(
        self, archive_dir, tmp_path, capsys
    ):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        base = ["run", str(archive_dir), "--detectors", "diff",
                "--out", str(tmp_path / "out")]
        assert main(base + ["--trace", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--trace", str(parallel)]) == 0
        capsys.readouterr()

        def normalized(path):
            records = self.canonical(path)
            for record in records:
                record.pop("argv", None)  # --trace path/--jobs differ
                if record.get("kind") == "span":
                    record["attrs"].pop("jobs", None)
            return records

        assert normalized(serial) == normalized(parallel)

    def test_run_trace_covers_engine_and_kernel(
        self, archive_dir, tmp_path, capsys
    ):
        trace_path = tmp_path / "t.jsonl"
        assert main(["run", str(archive_dir), "--detectors",
                     "matrix_profile(w=64)", "--out", str(tmp_path / "out"),
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        from repro.obs import load_trace, rollup

        trace = load_trace(trace_path)
        names = {row["name"] for row in rollup(trace["spans"])}
        assert {"engine.run", "engine.cell", "engine.locate",
                "mpx.profile"} <= names
        assert trace["metrics"]["counters"]["engine_cells"] == 4
        assert trace["metrics"]["counters"]["mpx_profiles"] == 4

    def test_rollup_self_time_accounts_for_the_run(
        self, archive_dir, tmp_path, capsys
    ):
        # the acceptance round-trip: per-stage self times must sum to
        # the engine.run wall clock (up to gaps the tracer cannot see)
        trace_path = tmp_path / "t.jsonl"
        assert main(["run", str(archive_dir), "--detectors", "diff",
                     "--out", str(tmp_path / "out"),
                     "--trace", str(trace_path)]) == 0
        assert main(["obs", "rollup", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out
        from repro.obs import load_trace, rollup

        trace = load_trace(trace_path)
        rows = rollup(trace["spans"])
        total = next(r for r in rows if r["name"] == "engine.run")["total_us"]
        # in-worker spans are adopted with honest in-worker durations;
        # everything the engine timed must fit inside its wall clock
        locate = next(
            r for r in rows if r["name"] == "engine.locate"
        )["total_us"]
        assert 0 < locate <= total

    def test_stream_trace_records_replay_cells(
        self, archive_dir, tmp_path, capsys
    ):
        trace_path = tmp_path / "s.jsonl"
        assert main(["stream", str(archive_dir), "--detectors", "diff",
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        from repro.obs import load_trace

        trace = load_trace(trace_path)
        names = [span["name"] for span in trace["spans"]]
        assert names.count("replay.cell") == 4
        assert trace["metrics"]["counters"]["replay_points"] > 0


class TestObsEdgeCases:
    def write_trace(self, path, spans=(), metrics=None):
        records = [{"kind": "header", "schema": "repro-trace/1"}]
        records.extend({"kind": "span", **span} for span in spans)
        if metrics is not None:
            records.append({"kind": "metrics", **metrics})
        path.write_text(
            "\n".join(json.dumps(record) for record in records) + "\n"
        )
        return str(path)

    def test_empty_trace_file_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "dump", str(empty)]) == 1
        assert "missing repro-trace header" in capsys.readouterr().err

    def test_max_spans_zero_keeps_only_the_elision_summary(
        self, tmp_path, capsys
    ):
        trace = self.write_trace(
            tmp_path / "t.jsonl",
            spans=[
                {"id": 1, "parent": None, "name": "root", "duration_us": 10},
                {"id": 2, "parent": 1, "name": "child", "duration_us": 5},
            ],
        )
        assert main(["obs", "dump", trace, "--max-spans", "0"]) == 0
        out = capsys.readouterr().out
        assert "showing 0" in out
        assert "root" not in out

    def test_negative_max_spans_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["obs", "dump", "t.jsonl", "--max-spans", "-1"]
            )

    def test_rollup_with_zero_sample_histogram(self, tmp_path, capsys):
        # a histogram family that was registered but never observed
        # must survive the round trip, not crash the formatter
        trace = self.write_trace(
            tmp_path / "t.jsonl",
            spans=[
                {"id": 1, "parent": None, "name": "root", "duration_us": 10},
            ],
            metrics={
                "counters": {"events_total": 0},
                "gauges": {},
                "histograms": {
                    "latency_seconds": {
                        "count": 0,
                        "p50": None,
                        "p95": None,
                        "p99": None,
                        "min": None,
                        "max": None,
                    }
                },
            },
        )
        assert main(["obs", "rollup", trace, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        digest = payload["metrics"]["histograms"]["latency_seconds"]
        assert digest["count"] == 0
        assert digest["min"] is None
        assert main(["obs", "rollup", trace]) == 0  # text path too


class TestObsWatch:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["obs", "watch", "http://x:1"])
        assert args.interval == 2.0
        assert args.iterations is None
        assert args.max_spans == 200
        assert args.format == "text"

    def test_interval_zero_exits_2(self, capsys):
        assert main(
            ["obs", "watch", "http://127.0.0.1:1", "--interval", "0"]
        ) == 2
        assert "--interval" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    def test_non_finite_interval_exits_2(self, interval, capsys):
        # time.sleep(nan) raises after the first poll
        assert main(
            ["obs", "watch", "http://127.0.0.1:1", "--interval", interval]
        ) == 2
        assert "--interval" in capsys.readouterr().err

    def test_unreachable_endpoint_exits_1(self, capsys):
        assert main(
            ["obs", "watch", "http://127.0.0.1:1",
             "--interval", "0.01", "--iterations", "1"]
        ) == 1
        assert "cannot reach" in capsys.readouterr().err

    @pytest.fixture()
    def server(self):
        from repro.serve import ServeServer, StreamCluster

        server = ServeServer(
            StreamCluster(num_shards=1, queue_size=16)
        ).start()
        try:
            yield server
        finally:
            server.close()

    def test_watch_polls_a_live_server(self, server, capsys):
        assert main(
            ["obs", "watch", server.address,
             "--interval", "0.01", "--iterations", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("ok=4") == 2

    def test_watch_json_format_emits_alert_payloads(self, server, capsys):
        assert main(
            ["obs", "watch", server.address,
             "--interval", "0.01", "--iterations", "1",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-alerts/1"
        assert payload["summary"]["firing"] == 0


class TestServeWatchFlag:
    def test_parser_default(self):
        args = build_parser().parse_args(["serve"])
        assert args.watch_interval == 1.0

    def test_negative_watch_interval_exits_2(self, capsys):
        assert main(["serve", "--watch-interval", "-1"]) == 2
        assert "--watch-interval" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    def test_non_finite_watch_interval_exits_2(
        self, interval, capsys, monkeypatch
    ):
        # a missed refusal fails here instead of serving forever
        import repro.serve

        def cluster(**kwargs):
            raise AssertionError("the cluster was built")

        monkeypatch.setattr(repro.serve, "StreamCluster", cluster)
        assert main(["serve", "--port", "0",
                     "--watch-interval", interval]) == 2
        assert "--watch-interval" in capsys.readouterr().err


class TestBenchCompare:
    HOST = {
        "python": "3.11.7",
        "platform": "Linux-test",
        "cpu_count": 4,
        "env_overrides": {},
        "timing_noise_pct": 2.0,
    }

    def make_report(self, mpx=1.0, *, runs=None, host=None, quick=False):
        row = {"n": 65536, "mpx_seconds": mpx, "speedup_vs_naive": 8.0 / mpx}
        if runs is not None:
            row["mpx_seconds_runs"] = list(runs)
        return {
            "schema": "repro-bench/1",
            "label": "BENCH_T",
            "quick": quick,
            "repeats": 3,
            "env": {},
            "sections": {"kernel": {"w": 256, "results": [row]}},
            "checks": {},
            "host": dict(self.HOST) if host is None else host,
        }

    def trajectory(self, tmp_path, baseline):
        directory = tmp_path / "perf"
        directory.mkdir()
        (directory / "BENCH_1.json").write_text(json.dumps(baseline))
        return str(directory)

    def fresh_file(self, tmp_path, report):
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(report))
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "compare"])
        assert args.bench_command == "compare"
        assert args.fresh is None
        assert args.trajectory == "benchmarks/perf"
        assert args.noise_pct is None
        assert args.strict is False
        assert args.out is None
        assert args.format == "text"
        assert args.resamples == 2000
        assert args.seed == 7

    def test_within_noise_rerun_exits_0(self, tmp_path, capsys):
        trajectory = self.trajectory(tmp_path, self.make_report(mpx=1.0))
        fresh = self.fresh_file(tmp_path, self.make_report(mpx=1.02))
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory, "--strict"]) == 0
        assert "WITHIN-NOISE" in capsys.readouterr().out

    def test_strict_regression_exits_1(self, tmp_path, capsys):
        trajectory = self.trajectory(
            tmp_path, self.make_report(mpx=1.0, runs=[1.0, 1.01, 0.99])
        )
        fresh = self.fresh_file(
            tmp_path, self.make_report(mpx=2.0, runs=[2.0, 2.02, 1.98])
        )
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory, "--strict"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_without_strict_regression_is_advisory(self, tmp_path, capsys):
        trajectory = self.trajectory(tmp_path, self.make_report(mpx=1.0))
        fresh = self.fresh_file(tmp_path, self.make_report(mpx=2.0))
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory]) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_strict_host_mismatch_exits_2(self, tmp_path, capsys):
        trajectory = self.trajectory(tmp_path, self.make_report())
        fresh = self.fresh_file(
            tmp_path,
            self.make_report(host={**self.HOST, "cpu_count": 64}),
        )
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory, "--strict"]) == 2
        assert "different" in capsys.readouterr().err

    def test_strict_quick_vs_full_exits_2(self, tmp_path, capsys):
        trajectory = self.trajectory(tmp_path, self.make_report())
        fresh = self.fresh_file(tmp_path, self.make_report(quick=True))
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory, "--strict"]) == 2
        assert "quick" in capsys.readouterr().err

    def test_out_writes_the_verdict_artifact(self, tmp_path, capsys):
        trajectory = self.trajectory(tmp_path, self.make_report())
        fresh = self.fresh_file(tmp_path, self.make_report())
        out = tmp_path / "nested" / "verdict.json"
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory,
                     "--out", str(out), "--format", "json"]) == 0
        captured = capsys.readouterr()
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "repro-bench-compare/1"
        assert artifact["baseline"]["path"].endswith("BENCH_1.json")
        assert json.loads(captured.out) == artifact

    @pytest.mark.parametrize("noise", ["nan", "inf", "-5"])
    def test_non_finite_or_negative_noise_pct_exits_2(
        self, noise, tmp_path, capsys
    ):
        # a NaN or infinite allowance would pass this 2x regression
        trajectory = self.trajectory(
            tmp_path, self.make_report(mpx=1.0, runs=[1.0, 1.01, 0.99])
        )
        fresh = self.fresh_file(
            tmp_path, self.make_report(mpx=2.0, runs=[2.0, 2.02, 1.98])
        )
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory, "--strict",
                     "--noise-pct", noise]) == 2
        captured = capsys.readouterr()
        assert "--noise-pct" in captured.err
        assert captured.out == ""

    def test_missing_trajectory_exits_2(self, tmp_path, capsys):
        assert main(["bench", "compare",
                     "--trajectory", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_fresh_exits_2(self, tmp_path, capsys):
        trajectory = self.trajectory(tmp_path, self.make_report())
        assert main(["bench", "compare",
                     "--fresh", str(tmp_path / "nope.json"),
                     "--trajectory", trajectory]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_fresh_with_wrong_schema_exits_2(self, tmp_path, capsys):
        trajectory = self.trajectory(tmp_path, self.make_report())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1"}))
        assert main(["bench", "compare", "--fresh", str(bad),
                     "--trajectory", trajectory]) == 2
        assert "not a repro-bench/1 report" in capsys.readouterr().err

    def test_compare_with_no_sections_exits_2_before_the_bench(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import bench

        def run_bench(**kwargs):
            raise RuntimeError("the bench ran")

        monkeypatch.setattr(bench, "run_bench", run_bench)
        trajectory = self.trajectory(tmp_path, self.make_report())
        assert main(["bench", "compare", "--quick", "--sections", ",",
                     "--trajectory", trajectory, "--strict"]) == 2
        assert "names no sections" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sections",
        [{}, {"oneliner": {"movmax_seconds": 0.1}}],
        ids=["no-sections", "no-shared-section"],
    )
    def test_strict_gate_that_judged_no_metric_exits_2(
        self, sections, tmp_path, capsys
    ):
        # same host and sizes, no metric in common: "0 improved, 0
        # within noise, 0 regressed" must not pass --strict
        trajectory = self.trajectory(tmp_path, self.make_report())
        fresh = self.make_report()
        fresh["sections"] = sections
        fresh = self.fresh_file(tmp_path, fresh)
        argv = ["bench", "compare", "--fresh", fresh,
                "--trajectory", trajectory]
        assert main(argv) == 0  # advisory without --strict
        capsys.readouterr()
        assert main(argv + ["--strict"]) == 2
        assert "no metric was judged" in capsys.readouterr().err

    def test_strict_host_check_runs_before_the_judged_nothing_check(
        self, tmp_path, capsys
    ):
        trajectory = self.trajectory(tmp_path, self.make_report())
        fresh = self.make_report(host={**self.HOST, "cpu_count": 64})
        fresh["sections"] = {}
        fresh = self.fresh_file(tmp_path, fresh)
        assert main(["bench", "compare", "--fresh", fresh,
                     "--trajectory", trajectory, "--strict"]) == 2
        err = capsys.readouterr().err
        assert "different" in err
        assert "no metric was judged" not in err


class TestDispatch:
    def test_every_command_names_its_handler(self):
        # a subparser added without set_defaults(handler=...) fails
        # here, not with an AttributeError when someone runs it
        import argparse

        from repro import cli

        def commands(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    yield from action.choices.items()

        def positionals(parser):
            return [
                str(action.choices[0]) if action.choices else "x"
                for action in parser._actions
                if not action.option_strings
                and not isinstance(action, argparse._SubParsersAction)
            ]

        parser = build_parser()
        checked = []
        for name, sub in commands(parser):
            argv = [name, *positionals(sub)]
            paths = [(argv, name)] + [
                ([*argv, inner, *positionals(nested)], f"{name}_{inner}")
                for inner, nested in commands(sub)
            ]
            for path, handler in paths:
                args = parser.parse_args(path)
                expected = getattr(cli, "_cmd_" + handler.replace("-", "_"))
                assert args.handler is expected, path
                checked.append(handler)
        assert "bench_compare" in checked
        assert len(checked) == 14
