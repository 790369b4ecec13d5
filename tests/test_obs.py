"""Tests for repro.obs: metrics registry, tracer, rollup, instrumentation.

The subsystem's contracts, in rough order of importance:

* quantiles are well-defined on the 0-/1-sample reservoirs a freshly
  created service tenant actually has;
* the trace export is deterministic apart from the timing fields, and
  stays so across serial vs parallel engine runs (span adoption);
* the JSON and Prometheus views of one registry can never disagree;
* the instrumented kernel/engine/replay paths actually record what the
  docs say they record.
"""

import json

import numpy as np
import pytest

from repro.detectors import DetectorSpec, matrix_profile, native
from repro.obs import (
    MetricsRegistry,
    Tracer,
    canonical_records,
    format_rollup,
    format_tree,
    get_registry,
    get_tracer,
    load_trace,
    pop_registry,
    push_registry,
    quantile,
    rollup,
    tracing_session,
    write_trace,
)
from repro.obs import registry as registry_module
from repro.runner import EvalEngine
from repro.types import Archive, LabeledSeries, Labels


def ucr_series(name, n=900, start=500, length=40, train=200):
    values = np.zeros(n)
    values[start : start + length] += 5.0
    return LabeledSeries(
        name, values, Labels.single(n, start, start + length), train_len=train
    )


class TestQuantile:
    def test_empty_is_none_not_zero(self):
        assert quantile([], 0.5) is None
        assert quantile([], 0.99) is None

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert quantile([7.25], q) == 7.25

    def test_out_of_range_raises_even_on_empty(self):
        # a bad call site must not hide behind quiet data
        with pytest.raises(ValueError):
            quantile([], 1.5)
        with pytest.raises(ValueError):
            quantile([1.0, 2.0], -0.1)

    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(3)
        samples = list(rng.normal(size=101))
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert quantile(samples, q) == pytest.approx(
                float(np.quantile(samples, q))
            )


class TestSeries:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.5)
        assert gauge.value == 1.5

    def test_histogram_digest_and_lifetime_count(self, monkeypatch):
        monkeypatch.setattr(registry_module, "RESERVOIR", 4)
        histogram = MetricsRegistry().histogram("lat")
        digest = histogram.digest()
        assert digest == {
            "count": 0,
            "p50": None,
            "p95": None,
            "p99": None,
            "min": None,
            "max": None,
        }
        histogram.observe(2.0)
        assert histogram.digest()["p99"] == 2.0  # single sample well-defined
        for value in (1.0, 3.0, 4.0, 5.0, 6.0):
            histogram.observe(value)
        digest = histogram.digest()
        assert digest["count"] == 6  # lifetime, not reservoir
        assert histogram.samples() == [3.0, 4.0, 5.0, 6.0]  # newest 4
        # extremes are lifetime-exact: 1.0 aged out of the reservoir
        # but stays the minimum
        assert digest["min"] == 1.0
        assert digest["max"] == 6.0

    def test_histogram_merge_rejects_impossible_count(self):
        histogram = MetricsRegistry().histogram("lat")
        with pytest.raises(ValueError):
            histogram.merge([1.0, 2.0], count=1, minimum=1.0, maximum=2.0)

    def test_labels_are_part_of_the_identity(self):
        registry = MetricsRegistry()
        registry.counter("x", tenant="a").inc()
        registry.counter("x", tenant="b").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"x{tenant=a}": 1, "x{tenant=b}": 2}

    def test_family_holds_every_labeled_series_of_a_name(self):
        registry = MetricsRegistry()
        a = registry.counter("x", tenant="a")
        b = registry.counter("x", tenant="b")
        registry.counter("x_total", tenant="a")
        assert registry.family("x") == {
            (("tenant", "a"),): a,
            (("tenant", "b"),): b,
        }
        assert registry.family("missing") == {}

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_metric_names_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")


class TestRegistryExposition:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("requests", tenant="acme").inc(3)
        registry.gauge("queue_depth", shard="shard-0").set(2)
        histogram = registry.histogram("seconds")
        for value in (0.1, 0.2, 0.3):
            histogram.observe(value)
        return registry

    def test_prometheus_and_json_views_agree(self):
        registry = self.build()
        text = registry.render_prometheus()
        snapshot = registry.snapshot()
        assert "# TYPE requests counter" in text
        assert 'requests{tenant="acme"} 3' in text
        assert "# TYPE queue_depth gauge" in text
        assert 'queue_depth{shard="shard-0"} 2' in text
        assert "# TYPE seconds summary" in text
        assert 'seconds{quantile="0.5"} 0.2' in text
        assert "seconds_count 3" in text
        assert snapshot["counters"]["requests{tenant=acme}"] == 3
        assert snapshot["histograms"]["seconds"]["p50"] == pytest.approx(0.2)

    def test_empty_histogram_renders_count_only(self):
        registry = MetricsRegistry()
        registry.histogram("idle")
        text = registry.render_prometheus()
        assert "idle_count 0" in text
        assert "quantile" not in text  # no fabricated zeros

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x", path='a"b\\c').inc()
        text = registry.render_prometheus()
        assert 'x{path="a\\"b\\\\c"} 1' in text

    def test_export_merge_state_round_trip(self):
        registry = self.build()
        merged = MetricsRegistry()
        merged.merge_state(registry.export_state())
        merged.merge_state(registry.export_state())
        assert merged.counter("requests", tenant="acme").value == 6
        assert merged.gauge("queue_depth", shard="shard-0").value == 2
        assert merged.histogram("seconds").count == 6

    def test_snapshot_without_histogram_values_is_clock_free(self):
        registry = self.build()
        snapshot = registry.snapshot(histogram_values=False)
        assert snapshot["histograms"]["seconds"] == {"count": 3}


class TestRegistryStack:
    def test_push_pop_scopes_the_default(self):
        root = get_registry()
        session = push_registry()
        try:
            assert get_registry() is session
            assert get_registry() is not root
        finally:
            assert pop_registry() is session
        assert get_registry() is root

    def test_root_cannot_be_popped(self):
        depth = 0
        while True:
            try:
                pop_registry()
                depth += 1
            except RuntimeError:
                break
        for _ in range(depth):  # restore whatever this test drained
            push_registry()
        assert depth == 0


class TestTracer:
    def test_spans_nest_via_context(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", k=1) as inner:
                pass
        records = tracer.export()
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["parent"] == outer.id
        assert records[0]["attrs"] == {"k": 1}
        assert records[1]["parent"] is None
        assert inner.id == outer.id + 1

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything") as span:
            assert span is None
        assert tracer.export() == []

    def test_errors_are_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("boom"):
                raise KeyError("gone")
        (record,) = tracer.export()
        assert record["error"] == "KeyError: 'gone'"

    def test_out_of_order_end_raises(self):
        tracer = Tracer()
        first = tracer.start_span("first")
        tracer.start_span("second")
        with pytest.raises(RuntimeError):
            tracer.end_span(first)

    def test_non_scalar_attrs_coerced_to_repr(self):
        tracer = Tracer()
        with tracer.span("x", arr=[1, 2]):
            pass
        (record,) = tracer.export()
        assert record["attrs"]["arr"] == "[1, 2]"

    def test_adopt_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        with worker.span("child.outer"):
            with worker.span("child.inner"):
                pass
        parent = Tracer()
        with parent.span("cell") as cell:
            parent.adopt(worker.export())
        records = {r["name"]: r for r in parent.export()}
        assert records["child.outer"]["parent"] == cell.id
        assert (
            records["child.inner"]["parent"] == records["child.outer"]["id"]
        )
        ids = [r["id"] for r in parent.export()]
        assert len(ids) == len(set(ids))

    def test_adopt_into_disabled_tracer_is_a_no_op(self):
        worker = Tracer()
        with worker.span("x"):
            pass
        tracer = Tracer(enabled=False)
        tracer.adopt(worker.export())
        assert tracer.export() == []

    def test_canonical_records_strip_exactly_the_timing(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        (canonical,) = canonical_records(tracer.export())
        assert "start_us" not in canonical and "duration_us" not in canonical
        assert canonical["name"] == "x"


class TestTraceFile:
    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing_session() as (tracer, registry):
            with tracer.span("root", n=3):
                registry.counter("things").inc(3)
                registry.histogram("lat").observe(0.5)
            spans = write_trace(path, tracer, registry=registry, argv=["x"])
        assert spans == 1
        trace = load_trace(path)
        assert trace["header"]["schema"] == "repro-trace/1"
        assert trace["header"]["argv"] == ["x"]
        assert trace["header"]["spans"] == 1
        assert trace["spans"][0]["name"] == "root"
        assert trace["metrics"]["counters"] == {"things": 3}
        # histogram quantiles are wall-clock-derived: counts only
        assert trace["metrics"]["histograms"]["lat"] == {"count": 1}

    def test_load_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"kind": "span", "id": 1}\n')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_tracing_session_scopes_tracer_and_registry(self):
        outer_tracer, outer_registry = get_tracer(), get_registry()
        with tracing_session() as (tracer, registry):
            assert get_tracer() is tracer
            assert get_registry() is registry
            assert tracer.enabled
        assert get_tracer() is outer_tracer
        assert get_registry() is outer_registry


class TestRollup:
    def spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        return tracer.export()

    def test_self_time_excludes_direct_children(self):
        spans = self.spans()
        rows = {row["name"]: row for row in rollup(spans)}
        assert rows["inner"]["calls"] == 2
        inner_total = rows["inner"]["total_us"]
        outer = rows["outer"]
        assert outer["self_us"] == max(0, outer["total_us"] - inner_total)

    def test_rollup_total_ordering_and_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("x")
        rows = rollup(tracer.export())
        assert rows[0]["errors"] == 1

    def test_format_rollup_and_tree(self):
        spans = self.spans()
        table = format_rollup(rollup(spans), metrics={"counters": {"c": 1}})
        assert "outer" in table and "c = 1" in table
        tree = format_tree(spans)
        assert tree.splitlines()[0].startswith("outer")
        assert tree.splitlines()[1].startswith("  inner")

    def test_format_tree_elides_large_traces(self):
        tracer = Tracer()
        for _ in range(30):
            with tracer.span("leaf"):
                pass
        tree = format_tree(tracer.export(), max_spans=5)
        assert "30 spans total; showing 5" in tree


class TestKernelInstrumentation:
    def test_profile_spans_and_counters_under_a_session(self):
        values = np.cumsum(np.random.default_rng(5).normal(size=600))
        with tracing_session() as (tracer, registry):
            result = matrix_profile(values, 32)
            names = [r["name"] for r in tracer.export()]
        assert "mpx.profile" in names and "mpx.block" in names
        # only the numpy sweep tiles its blocks into column chunks
        assert ("mpx.chunk" in names) == (native.backend() == "numpy")
        assert registry.counter("mpx_profiles").value == 1
        assert (
            registry.gauge("mpx_workspace_bytes").value
            == result.workspace_bytes
        )

    def test_disabled_default_tracer_records_no_spans(self):
        values = np.cumsum(np.random.default_rng(5).normal(size=400))
        before = len(get_tracer().export())
        matrix_profile(values, 16)
        assert len(get_tracer().export()) == before

    def test_traced_profile_is_bit_identical(self):
        values = np.cumsum(np.random.default_rng(9).normal(size=500))
        plain = matrix_profile(values, 24)
        with tracing_session():
            traced = matrix_profile(values, 24)
        assert np.array_equal(plain.profile, traced.profile)
        assert np.array_equal(plain.indices, traced.indices)


class TestEngineTraceParity:
    SPECS = [
        DetectorSpec.create("diff"),
        DetectorSpec.create("moving_zscore", k=50),
    ]

    def archive(self):
        # mixed lengths, longest not first: the pool submits cells in a
        # different order than the grid, and the adoption must undo it
        return Archive(
            "toy",
            [
                ucr_series(f"d{i}", n=n, start=320 + 90 * i)
                for i, n in enumerate((700, 1500, 1200))
            ],
        )

    def run_traced(self, jobs):
        with tracing_session() as (tracer, registry):
            report = EvalEngine(self.SPECS, jobs=jobs).run(self.archive())
            records = canonical_records(tracer.export())
            metrics = registry.snapshot(histogram_values=False)
        # jobs is honest config, not nondeterminism; normalize it away
        for record in records:
            record["attrs"].pop("jobs", None)
        return report, records, metrics

    def test_serial_and_parallel_traces_identical(self):
        report_serial, records_serial, metrics_serial = self.run_traced(1)
        report_parallel, records_parallel, metrics_parallel = self.run_traced(
            2
        )
        assert report_serial.manifest().to_json() == (
            report_parallel.manifest().to_json()
        )
        assert records_serial == records_parallel
        assert metrics_serial == metrics_parallel

    def test_engine_counters(self):
        _, records, metrics = self.run_traced(1)
        assert metrics["counters"]["engine_cells"] == 6
        assert metrics["counters"]["engine_cache_misses"] == 6
        names = [record["name"] for record in records]
        assert names.count("engine.cell") == 6
        assert names.count("engine.locate") == 6
        assert names.count("engine.run") == 1


class TestReplayInstrumentation:
    def test_replay_records_spans_and_histograms(self):
        from repro.stream import replay

        series = ucr_series("s", n=800, start=600, train=300)
        with tracing_session() as (tracer, registry):
            replay(series, "diff", batch_size=50)
            names = [r["name"] for r in tracer.export()]
        assert names.count("replay.cell") == 1
        assert registry.counter("replay_points").value == 500
        assert registry.counter("replay_updates").value == 10
        histogram = registry.histogram("replay_append_seconds", detector="diff")
        assert histogram.count == 10


class TestServeMetricsRebase:
    """Serve metrics edge cases, read through the cluster's registry."""

    def test_fresh_tenant_digests_are_none_not_zero(self):
        from repro.serve import StreamCluster

        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", list(np.arange(20.0)))
            [row] = cluster.metrics_json()["tenants"]
        assert row["append_p50_ms"] is None
        assert row["append_p99_ms"] is None
        assert row["queue_wait_p99_ms"] is None
        assert row["score_p99_ms"] is None

    def test_single_sample_is_every_quantile(self):
        from repro.serve import StreamCluster

        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", list(np.arange(20.0)))
            for name, seconds in (
                ("serve_append_seconds", 0.004),
                ("serve_queue_wait_seconds", 0.003),
                ("serve_score_seconds", 0.001),
            ):
                cluster.registry.histogram(name, tenant="acme").observe(seconds)
            [row] = cluster.metrics_json()["tenants"]
        assert row["append_p50_ms"] == 4.0
        assert row["append_p99_ms"] == 4.0
        assert row["queue_wait_p99_ms"] == 3.0
        assert row["score_p99_ms"] == 1.0

    def test_json_and_prometheus_read_the_same_registry(self):
        from repro.serve import StreamCluster

        with StreamCluster(num_shards=1) as cluster:
            cluster.create_stream("acme", "s1", "diff", list(np.arange(20.0)))
            cluster.append("acme", "s1", np.arange(25.0))
            cluster.scores("acme", "s1")  # barrier: batch scored
            payload = cluster.metrics_json()
            text = cluster.metrics_prometheus()
        assert payload["totals"]["points_ingested"] == 25
        assert 'serve_points_ingested{tenant="acme"} 25' in text
        assert 'serve_append_seconds_count{tenant="acme"} 1' in text
        # the quantile series carries the same value metrics_json rounds
        assert 'serve_append_seconds{tenant="acme",quantile="0.99"}' in text

    def test_cluster_prometheus_includes_shard_and_uptime_series(self):
        from repro.serve import StreamCluster

        with StreamCluster(num_shards=2) as cluster:
            cluster.create_stream("acme", "s1", "diff", list(np.arange(20.0)))
            cluster.append("acme", "s1", [1.0, 2.0, 3.0])
            cluster.scores("acme", "s1")
            text = cluster.metrics_prometheus()
        assert 'serve_queue_depth{shard="shard-0"}' in text
        assert "serve_uptime_seconds" in text
        assert 'serve_points_ingested{tenant="acme"} 3' in text


class TestObsCli:
    def test_obs_rollup_reads_a_written_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        with tracing_session() as (tracer, registry):
            with tracer.span("work"):
                registry.counter("done").inc()
            write_trace(path, tracer, registry=registry)
        assert main(["obs", "rollup", str(path)]) == 0
        out = capsys.readouterr().out
        assert "work" in out and "done = 1" in out
        assert main(["obs", "dump", str(path)]) == 0
        assert "work" in capsys.readouterr().out

    def test_obs_rollup_json_payload(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        tracer = Tracer()
        with tracer.span("work"):
            pass
        write_trace(path, tracer)
        assert main(["obs", "rollup", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-rollup/1"
        assert payload["rows"][0]["name"] == "work"

    def test_obs_on_garbage_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "junk.jsonl"
        path.write_text("{}\n")
        assert main(["obs", "rollup", str(path)]) == 1
        assert "error" in capsys.readouterr().err
