"""Load generator: interleaved HTTP drive, parity drill, trace equivalence."""

import math
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.obs import tracing_session
from repro.serve import (
    LoadConfig,
    ServeClient,
    default_archive,
    format_load,
    run_load,
)
from repro.serve.loadgen import _DETECTORS, _SLOP
from repro.stream import replay


def small_config(**overrides):
    base = dict(
        streams=6,
        tenants=3,
        shards=2,
        queue_size=4096,
        batch_size=200,
        seed=11,
        unique_series=2,
        snapshot_checks=2,
    )
    base.update(overrides)
    return LoadConfig(**base)


@pytest.fixture(scope="module")
def small_run():
    config = small_config()
    return config, run_load(config)


class TestRunLoad:
    def test_result_shape(self, small_run):
        config, result = small_run
        assert result.points_streamed > 0
        assert result.points_per_second > 0
        assert len(result.traces) == config.streams
        assert result.append_p99_ms is not None
        assert result.rejections >= 0

    def test_snapshot_parity_holds_under_interleaving(self, small_run):
        _, result = small_run
        assert result.snapshot_parity is True

    def test_traces_match_local_replay(self, small_run):
        # the service is a transport: every stream's trace must equal
        # the trace a local replay of the same (series, detector,
        # batch size) produces — same scores, same verdict, same delay
        config, result = small_run
        archive = default_archive(config)
        for index, trace in enumerate(result.traces):
            series = archive.series[index % len(archive.series)]
            expected = replay(
                series,
                _DETECTORS[index % len(_DETECTORS)],
                batch_size=config.batch_size,
                max_delay=config.max_delay,
                slop=_SLOP,
            )
            np.testing.assert_array_equal(trace.scores, expected.scores)
            assert trace.location == expected.location
            assert trace.correct == expected.correct
            assert trace.delay == expected.delay
            assert trace.score_fingerprint == expected.score_fingerprint

    def test_to_json_fields(self, small_run):
        config, result = small_run
        payload = result.to_json()
        assert payload["streams"] == config.streams
        assert payload["snapshot_parity"] is True
        assert payload["points_per_second"] > 0
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert set(payload["by_detector"]) == set(_DETECTORS)

    def test_format_load_mentions_everything(self, small_run):
        _, result = small_run
        text = format_load(result)
        assert "serve bench" in text
        assert "snapshot/restore parity: ok" in text
        for detector in _DETECTORS:
            assert detector in text

    def test_zero_snapshot_checks_reports_none(self):
        result = run_load(
            small_config(streams=2, unique_series=1, snapshot_checks=0)
        )
        assert result.snapshot_parity is None
        assert "parity: n/a" in format_load(result)


def _serve_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-serve" or thread.name.startswith("shard-")
    }


@pytest.fixture(scope="module")
def http_run():
    config = small_config(streams=4, snapshot_checks=1)
    before = _serve_threads()
    with tracing_session(enabled=False) as (_, registry):
        result = run_load(config)
    return config, result, registry, _serve_threads() - before


class TestHttpDrive:
    def test_every_operation_is_one_request_on_one_connection(
        self, http_run
    ):
        config, result, registry, _ = http_run
        archive = default_archive(config)
        batches = [
            math.ceil(
                (series.values.size - series.train_len) / config.batch_size
            )
            for series in (
                archive.series[index % len(archive.series)]
                for index in range(config.streams)
            )
        ]
        # every stream's create, appends and read; the drilled stream
        # (the first) adds a snapshot, a restore, its remaining appends
        # and a read; each 429 answer is a request of its own
        drive = sum(count + 2 for count in batches)
        drill = batches[0] - batches[0] // 2 + 3
        rejected = sum(
            counter.value
            for counter in registry.family("serve_rejected").values()
        )
        requests = registry.counter("serve_http_requests_total").value
        assert requests == drive + drill + rejected
        assert registry.counter("serve_http_connections_total").value == 1
        assert result.snapshot_parity is True

    def test_no_server_or_shard_thread_outlives_the_drive(self, http_run):
        *_, leaked = http_run
        assert leaked == set()

    def test_a_diverging_restore_fails_the_drill(self, monkeypatch, capsys):
        # feed the first restored copy one changed value: the drill must
        # see the continuation diverge, and serve-bench must exit 1
        append = ServeClient.append
        doctored = []

        def append_once_doctored(self, tenant, stream, values):
            if stream.endswith("-restored") and not doctored:
                doctored.append(stream)
                values = np.array(values, dtype=float)
                values[0] += 100.0
            return append(self, tenant, stream, values)

        monkeypatch.setattr(ServeClient, "append", append_once_doctored)
        config = small_config(streams=2, unique_series=1, snapshot_checks=1)
        assert run_load(config).snapshot_parity is False
        doctored.clear()
        assert main(["serve-bench", "--streams", "2", "--tenants", "2",
                     "--shards", "1", "--unique-series", "1",
                     "--snapshot-checks", "1", "--batch-size", "200",
                     "--seed", "11"]) == 1
        assert "parity: FAILED" in capsys.readouterr().out


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="streams"):
            LoadConfig(streams=0)
        with pytest.raises(ValueError, match="tenants"):
            LoadConfig(tenants=0)
        with pytest.raises(ValueError, match="snapshot_checks"):
            LoadConfig(snapshot_checks=-1)

    def test_default_archive_is_bounded_by_unique_series(self):
        config = small_config(streams=10, unique_series=3, snapshot_checks=0)
        assert len(default_archive(config).series) == 3
