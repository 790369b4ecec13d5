"""The serve tier's telemetry surface, pinned.

Operators, CI and the benchmark read the service through two views of
one registry: the ``/metrics`` JSON rows and the Prometheus exposition,
which ``perfbench`` scrapes by series name.  These tests fix both views
— row keys, totals, and each family's ``# TYPE``, ``# HELP`` and label
names — so a change to how the serve tier records cannot rename, drop
or re-describe a series unnoticed.
"""

import re

import numpy as np
import pytest

from repro.serve import Backpressure, ServeClient, ServeServer, StreamCluster

ROW_KEYS = {
    "tenant",
    "points_ingested",
    "scores_emitted",
    "append_batches",
    "rejected",
    "snapshots",
    "restores",
    "append_p50_ms",
    "append_p99_ms",
    "append_min_ms",
    "append_max_ms",
    "queue_wait_p99_ms",
    "score_p99_ms",
}

# family -> (# TYPE, # HELP text or None, label names); the summaries'
# derived _min/_max gauges carry no help text
FAMILIES = {
    "obs_alert_state": (
        "gauge",
        "Current alert state per rule (0 ok, 1 pending, 2 firing).",
        {"rule"},
    ),
    "obs_watch_errors_total": (
        "counter",
        "Watch ticks that raised; the watcher logs each and keeps ticking.",
        set(),
    ),
    "serve_append_batches": (
        "counter",
        "Scored append groups, per tenant.",
        {"tenant"},
    ),
    "serve_append_seconds": (
        "summary",
        "Arrival-to-score latency of append groups (seconds).",
        {"tenant", "quantile"},
    ),
    "serve_append_seconds_max": ("gauge", None, {"tenant"}),
    "serve_append_seconds_min": ("gauge", None, {"tenant"}),
    "serve_backpressure_total": (
        "counter",
        "Appends rejected at a full shard queue.",
        {"shard"},
    ),
    "serve_http_connections_total": (
        "counter",
        "TCP connections the HTTP front accepted.",
        set(),
    ),
    "serve_http_requests_total": (
        "counter",
        "HTTP requests the HTTP front routed.",
        set(),
    ),
    "serve_points_ingested": (
        "counter",
        "Points accepted for scoring, per tenant.",
        {"tenant"},
    ),
    "serve_queue_depth": (
        "gauge",
        "Resident operations in each shard queue.",
        {"shard"},
    ),
    "serve_queue_wait_seconds": (
        "summary",
        "Time append groups spent queued before worker pickup (seconds).",
        {"tenant", "quantile"},
    ),
    "serve_queue_wait_seconds_max": ("gauge", None, {"tenant"}),
    "serve_queue_wait_seconds_min": ("gauge", None, {"tenant"}),
    "serve_rejected": (
        "counter",
        "Appends rejected by backpressure, per tenant.",
        {"tenant"},
    ),
    "serve_restores": (
        "counter",
        "Streams restored from snapshots, per tenant.",
        {"tenant"},
    ),
    "serve_score_seconds": (
        "summary",
        "Time spent inside the detector call (seconds).",
        {"tenant", "quantile"},
    ),
    "serve_score_seconds_max": ("gauge", None, {"tenant"}),
    "serve_score_seconds_min": ("gauge", None, {"tenant"}),
    "serve_scores_emitted": (
        "counter",
        "Scores produced by detectors, per tenant.",
        {"tenant"},
    ),
    "serve_snapshots": (
        "counter",
        "Stream snapshots captured, per tenant.",
        {"tenant"},
    ),
    "serve_stream_failures_total": (
        "counter",
        "Streams marked failed because their detector raised, per tenant.",
        {"tenant"},
    ),
    "serve_uptime_seconds": (
        "gauge",
        "Seconds since the cluster started.",
        set(),
    ),
    "serve_worker_up": (
        "gauge",
        "0 once the shard's worker thread died without being closed, else 1.",
        {"shard"},
    ),
}


def families(text):
    """family -> (type, help text or None, label names) of an exposition."""
    types, helps, labels = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
        elif line.startswith("# HELP "):
            _, _, name, help_text = line.split(" ", 3)
            helps[name] = help_text
        elif line:
            name = re.match(r"\w+", line).group()
            if name not in types:  # a summary's _count series
                name = name.removesuffix("_count")
            labels.setdefault(name, set()).update(re.findall(r'(\w+)="', line))
    return {
        name: (kind, helps.get(name), labels.get(name, set()))
        for name, kind in types.items()
    }


@pytest.fixture(scope="module")
def scraped():
    """Two tenants, one rejection, one snapshot and one restore on one
    shard; tenant a's accepted appends and both views of the registry."""
    cluster = StreamCluster(num_shards=1, queue_size=1)
    with ServeServer(cluster) as server, ServeClient(server.address) as client:
        cluster.create_stream("a", "s1", "diff", np.arange(40.0))
        cluster.create_stream("b", "s1", "diff", np.arange(40.0))
        cluster.append("b", "s1", np.arange(8.0))
        cluster.scores("b", "s1")
        # a one-slot queue: a tight producer outruns the worker at once
        for accepted in range(10_000):
            try:
                cluster.append("a", "s1", np.arange(8.0))
            except Backpressure:
                break
        else:
            raise AssertionError("a one-slot queue never rejected an append")
        cluster.scores("a", "s1")
        snapshot = cluster.snapshot_stream("a", "s1")
        snapshot["stream"] = "a/s2"
        cluster.restore_stream(snapshot)
        yield accepted, client.metrics(), client.metrics_text()


def test_metrics_json_rows_and_totals(scraped):
    accepted, payload, _ = scraped
    assert list(payload) == ["tenants", "totals", "queue_depths"]
    assert [row["tenant"] for row in payload["tenants"]] == ["a", "b"]
    for row in payload["tenants"]:
        assert set(row) == ROW_KEYS
    # diff re-scores per append, so appends never coalesce: one batch each
    assert payload["totals"] == {
        "points_ingested": 8 * (accepted + 1),
        "scores_emitted": 8 * (accepted + 1),
        "append_batches": accepted + 1,
        "rejected": 1,
        "snapshots": 1,
        "restores": 1,
    }
    assert payload["queue_depths"] == {"shard-0": 0}


def test_prometheus_families_types_help_and_labels(scraped):
    _, _, text = scraped
    assert families(text) == FAMILIES
