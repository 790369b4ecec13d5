"""Tests for the benchmark's own accounting.

    python3 -m pytest perfbench
"""

import json
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from accounting import (  # noqa: E402
    NAME,
    Spans,
    Tally,
    count_mismatches,
    layer_gap_pct,
    percentile,
    self_times,
    tail_percentile,
    timing,
)

ROOT = Path(__file__).resolve().parent.parent


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_children():
    records = [
        span(1, None, "bench.pass", 0.0, 10.0),
        span(2, 1, "kernel.mp", 1.0, 4.0),
        span(3, 1, "runner.put", 5.0, 6.0),
        span(4, 2, "kernel.lift", 2.0, 3.0),
    ]
    assert self_times(records) == pytest.approx(
        {"bench.pass": 6.0, "kernel.mp": 2.0, "runner.put": 1.0, "kernel.lift": 1.0}
    )


def test_self_time_counts_overlapping_children_once():
    records = [
        span(1, None, "bench.pass", 0.0, 10.0),
        span(2, 1, "http.append", 1.0, 5.0),
        span(3, 1, "http.append", 3.0, 7.0),
        span(4, 1, "http.read", 9.0, 12.0),  # clipped to the parent
    ]
    assert self_times(records)["bench.pass"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_gap_is_harness_share_of_root_wall():
    records = [
        span(1, None, "bench.pass", 0.0, 10.0),
        span(2, 1, "kernel.mp", 0.0, 9.0),
        span(3, None, "bench.client", 0.0, 10.0),
        span(4, 3, "http.append", 0.0, 10.0),
    ]
    assert layer_gap_pct(records) == pytest.approx(5.0)


def test_recorder_nests_per_thread_and_sums_to_wall():
    spans = Spans()

    def client():
        with spans.span("bench.client"):
            for _ in range(3):
                with spans.span("http.append"):
                    pass

    with spans.span("bench.pass"):
        with spans.span("archive.load"):
            pass
        worker = threading.Thread(target=client)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_id = {r["id"]: r for r in spans.records}
    roots = [r for r in spans.records if r["parent"] is None]
    assert sorted(r["name"] for r in roots) == ["bench.client", "bench.pass"]
    for record in spans.records:
        if record["name"] == "http.append":
            assert by_id[record["parent"]]["name"] == "bench.client"
    wall = sum(r["end"] - r["start"] for r in roots)
    assert sum(self_times(spans.records).values()) == pytest.approx(wall)


def test_percentile_interpolates_like_numpy():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile(range(101), 99) == 99
    assert percentile([7], 99) == 7


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10**6, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    assert tail_percentile(n) == q
    if q is not None:
        assert n * (100 - q) / 100 >= 10


def test_timing_reports_count_and_tail_rank():
    stats = timing(float(v) for v in range(1, 201))
    assert stats["n"] == 200
    assert stats["p50"] == pytest.approx(100.5)
    assert stats["tail_q"] == 95.0
    assert stats["tail"] == pytest.approx(percentile(range(1, 201), 95))
    assert timing([1.0] * 5)["tail"] is None


def test_mismatches_count_each_differing_or_missing_output():
    assert count_mismatches([1, 2, 3], [1, 2, 3]) == 0
    assert count_mismatches([1, 2, 3], [1, 9, 3]) == 1
    assert count_mismatches([1, 2, 3], [1, 2]) == 1
    assert count_mismatches([1, 2], [5, 6, 7]) == 3


def test_tally_failed_frac():
    tally = Tally()
    assert tally.failed_frac == 0.0
    tally.add(90)
    tally.add(10, 3)
    assert (tally.attempted, tally.failed) == (100, 3)
    assert tally.failed_frac == pytest.approx(0.03)


def test_served_score_mismatch_fails_that_streams_reads():
    np = pytest.importorskip("numpy")
    from serve import Stream, verify

    series = type("S", (), {"name": "a"})()
    good = Stream("t0", "s0", "diff", series, [], scores=[1.0, float("nan")], reads=4)
    copy = Stream("t0", "s0-copy", "diff", series, [], cut=1, scores=[-np.inf], reads=2)
    bad = Stream("t0", "s1", "diff", series, [], scores=[1.0, 2.0], reads=5)
    tally = Tally()
    tally.add(11)
    wrong = verify([good, copy, bad], {("a", "diff"): np.array([1.0, -np.inf])}, tally)
    assert wrong == 1
    assert (tally.attempted, tally.failed) == (11, 5)


def test_names_are_well_formed():
    from run import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(names) == sorted(set(names))
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for name in names:
        assert NAME.fullmatch(name), name
    for bad in ("matrix_profile(w=100)", "a b", ".x", "x" * 65, ""):
        assert not NAME.fullmatch(bad)
