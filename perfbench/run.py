"""Outside-in benchmark of the three user paths of ``repro``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all ...     # every workload, then a summary
    python3 perfbench/run.py --record 1-20          # refresh reference.json

Workloads (see BENCHMARK.json for why each was chosen):

* ``batch-archive`` — the ``repro run`` path: a fresh process imports
  ``repro``, loads a 16-series UCR-sim archive from disk and runs a
  cold-cache ``EvalEngine`` (matrix profile, moving z-score, diff) over
  it with two pool workers, then writes the results.
* ``stream-replay`` — the ``repro stream`` path: ``replay_grid`` over
  the same archive in 8-point micro-batches, window 1200.
* ``serve-http`` — a ``repro serve`` subprocess driven over HTTP by two
  closed-loop client threads (see ``serve.py``).

``stream-replay`` runs on request but is not declared in BENCHMARK.json:
on the shared-vCPU benchmark host its throughput moved between runs by
more than the largest bound allowed (see README.md).  Its layers are
measured in every traced run all the same.

A run repeats its workload's pass until ``--seconds`` have elapsed (at
least three times) and reports the median set-up time and memory and
the fastest pass's throughput.  Inputs come from ``--seed`` only; the
program receives the archive written to disk and the append schedule.
With ``--trace 1`` a traced pass follows: spans from this directory
wrap every public call, each layer is probed on this workload's inputs
(the home workload of a layer at full size, the others on a small
slice), and the per-layer metrics are reported instead.

Every output is checked: engine cells and replay traces against the
recorded reference for the seed (``reference.json``, matched by archive
fingerprint) or else against the run's first pass, served scores
against a local ``replay`` of the same stream.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from accounting import (
    NAME,
    NoSpans,
    Spans,
    Tally,
    count_mismatches,
    durations,
    layer_gap_pct,
    timing,
)
from serve import (
    STREAMS,
    ClusterApi,
    Drive,
    HttpApi,
    Server,
    expected_scores,
    parse_prometheus,
    plan,
    prom_quantiles,
    prom_total,
    verify,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-archive", "stream-replay", "serve-http")
HOME = {"batch-archive": "batch", "stream-replay": "stream", "serve-http": "serve"}
SLICE = "0:2"  # series a layer probe uses off its home workload
SLICE_STREAMS = 8
PASS_TIMEOUT_S = 170
MIN_PASSES = 3
GAP_TOLERANCE_PCT = 5.0  # harness time between spans, as a share of traced wall


# -- inputs ---------------------------------------------------------------


def make_inputs(workload: str, seed: int, work: Path) -> Path:
    """Write the seed's UCR-sim archive to disk; returns its directory.

    Series lengths are fixed, so every seed costs the same work and
    the seed changes only the data.  The batch and stream paths share
    one archive (the simulator's two long exemplars plus 14 series of
    9800 points, 177,200 points); the served path uses 16 short series
    of 3100 points without the exemplars.
    """
    from repro.archive import save_archive
    from repro.datasets import UcrSimConfig, make_ucr
    from repro.types import Archive

    if workload == "serve-http":
        archive = make_ucr(
            UcrSimConfig(seed=seed, size=18, min_length=3100, max_length=3101)
        )
        archive = Archive(archive.name, archive.series[2:])
    else:
        archive = make_ucr(
            UcrSimConfig(seed=seed, size=16, min_length=9800, max_length=9801)
        )
    directory = work / "archive"
    save_archive(archive, directory)
    return directory


# -- one pass of each path --------------------------------------------------


def worker_pass(path: str, archive: Path, work: Path, *, traced=False, series=None) -> dict:
    """Run ``worker.py`` in a fresh interpreter; set-up is spawn to ready."""
    work.mkdir(parents=True)
    command = [sys.executable, str(HERE / "worker.py"), path, str(archive), str(work)]
    if traced:
        command.append("--traced")
    if series:
        command += ["--series", series]
    spawned = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{path} pass failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def serve_pass(archive, work: Path, tally: Tally, *, spans=None, streams=STREAMS) -> dict:
    """Server spawn, stream creates, the timed drive, scrapes, teardown."""
    spans = spans or NoSpans()
    schedule = plan(archive, streams)
    work.mkdir(parents=True)
    server = Server(ROOT, work / "server.log")
    spawned = time.monotonic()
    try:
        with spans.span("bench.setup"):
            with spans.span("serve.startup"):
                server.start()
        drive = Drive(schedule, lambda: HttpApi(server.address), spans, tally)
        api = HttpApi(server.address)
        with spans.span("bench.setup"):
            drive.create_all(api)
        setup_s = time.monotonic() - spawned
        before = parse_prometheus(api.client.metrics_text())
        drive_s = drive.run()
        after = parse_prometheus(api.client.metrics_text())
        rss_kb = server.peak_rss_kb()
    finally:
        server.stop()
    return {
        "setup_s": setup_s,
        "drive_s": drive_s,
        "drive": drive,
        "rss_kb": rss_kb,
        "before": before,
        "after": after,
    }


# -- the timed passes -------------------------------------------------------


def timed_passes(workload, archive_dir, work: Path, seconds: float, tally: Tally):
    """Repeat the workload's pass until ``seconds`` have elapsed, at least thrice."""
    passes = []
    archive = None
    if workload == "serve-http":
        from repro.archive import load_archive

        archive = load_archive(archive_dir)
    started = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - started < seconds:
        where = work / f"pass-{len(passes)}"
        if workload == "serve-http":
            passes.append(serve_pass(archive, where, tally))
        else:
            passes.append(worker_pass(HOME[workload], archive_dir, where))
    return passes, archive


def e2e_metrics(workload, passes) -> "tuple[dict, dict, dict]":
    """Per-pass samples, the run's value of each, and informational rows.

    Throughput is the fastest pass: on shared vCPUs contention only
    ever slows a pass, in bursts that last seconds, so the fastest pass
    estimates the uncontended rate and varies between runs far less
    than the median does.  Set-up time and memory are medians.
    """
    samples = {"setup_s": [p["setup_s"] for p in passes]}
    info = {}
    if workload == "batch-archive":
        samples["points_per_s"] = [p["points"] / p["engine_s"] for p in passes]
        samples["peak_rss_mb"] = [
            (p["rss_self_kb"] + p["rss_children_kb"]) / 1024 for p in passes
        ]
    elif workload == "stream-replay":
        samples["points_per_s"] = [p["points"] / p["seconds"] for p in passes]
        samples["peak_rss_mb"] = [p["rss_self_kb"] / 1024 for p in passes]
    else:
        samples["points_per_s"] = [p["drive"].points / p["drive_s"] for p in passes]
        samples["peak_rss_mb"] = [p["rss_kb"] / 1024 for p in passes]
        for op in ("append", "read"):
            stats = timing(
                1e3 * s for p in passes for s in getattr(p["drive"], f"{op}_s")
            )
            info[f"{op}_p50_ms"] = (stats["p50"], "ms", f"n={stats['n']}")
            info[f"{op}_p99_ms"] = (
                stats["tail"],
                "ms",
                f"p{stats['tail_q']:g} of n={stats['n']}",
            )
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["points_per_s"] = max(samples["points_per_s"])
    return metrics, samples, info


# -- correctness ------------------------------------------------------------


def load_reference() -> dict:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check_outputs(workload, seed, passes, tally: Tally) -> str:
    """Count differing outputs as failed operations; returns the output digest."""
    if workload == "serve-http":
        expected = expected_scores(passes[0]["drive"].schedule)
        for p in passes:
            verify(p["drive"].streams, expected, tally)
        outputs = [
            [s.name, s.cut, hashlib.sha256(json.dumps(s.scores).encode()).hexdigest()]
            for s in passes[0]["drive"].streams
        ]
        return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()[:16]
    key = "cells" if workload == "batch-archive" else "traces"
    recorded = load_reference().get(workload, {}).get(str(seed))
    expected = passes[0][key]
    if recorded and recorded["fingerprint"] == passes[0]["fingerprint"]:
        expected = recorded[key]
    for p in passes:
        tally.add(len(p[key]), count_mismatches(expected, p[key]))
        if workload == "batch-archive":
            tally.add(len(p["warm_cells"]), count_mismatches(p["cells"], p["warm_cells"]))
    return hashlib.sha256(json.dumps(passes[0][key]).encode()).hexdigest()[:16]


# -- the traced run ---------------------------------------------------------


def rekey(records: list, tag: str) -> list:
    """Make span ids unique across recorders before merging them."""
    for record in records:
        record["id"] = f"{tag}:{record['id']}"
        if record["parent"] is not None:
            record["parent"] = f"{tag}:{record['parent']}"
    return records


def traced_run(workload, archive_dir, work: Path, passes, tally: Tally):
    """Every layer's probe on this workload's inputs; returns per-layer metrics."""
    from repro.archive import load_archive

    home = HOME[workload]
    records: list = []
    metrics: dict = {}

    # the batch and stream paths share one archive: probe both at full
    # size on it, and on a slice of the served path's archive
    offline_slice = SLICE if home == "serve" else None
    batch = worker_pass(
        "batch", archive_dir, work / "traced-batch", traced=True, series=offline_slice
    )
    records += rekey(batch["spans"], "batch")
    tally.add(len(batch["cells"]), count_mismatches(batch["cells"], batch["probe"]["locations"]))
    if home == "batch":
        tally.add(len(batch["cells"]), count_mismatches(passes[0]["cells"], batch["cells"]))
    metrics.update(batch_layers(batch))

    stream = worker_pass(
        "stream", archive_dir, work / "traced-stream", traced=True, series=offline_slice
    )
    records += rekey(stream["spans"], "stream")
    if home == "stream":
        tally.add(len(stream["traces"]), count_mismatches(passes[0]["traces"], stream["traces"]))
    metrics.update(stream_layers(stream))

    spans = Spans()
    with spans.span("bench.archive"):
        with spans.span("archive.load"):
            archive = load_archive(archive_dir)
    if home != "serve":
        lo, hi = (int(x) for x in SLICE.split(":"))
        from repro.types import Archive

        archive = Archive(archive.name, archive.series[lo:hi])
    served = serve_pass(
        archive, work / "traced-serve", tally, spans=spans,
        streams=STREAMS if home == "serve" else SLICE_STREAMS,
    )
    metrics.update(serve_layers(served, archive, spans, tally))
    home_records = {"batch": batch["spans"], "stream": stream["spans"]}.get(home, spans.records)
    metrics["archive.load_s"] = sum(durations(home_records, "archive.load"))
    records += rekey(spans.records, "serve")
    # the traced home pass against the untraced passes of the same path
    key, traced_wall = {
        "batch": ("engine_s", batch["engine_s"]),
        "stream": ("seconds", stream["seconds"]),
        "serve": ("drive_s", served["drive_s"]),
    }[home]
    reference = statistics.median(p[key] for p in passes)
    metrics["trace.overhead_pct"] = (traced_wall / reference - 1.0) * 100.0
    metrics["trace.layer_gap_pct"] = layer_gap_pct(records)
    return metrics


def _sum(records, name) -> float:
    return sum(durations(records, name))


def _p50_us(records, name) -> float:
    return statistics.median(durations(records, name)) * 1e6


def batch_layers(batch) -> dict:
    records, probe = batch["spans"], batch["probe"]
    busy = sum(
        _sum(records, name)
        for name in {r["name"] for r in records}
        if name.startswith(("kernel.", "detectors.score.", "detectors.locate"))
    )
    kernel = _sum(records, "kernel.matrix_profile")
    return {
        "kernel.busy_s": kernel,
        "kernel.pairs_per_s": probe["pairs"] / kernel,
        "kernel.workspace_bytes": probe["workspace_bytes"],
        "kernel.lift_s": _sum(records, "kernel.lift"),
        "detectors.score_s.moving_zscore": _sum(records, "detectors.score.moving_zscore"),
        "detectors.score_s.diff": _sum(records, "detectors.score.diff"),
        "cache.key_us": _p50_us(records, "runner.cache_key"),
        "cache.get_us": _p50_us(records, "runner.cache_get"),
        "cache.put_us": _p50_us(records, "runner.cache_put"),
        "cache.hit_ratio": batch["warm_hits"] / len(batch["cells"]),
        "scoring.ucr_us": _p50_us(records, "scoring.ucr"),
        "results.write_s": batch["write_s"],
        "engine.pool_util_ratio": busy / (batch["engine_s"] * batch["jobs"]),
        "engine.overhead_s": batch["engine_s"] - busy / batch["jobs"],
    }


def stream_layers(stream) -> dict:
    records = stream["spans"]
    metrics = {}
    for det in ("matrix_profile", "moving_zscore"):
        updates = durations(records, f"adapters.update.{det}")
        stats = timing(updates)
        metrics[f"adapters.fit_s.{det}"] = _sum(records, f"adapters.fit.{det}")
        metrics[f"adapters.update_busy_s.{det}"] = sum(updates)
        metrics[f"adapters.update_p50_us.{det}"] = stats["p50"] * 1e6
        metrics[f"adapters.update_p99_us.{det}"] = stats["tail"] * 1e6
    metrics["stream_profile.append_us_per_point"] = (
        _sum(records, "stream_profile.append") / stream["profile_points"] * 1e6
    )
    metrics["replay.trace_s"] = _sum(records, "replay.trace")
    replay_root = durations(records, "bench.replay")[0]
    parts = sum(
        _sum(records, name)
        for name in {r["name"] for r in records}
        if name.startswith(("adapters.", "replay."))
    )
    metrics["replay.overhead_s"] = replay_root - parts
    return metrics


def serve_layers(served, archive, spans, tally: Tally) -> dict:
    """HTTP vs in-process cluster, server-side scrape, state, detector calls."""
    import numpy as np

    from repro.serve import StreamCluster
    from repro.stream import as_streaming

    drive = served["drive"]
    schedule = plan(archive, len(drive.schedule))
    with StreamCluster(num_shards=4, queue_size=4096) as cluster:
        local = Drive(schedule, lambda: ClusterApi(cluster), spans, tally)
        with spans.span("bench.setup"):
            local.create_all(ClusterApi(cluster))
        local.run()
    expected = expected_scores(drive.schedule)
    verify(drive.streams, expected, tally)
    verify(local.streams, expected, tally)

    update_s: dict = {}
    with spans.span("bench.detector"):
        for s in drive.schedule:
            name = s.detector.split("(")[0]
            detector = as_streaming(s.detector)
            detector.fit(s.series.train)
            for batch in s.batches:
                values = np.asarray(batch)
                with spans.span(f"detector.update.{name}") as span:
                    detector.update(values)
                update_s.setdefault(name, []).append(span["end"] - span["start"])

    http_append, http_read = timing(drive.append_s), timing(drive.read_s)
    cluster_append, cluster_read = timing(local.append_s), timing(local.read_s)
    before, after = served["before"], served["after"]
    batches = prom_total(after, "serve_append_batches") - prom_total(before, "serve_append_batches")
    metrics = {
        "http.append_p50_us": http_append["p50"] * 1e6,
        "http.append_p99_us": http_append["tail"] * 1e6,
        "http.read_p50_us": http_read["p50"] * 1e6,
        "http.read_p99_us": http_read["tail"] * 1e6,
        "cluster.append_us": cluster_append["p50"] * 1e6,
        "cluster.read_us": cluster_read["p50"] * 1e6,
        "http.append_overhead_pct": (1.0 - cluster_append["p50"] / http_append["p50"]) * 100.0,
        "shard.appends_per_call": len(drive.append_s) / batches,
        "shard.rejections_count": prom_total(after, "serve_rejected") - prom_total(before, "serve_rejected"),
        "client.retries_count": drive.retries,
        "state.snapshot_ms": statistics.median(drive.snapshot_s) * 1e3,
        "state.restore_ms": statistics.median(drive.restore_s) * 1e3,
        "state.blob_kb": statistics.median(drive.blob_bytes) / 1024,
    }
    for series, label in (("serve_queue_wait_seconds", "queue_wait"), ("serve_score_seconds", "score")):
        for q, tag in (("0.5", "p50"), ("0.99", "p99")):
            metrics[f"shard.{label}_{tag}_ms"] = statistics.median(prom_quantiles(after, series, q)) * 1e3
    for name, samples in update_s.items():
        metrics[f"detector.update_us.{name}"] = statistics.median(samples) * 1e6
    return metrics


# -- reporting ----------------------------------------------------------------


def provenance(workload: str, seed: int, fingerprint: str) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = found.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "archive_fingerprint": fingerprint,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object for the last line."""
    from repro.runner import archive_fingerprint

    work = ROOT / ".perfbench-work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        archive_dir = make_inputs(workload, seed, work)
        passes, archive = timed_passes(workload, archive_dir, work, seconds, tally)
        fingerprint = (
            archive_fingerprint(archive) if archive is not None else passes[0]["fingerprint"]
        )
        digest = check_outputs(workload, seed, passes, tally)
        e2e, samples, info = e2e_metrics(workload, passes)
        layers = traced_run(workload, archive_dir, work, passes, tally) if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared_units = declared()
    print(json.dumps({"provenance": provenance(workload, seed, fingerprint)}))
    print(
        f"{workload}: seed {seed}, {len(passes)} passes, "
        f"{'traced' if trace else 'untraced'}, output digest {digest}"
    )
    for name, value in e2e.items():
        unit = declared_units["end_to_end"].get(name, "?")
        each = ", ".join(f"{v:.6g}" for v in samples[name])
        how = "best" if name == "points_per_s" else "median"
        print(f"  {name:<42} {value:>16.6g} {unit:<11} {how} of {each}")
    for name, (value, unit, note) in info.items():
        print(f"  {name:<42} {value:>16.6g} {unit:<11} info, {note}")
    for name in sorted(layers):
        unit = declared_units["per_layer"].get(name, "?")
        note = ""
        if name == "trace.layer_gap_pct":
            over = layers[name] > GAP_TOLERANCE_PCT
            note = f"{'OVER' if over else 'within'} the {GAP_TOLERANCE_PCT:g}% tolerance"
        print(f"  {name:<42} {layers[name]:>16.6g} {unit:<11} {note}".rstrip())
    print(
        f"  {'failed_frac':<42} {tally.failed_frac:>16.6g} {'ratio':<11} "
        f"{tally.failed} of {tally.attempted} operations"
    )
    metrics = layers if trace else e2e
    units = declared_units["per_layer" if trace else "end_to_end"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: {workload} did not measure {', '.join(missing)}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def record(seeds: "list[int]") -> None:
    """Record the engine cells and replay traces of ``seeds`` as the reference."""
    reference = load_reference()
    for seed in seeds:
        for workload, key in (("batch-archive", "cells"), ("stream-replay", "traces")):
            work = ROOT / ".perfbench-work" / f"record-{workload}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                archive_dir = make_inputs(workload, seed, work)
                result = worker_pass(HOME[workload], archive_dir, work / "pass")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            reference.setdefault(workload, {})[str(seed)] = {
                "fingerprint": result["fingerprint"],
                key: result[key],
            }
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def parse_seeds(text: str) -> "list[int]":
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS", help="e.g. 1-20 or 1,5,9")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bad = [n for kind in declared().values() for n in kind if not NAME.fullmatch(n)]
    bad += [w for w in WORKLOADS if not NAME.fullmatch(w)]
    if bad:
        print(f"error: malformed names {bad}", file=sys.stderr)
        return 2
    if args.record:
        record(parse_seeds(args.record))
        return 0
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for workload in declared()["workloads"]:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(results[workload]))
    wrong = [w for w, r in results.items() if not r["correct"]]
    print(f"all workloads: {'FAILED ' + ', '.join(wrong) if wrong else 'correct'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
