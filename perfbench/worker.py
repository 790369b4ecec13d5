"""One pass of the batch-archive or stream-replay path, in a fresh process.

    python3 perfbench/worker.py {batch,stream} ARCHIVE_DIR WORK_DIR [--traced] [--series A:B]

A pass is what a user's ``repro run`` / ``repro stream`` invocation
does: start an interpreter, import ``repro``, load the archive from
disk, validate the detector specs, then run the engine (or the replay)
through the public API.  Running each pass in its own process makes
set-up time and peak memory those of one invocation.  The parent reads
the single JSON object printed on stdout.

``--traced`` wraps every public call in a span owned by this file and
adds the layer probes (the serial kernel/cache/scoring decomposition of
every engine cell; the replay decomposed into adapter fit/update and
trace building).  ``--series A:B`` runs on a slice of the archive.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from accounting import NoSpans, Spans

ROOT = Path(__file__).resolve().parent.parent
BATCH_SPECS = ("matrix_profile(w=100)", "moving_zscore", "diff")
STREAM_SPECS = ("matrix_profile(w=100)", "moving_zscore")
STREAM_WINDOW = 1200
STREAM_BATCH = 8
JOBS = min(2, os.cpu_count() or 1)


def peak_rss_kb() -> "tuple[int, int]":
    """(this process's peak RSS, its largest reaped child's peak RSS), in KiB."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]), children
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_batch(archive, specs, work: Path, spans, traced: bool) -> dict:
    from repro.runner import EvalEngine, ResultsStore

    with spans.span("runner.engine_run"):
        started = time.perf_counter()
        report = EvalEngine(specs, cache=work / "cache", jobs=JOBS).run(archive)
        engine_s = time.perf_counter() - started
    with spans.span("runner.results_write"):
        started = time.perf_counter()
        ResultsStore(work / "out").write(report, "batch")
        write_s = time.perf_counter() - started
    with spans.span("runner.engine_warm"):
        warm = EvalEngine(specs, cache=work / "cache", jobs=JOBS).run(archive)
    result = {
        "engine_s": engine_s,
        "write_s": write_s,
        "points": sum(s.n for s in archive.series) * len(specs),
        "cells": [cell.location for cell in report.cells],
        "warm_cells": [cell.location for cell in warm.cells],
        "warm_hits": warm.stats.cache_hits,
        "jobs": JOBS,
    }
    if traced:
        result["probe"] = probe_cells(archive, specs, work, spans)
    return result


def probe_cells(archive, specs, work: Path, spans) -> dict:
    """Every engine cell again, serially, split into its layer calls."""
    import numpy as np

    from repro.detectors.matrix_profile import (
        matrix_profile,
        subsequence_to_point_scores,
    )
    from repro.runner import ResultCache, UcrScoring, cache_key

    warm = ResultCache(work / "cache")
    fresh = ResultCache(work / "probe-cache")
    scoring = UcrScoring()
    described = scoring.describe()
    locations, pairs, workspace = [], 0, 0
    with spans.span("bench.probe"):
        for spec in specs:
            for series in archive.series:
                with spans.span("runner.cache_key"):
                    key = cache_key(spec, series, described)
                with spans.span("runner.cache_get"):
                    warm.get(key)
                detector = spec.build()
                if spec.name == "matrix_profile":
                    with spans.span("kernel.fit"):
                        detector.fit(series.train)
                    with spans.span("kernel.matrix_profile"):
                        profile = matrix_profile(
                            series.values,
                            detector.w,
                            detector.exclusion,
                            with_indices=False,
                        )
                    with spans.span("kernel.lift"):
                        scores = subsequence_to_point_scores(
                            profile.profile, detector.w, series.n
                        )
                    exclusion = detector.w if detector.exclusion is None else detector.exclusion
                    diagonals = series.n - detector.w + 1 - exclusion
                    pairs += diagonals * (diagonals + 1) // 2
                    workspace = max(workspace, profile.workspace_bytes or 0)
                else:
                    with spans.span(f"detectors.score.{spec.name}"):
                        detector.fit(series.train)
                        scores = detector.score(series.values)
                with spans.span("detectors.locate"):
                    scores = np.asarray(scores, dtype=float)
                    scores = np.where(np.isnan(scores), -np.inf, scores)
                    scores[: series.train_len] = -np.inf
                    location = int(np.argmax(scores))
                with spans.span("scoring.ucr"):
                    scoring.correct(series, location)
                with spans.span("runner.cache_put"):
                    fresh.put(key, {"location": location})
                locations.append(location)
    return {"locations": locations, "pairs": pairs, "workspace_bytes": workspace}


def run_stream(archive, specs, work: Path, spans, traced: bool) -> dict:
    result = {"points": sum(s.n - s.train_len for s in archive.series) * len(specs)}
    if not traced:
        from repro.stream import replay_grid

        started = time.perf_counter()
        traces = replay_grid(
            archive, specs, batch_size=STREAM_BATCH, window=STREAM_WINDOW
        )
        result["seconds"] = time.perf_counter() - started
        result["traces"] = [digest(trace.to_jsonl()) for trace in traces]
        return result
    with spans.span("bench.replay") as root:
        result["traces"] = decomposed_replay(archive, specs, spans)
    result["seconds"] = root["end"] - root["start"]
    result["profile_points"] = probe_stream_profile(archive, spans)
    return result


def decomposed_replay(archive, specs, spans) -> "list[str]":
    """``replay_grid`` through its public parts, one span per call."""
    import numpy as np

    from repro.stream import as_streaming, trace_from_scores

    lines = []
    for spec in specs:
        for series in archive.series:
            values, n, start = series.values, series.n, series.train_len
            with spans.span(f"adapters.fit.{spec.name}"):
                detector = as_streaming(spec.build(), window=STREAM_WINDOW)
                detector.fit(series.train)
            scores = np.full(n, -np.inf)
            updates = 0
            for begin in range(start, n, STREAM_BATCH):
                stop = min(begin + STREAM_BATCH, n)
                with spans.span(f"adapters.update.{spec.name}"):
                    block = np.asarray(detector.update(values[begin:stop]), dtype=float)
                scores[begin:stop] = np.where(np.isnan(block), -np.inf, block)
                updates += 1
            with spans.span("replay.trace"):
                trace = trace_from_scores(
                    series,
                    scores,
                    detector_label=spec.label,
                    batch_size=STREAM_BATCH,
                    window=STREAM_WINDOW,
                    num_updates=updates,
                )
            lines.append(digest(trace.to_jsonl()))
    return lines


def probe_stream_profile(archive, spans, series_count: int = 2) -> int:
    """The incremental kernel alone, on the replay's batches."""
    from repro.stream import StreamingMatrixProfile

    points = 0
    with spans.span("bench.stream_profile"):
        for series in archive.series[:series_count]:
            profile = StreamingMatrixProfile(100, max_history=STREAM_WINDOW)
            with spans.span("stream_profile.seed"):
                profile.append(series.train)
                profile.drain_egress()
            for begin in range(series.train_len, series.n, STREAM_BATCH):
                batch = series.values[begin : begin + STREAM_BATCH]
                with spans.span("stream_profile.append"):
                    profile.append(batch)
                    profile.drain_egress()
                points += batch.size
    return points


def main(argv: "list[str]") -> int:
    path, archive_dir, work = argv[0], Path(argv[1]), Path(argv[2])
    traced = "--traced" in argv
    lo, hi = 0, None
    if "--series" in argv:
        text = argv[argv.index("--series") + 1]
        lo, hi = (int(part) if part else None for part in text.split(":"))
        lo = lo or 0
    spans = Spans() if traced else NoSpans()
    with spans.span("bench.pass"):
        with spans.span("import.repro"):
            sys.path.insert(0, str(ROOT / "src"))
            from repro.archive import load_archive
            from repro.detectors import DetectorSpec
            from repro.runner import archive_fingerprint
            from repro.types import Archive
        with spans.span("archive.load"):
            archive = load_archive(archive_dir)
        archive = Archive(archive.name, archive.series[lo:hi])
        with spans.span("detectors.validate"):
            specs = [
                DetectorSpec.parse(text)
                for text in (BATCH_SPECS if path == "batch" else STREAM_SPECS)
            ]
            for spec in specs:
                spec.build()
        ready = time.monotonic()
        run = run_batch if path == "batch" else run_stream
        result = run(archive, specs, work, spans, traced)
    rss_self, rss_children = peak_rss_kb()
    result.update(
        ready=ready,
        rss_self_kb=rss_self,
        rss_children_kb=rss_children,
        fingerprint=archive_fingerprint(archive),
        spans=list(spans.records),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
