"""``repro bench`` — performance harness for the numeric core.

The harness is one ordered table of sections (``_TABLE``): the mpx
kernel next to the brute-force oracle, MERLIN exact and with early
abandon, kNN scoring, the one-liner sliding extrema, bounded-memory
``scaling`` up to n = 10⁶, ``streaming`` appends, parity and replay,
what ``obs`` telemetry and the ``watch`` alert layer cost, ``anytime``
convergence, ``parallel`` bit-identity and the ``drift`` refit-policy
ablation.  Each entry runs its measurements and returns ``(payload,
checks)`` — the section's JSON payload and the headline checks it adds
to the report — and renders its own text lines; ``SECTIONS``,
:func:`run_bench` and :func:`format_bench` all derive from the table.
The ``repro run`` grid and the served path are not sections: perfbench
``batch-archive`` and ``serve-http`` measure them end to end.

Every section reports absolute timings, which ``repro bench compare``
gates against the committed trajectory.  Results are written as
machine-readable JSON; the output name derives from the trajectory
counter (``benchmarks/perf/BENCH_<n>.json``, ``n`` = ``TRAJECTORY``)
so every recorded point keeps its place in the series.

Methodology
-----------
* every number is the **median of k** runs (``--repeats``) of
  ``time.perf_counter``;
* input data is deterministic (fixed seeds) — only the timings vary;
* the O(n²·w) brute-force baseline is timed on a leading slice of rows
  and extrapolated linearly (every row costs the same O(n·w), so the
  scaling is exact in expectation); entries produced that way carry
  ``"naive_estimated": true`` and the row count used;
* the scaling section runs the kernel's public anytime mode
  (``approx=``) and extrapolates by exact pair count
  (``"seconds_estimated": true``) — the O(m²) full sweep at n = 10⁶ is
  hours of serial arithmetic, but the working set peaks in the very
  first block, so the memory claim is measured, not modeled;
* the anytime section measures the ``approx=`` upper bound's real
  convergence (max/mean/p99 corr-space deviation from the exact
  profile) on a periodic fixture and on the adversarial random walk;
* the parallel section runs *full* exact sweeps serially and with
  ``jobs=N`` and asserts the profiles and indices bit-identical; the
  measured speedup is reported next to a critical-path model over the
  shard pair counts plus ``cpu_count``, because a container with fewer
  cores than ``jobs`` measures ~1x no matter how good the sharding is.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
import tracemalloc
from statistics import median
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "run_bench",
    "format_bench",
    "write_bench",
    "TRAJECTORY",
    "BENCH_LABEL",
    "DEFAULT_OUT",
    "SECTIONS",
]

# the perf-trajectory counter: bump it when a PR records a new point.
# Output names and report labels derive from it, so README/CLI help
# never drift from the actual file written.
TRAJECTORY = 10
BENCH_LABEL = f"BENCH_{TRAJECTORY}"
DEFAULT_OUT = os.path.join("benchmarks", "perf", f"{BENCH_LABEL}.json")

_FULL_SIZES = (2_000, 5_000, 10_000, 20_000)
_QUICK_SIZES = (2_048, 8_192)
_FULL_W = 100
_QUICK_W = 64
_SEED = 7
# brute-force rows timed per kernel size before extrapolating
_NAIVE_ROWS = 256

_SCALING_SIZES = (100_000, 500_000, 1_000_000)
_SCALING_QUICK_SIZES = (100_000,)
_SCALING_W = 100
# end-to-end peak target: series, stats and the sweep's scratch together
_SCALING_TARGET_BYTES = 256 << 20
_SCALING_PAIR_CAP = 150_000_000
_SCALING_QUICK_PAIR_CAP = 30_000_000

# anytime: fixtures where the leading-diagonal upper bound is measured
# against the exact profile.  The top fraction stays a hair under 10%
# because the kernel rounds coverage UP to whole 128-diagonal blocks —
# requesting exactly 0.10 can sweep 10.03% of the pairs, which would
# make the "within 10% of the pair budget" claim false by rounding.
_ANYTIME_N = 100_000
_ANYTIME_QUICK_N = 20_000
_ANYTIME_W = 100
_ANYTIME_PERIOD = 150
_ANYTIME_FRACTIONS = (0.01, 0.02, 0.05, 0.098)
_ANYTIME_QUICK_FRACTIONS = (0.05, 0.098)

# parallel: (n, jobs-to-measure) cases.  Every case runs the FULL exact
# sweep — once serial, once per jobs value — with indices, and asserts
# bit identity; repeats stay at 1 because each run is minutes long.
# jobs=2 is only exercised at the affordable size; at n = 10⁶ the
# serial + jobs=4 pair alone is the better part of a core-day.
_PARALLEL_CASES = ((200_000, (2, 4)), (1_000_000, (4,)))
_PARALLEL_QUICK_CASES = ((50_000, (2,)),)
_PARALLEL_W = 100

# obs: rounds of paired (bare, disabled, enabled) calls, each round
# giving every variant at least three calls and about this much time
_OBS_ROUNDS = 12
_OBS_ROUND_SECONDS = 0.15

# drift: DriftSimConfig fields of the quick ablation (full runs use the
# config's defaults)
_DRIFT_QUICK_CONFIG = {"n": 2400, "per_kind": 1, "stationary": 2}


# Every multi-repeat timing feeds its raw runs here; run_bench distils
# them into the host block's timing_noise_pct — the per-host allowance
# `repro bench compare` uses, calibrated from this report's own spread
# instead of a guessed constant.
_NOISE_LOG: "list[list[float]]" = []


def _timed_runs(fn, repeats: int) -> "tuple[float, list[float]]":
    runs = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    if len(runs) > 1:
        _NOISE_LOG.append(list(runs))
    return float(median(runs)), runs


def _timed(fn, repeats: int) -> float:
    return _timed_runs(fn, repeats)[0]


def _timing_noise_pct() -> float | None:
    """p90 of |run/median − 1| across every multi-repeat timing (%)."""
    deviations: "list[float]" = []
    for runs in _NOISE_LOG:
        mid = median(runs)
        if mid <= 0:
            continue
        deviations.extend(abs(run / mid - 1.0) * 100.0 for run in runs)
    if not deviations:
        return None
    deviations.sort()
    return float(deviations[int(0.9 * (len(deviations) - 1))])


def _host_block() -> dict:
    """The uniform per-report host identity ``bench compare`` keys on."""
    from .detectors import native

    overrides = {
        key: os.environ[key]
        for key in sorted(os.environ)
        if key.startswith("REPRO_")
    }
    host = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernel_backend": native.backend(),
        "env_overrides": overrides,
        "timing_noise_pct": None,  # filled after the sections ran
    }
    simd = native.simd()
    if simd is not None:
        host["kernel_simd"] = simd
    return host


def _walk(n: int, seed: int = _SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0.0, 1.0, n))


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator / denominator) if denominator > 0 else float("inf")


# ---------------------------------------------------------------------------
# kernel: mpx next to the brute-force oracle


def _run_kernel(quick, repeats, w):
    from .detectors import matrix_profile
    from .detectors.reference import naive_profile

    results = []
    for n in _QUICK_SIZES if quick else _FULL_SIZES:
        values = _walk(n)
        num_subs = n - w + 1
        mpx, mpx_runs = _timed_runs(
            lambda: matrix_profile(values, w, with_indices=False), repeats
        )
        mpx_indexed = _timed(lambda: matrix_profile(values, w), repeats)
        rows = min(_NAIVE_ROWS, num_subs)
        naive_slice = _timed(lambda: naive_profile(values, w, row_limit=rows), 1)
        naive = naive_slice * (num_subs / rows)
        # the pairs of the self-join past the default exclusion zone w
        pairs = (num_subs - w) * (num_subs - w + 1) // 2
        results.append(
            {
                "n": n,
                "w": w,
                "num_subsequences": num_subs,
                "mpx_seconds": mpx,
                "mpx_pairs_per_second": _ratio(pairs, mpx),
                # raw repeats: `bench compare` bootstraps these so a
                # regression verdict carries a CI, not a point estimate
                "mpx_seconds_runs": [round(run, 6) for run in mpx_runs],
                "mpx_indexed_seconds": mpx_indexed,
                "naive_seconds": naive,
                "naive_rows_timed": rows,
                "naive_estimated": rows < num_subs,
                "speedup_vs_naive": _ratio(naive, mpx),
            }
        )
    checks = {"kernel_speedup_vs_naive": results[-1]["speedup_vs_naive"]}
    return {"w": w, "results": results}, checks


def _render_kernel(kernel):
    lines = [
        f"{'kernel (w=%d)' % kernel['w']:<24} {'mpx':>9} {'pairs/s':>9} "
        f"{'naive':>10} {'vs naive':>9}"
    ]
    for row in kernel["results"]:
        naive = f"{row['naive_seconds']:.2f}s" + (
            "*" if row["naive_estimated"] else ""
        )
        lines.append(
            f"  n={row['n']:<20} {row['mpx_seconds']:>8.3f}s "
            f"{row['mpx_pairs_per_second']:>9.2e} "
            f"{naive:>10} {row['speedup_vs_naive']:>8.1f}x"
        )
    if any(row["naive_estimated"] for row in kernel["results"]):
        lines.append("  (* extrapolated from a timed slice of rows)")
    return lines


# ---------------------------------------------------------------------------
# MERLIN: shared stats, exact and with early abandon


def _run_merlin(quick, repeats, w):
    from .datasets import make_taxi
    from .detectors import merlin

    taxi = make_taxi()
    values = taxi.values[:4_000] if quick else taxi.values
    min_w, max_w, num_lengths = 24, 96, 5

    exact = merlin(values, min_w, max_w, num_lengths)
    abandoned = merlin(values, min_w, max_w, num_lengths, early_abandon=True)
    # abandoning only skips lengths that cannot win, so the winner is
    # the exact search's to the last bit
    if abandoned.best != exact.best:
        raise AssertionError(
            f"MERLIN early abandon changed the winner: exact={exact.best} "
            f"abandoned={abandoned.best}"
        )

    after = _timed(lambda: merlin(values, min_w, max_w, num_lengths), repeats)
    after_abandon = _timed(
        lambda: merlin(values, min_w, max_w, num_lengths, early_abandon=True), repeats
    )
    length, location, distance = exact.best
    return {
        "series": "fig8-taxi" + ("[:4000]" if quick else ""),
        "n": int(values.size),
        "min_w": min_w,
        "max_w": max_w,
        "num_lengths": num_lengths,
        "best": {
            "length": length,
            "location": location,
            "normalized_distance": distance,
        },
        "after_seconds": after,
        "after_abandon_seconds": after_abandon,
    }, {}


def _render_merlin(merlin):
    return [
        f"MERLIN {merlin['series']} (n={merlin['n']}, "
        f"w={merlin['min_w']}..{merlin['max_w']}): "
        f"{merlin['after_seconds']:.2f}s, with early abandon "
        f"{merlin['after_abandon_seconds']:.2f}s"
    ]


# ---------------------------------------------------------------------------
# kNN: full-series and short-segment scoring


def _run_knn(quick, repeats, w):
    from .detectors import KnnDistanceDetector

    n = 4_096 if quick else 10_000
    values = _walk(n)
    train = values[: n // 3]
    detector = KnnDistanceDetector(w=w, k=1).fit(train)

    full = _timed(lambda: detector.score(values), repeats)
    # streaming shape: many short score() calls against one fitted model,
    # where the fit-time reference caches carry the cost
    segment = values[-4 * w :]
    short = _timed(lambda: detector.score(segment), repeats * 3)
    return {
        "n": n,
        "w": w,
        "k": 1,
        "train_points": int(train.size),
        "full_score_seconds": full,
        "short_segment_points": int(segment.size),
        "short_score_seconds": short,
    }, {}


def _render_knn(knn):
    return [
        f"kNN (n={knn['n']}, w={knn['w']}): full score "
        f"{knn['full_score_seconds']:.3f}s; short segment "
        f"{knn['short_score_seconds'] * 1e3:.1f}ms"
    ]


# ---------------------------------------------------------------------------
# one-liner primitives: O(n) sliding extrema


def _run_oneliner(quick, repeats, w):
    from .oneliner.primitives import movmax

    n = 50_000 if quick else 200_000
    k = 480  # Table-1 sweeps reach windows this long
    values = _walk(n)
    seconds = _timed(lambda: movmax(values, k), repeats)
    return {"n": n, "k": k, "movmax_seconds": seconds}, {}


def _render_oneliner(oneliner):
    return [
        f"movmax (n={oneliner['n']}, k={oneliner['k']}): "
        f"{oneliner['movmax_seconds']:.3f}s"
    ]


# ---------------------------------------------------------------------------
# scaling: bounded-memory profiles at 1e5..1e6 points


def _traced_peak(fn):
    """``(fn(), peak_bytes)`` with tracemalloc covering just the call."""
    already = tracemalloc.is_tracing()
    if already:
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
        return result, peak
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _scaling_case(n: int, w: int, pair_cap: int, repeats: int) -> dict:
    from .detectors import matrix_profile, native
    from .detectors.sliding import SlidingStats

    values = _walk(n)
    m = n - w + 1
    exclusion = w
    # the pair cap becomes an anytime fraction; the kernel's own
    # ApproxReport is the single source of truth for how many pairs the
    # resolved (block-rounded) coverage actually sweeps
    num_diagonals = m - exclusion
    total_pairs = num_diagonals * (num_diagonals + 1) // 2
    fraction = min(1.0, pair_cap / total_pairs)

    stats = SlidingStats(values)

    def sweep(frac: float):
        return matrix_profile(
            values, w, stats=stats, with_indices=False, approx=frac
        )

    probe = sweep(fraction)
    report = probe.report
    seconds_timed = _timed(lambda: sweep(fraction), repeats)
    estimated = not report.exact
    if estimated:
        # two-point extrapolation: a second, smaller slice isolates the
        # per-pair marginal cost from the fixed setup (stats, anchor
        # covariances, buffer allocation), which a single-slice linear
        # scale would multiply along with the sweep itself
        small = sweep(fraction / 8.0)
        pairs_small = small.report.pairs_swept
        seconds_small = _timed(lambda: sweep(fraction / 8.0), repeats)
        per_pair = max(
            (seconds_timed - seconds_small)
            / max(report.pairs_swept - pairs_small, 1),
            0.0,
        )
        seconds = seconds_timed + per_pair * (
            total_pairs - report.pairs_swept
        )
    else:
        seconds = seconds_timed

    # measured peak of the whole pipeline (stats + kernel stats + sweep),
    # in a fresh untraced-data pass so only this case's allocations count
    measured_run, peak = _traced_peak(
        lambda: matrix_profile(values, w, with_indices=False, approx=fraction)
    )
    return {
        "n": n,
        "w": w,
        "num_subsequences": m,
        "backend": native.backend(),
        "measured_workspace_bytes": int(measured_run.workspace_bytes),
        "tracemalloc_peak_bytes": int(peak),
        "series_bytes": int(values.nbytes),
        "seconds": float(seconds),
        "seconds_timed": float(seconds_timed),
        "seconds_estimated": estimated,
        "approx_fraction": float(fraction),
        "diagonals_timed": int(report.diagonals_swept),
        "diagonals_total": int(report.diagonals_total),
        "pairs_timed": int(report.pairs_swept),
        "pairs_total": int(report.pairs_total),
    }


def _run_scaling(quick, repeats, w):
    sizes = _SCALING_QUICK_SIZES if quick else _SCALING_SIZES
    pair_cap = _SCALING_QUICK_PAIR_CAP if quick else _SCALING_PAIR_CAP
    try:
        import resource

        ru_maxrss_kb = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        ru_maxrss_kb = None
    results = [
        _scaling_case(n, _SCALING_W, pair_cap, repeats) for n in sizes
    ]
    top = results[-1]
    checks = {
        "scaling_peak_bytes": top["tracemalloc_peak_bytes"],
        "scaling_within_target": bool(
            top["tracemalloc_peak_bytes"] + top["series_bytes"]
            <= _SCALING_TARGET_BYTES
        ),
    }
    return {
        "w": _SCALING_W,
        "target_peak_bytes": _SCALING_TARGET_BYTES,
        "ru_maxrss_kb_before": ru_maxrss_kb,
        "results": results,
    }, checks


def _render_scaling(scaling):
    mib = 1 << 20
    lines = [
        f"scaling (w={scaling['w']}, end-to-end target "
        f"{scaling['target_peak_bytes'] // mib}MiB)"
    ]
    for row in scaling["results"]:
        seconds = f"{row['seconds']:.1f}s" + (
            "*" if row["seconds_estimated"] else ""
        )
        lines.append(
            f"  n={row['n']:<9} {row['backend']:<9} workspace "
            f"{row['measured_workspace_bytes'] // mib}MiB  "
            f"peak {row['tracemalloc_peak_bytes'] // mib}MiB  {seconds}"
        )
    if any(row["seconds_estimated"] for row in scaling["results"]):
        lines.append(
            "  (* extrapolated by pair count from a timed slice of "
            "diagonals)"
        )
    return lines


# ---------------------------------------------------------------------------
# anytime: measured convergence of the approx= leading-diagonal bound


def _anytime_fixtures(n: int) -> dict:
    rng = np.random.default_rng(_SEED)
    periodic = np.sin(
        2 * np.pi * np.arange(n) / _ANYTIME_PERIOD
    ) + 0.05 * rng.standard_normal(n)
    return {"periodic": periodic, "walk": _walk(n)}


def _run_anytime(quick, repeats, w):
    """Measure how fast the ``approx=`` upper bound approaches exact.

    The anytime mode guarantees an upper bound on every distance; how
    *tight* the bound is at a given pair budget is a data property, not
    a contract.  Two fixtures bracket it: a noisy periodic signal — the
    shape the bound is good at, because every subsequence has a near
    neighbour a few periods away, i.e. on a leading diagonal — and the
    random walk, the honest adversarial case whose true nearest
    neighbours sit on arbitrary diagonals.  Deviations are reported in
    correlation space (``dev = (d_approx² − d_exact²) / 2w``), the same
    space as the kernel's 1e-8 numerical contract.  Within a fixture
    the rows must be pointwise monotone: the coverage grids are nested
    prefixes, so a larger fraction can never loosen the bound — that
    and the bound itself are asserted, not just reported.
    """
    from .detectors import matrix_profile
    from .detectors.sliding import SlidingStats

    n = _ANYTIME_QUICK_N if quick else _ANYTIME_N
    w = _ANYTIME_W
    fractions = _ANYTIME_QUICK_FRACTIONS if quick else _ANYTIME_FRACTIONS
    fixtures = []
    for name, values in _anytime_fixtures(n).items():
        stats = SlidingStats(values)
        start = time.perf_counter()
        exact = matrix_profile(values, w, stats=stats, with_indices=False)
        exact_seconds = time.perf_counter() - start
        exact_discord = int(np.argmax(exact.profile))
        rows = []
        previous = None
        for fraction in fractions:
            start = time.perf_counter()
            result = matrix_profile(
                values, w, stats=stats, with_indices=False, approx=fraction
            )
            seconds = time.perf_counter() - start
            report = result.report
            # exact arithmetic, not a tolerance: the bound keeps the
            # best-so-far of a *subset* of the same float candidates
            dev = (result.profile**2 - exact.profile**2) / (2.0 * w)
            if float(dev.min()) < 0.0:
                raise AssertionError(
                    f"anytime bound violated on {name} at "
                    f"fraction={fraction}: min dev {dev.min():.3e}"
                )
            if previous is not None and np.any(result.profile > previous):
                raise AssertionError(
                    f"anytime bound loosened on {name} between nested "
                    f"fractions at fraction={fraction}"
                )
            previous = result.profile
            rows.append(
                {
                    "fraction": float(fraction),
                    "fraction_swept": float(report.fraction_swept),
                    "pairs_swept": int(report.pairs_swept),
                    "pairs_total": int(report.pairs_total),
                    "diagonals_swept": int(report.diagonals_swept),
                    "diagonals_total": int(report.diagonals_total),
                    "seconds": float(seconds),
                    "max_dev": float(dev.max()),
                    "mean_dev": float(dev.mean()),
                    "p99_dev": float(np.quantile(dev, 0.99)),
                    "discord_match": bool(
                        int(np.argmax(result.profile)) == exact_discord
                    ),
                }
            )
        fixtures.append(
            {
                "fixture": name,
                "exact_seconds": float(exact_seconds),
                "results": rows,
            }
        )
    # the bound/monotonicity properties raised above if they failed on
    # any fixture, so reaching this line means they held
    checks = {"anytime_bound_held": True}
    # the headline claim: on the periodic fixture, the bound is within
    # 1e-3 mean corr-space deviation inside 10% of the pair budget.
    # Judged on fraction_swept (what actually ran, after block
    # rounding), not on the requested fraction.
    periodic = next(f for f in fixtures if f["fixture"] == "periodic")
    in_budget = [
        row for row in periodic["results"] if row["fraction_swept"] <= 0.10
    ]
    best = min(in_budget, key=lambda row: row["mean_dev"], default=None)
    if best is not None:
        checks["anytime_mean_dev"] = best["mean_dev"]
        checks["anytime_fraction_swept"] = best["fraction_swept"]
        checks["anytime_converged"] = bool(best["mean_dev"] <= 1e-3)
    return {
        "n": n,
        "w": w,
        "fractions": [float(f) for f in fractions],
        "fixtures": fixtures,
    }, checks


def _render_anytime(anytime):
    lines = [
        f"anytime (n={anytime['n']}, w={anytime['w']}): corr-space "
        f"deviation of the approx= upper bound"
    ]
    for fixture in anytime["fixtures"]:
        lines.append(
            f"  {fixture['fixture']:<9} exact "
            f"{fixture['exact_seconds']:.1f}s"
        )
        for row in fixture["results"]:
            mark = "=" if row["discord_match"] else " "
            lines.append(
                f"    {row['fraction_swept']:>6.1%} of pairs  "
                f"{row['seconds']:>6.2f}s  mean {row['mean_dev']:.1e}  "
                f"p99 {row['p99_dev']:.1e}  max {row['max_dev']:.1e}  "
                f"discord{mark}"
            )
    return lines


# ---------------------------------------------------------------------------
# parallel: sharded sweeps must be bit-identical, and fast where cores exist


def _parallel_model(shard_pairs, jobs: int) -> float:
    """Critical-path speedup over the shard pair counts.

    List-schedules shards in submission order onto the earliest-free
    thread — the order the pool dispatches them — and divides total
    pair work by the longest thread's share.  This is the arithmetic
    ceiling: it ignores thread start-up, the shared inputs computed
    before the shards and the merge, so measured speedups approach it
    from below as cores allow.
    """
    free = [0] * max(1, int(jobs))
    for pairs in shard_pairs:
        worker = min(range(len(free)), key=free.__getitem__)
        free[worker] += pairs
    return _ratio(sum(shard_pairs), max(free))


def _run_parallel(quick, repeats, w):
    """Full exact sweeps, serial vs ``jobs=N``, identity asserted.

    Every case runs the complete profile with indices — no slices, no
    extrapolation — once serially and once per jobs value, and raises
    if a single bit of either array differs.  ``speedup_measured`` is
    the honest wall-clock ratio on *this* host; ``speedup_modeled`` is
    the shard-plan critical path, which is what a host with >= jobs
    idle cores would approach.  ``cpu_count`` is recorded so the two
    can be read together: on a 1-core container the measured ratio
    hovers near 1x however good the sharding is.
    """
    from .detectors import matrix_profile, plan_shards

    w = _PARALLEL_W
    results = []
    for n, jobs_list in _PARALLEL_QUICK_CASES if quick else _PARALLEL_CASES:
        values = _walk(n)
        m = n - w + 1
        shards = plan_shards(m, w)
        # diagonal d holds m - d pairs, so shard [lo, hi) holds the
        # arithmetic series (hi-lo)(2m - lo - hi + 1)/2 of them
        shard_pairs = [
            (hi - lo) * (2 * m - lo - hi + 1) // 2 for lo, hi in shards
        ]
        start = time.perf_counter()
        serial = matrix_profile(values, w)
        serial_seconds = time.perf_counter() - start
        row = {
            "n": n,
            "w": w,
            "shards": len(shards),
            "pairs_total": int(sum(shard_pairs)),
            "serial_seconds": float(serial_seconds),
            "serial_workspace_bytes": int(serial.workspace_bytes),
            "runs": [],
        }
        for jobs in jobs_list:
            start = time.perf_counter()
            sharded = matrix_profile(values, w, jobs=jobs)
            seconds = time.perf_counter() - start
            if not (
                np.array_equal(serial.profile, sharded.profile)
                and np.array_equal(serial.indices, sharded.indices)
            ):
                raise AssertionError(
                    f"jobs={jobs} diverged from the serial sweep at n={n}"
                )
            if sharded.shards != len(shards):
                raise AssertionError(
                    f"shard plan changed under jobs={jobs} at n={n}: "
                    f"{sharded.shards} != {len(shards)}"
                )
            row["runs"].append(
                {
                    "jobs": int(jobs),
                    "seconds": float(seconds),
                    "worker_workspace_bytes": int(sharded.workspace_bytes),
                    "speedup_measured": _ratio(serial_seconds, seconds),
                    "speedup_modeled": float(
                        _parallel_model(shard_pairs, jobs)
                    ),
                    "identical": True,
                }
            )
        results.append(row)
    cores = os.cpu_count()
    top = results[-1]
    run = top["runs"][-1]
    # the headline target is >= 3x at jobs=4, i.e. 75% parallel
    # efficiency — scaled by jobs so a 2-worker quick run is judged
    # against 1.5x, not an unreachable 3x.  A host with fewer cores than
    # jobs cannot measure any speedup; there the modeled critical path
    # is the honest judgement, and cpu_count says which case this is.
    target = 0.75 * run["jobs"]
    checks = {
        "parallel_identical": True,  # asserted per run above
        "parallel_n": top["n"],
        "parallel_jobs": run["jobs"],
        "parallel_speedup_measured": run["speedup_measured"],
        "parallel_speedup_modeled": run["speedup_modeled"],
        "parallel_speedup_target": target,
        "parallel_speedup_ok": bool(
            run["speedup_measured"] >= target
            if (cores or 1) >= run["jobs"]
            else run["speedup_modeled"] >= target
        ),
    }
    return {"w": w, "cpu_count": cores, "results": results}, checks


def _render_parallel(parallel):
    lines = [
        f"parallel (w={parallel['w']}, {parallel['cpu_count']} cpu(s)): "
        f"full exact sweeps, bit-identity asserted"
    ]
    for row in parallel["results"]:
        lines.append(
            f"  n={row['n']:<9} serial {row['serial_seconds']:.1f}s "
            f"({row['shards']} shards)"
        )
        for run in row["runs"]:
            lines.append(
                f"    jobs={run['jobs']}  {run['seconds']:>8.1f}s  "
                f"{run['speedup_measured']:.2f}x measured, "
                f"{run['speedup_modeled']:.2f}x critical-path model"
            )
    return lines


# ---------------------------------------------------------------------------
# streaming: incremental matrix profile appends + replay throughput

_STREAMING_BOUNDED_HISTORY = 2_048
_STREAMING_QUICK_BOUNDED_HISTORY = 1_024


def _run_streaming(quick, repeats, w):
    from .detectors import matrix_profile
    from .stream import StreamingMatrixProfile, replay
    from .types import LabeledSeries, Labels

    sizes = (2_000, 8_000) if quick else (4_000, 16_000)
    history = (
        _STREAMING_QUICK_BOUNDED_HISTORY
        if quick
        else _STREAMING_BOUNDED_HISTORY
    )
    results = []
    for n in sizes:
        values = _walk(n)

        streamed = {}

        def stream_unbounded():
            profile = StreamingMatrixProfile(w)
            profile.append(values)
            streamed["profile"] = profile
            return profile

        def stream_bounded():
            profile = StreamingMatrixProfile(w, max_history=history)
            profile.append(values)
            profile.drain_egress()
            return profile

        seconds = _timed(stream_unbounded, repeats)
        bounded_seconds = _timed(stream_bounded, repeats)
        batch = {}

        def batch_profile():
            batch["result"] = matrix_profile(values, w, with_indices=False)
            return batch["result"]

        batch_seconds = _timed(batch_profile, repeats)
        # parity: streaming vs batch are two *independently* approximate
        # kernels, each within 1e-8 of truth in correlation space, so
        # their mutual divergence can legitimately reach twice the
        # single-kernel contract; the timed closures already produced
        # both profiles
        got = streamed["profile"].profile()
        expected = batch["result"].profile
        finite = np.isfinite(expected)
        if not np.array_equal(np.isinf(got), np.isinf(expected)):
            raise AssertionError(
                f"streaming profile inf pattern diverged at n={n}"
            )
        parity = (
            float(np.abs(got[finite] ** 2 - expected[finite] ** 2).max())
            if finite.any()
            else 0.0
        )
        if parity > 4.0 * w * 1e-8:
            raise AssertionError(
                f"streaming profile outside twice the correlation-space "
                f"contract at n={n}: sq err {parity:.3e}"
            )
        results.append(
            {
                "n": n,
                "w": w,
                "seconds": seconds,
                "per_append_us": 1e6 * seconds / n,
                "bounded_history": history,
                "bounded_seconds": bounded_seconds,
                "bounded_per_append_us": 1e6 * bounded_seconds / n,
                "batch_seconds": batch_seconds,
                "stream_vs_batch": _ratio(seconds, batch_seconds),
                "parity_max_sq_err": parity,
            }
        )

    # replay throughput: a registry detector streamed through the
    # generic adapter in micro-batches over a bounded window
    n = 4_000
    rng = np.random.default_rng(_SEED)
    values = np.sin(2 * np.pi * np.arange(n) / 160) + 0.05 * rng.standard_normal(n)
    start = 3 * n // 4
    values[start : start + 8] += 10.0
    series = LabeledSeries(
        "bench-replay",
        values,
        Labels.single(n, start, start + 8),
        train_len=n // 4,
    )
    batch_size, replay_window = 64, 512
    replayed = {}

    def run_replay():
        replayed["trace"] = replay(
            series, "diff", batch_size=batch_size, window=replay_window
        )
        return replayed["trace"]

    replay_seconds = _timed(run_replay, repeats)
    trace = replayed["trace"]
    points_streamed = n - series.train_len
    # sub-linear claim: the bounded-history per-append cost must not
    # track the stream length the way the unbounded cost does
    size_ratio = results[-1]["n"] / results[0]["n"]
    cost_ratio = _ratio(
        results[-1]["bounded_per_append_us"],
        results[0]["bounded_per_append_us"],
    )
    checks = {
        "streaming_parity_sq_err": max(
            row["parity_max_sq_err"] for row in results
        ),
        "streaming_size_ratio": size_ratio,
        "streaming_bounded_cost_ratio": cost_ratio,
        "streaming_bounded_sublinear": bool(cost_ratio < size_ratio),
    }
    return {
        "w": w,
        "results": results,
        "replay": {
            "detector": "diff",
            "n": n,
            "batch_size": batch_size,
            "window": replay_window,
            "points_streamed": points_streamed,
            "seconds": replay_seconds,
            "points_per_second": _ratio(points_streamed, replay_seconds),
            "correct": trace.correct,
            "delay": trace.delay,
        },
    }, checks


def _render_streaming(streaming):
    lines = [
        f"{'streaming (w=%d)' % streaming['w']:<24} "
        f"{'append':>10} {'bounded':>10} {'batch':>9} {'parity':>10}"
    ]
    for row in streaming["results"]:
        lines.append(
            f"  n={row['n']:<20} {row['per_append_us']:>8.1f}us "
            f"{row['bounded_per_append_us']:>8.1f}us "
            f"{row['batch_seconds']:>8.3f}s "
            f"{row['parity_max_sq_err']:>10.1e}"
        )
    replay = streaming.get("replay")
    if replay:
        lines.append(
            f"  replay {replay['detector']} (n={replay['n']}, batch "
            f"{replay['batch_size']}, window {replay['window']}): "
            f"{replay['points_per_second']:.0f} points/s, "
            f"delay {replay['delay']}"
        )
    return lines


# ---------------------------------------------------------------------------
# obs: what the instrumentation itself costs


def _run_obs(quick, repeats, w):
    """Price the telemetry layer on the kernel hot path.

    Three timings of the same profile: the sweep+finalize pipeline with
    no telemetry calls at all (``bare``, through the same sweep
    dispatcher, so both sides run one kernel backend), through
    :func:`matrix_profile` with the shipped *disabled* tracer
    (``disabled`` — the default every untraced run pays), and inside an
    enabled tracing session (``enabled`` — what ``--trace`` costs).
    The three run call by call in rounds; each round gives one paired
    disabled/bare sample, and ``disabled_overhead_pct`` is their mean
    with a bootstrap interval (:func:`repro.stats.bootstrap_ci`).
    The advisory ``obs_disabled_overhead_ok`` check holds when the
    interval's upper bound is under 5%: instrumentation must stay
    within a few percent when nobody asked for it.  Span and counter
    microbenchmarks give the per-operation prices behind those totals.
    """
    from .detectors import matrix_profile
    from .detectors.matrix_profile import _finalize, _sweep, _validated
    from .detectors.sliding import SlidingStats
    from .obs import MetricsRegistry, Tracer, tracing_session
    from .stats import bootstrap_ci

    n = 8_192 if quick else 20_000
    values = _walk(n)
    stats = SlidingStats(values)
    rounds = max(repeats, _OBS_ROUNDS)

    def bare():
        s, exclusion = _validated(values, w, None, stats)
        mean, inv, constant = s.kernel_stats(w)
        best, bestj, _ = _sweep(
            s.shifted, w, exclusion, mean, inv, need_indices=False
        )
        return _finalize(best, bestj, w, exclusion, constant)

    def disabled():
        return matrix_profile(values, w, stats=stats, with_indices=False)

    def enabled():
        with tracing_session():
            return matrix_profile(values, w, stats=stats, with_indices=False)

    # warm every variant once first: the first sweep of the session pays
    # allocator/cache warmup that would otherwise be billed to whichever
    # variant happens to run first
    start = time.perf_counter()
    profile = bare()[0]
    warm = time.perf_counter() - start
    calls = max(3, math.ceil(_OBS_ROUND_SECONDS / warm))
    if not np.array_equal(profile, disabled().profile):
        raise AssertionError("instrumented kernel changed the profile")
    enabled()

    # a round is `calls` cycles of the three variants, one call each,
    # and its sample is the median over its cycles of the adjacent
    # calls' ratio: on a shared host the speed of a core can change
    # between calls (by a third, on a 2-vCPU VM), and only a cycle that
    # straddles such a change skews its ratio, which the median drops.
    # Every other cycle runs in reverse, so no variant always goes first.
    variants = (("bare", bare), ("disabled", disabled), ("enabled", enabled))
    runs: dict[str, list[float]] = {label: [] for label, _ in variants}
    disabled_pct, enabled_pct = [], []
    for _ in range(rounds):
        cycles: dict[str, list[float]] = {label: [] for label in runs}
        for cycle in range(calls):
            for label, fn in variants[:: 1 if cycle % 2 else -1]:
                start = time.perf_counter()
                fn()
                cycles[label].append(time.perf_counter() - start)
        bare_cycles = np.array(cycles["bare"])
        for label, pct in (("disabled", disabled_pct),
                           ("enabled", enabled_pct)):
            ratio = np.median(np.array(cycles[label]) / bare_cycles)
            pct.append(100.0 * (float(ratio) - 1.0))
        for label in runs:
            runs[label].extend(cycles[label])
    interval = bootstrap_ci(disabled_pct, seed=_SEED, stream=("bench.obs",))

    iters = 20_000 if quick else 100_000
    off = Tracer(enabled=False)

    def spans_disabled():
        for _ in range(iters):
            with off.span("bench.noop"):
                pass

    def spans_enabled():
        tracer = Tracer(enabled=True)
        for _ in range(iters):
            with tracer.span("bench.noop"):
                pass

    counter = MetricsRegistry().counter("bench_counter")

    def counter_incs():
        for _ in range(iters):
            counter.inc()

    span_disabled = _timed(spans_disabled, repeats)
    span_enabled = _timed(spans_enabled, repeats)
    counter_inc = _timed(counter_incs, repeats)
    return {
        "n": n,
        "w": w,
        "rounds": rounds,
        "calls_per_round": calls,
        "kernel_bare_seconds": float(median(runs["bare"])),
        "kernel_disabled_seconds": float(median(runs["disabled"])),
        "kernel_enabled_seconds": float(median(runs["enabled"])),
        "disabled_overhead_pct": interval.mean,
        "disabled_overhead_ci_pct": {"lo": interval.lo, "hi": interval.hi},
        "disabled_overhead_pct_runs": [
            round(pct, 3) for pct in disabled_pct
        ],
        "enabled_overhead_pct": float(np.mean(enabled_pct)),
        "span_iters": iters,
        "span_disabled_ns": 1e9 * span_disabled / iters,
        "span_enabled_ns": 1e9 * span_enabled / iters,
        "counter_inc_ns": 1e9 * counter_inc / iters,
    }, {
        # advisory: disabled instrumentation must stay within a few
        # percent of the bare kernel, at the upper end of the interval
        "obs_disabled_overhead_pct": interval.mean,
        "obs_disabled_overhead_hi_pct": interval.hi,
        "obs_disabled_overhead_ok": bool(interval.hi < 5.0),
    }


def _render_obs(obs):
    return [
        f"obs (kernel n={obs['n']}, w={obs['w']}): bare "
        f"{obs['kernel_bare_seconds']:.3f}s, disabled tracer "
        f"{obs['kernel_disabled_seconds']:.3f}s "
        f"({obs['disabled_overhead_pct']:+.1f}%, 95% interval "
        f"{obs['disabled_overhead_ci_pct']['lo']:+.1f}% to "
        f"{obs['disabled_overhead_ci_pct']['hi']:+.1f}% over "
        f"{obs['rounds']} rounds), enabled "
        f"{obs['kernel_enabled_seconds']:.3f}s "
        f"({obs['enabled_overhead_pct']:+.1f}%)",
        f"  span disabled {obs['span_disabled_ns']:.0f}ns, enabled "
        f"{obs['span_enabled_ns']:.0f}ns, counter inc "
        f"{obs['counter_inc_ns']:.0f}ns",
    ]


# ---------------------------------------------------------------------------
# watch: what self-monitoring costs, and that it actually alarms


def _run_watch(quick, repeats, w):
    """Price the watch layer and prove its alerting contract.

    Three measurements: (1) the cost of one watch tick — evaluate the
    stock rules against a serve-shaped registry's current values — on
    a deterministic schedule; (2) the idle overhead a background
    watcher imposes on the kernel hot path, measured round-robin like
    the obs section so host drift cannot masquerade as overhead; and
    (3) a scripted queue-saturation scenario asserting the default
    rule fires after its debounce and never before — the determinism
    claim, re-proven on every trajectory point.
    """
    import threading

    from .detectors import matrix_profile
    from .obs import AlertManager, MetricsRegistry
    from .serve.shard import default_watch_rules

    def serve_shaped_registry() -> MetricsRegistry:
        registry = MetricsRegistry()
        for index in range(8):
            tenant = f"t{index:03d}"
            registry.counter("serve_points_ingested", tenant=tenant).inc(100)
            registry.counter("serve_append_batches", tenant=tenant).inc(10)
            registry.counter("serve_rejected", tenant=tenant).inc(0)
            histogram = registry.histogram(
                "serve_append_seconds", tenant=tenant
            )
            for step in range(32):
                histogram.observe(0.0005 * (step + 1))
        for shard in range(4):
            registry.gauge("serve_queue_depth", shard=f"shard-{shard}").set(3)
        return registry

    # -- 1) tick cost on a deterministic schedule ---------------------
    iters = 200 if quick else 1_000
    reps = max(repeats, 3)

    def run_ticks() -> None:
        manager = AlertManager(
            serve_shaped_registry(), default_watch_rules(1024)
        )
        for tick in range(iters):
            manager.evaluate(now=float(tick))

    tick_seconds, tick_runs = _timed_runs(run_ticks, reps)
    tick_us = 1e6 * tick_seconds / iters

    # -- 2) idle overhead on the kernel hot path ----------------------
    n = 8_192 if quick else 20_000
    values = _walk(n)
    # 20 ticks/s is already ~100x denser than a real scrape interval;
    # it stresses the hot path without manufacturing GIL contention a
    # deployment would never see
    watch_interval = 0.05

    def kernel():
        return matrix_profile(values, w, with_indices=False)

    watched_manager = AlertManager(
        serve_shaped_registry(), default_watch_rules(1024)
    )
    kernel()  # warm caches before either variant is billed
    runs: "dict[str, list[float]]" = {"off": [], "watched": []}
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        runs["off"].append(time.perf_counter() - start)
        stop = threading.Event()

        def watcher() -> None:
            while not stop.wait(watch_interval):
                watched_manager.evaluate()

        thread = threading.Thread(target=watcher, daemon=True)
        thread.start()
        try:
            start = time.perf_counter()
            kernel()
            runs["watched"].append(time.perf_counter() - start)
        finally:
            stop.set()
            thread.join()
    off_seconds = float(median(runs["off"]))
    watched_seconds = float(median(runs["watched"]))
    _NOISE_LOG.append(list(runs["off"]))
    _NOISE_LOG.append(list(runs["watched"]))

    # -- 3) scripted saturation scenario ------------------------------
    scenario_registry = MetricsRegistry()
    depth = scenario_registry.gauge("serve_queue_depth", shard="shard-0")
    scenario = AlertManager(scenario_registry, default_watch_rules(100))
    false_firings = 0
    fired_at = None
    timeline = [10.0] * 5 + [95.0] * 3  # steady state, then saturation
    injection_tick = 5
    for tick, value in enumerate(timeline):
        depth.set(value)
        for transition in scenario.evaluate(now=float(tick)):
            if transition["to"] != "firing":
                continue
            if tick < injection_tick:
                false_firings += 1
            elif fired_at is None:
                fired_at = tick
    idle_overhead = 100.0 * (_ratio(watched_seconds, off_seconds) - 1.0)
    return {
        "n": n,
        "w": w,
        "tick_iters": iters,
        "tick_us": tick_us,
        "tick_us_runs": [
            round(1e6 * run / iters, 3) for run in tick_runs
        ],
        "rules": [status.rule.name for status in scenario.statuses()],
        "watch_interval_seconds": watch_interval,
        "kernel_off_seconds": off_seconds,
        "kernel_watched_seconds": watched_seconds,
        "idle_overhead_pct": idle_overhead,
        "saturation": {
            "timeline": timeline,
            "injection_tick": injection_tick,
            "fired_at_tick": fired_at,
            "false_firings": false_firings,
        },
    }, {
        "watch_tick_us": tick_us,
        # advisory, mirroring the obs gate: a sleeping watcher thread
        # must not tax the kernel hot path beyond timing noise
        "watch_idle_overhead_pct": idle_overhead,
        "watch_idle_overhead_ok": bool(idle_overhead < 5.0),
        "watch_saturation_fires": fired_at is not None,
        "watch_false_firings": false_firings,
    }


def _render_watch(watch):
    saturation = watch["saturation"]
    fired = (
        "never fired"
        if saturation["fired_at_tick"] is None
        else f"fired at tick {saturation['fired_at_tick']}"
    )
    return [
        f"watch ({len(watch['rules'])} rules): tick "
        f"{watch['tick_us']:.0f}us, "
        f"kernel idle overhead {watch['idle_overhead_pct']:+.1f}% "
        f"(n={watch['n']})",
        f"  saturation scenario: {fired} (injected at tick "
        f"{saturation['injection_tick']}), "
        f"{saturation['false_firings']} false firings",
    ]


# ---------------------------------------------------------------------------
# drift: the refit-policy trade-off under concept drift


def _run_drift(quick, repeats, w):
    """Record the drift ablation as this trajectory's measured point.

    Replays the drift scenarios (step/ramp/variance/period regime
    changes plus stationary controls) through raw-distance kNN under
    the default refit-policy line-up (never / fixed cadence /
    drift-triggered / hybrid) and reports the delay-aware trade-off —
    see :mod:`repro.drift.ablation`.  The headline check is that a
    triggered policy beats the fixed cadence on delay-aware accuracy
    while staying quiet on the stationary controls.
    """
    from .drift import DriftSimConfig, drift_ablation

    config = DriftSimConfig(**_DRIFT_QUICK_CONFIG) if quick else DriftSimConfig()
    start = time.perf_counter()
    result = drift_ablation(config=config)
    result["seconds"] = time.perf_counter() - start
    rows = result["policies"]
    fixed_acc = rows["fixed"]["delay_accuracy"]
    triggered = {key: rows[key] for key in ("drift", "hybrid") if key in rows}
    best_key = max(triggered, key=lambda key: triggered[key]["delay_accuracy"])
    best_acc = triggered[best_key]["delay_accuracy"]
    # false-alarm axis, mirroring the property-test bound: the
    # season-matched trigger detector must stay (near) silent on the
    # stationary controls
    stationary_triggers = int(
        sum(row["stationary"]["triggers"] for row in triggered.values())
    )
    return result, {
        "drift_fixed_delay_accuracy": fixed_acc,
        "drift_best_triggered": best_key,
        "drift_triggered_delay_accuracy": best_acc,
        "drift_triggered_beats_fixed": bool(best_acc > fixed_acc),
        "drift_stationary_triggers": stationary_triggers,
        "drift_stationary_quiet": bool(stationary_triggers <= 1),
    }


def _render_drift(drift):
    from .drift import format_drift_ablation

    return [format_drift_ablation(drift)]


# ---------------------------------------------------------------------------
# harness


class _Section(NamedTuple):
    """One bench section: ``run(quick, repeats, w)`` returns
    ``(payload, checks)``; ``render(payload)`` its text lines."""

    name: str
    run: Callable[..., tuple[dict, dict]]
    render: Callable[[dict], list[str]]


# report order: sections run, land in the report and render in this order
_TABLE = (
    _Section("kernel", _run_kernel, _render_kernel),
    _Section("merlin", _run_merlin, _render_merlin),
    _Section("knn", _run_knn, _render_knn),
    _Section("oneliner", _run_oneliner, _render_oneliner),
    _Section("scaling", _run_scaling, _render_scaling),
    _Section("streaming", _run_streaming, _render_streaming),
    _Section("obs", _run_obs, _render_obs),
    _Section("watch", _run_watch, _render_watch),
    _Section("anytime", _run_anytime, _render_anytime),
    _Section("parallel", _run_parallel, _render_parallel),
    _Section("drift", _run_drift, _render_drift),
)
SECTIONS = tuple(section.name for section in _TABLE)


def run_bench(
    quick: bool = False,
    repeats: int | None = None,
    sections: tuple[str, ...] | None = None,
) -> dict:
    """Run the selected sections and return the machine-readable report.

    Sections run in table order (see ``SECTIONS``) whatever order
    ``sections`` names them in.
    """
    chosen = SECTIONS if sections is None else tuple(sections)
    unknown = set(chosen) - set(SECTIONS)
    if unknown:
        raise ValueError(
            f"unknown bench sections {sorted(unknown)}; "
            f"available: {', '.join(SECTIONS)}"
        )
    if repeats is None:
        repeats = 3 if quick else 5
    w = _QUICK_W if quick else _FULL_W
    _NOISE_LOG.clear()  # host noise floor is per-report

    report: dict = {
        "schema": "repro-bench/1",
        "label": BENCH_LABEL,
        "quick": quick,
        "repeats": repeats,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "sections": {},
        "checks": {},
    }
    for section in _TABLE:
        if section.name in chosen:
            payload, checks = section.run(quick, repeats, w)
            report["sections"][section.name] = payload
            report["checks"].update(checks)
    # uniform host block: lets ``repro bench compare`` refuse cross-host
    # comparisons and scale its noise allowance to this machine's actual
    # run-to-run jitter instead of a guessed constant
    host = _host_block()
    host["timing_noise_pct"] = _timing_noise_pct()
    report["host"] = host
    return report


def write_bench(report: dict, path: str) -> str:
    """Write the report as pretty JSON, creating parent directories."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_bench(report: dict) -> str:
    """Human-readable summary of a bench report."""
    lines = [
        f"repro bench ({'quick' if report['quick'] else 'full'}, "
        f"median of {report['repeats']}) — numpy {report['env']['numpy']}, "
        f"{report['env']['cpu_count']} cpu(s)"
    ]
    for section in _TABLE:
        payload = report["sections"].get(section.name)
        if payload:
            lines.append("")
            lines.extend(section.render(payload))
    return "\n".join(lines)
