"""Statistical perf-regression gate over the committed bench trajectory.

``benchmarks/perf/BENCH_*.json`` is the repository's own longitudinal
experiment: one report per PR that recorded a point.  This module turns
that trajectory into a *gate* — the paper's discipline (claims need
uncertainty-aware comparison, not single-number eyeballing) applied to
the system's own performance claims:

* **metric extraction** flattens a report's ``sections``/``checks``
  tree into dotted paths and classifies each as lower-is-better
  (``*_seconds``, ``*_ns``, ``*_bytes``, ...), higher-is-better
  (``speedup*``, ``*_per_second``, ...) or ungated (counts, configs,
  booleans — comparing those would manufacture noise);
* **alignment** compares only paths present in both reports, so a
  section added or dropped between trajectory points never fabricates
  a regression;
* **the verdict** per metric is ``improved`` / ``within-noise`` /
  ``regressed``.  When the fresh report carries the raw repeat samples
  (``<metric>_runs``), the call is made with a
  :func:`repro.stats.bootstrap_ci` over them — a metric only counts as
  regressed when its whole confidence interval sits beyond the noise
  allowance, the same machinery the detector benchmarks use.  The
  allowance is relative (``±noise_pct`` percent of the baseline),
  except for a metric that is itself a percentage (``*_pct``, an
  overhead near zero and of either sign): there it is ``±noise_pct``
  percentage points around the baseline, and a baseline <= 0 is judged
  like any other;
* **the noise floor** is per-host: every new report's ``host`` block
  records ``timing_noise_pct`` calibrated from the bench's own repeat
  spread, and the allowance is the larger of the caller's floor and
  that measured noise.  Reports from *different* hosts are flagged
  (``host_match: false``) so strict gating can refuse to compare
  apples to oranges.

Everything is deterministic: metric order is sorted, bootstrap streams
are keyed by metric path, and the verdict artifact contains no wall
clock.
"""

from __future__ import annotations

import json
import math
import os
import re

__all__ = [
    "COMPARE_SCHEMA",
    "DEFAULT_NOISE_PCT",
    "flatten_metrics",
    "metric_direction",
    "host_block",
    "hosts_match",
    "load_trajectory",
    "latest_baseline",
    "compare_reports",
    "format_compare",
]

COMPARE_SCHEMA = "repro-bench-compare/1"

# Floor on the relative-change allowance (percent).  Single-digit
# wall-clock swings between runs on a shared host are weather, not
# signal; the per-host calibrated noise can only widen this, never
# narrow it.
DEFAULT_NOISE_PCT = 10.0

_LOWER_SUFFIXES = ("_seconds", "_ms", "_us", "_ns", "_bytes")
_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def metric_direction(path: str) -> int | None:
    """``-1`` lower-is-better, ``+1`` higher-is-better, ``None`` ungated."""
    leaf = path.rsplit(".", 1)[-1]
    if leaf.endswith("_runs"):
        return None
    if "speedup" in leaf or "per_second" in leaf:
        return +1
    if leaf.endswith(_LOWER_SUFFIXES) or leaf == "seconds":
        return -1
    if leaf.endswith("_overhead_pct") or leaf.endswith("_dev"):
        return -1
    return None


def _flatten(node, prefix: str, out: dict) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            child = f"{prefix}.{key}" if prefix else str(key)
            _flatten(node[key], child, out)
    elif isinstance(node, (list, tuple)):
        # runs arrays stay whole — they are the repeat samples the
        # bootstrap consumes, not individually gateable metrics
        if prefix.rsplit(".", 1)[-1].endswith("_runs") and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in node
        ):
            out[prefix] = [float(v) for v in node]
            return
        for index, item in enumerate(node):
            _flatten(item, f"{prefix}[{index}]", out)
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)


def flatten_metrics(report: dict) -> dict:
    """Dotted-path → value over ``sections`` and ``checks``.

    Scalar numerics flatten to floats; ``*_runs`` lists survive as
    lists (the repeat samples).  Strings, booleans and nulls drop out.
    """
    out: dict = {}
    _flatten(report.get("sections", {}), "", out)
    _flatten(report.get("checks", {}), "checks", out)
    return out


# -- host identity -----------------------------------------------------


def host_block(report: dict) -> dict:
    """The report's ``host`` block, backfilled from ``env`` when absent.

    BENCH_3..9 predate the block; their ``env`` already carried the
    identity fields, so the backfill is lossless for matching purposes
    (they simply lack the calibrated noise figure and env overrides).
    """
    host = report.get("host")
    if host is not None:
        return host
    env = report.get("env", {})
    return {
        "python": env.get("python"),
        "platform": env.get("platform"),
        "cpu_count": env.get("cpu_count"),
        "env_overrides": {},
        "timing_noise_pct": None,
        "backfilled": True,
    }


def hosts_match(a: dict, b: dict) -> bool:
    """Same machine for gating purposes: python, platform, cpu count.

    Reports that both name their ``kernel_backend`` must also agree on
    it, so a numpy-fallback run never gates against a compiled one, and
    likewise ``kernel_simd``, so an AVX2 sweep never gates against an
    SSE2 one; reports from before a key match as they always did.
    """
    first, second = host_block(a), host_block(b)
    same_kernel = all(
        key not in first or key not in second or first[key] == second[key]
        for key in ("kernel_backend", "kernel_simd")
    )
    return same_kernel and all(
        first.get(key) is not None
        and first.get(key) == second.get(key)
        for key in ("python", "platform", "cpu_count")
    )


# -- trajectory loading ------------------------------------------------


def load_trajectory(directory: str) -> "list[dict]":
    """Every ``BENCH_n.json`` under ``directory``, sorted by ``n``.

    Each entry is ``{"trajectory", "label", "path", "report"}``.  Files
    that fail to parse raise — a corrupt committed baseline is a repo
    bug, not something to skip past silently.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no trajectory directory {directory!r}")
    entries = []
    for name in sorted(os.listdir(directory)):
        match = _BENCH_NAME.match(name)
        if match is None:
            continue
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        if report.get("schema") != "repro-bench/1":
            raise ValueError(
                f"{path}: unexpected schema {report.get('schema')!r}"
            )
        entries.append(
            {
                "trajectory": int(match.group(1)),
                "label": report.get("label", name[:-5]),
                "path": path,
                "report": report,
            }
        )
    entries.sort(key=lambda entry: entry["trajectory"])
    if not entries:
        raise FileNotFoundError(
            f"no BENCH_*.json files under {directory!r}"
        )
    return entries


def latest_baseline(directory: str) -> dict:
    """The newest committed trajectory point."""
    return load_trajectory(directory)[-1]


# -- the gate ----------------------------------------------------------


def _noise_allowance(fresh: dict, floor_pct: float | None) -> float:
    floor = DEFAULT_NOISE_PCT if floor_pct is None else float(floor_pct)
    if not (math.isfinite(floor) and floor >= 0):
        # a NaN or infinite allowance makes every limit comparison pass
        raise ValueError(
            f"noise_pct must be a finite number >= 0, got {floor_pct!r}"
        )
    measured = host_block(fresh).get("timing_noise_pct")
    if measured is None:
        return floor
    return max(floor, float(measured))


def _in_points(path: str) -> bool:
    """Whether the metric is a percentage, judged in points."""
    return path.rsplit(".", 1)[-1].endswith("_pct")


def _judge(
    direction: int,
    old: float,
    new: float,
    runs: "list[float] | None",
    allow_pct: float,
    *,
    resamples: int,
    seed: int,
    path: str,
) -> dict:
    """One metric's verdict row (deterministic given the inputs)."""
    row: dict = {
        "path": path,
        "direction": "lower" if direction < 0 else "higher",
        "old": old,
        "new": new,
    }
    if _in_points(path):
        # a +0.4% overhead that reads +0.6% has not grown by half: a
        # percentage moves in points, whatever its sign
        row["change_points"] = new - old
        margin = allow_pct
    else:
        row["change_pct"] = 100.0 * (new / old - 1.0)
        margin = old * allow_pct / 100.0
    worse_limit = old - direction * margin
    better_limit = old + direction * margin

    def classify(low: float, high: float) -> str:
        # [low, high] is the plausible range of the fresh value; a
        # verdict only leaves "within-noise" when the whole range
        # agrees, which is what makes the gate hard to false-alarm
        if direction < 0:
            if low > worse_limit:
                return "regressed"
            if high < better_limit:
                return "improved"
        else:
            if high < worse_limit:
                return "regressed"
            if low > better_limit:
                return "improved"
        return "within-noise"

    if runs is not None and len(runs) >= 3:
        from ..stats import bootstrap_ci

        ci = bootstrap_ci(
            runs, resamples=resamples, seed=seed, stream=(path,)
        )
        row["ci"] = {
            "mean": ci.mean,
            "lo": ci.lo,
            "hi": ci.hi,
            "n": ci.n,
            "method": ci.method,
        }
        row["verdict"] = classify(ci.lo, ci.hi)
    else:
        row["verdict"] = classify(new, new)
    return row


def compare_reports(
    fresh: dict,
    baseline: dict,
    *,
    noise_pct: float | None = None,
    resamples: int = 2000,
    seed: int = 7,
    baseline_path: str | None = None,
) -> dict:
    """Gate ``fresh`` against ``baseline``; returns the verdict artifact.

    Only directional metrics present in both reports are judged.
    ``noise_pct`` is the allowance *floor* (a finite percentage >= 0,
    else ``ValueError``); the fresh report's calibrated
    ``host.timing_noise_pct`` widens it when larger.
    """
    fresh_metrics = flatten_metrics(fresh)
    base_metrics = flatten_metrics(baseline)
    allow_pct = _noise_allowance(fresh, noise_pct)
    rows: "list[dict]" = []
    skipped = 0
    for path in sorted(set(fresh_metrics) & set(base_metrics)):
        direction = metric_direction(path)
        if direction is None:
            continue
        old = base_metrics[path]
        new = fresh_metrics[path]
        if not isinstance(old, float) or not isinstance(new, float):
            continue
        if not _in_points(path) and (old <= 0 or new < 0):
            skipped += 1  # no relative change to judge
            continue
        runs = fresh_metrics.get(f"{path}_runs")
        rows.append(
            _judge(
                direction,
                old,
                new,
                runs if isinstance(runs, list) else None,
                allow_pct,
                resamples=resamples,
                seed=seed,
                path=path,
            )
        )
    summary = {"improved": 0, "within-noise": 0, "regressed": 0}
    for row in rows:
        summary[row["verdict"]] += 1
    if summary["regressed"]:
        overall = "regressed"
    elif summary["improved"]:
        overall = "improved"
    else:
        overall = "within-noise"
    return {
        "schema": COMPARE_SCHEMA,
        "baseline": {
            "label": baseline.get("label"),
            "quick": baseline.get("quick"),
            "path": baseline_path,
        },
        "fresh": {
            "label": fresh.get("label"),
            "quick": fresh.get("quick"),
        },
        "noise_pct": allow_pct,
        "host_match": hosts_match(fresh, baseline),
        "metrics": rows,
        "summary": {**summary, "skipped": skipped},
        "verdict": overall,
    }


def format_compare(verdict: dict) -> str:
    """Human-readable rendering of a :func:`compare_reports` artifact."""
    summary = verdict["summary"]
    lines = [
        f"bench compare: {verdict['fresh']['label']} vs "
        f"{verdict['baseline']['label']} — {verdict['verdict'].upper()}",
        f"  allowance ±{verdict['noise_pct']:.1f}%  "
        f"host match: {'yes' if verdict['host_match'] else 'NO'}",
        f"  {summary['improved']} improved, "
        f"{summary['within-noise']} within noise, "
        f"{summary['regressed']} regressed"
        + (f", {summary['skipped']} skipped" if summary["skipped"] else ""),
    ]
    interesting = [
        row for row in verdict["metrics"] if row["verdict"] != "within-noise"
    ]
    if interesting:
        lines.append("")
        lines.append(
            f"  {'metric':<52} {'old':>12} {'new':>12} {'Δ%':>8} verdict"
        )
        for row in interesting:
            ci = row.get("ci")
            marker = " (CI)" if ci else ""
            change = (
                f"{row['change_points']:>+6.2f}pt"
                if "change_points" in row
                else f"{row['change_pct']:>+7.1f}%"
            )
            lines.append(
                f"  {row['path']:<52} {row['old']:>12.5g} "
                f"{row['new']:>12.5g} {change} "
                f"{row['verdict']}{marker}"
            )
    return "\n".join(lines)
