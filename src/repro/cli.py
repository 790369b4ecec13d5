"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``table1`` — regenerate Table 1 on the simulated Yahoo archive.
* ``audit <benchmark>`` — four-flaw report for ``yahoo``, ``nasa`` or
  ``numenta``.
* ``taxi`` — the Fig 8 discord-vs-labels case study.
* ``build-archive <dir>`` — build, validate and save a UCR-style
  archive to a directory.
* ``score <dir>`` — score the registered detectors on a saved archive
  with UCR accuracy.
* ``run <dir>`` — full evaluation run through the engine: parallel
  execution, content-addressed caching, manifest + JSONL artifacts
  (``--stats`` adds a statistical leaderboard on the spot).
* ``compare <out-dir>`` — statistical comparison of a *saved* run:
  bootstrap CIs, Holm-corrected paired permutation tests, Friedman/
  Nemenyi rank cliques and the one-liner noise-floor verdict, with no
  recompute.
* ``stream <dir>`` — replay an archive through the streaming subsystem:
  every detector runs left-to-right without hindsight, scored at
  arrival time, with detection delay measured against the labels and a
  delay-aware statistical leaderboard on top.
* ``serve`` — run the multi-tenant streaming detection service: a
  stdlib HTTP front over sharded workers with consistent-hash tenant
  routing, bounded queues with backpressure (``429 Retry-After``),
  per-tenant metrics and snapshot/restore of live stream state.
* ``detectors`` — list the registry (names + constructor parameters).
* ``cache <dir>`` — inspect or clear a content-addressed result cache.
* ``obs <dump|rollup> TRACE.jsonl`` — inspect a trace file written by
  ``--trace``: the span tree, or the per-span-name profile rollup
  (calls, total/self/mean time, counters).
* ``obs watch URL`` — tail a running ``repro serve`` endpoint's
  ``/alerts``: one line per poll with the ok/pending/firing summary
  and every non-ok rule's state and observed value.
* ``bench`` — time the numeric core (mpx kernel next to the naive
  brute-force reference, MERLIN, kNN, one-liners, bounded-memory
  scaling, streaming appends/replay, telemetry and watch-layer
  overhead, anytime convergence, parallel-sweep bit-identity, the
  drift-refit ablation) and write a machine-readable report whose name
  derives from the perf trajectory (``benchmarks/perf/BENCH_<n>.json``);
  an existing report at that default path is never overwritten.
* ``bench compare`` — the statistical perf-regression sentinel: run a
  fresh bench (or take ``--fresh REPORT.json``), align its metrics
  with the newest committed trajectory point, and judge each one
  improved / within-noise / regressed under a per-host noise
  allowance, with bootstrap CIs wherever repeat samples exist
  (``--strict`` turns a regressed verdict into exit 1, and a gate that
  judged no metric into exit 2).

``score`` and ``run`` both execute through :mod:`repro.runner`, so
``--jobs`` parallelizes and ``--cache-dir`` makes re-runs skip every
already-computed cell, and ``--kernel-jobs`` shards each
matrix-profile sweep itself across threads (bit-identical).  Anytime
profiles are a *detector spec* parameter, not a flag —
``matrix_profile(w=100, approx=0.1)`` — because partial coverage
changes scores and so belongs in manifests and cache keys.
``compare`` and ``run --stats`` execute through :mod:`repro.stats`;
their output is byte-identical across repeated invocations and across
serial vs parallel source runs.

``run`` and ``stream`` accept ``--trace OUT.jsonl``: the command
executes inside a fresh :mod:`repro.obs` tracing session and exports
every span (engine cells, kernel chunk sweeps, replay batches) plus the
session's counters as deterministic JSON Lines — two identical
invocations differ only in the timing fields.  ``repro obs rollup``
folds such a file into a self-time profile.

Each subparser names its handler (``set_defaults(handler=_cmd_...)``)
and :func:`main` calls it.  A flag several commands share is declared
once, by one ``_add_*`` helper, and ``score``, ``run`` and ``stream``
share one start-up, :func:`_open_archive`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import DEFAULT_OUT as BENCH_DEFAULT_OUT
from .bench import SECTIONS as BENCH_SECTIONS

__all__ = ["main", "build_parser"]


def _add_format_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="stdout format (default: text)",
    )


def _add_archive_options(parser: argparse.ArgumentParser) -> None:
    """The archive, line-up and kernel flags of ``score``, ``run`` and
    ``stream``: what :func:`_open_archive` reads, plus the slop."""
    parser.add_argument("directory")
    parser.add_argument(
        "--detectors",
        default="moving_zscore,matrix_profile",
        help="comma-separated registry names, with optional params: "
        "'diff,matrix_profile(w=100)'",
    )
    parser.add_argument(
        "--slop",
        type=int,
        default=100,
        help="minimum UCR scoring slop in points (default: 100)",
    )
    parser.add_argument(
        "--kernel-jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shard every batch matrix-profile sweep across N threads "
        "(bit-identical profiles and indices; cells on engine --jobs "
        "threads cap this to 1 to avoid oversubscription; default: one "
        "unsharded sweep)",
    )
    _add_format_option(parser)


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="threads for uncached cells, all in this process "
        "(default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (default: no cache)",
    )


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.jsonl",
        help="execute inside a fresh tracing session and write every "
        "span plus the session's counters to this JSONL file "
        "(inspect with `repro obs rollup`)",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535, got {value}")
    return value


def _refit_policy(text: str) -> str:
    from .drift.policies import parse_policy

    try:
        parse_policy(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be strictly between 0 and 1, got {value}"
        )
    return value


def _add_stats_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resamples",
        type=_positive_int,
        default=2000,
        help="bootstrap/permutation resamples (default: 2000)",
    )
    parser.add_argument(
        "--alpha",
        type=_open_unit_float,
        default=0.05,
        help="two-sided significance level (default: 0.05)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="seed for every statistical resampling stream (default: 7)",
    )


def _package_version() -> str:
    """The version of the code that is actually running.

    ``setup.cfg`` derives the distribution metadata from
    ``repro.__version__`` (``attr:``), so the imported constant *is*
    the package metadata for the running module — and unlike an
    ``importlib.metadata`` lookup it cannot report a stale
    site-packages install when the source tree runs via
    ``PYTHONPATH=src``.
    """
    from . import __version__

    return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Current TSAD Benchmarks are Flawed'",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {_package_version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1 (Yahoo brute force)")
    table1.set_defaults(handler=_cmd_table1)
    table1.add_argument("--seed", type=int, default=7)

    audit = sub.add_parser("audit", help="four-flaw report for a benchmark")
    audit.set_defaults(handler=_cmd_audit)
    audit.add_argument("benchmark", choices=["yahoo", "nasa", "numenta"])
    audit.add_argument("--seed", type=int, default=7)

    taxi = sub.add_parser("taxi", help="Fig 8: taxi discords vs. NAB labels")
    taxi.set_defaults(handler=_cmd_taxi)

    build = sub.add_parser("build-archive", help="build + validate a UCR-style archive")
    build.set_defaults(handler=_cmd_build_archive)
    build.add_argument("directory")
    build.add_argument("--size", type=int, default=30)
    build.add_argument("--seed", type=int, default=11)
    build.add_argument(
        "--max-trivial",
        type=float,
        default=0.25,
        help="allowed one-liner-solvable fraction (small archives need "
        "more headroom: the two paper exemplars count against it)",
    )

    score = sub.add_parser("score", help="UCR-score detectors on a saved archive")
    score.set_defaults(handler=_cmd_score)
    _add_archive_options(score)
    _add_engine_options(score)

    run = sub.add_parser(
        "run",
        help="evaluate a detector grid on a saved archive and write "
        "manifest + JSONL + summary artifacts",
    )
    run.set_defaults(handler=_cmd_run)
    _add_archive_options(run)
    run.add_argument(
        "--out",
        default="benchmarks/out",
        help="artifact directory (default: benchmarks/out)",
    )
    run.add_argument(
        "--name",
        default="run",
        help="artifact basename (default: run)",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="also build the statistical leaderboard (bootstrap CIs, "
        "pairwise tests, one-liner noise floor) and write "
        "<name>.stats.json",
    )
    _add_engine_options(run)
    _add_stats_options(run)
    _add_trace_option(run)

    compare = sub.add_parser(
        "compare",
        help="statistical comparison of a saved run: CIs, pairwise "
        "tests, rank cliques and the one-liner noise floor",
    )
    compare.set_defaults(handler=_cmd_compare)
    compare.add_argument(
        "directory",
        help="artifact directory a previous `repro run` wrote into",
    )
    compare.add_argument(
        "--name",
        default="run",
        help="artifact basename to compare (default: run)",
    )
    compare.add_argument(
        "--archive",
        default=None,
        help="archive directory for the baseline pool (default: the "
        "directory recorded in the run manifest)",
    )
    compare.add_argument(
        "--baseline-pool",
        choices=["none", "oneliners"],
        default="oneliners",
        help="noise-floor baseline pool (default: oneliners)",
    )
    _add_format_option(compare)
    _add_stats_options(compare)

    stream = sub.add_parser(
        "stream",
        help="replay an archive left-to-right: arrival-time scores, "
        "detection delay and a delay-aware streaming leaderboard",
    )
    stream.set_defaults(handler=_cmd_stream)
    _add_archive_options(stream)
    stream.add_argument(
        "--batch-size",
        type=_positive_int,
        default=32,
        help="micro-batch size per update; 1 is strict point-by-point "
        "(default: 32)",
    )
    stream.add_argument(
        "--max-delay",
        type=_nonnegative_int,
        default=None,
        metavar="POINTS",
        help="latency budget: a cell only counts as correct if the "
        "detector committed to the anomaly within this many points of "
        "its onset (default: no budget)",
    )
    stream.add_argument(
        "--window",
        type=_positive_int,
        default=None,
        metavar="POINTS",
        help="bound the re-scored suffix (and the incremental kernel's "
        "resident history) to this many points (default: full prefix)",
    )
    stream.add_argument(
        "--refit-every",
        type=_positive_int,
        default=None,
        metavar="POINTS",
        help="refit wrapped detectors on everything seen so far at this "
        "cadence (default: fit once on the training prefix); shorthand "
        "for --refit-policy 'fixed(every=K)'",
    )
    stream.add_argument(
        "--refit-policy",
        type=_refit_policy,
        default=None,
        metavar="SPEC",
        help="adaptive refit policy spec: 'fixed(every=500)', "
        "'drift(on=page_hinkley,cooldown=250)', 'hybrid(on=zshift,"
        "every=1000,cooldown=250)', or a bare drift detector name "
        "(page_hinkley, adwin, zshift) as shorthand for drift(on=...); "
        "mutually exclusive with --refit-every",
    )
    stream.add_argument(
        "--out",
        default=None,
        help="also write <name>.traces.jsonl and <name>.stats.json "
        "artifacts into this directory (default: no artifacts)",
    )
    stream.add_argument(
        "--name",
        default="stream",
        help="artifact basename (default: stream)",
    )
    _add_stats_options(stream)
    _add_trace_option(stream)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant streaming detection service "
        "(stdlib HTTP; sharded workers, backpressure, snapshots)",
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=_port,
        default=8765,
        help="bind port; 0 picks a free one (default: 8765)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="worker shards; tenants are consistent-hashed across them "
        "(default: 4)",
    )
    serve.add_argument(
        "--queue-size",
        type=_positive_int,
        default=4096,
        help="bounded per-shard op queue; a full queue answers 429 with "
        "Retry-After (default: 4096)",
    )
    serve.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="background self-monitoring cadence: evaluate the stock "
        "alert rules against the metrics registry this often, "
        "feeding /alerts and /healthz; 0 disables the watcher "
        "(default: 1.0)",
    )

    detectors = sub.add_parser(
        "detectors",
        help="list the detector registry (names + constructor params)",
    )
    detectors.set_defaults(handler=_cmd_detectors)
    _add_format_option(detectors)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear a content-addressed result cache",
    )
    cache.set_defaults(handler=_cmd_cache)
    cache.add_argument("directory")
    cache.add_argument(
        "--clear",
        action="store_true",
        help="delete every cached entry after reporting the totals",
    )

    obs = sub.add_parser(
        "obs",
        help="inspect a --trace JSONL file (span tree or self-time "
        "profile), or tail a live serve endpoint's alerts",
    )
    obs.set_defaults(handler=_cmd_obs)
    obs.add_argument(
        "mode",
        choices=["dump", "rollup", "watch"],
        help="dump: the indented span tree; rollup: per-span-name "
        "calls, total/self/mean time, plus the trace's counters; "
        "watch: poll a running `repro serve` base URL and print its "
        "alert states",
    )
    obs.add_argument(
        "trace",
        metavar="TRACE_OR_URL",
        help="trace file a --trace run wrote (dump/rollup), or the "
        "serve base URL, e.g. http://127.0.0.1:8765 (watch)",
    )
    obs.add_argument(
        "--max-spans",
        type=_nonnegative_int,
        default=200,
        help="dump: elide the tree after this many lines; 0 keeps only "
        "the elision summary (default: 200)",
    )
    obs.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="watch: seconds between polls (default: 2.0)",
    )
    obs.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        metavar="N",
        help="watch: stop after N polls (default: run until Ctrl-C)",
    )
    _add_format_option(obs)

    bench = sub.add_parser(
        "bench",
        help="time the numeric core (mpx kernel vs the naive reference, "
        "MERLIN, kNN, one-liners, bounded-memory scaling, streaming, "
        "obs/watch overhead, anytime convergence, parallel "
        "bit-identity, drift refits) and write a machine-readable report",
    )
    bench.set_defaults(handler=_cmd_bench)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small sizes and fewer repeats (CI smoke budget)",
    )
    bench.add_argument(
        "--out",
        default=None,
        help=f"report path (default: {BENCH_DEFAULT_OUT}, derived from "
        "the perf trajectory and never overwritten; '-' skips writing)",
    )
    bench.add_argument(
        "--repeats",
        type=_positive_int,
        default=None,
        help="timing repeats per case, median taken (default: 5, quick 3)",
    )
    bench.add_argument(
        "--sections",
        default=",".join(BENCH_SECTIONS),
        help=f"comma-separated subset of: {', '.join(BENCH_SECTIONS)}",
    )
    bench.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=None,
        help="exit 1 unless the mpx kernel beats the naive reference by "
        "at least this factor at the largest size",
    )
    _add_format_option(bench)
    bench_sub = bench.add_subparsers(dest="bench_command", required=False)
    bench_compare = bench_sub.add_parser(
        "compare",
        help="gate a fresh bench run against the committed perf "
        "trajectory: per-metric improved / within-noise / regressed "
        "verdicts with bootstrap CIs where repeat samples exist",
    )
    # parsed after `bench`'s own defaults, so this handler wins
    bench_compare.set_defaults(handler=_cmd_bench_compare)
    bench_compare.add_argument(
        "--fresh",
        default=None,
        metavar="REPORT.json",
        help="compare this existing report instead of running a fresh "
        "bench (default: run one now)",
    )
    bench_compare.add_argument(
        "--quick",
        action="store_true",
        help="run the fresh bench at quick sizes (CI smoke budget); "
        "ignored with --fresh",
    )
    bench_compare.add_argument(
        "--sections",
        default=None,
        help="comma-separated sections for the fresh run (default: the "
        "sections the baseline report has); ignored with --fresh",
    )
    bench_compare.add_argument(
        "--trajectory",
        default="benchmarks/perf",
        metavar="DIR",
        help="committed trajectory directory; the newest BENCH_<n>.json "
        "is the baseline (default: benchmarks/perf)",
    )
    bench_compare.add_argument(
        "--noise-pct",
        type=float,
        default=None,
        metavar="PCT",
        help="relative-change allowance floor in percent (default: 10; "
        "the fresh report's calibrated host noise can only widen it)",
    )
    bench_compare.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on a regressed verdict and 2 when the hosts do "
        "not match (default: always exit 0 — advisory).  After the host "
        "and quick checks, a gate that judged no metric also exits 2",
    )
    bench_compare.add_argument(
        "--out",
        default=None,
        metavar="VERDICT.json",
        help="also write the machine-readable verdict artifact here",
    )
    _add_format_option(bench_compare)
    bench_compare.add_argument(
        "--resamples",
        type=_positive_int,
        default=2000,
        help="bootstrap resamples for runs-backed metrics (default: 2000)",
    )
    bench_compare.add_argument(
        "--seed",
        type=int,
        default=7,
        help="seed for the bootstrap resampling stream (default: 7)",
    )
    return parser


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _finite(flag: str, value: float, bound: str = "") -> bool:
    """Whether a float flag is finite and meets ``bound`` (``""``,
    ``">= 0"`` or ``"> 0"``); a refusal prints the exit-2 message.

    A NaN compares false with everything, so it would make a gate pass
    anything or a cadence spin; an infinity overflows the waits.
    """
    ok = math.isfinite(value) and {
        "": True,
        ">= 0": value >= 0,
        "> 0": value > 0,
    }[bound]
    if not ok:
        rule = f"a finite number {bound}".rstrip()
        print(f"error: {flag} must be {rule}", file=sys.stderr)
    return ok


def _parse_sections(text: str):
    """``--sections`` text → section names, or None after an exit-2
    message: a list that names no section would run, or gate, a bench
    that measured nothing.  ``run_bench`` refuses unknown names."""
    sections = tuple(part.strip() for part in text.split(",") if part.strip())
    if not sections:
        print("error: --sections names no sections", file=sys.stderr)
        return None
    return sections


def _cmd_table1(args) -> int:
    from .datasets import YahooConfig, make_yahoo
    from .oneliner import build_table1

    archive = make_yahoo(YahooConfig(seed=args.seed))
    print(build_table1(archive).format())
    return 0


def _cmd_audit(args) -> int:
    from .flaws import audit_archive
    from .oneliner import YAHOO_FAMILY_POLICY

    if args.benchmark == "yahoo":
        from .datasets import YahooConfig, make_yahoo

        archive = make_yahoo(YahooConfig(seed=args.seed))
        report = audit_archive(
            archive,
            families_for=lambda s: YAHOO_FAMILY_POLICY[s.meta["dataset"]],
        )
    elif args.benchmark == "nasa":
        from .datasets import NasaConfig, make_nasa

        report = audit_archive(
            make_nasa(NasaConfig(seed=args.seed)), check_duplicates=False
        )
    else:
        from .datasets import make_numenta

        report = audit_archive(make_numenta(args.seed), check_duplicates=False)
    print(report.format())
    return 0


def _cmd_taxi(args) -> int:
    from .datasets import SLOTS_PER_DAY, make_taxi
    from .flaws import discord_label_disagreement

    taxi = make_taxi()
    report = discord_label_disagreement(taxi, w=SLOTS_PER_DAY, top_k=14)
    print(f"labeled-region discord hits: {len(report.labeled_hits)}")
    print(
        "unlabeled discords (candidate missed events): "
        f"{len(report.unlabeled_discords)}"
    )
    for start, distance in report.unlabeled_discords:
        print(f"  day {start // SLOTS_PER_DAY:>3}  distance {distance:.2f}")
    return 0


def _cmd_build_archive(args) -> int:
    from .archive import save_archive, validate_archive
    from .datasets import UcrSimConfig, make_ucr

    archive = make_ucr(UcrSimConfig(seed=args.seed, size=args.size))
    validation = validate_archive(
        archive, check_triviality=True, max_trivial_fraction=args.max_trivial
    )
    print(validation.format())
    if not validation.ok:
        return 1
    written = save_archive(archive, args.directory)
    print(f"wrote {len(written)} datasets to {args.directory}")
    return 0


def _open_archive(args):
    """The start-up ``score``, ``run`` and ``stream`` share.

    Installs ``--kernel-jobs`` as the process-wide kernel default; the
    engine's cell threads read it as 1, so engine-level and
    kernel-level parallelism do not multiply.  Then loads the archive
    and validates the line-up by building every spec: an unknown
    registry name or parameters a detector refuses must not escape as a
    traceback, so print what went wrong plus the available names.  Returns
    ``(archive, specs)``, or the exit code after its message: 2 for a
    bad line-up, 1 for a directory without archive files.
    """
    from .archive import load_archive
    from .detectors import (
        available_detectors,
        parse_detectors,
        set_default_kernel_jobs,
    )

    if args.kernel_jobs:
        set_default_kernel_jobs(args.kernel_jobs)
    archive = load_archive(args.directory)
    if len(archive) == 0:
        print(f"no UCR_Anomaly_*.txt files in {args.directory}", file=sys.stderr)
        return 1
    try:
        specs = parse_detectors(args.detectors)
        if not specs:
            raise ValueError("--detectors names no detectors")
        for spec in specs:
            spec.build()
    except (ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "available detectors: " + ", ".join(available_detectors()),
            file=sys.stderr,
        )
        return 2
    return archive, specs


def _traced(args, fn) -> int:
    """Run a command body, exporting a trace when ``--trace`` was given.

    The session is fresh per invocation (own tracer *and* metrics
    registry), so the exported file covers exactly this command — the
    determinism contract `repro obs` relies on.
    """
    if not getattr(args, "trace", None):
        return fn()
    from .obs import tracing_session, write_trace

    with tracing_session() as (tracer, registry):
        code = fn()
        spans = write_trace(
            args.trace, tracer, registry=registry, argv=args.cli_argv
        )
    print(f"wrote trace: {args.trace} ({spans} spans)", file=sys.stderr)
    return code


def _build_engine(args, specs, config=None):
    from .runner import EvalEngine, UcrScoring

    return EvalEngine(
        specs,
        scoring=UcrScoring(minimum_slop=args.slop),
        cache=args.cache_dir,
        jobs=args.jobs,
        config=config,
    )


def _cmd_score(args) -> int:
    opened = _open_archive(args)
    if isinstance(opened, int):
        return opened
    archive, specs = opened
    report = _build_engine(args, specs).run(archive)
    if args.format == "json":
        print(report.manifest().to_json(), end="")
    else:
        for spec in specs:
            accuracy = report.summary(spec).accuracy
            print(f"{spec.label:<28} accuracy {accuracy:6.1%}")
        print(report.stats.format(), file=sys.stderr)
    return 0


def _build_leaderboard(report, *, noise_floor, args):
    from .stats import build_leaderboard

    return build_leaderboard(
        report.outcome_matrix(),
        archive={
            "name": report.archive_name,
            "num_series": report.archive_size,
            "fingerprint": report.archive_fingerprint,
        },
        noise_floor=noise_floor,
        alpha=args.alpha,
        resamples=args.resamples,
        seed=args.seed,
    )


def _cmd_run(args) -> int:
    from .runner import ResultsStore, format_report

    opened = _open_archive(args)
    if isinstance(opened, int):
        return opened
    archive, specs = opened

    def execute() -> int:
        config = {
            "archive_directory": args.directory,
            "detectors": [spec.label for spec in specs],
        }
        engine = _build_engine(args, specs, config)
        report = engine.run(archive)
        store = ResultsStore(args.out)
        paths = store.write(report, args.name)
        leaderboard = None
        if args.stats:
            from .stats import fit_noise_floor

            floor = fit_noise_floor(
                archive,
                engine.scoring,
                resamples=args.resamples,
                alpha=args.alpha,
                seed=args.seed,
            )
            leaderboard = _build_leaderboard(
                report, noise_floor=floor, args=args
            )
            paths["stats"] = store.write_stats(leaderboard, args.name)
        if args.format == "json":
            print(report.manifest().to_json(), end="")
        else:
            print(format_report(report))
            if leaderboard is not None:
                print()
                print(leaderboard.format())
            print(report.stats.format(), file=sys.stderr)
            for kind, path in paths.items():
                print(f"wrote {kind}: {path}", file=sys.stderr)
        return 0

    return _traced(args, execute)


def _cmd_compare(args) -> int:
    from .runner import load_report

    try:
        report = load_report(args.directory, args.name)
    except (FileNotFoundError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    floor = None
    if args.baseline_pool == "oneliners":
        from .archive import load_archive
        from .runner import archive_fingerprint, scoring_from_description
        from .stats import fit_noise_floor

        archive_dir = args.archive or report.config.get("archive_directory")
        if not archive_dir:
            print(
                "error: the run manifest records no archive directory; "
                "pass --archive (or --baseline-pool none)",
                file=sys.stderr,
            )
            return 1
        archive = load_archive(archive_dir)
        if len(archive) == 0:
            print(
                f"no UCR_Anomaly_*.txt files in {archive_dir}", file=sys.stderr
            )
            return 1
        if archive_fingerprint(archive) != report.archive_fingerprint:
            print(
                f"error: archive at {archive_dir} does not match the run "
                f"manifest's content fingerprint; the noise floor would be "
                f"fitted on different data (pass the original archive via "
                f"--archive, or --baseline-pool none)",
                file=sys.stderr,
            )
            return 1
        try:
            scoring = scoring_from_description(report.scoring)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        floor = fit_noise_floor(
            archive,
            scoring,
            resamples=args.resamples,
            alpha=args.alpha,
            seed=args.seed,
        )

    leaderboard = _build_leaderboard(report, noise_floor=floor, args=args)
    if args.format == "json":
        print(leaderboard.to_json(), end="")
    else:
        print(leaderboard.format())
    return 0


def _cmd_stream(args) -> int:
    from .stream import (
        delay_summary,
        format_streaming,
        replay_grid,
        streaming_leaderboard,
    )

    if args.refit_every is not None and args.refit_policy is not None:
        print(
            "error: --refit-every and --refit-policy are mutually "
            "exclusive; --refit-every K is shorthand for --refit-policy "
            "'fixed(every=K)'",
            file=sys.stderr,
        )
        return 2
    opened = _open_archive(args)
    if isinstance(opened, int):
        return opened
    archive, specs = opened

    def execute() -> int:
        try:
            traces = replay_grid(
                archive,
                specs,
                batch_size=args.batch_size,
                max_delay=args.max_delay,
                slop=args.slop,
                window=args.window,
                refit_every=args.refit_every,
                refit_policy=args.refit_policy,
            )
        except ValueError as error:
            # e.g. a --window too small for a detector's kernel history
            print(f"error: {error}", file=sys.stderr)
            return 2
        leaderboard = streaming_leaderboard(
            traces,
            archive={"name": archive.name, "num_series": len(archive)},
            alpha=args.alpha,
            resamples=args.resamples,
            seed=args.seed,
        )
        if args.out:
            from .runner import ResultsStore

            store = ResultsStore(args.out)
            trace_path = store.write_traces(traces, args.name)
            stats_path = store.write_stats(leaderboard, args.name)
            print(f"wrote traces: {trace_path}", file=sys.stderr)
            print(f"wrote stats: {stats_path}", file=sys.stderr)
        if args.format == "json":
            _print_json(
                {
                    "schema": "repro-stream/1",
                    "archive": {"name": archive.name, "num_series": len(archive)},
                    "batch_size": args.batch_size,
                    "max_delay": args.max_delay,
                    "detectors": delay_summary(traces),
                    "leaderboard": json.loads(leaderboard.to_json()),
                    "traces": [trace.to_json() for trace in traces],
                }
            )
        else:
            print(format_streaming(traces, leaderboard))
        return 0

    return _traced(args, execute)


def _cmd_serve(args) -> int:
    from .serve import ServeServer, StreamCluster

    if not _finite("--watch-interval", args.watch_interval, ">= 0"):
        return 2
    server = ServeServer(
        StreamCluster(
            num_shards=args.shards,
            queue_size=args.queue_size,
            watch_interval=args.watch_interval or None,
        ),
        host=args.host,
        port=args.port,
    )
    watching = (
        f"watch every {args.watch_interval:g}s"
        if args.watch_interval
        else "watch off"
    )
    print(
        f"repro serve listening on {server.address} "
        f"({args.shards} shards, queue {args.queue_size}, {watching})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _cmd_detectors(args) -> int:
    import inspect

    from .detectors import DETECTORS, available_detectors

    rows = []
    for name in available_detectors():
        params = {}
        for parameter in inspect.signature(DETECTORS[name]).parameters.values():
            default = parameter.default
            params[parameter.name] = (
                None if default is inspect.Parameter.empty else default
            )
        rows.append({"name": name, "params": params})
    if args.format == "json":
        _print_json(rows)
    else:
        for row in rows:
            inner = ", ".join(
                f"{key}={value!r}" for key, value in row["params"].items()
            )
            print(f"{row['name']:<16} {inner}")
    return 0


def _cmd_bench(args) -> int:
    import os

    from .bench import format_bench, run_bench, write_bench

    # `achieved < nan` is never true: a NaN floor would pass any kernel
    if args.min_kernel_speedup is not None and not _finite(
        "--min-kernel-speedup", args.min_kernel_speedup
    ):
        return 2
    sections = _parse_sections(args.sections)
    if sections is None:
        return 2
    out = args.out if args.out is not None else BENCH_DEFAULT_OUT
    if args.out is None and os.path.exists(out):
        # the default name is the committed trajectory point that
        # `bench compare` gates against: never replace it implicitly
        print(
            f"error: {out} already exists; bump repro.bench.TRAJECTORY "
            "to record a new point, or pass --out PATH",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_bench(
            quick=args.quick, repeats=args.repeats, sections=sections
        )
    except (ValueError, AssertionError) as error:
        # AssertionError: a correctness cross-check inside a section
        # failed — surface it as a clean diagnostic, not a traceback
        print(f"error: {error}", file=sys.stderr)
        return 2
    if out != "-":
        path = write_bench(report, out)
        print(f"wrote {path}", file=sys.stderr)
    if args.format == "json":
        _print_json(report)
    else:
        print(format_bench(report))
    if args.min_kernel_speedup is not None:
        achieved = report["checks"].get("kernel_speedup_vs_naive")
        if achieved is None:
            print(
                "error: --min-kernel-speedup needs the kernel section",
                file=sys.stderr,
            )
            return 2
        if achieved < args.min_kernel_speedup:
            print(
                f"error: kernel speedup {achieved:.1f}x below the required "
                f"{args.min_kernel_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_bench_compare(args) -> int:
    from .bench import SECTIONS, run_bench, write_bench
    from .obs import compare_reports, format_compare, latest_baseline

    if args.noise_pct is not None and not _finite(
        "--noise-pct", args.noise_pct, ">= 0"
    ):
        return 2
    try:
        baseline = latest_baseline(args.trajectory)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.fresh is not None:
        try:
            with open(args.fresh) as handle:
                fresh = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read {args.fresh}: {error}", file=sys.stderr)
            return 2
        if fresh.get("schema") != "repro-bench/1":
            print(
                f"error: {args.fresh} is not a repro-bench/1 report",
                file=sys.stderr,
            )
            return 2
    else:
        if args.sections is not None:
            sections = _parse_sections(args.sections)
            if sections is None:
                return 2
        else:
            # measure what the baseline measured: fresh sections the
            # baseline lacks cannot be gated, and baseline sections the
            # fresh run skips silently shrink the gate's coverage
            sections = tuple(
                name
                for name in SECTIONS
                if name in baseline["report"].get("sections", {})
            )
        try:
            fresh = run_bench(quick=args.quick, sections=sections)
        except (ValueError, AssertionError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    verdict = compare_reports(
        fresh,
        baseline["report"],
        noise_pct=args.noise_pct,
        resamples=args.resamples,
        seed=args.seed,
        baseline_path=baseline["path"],
    )
    if args.out:
        print(f"wrote {write_bench(verdict, args.out)}", file=sys.stderr)
    if args.format == "json":
        _print_json(verdict)
    else:
        print(format_compare(verdict))
    quick_mismatch = bool(verdict["fresh"]["quick"]) != bool(
        verdict["baseline"]["quick"]
    )
    if quick_mismatch:
        print(
            "note: quick run vs full baseline — size-dependent timings "
            "differ by construction; verdicts are advisory",
            file=sys.stderr,
        )
    if args.strict:
        if not verdict["host_match"]:
            print(
                "error: fresh and baseline reports come from different "
                "hosts; --strict refuses to gate cross-host timings",
                file=sys.stderr,
            )
            return 2
        if quick_mismatch:
            print(
                "error: --strict refuses to gate a quick run against a "
                "full baseline (different problem sizes)",
                file=sys.stderr,
            )
            return 2
        if not verdict["metrics"]:
            print(
                "error: no metric was judged (the reports share no gated "
                "metric); --strict refuses to pass a gate that judged "
                "nothing",
                file=sys.stderr,
            )
            return 2
        if verdict["verdict"] == "regressed":
            return 1
    return 0


def _cmd_cache(args) -> int:
    from .runner import ResultCache

    cache = ResultCache(args.directory)
    entries = len(cache)
    print(f"{args.directory}: {entries} entries, {cache.total_bytes()} bytes")
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries")
    return 0


def _cmd_obs_watch(args) -> int:
    import time

    from .serve import ServeClient, ServeError

    if not _finite("--interval", args.interval, "> 0"):
        return 2
    client = ServeClient(args.trace)
    polls = 0
    try:
        while True:
            try:
                payload = client.alerts()
            except ServeError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            except OSError as error:
                print(
                    f"error: cannot reach {args.trace}: {error}",
                    file=sys.stderr,
                )
                return 1
            polls += 1
            if args.format == "json":
                print(json.dumps(payload, sort_keys=True), flush=True)
            else:
                summary = payload.get("summary", {})
                line = (
                    f"{time.strftime('%H:%M:%S')}  "
                    f"ok={summary.get('ok', 0)} "
                    f"pending={summary.get('pending', 0)} "
                    f"firing={summary.get('firing', 0)}"
                )
                for alert in payload.get("alerts", []):
                    if alert.get("state") != "ok":
                        value = alert.get("value")
                        shown = "-" if value is None else f"{value:.4g}"
                        line += (
                            f"\n  {alert['state'].upper():<8}"
                            f" {alert['rule']}  value {shown}"
                        )
                print(line, flush=True)
            if args.iterations is not None and polls >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
        return 0
    finally:
        client.close()


def _cmd_obs(args) -> int:
    from .obs import format_rollup, format_tree, load_trace, rollup

    if args.mode == "watch":
        return _cmd_obs_watch(args)
    try:
        trace = load_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.mode == "rollup":
        rows = rollup(trace["spans"])
        if args.format == "json":
            _print_json(
                {
                    "schema": "repro-rollup/1",
                    "trace": args.trace,
                    "spans": len(trace["spans"]),
                    "rows": rows,
                    "metrics": trace["metrics"],
                }
            )
        else:
            print(format_rollup(rows, metrics=trace["metrics"]))
    else:
        if args.format == "json":
            _print_json(trace)
        else:
            print(format_tree(trace["spans"], max_spans=args.max_spans))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the resolved command line, recorded in --trace file headers
    args.cli_argv = list(sys.argv[1:] if argv is None else argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
