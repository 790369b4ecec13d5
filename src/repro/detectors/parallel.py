"""Sharded execution of the mpx diagonal sweep — bit-identical merge.

The diagonal sweep in :mod:`repro.detectors.matrix_profile` is
embarrassingly parallel over diagonal blocks: a block's contribution
depends only on the O(n) recurrence vectors (``dfp``/``dgp``/``invp``),
the anchor covariances ``c0`` and the block's own buffers — never on
another block's running state.  This module partitions the diagonal
range into contiguous, *block-aligned* shards, sweeps each shard with
the kernel's own dispatcher (compiled or numpy, in a
``ProcessPoolExecutor`` or in-process), and merges the per-shard
running maxima back together.

Three invariants make the merged result **bit-identical** to the
single-sweep kernel for every ``jobs`` value:

* **Block alignment.**  Shard boundaries fall on multiples of the
  kernel block size past the exclusion zone, so a shard's internal
  block starts coincide exactly with the serial sweep's.  Every float
  op inside a block is then the same op the serial sweep performs —
  chunk widths may differ per worker, but the chunk-carry contract
  already makes results chunk-width independent.
* **Jobs-independent planning.**  :func:`plan_shards` derives the
  partition from the problem shape alone (never from ``jobs``), so the
  shard list — and therefore the merge order, the spans each worker
  exports and the final bits — is identical whether one process or
  eight consume it.
* **First-occurrence merge.**  Shards are merged in ascending diagonal
  order with a strict ``>``, mirroring the serial sweep's cross-block
  tie rule (earliest diagonal wins; within a block the kernel's own
  row-before-column ordering is preserved because the shard *is* the
  kernel).  A tie between two shards therefore resolves to the same
  neighbour index the serial sweep reports.

Workers receive the raw series once per process (pool initializer) and
rebuild :class:`~repro.detectors.sliding.SlidingStats` locally — the
stats pipeline is deterministic, so recomputed means/inverse-stds are
bit-equal to the parent's and nothing O(n²) crosses the pipe.  Each
worker traces its shard under an ``mpx.shard`` span when the parent is
tracing; exports travel back by value for :meth:`Tracer.adopt`, exactly
like evaluation-engine cells.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["plan_shards", "sharded_sweep", "ShardOutcome"]

# hard ceiling on shards per sweep: each shard re-derives the O(n·w)
# anchor covariances, so the count must stay far below the point where
# that rivals the O(m²/shards) sweep work itself
_MAX_SHARDS = 32
# a shard smaller than this many diagonal blocks is not worth its
# anchor recomputation; small inputs collapse to fewer (or one) shards
_MIN_SHARD_BLOCKS = 4


def plan_shards(
    m: int,
    exclusion: int,
    *,
    diag_stop: "int | None" = None,
    block: "int | None" = None,
) -> "list[tuple[int, int]]":
    """Partition diagonals ``[exclusion, diag_stop)`` into aligned shards.

    Returns contiguous ``(d_lo, d_hi)`` ranges whose interior boundaries
    are block-aligned (``exclusion + k * block``) and whose *pair*
    counts — diagonal ``d`` holds ``m - d`` pairs, so leading diagonals
    are the heaviest — are as balanced as contiguity allows.  The plan
    depends only on the problem shape, never on the worker count: the
    same input always produces the same shards, which is what makes the
    sharded sweep's results and traces independent of ``jobs``.
    """
    if block is None:
        from .matrix_profile import _DIAG_BLOCK

        block = _DIAG_BLOCK
    stop = m if diag_stop is None else min(int(diag_stop), m)
    if exclusion >= stop:
        return []
    starts = np.arange(exclusion, stop, block, dtype=np.int64)
    count = max(1, min(_MAX_SHARDS, starts.size // _MIN_SHARD_BLOCKS))
    if count == 1:
        return [(int(exclusion), int(stop))]
    ends = np.minimum(starts + block, stop)
    pairs = (ends - starts) * m - (ends * (ends - 1) - starts * (starts - 1)) // 2
    cum = np.cumsum(pairs)
    targets = np.arange(1, count) * (int(cum[-1]) // count)
    cuts = np.unique(
        np.clip(np.searchsorted(cum, targets, side="left") + 1, 1, starts.size - 1)
    )
    bounds = [int(exclusion)] + [int(starts[c]) for c in cuts] + [int(stop)]
    return list(zip(bounds[:-1], bounds[1:]))


class ShardOutcome:
    """What one sweep over all shards produced, pre-merge bookkeeping.

    ``best``/``bestj`` are the merged running maxima (``bestj`` is
    ``None`` without index tracking), ``workspace_bytes`` the *largest*
    single-shard scratch footprint — the per-worker number a process
    budget of ``workspace_bytes × jobs`` bounds.  ``abandoned`` is True
    when at least one shard's early-abandon check fired; the merged
    arrays are still returned so the caller can apply the kernel's
    final-state abandon semantics itself.  ``exports`` holds each
    shard's ``(trace_records, registry_state)`` in shard order (``None``
    entries when untraced) for :meth:`Tracer.adopt`.
    """

    __slots__ = ("best", "bestj", "workspace_bytes", "abandoned", "exports", "shards")

    def __init__(self, best, bestj, workspace_bytes, abandoned, exports, shards):
        self.best = best
        self.bestj = bestj
        self.workspace_bytes = workspace_bytes
        self.abandoned = abandoned
        self.exports = exports
        self.shards = shards


def _shard_chunk(
    m: int,
    d_lo: int,
    worker_budget: "int | None",
    chunk_width: "int | None",
    need_indices: bool,
) -> "int | None":
    """Column-chunk width for one shard's sweep.

    An explicit ``chunk_width`` wins (every shard tiles alike);
    otherwise the *per-worker* budget derives the widest fitting chunk
    for this shard's geometry.  Leading shards have the longest
    diagonals and thus the narrowest chunks; results do not depend on
    the width either way.
    """
    from .matrix_profile import _chunk_for_budget

    if chunk_width is not None:
        return int(chunk_width)
    if worker_budget is None:
        return None
    return _chunk_for_budget(m, d_lo, int(worker_budget), need_indices=need_indices)


class _ShardContext:
    """Everything a worker needs to sweep any shard of one problem."""

    __slots__ = (
        "x",
        "w",
        "mean",
        "inv",
        "m",
        "need_indices",
        "chunk_width",
        "worker_budget",
        "abandon",
        "traced",
    )

    def __init__(
        self,
        values: np.ndarray,
        w: int,
        need_indices: bool,
        chunk_width: "int | None",
        worker_budget: "int | None",
        abandon: "float | None",
        traced: bool,
    ) -> None:
        from .sliding import SlidingStats

        stats = SlidingStats(np.asarray(values, dtype=float))
        mean, inv, _constant = stats.kernel_stats(w)
        self.x = stats.shifted
        self.w = w
        self.mean = mean
        self.inv = inv
        self.m = stats.n - w + 1
        self.need_indices = need_indices
        self.chunk_width = chunk_width
        self.worker_budget = worker_budget
        self.abandon = abandon
        self.traced = traced


def _sweep_one(context: _ShardContext, index: int, d_lo: int, d_hi: int):
    """Sweep one shard; returns ``(swept, trace_records, registry_state)``.

    ``swept`` is the kernel's ``(best, bestj, workspace_bytes)`` tuple,
    or ``None`` when the shard's own early-abandon check fired.  The
    shard is traced inside its own session so the records travel by
    value; the span tree (``mpx.shard`` wrapping the kernel's
    ``mpx.block`` spans, and ``mpx.chunk`` spans on the numpy backend)
    is identical in-process and in a pool worker.
    """
    from .matrix_profile import _sweep
    from ..obs import tracing_session

    chunk = _shard_chunk(
        context.m, d_lo, context.worker_budget, context.chunk_width,
        context.need_indices,
    )
    if not context.traced:
        swept = _sweep(
            context.x,
            context.w,
            d_lo,
            context.mean,
            context.inv,
            need_indices=context.need_indices,
            abandon=context.abandon,
            chunk=chunk,
            diag_limit=d_hi - d_lo,
        )
        return swept, None, None
    with tracing_session(enabled=True) as (tracer, registry):
        with tracer.span(
            "mpx.shard", index=index, d_lo=d_lo, d_hi=d_hi, chunk=chunk
        ) as span:
            swept = _sweep(
                context.x,
                context.w,
                d_lo,
                context.mean,
                context.inv,
                need_indices=context.need_indices,
                abandon=context.abandon,
                chunk=chunk,
                diag_limit=d_hi - d_lo,
                tracer=tracer,
            )
            if swept is None:
                span.set(abandoned=True)
        return swept, tracer.export(), registry.export_state()


# -- process-pool plumbing --------------------------------------------

_POOL_CONTEXT: "_ShardContext | None" = None


def _pool_init(
    values: np.ndarray,
    w: int,
    need_indices: bool,
    chunk_width: "int | None",
    worker_budget: "int | None",
    abandon: "float | None",
    traced: bool,
) -> None:
    """Pool initializer: build the shard context once per worker.

    The series crosses the pipe once per *process* (initargs), not once
    per shard, and the O(n) stats are recomputed locally — bit-equal to
    the parent's because the stats pipeline is deterministic.
    """
    global _POOL_CONTEXT
    _POOL_CONTEXT = _ShardContext(
        values, w, need_indices, chunk_width, worker_budget, abandon, traced
    )


def _pool_sweep(task: "tuple[int, int, int]"):
    index, d_lo, d_hi = task
    return _sweep_one(_POOL_CONTEXT, index, d_lo, d_hi)


def _merge(best, bestj, shard_best, shard_bestj) -> None:
    """Fold one shard into the running result, earliest diagonal first.

    Strict ``>`` keeps the incumbent on ties; because shards arrive in
    ascending diagonal order, the surviving neighbour index is the one
    the serial sweep's first-occurrence rule picks.
    """
    if bestj is None:
        np.maximum(best, shard_best, out=best)
        return
    upd = shard_best > best
    best[upd] = shard_best[upd]
    bestj[upd] = shard_bestj[upd]


def sharded_sweep(
    values: np.ndarray,
    w: int,
    exclusion: int,
    *,
    need_indices: bool,
    jobs: int,
    chunk_width: "int | None" = None,
    worker_budget: "int | None" = None,
    abandon: "float | None" = None,
    diag_stop: "int | None" = None,
    traced: bool = False,
) -> ShardOutcome:
    """Sweep every shard of the self-join and merge, in shard order.

    ``jobs`` is the worker-process count; ``jobs=1`` runs the identical
    shard plan in-process (no pool), which is what makes single- and
    multi-process traces comparable span-for-span.  ``worker_budget``
    is the *per-worker* scratch cap — the caller divides its process
    budget by ``jobs`` — and ``diag_stop`` restricts the sweep to
    separations below it (the anytime mode's leading-diagonal window).

    The merged arrays are bit-identical to one serial
    :func:`~repro.detectors.matrix_profile._diagonal_sweep` over the
    same diagonal range, for every ``jobs``; see the module docstring
    for why.
    """
    values = np.asarray(values, dtype=float)
    m = values.size - w + 1
    shards = plan_shards(m, exclusion, diag_stop=diag_stop)
    best = np.full(m, -np.inf)
    bestj = np.zeros(m, dtype=np.int64) if need_indices else None
    if not shards:
        return ShardOutcome(best, bestj, 0, False, [], shards)

    tasks = [(i, d_lo, d_hi) for i, (d_lo, d_hi) in enumerate(shards)]
    if jobs > 1 and len(shards) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(shards)),
            initializer=_pool_init,
            initargs=(
                values, w, need_indices, chunk_width, worker_budget,
                abandon, traced,
            ),
        ) as pool:
            outcomes = list(pool.map(_pool_sweep, tasks))
    else:
        context = _ShardContext(
            values, w, need_indices, chunk_width, worker_budget, abandon, traced
        )
        outcomes = [_sweep_one(context, *task) for task in tasks]

    workspace = 0
    abandoned = False
    exports = []
    for swept, records, state in outcomes:
        exports.append((records, state))
        if swept is None:
            abandoned = True
            continue
        shard_best, shard_bestj, shard_bytes = swept
        workspace = max(workspace, shard_bytes)
        _merge(best, bestj, shard_best, shard_bestj)
    return ShardOutcome(best, bestj, workspace, abandoned, exports, shards)
