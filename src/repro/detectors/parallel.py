"""Sharded execution of the mpx diagonal sweep — bit-identical merge.

The diagonal sweep in :mod:`repro.detectors.matrix_profile` is
embarrassingly parallel over diagonal blocks: a block's contribution
depends only on the O(n) recurrence vectors (``dfp``/``dgp``/``invp``),
the anchor covariances ``c0`` and the block's own buffers — never on
another block's running state.  This module partitions the diagonal
range into contiguous, *block-aligned* shards, sweeps each shard with
the kernel's own dispatcher (compiled or numpy) on a thread of the
calling process, and merges the per-shard running maxima back together.

Three invariants make the merged result **bit-identical** to the
single-sweep kernel for every ``jobs`` value:

* **Block alignment.**  Shard boundaries fall on multiples of the
  kernel block size past the exclusion zone, so a shard's internal
  block starts coincide exactly with the serial sweep's.  Every float
  op inside a block is then the same op the serial sweep performs, the
  numpy sweep's fixed column tiles included.  (The compiled fast path
  steps 512 diagonals, so there a shard may start inside a serial
  block; each diagonal's sums are the same ops either way, and a
  max-only result does not depend on the grouping.)
* **Jobs-independent planning.**  :func:`plan_shards` derives the
  partition from the problem shape alone (never from ``jobs``), so the
  shard list — and therefore the merge order, the spans each shard
  records and the final bits — is identical whether one thread or
  eight consume it.
* **First-occurrence merge.**  Shards are merged in ascending diagonal
  order with a strict ``>``, mirroring the serial sweep's cross-block
  tie rule (earliest diagonal wins; within a block the kernel's own
  row-before-column ordering is preserved because the shard *is* the
  kernel).  A tie between two shards therefore resolves to the same
  neighbour index the serial sweep reports.

The shards share the caller's mean-shifted series, its per-window stats
and one set of recurrence vectors and anchor covariances, computed once
per call and only read by the sweeps.  The compiled block call releases
the GIL (``ctypes``), so shards overlap on as many cores as ``jobs``
allows; the numpy sweep overlaps only where numpy itself releases it.
Each shard traces under an ``mpx.shard`` span with a tracer of its own,
on the caller's clock, when the caller is tracing, and the caller adopts
the records in shard order with :meth:`Tracer.adopt`, so the span tree
does not depend on which thread finished first.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from ..obs import Tracer
from .matrix_profile import _DIAG_BLOCK, _Workspace, _sweep, _sweep_inputs

__all__ = ["plan_shards", "sharded_sweep", "ShardOutcome"]

# hard ceiling on shards per sweep: each shard fills and merges its own
# O(m) running maxima, so the count must stay far below the point where
# that rivals the O(m²/shards) sweep work itself
_MAX_SHARDS = 32
# a shard smaller than this many diagonal blocks is not worth its O(m)
# maxima and merge; small inputs collapse to fewer (or one) shards
_MIN_SHARD_BLOCKS = 4


def plan_shards(
    m: int,
    exclusion: int,
    *,
    diag_stop: "int | None" = None,
    block: int = _DIAG_BLOCK,
) -> "list[tuple[int, int]]":
    """Partition diagonals ``[exclusion, diag_stop)`` into aligned shards.

    Returns contiguous ``(d_lo, d_hi)`` ranges whose interior boundaries
    are block-aligned (``exclusion + k * block``) and whose *pair*
    counts — diagonal ``d`` holds ``m - d`` pairs, so leading diagonals
    are the heaviest — are as balanced as contiguity allows.  The plan
    depends only on the problem shape, never on the thread count: the
    same input always produces the same shards, which is what makes the
    sharded sweep's results and traces independent of ``jobs``.
    """
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
    ``None`` without index tracking).  ``workspace_bytes`` is the shared
    inputs' footprint plus the *largest* single shard's own scratch:
    what one thread holds, and a single sweep of the same range reports.
    ``abandoned`` is True when at least one shard's early-abandon check
    fired; the merged arrays are still returned so the caller can apply
    the kernel's final-state abandon semantics itself.  ``traces`` holds
    each shard's span records in shard order (``None`` entries when
    untraced) for :meth:`Tracer.adopt`.
    """

    __slots__ = ("best", "bestj", "workspace_bytes", "abandoned", "traces", "shards")

    def __init__(self, best, bestj, workspace_bytes, abandoned, traces, shards):
        self.best = best
        self.bestj = bestj
        self.workspace_bytes = workspace_bytes
        self.abandoned = abandoned
        self.traces = traces
        self.shards = shards


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
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    jobs: int,
    abandon: "float | None" = None,
    diag_stop: "int | None" = None,
    tracer: "Tracer | None" = None,
    stop=None,
    reads: "int | None" = None,
) -> ShardOutcome:
    """Sweep every shard of the self-join and merge, in shard order.

    ``x``, ``mean`` and ``inv`` are the single sweep's inputs (the
    mean-shifted series and its per-window stats).  ``jobs`` is the
    thread count; ``jobs=1`` runs the identical shard plan on the
    calling thread, which is what makes single- and multi-threaded
    traces comparable span-for-span.  ``diag_stop`` restricts the sweep
    to separations below it (the anytime mode's leading-diagonal
    window).  ``tracer`` is the caller's enabled tracer, or ``None``:
    each shard then traces with a tracer on its ``epoch``.  ``reads`` is
    a located sweep's prefix mask (see
    :func:`~repro.detectors.matrix_profile._compiled_sweep`): every
    shard keeps it, so no shard computes or advances a pair of two rows
    past it.  The inputs are in sweep order, as
    :func:`~repro.detectors.matrix_profile._entry_sweep` passes them,
    and so are the merged maxima.

    Every shard checks ``abandon`` against the true ``exclusion``: a
    row whose pairs all lie in other shards keeps its -inf sentinel and
    blocks the abandon, so a shard abandons only when the single sweep
    would.  The merged arrays are bit-identical to one serial
    :func:`~repro.detectors.matrix_profile._sweep` over the same
    diagonal range, for every ``jobs``; see the module docstring for why.
    ``stop`` is the calling engine cell thread's stop flag, which every
    shard checks at each block whichever thread sweeps it.
    """
    m = x.size - w + 1
    shards = plan_shards(m, exclusion, diag_stop=diag_stop)
    best = np.full(m, -np.inf)
    bestj = np.zeros(m, dtype=np.int64) if need_indices else None
    if not shards:
        return ShardOutcome(best, bestj, 0, False, [], shards)
    shared = _Workspace()
    inputs = _sweep_inputs(x, w, mean, inv, shared, _DIAG_BLOCK)

    def sweep_one(task):
        index, (d_lo, d_hi) = task
        options = dict(
            need_indices=need_indices,
            abandon=abandon,
            start=d_lo,
            diag_limit=d_hi - d_lo,
            inputs=inputs,
            stop=stop,
            reads=reads,
        )
        if tracer is None:
            return _sweep(x, w, exclusion, mean, inv, **options), None
        child = Tracer(epoch=tracer.epoch)
        with child.span("mpx.shard", index=index, d_lo=d_lo, d_hi=d_hi) as span:
            swept = _sweep(x, w, exclusion, mean, inv, tracer=child, **options)
            if swept is None:
                span.set(abandoned=True)
        return swept, child.export()

    tasks = list(enumerate(shards))
    threads = min(jobs, len(shards))
    scratch = 0
    abandoned = False
    traces = []
    # jobs=1 (or one shard) sweeps on the calling thread; the pool's map
    # yields in shard order, so the merge below never depends on timing
    with (
        ThreadPoolExecutor(threads, "mpx-shard") if threads > 1 else nullcontext()
    ) as pool:
        run = map if pool is None else pool.map
        for swept, records in run(sweep_one, tasks):
            traces.append(records)
            if swept is None:
                abandoned = True
                continue
            shard_best, shard_bestj, shard_bytes = swept
            scratch = max(scratch, shard_bytes)
            _merge(best, bestj, shard_best, shard_bestj)
    return ShardOutcome(
        best, bestj, shared.bytes + scratch, abandoned, traces, shards
    )
