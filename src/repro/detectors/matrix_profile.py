"""Matrix profile (mpx diagonal kernel) and time series discords.

The paper repeatedly benchmarks against "time series discords" ([19],
[21]; Fig 8 and Fig 13) — the subsequence whose z-normalized Euclidean
distance to its nearest non-overlapping neighbour is largest.  The matrix
profile gives every subsequence's nearest-neighbour distance; its argmax
is the discord.

Implementation: an mpx-style diagonal traversal of the self-join.  Per-
window mean, inverse std and the differential update terms are computed
once (O(n), via :mod:`repro.detectors.sliding`); each diagonal of the
distance matrix then updates Pearson correlations with a single cumsum —
one O(n − d) vector op per diagonal, self-join symmetry filling both
triangles at once — and correlations become distances only at the very
end.  Diagonals are processed in blocks so the per-diagonal numpy
dispatch overhead amortizes away; a skewed stride view aligns each
block's anti-diagonals so the symmetric (column-side) maximum is one
reduction instead of a copy.  Compared with the retained per-row STOMP
loop (:func:`repro.detectors.reference.stomp_profile`) this is ~3.3×
faster at n = 20,000 on one core (see the committed ``BENCH_<n>.json``
trajectory under ``benchmarks/perf/``); compared with the O(n²·w) brute
force it is ~50× faster, at identical profiles to ~1e-10.

Each block's column sweep is **tiled**: the reusable row buffer covers
a fixed-width column window (``_CHUNK`` columns) instead of the whole
series, and the raw covariance cumsum is carried across chunk
boundaries.  Because ``np.cumsum`` accumulates strictly sequentially,
the carried sum enters the next chunk as exactly the addition the
unchunked cumsum would have performed, so profiles are *bit-identical*
for every chunk width.  The working set is O(block · chunk) on top of
the O(n) recurrence vectors, bounded by construction (see
docs/kernel.md for the memory model and the chunk-carry derivation).

Where a C compiler is available, each block is swept by the compiled
kernel in ``_mpx.c`` instead (built on first use and loaded by
:mod:`repro.detectors.native`): the same additions in the same order,
O(m) scratch with no tiles, bit-identical profiles and indices, about
twenty times the pairs per second of the numpy sweep on one core
without indices (n = 30,000, w = 100, the AVX-512 body).  The numpy
sweep stays as the fallback and as the tests' oracle; ``_sweep`` picks
between them.

Exactly-constant windows have no z-normalization; they are fixed up in a
vectorized post-pass with the same convention as before: distance 0
between two constant windows, ``sqrt(w)`` between a constant and a
non-constant window.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs import get_registry, get_tracer
from ..types import LabeledSeries
from . import native
from .base import Detector
from .sliding import SlidingStats, moving_mean_std, sliding_max

__all__ = [
    "sliding_dot_products",
    "moving_mean_std",
    "matrix_profile",
    "MatrixProfileResult",
    "ApproxReport",
    "discord_search",
    "discords",
    "subsequence_to_point_scores",
    "MatrixProfileDetector",
    "set_default_kernel_jobs",
    "default_kernel_jobs",
    "bind_cell_thread",
    "SweepStopped",
]

# diagonals per kernel block, large enough to amortize numpy dispatch
_DIAG_BLOCK = 128
# diagonals per call of the compiled fast path (no indices, no abandon):
# each column's loads and row reduction then serve four times the rows.
# Where blocks split cannot change a maximum, but it decides which of two
# equal neighbours an index names and where an abandoning sweep stops,
# so those sweeps keep _DIAG_BLOCK
_FAST_BLOCK = 512
# a located sweep's drop rule (_Pruning).  Timed on `locate` over the
# perfbench batch-archive seeds 11 and 21 (2 vCPUs, AVX-512 body,
# medians of 5 interleaved rounds), one or two candidates re-picked
# after blocks (1), (1, 4), (1, 8), (1, 4, 16) or (1, 2, 4, 8, 16) all
# took 0.254-0.272 s, within noise of each other, against 0.40 s for
# the floor's mask alone; more candidates only cost more: each is one
# np.correlate, 0.17 ms at n = 9,800.  So two, re-picked once.  Swept
# from the series' end, the pruned `locate` still took 0.21 and 0.15 s
# against 0.36 and 0.29 s for the prefix mask alone (medians of 7)
_CANDIDATES = 2
_REPICK_AFTER = (1, 4)
# a candidate's exact squared distance is lowered by this share: on 70
# rows of each series of those seeds it differed from the sweep's by at
# most 3.4e-8 of itself, and a kappa below the sweep's own answer only
# costs a fallback sweep
_MARGIN = 1e-5
_ELEM = np.dtype(float).itemsize
# columns per tile of the numpy sweep's block buffers (_diagonal_sweep),
# so its working set is O(block · _CHUNK) on top of the O(n) recurrence
# vectors whatever n is.  Timed interleaved on the numpy sweep at
# n = 30,000, w = 100 (2 vCPUs, medians of 3): 2,048 columns took 1.43x
# the time of 4,096, 8,192 and 16,384 took 0.98x and 1.10x, and 4,096
# took 0.89x the time of one full-width tile (0.76x with indices).  At
# n = 2e5 and 1e6 the full-width tile is 401 MiB and 2.0 GiB of scratch.
_CHUNK = 4096


# process-wide default for matrix_profile(..., jobs=), installed by
# `repro ... --kernel-jobs`; evaluation-engine cell threads read it as 1
_default_kernel_jobs: int | None = None


class _CellThread(threading.local):
    """Per-thread: the stop flag of the engine run whose cells this
    thread runs (set by :func:`bind_cell_thread`), else ``None``."""

    stop: "threading.Event | None" = None


_cell_thread = _CellThread()


class SweepStopped(RuntimeError):
    """A sweep (or a ``knn`` score) on an engine cell thread saw its
    engine's stop flag."""


def set_default_kernel_jobs(jobs: "int | None") -> None:
    """Set the process-wide default for ``matrix_profile(..., jobs=)``.

    ``None`` removes the default (sweeps stay single and unsharded).
    The evaluation engine's cell threads read a set default as 1 (see
    :func:`bind_cell_thread`), so engine parallelism and kernel threads
    never multiply.
    """
    global _default_kernel_jobs
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"kernel jobs must be >= 1, got {jobs}")
    _default_kernel_jobs = jobs


def default_kernel_jobs() -> "int | None":
    """The default kernel jobs the calling thread reads, or ``None``.

    On an engine cell thread a set default reads as 1; every other
    thread reads the value :func:`set_default_kernel_jobs` installed.
    """
    jobs = _default_kernel_jobs
    if jobs is not None and _cell_thread.stop is not None:
        return 1
    return jobs


def bind_cell_thread(stop: threading.Event) -> None:
    """Make the calling thread one of an evaluation engine's cell threads.

    For as long as the thread lives, two things change on it alone:

    * a kernel-jobs default reads as 1.  The engine already runs
      ``--jobs`` cells at once, and ``jobs × kernel_jobs`` sweeps would
      oversubscribe the machine.  The sweep keeps its jobs-independent
      shard plan on the one thread, so results and canonical traces
      equal a serial engine's, where the kernel threads are allowed;
    * every sweep it starts, and each shard of it, raises
      :class:`SweepStopped` at its next diagonal block once ``stop`` is
      set, and so does a ``knn`` score at its next chunk of query
      windows.  The engine sets it when its run unwinds (a cell raised,
      or Ctrl-C), so the run does not wait for work nobody will read.

    The engine's ``ThreadPoolExecutor`` calls this as its initializer.
    """
    _cell_thread.stop = stop


def sliding_dot_products(query: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Dot product of ``query`` with every window of ``series`` (FFT)."""
    query = np.asarray(query, dtype=float)
    series = np.asarray(series, dtype=float)
    m, n = query.size, series.size
    if m > n:
        raise ValueError(f"query ({m}) longer than series ({n})")
    size = 1 << int(np.ceil(np.log2(n + m)))
    fft_series = np.fft.rfft(series, size)
    fft_query = np.fft.rfft(query[::-1], size)
    product = np.fft.irfft(fft_series * fft_query, size)
    return product[m - 1 : n]


@dataclass(frozen=True)
class ApproxReport:
    """Convergence/error report for an anytime (``approx=``) profile.

    The anytime mode sweeps only the *leading* diagonals — pair
    separations in ``[exclusion, exclusion + diagonals_swept)`` — so
    every reported value is a **pointwise upper bound** on the exact
    nearest-neighbour distance (a subset of candidate neighbours can
    only raise the minimum distance), and the bound is **monotone**:
    sweeping a larger fraction never loosens any entry, because a
    larger fraction covers a superset of diagonals and the shared
    prefix is computed bit-identically.

    ``fraction`` is what the caller asked for; ``fraction_swept`` what
    the kernel actually covered after rounding the diagonal count up to
    whole kernel blocks (always ``>= fraction``).  ``exact`` is True
    when the rounding reached full coverage — the result then *is* the
    exact profile.  Measured deviation from exact is deliberately not a
    field: computing it would cost the full sweep the mode exists to
    avoid; the ``anytime`` bench section measures it on fixtures.
    """

    fraction: float  # requested share of the pair budget
    fraction_swept: float  # actual share after block rounding
    pairs_swept: int
    pairs_total: int
    diagonals_swept: int
    diagonals_total: int
    exact: bool

    def to_json(self) -> dict:
        return {
            "fraction": self.fraction,
            "fraction_swept": self.fraction_swept,
            "pairs_swept": self.pairs_swept,
            "pairs_total": self.pairs_total,
            "diagonals_swept": self.diagonals_swept,
            "diagonals_total": self.diagonals_total,
            "exact": self.exact,
            "guarantee": "upper_bound",
        }


def _leading_pairs(limit: int, total_diagonals: int) -> int:
    """Pairs on the first ``limit`` diagonals (of ``total_diagonals``).

    Diagonal ``k`` of the ``L`` admissible ones holds ``L - k`` …
    ``1`` pairs going outward, i.e. the leading diagonals are the
    heaviest; this closed form is what the anytime mode and the bench
    extrapolation both budget with.
    """
    limit = min(int(limit), int(total_diagonals))
    return limit * int(total_diagonals) - limit * (limit - 1) // 2


def _diag_limit_for_pairs(target_pairs: int, total_diagonals: int) -> int:
    """Smallest leading-diagonal count covering ``target_pairs`` pairs."""
    low, high = 1, max(1, int(total_diagonals))
    while low < high:
        mid = (low + high) // 2
        if _leading_pairs(mid, total_diagonals) >= target_pairs:
            high = mid
        else:
            low = mid + 1
    return low


def _resolve_approx(
    approx: "float | None", total_diagonals: int, block: int = _DIAG_BLOCK
) -> "tuple[int | None, ApproxReport | None]":
    """Turn an ``approx=`` fraction into a diagonal limit plus report.

    The limit is rounded *up* to whole kernel blocks because the sweep
    always processes full blocks — the report accounts for what is
    actually swept, not what was asked for.  Full coverage after
    rounding degrades gracefully to the exact sweep (``limit=None``).
    """
    if approx is None:
        return None, None
    fraction = float(approx)  # range checked by _check_params
    L = int(total_diagonals)
    if L <= 0:
        return None, ApproxReport(
            fraction=fraction,
            fraction_swept=1.0,
            pairs_swept=0,
            pairs_total=0,
            diagonals_swept=0,
            diagonals_total=0,
            exact=True,
        )
    total_pairs = _leading_pairs(L, L)
    target = max(1, int(np.ceil(fraction * total_pairs)))
    limit = _diag_limit_for_pairs(target, L)
    covered = min(L, block * ((limit + block - 1) // block))
    pairs_swept = _leading_pairs(covered, L)
    report = ApproxReport(
        fraction=fraction,
        fraction_swept=pairs_swept / total_pairs,
        pairs_swept=pairs_swept,
        pairs_total=total_pairs,
        diagonals_swept=covered,
        diagonals_total=L,
        exact=covered >= L,
    )
    return (None if covered >= L else covered), report


@dataclass
class MatrixProfileResult:
    """Self-join matrix profile for window length ``w``.

    ``indices`` is ``None`` when the profile was computed with
    ``with_indices=False`` (the fast path detectors use — nothing on the
    scoring path reads neighbour locations).  ``workspace_bytes`` is the
    exact bytes of sweep scratch, from the kernel's allocation
    accounting — for a sharded sweep the inputs the shards share plus
    the *largest single shard*'s own scratch, what one thread holds
    (and what the single sweep reports).

    ``jobs``/``shards`` record how a parallel sweep executed (``None``/
    ``0`` for the single-sweep path); ``report`` is the anytime mode's
    :class:`ApproxReport` (``None`` for exact sweeps) — when present,
    ``profile`` is a pointwise upper bound and ``indices`` are the
    best neighbours *among the pairs swept*, the witnesses of that
    bound.
    """

    w: int
    profile: np.ndarray  # nearest-neighbour distance per subsequence
    indices: np.ndarray | None  # nearest-neighbour location per subsequence
    workspace_bytes: int | None = None
    jobs: int | None = None
    shards: int = 0
    report: ApproxReport | None = None

    @property
    def discord_index(self) -> int:
        """Start index of the top discord subsequence."""
        return int(np.argmax(np.where(np.isfinite(self.profile), self.profile, -np.inf)))


class _Workspace:
    """Accounting allocator for one diagonal sweep's scratch arrays.

    Every array the sweep allocates goes through here, so the recorded
    byte total *is* the sweep's working set — ``workspace_bytes`` and
    the memory regression tests key off it rather than off wall-clock
    or RSS sampling.  The O(n) inputs (series, per-window stats) belong
    to the caller and are not counted; docs/kernel.md tabulates the
    full memory model.
    """

    __slots__ = ("bytes",)

    def __init__(self) -> None:
        self.bytes = 0

    def _track(self, array: np.ndarray) -> np.ndarray:
        self.bytes += array.nbytes
        return array

    def empty(self, shape, dtype=float) -> np.ndarray:
        return self._track(np.empty(shape, dtype=dtype))

    def zeros(self, shape, dtype=float) -> np.ndarray:
        return self._track(np.zeros(shape, dtype=dtype))

    def full(self, shape, value: float) -> np.ndarray:
        return self._track(np.full(shape, value))

    def arange(self, stop: int) -> np.ndarray:
        return self._track(np.arange(stop, dtype=np.int64))

    def aligned(self, count: int) -> np.ndarray:
        """``count`` doubles from a 64-byte boundary, a cache line; the
        padding that takes is counted too."""
        raw = self.empty(count + 64 // _ELEM - 1)
        skip = (-raw.ctypes.data % 64) // _ELEM
        return raw[skip : skip + count]


def _alive_min(best: np.ndarray, exclusion: int) -> float:
    """Smallest running correlation over rows that have any valid pair.

    Rows in ``[m - exclusion, exclusion)`` (non-empty only when
    ``2 * exclusion > m``) can never pair with anything; their -inf
    sentinel must not block early abandonment.
    """
    m = best.size
    if 2 * exclusion <= m:
        return float(best.min())
    candidates = []
    if m - exclusion > 0:
        candidates.append(float(best[: m - exclusion].min()))
    if exclusion < m:
        candidates.append(float(best[exclusion:].min()))
    return min(candidates) if candidates else np.inf


def _sweep_inputs(
    x: np.ndarray,
    w: int,
    mean: np.ndarray,
    inv: np.ndarray,
    ws: _Workspace,
    block: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """The O(n) inputs both sweeps read: ``dfp``, ``dgp``, ``invp``, ``c0``.

    The three recurrence vectors are zero-padded by ``block`` so a
    block's rows may read past the last subsequence without a bounds
    check; ``c0[d]`` is the raw covariance of window 0 with window
    ``d``, the start of diagonal ``d``'s running sum.
    """
    n = x.size
    m = n - w + 1
    # differential update terms (the mpx formulation): along diagonal d,
    # cov(i, i+d) = cov(i-1, i-1+d) + df[i]·dg[i+d] + df[i+d]·dg[i]
    dfp = ws.zeros(m + block)
    dgp = ws.zeros(m + block)
    invp = ws.zeros(m + block)
    dfp[1:m] = 0.5 * (x[w:] - x[: n - w])
    dgp[1:m] = (x[w:] - mean[1:]) + (x[: m - 1] - mean[: m - 1])
    invp[:m] = inv

    # exact anchor covariance per diagonal; np.correlate keeps full
    # double precision (an FFT here would cost ~1e-8 relative noise on
    # large-amplitude series)
    q = x[:w] - mean[0]
    c0 = np.correlate(x, q, mode="valid")
    ws.bytes += c0.nbytes
    anchor = ws.empty(m)
    np.multiply(mean, q.sum(), out=anchor)
    c0 -= anchor
    return dfp, dgp, invp, c0


def _sweep_order(*arrays: np.ndarray) -> "tuple[np.ndarray, ...]":
    """Series-order arrays as every sweep reads them: reversed views, no
    copies.  Sweep row ``k`` is series row ``m − 1 − k``, so each
    diagonal's running sum starts at the series' last window (see
    :func:`_entry_sweep`)."""
    return tuple(array[::-1] for array in arrays)


def _series_order(
    best: np.ndarray, bestj: "np.ndarray | None"
) -> "tuple[np.ndarray, np.ndarray | None]":
    """A sweep's maxima, and its neighbour indices ``j → m − 1 − j`` (in
    place), back in series order, as views."""
    if bestj is not None:
        np.subtract(bestj.size - 1, bestj, out=bestj)
        bestj = bestj[::-1]
    return best[::-1], bestj


class _Pruning:
    """A located sweep's drop rule (see :meth:`MatrixProfileDetector.locate`).

    It works in sweep order: ``x``, ``mean``, ``inv`` and ``constant``
    are :func:`_sweep_order` views, and its rows are the sweep's.  After
    each block that ``_REPICK_AFTER`` names, the alive rows with the
    largest running distance, taken non-overlapping, are candidates.  A
    candidate's exact nearest-neighbour correlation (``np.correlate``
    against the series, with :func:`_finalize`'s constant-window rule)
    is at least the discord's, the smallest among the rows read;
    ``kappa`` is the smallest of them, its squared distance lowered by
    the share ``_MARGIN``.  After every block the rows whose running
    correlation exceeds ``kappa`` leave the mask, and the sweep leaves
    its last mask in ``alive``, which :func:`_entry_sweep` turns back
    into series order.  Where ``kappa`` lies decides how many rows go,
    never the answer: :func:`_certify` checks that.
    """

    def __init__(self, w, exclusion, x, mean, inv, constant) -> None:
        self.x, self.w, self.exclusion = x, w, exclusion
        self.mean, self.inv, self.constant = mean, inv, constant
        self.kappa = np.inf
        self.alive: "np.ndarray | None" = None

    def drop(self, blocks: int, best: np.ndarray, alive: np.ndarray) -> None:
        """After the sweep's ``blocks``-th block: re-pick, then drop."""
        if blocks in _REPICK_AFTER:
            running = np.where(
                alive & ~self.constant & np.isfinite(best), best, np.inf
            )
            for _ in range(_CANDIDATES):
                row = int(np.argmin(running))
                if running[row] == np.inf:
                    break
                self.kappa = min(self.kappa, self._bound(row))
                running[max(0, row - self.w + 1) : row + self.w] = np.inf
        if self.kappa < np.inf:
            alive[best > self.kappa] = False  # a NaN stays

    def _bound(self, row: int) -> float:
        """``row``'s exact nearest-neighbour correlation ``c``, raised to
        ``c + _MARGIN·(1 − c)``, which lowers the squared distance
        ``2w(1 − c)`` by that share (``inf``, no bound, for a NaN)."""
        x, w, exclusion = self.x, self.w, self.exclusion
        query = x[row : row + w] - self.mean[row]
        corr = np.correlate(x, query, mode="valid")
        corr -= self.mean * query.sum()
        corr *= self.inv[row] * self.inv
        lo, hi = max(0, row - exclusion + 1), row + exclusion
        corr[lo:hi] = -np.inf  # the trivial matches
        top = float(corr.max())
        if self.constant[:lo].any() or self.constant[hi:].any():
            top = max(top, 0.5)
        if np.isnan(top):
            return np.inf
        top = min(max(top, -1.0), 1.0)
        return top + _MARGIN * (1.0 - top)


def _certify(
    profile: np.ndarray, prune: "_Pruning | None", floor: int, w: int
) -> "tuple[int, bool]":
    """A located sweep's ``(rows alive, certified)``.

    A dropped row's running correlation exceeded ``kappa``; its final
    one does too (the maximum only grows, and :func:`_finalize` only
    raises it), so by the monotone :func:`_distances` its distance is
    at most ``D(kappa)``.  When the best finite distance among the rows
    still alive is strictly greater, no dropped row ties or beats it,
    and every row alive met all of its pairs in the full sweep's order:
    the first argmax over the rows read is the full sweep's.  The
    dropped rows then read ``-inf``, which the lift skips.  Everything
    here is in series order, the mask ``prune.alive`` included.
    """
    alive = None if prune is None else prune.alive
    if alive is None:  # no mask: the shards' sweep, or numpy's
        return max(0, profile.size - floor), True
    kept = int(np.count_nonzero(alive))
    if kept == profile.size - floor:
        return kept, True
    finite = profile[alive]
    finite = finite[np.isfinite(finite)]
    bound = _distances(np.array([prune.kappa]), w)[0]
    if finite.size == 0 or not finite.max() > bound:
        return kept, False
    profile[floor:][~alive[floor:]] = -np.inf
    return kept, True


def _check_stop(stop: "threading.Event | None") -> None:
    """Raise :class:`SweepStopped` once an engine's stop flag is set."""
    if stop is not None and stop.is_set():
        raise SweepStopped("the engine run this sweep belongs to has stopped")


def _diagonal_sweep(
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    abandon: float | None = None,
    block: int = _DIAG_BLOCK,
    chunk: int = _CHUNK,
    diag_limit: int | None = None,
    tracer=None,
    start: int | None = None,
    inputs=None,
    stop: "threading.Event | None" = None,
    reads: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """mpx diagonal traversal over the (mean-shifted) series ``x``.

    ``tracer`` is an *enabled* :class:`repro.obs.Tracer` or ``None``
    (the default and the fast path): the hot loops pay one ``is not
    None`` test per block/chunk, so un-traced sweeps stay within noise
    of the pre-instrumentation kernel — the ``obs`` bench section
    measures exactly this.  When tracing, each diagonal block emits an
    ``mpx.block`` span and each column chunk inside it an ``mpx.chunk``
    span (explicit start/finish, keeping the loop bodies unindented).

    Returns ``(best_correlation, best_index, workspace_bytes)`` per
    subsequence (the index array is ``None`` unless ``need_indices``;
    ``workspace_bytes`` is the exact scratch footprint from allocation
    accounting), or ``None`` when ``abandon`` is given and every
    subsequence's running correlation already exceeds it — i.e. no
    subsequence can still beat the corresponding distance floor.

    ``chunk`` bounds the column width of the block buffers (``_CHUNK``;
    tests pass awkward widths): each diagonal block is swept in
    fixed-width column chunks, the raw covariance cumsum carried across
    chunk boundaries, so the working set is O(block · chunk) on top of
    the O(m) recurrence vectors.  The carry is the exact running sum at
    the boundary and ``np.cumsum`` accumulates strictly sequentially, so
    the float additions happen in the same order whatever the width —
    results are bit-identical for every width, one full-width chunk
    included.

    ``diag_limit`` stops after that many diagonals, covering only pairs
    with separation in ``[start, start + diag_limit)``.  The scaling
    bench uses it to measure the peak working set (the first block's
    buffers are the widest) and extrapolate timings without paying the
    full O(m²) sweep; the partial ``best`` it returns is *not* a valid
    profile.

    ``start`` (default ``exclusion``, a block-aligned diagonal past it)
    and ``inputs`` (``_sweep_inputs``' vectors, computed by the caller
    and not counted here) are how :mod:`repro.detectors.parallel`
    sweeps one shard.  The abandon check reads ``exclusion`` whatever
    ``start`` is, so a row paired only below ``start`` blocks it.

    ``stop`` is an engine cell thread's stop flag (see
    :func:`bind_cell_thread`): once it is set, the next block raises
    :class:`SweepStopped` instead of sweeping.

    ``reads`` is a located sweep's (see :func:`_compiled_sweep`): the
    rows ``[0, reads)`` whose entries the caller reads.  Every pair that
    touches one of them lies in a column below ``reads``, so each
    block's column tiles end there, and those rows keep their bits.
    """
    m = x.size - w + 1
    first = exclusion if start is None else start
    ws = _Workspace()
    best = ws.full(m, -np.inf)
    bestj = ws.zeros(m, dtype=np.int64) if need_indices else None
    if first >= m:
        return best, bestj, ws.bytes
    if inputs is None:
        inputs = _sweep_inputs(x, w, mean, inv, ws, block)
    dfp, dgp, invp, c0 = inputs

    L0 = m - first
    B0 = min(block, L0)
    cw0 = min(chunk, L0)
    sw0 = cw0 + B0  # widest skewed-reduction target
    buf = ws.empty((B0, cw0 + B0))
    tmp = ws.empty((B0, cw0))
    carry = ws.empty(B0)
    rowval = ws.empty(sw0)
    if need_indices:
        wide = max(sw0, L0)
        rowarg = ws.empty(sw0, dtype=np.intp)
        tmpj = ws.empty(wide, dtype=np.int64)
        upd = ws.empty(wide, dtype=bool)
        colval = ws.empty(L0)
        colarg = ws.empty(L0, dtype=np.intp)
        idx = ws.arange(m)

    end = m if diag_limit is None else min(m, first + int(diag_limit))
    for d in range(first, end, block):
        _check_stop(stop)
        B = min(block, m - d)
        L = m - d
        if tracer is not None:
            block_span = tracer.start_span("mpx.block", d=d, rows=B)
        if need_indices:
            colval[:L].fill(-np.inf)
        cols = L if reads is None else min(L, reads)
        for p0 in range(0, cols, cw0):
            p1 = min(p0 + cw0, cols)
            cw = p1 - p0
            if tracer is not None:
                chunk_span = tracer.start_span("mpx.chunk", p0=p0, cols=cw)
            rowlen = cw + B
            # block rows live in one reusable buffer; B padding columns
            # past each row hold -inf so the skewed view below reads a
            # neutral element wherever it crosses a row boundary
            CB = as_strided(buf, shape=(B, rowlen), strides=(rowlen * _ELEM, _ELEM))
            CB[:, cw:] = -np.inf
            C = CB[:, :cw]
            lo = max(p0, 1)  # global column 0 holds the anchor, not a product
            if p1 > lo:
                span = p1 - lo
                off = lo - p0
                Vdg = as_strided(
                    dgp[d + lo :], shape=(B, span), strides=(_ELEM, _ELEM)
                )
                Vdf = as_strided(
                    dfp[d + lo :], shape=(B, span), strides=(_ELEM, _ELEM)
                )
                t = as_strided(
                    tmp, shape=(B, span), strides=(tmp.strides[0], _ELEM)
                )
                np.multiply(Vdg, dfp[lo:p1], out=C[:, off:])
                np.multiply(Vdf, dgp[lo:p1], out=t)
                C[:, off:] += t
            if p0 == 0:
                C[:, 0] = c0[d : d + B]
            else:
                # chunk-carry: the raw covariance cumsum resumes from the
                # previous chunk's last column, so s_{p0} = carry + a_{p0}
                # is the very addition the unchunked cumsum would perform
                C[:, 0] += carry[:B]
            np.cumsum(C, axis=1, out=C)
            carry[:B] = C[:, cw - 1]  # raw sums, before correlation scaling
            C *= invp[p0:p1]
            Vinv = as_strided(
                invp[d + p0 :], shape=(B, cw), strides=(_ELEM, _ELEM)
            )
            C *= Vinv
            # row b covers diagonal d+b whose true length is L-b: blank
            # whatever part of the short tail falls inside this chunk so
            # reductions never see stale pairs
            if L - B + 1 < p1:
                for b in range(max(1, L - p1 + 1), B):
                    CB[b, max(L - b - p0, 0) : cw] = -np.inf
            # skewed view: S[b, p] = C[b, p-b], so column p collects every
            # correlation whose *larger* index is d+p0+p — the symmetric
            # half of the self-join
            sw = min(cw + B - 1, L - p0)
            S = as_strided(
                CB, shape=(B, sw), strides=((rowlen - 1) * _ELEM, _ELEM)
            )
            if need_indices:
                C.max(axis=0, out=rowval[:cw])
                C.argmax(axis=0, out=rowarg[:cw])
                np.greater(rowval[:cw], best[p0:p1], out=upd[:cw])
                np.copyto(best[p0:p1], rowval[:cw], where=upd[:cw])
                np.add(rowarg[:cw], idx[d + p0 : d + p1], out=tmpj[:cw])
                np.copyto(bestj[p0:p1], tmpj[:cw], where=upd[:cw])
                S.max(axis=0, out=rowval[:sw])
                S.argmax(axis=0, out=rowarg[:sw])
                # merge ties with >=: later chunks hold strictly smaller
                # row offsets for the same column, so the final winner is
                # the first-occurrence argmax the unchunked reduction
                # picks — neighbour indices stay bit-identical too
                np.greater_equal(
                    rowval[:sw], colval[p0 : p0 + sw], out=upd[:sw]
                )
                np.copyto(colval[p0 : p0 + sw], rowval[:sw], where=upd[:sw])
                np.copyto(colarg[p0 : p0 + sw], rowarg[:sw], where=upd[:sw])
            else:
                C.max(axis=0, out=rowval[:cw])
                np.maximum(best[p0:p1], rowval[:cw], out=best[p0:p1])
                S.max(axis=0, out=rowval[:sw])
                np.maximum(
                    best[d + p0 : d + p0 + sw],
                    rowval[:sw],
                    out=best[d + p0 : d + p0 + sw],
                )
            if tracer is not None:
                tracer.end_span(chunk_span)
        if need_indices:
            np.greater(colval[:L], best[d:], out=upd[:L])
            np.copyto(best[d:], colval[:L], where=upd[:L])
            np.subtract(idx[:L], colarg[:L], out=tmpj[:L])
            np.copyto(bestj[d:], tmpj[:L], where=upd[:L])
        if tracer is not None:
            tracer.end_span(block_span)
        if abandon is not None and _alive_min(best, exclusion) >= abandon:
            return None
    return best, bestj, ws.bytes


def _compiled_sweep(
    lib,
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    abandon: float | None = None,
    block: int = _DIAG_BLOCK,
    diag_limit: int | None = None,
    tracer=None,
    start: int | None = None,
    inputs=None,
    stop: "threading.Event | None" = None,
    reads: int | None = None,
    prune: "_Pruning | None" = None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """:func:`_diagonal_sweep` with each block swept by the C kernel.

    Same inputs, same block loop (``mpx.block`` spans, the per-block
    ``abandon`` and ``stop`` checks, ``diag_limit``, ``start``) and
    bit-identical results; the kernel needs O(m) scratch, so there are
    no column chunks to tile.  The fast path (no indices, no
    ``abandon``) steps ``_FAST_BLOCK`` diagonals per call, up to the
    numpy sweep's end: ``diag_limit`` rounded up to a whole number of
    ``block``-diagonal blocks.  The block call releases the GIL, so
    shards and engine cells on threads sweep at once.

    A located sweep (see :meth:`MatrixProfileDetector.locate`) gives
    the fast path a byte mask, ``alive``, of the entries it still
    reads: first the prefix ``[0, reads)``, the rows whose entries the
    caller reads (in sweep order the UCR test region leads, see
    :func:`_entry_sweep`).  The kernel only advances the running sums
    of the columns that pair no alive entry and does not visit the
    columns after the last one that computes, which under the prefix
    is row ``reads − 1``; so the pairs of two rows past it are neither
    computed nor advanced.  An entry that is not alive throughout is
    not a profile entry, and every entry that is keeps its bits.
    ``prune`` (a :class:`_Pruning`) drops entries from the mask between
    blocks, and gets the mask as it ends.  With neither (``reads``
    ``None`` or ``m``), there is no mask and every pair is swept.  The
    running sums live in a 64-byte-aligned array, whole vectors of rows
    to a cache line.
    """
    m = x.size - w + 1
    first = exclusion if start is None else start
    ws = _Workspace()
    best = ws.full(m, -np.inf)
    bestj = ws.zeros(m, dtype=np.int64) if need_indices else None
    if first >= m:
        return best, bestj, ws.bytes
    if inputs is None:
        inputs = _sweep_inputs(x, w, mean, inv, ws, block)
    dfp, dgp, invp, c0 = inputs
    step = _FAST_BLOCK if not need_indices and abandon is None else block
    L0 = m - first
    sums = ws.aligned(min(step, L0))
    head = (dfp.ctypes.data, dgp.ctypes.data, invp.ctypes.data, c0.ctypes.data)
    if need_indices:
        colval = ws.empty(L0)
        colarg = ws.empty(L0, dtype=np.int64)
        tail = (sums.ctypes.data, best.ctypes.data, bestj.ctypes.data,
                colval.ctypes.data, colarg.ctypes.data)
        kernel = lib.mpx_block_argmax
    else:
        alive = None  # every entry: a profile
        if (reads is not None and reads < m) or prune is not None:
            alive = ws.zeros(m, dtype=bool)
            alive[:reads] = True
        tail = (sums.ctypes.data, best.ctypes.data,
                None if alive is None else alive.ctypes.data)
        kernel = lib.mpx_block_max

    end = m
    if diag_limit is not None:
        end = min(m, first + block * ((int(diag_limit) + block - 1) // block))
    for blocks, d in enumerate(range(first, end, step), 1):
        _check_stop(stop)
        B = min(step, end - d)
        if tracer is not None:
            block_span = tracer.start_span("mpx.block", d=d, rows=B)
        kernel(*head, m, d, B, *tail)
        if tracer is not None:
            tracer.end_span(block_span)
        if abandon is not None and _alive_min(best, exclusion) >= abandon:
            return None
        if prune is not None:
            prune.drop(blocks, best, alive)
    if prune is not None:
        prune.alive = alive
    return best, bestj, ws.bytes


def _sweep(
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    *,
    need_indices: bool,
    abandon: float | None = None,
    diag_limit: int | None = None,
    tracer=None,
    start: int | None = None,
    inputs=None,
    stop: "threading.Event | None" = None,
    reads: int | None = None,
    prune: "_Pruning | None" = None,
) -> tuple[np.ndarray, np.ndarray | None, int] | None:
    """One diagonal sweep on the compiled kernel, else on numpy.

    The arguments and the result are :func:`_diagonal_sweep`'s, which
    tiles at its fixed ``_CHUNK`` width; the compiled kernel needs no
    tiles.  Both backends take ``reads``; ``prune`` reaches the
    compiled fast path only (see :func:`_compiled_sweep`).
    """
    options = dict(
        need_indices=need_indices, abandon=abandon, diag_limit=diag_limit,
        tracer=tracer, start=start, inputs=inputs, stop=stop, reads=reads,
    )
    lib = native.load()
    if lib is None:
        return _diagonal_sweep(x, w, exclusion, mean, inv, **options)
    return _compiled_sweep(
        lib, x, w, exclusion, mean, inv, prune=prune, **options
    )


def _distances(corr: np.ndarray, w: int) -> np.ndarray:
    """Correlations (clipped to [-1, 1] in place) → distances
    ``sqrt(2w(1 − c))``: monotone in IEEE doubles, a larger correlation
    never gives a larger distance."""
    np.clip(corr, -1.0, 1.0, out=corr)
    return np.sqrt(2.0 * w * (1.0 - corr))


def _finalize(
    best: np.ndarray,
    bestj: np.ndarray | None,
    w: int,
    exclusion: int,
    constant: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Correlations → distances, with the constant-window conventions.

    Constant windows carry zero inverse-std through the sweep, so every
    pair touching one contributed correlation 0; the true values are
    corr 1 (distance 0) for constant↔constant and corr ½ (distance
    ``sqrt(w)``) for constant↔non-constant.  Both only ever *raise* a
    correlation, so fixing them after the sweep is exact.
    """
    m = best.size
    if constant.any():
        const_idx = np.flatnonzero(constant)
        ii = np.arange(m)
        can_lo = ii >= exclusion
        can_hi = ii + exclusion <= m - 1
        has_lo = const_idx[0] <= ii - exclusion
        has_hi = const_idx[-1] >= ii + exclusion
        has_const = has_lo | has_hi
        # smallest admissible constant neighbour, to mirror the argmin
        # tie-break of the reference kernels
        pos = np.minimum(
            np.searchsorted(const_idx, ii + exclusion), const_idx.size - 1
        )
        j_const = np.where(has_lo, const_idx[0], const_idx[pos])
        rows_cc = constant & has_const
        rows_cn = constant & ~has_const & (can_lo | can_hi)
        rows_nc = ~constant & has_const & (best < 0.5)
        best[rows_cc] = 1.0
        best[rows_cn] = 0.5
        best[rows_nc] = 0.5
        if bestj is not None:
            bestj[rows_cc] = j_const[rows_cc]
            bestj[rows_nc] = j_const[rows_nc]
            first_valid = np.where(can_lo, 0, ii + exclusion)
            bestj[rows_cn] = first_valid[rows_cn]
    untouched = np.isneginf(best)
    profile = _distances(best, w)
    if untouched.any():
        profile[untouched] = np.inf
        if bestj is not None:
            bestj[untouched] = 0
    return profile, bestj


def _require_int(name: str, value, minimum: int) -> None:
    """Refuse a non-integer (a bool included) or one below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_params(w, exclusion=None, jobs=None, approx=None) -> None:
    """The kernel's parameter rules, applied before any sweep.

    Every entry point checks its call here, and the detectors check
    their parameters here when they are built, so a bad spec fails with
    the kernel's own message before a series arrives.  A negative
    ``exclusion`` would start the sweep below the main diagonal, which
    no sweep indexes safely.
    """
    _require_int("window", w, 3)
    if exclusion is not None:
        _require_int("exclusion", exclusion, 0)
    if jobs is not None:
        _require_int("jobs", jobs, 1)
    if approx is not None and not 0.0 < float(approx) <= 1.0:
        raise ValueError(f"approx must be in (0, 1], got {approx!r}")


def _validated(
    values: np.ndarray,
    w: int,
    exclusion: int | None,
    stats: SlidingStats | None,
    *,
    jobs: "int | None" = None,
    approx: "float | None" = None,
) -> tuple[SlidingStats, int]:
    _check_params(w, exclusion, jobs, approx)
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2 * w:
        raise ValueError(
            f"series of length {n} too short for window {w} "
            "(need at least 2*w points)"
        )
    if stats is None:
        stats = SlidingStats(values)
    elif stats.n != n:
        raise ValueError(
            f"sliding stats built for a length-{stats.n} series, got {n}"
        )
    elif values is not stats.values and not np.array_equal(
        values, stats.values
    ):
        raise ValueError(
            "sliding stats were built from a different series than the "
            "values passed in"
        )
    return stats, int(w if exclusion is None else exclusion)


def _resolve_jobs(jobs: "int | None") -> "int | None":
    """Explicit ``jobs`` (checked by :func:`_validated`) wins; otherwise
    the process-wide default."""
    return default_kernel_jobs() if jobs is None else int(jobs)


def _entry_sweep(
    x: np.ndarray,
    w: int,
    exclusion: int,
    mean: np.ndarray,
    inv: np.ndarray,
    span,
    *,
    need_indices: bool,
    jobs: "int | None",
    abandon: "float | None" = None,
    diag_limit: "int | None" = None,
    reads: "int | None" = None,
    prune: "_Pruning | None" = None,
) -> "tuple[np.ndarray, np.ndarray | None, int, int] | None":
    """The one sweep behind :func:`matrix_profile` and
    :func:`discord_search`, under their open ``span``.

    Every sweep runs on the time-reversed series: it takes the
    series-order ``x``, ``mean`` and ``inv`` and sweeps their
    :func:`_sweep_order` views, so each diagonal's running sum starts at
    the series' last window, and it hands back its maxima and neighbour
    indices in series order (:func:`_series_order`).  A located sweep's
    rows ``[0, reads)`` are then the last ``reads`` subsequences, the
    UCR test region that leads every diagonal, and the training pairs
    after them are never reached (see :func:`_compiled_sweep`).
    ``prune`` is a located single sweep's :class:`_Pruning`, built on
    sweep-order views; its last mask comes back in series order too.
    The shards sweep the prefix mask alone and take no ``prune``.

    ``jobs=None`` runs the single sweep.  Otherwise the shard plan of
    :mod:`repro.detectors.parallel` runs on ``jobs`` threads; its
    ``mpx.shard`` spans are adopted in shard order and an
    ``mpx_shards`` counter records the shard count.  On an engine cell
    thread either sweep checks that thread's stop flag at every block.
    Returns ``(best, bestj, workspace_bytes, shards)`` — ``shards`` is 0
    for the single sweep — or ``None`` when ``abandon`` fired.
    """
    tracer = get_tracer()
    stop = _cell_thread.stop
    x, mean, inv = _sweep_order(x, mean, inv)
    if jobs is None:
        swept = _sweep(
            x,
            w,
            exclusion,
            mean,
            inv,
            need_indices=need_indices,
            abandon=abandon,
            diag_limit=diag_limit,
            tracer=tracer if tracer.enabled else None,
            stop=stop,
            reads=reads,
            prune=prune,
        )
        if swept is None:
            return None
        best, bestj, workspace = swept
        if prune is not None and prune.alive is not None:
            prune.alive = prune.alive[::-1]
        return (*_series_order(best, bestj), workspace, 0)
    from .parallel import sharded_sweep

    outcome = sharded_sweep(
        x,
        w,
        exclusion,
        mean,
        inv,
        need_indices=need_indices,
        jobs=jobs,
        abandon=abandon,
        diag_stop=None if diag_limit is None else exclusion + diag_limit,
        tracer=tracer if tracer.enabled else None,
        stop=stop,
        reads=reads,
    )
    shards = len(outcome.shards)
    if span is not None:
        span.set(shards=shards)
    for records in outcome.traces:
        tracer.adopt(records)
    get_registry().counter("mpx_shards").inc(shards)
    # the serial sweep's abandon rule is a final-state property (the
    # running minimum only grows); a shard abandoning already implies
    # it, and the merged check catches saturation no one shard reaches
    if outcome.abandoned or (
        abandon is not None and _alive_min(outcome.best, exclusion) >= abandon
    ):
        return None
    best, bestj = _series_order(outcome.best, outcome.bestj)
    return best, bestj, outcome.workspace_bytes, shards


def _span_attrs(n: int, w: int, jobs: "int | None", **attrs) -> dict:
    """An entry point's span attributes; ``jobs`` only when sharded.
    ``backend`` is not one: the span sets it once open (see
    :func:`_set_backend`)."""
    if jobs is not None:
        attrs["jobs"] = jobs
    return dict(n=n, w=w, **attrs)


def _set_backend(span) -> None:
    """Name the sweep's backend on an open entry-point ``span``.  Asking
    loads the kernel, which on an empty cache builds it: inside the
    span, the build's time is the span's."""
    if span is not None:
        span.set(backend=native.backend())


def matrix_profile(
    values: np.ndarray,
    w: int,
    exclusion: int | None = None,
    *,
    stats: SlidingStats | None = None,
    with_indices: bool = True,
    jobs: int | None = None,
    approx: float | None = None,
) -> MatrixProfileResult:
    """Exact z-normalized self-join matrix profile (mpx diagonal kernel).

    ``exclusion`` is the trivial-match zone half-width, an integer
    >= 0; the default ``w`` enforces the classic discord requirement of
    *non-overlapping* nearest neighbours.  Pass a prebuilt
    :class:`SlidingStats` via ``stats`` to amortize the prefix sums
    across several window lengths (MERLIN does); pass
    ``with_indices=False`` to skip neighbour-index tracking when only
    the distances matter — that is the detector fast path, about eight
    times faster on the compiled kernel (0.18 s against 1.56 s at
    n = 30,000, w = 100).  The sweep's scratch is reported, exactly, as
    :attr:`MatrixProfileResult.workspace_bytes`: O(n) on the compiled
    kernel, O(n) plus one fixed tile on numpy.

    ``jobs`` shards the diagonal sweep across that many threads of this
    process (``jobs=1``: the same shard plan on the calling thread).
    Shards are block-aligned and merged with the serial first-occurrence
    tie rule, so profiles *and* neighbour indices are bit-identical to
    the single-sweep kernel for every ``jobs`` value.  ``None`` defers
    to :func:`set_default_kernel_jobs` (`repro … --kernel-jobs`), else
    stays on the historical single-sweep path.

    ``approx`` enables the anytime mode: sweep only the leading
    diagonals covering at least that fraction of the pair budget and
    return a pointwise **upper bound** on the exact profile, with the
    accounting in :attr:`MatrixProfileResult.report` (an
    :class:`ApproxReport`).  The bound is monotone — a larger fraction
    never loosens any entry — and composes with ``jobs``.
    """
    return _profile(
        values, w, exclusion, stats=stats, with_indices=with_indices,
        jobs=jobs, approx=approx,
    )


def _profile(
    values: np.ndarray,
    w: int,
    exclusion: int | None,
    *,
    stats: SlidingStats | None = None,
    with_indices: bool,
    jobs: int | None,
    approx: float | None,
    floor: int | None = None,
) -> MatrixProfileResult:
    """:func:`matrix_profile`; with ``floor``, a located sweep (see
    :meth:`MatrixProfileDetector.locate`) whose ``mpx.profile`` span
    names the floor, the rows alive at its end and whether the answer
    was certified.  Its entries below ``floor`` are not the profile's,
    and an entry it dropped reads ``-inf``, a distance no pair gives.
    The entries it reads are the sweep's first ``m − floor`` rows
    (``reads``, see :func:`_entry_sweep`).
    """
    stats, exclusion = _validated(
        values, w, exclusion, stats, jobs=jobs, approx=approx
    )
    mean, inv, constant = stats.kernel_stats(w)
    m = stats.n - w + 1
    jobs = _resolve_jobs(jobs)
    diag_limit, report = _resolve_approx(approx, m - exclusion)
    attrs = _span_attrs(stats.n, w, jobs, with_indices=with_indices)
    if floor is not None:
        attrs["floor"] = floor
    with get_tracer().span("mpx.profile", **attrs) as span:
        _set_backend(span)
        if span is not None and report is not None:
            span.set(approx=report.fraction, diag_limit=report.diagonals_swept)
        options = dict(
            need_indices=with_indices, jobs=jobs, diag_limit=diag_limit,
            reads=None if floor is None else m - floor,
        )
        prune = None
        if floor is not None and jobs is None:
            prune = _Pruning(
                w, exclusion, *_sweep_order(stats.shifted, mean, inv, constant)
            )
        best, bestj, workspace, shards = _entry_sweep(
            stats.shifted, w, exclusion, mean, inv, span, prune=prune,
            **options,
        )
        profile, indices = _finalize(best, bestj, w, exclusion, constant)
        if floor is not None:
            alive, certified = _certify(profile, prune, floor, w)
            if not certified:
                get_registry().counter("mpx_located_fallbacks").inc()
                best, _, workspace, shards = _entry_sweep(
                    stats.shifted, w, exclusion, mean, inv, span, **options
                )
                profile, _ = _finalize(best, None, w, exclusion, constant)
            if span is not None:
                span.set(alive=alive, certified=certified)

    registry = get_registry()
    registry.counter("mpx_profiles").inc()
    registry.gauge("mpx_workspace_bytes").set(workspace)
    return MatrixProfileResult(
        w=w,
        profile=profile,
        indices=indices,
        workspace_bytes=workspace,
        jobs=jobs,
        shards=shards,
        report=report,
    )


def discord_search(
    values: np.ndarray,
    w: int,
    exclusion: int | None = None,
    *,
    stats: SlidingStats | None = None,
    normalized_floor: float | None = None,
    jobs: int | None = None,
) -> tuple[int, float] | None:
    """Top discord ``(start_index, distance)`` for one window length.

    ``normalized_floor`` enables MERLIN-style early abandonment: it is a
    length-normalized distance (``d / sqrt(w)``), and the sweep aborts —
    returning ``None`` — as soon as *every* subsequence already has a
    neighbour at or below that floor, because the length then cannot
    improve on the best discord found so far.

    ``jobs`` shards the sweep across threads exactly as in
    :func:`matrix_profile` (same bit-identical merge).  Early
    abandonment stays sound under sharding: each shard checks the true
    exclusion zone, so a row whose pairs lie in other shards blocks its
    abandon, and a shard that saturates on its own diagonals proves the
    merged profile saturates too; the merged result gets the same final
    all-subsequences check the serial sweep ends on — so the
    abandoned/not-abandoned answer is identical for every ``jobs``.
    """
    stats, exclusion = _validated(values, w, exclusion, stats, jobs=jobs)
    mean, inv, constant = stats.kernel_stats(w)
    abandon = None
    if normalized_floor is not None and np.isfinite(normalized_floor):
        # d/sqrt(w) <= floor  ⇔  corr >= 1 - floor²/2, identically in w
        abandon = 1.0 - 0.5 * float(normalized_floor) ** 2
    jobs = _resolve_jobs(jobs)
    attrs = _span_attrs(stats.n, w, jobs)
    with get_tracer().span("mpx.discord_search", **attrs) as span:
        _set_backend(span)
        swept = _entry_sweep(
            stats.shifted,
            w,
            exclusion,
            mean,
            inv,
            span,
            need_indices=False,
            jobs=jobs,
            abandon=abandon,
        )
        if swept is None:
            if span is not None:
                span.set(abandoned=True)
            get_registry().counter("mpx_abandoned_sweeps").inc()
            return None
    profile, _ = _finalize(swept[0], None, w, exclusion, constant)
    finite = np.where(np.isfinite(profile), profile, -np.inf)
    location = int(np.argmax(finite))
    return location, float(finite[location])


def discords(
    values: np.ndarray, w: int, top_k: int = 1, exclusion: int | None = None
) -> list[tuple[int, float]]:
    """Top-k discords as ``(start_index, distance)``, non-overlapping."""
    result = matrix_profile(values, w, exclusion, with_indices=False)
    profile = np.where(np.isfinite(result.profile), result.profile, -np.inf)
    found: list[tuple[int, float]] = []
    for _ in range(top_k):
        best = int(np.argmax(profile))
        if profile[best] == -np.inf:
            # every remaining subsequence overlaps an earlier discord
            # (or had no valid neighbour): asking for more top_k cannot
            # produce more discords, so stop instead of re-scanning
            break
        found.append((best, float(profile[best])))
        lo = max(0, best - w)
        profile[lo : best + w] = -np.inf
    return found


def subsequence_to_point_scores(
    profile: np.ndarray, w: int, n: int, fill: float = -np.inf
) -> np.ndarray:
    """Lift per-subsequence scores to per-point scores.

    A point inherits the maximum score over every subsequence covering
    it, so the whole discord window lights up.  Points covered by no
    finite-scored subsequence get ``fill``.  The maximum is the O(n)
    sliding extremum from :mod:`repro.detectors.sliding`, not the old
    O(n·w) stride trick.
    """
    profile = np.asarray(profile, dtype=float)
    num_subs = profile.size
    if num_subs != n - w + 1:
        raise ValueError(
            f"profile length {num_subs} inconsistent with n={n}, w={w}"
        )
    padded = np.concatenate(
        [np.full(w - 1, fill), np.where(np.isfinite(profile), profile, fill), np.full(w - 1, fill)]
    )
    return sliding_max(padded, w)


class MatrixProfileDetector(Detector):
    """Discord detector: per-point score from the matrix profile.

    The parameters are checked by the kernel's own rules when the
    detector is built, so a bad spec fails before any series is scored.
    ``jobs`` shards the sweep across threads (``None`` defers to
    ``--kernel-jobs``) — scores are bit-identical either way.  ``approx`` trades exactness for speed:
    scores come from the anytime upper-bound profile over that fraction
    of the pair budget; unlike ``jobs`` it *changes the output*, which
    is why it is a spec parameter that reaches manifests and cache keys.
    """

    def __init__(
        self,
        w: int = 100,
        exclusion: int | None = None,
        jobs: int | None = None,
        approx: float | None = None,
    ) -> None:
        _check_params(w, exclusion, jobs, approx)
        self.w = w
        self.exclusion = exclusion
        self.jobs = jobs
        self.approx = approx

    @property
    def name(self) -> str:
        return f"MatrixProfile(w={self.w})"

    def score(self, values: np.ndarray) -> np.ndarray:
        return self._scores(values)

    def locate(self, series: LabeledSeries) -> int:
        """:meth:`Detector.locate`, on a sweep of the pairs it reads.

        The protocol masks every point before ``train_len``, and a point
        at or after it takes its score from windows that start at
        ``floor = train_len - w + 1`` or later.  The sweep runs from the
        series' end (:func:`_entry_sweep`), so those windows are its
        first ``m - floor`` rows and every diagonal meets them before
        the training windows: it stops at the last row read, and never
        computes or advances a pair of two earlier windows, on either
        backend and in every shard.  A single sweep also drops the rows
        that can no longer be the discord (:class:`_Pruning`) and stops
        computing their pairs; the answer stands only when
        :func:`_certify` proves it the full sweep's, and otherwise the
        sweep runs again without dropping a row (counted in
        ``mpx_located_fallbacks``).  Either way the location is the
        full sweep's.
        """
        self.fit(series.train)
        floor = max(0, series.train_len - self.w + 1)
        return self._test_argmax(series, self._scores(series.values, floor))

    def _scores(self, values: np.ndarray, floor: int | None = None):
        values = np.asarray(values, dtype=float)
        result = _profile(
            values,
            self.w,
            self.exclusion,
            with_indices=False,
            jobs=self.jobs,
            approx=self.approx,
            floor=floor,
        )
        return subsequence_to_point_scores(result.profile, self.w, values.size)
